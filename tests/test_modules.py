"""Module boundaries inside the spinbath package."""
import ast
from pathlib import Path

import spinbath

SOURCES = sorted(Path(spinbath.__file__).parent.glob("*.py"))
MODULES = {f"spinbath.{p.stem}" for p in SOURCES}
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def private_reads(path):
    """"line: what" for each ``_``-prefixed name that the module at ``path``
    imports from another spinbath module or reads as ``<module>._name``."""
    found, aliases, reads = [], set(), []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            # a relative import is from inside the package, which is flat
            source = ".".join(filter(None, ["spinbath", node.module])) if node.level \
                else node.module
            for a in node.names:
                if source == "spinbath" and f"spinbath.{a.name}" in MODULES:
                    aliases.add(a.asname or a.name)
                elif source in MODULES and a.name.startswith("_"):
                    found.append(f"{node.lineno}: from {source} import {a.name}")
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.asname and a.name in MODULES}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.attr.startswith("_"):
            reads.append((node.lineno, node.value.id, node.attr))
    return found + [f"{line}: {name}.{attr}" for line, name, attr in reads if name in aliases]


def test_no_module_reads_another_modules_private_names():
    # a helper that another module needs is public in the module that owns it
    assert len(SOURCES) > 1
    offences = {p.name: private_reads(p) for p in SOURCES}
    assert {name: found for name, found in offences.items() if found} == {}


def probe_bypasses(path):
    """"line: what" for each import of tracemalloc in the module at ``path``
    and each ``.view(np.uint64)`` it spells: what tests/probes.py wraps."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [f"{node.lineno}: import {a.name}" for a in node.names
                      if a.name == "tracemalloc"]
        elif isinstance(node, ast.ImportFrom) and node.module == "tracemalloc":
            found.append(f"{node.lineno}: from tracemalloc import")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "view" and list(map(ast.unparse, node.args)) == ["np.uint64"]:
            found.append(f"{node.lineno}: .view(np.uint64)")
    return found


def test_memory_and_bit_checks_go_through_the_probes():
    # a working-set bound or a bit-pattern comparison is one call of probes.py
    offences = {p.name: probe_bypasses(p) for p in TESTS}
    assert offences.pop("probes.py")
    assert {name: found for name, found in offences.items() if found} == {}
