"""Spans around calls into spinbath's layer functions, recorded from outside
the program.

``Tracer.installed()`` swaps the module attributes named in ``WRAPPED`` for
timing wrappers and puts the originals back on exit. The callers inside
spinbath look these names up on the module at call time (``tfa.save_map``,
or a module-global name such as ``combination_coefficients`` inside
``cce``), so every call goes through a wrapper. Spans stay in memory; counts
are derived from them after the pipeline returns, outside every span.

The lattice geometry helpers, ``spinops`` and ``hamiltonian`` run only inside
``cce.compute_correlation``'s batched path and are not wrapped: they are
described by the computed counts in ``layer_metrics``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass

#: (module, attribute) pairs wrapped while tracing
WRAPPED = (
    ("cli", "run_pipeline"),
    ("cli", "_sha256"),
    ("lattice", "build_realization"),
    ("lattice", "save_realization"),
    ("cce", "enumerate_clusters"),
    ("cce", "compute_correlation"),
    ("cce", "combination_coefficients"),
    ("cce", "save_series"),
    ("tfa", "normalize_correlation"),
    ("tfa", "power_spectrum"),
    ("tfa", "save_spectrum"),
    ("tfa", "cwt_bump"),
    ("tfa", "synchrosqueeze"),
    ("tfa", "band_amplitude"),
    ("tfa", "save_map"),
)

#: per-layer self-time metric -> wrapped function it sums over
SELF_TIME = {
    "lattice.build_s": "lattice.build_realization",
    "lattice.save_s": "lattice.save_realization",
    "cce.enumerate_s": "cce.enumerate_clusters",
    "cce.weights_s": "cce.combination_coefficients",
    "cce.compute_s": "cce.compute_correlation",
    "cce.save_series_s": "cce.save_series",
    "tfa.normalize_s": "tfa.normalize_correlation",
    "tfa.spectrum_s": "tfa.power_spectrum",
    "tfa.save_spectrum_s": "tfa.save_spectrum",
    "tfa.cwt_s": "tfa.cwt_bump",
    "tfa.sst_s": "tfa.synchrosqueeze",
    "tfa.bands_s": "tfa.band_amplitude",
    "tfa.save_map_s": "tfa.save_map",
    "cli.hash_s": "cli._sha256",
    "cli.self_s": "cli.run_pipeline",
}

#: what each span keeps for the counts; every note is O(1) to take, so no
#: note adds work inside its parent's span
_NOTES = {
    "lattice.build_realization":
        lambda args, r: (r.n_spins, int(round(2 * r.species.spin_I)) + 1),
    "cce.enumerate_clusters": lambda args, r: len(r.clusters),
    "cce.combination_coefficients": lambda args, r: r,
    "cce.compute_correlation": lambda args, r: len(r.times_tbar),
    "tfa.cwt_bump": lambda args, r: r.coeffs.shape,
    "tfa.synchrosqueeze": lambda args, r: r.coeffs.shape,
    "tfa.save_map": lambda args, r: list(r),
    "cli._sha256": lambda args, r: args[0],
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    note: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: dict = {}

    @contextlib.contextmanager
    def installed(self):
        """Wrap every attribute in WRAPPED for the duration of the block."""
        try:
            for mod, attr in WRAPPED:
                module = importlib.import_module(f"spinbath.{mod}")
                fn = getattr(module, attr)
                self._originals[(mod, attr)] = (module, fn)
                setattr(module, attr, self._wrap(f"{mod}.{attr}", fn))
            yield self
        finally:
            for (mod, attr), (module, fn) in self._originals.items():
                setattr(module, attr, fn)

    def unrestored(self) -> list[str]:
        """Wrapped attributes that do not hold their original object."""
        return [f"{mod}.{attr}" for (mod, attr), (module, fn) in self._originals.items()
                if getattr(module, attr) is not fn]

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.note = note(args or tuple(kwargs.values()), result)
            return result
        return wrapper

    def self_times(self) -> dict:
        """Summed self time per wrapped name: each span's duration minus the
        durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s, c in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - c
        return out

    def notes(self, name) -> list:
        return [s.note for s in self.spans if s.name == name]

    def total(self, name) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)


def layer_metrics(tracer: Tracer, scale: float = 1.0) -> dict:
    """Per-layer metrics of one traced pipeline run, with every time
    multiplied by ``scale`` (and every rate divided by it). Call while the
    products still exist, since file sizes are read from disk."""
    st = tracer.self_times()
    m = {key: st.get(name, 0.0) * scale for key, name in SELF_TIME.items()}

    (n_spins, d), = tracer.notes("lattice.build_realization")
    clusters, = tracer.notes("cce.enumerate_clusters")
    weights, = tracer.notes("cce.combination_coefficients")
    n_times, = tracer.notes("cce.compute_correlation")
    dims = [d ** len(c) for c in weights]
    lines = sum(x * x for x in dims)
    map_shapes = tracer.notes("tfa.cwt_bump") + tracer.notes("tfa.synchrosqueeze")
    map_files = [f for files in tracer.notes("tfa.save_map") for f in files]
    map_bytes = sum(os.path.getsize(f) for f in map_files)
    compute_total = tracer.total("cce.compute_correlation") * scale

    m.update({
        "lattice.n_spins": n_spins,
        "cce.clusters": clusters,
        "cce.clusters_nonzero": len(weights),
        "cce.weight_useful_frac": len(weights) / clusters,
        "cce.clusters_per_s": len(weights) / compute_total,
        "cce.lines": lines,
        "cce.trace_macs": lines * n_times,
        "spinops.eigh_dim3": sum(x ** 3 for x in dims),
        "hamiltonian.matrices": len(dims),
        "hamiltonian.bytes": 16 * lines,
        "tfa.scales": tracer.notes("tfa.cwt_bump")[0][0],
        "tfa.map_cells": sum(r * c for r, c in map_shapes),
        "tfa.map_bytes": map_bytes,
        "tfa.save_map_mb_per_s": map_bytes / 1e6 / m["tfa.save_map_s"],
        "cli.bytes_hashed": sum(os.path.getsize(p) for p in tracer.notes("cli._sha256")),
    })
    return m
