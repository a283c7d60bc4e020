"""Diamond-lattice bath construction, spinful-site sampling, hyperfine geometry
and the reader and row parser that every input file goes through.

All energies are angular frequencies (rad/s, hbar = 1 internally); all lengths
are meters. The central spin sits at the box center and occupies no lattice
site.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: mu_0 / 4 pi, T m / A (exact by pre-2019-SI definition, accurate far beyond
#: the precision needed here)
MU0_OVER_4PI = 1.0e-7
#: reduced Planck constant, J s (2018 CODATA)
HBAR = 1.054571817e-34

# conventional diamond cell: two interpenetrating FCC sublattices offset by
# a0/4 (1,1,1); fractional coordinates, basis index varies fastest last
_FCC = np.array([[0.0, 0.0, 0.0],
                 [0.0, 0.5, 0.5],
                 [0.5, 0.0, 0.5],
                 [0.5, 0.5, 0.0]])
DIAMOND_BASIS = np.vstack([_FCC, _FCC + 0.25])


class LatticeError(ValueError):
    """Invalid lattice/bath specification or geometry."""


@dataclass(frozen=True)
class SpeciesParams:
    """Single nuclear species: spin quantum number, gyromagnetic ratio and
    the electron-envelope hyperfine model parameters (peak coupling A0 and
    confinement radius L0)."""
    spin_I: float
    gamma: float          # rad s^-1 T^-1
    A0: float             # rad/s, peak hyperfine coupling
    L0: float             # m, electron confinement radius

    def __post_init__(self):
        twoI = 2.0 * self.spin_I
        if not 0.5 <= twoI < np.inf or abs(twoI - round(twoI)) > 1e-12:
            raise LatticeError(f"spin_I must be a positive half-integer, got {self.spin_I}")
        if self.A0 <= 0:
            raise LatticeError("A0 must be positive")
        if self.L0 <= 0:
            raise LatticeError("L0 must be positive")


@dataclass(frozen=True)
class LatticeSpec:
    """Computational box of conventional diamond cells populated with one
    nuclear species at fractional abundance ``abundance_rho``."""
    lattice_constant_a0: float
    box_dims: tuple[int, int, int]
    species: SpeciesParams
    abundance_rho: float
    seed: int = 0
    explicit_sites: tuple[int, ...] | None = None   # bypasses the PRNG

    def __post_init__(self):
        if self.lattice_constant_a0 <= 0:
            raise LatticeError("lattice_constant_a0 must be positive")
        if len(self.box_dims) != 3 or any(int(n) != n or n < 1 for n in self.box_dims):
            raise LatticeError(f"box_dims must be three integers >= 1, got {self.box_dims}")
        if not 0.0 <= self.abundance_rho <= 1.0:
            raise LatticeError(f"abundance must lie in [0, 1], got {self.abundance_rho}")


@dataclass(frozen=True)
class PairGeometry:
    """Relative geometry of spin pairs in the hyperfine frame, one value per
    pair in every field."""
    cos_theta: np.ndarray     # cosine of the polar angle w.r.t. the hf axis
    phi_ij: np.ndarray        # rad, azimuth in (-pi, pi]
    prefactor: np.ndarray     # rad/s, (mu0/4pi) hbar gamma^2 / r^3


@dataclass(frozen=True)
class BathRealization:
    """One spinful-site draw: positions (central spin at origin), hyperfine
    couplings, the hyperfine axis and the scales derived from them."""
    positions: np.ndarray        # (N, 3), m
    hf_couplings_A: np.ndarray   # (N,), rad/s
    hf_axis: np.ndarray          # unit 3-vector
    species: SpeciesParams
    a0: float
    site_indices: tuple[int, ...] = field(default=())
    E_dd: float = field(init=False)     # rad/s, of species.gamma and a0
    A_bar: float = field(init=False)    # rad/s, mean coupling (0 for no spins)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        A = np.asarray(self.hf_couplings_A, dtype=float).ravel()
        axis = np.asarray(self.hf_axis, dtype=float).ravel()
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "hf_couplings_A", A)
        object.__setattr__(self, "hf_axis", axis)
        if len(A) != len(pos):
            raise LatticeError("positions and hf couplings disagree in length")
        with np.errstate(over="ignore"):        # a norm past the float range is inf
            norm = np.linalg.norm(axis)
        if not abs(norm - 1.0) <= 1e-12:        # NaN and inf fail too
            raise LatticeError("hf_axis must be a unit vector")
        if len(A) and (np.any(A <= 0) or np.any(A > self.species.A0 * (1 + 1e-12))):
            raise LatticeError("hyperfine couplings must satisfy 0 < A_i <= A0")
        object.__setattr__(self, "E_dd", compute_E_dd(self.species.gamma, self.a0))
        object.__setattr__(self, "A_bar", float(A.mean()) if len(A) else 0.0)

    @property
    def n_spins(self) -> int:
        return len(self.hf_couplings_A)

    @property
    def sigma_hf(self) -> float:
        return float(np.std(self.hf_couplings_A))


def build_diamond_lattice(spec: LatticeSpec) -> np.ndarray:
    """All 8 * prod(box_dims) diamond sites, box center translated to the origin.

    Ordering is lexicographic in cell index (x, then y, then z), then basis
    index, so seeded sampling is reproducible.
    """
    a0 = spec.lattice_constant_a0
    cells = np.indices(spec.box_dims, dtype=float).reshape(3, -1).T
    frac = cells[:, None, :] + DIAMOND_BASIS[None, :, :]
    pos = frac.reshape(-1, 3) * a0
    center = 0.5 * a0 * np.array(spec.box_dims, dtype=float)
    return pos - center


def sample_spinful_sites(positions: np.ndarray, rho: float, seed: int) -> np.ndarray:
    """Bernoulli draw of spinful sites, one uniform variate per site in lattice
    order from a PCG64 stream, so identical (seed, spec) gives identical subsets.
    """
    if not 0.0 <= rho <= 1.0:
        raise LatticeError(f"abundance must lie in [0, 1], got {rho}")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(len(positions))
    return np.nonzero(u < rho)[0]


def assign_hf_couplings(positions: np.ndarray, species: SpeciesParams) -> np.ndarray:
    """Gaussian-envelope hyperfine couplings A_i = A0 exp(-r_i^2 / L0^2)."""
    r2 = np.einsum("ij,ij->i", positions, positions)
    return species.A0 * np.exp(-r2 / species.L0 ** 2)


def compute_E_dd(gamma: float, a0: float) -> float:
    """Dipole-dipole energy scale (rad/s) of two like spins of gyromagnetic
    ratio ``gamma`` one bond length a0 sqrt(3)/4 apart."""
    if a0 <= 0:
        raise LatticeError("a0 must be positive")
    with np.errstate(all="ignore"):
        bond = a0 * np.sqrt(3.0) / 4.0
        e_dd = MU0_OVER_4PI * HBAR * np.float64(gamma) ** 2 / bond ** 3
    if not 0 < e_dd < np.inf:
        raise LatticeError(f"gamma = {gamma:g} and a0 = {a0:g} give no finite E_dd")
    return e_dd


def rotation_to_axis(axis: np.ndarray) -> np.ndarray:
    """Rotation matrix mapping [001] onto ``axis`` by the minimal rotation
    (about z cross axis). Antiparallel axis rotates about x by pi."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    c = n[2]
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        # rotate about x by pi
        return np.diag([1.0, -1.0, -1.0])
    v = np.array([-n[1], n[0], 0.0])       # z cross n
    s = np.linalg.norm(v)
    v = v / s
    angle = np.arccos(np.clip(c, -1.0, 1.0))
    K = np.array([[0, -v[2], v[1]],
                  [v[2], 0, -v[0]],
                  [-v[1], v[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def pair_geometry(r_i: np.ndarray, r_j: np.ndarray, hf_axis: np.ndarray,
                  species: SpeciesParams) -> PairGeometry:
    """Polar/azimuthal angles of r_j - r_i in the rotated frame whose z-axis is
    the hyperfine axis, plus the dipolar prefactor. ``r_i`` and ``r_j`` are
    (..., 3) arrays; every field of the result has their leading shape."""
    r = np.asarray(r_j, dtype=float) - np.asarray(r_i, dtype=float)
    norm = np.linalg.norm(r, axis=-1)
    if np.any(norm == 0.0):
        raise LatticeError("coincident sites have no pair geometry")
    local = r @ rotation_to_axis(hf_axis)
    pref = MU0_OVER_4PI * HBAR * species.gamma ** 2 / norm ** 3
    return PairGeometry(cos_theta=local[..., 2] / norm,
                        phi_ij=np.arctan2(local[..., 1], local[..., 0]),
                        prefactor=pref)


def hf_axis_from_miller(h: float, k: float, l: float) -> np.ndarray:
    """Unit vector along (h, k, l). A direction whose norm is zero, overflows
    or underflows too far to normalize to 1e-12 is refused."""
    v = np.array([h, k, l], dtype=float)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not 0 < n < np.inf or not abs(np.linalg.norm(v / n) - 1.0) <= 1e-12:
        raise LatticeError(f"direction {h:g} {k:g} {l:g} cannot be normalized")
    return v / n


def hf_axis_from_angles(theta_deg: float, phi_deg: float) -> np.ndarray:
    """Unit vector at polar angle theta from [001] and azimuth phi, degrees."""
    th = np.deg2rad(theta_deg)
    ph = np.deg2rad(phi_deg)
    return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


def build_realization(spec: LatticeSpec, hf_axis: np.ndarray) -> BathRealization:
    """Build the lattice, draw (or take) the spinful subset and assign couplings."""
    pos = build_diamond_lattice(spec)
    if spec.explicit_sites is not None:
        idx = np.asarray(spec.explicit_sites, dtype=int)
        if len(idx) and (idx.min() < 0 or idx.max() >= len(pos)):
            raise LatticeError("explicit site index out of range")
    else:
        idx = sample_spinful_sites(pos, spec.abundance_rho, spec.seed)
    sub = pos[idx]
    axis = np.asarray(hf_axis, dtype=float)
    return BathRealization(positions=sub, hf_couplings_A=assign_hf_couplings(sub, spec.species),
                           hf_axis=axis / np.linalg.norm(axis), species=spec.species,
                           a0=spec.lattice_constant_a0,
                           site_indices=tuple(int(i) for i in idx))


def save_realization(path, real: BathRealization) -> None:
    """Comma-separated text export: one header line
    (a0, L0, A0/E_dd, spin_I, gamma, hf_axis), then index,x,y,z,A per site,
    floats at 17 significant digits."""
    f17 = "{:.16e}".format
    with open(path, "w") as fh:
        head = [f17(real.a0), f17(real.species.L0), f17(real.species.A0 / real.E_dd),
                f17(real.species.spin_I), f17(real.species.gamma)]
        head += [f17(c) for c in real.hf_axis]
        fh.write(",".join(head) + "\n")
        idx = real.site_indices if len(real.site_indices) == real.n_spins \
            else tuple(range(real.n_spins))
        for i, (p, a) in enumerate(zip(real.positions, real.hf_couplings_A)):
            fh.write(",".join([str(idx[i]), f17(p[0]), f17(p[1]), f17(p[2]), f17(a)]) + "\n")


def load_realization(path) -> BathRealization:
    """Read a file written by ``save_realization``. A malformed file raises
    LatticeError naming the file and, for a bad line, its number."""
    lines = [(n, ln.strip()) for n, ln in
             enumerate(read_text(path, "realization", LatticeError).split("\n"), 1) if ln.strip()]
    if not lines:
        raise LatticeError(f"{path}: empty realization file")
    lineno, text = lines[0]
    try:
        head = finite_floats(text.split(","), 8)
        idx, rows = [], []
        for lineno, ln in lines[1:]:
            parts = ln.split(",")
            idx.append(int(parts[0]))
            rows.append(finite_floats(parts[1:], 4))
    except ValueError as exc:
        raise LatticeError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise LatticeError(f"{path}: no site rows after the header")
    a0, L0, ratio, spin_I, gamma = head[:5]
    axis = np.array(head[5:8])
    rows = np.array(rows).reshape(-1, 4)
    try:
        # A0 stored as a ratio to E_dd so the header round-trips the model spec
        species = SpeciesParams(spin_I=spin_I, gamma=gamma,
                                A0=ratio * compute_E_dd(gamma, a0), L0=L0)
        return BathRealization(positions=rows[:, :3], hf_couplings_A=rows[:, 3],
                               hf_axis=axis, species=species, a0=a0, site_indices=tuple(idx))
    except LatticeError as exc:
        raise LatticeError(f"{path}: {exc}") from None


def read_text(path, what: str, error: type[Exception]) -> str:
    """Text of the ``what`` file ``path``; one not readable or not text raises ``error``."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise error(f"{what} file {path} is not text") from None


def finite_floats(fields, n: int) -> list:
    """The ``n`` fields of one data row as finite floats, else ValueError."""
    if len(fields) != n:
        raise ValueError(f"expected {n} numeric fields, got {len(fields)}")
    values = [float(x) for x in fields]
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite value")
    return values
