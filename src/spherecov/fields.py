"""Point sets, Gram matrices, PSD oracle, and Gaussian field samplers.

The eigenvalue check on Gram matrices is the independent oracle behind
kernel certification. Two samplers are provided: an exact factorization
sampler on arbitrary point sets for all three kernel families, and a
spectral sampler on the 2-sphere built from real spherical harmonics,
which serves as an independent cross-check through the addition theorem

    Σ_m Y_nm(p) Y_nm(q) = ((2n+1)/4π) · P_n(⟨p, q⟩).

All randomness flows through numpy's seedable PCG64 generator
(`numpy.random.default_rng`); derived streams are split with
`numpy.random.SeedSequence`, so every operation is a pure function of its
inputs and seed on a fixed BLAS build and thread count. Kernel values and
Gram entries are the same at any thread count, since no kernel sums its
series in BLAS. Factors and samples go through BLAS, whose summation order
may change with the number of threads, so their last bits can differ
between thread counts. The spectral sampler multiplies in blocks of
samples, and OpenBLAS may sum a row differently with the row count of the
product, so its bits can also differ from those of one whole product.

A point set is read as its ordered factors, one per kernel argument. A
sphere factor S^d is a SpherePointSet: d + 1 columns of a points file,
uniform random points and, for a pair, the cosine ⟨p_i, p_j⟩. A time
factor is a 1-D array of times: one column, times uniform on [0, 1) and
the lag t_i − t_j. SpherePointSet is its own single factor,
SpaceTimePointSet is (space, times) and ProductPointSet is (first,
second). The point-set protocol (`dimensions`, the points-file columns
`n_columns`, `from_columns` and `columns`, and seeded `random` points with
factor k drawn from states[k]) is written once over the factors.

The arrays that grow with the request (a random point set, a Gram matrix,
a samples × points matrix, a harmonics table) are checked against
`gegenbauer._MAX_ARRAY_BYTES`, as the degree tables of `eval_sequence` are,
before any of them is allocated; a larger request raises DomainError.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import gegenbauer
from .errors import DomainError, FactorizationError, GeometryError
from .gegenbauer import _check_array_bytes, _check_count, _check_real, _check_seed, _frozen_floats, _immutable
from .product_spheres import ProductSphereKernel
# kernel_eval is not called here, but perfbench/selftest.py checks its traced binding in this module.
from .schoenberg import SchoenbergSequence, kernel_eval  # noqa: F401
from .spacetime import SpaceTimeKernel

__all__ = [
    "FieldSample",
    "GramMatrix",
    "ProductPointSet",
    "SpaceTimePointSet",
    "SpherePointSet",
    "empirical_covariance",
    "geodesic_cosine",
    "gram",
    "harmonic_dimension",
    "kernel_label",
    "min_eigenvalue",
    "real_spherical_harmonics",
    "sample_factorized",
    "sample_spectral_s2",
    "schur_product",
    "uniform_sphere_points",
]

UNIT_NORM_TOL = 1e-12
SYMMETRY_TOL = 1e-12


_SPHERE = "sphere"
_TIME = "time"


class _FactoredPointSet:
    """The point-set protocol, written once over `FACTORS`, the kind of each
    factor in column order (see the module docstring). A point set with one
    factor is that factor; the factors of any other are its fields, in order."""

    def __len__(self) -> int:
        return len(self._factors()[0][1])

    def _factors(self) -> list:
        """(kind, factor) pairs: a SpherePointSet or a 1-D array of times each."""
        values = (self,) if len(self.FACTORS) == 1 else [getattr(self, f.name) for f in dataclasses.fields(self)]
        return list(zip(self.FACTORS, values))

    @classmethod
    def _from_factors(cls, factors):
        return factors[0] if len(cls.FACTORS) == 1 else cls(*factors)

    @classmethod
    def _factor_dimensions(cls, dimensions) -> list:
        """(kind, d) pairs: d is the next of `dimensions` for a sphere, None for time."""
        dims = iter(dimensions)
        return [(kind, next(dims) if kind == _SPHERE else None) for kind in cls.FACTORS]

    @property
    def dimensions(self) -> tuple:
        """The dimension d of each sphere factor, in order."""
        return tuple(f.dimension for kind, f in self._factors() if kind == _SPHERE)

    @classmethod
    def n_columns(cls, dimensions) -> int:
        """Points-file columns: d + 1 per sphere factor, 1 per time factor."""
        return sum(dimensions) + len(cls.FACTORS)

    @classmethod
    def from_columns(cls, dimensions, data):
        """The point set whose factors are consecutive column blocks of `data`."""
        if data.shape[1] != cls.n_columns(dimensions):
            raise GeometryError(f"{cls.__name__} needs {cls.n_columns(dimensions)} columns, got {data.shape[1]}")
        factors, start = [], 0
        for kind, d in cls._factor_dimensions(dimensions):
            if kind == _SPHERE:
                factors.append(SpherePointSet(dimension=d, points=data[:, start : start + d + 1]))
                start += d + 1
            else:
                factors.append(data[:, start])
                start += 1
        return cls._from_factors(factors)

    def columns(self) -> np.ndarray:
        """The factors' columns side by side, one row per point."""
        return np.column_stack([f.points if kind == _SPHERE else f for kind, f in self._factors()])

    @classmethod
    def random(cls, dimensions, n: int, states):
        """n random points, factor k seeded by states[k]."""
        return cls._from_factors([
            uniform_sphere_points(d, n, int(state)) if kind == _SPHERE
            else np.random.default_rng(int(state)).uniform(0.0, 1.0, n)
            for (kind, d), state in zip(cls._factor_dimensions(dimensions), states)
        ])

    def _row_factors(self) -> list:
        """Per factor, what its kernel arguments are read from: the n × n
        cosine matrix of a sphere, the times of a time factor."""
        return [_cosine_matrix(f.points) if kind == _SPHERE else f for kind, f in self._factors()]


def _check_unit_norms(rows: np.ndarray, name: str, error) -> None:
    """`error` unless each row of the 2-D float array `rows` has a norm within
    `UNIT_NORM_TOL` of 1. The message names the row furthest off as
    `name.format(index)` and shows its norm as a Python float. An overflowing
    norm is inf, without a numpy warning, and fails the tolerance; so does a NaN."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    off = np.abs(norms - 1.0)
    worst = int(np.argmax(off))  # the first NaN, if there is one
    if not off[worst] <= UNIT_NORM_TOL:
        raise error(f"{name.format(worst)} has norm {float(norms[worst])!r}, not 1 within {UNIT_NORM_TOL}")


@dataclass(frozen=True)
class SpherePointSet(_FactoredPointSet):
    """n unit vectors in R^{d+1}, rows of `points`: a single sphere factor."""

    dimension: int
    points: np.ndarray

    FACTORS = (_SPHERE,)
    LAYOUT = "coordinates in R^(d+1)"

    def __post_init__(self):
        d = _check_count(self.dimension, "sphere dimension", 1, GeometryError)
        pts = _immutable(_frozen_floats(self.points, 2, "points", GeometryError))
        if pts.shape[1] != d + 1:
            raise GeometryError(
                f"points must have shape (n, {d + 1}), got {pts.shape}"
            )
        _check_unit_norms(pts, "point {}", GeometryError)
        object.__setattr__(self, "dimension", d)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class SpaceTimePointSet(_FactoredPointSet):
    """Pairs (p_i, t_i) of sphere points and times: factors (space, times)."""

    space: SpherePointSet
    times: np.ndarray

    FACTORS = (_SPHERE, _TIME)
    LAYOUT = "coordinates then time"

    def __post_init__(self):
        t = _immutable(_frozen_floats(self.times, 1, "times", GeometryError))
        if t.size != len(self.space):
            raise GeometryError(
                f"times must be 1-D with one entry per point ({len(self.space)}), got shape {t.shape}"
            )
        object.__setattr__(self, "times", t)


@dataclass(frozen=True)
class ProductPointSet(_FactoredPointSet):
    """Pairs (p_i, q_i) with p_i on the first sphere and q_i on the second:
    factors (first, second)."""

    first: SpherePointSet
    second: SpherePointSet

    FACTORS = (_SPHERE, _SPHERE)
    LAYOUT = "first factor then second"

    def __post_init__(self):
        if len(self.first) != len(self.second):
            raise GeometryError(
                f"component point sets must have equal length, got {len(self.first)} and {len(self.second)}"
            )


# The only place that pairs a kernel family with its point geometry.
_POINT_SET_TYPES = {
    SchoenbergSequence: SpherePointSet,
    SpaceTimeKernel: SpaceTimePointSet,
    ProductSphereKernel: ProductPointSet,
}


def point_set_type(kernel) -> type:
    """The point-set class on which `kernel` is evaluated."""
    try:
        return _POINT_SET_TYPES[type(kernel)]
    except KeyError:
        raise GeometryError(f"unknown kernel type {type(kernel).__name__}") from None


def _check_points(kernel, points):
    point_type = point_set_type(kernel)
    if not isinstance(points, point_type):
        raise GeometryError(f"a {kernel.label} kernel needs a {point_type.__name__}")
    if points.dimensions != kernel.dimensions:
        raise GeometryError(
            f"kernel has sphere dimensions {kernel.dimensions}, points {points.dimensions}"
        )


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric matrix of kernel evaluations plus a provenance string.

    `entries` are taken in by `_frozen_floats` and must be square and
    symmetric: no |m_ij − m_ji| may exceed `SYMMETRY_TOL` times max(1, max |m_ij|).
    An exactly symmetric matrix (`m == m.T`, as `gram` and `certify` build
    them) passes that test by definition, so it is checked with one
    comparison, and only a matrix that fails it pays for the tolerance test.
    """

    entries: np.ndarray
    provenance: str

    def __post_init__(self):
        m = _frozen_floats(self.entries, 2, "entries")
        if m.shape[0] != m.shape[1]:
            raise DomainError(f"entries must be a square matrix, got shape {m.shape}")
        if not (m == m.T).all():
            scale = max(1.0, float(np.abs(m).max()))
            with gegenbauer._overflow("entries must be symmetric"):  # an overflowing difference is asymmetry
                asymmetry = m - m.T
            np.abs(asymmetry, out=asymmetry)
            if float(asymmetry.max()) > SYMMETRY_TOL * scale:
                raise DomainError("entries must be symmetric")
        object.__setattr__(self, "entries", m)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FieldSample:
    """n_samples realizations (rows) of a Gaussian field at fixed points."""

    values: np.ndarray
    seed: int
    kernel_id: str

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_floats(self.values, 2, "values"))
        object.__setattr__(self, "seed", _check_seed(self.seed))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]


def uniform_sphere_points(d: int, n: int, seed: int) -> SpherePointSet:
    """n points drawn uniformly on S^d by normalizing standard Gaussians."""
    d = _check_count(d, "d", 1)
    n = _check_count(n, "n", 1)
    _check_array_bytes((n, d + 1), "a point set")
    rng = np.random.default_rng(_check_seed(seed))
    v = rng.standard_normal((n, d + 1))
    norms = np.linalg.norm(v, axis=1, keepdims=True)
    # A zero draw has probability 0; redraw those rows to keep the map total.
    while np.any(norms == 0.0):
        bad = norms[:, 0] == 0.0
        v[bad] = rng.standard_normal((int(bad.sum()), d + 1))
        norms = np.linalg.norm(v, axis=1, keepdims=True)
    return SpherePointSet(dimension=d, points=v / norms)


def geodesic_cosine(p, q) -> float:
    """cos of the great-circle angle: the inner product clamped to [-1, 1]."""
    p, q = gegenbauer._float_array(p, "p"), gegenbauer._float_array(q, "q")
    for name, v in (("p", p), ("q", q)):
        if v.ndim != 1:
            raise DomainError(f"{name} must be a vector")
        _check_unit_norms(v[np.newaxis], name, DomainError)
    if p.shape != q.shape:
        raise DomainError("p and q must have the same length")
    return float(np.clip(p @ q, -1.0, 1.0))


def kernel_label(kernel) -> str:
    """Short human-readable identifier used in provenance strings."""
    point_set_type(kernel)  # GeometryError for anything but the three kernel types
    return kernel.label


def _cosine_matrix(points: np.ndarray) -> np.ndarray:
    cosines = points @ points.T
    return np.clip(cosines, -1.0, 1.0, out=cosines)


def _row_blocks(n: int):
    """Yield slices of consecutive rows of an n × n matrix whose upper-triangle
    parts hold at most `gegenbauer._BLOCK_POINTS` entries together, or one row:
    a kernel sum's block has at most that many points within `_BLOCK_BYTES`."""
    start = 0
    while start < n:
        stop, size = start + 1, n - start
        while stop < n and size + n - stop <= gegenbauer._BLOCK_POINTS:
            size, stop = size + n - stop, stop + 1
        yield slice(start, stop)
        start = stop


def _upper(rows: slice, n: int) -> np.ndarray:
    """Mask of the pairs (i, j), j >= i, over `rows` × columns rows.start..n−1."""
    return np.arange(rows.start, n) >= np.arange(rows.start, rows.stop)[:, None]


def _row_arguments(factors: list, rows: slice) -> tuple:
    """One kernel argument per factor of `_row_factors` for the upper-triangle
    pairs (i, j), j >= i, of `rows` in row-major order, as `_upper` masks them:
    the one pair order, which `_mirror_rows` writes back and `_trial_index` maps."""
    upper, start = _upper(rows, len(factors[0])), rows.start
    return tuple(
        f[rows, start:][upper] if f.ndim == 2 else np.subtract.outer(f[rows], f[start:])[upper] for f in factors
    )


@functools.lru_cache(maxsize=64)
def _trial_arguments(d: int, n: int, seed: int) -> np.ndarray:
    """The upper-triangle cosines of `uniform_sphere_points(d, n, seed)` in
    the row-major order of `_row_arguments`: the arguments of one `certify`
    Gram trial, cached by (d, n, seed). The last 64 are kept, n(n+1)/2
    floats each (about 170 KB at n = 25). The vector is `_immutable`, so no
    caller can make it writeable and change a later trial."""
    (cosines,) = _row_arguments(uniform_sphere_points(d, n, seed)._row_factors(), slice(0, n))
    return _immutable(cosines)


def _seed_states(seed: int, count: int) -> np.ndarray:
    """`SeedSequence(seed).generate_state(count)`, the one split of a seed into
    `count` uint32 child seeds (`certify`'s Gram trials, the CLI's random
    points). Not cached: `certify` asks for one seed per Gram trial, and a
    cache would keep each split's 4·count bytes after the call."""
    return np.random.SeedSequence(seed).generate_state(count)


@functools.lru_cache(maxsize=4)
def _trial_index(n: int) -> np.ndarray:
    """The n × n map from (i, j) to the place of the pair (min, max) in the
    row-major upper triangle of `_row_arguments`, so that `values[index]` is
    the exactly symmetric matrix that `_mirror_rows` writes from those
    values, in one gather: `_mirror_rows` itself writes the places. Cached by
    n, the last 4; `_immutable`, so no caller can make it writeable."""
    index = np.empty((n, n), dtype=np.intp)
    _mirror_rows(index, slice(0, n), np.arange(n * (n + 1) // 2))
    return _immutable(index)


def _mirror_rows(entries: np.ndarray, rows: slice, values: np.ndarray) -> None:
    """Write `values`, ordered as `_row_arguments`, to the upper triangle of
    `rows` of the square `entries`, and the same values to the mirrored places
    below the diagonal."""
    upper = _upper(rows, entries.shape[0])
    entries[rows, rows.start :][upper] = values
    entries[rows.start :, rows].T[upper] = values


def gram(kernel, points) -> GramMatrix:
    """Matrix of kernel values over all point pairs, exactly symmetric.

    The upper triangle is evaluated one block of rows at a time and mirrored as
    it goes: at most `_BLOCK_POINTS` pairs per kernel call, the most points of a
    kernel sum's block (within `_BLOCK_BYTES`). A kernel value depends only on
    its own pair, so the blocks do not change a bit. Working memory is the matrix, one n × n
    cosine matrix per sphere factor and one block's kernel table (at most
    (N+1) × `_BLOCK_POINTS` floats for a sphere kernel of degree N).
    """
    _check_points(kernel, points)
    n = len(points)
    _check_array_bytes((n, n), "a Gram matrix")
    factors = points._row_factors()
    entries = np.empty((n, n))
    for rows in _row_blocks(n):
        _mirror_rows(entries, rows, kernel.values(*_row_arguments(factors, rows)))
    del factors  # before the symmetry check allocates its own n × n array
    entries.setflags(write=False)
    return GramMatrix(entries=entries, provenance=f"gram({kernel.label}, n={n})")


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a symmetric matrix (GramMatrix or ndarray)."""
    if not isinstance(m, GramMatrix):
        m = GramMatrix(entries=m, provenance="min_eigenvalue")
    return float(np.linalg.eigvalsh(m.entries)[0])


def schur_product(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Entrywise (Hadamard) product; preserves positive semidefiniteness."""
    if a.entries.shape != b.entries.shape:
        raise DomainError(
            f"shape mismatch: {a.entries.shape} vs {b.entries.shape}"
        )
    with gegenbauer._overflow("the Schur product of {} and {} overflows", a.provenance, b.provenance):
        entries = a.entries * b.entries
    entries.setflags(write=False)
    return GramMatrix(entries=entries, provenance=f"schur({a.provenance}, {b.provenance})")


def _default_jitter(entries: np.ndarray) -> float:
    return 1e-10 * float(np.trace(entries)) / entries.shape[0]


def _factor(entries: np.ndarray, jitter: float) -> np.ndarray:
    """Symmetric factor L with L L^T = entries + jitter I.

    Falls back from Cholesky to an eigen-decomposition with rounding-level
    negative eigenvalues clipped at zero; genuinely indefinite input errors.
    """
    n = entries.shape[0]
    m = entries.copy()
    m.flat[:: n + 1] += jitter
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"eigen-decomposition failed: {exc}") from exc
    w_min = float(w[0])
    allowed = jitter + 1e-8 * max(1.0, float(np.abs(w).max()))
    if w_min < -allowed:
        raise FactorizationError(
            f"matrix is not positive semidefinite up to jitter: min eigenvalue {w_min!r}",
            min_eigenvalue=w_min,
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


def sample_factorized(kernel, points, n_samples: int, seed: int, jitter: float | None = None) -> FieldSample:
    """Exact Gaussian sampler: factor the Gram matrix, map iid normals.

    `jitter` defaults to 1e-10 * trace(G)/dim; pass 0.0 to factor the Gram
    matrix exactly (rank-deficient covariances then take the eigen route).
    It is a real number in [0, inf) (see `gegenbauer._check_real`).
    """
    n_samples = _check_count(n_samples, "n_samples", 1)
    seed = _check_seed(seed)
    _check_points(kernel, points)
    _check_array_bytes((n_samples, len(points)), "a sample")
    g = gram(kernel, points)
    with gegenbauer._overflow("kernel scale {!r} is too large: the Gram matrix plus jitter overflows", kernel.scale_c):
        jitter = _default_jitter(g.entries) if jitter is None else _check_real(jitter, "jitter", "[0, inf)")
        factor = _factor(g.entries, jitter)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, g.size))
    values = z @ factor.T
    values.setflags(write=False)
    return FieldSample(values=values, seed=seed, kernel_id=kernel.label)


def harmonic_dimension(d: int, n: int) -> int:
    """Dimension of the space of degree-n spherical harmonics on S^d."""
    d = _check_count(d, "d", 1)
    n = _check_count(n, "n")
    return 1 if n == 0 else math.comb(n + d, d) - math.comb(n + d - 2, d)


def real_spherical_harmonics(n_max: int, points: SpherePointSet) -> np.ndarray:
    """Orthonormal real spherical harmonics on S^2, no Condon-Shortley phase.

    Returns an array of shape ((n_max+1)^2, n_points). Rows are ordered by
    degree n = 0..n_max and within a degree by m = -n..n: negative m are the
    sine harmonics sqrt(2) P̄_n^{|m|} sin(|m|φ), m = 0 is P̄_n^0, positive m
    are sqrt(2) P̄_n^m cos(mφ), with P̄ the normalized associated Legendre
    functions. Row index of (n, m) is n² + n + m.

    The P̄_n^m are built one degree at a time (Holmes & Featherstone 2002,
    J. Geodesy 76:279-299): n_max Python-level steps, each vectorized
    over m and the points, written with `out=` ufuncs into three rotating
    (n_max+1) × n row buffers (degrees n−2, n−1 and n) and one scratch
    buffer, and from there straight into the output. Working memory is the
    output, those four buffers and the cos(mφ), sin(mφ) tables. An output
    over `gegenbauer._MAX_ARRAY_BYTES` raises DomainError before it is allocated.
    """
    if points.dimension != 2:
        raise GeometryError(f"spherical harmonics need points on S^2, got S^{points.dimension}")
    n_max = _check_count(n_max, "n_max")
    xyz = points.points
    npts = xyz.shape[0]
    _check_array_bytes(((n_max + 1) ** 2, npts), "a harmonics table")
    cos_t = np.clip(xyz[:, 2], -1.0, 1.0)
    sin_t = np.hypot(xyz[:, 0], xyz[:, 1])
    mphi = np.arange(1, n_max + 1)[:, None] * np.arctan2(xyz[:, 1], xyz[:, 0])
    cos_mphi, sin_mphi = np.cos(mphi), np.sin(mphi)
    sqrt2 = math.sqrt(2.0)

    # rows[m] = P̄_n^m(θ), ∫ P̄² sinθ dθ = 1/(2π); `last`, `before`: degrees n-1, n-2
    # (`before` is not read at n = 1).
    table = np.empty(((n_max + 1) ** 2, npts))
    before, last, rows = np.empty((3, n_max + 1, npts))
    scratch = np.empty((n_max + 1, npts))
    last[0] = math.sqrt(1.0 / (4.0 * math.pi))
    table[0] = last[0]
    for n in range(1, n_max + 1):
        m = np.arange(n - 1)[:, None]
        a = np.sqrt((2.0 * n - 1.0) * (2.0 * n + 1.0) / ((n - m) * (n + m)))
        b = np.sqrt(
            (2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m)
            / ((2.0 * n - 3.0) * (n - m) * (n + m))
        )
        low, part = rows[: n - 1], scratch[: n - 1]
        np.multiply(a, cos_t, out=low)
        np.multiply(low, last[: n - 1], out=low)
        np.multiply(b, before[: n - 1], out=part)
        np.subtract(low, part, out=low)
        np.multiply(math.sqrt(2.0 * n + 1.0), cos_t, out=rows[n - 1])
        np.multiply(rows[n - 1], last[n - 1], out=rows[n - 1])
        np.multiply(math.sqrt((2.0 * n + 1.0) / (2.0 * n)), sin_t, out=rows[n])
        np.multiply(rows[n], last[n - 1], out=rows[n])
        base = n * n + n
        table[base] = rows[0]
        scaled = np.multiply(sqrt2, rows[1 : n + 1], out=scratch[:n])
        np.multiply(scaled, cos_mphi[:n], out=table[base + 1 : base + n + 1])
        np.multiply(scaled, sin_mphi[:n], out=table[n * n : base][::-1])
        before, last, rows = last, rows, before
    return table


def _sample_blocks(n_samples: int, row_bytes: int) -> np.ndarray:
    """Bounds of near-equal blocks of samples, from `step` to `2 * step - 1` rows
    of `row_bytes` each, so a block fits in `gegenbauer._BLOCK_BYTES`. A block
    has at least 2 rows unless `n_samples` is 1: numpy sends a one-row product
    down another BLAS path, whose sums differ."""
    step = max(2, gegenbauer._BLOCK_BYTES // (2 * row_bytes))
    blocks = max(1, n_samples // step)
    return np.arange(blocks + 1) * n_samples // blocks


def sample_spectral_s2(
    seq: SchoenbergSequence,
    points: SpherePointSet,
    n_samples: int,
    seed: int,
) -> FieldSample:
    """Spectral Gaussian sampler on S^2 via the harmonic expansion

        X(p) = Σ_n sqrt(c·a_n·4π/(2n+1)) Σ_m z_nm Y_nm(p).

    The addition theorem makes the covariance of X exactly the kernel of
    `seq`, so this sampler and `sample_factorized` are mutual oracles.
    Kernels of the other two families raise GeometryError.

    The normals z are drawn and multiplied by the harmonics table one block
    of samples at a time, in the order of one whole draw. Working memory is
    the (N+1)² × n table, the samples × n output and one block of normals,
    within `gegenbauer._BLOCK_BYTES` (16 MiB) while a row of (N+1)² normals
    fits in a quarter of it.
    """
    if point_set_type(seq) is not SpherePointSet or seq.dimensions != (2,):
        raise GeometryError(f"spectral sampler needs a sphere kernel on S^2, got {seq.label}")
    _check_points(seq, points)
    n_samples = _check_count(n_samples, "n_samples", 1)
    seed = _check_seed(seed)
    n_trunc = seq.truncation
    _check_array_bytes((n_samples, len(points)), "a sample")

    table = real_spherical_harmonics(n_trunc, points)
    degrees = np.arange(n_trunc + 1)
    with gegenbauer._overflow("kernel scale {!r} is too large: the spectral amplitudes overflow", seq.scale_c):
        amps = np.sqrt(seq.scale_c * seq.coeffs * 4.0 * math.pi / (2.0 * degrees + 1.0))
    stds = np.repeat(amps, 2 * degrees + 1)
    rng = np.random.default_rng(seed)
    bounds = _sample_blocks(n_samples, 8 * stds.size)
    values = np.empty((n_samples, len(points)))
    z = np.empty((int(np.diff(bounds).max()), stds.size))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        zb = z[: stop - start]
        rng.standard_normal(out=zb)
        zb *= stds
        np.matmul(zb, table, out=values[start:stop])
    values.setflags(write=False)
    return FieldSample(
        values=values,
        seed=seed,
        kernel_id=f"spectral[{seq.label}]",
    )


def empirical_covariance(s: FieldSample) -> GramMatrix:
    """Unbiased sample covariance across realizations (divisor n_samples-1)."""
    if s.n_samples < 2:
        raise DomainError(f"need at least 2 samples, got {s.n_samples}")
    with gegenbauer._overflow("the covariance of the {} samples overflows", s.kernel_id):
        c = np.atleast_2d(np.cov(s.values, rowvar=False, ddof=1))
        c = 0.5 * (c + c.T)
    c.setflags(write=False)
    return GramMatrix(entries=c, provenance=f"empirical({s.kernel_id}, n_samples={s.n_samples})")
