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
inputs and seed.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FactorizationError, GeometryError
from .product_spheres import ProductSphereKernel
# kernel_eval is not called here, but perfbench/selftest.py checks its traced binding in this module.
from .schoenberg import SchoenbergSequence, kernel_eval  # noqa: F401
from .spacetime import SpaceTimeKernel

UNIT_NORM_TOL = 1e-12
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class SpherePointSet:
    """n unit vectors in R^{d+1}, rows of `points`.

    All three point sets share `dimensions`, the points-file columns
    (`n_columns`, `from_columns`, `columns`), seeded `random` points and the
    kernel arguments of point pairs (`pair_arguments`).
    """

    dimension: int
    points: np.ndarray

    LAYOUT = "coordinates in R^(d+1)"

    def __post_init__(self):
        if self.dimension < 1:
            raise GeometryError(f"sphere dimension must be >= 1, got {self.dimension}")
        pts = np.array(self.points, dtype=float, copy=True)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] != self.dimension + 1:
            raise GeometryError(
                f"points must have shape (n, {self.dimension + 1}), got {pts.shape}"
            )
        norms = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            worst = int(np.argmax(np.abs(norms - 1.0)))
            raise GeometryError(
                f"point {worst} has norm {norms[worst]!r}, not 1 within {UNIT_NORM_TOL}"
            )
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dimensions(self) -> tuple:
        return (self.dimension,)

    @staticmethod
    def n_columns(dimensions) -> int:
        return dimensions[0] + 1

    @classmethod
    def from_columns(cls, dimensions, data) -> "SpherePointSet":
        return cls(dimension=dimensions[0], points=data)

    def columns(self) -> np.ndarray:
        return self.points

    @classmethod
    def random(cls, dimensions, n: int, states) -> "SpherePointSet":
        """n uniform points seeded by states[0]."""
        return uniform_sphere_points(dimensions[0], n, int(states[0]))

    def pair_arguments(self, pairs) -> tuple:
        """(cosines,) of the point pairs indexed by `pairs`, a pair of index arrays."""
        return (_cosine_matrix(self.points)[pairs],)


@dataclass(frozen=True)
class SpaceTimePointSet:
    """Pairs (p_i, t_i) of sphere points and times."""

    space: SpherePointSet
    times: np.ndarray

    LAYOUT = "coordinates then time"

    def __post_init__(self):
        t = np.array(self.times, dtype=float, copy=True)
        if t.ndim != 1 or t.size != len(self.space):
            raise GeometryError(
                f"times must be 1-D with one entry per point ({len(self.space)}), got shape {t.shape}"
            )
        if not np.all(np.isfinite(t)):
            raise GeometryError("times must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    def __len__(self) -> int:
        return len(self.space)

    @property
    def dimensions(self) -> tuple:
        return self.space.dimensions

    @staticmethod
    def n_columns(dimensions) -> int:
        return SpherePointSet.n_columns(dimensions) + 1

    @classmethod
    def from_columns(cls, dimensions, data) -> "SpaceTimePointSet":
        return cls(space=SpherePointSet.from_columns(dimensions, data[:, :-1]), times=data[:, -1])

    def columns(self) -> np.ndarray:
        return np.column_stack([self.space.points, self.times])

    @classmethod
    def random(cls, dimensions, n: int, states) -> "SpaceTimePointSet":
        """n uniform points seeded by states[0], times uniform on [0, 1) seeded by states[1]."""
        space = SpherePointSet.random(dimensions, n, states)
        return cls(space=space, times=np.random.default_rng(int(states[1])).uniform(0.0, 1.0, n))

    def pair_arguments(self, pairs) -> tuple:
        """(cosines, time lags t_i - t_j) of the point pairs indexed by `pairs`."""
        lag = self.times[:, None] - self.times[None, :]
        return (_cosine_matrix(self.space.points)[pairs], lag[pairs])


@dataclass(frozen=True)
class ProductPointSet:
    """Pairs (p_i, q_i) with p_i on the first sphere and q_i on the second."""

    first: SpherePointSet
    second: SpherePointSet

    LAYOUT = "first factor then second"

    def __post_init__(self):
        if len(self.first) != len(self.second):
            raise GeometryError(
                f"component point sets must have equal length, got {len(self.first)} and {len(self.second)}"
            )

    def __len__(self) -> int:
        return len(self.first)

    @property
    def dimensions(self) -> tuple:
        return (self.first.dimension, self.second.dimension)

    @staticmethod
    def n_columns(dimensions) -> int:
        d1, d2 = dimensions
        return d1 + d2 + 2

    @classmethod
    def from_columns(cls, dimensions, data) -> "ProductPointSet":
        d1, d2 = dimensions
        return cls(
            first=SpherePointSet(dimension=d1, points=data[:, : d1 + 1]),
            second=SpherePointSet(dimension=d2, points=data[:, d1 + 1 :]),
        )

    def columns(self) -> np.ndarray:
        return np.hstack([self.first.points, self.second.points])

    @classmethod
    def random(cls, dimensions, n: int, states) -> "ProductPointSet":
        """n uniform points on each factor, seeded by states[0] and states[1]."""
        d1, d2 = dimensions
        return cls(
            first=uniform_sphere_points(d1, n, int(states[0])),
            second=uniform_sphere_points(d2, n, int(states[1])),
        )

    def pair_arguments(self, pairs) -> tuple:
        """(first-factor cosines, second-factor cosines) of the point pairs indexed by `pairs`."""
        return (_cosine_matrix(self.first.points)[pairs], _cosine_matrix(self.second.points)[pairs])


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
    """Symmetric matrix of kernel evaluations plus a provenance string."""

    entries: np.ndarray
    provenance: str

    def __post_init__(self):
        m = np.array(self.entries, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DomainError(f"entries must be a nonempty square matrix, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > SYMMETRY_TOL * scale:
            raise DomainError("entries must be symmetric")
        m.setflags(write=False)
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
        v = np.array(self.values, dtype=float, copy=True)
        if v.ndim != 2:
            raise DomainError(f"values must be 2-D (n_samples, n_points), got shape {v.shape}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_points(self) -> int:
        return self.values.shape[1]


def uniform_sphere_points(d: int, n: int, seed: int) -> SpherePointSet:
    """n points drawn uniformly on S^d by normalizing standard Gaussians."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
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
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    for name, v in (("p", p), ("q", q)):
        if v.ndim != 1:
            raise DomainError(f"{name} must be a vector")
        if abs(np.linalg.norm(v) - 1.0) > UNIT_NORM_TOL:
            raise DomainError(f"{name} has norm {np.linalg.norm(v)!r}, not 1 within {UNIT_NORM_TOL}")
    if p.shape != q.shape:
        raise DomainError("p and q must have the same length")
    return float(np.clip(p @ q, -1.0, 1.0))


def kernel_label(kernel) -> str:
    """Short human-readable identifier used in provenance strings."""
    point_set_type(kernel)  # GeometryError for anything but the three kernel types
    return kernel.label


def _cosine_matrix(points: np.ndarray) -> np.ndarray:
    return np.clip(points @ points.T, -1.0, 1.0)


def gram(kernel, points) -> GramMatrix:
    """Matrix of kernel values over all point pairs (upper triangle mirrored)."""
    _check_points(kernel, points)
    n = len(points)
    iu = np.triu_indices(n)
    vals = kernel.values(*points.pair_arguments(iu))
    entries = np.empty((n, n))
    entries[iu] = vals
    entries[iu[1], iu[0]] = vals
    return GramMatrix(entries=entries, provenance=f"gram({kernel.label}, n={n})")


def min_eigenvalue(m) -> float:
    """Smallest eigenvalue of a symmetric matrix (GramMatrix or ndarray)."""
    a = m.entries if isinstance(m, GramMatrix) else np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"need a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > SYMMETRY_TOL * scale:
        raise DomainError("matrix is not symmetric")
    return float(np.linalg.eigvalsh(a)[0])


def schur_product(a: GramMatrix, b: GramMatrix) -> GramMatrix:
    """Entrywise (Hadamard) product; preserves positive semidefiniteness."""
    if a.entries.shape != b.entries.shape:
        raise DomainError(
            f"shape mismatch: {a.entries.shape} vs {b.entries.shape}"
        )
    return GramMatrix(
        entries=a.entries * b.entries,
        provenance=f"schur({a.provenance}, {b.provenance})",
    )


def _default_jitter(entries: np.ndarray) -> float:
    return 1e-10 * float(np.trace(entries)) / entries.shape[0]


def _factor(entries: np.ndarray, jitter: float) -> np.ndarray:
    """Symmetric factor L with L L^T = entries + jitter I.

    Falls back from Cholesky to an eigen-decomposition with rounding-level
    negative eigenvalues clipped at zero; genuinely indefinite input errors.
    """
    n = entries.shape[0]
    m = entries + jitter * np.eye(n)
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
    """
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    g = gram(kernel, points)
    if jitter is None:
        jitter = _default_jitter(g.entries)
    if jitter < 0:
        raise DomainError(f"jitter must be nonnegative, got {jitter}")
    factor = _factor(g.entries, jitter)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, g.size))
    return FieldSample(values=z @ factor.T, seed=seed, kernel_id=kernel.label)


def harmonic_dimension(d: int, n: int) -> int:
    """Dimension of the space of degree-n spherical harmonics on S^d."""
    if d < 1:
        raise DomainError(f"d must be >= 1, got {d}")
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    if n == 0:
        return 1
    return (2 * n + d - 1) * math.factorial(n + d - 2) // (math.factorial(n) * math.factorial(d - 1))


def real_spherical_harmonics(n_max: int, points: SpherePointSet) -> np.ndarray:
    """Orthonormal real spherical harmonics on S^2, no Condon-Shortley phase.

    Returns an array of shape ((n_max+1)^2, n_points). Rows are ordered by
    degree n = 0..n_max and within a degree by m = -n..n: negative m are the
    sine harmonics sqrt(2) P̄_n^{|m|} sin(|m|φ), m = 0 is P̄_n^0, positive m
    are sqrt(2) P̄_n^m cos(mφ), with P̄ the normalized associated Legendre
    functions. Row index of (n, m) is n² + n + m.
    """
    if points.dimension != 2:
        raise GeometryError(f"spherical harmonics need points on S^2, got S^{points.dimension}")
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    xyz = points.points
    npts = xyz.shape[0]
    cos_t = np.clip(xyz[:, 2], -1.0, 1.0)
    sin_t = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])

    # legendre[n, m] = P̄_n^m(θ) with ∫ P̄² sinθ dθ = 1/(2π) for every m.
    legendre = np.zeros((n_max + 1, n_max + 1, npts))
    legendre[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, n_max + 1):
        legendre[m, m] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_t * legendre[m - 1, m - 1]
    for m in range(n_max):
        legendre[m + 1, m] = math.sqrt(2.0 * m + 3.0) * cos_t * legendre[m, m]
    for m in range(n_max + 1):
        for n in range(m + 2, n_max + 1):
            a = math.sqrt((2.0 * n - 1.0) * (2.0 * n + 1.0) / ((n - m) * (n + m)))
            b = math.sqrt(
                (2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m)
                / ((2.0 * n - 3.0) * (n - m) * (n + m))
            )
            legendre[n, m] = a * cos_t * legendre[n - 1, m] - b * legendre[n - 2, m]

    table = np.empty(((n_max + 1) ** 2, npts))
    sqrt2 = math.sqrt(2.0)
    for n in range(n_max + 1):
        base = n * n + n
        table[base] = legendre[n, 0]
        for m in range(1, n + 1):
            table[base + m] = sqrt2 * legendre[n, m] * np.cos(m * phi)
            table[base - m] = sqrt2 * legendre[n, m] * np.sin(m * phi)
    return table


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
    """
    if point_set_type(seq) is not SpherePointSet or seq.dimensions != (2,):
        raise GeometryError(f"spectral sampler needs a sphere kernel on S^2, got {seq.label}")
    _check_points(seq, points)
    if n_samples < 1:
        raise DomainError(f"n_samples must be >= 1, got {n_samples}")
    n_trunc = seq.truncation

    table = real_spherical_harmonics(n_trunc, points)
    stds = np.empty((n_trunc + 1) ** 2)
    for n in range(n_trunc + 1):
        amp = math.sqrt(seq.scale_c * seq.coeffs[n] * 4.0 * math.pi / (2.0 * n + 1.0))
        stds[n * n : (n + 1) ** 2] = amp
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, stds.size))
    return FieldSample(
        values=(z * stds) @ table,
        seed=seed,
        kernel_id=f"spectral[{seq.label}]",
    )


def empirical_covariance(s: FieldSample) -> GramMatrix:
    """Unbiased sample covariance across realizations (divisor n_samples-1)."""
    if s.n_samples < 2:
        raise DomainError(f"need at least 2 samples, got {s.n_samples}")
    c = np.cov(s.values, rowvar=False, ddof=1)
    c = np.atleast_2d(c)
    c = 0.5 * (c + c.T)
    return GramMatrix(entries=c, provenance=f"empirical({s.kernel_id}, n_samples={s.n_samples})")
