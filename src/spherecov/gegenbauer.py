"""Normalized Gegenbauer (ultraspherical) polynomials and Gauss quadrature.

The polynomial family used throughout is P̃_n(x) = C_n^λ(x) / C_n^λ(1),
normalized so that P̃_n(1) = 1 for every degree. With λ = (d−1)/2 these are
the zonal basis functions of the d-sphere: Legendre polynomials for d = 2
(λ = 1/2) and Chebyshev polynomials of the first kind for the circle d = 1
(λ = 0, where the raw C_n^0 degenerate and T_n is used directly).

The three-term recurrence is rewritten for the normalized family,

    P̃_n(x) = [2(n+λ−1)·x·P̃_{n−1}(x) − (n−1)·P̃_{n−2}(x)] / (n+2λ−1),

which evaluates to exactly 1 at x = 1. Upward recursion in double precision
is accurate on [−1, 1] to roughly degree 2000; degrees are capped at 10000.

Gauss nodes for λ > 0 come from `scipy.special.roots_gegenbauer` (the
Golub–Welsch eigenvalue method), imported only when a rule is built, so
evaluating polynomials never loads scipy. The weights are Christoffel
numbers from the recurrence above, which are more accurate than scipy's at
high order. Like coefficient recovery and the sphere × time kernel, they
read the recurrence one degree at a time, so memory grows with the number
of points, not with degree × points.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_DEGREE = 10_000


@dataclass(frozen=True)
class GegenbauerBasis:
    """Index λ = (d−1)/2 of the zonal polynomial family on the d-sphere.

    `dimension` is the sphere dimension d (the manifold dimension, so the
    circle is d = 1 and the ordinary sphere in 3-space is d = 2).
    """

    lam: float
    dimension: int

    def __post_init__(self):
        if self.dimension < 1 or self.dimension != int(self.dimension):
            raise DomainError(f"sphere dimension must be a positive integer, got {self.dimension}")
        if self.lam != (self.dimension - 1) / 2:
            raise DomainError(
                f"index lam={self.lam} does not equal (d-1)/2 for d={self.dimension}"
            )

    @classmethod
    def from_dimension(cls, d: int) -> "GegenbauerBasis":
        """Basis for the d-sphere, λ = (d−1)/2."""
        return cls(lam=(d - 1) / 2, dimension=d)

    @classmethod
    def from_index(cls, lam: float) -> "GegenbauerBasis":
        """Basis with index λ; 2λ+1 must be a positive integer (the dimension)."""
        d = 2 * lam + 1
        if not math.isfinite(d) or d < 1 or d != int(round(d)):
            raise DomainError(f"lam={lam} does not correspond to a sphere dimension (d=2*lam+1)")
        return cls(lam=lam, dimension=int(round(d)))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1−x²)^{λ−1/2} on [−1, 1].

    `nodes` and `weights` are stored as read-only copies.
    """

    nodes: np.ndarray
    weights: np.ndarray
    lam: float
    order: int

    def __post_init__(self):
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise ValueError("nodes/weights must have shape (order,)")
        if np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.max(np.abs(self.nodes)) >= 1:
            raise ValueError("nodes must lie in (-1, 1)")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of function values at the nodes."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.order,):
            raise DomainError(f"values must have shape ({self.order},), got {values.shape}")
        return float(np.dot(self.weights, values))


def _check_degree(n: int) -> int:
    if n < 0 or n != int(n):
        raise DomainError(f"degree must be a nonnegative integer, got {n}")
    if n > MAX_DEGREE:
        raise DomainError(f"degree {n} exceeds the supported cap {MAX_DEGREE}")
    return int(n)


def _check_argument(x):
    x = np.asarray(x, dtype=float)
    if np.any(np.isnan(x)) or np.any(np.abs(x) > 1.0):
        raise DomainError("argument must lie in [-1, 1]")
    return x


def _sequence(lam: float, n_max: int, x):
    """Yield P̃_0(x), ..., P̃_{n_max}(x) one degree at a time, keeping only
    the last two; degree and argument are not checked.

    The λ = 0 case runs the Chebyshev recurrence T_n = 2x·T_{n−1} − T_{n−2}
    directly.
    """
    x = np.asarray(x, dtype=float)
    before, last = np.ones(x.shape), x.copy()
    yield before
    if n_max == 0:
        return
    yield last
    for n in range(2, n_max + 1):
        if lam == 0.0:
            before, last = last, 2.0 * x * last - before
        else:
            before, last = last, (2.0 * (n + lam - 1.0) * x * last - (n - 1.0) * before) / (
                n + 2.0 * lam - 1.0
            )
        yield last


def eval_normalized(basis: GegenbauerBasis, n: int, x):
    """Evaluate P̃_n(x) = C_n^λ(x)/C_n^λ(1); T_n(x) when λ = 0.

    Scalar x gives a float; an array gives an array of the same shape.
    """
    n = _check_degree(n)
    x = _check_argument(x)
    for value in _sequence(basis.lam, n, x):
        pass  # only the last degree is kept
    return float(value) if value.ndim == 0 else value


def eval_sequence(basis: GegenbauerBasis, n_max: int, x) -> np.ndarray:
    """Vector [P̃_0(x), ..., P̃_{n_max}(x)] from a single recurrence pass."""
    n_max = _check_degree(n_max)
    x = _check_argument(x)
    out = np.empty((n_max + 1,) + x.shape)
    for n, values in enumerate(_sequence(basis.lam, n_max, x)):
        out[n] = values
    return out


def _log_norm_squared(lam: float, n: int) -> float:
    # ∫ P̃_n² (1−x²)^{λ−1/2} dx in closed form via Gamma functions:
    #   h_n = π·2^{1−2λ}·Γ(2λ)²·n! / [(n+λ)·Γ(λ)²·Γ(n+2λ)]
    return (
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + 2.0 * math.lgamma(2.0 * lam)
        - 2.0 * math.lgamma(lam)
        + math.lgamma(n + 1.0)
        - math.lgamma(n + 2.0 * lam)
        - math.log(n + lam)
    )


def _norm_squared(lam: float, n: int) -> float:
    if lam == 0.0:
        return math.pi if n == 0 else math.pi / 2.0
    return math.exp(_log_norm_squared(lam, n))


def norm_squared(basis: GegenbauerBasis, n: int) -> float:
    """Squared weighted L² norm h_n = ∫_{−1}^{1} P̃_n(x)² (1−x²)^{λ−1/2} dx."""
    n = _check_degree(n)
    return _norm_squared(basis.lam, n)


def _christoffel_weights(lam: float, nodes: np.ndarray) -> np.ndarray:
    """Christoffel numbers 1/Σ_k P̃_k(x_i)²/h_k, k < order, at each node."""
    total = np.zeros(nodes.size)
    for n, values in enumerate(_sequence(lam, nodes.size - 1, nodes)):
        total += np.square(values) / _norm_squared(lam, n)
    return 1.0 / total


@functools.lru_cache(maxsize=64)
def quadrature(lam: float, order: int) -> QuadratureRule:
    """Gauss rule whose nodes are the roots of the order-N polynomial.

    For λ > 0 the nodes come from `scipy.special.roots_gegenbauer` and the
    weights are Christoffel numbers 1/Σ_k P̃_k(x_i)²/h_k, summed from the
    recurrence one degree at a time over all nodes, so the working memory
    is a few vectors of length order. λ = 0 uses the closed-form
    Chebyshev rule. Node and weight vectors are symmetrized about 0. The
    tests check orders up to 1024; orders above 2·MAX_DEGREE + 2 = 20002
    raise DomainError.

    The last 64 rules are cached by (lam, order), so repeated calls return
    the same read-only rule object.
    """
    if lam < 0:
        raise DomainError(f"lam must be nonnegative, got {lam}")
    if order < 1 or order != int(order):
        raise DomainError(f"order must be a positive integer, got {order}")
    # The weights take time quadratic in the order. 2·MAX_DEGREE + 2 is the
    # largest rule `certify` or the default `coeffs` asks for.
    if order > 2 * MAX_DEGREE + 2:
        raise DomainError(f"order {order} exceeds the supported cap {2 * MAX_DEGREE + 2}")
    order = int(order)

    if lam == 0.0:
        k = np.arange(order, 0, -1)
        nodes = np.cos((2 * k - 1) * np.pi / (2 * order))
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = np.full(order, np.pi / order)
        return QuadratureRule(nodes=nodes, weights=weights, lam=lam, order=order)

    from scipy.special import roots_gegenbauer

    nodes = roots_gegenbauer(order, lam)[0]
    nodes = 0.5 * (nodes - nodes[::-1])
    if np.any(np.diff(nodes) <= 0) or np.max(np.abs(nodes)) >= 1:
        raise ConvergenceError(
            f"Gauss nodes (lam={lam}, order={order}) are not distinct and inside (-1, 1)"
        )

    weights = _christoffel_weights(lam, nodes)
    weights = 0.5 * (weights + weights[::-1])

    mass = math.exp(_log_norm_squared(lam, 0))
    if not math.isclose(weights.sum(), mass, rel_tol=1e-9):
        raise ConvergenceError(
            f"Gauss weights (lam={lam}, order={order}) sum to {weights.sum():.16e}, "
            f"expected total mass {mass:.16e}"
        )
    return QuadratureRule(nodes=nodes, weights=weights, lam=lam, order=order)
