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
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import ConvergenceError, DomainError

MAX_DEGREE = 10_000

_NEWTON_TOL = 1e-14
_NEWTON_MAX_ITER = 100


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
        if d < 1 or d != int(round(d)):
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


def _eval_sequence(lam: float, n_max: int, x) -> np.ndarray:
    """All normalized polynomial values P̃_0..P̃_{n_max} at x, one forward pass.

    Returns shape (n_max+1,) + x.shape. The λ = 0 case runs the Chebyshev
    recurrence T_n = 2x·T_{n−1} − T_{n−2} directly.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1,) + x.shape, dtype=float)
    out[0] = 1.0
    if n_max == 0:
        return out
    out[1] = x
    if lam == 0.0:
        for n in range(2, n_max + 1):
            out[n] = 2.0 * x * out[n - 1] - out[n - 2]
    else:
        for n in range(2, n_max + 1):
            out[n] = (2.0 * (n + lam - 1.0) * x * out[n - 1] - (n - 1.0) * out[n - 2]) / (
                n + 2.0 * lam - 1.0
            )
    return out


def eval_normalized(basis: GegenbauerBasis, n: int, x):
    """Evaluate P̃_n(x) = C_n^λ(x)/C_n^λ(1); T_n(x) when λ = 0.

    Scalar x gives a float; an array gives an array of the same shape.
    """
    n = _check_degree(n)
    x = _check_argument(x)
    value = _eval_sequence(basis.lam, n, x)[n]
    return float(value) if value.ndim == 0 else value

def eval_sequence(basis: GegenbauerBasis, n_max: int, x) -> np.ndarray:
    """Vector [P̃_0(x), ..., P̃_{n_max}(x)] from a single recurrence pass."""
    n_max = _check_degree(n_max)
    x = _check_argument(x)
    return _eval_sequence(basis.lam, n_max, x)


def _log_norm_squared(lam: float, n: int) -> float:
    # ∫ P̃_n² (1−x²)^{λ−1/2} dx in closed form via Gamma functions:
    #   h_n = π·2^{1−2λ}·Γ(2λ)²·n! / [(n+λ)·Γ(λ)²·Γ(n+2λ)]
    return (
        math.log(math.pi)
        + (1.0 - 2.0 * lam) * math.log(2.0)
        + 2.0 * gammaln(2.0 * lam)
        - 2.0 * gammaln(lam)
        + gammaln(n + 1.0)
        - gammaln(n + 2.0 * lam)
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


def _eval_with_derivative(lam: float, n: int, x: np.ndarray):
    """(P̃_n(x), P̃_n'(x)) by differentiating the recurrence. Requires λ > 0."""
    p_prev = np.ones_like(x)
    d_prev = np.zeros_like(x)
    if n == 0:
        return p_prev, d_prev
    p = x.copy()
    d = np.ones_like(x)
    for k in range(2, n + 1):
        a = 2.0 * (k + lam - 1.0)
        denom = k + 2.0 * lam - 1.0
        p_next = (a * x * p - (k - 1.0) * p_prev) / denom
        d_next = (a * (p + x * d) - (k - 1.0) * d_prev) / denom
        p_prev, p = p, p_next
        d_prev, d = d, d_next
    return p, d


@functools.lru_cache(maxsize=64)
def quadrature(lam: float, order: int) -> QuadratureRule:
    """Gauss rule whose nodes are the roots of the order-N polynomial.

    Nodes are found by Newton iteration started from Chebyshev-angle
    guesses cos(π(k−1/2+λ/2)/(N+λ)) (exact for λ = 0 and λ = 1); weights
    are Christoffel numbers 1/Σ_k P̃_k(x_i)²/h_k. Node and weight vectors
    are symmetrized about 0. The tests check orders up to 1024.

    The last 64 rules are cached by (lam, order), so repeated calls return
    the same read-only rule object.
    """
    if lam < 0:
        raise DomainError(f"lam must be nonnegative, got {lam}")
    if order < 1 or order != int(order):
        raise DomainError(f"order must be a positive integer, got {order}")
    order = int(order)

    if lam == 0.0:
        k = np.arange(order, 0, -1)
        nodes = np.cos((2 * k - 1) * np.pi / (2 * order))
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = np.full(order, np.pi / order)
        return QuadratureRule(nodes=nodes, weights=weights, lam=lam, order=order)

    k = np.arange(order, 0, -1, dtype=float)
    nodes = np.cos(np.pi * (k - 0.5 + 0.5 * lam) / (order + lam))
    for _ in range(_NEWTON_MAX_ITER):
        p, dp = _eval_with_derivative(lam, order, nodes)
        step = p / dp
        nodes -= step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise ConvergenceError(
            f"Gauss nodes (lam={lam}, order={order}) did not converge: "
            f"max residual {np.max(np.abs(step)):.3e} after {_NEWTON_MAX_ITER} iterations"
        )
    nodes = 0.5 * (nodes - nodes[::-1])
    if np.any(np.diff(nodes) <= 0) or np.max(np.abs(nodes)) >= 1:
        raise ConvergenceError(
            f"Gauss nodes (lam={lam}, order={order}) collapsed or left (-1, 1); "
            "Newton iteration likely jumped between roots"
        )

    table = _eval_sequence(lam, order - 1, nodes)
    inv_norms = np.array([1.0 / _norm_squared(lam, n) for n in range(order)])
    weights = 1.0 / np.einsum("i,ij->j", inv_norms, table**2)
    weights = 0.5 * (weights + weights[::-1])

    mass = math.exp(_log_norm_squared(lam, 0))
    if not math.isclose(weights.sum(), mass, rel_tol=1e-9):
        raise ConvergenceError(
            f"Gauss weights (lam={lam}, order={order}) sum to {weights.sum():.16e}, "
            f"expected total mass {mass:.16e}"
        )
    return QuadratureRule(nodes=nodes, weights=weights, lam=lam, order=order)
