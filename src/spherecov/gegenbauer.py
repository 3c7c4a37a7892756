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
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_DEGREE = 10_000

# Largest degree × point table, in bytes, that a kernel sum builds at once.
_BLOCK_BYTES = 16 * 2**20


def _frozen_floats(values, ndim: int, what: str, error=DomainError) -> np.ndarray:
    """`values` as a read-only, nonempty, `ndim`-D array of finite floats, else
    `error`. A read-only float64 array that owns its data is kept; anything
    else is copied, so a caller's writeable array is never frozen or shared."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and not values.flags.writeable
        and values.flags.owndata
    ):
        arr = values
    else:
        try:
            arr = np.array(values, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{what} must be an array of numbers: {exc}") from None
    if arr.ndim != ndim or arr.size == 0:
        raise error(f"{what} must be a nonempty {ndim}-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise error(f"{what} must be finite")
    arr.setflags(write=False)
    return arr


def _shown(value) -> str:
    """`repr(value)` for a message, or its type if that holds an int too long for `str`."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _check_count(value, name: str, least: int = 0, error=DomainError, most: int | None = None) -> int:
    """The one integer rule: a count, degree, order, dimension or seed as an int.
    It must be an integer (Python or numpy, not a float or a bool) of at least
    `least` and, if `most` is given, at most `most`; anything else is an `error`."""
    try:
        if isinstance(value, bool):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {_shown(value)}") from None
    if count < least:
        raise error(f"{name} must be >= {least}, got {_shown(count)}")
    if most is not None and count > most:
        raise error(f"{name} {_shown(count)} exceeds the supported cap {most}")
    return count


def _check_degree(n) -> int:
    return _check_count(n, "degree", most=MAX_DEGREE)


def _check_lam(lam) -> float:
    """λ as a float: a real number, finite and nonnegative, else DomainError."""
    if not (isinstance(lam, numbers.Real) and 0 <= lam <= sys.float_info.max):
        raise DomainError(f"lam must be a finite nonnegative number, got {_shown(lam)}")
    return float(lam)


def _index(d) -> float:
    """λ = (d−1)/2 of the d-sphere, for an integer d >= 1 whose λ is a finite float."""
    d = _check_count(d, "sphere dimension", 1)
    try:
        return (d - 1) / 2
    except OverflowError:
        raise DomainError("sphere dimension is too large: (d-1)/2 must be a finite float") from None


@dataclass(frozen=True)
class GegenbauerBasis:
    """Index λ = (d−1)/2 of the zonal polynomial family on the d-sphere.

    `dimension` is the sphere dimension d (the manifold dimension, so the
    circle is d = 1 and the ordinary sphere in 3-space is d = 2), stored as
    an int.
    """

    lam: float
    dimension: int

    def __post_init__(self):
        d = _check_count(self.dimension, "sphere dimension", 1)
        if self.lam != _index(d):
            raise DomainError(f"index lam={_shown(self.lam)} does not equal (d-1)/2 for d={d}")
        object.__setattr__(self, "dimension", d)

    @classmethod
    def from_dimension(cls, d: int) -> "GegenbauerBasis":
        """Basis for the d-sphere, λ = (d−1)/2."""
        return cls(lam=_index(d), dimension=d)

    @classmethod
    def from_index(cls, lam: float) -> "GegenbauerBasis":
        """Basis with index λ; 2λ+1 must be a positive integer (the dimension)."""
        lam = _check_lam(lam)
        d = 2 * lam + 1
        if not math.isfinite(d) or d != int(round(d)):
            raise DomainError(f"lam={lam} does not correspond to a sphere dimension (d=2*lam+1)")
        return cls(lam=lam, dimension=int(round(d)))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1−x²)^{λ−1/2} on [−1, 1].

    `nodes` and `weights` are stored read-only (see `_frozen_floats`).
    """

    nodes: np.ndarray
    weights: np.ndarray
    lam: float
    order: int

    def __post_init__(self):
        for name in ("nodes", "weights"):
            object.__setattr__(self, name, _frozen_floats(getattr(self, name), 1, name))
        if self.nodes.shape != (self.order,) or self.weights.shape != (self.order,):
            raise DomainError("nodes/weights must have shape (order,)")
        if np.any(np.diff(self.nodes) <= 0):
            raise DomainError("nodes must be strictly increasing")
        if np.max(np.abs(self.nodes)) >= 1:
            raise DomainError("nodes must lie in (-1, 1)")
        if np.any(self.weights <= 0):
            raise DomainError("weights must be positive")

    def integrate(self, values: np.ndarray) -> float:
        """Weighted sum of function values at the nodes."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.order,):
            raise DomainError(f"values must have shape ({self.order},), got {values.shape}")
        return float(np.dot(self.weights, values))


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


def _blocks(rows: int, n: int):
    """Yield slices covering range(n) in steps of `_BLOCK_BYTES // (8 * rows)`
    points (at least 1), so a float table of `rows` rows over one fits."""
    step = max(1, _BLOCK_BYTES // (8 * rows))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _block_sum(scale: float, rows: int, terms, *args):
    """`scale` times the sum of a kernel series' terms at the broadcast points of
    `args`: for each of `_blocks(rows, ...)`, `acc += term` runs from zero over
    what `terms(*block)` yields, so a value does not depend on its batch, block or
    BLAS threads. A term is added before the next is made, so `terms` may reuse a
    buffer. Memory is the output plus about `_BLOCK_BYTES` (`rows` rows of one
    block). Scalar points give a float, arrays an array of their shape."""
    arrays = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in args))
    flat = [a.reshape(-1) for a in arrays]
    out = np.zeros(flat[0].size)
    for block in _blocks(rows, out.size):
        acc = out[block]
        for term in terms(*(f[block] for f in flat)):
            acc += term
    out *= scale
    return float(out[0]) if arrays[0].ndim == 0 else out.reshape(arrays[0].shape)


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
    the same read-only rule object; λ and the order are checked first.
    """
    # The weights take time quadratic in the order. 2·MAX_DEGREE + 2 is the
    # largest rule `certify` or the default `coeffs` asks for.
    return _gauss_rule(_check_lam(lam), _check_count(order, "order", 1, most=2 * MAX_DEGREE + 2))


@functools.lru_cache(maxsize=64)
def _gauss_rule(lam: float, order: int) -> QuadratureRule:
    """The rule of `quadrature`, for a float λ and an int order it has checked."""
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


# The uncached builder, where `functools.lru_cache` would put it.
quadrature.__wrapped__ = _gauss_rule.__wrapped__
