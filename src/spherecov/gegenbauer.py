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
`_step` is that formula and `_fill` the one loop that runs it, into a
caller's buffer of rows, so every table and chunk of rows has the same bits.

Gauss nodes are found with numpy alone (the package does not use scipy). At
λ = 0 and λ = 1 they are the closed-form roots of the Chebyshev polynomials
T_N and U_N. Every other λ uses rounds of Newton passes on the recurrence
from asymptotic guesses, each round ending in one pass of Sturm counts of
the zero-diagonal Jacobi matrix (Barth, Martin & Wilkinson 1967; Golub &
Welsch 1969) that proves each root alone in its own interval and brackets
the rest, which restart inside their brackets. Both passes are one loop,
`_ratio`, over ratios of consecutive polynomials: none under- or overflows.
The weights are Christoffel numbers from the recurrence above, which are
more accurate than the Golub–Welsch eigenvector weights at high order. The
weights and the Sturm counts fill chunks of recurrence rows of at most
`_CHUNK_BYTES` and reduce each chunk with one ufunc per operation, in the
order of the one-degree-at-a-time loop, so memory grows with the number of
points, not with degree × points. Coefficient recovery projects onto one
chunk at a time too, and caches a degree × node table that is one chunk
(`_degree_table`).
"""

import functools
import io
import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_DEGREE = 10_000
MAX_SEED = 2**128 - 1

# Largest degree × point table, in bytes, that a kernel sum builds at once.
_BLOCK_BYTES = 16 * 2**20

# Largest float array, in bytes, that one request may build whole: an
# `eval_sequence` table here; a point set, a Gram matrix, a sample or an output
# table in `fields` and `cli`. gram holds the matrix and one n² cosine matrix
# per sphere factor (three n²-sized arrays on a product of spheres), so 1 GiB
# keeps it within an 8 GiB machine.
_MAX_ARRAY_BYTES = 2**30

# Largest chunk of recurrence rows, in bytes, that a Gauss rule build or a
# coefficient recovery fills before it reduces them all at once: it stays in
# L2 cache. Recovery caches a degree × node table of one chunk; `_degree_table`
# keeps 16, so that cache never holds more than 4 MiB.
_CHUNK_BYTES = 256 * 2**10

# Most Newton passes over the recurrence in one round of `_newton_roots`.
_NEWTON_STEPS = 8

# Largest λ with a Gauss rule: the log-gamma form of h_n cancels to an absolute
# error of about 4e-11 at λ = 1e4 and 1e-9 at 1e5, the mass check's tolerance.
_MAX_RULE_LAM = 1e4


def _immutable(arr: np.ndarray) -> np.ndarray:
    """A copy of the array `arr` that views an immutable `bytes` object: no
    caller can make it writeable again (`setflags(write=True)` raises
    ValueError), so a cached array cannot be changed through it."""
    return np.ndarray(arr.shape, dtype=arr.dtype, buffer=arr.tobytes())


def _frozen_floats(values, ndim: int, what: str, error=DomainError, private: bool = False) -> np.ndarray:
    """`values` as a read-only, nonempty, `ndim`-D array of finite floats, else
    `error`. A float64 array that views an immutable `bytes` object (see
    `_immutable`) is kept, and so is a read-only float64 array that owns its
    data unless `private` is set: its owner could make it writeable again, so
    a result that must never change takes a copy. Anything else is copied, so
    a caller's writeable array is never frozen or shared."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and not values.flags.writeable
        and (isinstance(values.base, bytes) or (values.flags.owndata and not private))
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


# Most digits of an int that a message shows in full: enough for any seed up
# to and just past `MAX_SEED` (39 digits), so a seed cap message stays exact.
_SHOWN_DIGITS = 40


def _shown(value) -> str:
    """`repr(value)` for a message. An int of more than `_SHOWN_DIGITS` digits
    is shown as its first 12 digits and its digit count, and a value whose repr
    holds an int too long for `str` as its type."""
    try:
        text = repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"
    digits = len(text.lstrip("-")) if type(value) is int else 0
    if digits > _SHOWN_DIGITS:  # the sign, if any, and the first 12 digits
        return f"{text[: len(text) - digits + 12]}... ({digits} digits)"
    return text


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


# How `_check_real` words an interval; any other reads "must lie in (0, 2]".
_REAL_WORDING = {"(0, inf)": "be a positive real", "[0, inf)": "be a finite nonnegative number"}


def _check_real(value, name: str, interval: str = "(-inf, inf)", error=DomainError, type_error=None) -> float:
    """The one real-number rule: a tolerance, scale, index or parameter as a
    Python float. It must be a real number (a Python or numpy int or float, or
    a Fraction; not a bool, a string, a Decimal or a complex) whose float lies
    in `interval`, written like "(0, 2]". NaN lies in no interval and ±inf in
    none in use, whose infinite ends are open; an int too large for a float
    is out of range too. Anything else is an `error` (`type_error`, if given,
    for a value that is not a real number), whose message is worded from the
    interval and shows the value with `_shown`."""
    real = math.nan
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        error = type_error or error
    else:
        try:
            real = float(value)
        except OverflowError:
            pass
    low, high = map(float, interval[1:-1].split(","))
    if (low < real if interval[0] == "(" else low <= real) and (real < high if interval[-1] == ")" else real <= high):
        return real
    raise error(f"{name} must {_REAL_WORDING.get(interval, 'lie in ' + interval)}, got {_shown(value)}")


def _check_seed(seed, error=DomainError) -> int:
    """A seed as an int in [0, MAX_SEED]: 128 bits, the size of the pool numpy's
    `SeedSequence` mixes every seed into, and short enough to print and serialize."""
    return _check_count(seed, "seed", error=error, most=MAX_SEED)


def _check_array_bytes(shape: tuple, what: str):
    """DomainError if a float array of `shape` would exceed `_MAX_ARRAY_BYTES`."""
    size = 8 * math.prod(shape)
    if size > _MAX_ARRAY_BYTES:
        dims = " x ".join(map(_shown, shape))
        raise DomainError(f"{what} of {dims} floats needs {_shown(size)} bytes, over the bound of {_MAX_ARRAY_BYTES}")


def _check_degree(n) -> int:
    return _check_count(n, "degree", most=MAX_DEGREE)


def _check_lam(lam) -> float:
    """λ as a float in [0, inf) by `_check_real`, else DomainError."""
    return _check_real(lam, "lam", "[0, inf)")


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
    an int. `lam` is a real number in [0, inf) (see `_check_real`; not a
    bool or a string), stored as a float.
    """

    lam: float
    dimension: int

    def __post_init__(self):
        d = _check_count(self.dimension, "sphere dimension", 1)
        object.__setattr__(self, "lam", _check_lam(self.lam))
        if self.lam != _index(d):
            raise DomainError(f"index lam={_shown(self.lam)} does not equal (d-1)/2 for d={d}")
        object.__setattr__(self, "dimension", d)

    @classmethod
    def from_dimension(cls, d: int) -> "GegenbauerBasis":
        """Basis for the d-sphere, λ = (d−1)/2."""
        return cls(lam=_index(d), dimension=d)

    @classmethod
    def from_index(cls, lam: float) -> "GegenbauerBasis":
        """Basis with index λ, a real number in [0, inf) (see `_check_real`);
        2λ+1 must be a positive integer (the dimension)."""
        lam = _check_lam(lam)
        d = 2 * lam + 1
        if not d.is_integer():  # False at an overflowing inf, too
            raise DomainError(f"lam={lam} does not correspond to a sphere dimension (d=2*lam+1)")
        return cls(lam=lam, dimension=int(d))


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss rule for the weight (1−x²)^{λ−1/2} on [−1, 1].

    `nodes` and `weights` are stored read-only (see `_frozen_floats`), `lam`
    as a float in [0, inf) (see `_check_real`) and `order` as an int.
    `bisected` is the node route: how many of the positive nodes the first
    Newton–Sturm round could not prove, an int (0 for every rule up to
    λ = 10.5 and for the closed-form Chebyshev rules, λ = 0 and λ = 1).
    """

    nodes: np.ndarray
    weights: np.ndarray
    lam: float
    order: int
    bisected: int = 0

    def __post_init__(self):
        object.__setattr__(self, "lam", _check_lam(self.lam))
        object.__setattr__(self, "order", _check_count(self.order, "order", 1))
        object.__setattr__(self, "bisected", _check_count(self.bisected, "bisected"))
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
        """Weighted sum of function values at the nodes, which must be finite
        (see `_frozen_floats`)."""
        values = _frozen_floats(values, 1, "values")
        if values.shape != (self.order,):
            raise DomainError(f"values must have shape ({self.order},), got {values.shape}")
        return float(np.dot(self.weights, values))


def _float_array(values, what: str) -> np.ndarray:
    """`values` as a float array, not copied if it is one, else DomainError."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{what} must be numbers: {exc}") from None


def _check_argument(x):
    """`x` as a float array (see `_float_array`) whose entries all lie in
    [−1, 1], else DomainError. One pass: a NaN fails `|x| <= 1` too."""
    x = _float_array(x, "argument")
    if not (np.abs(x) <= 1.0).all():
        raise DomainError("argument must lie in [-1, 1]")
    return x


def _step(lam: float, n: int, x, last, before, out, scratch) -> np.ndarray:
    """Write P̃_n(x) into `out` from `last` = P̃_{n−1}(x) and `before` = P̃_{n−2}(x),
    n >= 2, and return it: the recurrence of the module docstring, one ufunc per
    operation in the order the formula reads, so the bits do not depend on where
    it writes. `scratch` is a buffer of x's shape (unused at λ = 0, where the
    Chebyshev recurrence T_n = 2x·T_{n−1} − T_{n−2} runs directly)."""
    if lam == 0.0:
        np.multiply(2.0, x, out=out)
        np.multiply(out, last, out=out)
        return np.subtract(out, before, out=out)
    np.multiply(n - 1.0, before, out=scratch)
    np.multiply(2.0 * (n + lam - 1.0), x, out=out)
    np.multiply(out, last, out=out)
    np.subtract(out, scratch, out=out)
    return np.divide(out, n + 2.0 * lam - 1.0, out=out)


def _fill(lam: float, n_max: int, x: np.ndarray, buffer: np.ndarray | None = None):
    """Fill `buffer`, of shape (rows,) + x.shape, with P̃_0(x), ..., P̃_{n_max}(x),
    as many degrees at a time as it holds, and yield (start, chunk): `chunk` is
    buffer[:k], degrees start to start+k−1, whose last two rows are copied aside
    first, so the caller may overwrite it. `buffer` needs two rows, or one if it
    holds every degree; by default it is one chunk of at most `_CHUNK_BYTES`
    (two rows at least). Degree and argument are not checked."""
    if buffer is None:
        buffer = np.empty((min(_chunk_rows(x.size, 2), n_max + 1),) + x.shape)
    rows = [buffer[i, ...] for i in range(len(buffer))]
    carry = np.empty((2,) + x.shape) if len(rows) <= n_max else None  # only a second chunk needs it
    scratch, before, last = np.empty(x.shape), None, None
    for start in range(0, n_max + 1, len(rows)):
        stop = min(start + len(rows), n_max + 1)
        for n, out in zip(range(start, stop), rows):
            if n >= 2:
                _step(lam, n, x, last, before, out, scratch)
            else:
                out[...] = x if n else 1.0
            before, last = last, out
        if stop <= n_max:  # the next chunk starts from the last two rows
            np.copyto(carry, buffer[stop - start - 2 : stop - start])
            before, last = carry
        yield start, buffer[: stop - start]


def _blocks(rows: int, n: int):
    """Yield slices covering range(n) in steps of `_BLOCK_BYTES // (8 * rows)`
    points (at least 1), so a float table of `rows` rows over one fits. A
    lower `_MAX_ARRAY_BYTES` sets the step instead, so a kernel sum's
    `eval_sequence` tables stay within the bound that it checks."""
    step = max(1, min(_BLOCK_BYTES, _MAX_ARRAY_BYTES) // (8 * rows))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _block_sum(scale: float, rows: int, terms, *args):
    """`scale` times the sum of a kernel series' terms at the broadcast points of
    `args`: for each of `_blocks(rows, ...)`, `acc += term` runs from zero over
    what `terms(*block)` yields, so a value does not depend on its batch, block or
    BLAS threads. A term is added before the next is made, so `terms` may reuse a
    buffer. Memory is the output plus about `_BLOCK_BYTES` (`rows` rows of one
    block). Scalar points give a float, arrays an array of their shape.
    Arguments that are not numbers or do not broadcast are a DomainError."""
    floats = [_float_array(a, "kernel arguments") for a in args]
    try:
        arrays = np.broadcast_arrays(*floats)
    except ValueError as exc:
        raise DomainError(f"kernel arguments must broadcast together: {exc}") from None
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
    for _, chunk in _fill(basis.lam, n, x):
        pass  # only the last degree is kept
    return float(chunk[-1]) if x.ndim == 0 else chunk[-1].copy()


def _table(lam: float, n_max: int, x: np.ndarray) -> np.ndarray:
    """The rows P̃_0(x), ..., P̃_{n_max}(x) as one array of shape (n_max+1,) +
    x.shape, one `_fill` of the whole table; degree and argument are not
    checked. The working memory is the table and one scratch row."""
    out = np.empty((n_max + 1,) + x.shape)
    for _ in _fill(lam, n_max, x, out):
        pass
    return out


def eval_sequence(basis: GegenbauerBasis, n_max: int, x) -> np.ndarray:
    """Vector [P̃_0(x), ..., P̃_{n_max}(x)] from a single recurrence pass, filled
    in place (see `_table`): the working memory is the (n_max+1) × x.size
    output and one scratch row. An output over `_MAX_ARRAY_BYTES` raises
    DomainError before anything of x's size is allocated."""
    n_max = _check_degree(n_max)
    x = _float_array(x, "argument")
    _check_array_bytes((n_max + 1,) + x.shape, "a degree table")
    return _table(basis.lam, n_max, _check_argument(x))


def _log_norm_constant(lam: float) -> float:
    """The terms of log h_n that do not depend on n, summed left to right."""
    return (
        math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0) + 2.0 * math.lgamma(2.0 * lam) - 2.0 * math.lgamma(lam)
    )


def _log_norm_squared(lam: float, n: int) -> float:
    # ∫ P̃_n² (1−x²)^{λ−1/2} dx in closed form via Gamma functions:
    #   h_n = π·2^{1−2λ}·Γ(2λ)²·n! / [(n+λ)·Γ(λ)²·Γ(n+2λ)]
    return _log_norm_constant(lam) + math.lgamma(n + 1.0) - math.lgamma(n + 2.0 * lam) - math.log(n + lam)


def _norm_squared(lam: float, n: int) -> float:
    if lam == 0.0:
        return math.pi if n == 0 else math.pi / 2.0
    return math.exp(_log_norm_squared(lam, n))


def norm_squared(basis: GegenbauerBasis, n: int) -> float:
    """Squared weighted L² norm h_n = ∫_{−1}^{1} P̃_n(x)² (1−x²)^{λ−1/2} dx."""
    n = _check_degree(n)
    return _norm_squared(basis.lam, n)


def _mapped(function, values: np.ndarray) -> np.ndarray:
    """`function` (a `math` function) of each entry of the 1-D `values`."""
    return np.fromiter(map(function, values.tolist()), dtype=float, count=values.size)


@functools.lru_cache(maxsize=32)
def _norms(lam: float, count: int) -> tuple:
    """h_0, ..., h_{count−1} at λ, cached by (λ, count), with the bits of
    `_norm_squared`: one pass of each `math` function over all degrees, the
    terms added in the order `_log_norm_squared` adds them. The working memory
    is a few vectors of length count."""
    if lam == 0.0:
        return tuple(_norm_squared(lam, n) for n in range(count))
    n = np.arange(float(count))
    log_norms = (
        _log_norm_constant(lam)
        + _mapped(math.lgamma, n + 1.0)
        - _mapped(math.lgamma, n + 2.0 * lam)
        - _mapped(math.log, n + lam)
    )
    return tuple(map(math.exp, log_norms.tolist()))


@functools.lru_cache(maxsize=16)
def _degree_table(lam: float, order: int, n_max: int) -> np.ndarray:
    """The (n_max+1) × order table of P̃_0, ..., P̃_{n_max} at the nodes of the
    order-`order` Gauss rule, cached by (λ, order, n_max). Only `_degree_rows`
    calls it, for tables of at most one chunk, `_CHUNK_BYTES`.

    Like an `_immutable` array it views a bytes object, so no caller can make
    it writeable. `_fill` writes two rows at a time to a BytesIO, and
    CPython's `getvalue` hands over the buffer's own bytes object, so a build
    holds one table (and at most an eighth more), not a table and its copy."""
    buffer = io.BytesIO()
    for _, rows in _fill(lam, n_max, _gauss_rule(lam, order).nodes, np.empty((2, order))):
        buffer.write(rows)
    return np.ndarray((n_max + 1, order), dtype=np.float64, buffer=buffer.getvalue())


def _degree_rows(lam: float, order: int, n_max: int):
    """P̃_0, ..., P̃_{n_max} at the nodes of the cached order-`order` Gauss rule,
    as blocks of rows, one row per degree: the cached `_degree_table` as one
    block when it is one chunk (`_CHUNK_BYTES`), else the chunks of `_fill`,
    each overwritten by the next. Both give the same bytes in each row."""
    if 8 * (n_max + 1) * order <= _CHUNK_BYTES:
        return [_degree_table(lam, order, n_max)]
    return (rows for _, rows in _fill(lam, n_max, _gauss_rule(lam, order).nodes))


def _chunk_rows(width: int, least: int) -> int:
    """Rows of `width` floats in a chunk of at most `_CHUNK_BYTES`, but at least `least`."""
    return max(least, _CHUNK_BYTES // (8 * max(width, 1)))


def _christoffel_weights(lam: float, nodes: np.ndarray) -> np.ndarray:
    """Christoffel numbers 1/Σ_k P̃_k(x_i)²/h_k, k < order, at each node. The
    nodes are antisymmetric and P̃_k(−x) = (−1)^k P̃_k(x) holds exactly in the
    recurrence, so the sums run over the nonnegative half and are mirrored.

    `_fill` writes the next degrees to the rows of a chunk after its row 0.
    The chunk is then squared and divided by its norms, and `np.add.reduce`
    over its rows, with the running total in row 0, adds the terms in degree
    order: the bits of `total += np.square(P̃_k) / h_k` one degree at a time.
    The working memory is a few vectors of half the order plus one chunk of
    at most `_CHUNK_BYTES`."""
    half = nodes.size // 2
    x = nodes[half:]
    norms = np.array(_norms(lam, nodes.size))
    chunk = np.zeros((min(_chunk_rows(x.size, 3), nodes.size + 1), x.size))  # the total, then degrees
    for start, terms in _fill(lam, nodes.size - 1, x, chunk[1:]):
        np.square(terms, out=terms)
        np.divide(terms, norms[start : start + len(terms), None], out=terms)
        # Across rows numpy adds row after row; pairwise summation runs only
        # along a contiguous axis, here a width of 1, which is order <= 2 and
        # at most three rows, still added in order.
        chunk[0] = np.add.reduce(chunk[: len(terms) + 1], axis=0)
    total = chunk[0]
    return 1.0 / np.concatenate((total[::-1][:half], total))


def _monic_betas(lam: float, order: int) -> list:
    """β_1, ..., β_{order−1} of the monic recurrence p_n = x·p_{n−1} − β_{n−1}·p_{n−2}
    (the zero-diagonal Jacobi matrix), whose p_n are positive multiples of P̃_n.
    Each β_n = n(n+2λ−1) / (4(n+λ)(n+λ−1)) is formed as two bounded ratios from
    the exact k = n − 1, so no factor overflows at a large λ and β_1 = 1/(2(1+λ))
    stays exact at a tiny one. Each β is a 0-d array: a ufunc takes it with
    less overhead than a Python float (about 0.2 µs per call on a 2-core Xeon
    VM) and gives the same bits."""
    k = np.arange(order - 1.0)
    betas = (k + 1.0) / (4.0 * (k + 1.0 + lam)) * ((k + 2.0 * lam) / (k + lam))
    return [betas[i, ...] for i in range(betas.size)]


def _ratio(betas: list, x: np.ndarray, counts: np.ndarray | None = None) -> np.ndarray:
    """p_N(x)/p_{N−1}(x), N = len(betas) + 1, from the ratios q_1 = x and
    q_n = x − β_{n−1}/q_{n−1}: the recurrence rescaled at every step, so no value
    under- or overflows however large λ is. A zero ratio gives an infinite next
    one and a finite one after, so run it under `np.errstate(all="ignore")`.

    One loop over the βs runs both kinds of pass, two ufuncs per β, writing
    q_2, ..., q_N to the next row of a buffer: a Newton pass (no `counts`)
    overwrites one row. If `counts` is given, the number of negative ratios at
    each point is added to it: the sign changes of p_0(x), ..., p_N(x), which
    by Sturm's theorem is the number of roots of P̃_N above x. The buffer is
    then a chunk of at most `_CHUNK_BYTES`, whose sign bits are counted once
    per chunk, not once per ratio; the working memory is a few vectors of x's
    length plus one chunk."""
    q = x
    if counts is None:
        rows = [np.empty_like(x)] * (len(betas) + 1)  # one row, listed once per β and at least once
    else:
        chunk = np.empty((min(_chunk_rows(x.size, 1), len(betas) + 1), x.size))
        rows, signs = list(chunk), np.empty(chunk.shape, dtype=bool)
        counts += np.signbit(x)
    for start in range(0, len(betas), len(rows)):
        for beta, out in zip(betas[start : start + len(rows)], rows):
            np.divide(beta, q, out=out)
            q = np.subtract(x, out, out=out)
        if counts is not None:
            filled = min(len(rows), len(betas) - start)
            counts += np.count_nonzero(np.signbit(chunk[:filled], out=signs[:filled]), axis=0)
    return q


def _newton_roots(lam: float, order: int, betas: list) -> tuple[np.ndarray, np.ndarray]:
    """The order // 2 positive roots of P̃_order, ascending, by Newton's method
    from x_k = cos θ_k, and for each root whether the first round proved it.

    θ_k = φ_k + λ(1−λ)·cot φ_k / (2(N+λ)²) with φ_k = (k + λ/2 − 1/2)π/(N+λ):
    the Jacobi-root asymptotics of Gatteschi & Pittaluga (1985) for
    α = β = λ − 1/2, to their first correction term. Without that term Newton
    needs one more pass at λ <= 2.5 and misses roots from λ = 5 on; with it,
    the first round proves every root up to λ = 10.5; from λ = 11 on it misses
    some (3 at λ = 20, about half at λ = 200, all from λ = 1000).

    A Newton step is P̃_N/P̃_N′ = (1−x²)·r / (N(1 − x·r)) with r = P̃_N/P̃_{N−1},
    from (1−x²)P̃_N′ = N(P̃_{N−1} − x·P̃_N). Each round runs up to `_NEWTON_STEPS`
    Newton passes over the unproven roots and one Sturm pass at the midpoints
    between the iterates and at the last restart points. An iterate has
    converged when its last step is below 1e-8 of the gap to its nearest
    neighbour, and is proven when the counts at the midpoints on either side
    also show exactly one root between them: its own. The counts bracket every
    root (a point with c roots above it lies at or above all but the c largest);
    unproven roots restart evenly spaced in the bracket they share, which the
    next counts at least halve, and end once it is two adjacent floats. The
    loop returns after the first round that leaves no root unproven."""
    m = order // 2
    phi = (np.arange(m, 0, -1) + 0.5 * lam - 0.5) * (np.pi / (order + lam))
    x = np.cos(phi + lam * (1.0 - lam) / (2.0 * (order + lam) ** 2 * np.tan(phi)))
    if m == 0:
        return x, np.ones(0, dtype=bool)
    a = (order + lam - 1.0) / (0.5 * order + lam - 0.5)  # P̃_N/P̃_{N−1} = a·p_N/p_{N−1}
    lo, hi = np.zeros(m + 1), np.ones(m + 1)  # root k lies in (lo[k], hi[k + 1]]
    active, restart, first = np.arange(m), np.empty(0), None
    while active.size:
        for _ in range(_NEWTON_STEPS):
            y = x[active]
            step = (1.0 - y * y) / (order * (1.0 / (a * _ratio(betas, y)) - y))
            x[active] = y - step
            lowest = 0.0 if order % 2 else -x[0]  # the node below x_1: 0, or the mirror of x_1
            gaps = np.diff(np.concatenate(([lowest], x, [1.0])))
            converged = np.abs(step) < 1e-8 * np.minimum(gaps[:-1], gaps[1:])[active]
            if converged.all():
                break
        points = np.concatenate((0.5 * (x[1:] + x[:-1]), restart))
        counts = np.zeros(points.size, dtype=np.int64)
        _ratio(betas, points, counts)
        alone = counts[: m - 1] == np.arange(m - 1, 0, -1)
        proven = converged & (np.concatenate(([True], alone)) & np.concatenate((alone, [True])))[active]
        first = proven if first is None else first
        if proven.all():
            return x, first
        above = np.maximum(m - counts, 0)  # the lowest root above each point; one below 0 counts over m
        np.fmax.at(lo, above, points)
        np.fmin.at(hi, above, points)
        np.maximum.accumulate(lo, out=lo)
        np.minimum.accumulate(hi[::-1], out=hi[::-1])
        active = active[~proven]
        low = np.searchsorted(lo[:m], lo[active])  # the lowest root in each bracket
        share = np.searchsorted(hi[1:], hi[active + 1], "right") - low  # and how many it holds
        restart = lo[active] + (hi[active + 1] - lo[active]) * ((active - low + 1) / (share + 1))
        x[active] = restart
        split = (lo[active] < restart) & (restart < hi[active + 1])
        active, restart = active[split], restart[split]
    return x, first


def _positive_roots(lam: float, order: int) -> tuple[np.ndarray, int]:
    """The order // 2 positive roots of P̃_order, ascending, and how many of them
    the first round of `_newton_roots` could not prove.

    At λ = 1, P̃_N is U_N/(N+1), whose roots are cos(kπ/(N+1)) (Abramowitz &
    Stegun 25.4.40); they are taken as sin((N+1−2k)π/(2(N+1))), the same angle
    measured from π/2, so small roots keep full relative accuracy."""
    if lam == 1.0:
        return np.sin(np.arange(order % 2 + 1, order, 2) * (np.pi / (2 * (order + 1)))), 0
    with np.errstate(all="ignore"):
        x, proven = _newton_roots(lam, order, _monic_betas(lam, order))
    return x, int(np.count_nonzero(~proven))


def _check_rule_range(lam: float, order: int) -> None:
    """DomainError unless the norms h_0, ..., h_{order−1} that the weights and the
    mass check divide by are accurate (λ <= `_MAX_RULE_LAM`) and large enough
    (h_{order−1} >= order / float max, h_n falling in n) that no Christoffel sum
    1/h_0 + ... + 1/h_{order−1} overflows."""
    if lam > _MAX_RULE_LAM:
        raise DomainError(
            f"Gauss rules need lam <= {_MAX_RULE_LAM:g}, got lam={lam!r}: beyond it the "
            f"closed-form norms h_n lose more than 1e-10 to cancellation"
        )
    log_last = _log_norm_squared(lam, order - 1)
    if log_last < math.log(order / sys.float_info.max):
        raise DomainError(
            f"the order-{order} Gauss rule at lam={lam!r} is beyond double range: its "
            f"norm h_{order - 1} = exp({log_last:.6g}) makes the Christoffel sums overflow"
        )


def quadrature(lam: float, order: int) -> QuadratureRule:
    """Gauss rule whose nodes are the roots of the order-N polynomial.

    The nodes come from numpy alone, without scipy. λ = 0 uses the closed-form
    Chebyshev rule, and at λ = 1 the nodes are the closed-form roots
    cos(kπ/(N+1)) of U_N. Every other λ uses rounds of Newton passes on the
    recurrence from asymptotic guesses, each ending in one pass of Sturm counts
    that proves each root alone in its own interval and restarts the rest
    inside their brackets (from λ = 11 on the first round misses some; the
    rule's `bisected` says how many). The weights are Christoffel numbers
    1/Σ_k P̃_k(x_i)²/h_k, summed in degree order over the nonnegative nodes and
    mirrored. The Sturm counts and the weights fill chunks of recurrence rows
    and reduce each chunk at once, so the working memory is a few vectors of
    length order plus one chunk of at most `_CHUNK_BYTES` (256 KiB). The nodes
    are exactly symmetric about 0, so the weights are too. The tests check
    orders up to 1024; orders above 2·MAX_DEGREE + 2 = 20002 raise DomainError,
    and so do λ > 1e4 and an order whose smallest norm h_{N−1} would overflow
    the Christoffel sums (λ = 200 from order 665 on).

    The last 64 rules are cached by (lam, order), so repeated calls return
    the same rule object; λ and the order are checked first. Its nodes and
    weights are `_immutable`: no caller, callback included, can make them
    writeable and change a later call's rule.
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
        return QuadratureRule(nodes=_immutable(nodes), weights=_immutable(weights), lam=lam, order=order)

    _check_rule_range(lam, order)
    positive, bisected = _positive_roots(lam, order)
    nodes = np.concatenate((-positive[::-1], np.zeros(order % 2), positive))
    if np.any(np.diff(nodes) <= 0) or np.max(np.abs(nodes)) >= 1:
        raise ConvergenceError(
            f"Gauss nodes (lam={lam}, order={order}) are not distinct and inside (-1, 1)"
        )

    weights = _christoffel_weights(lam, nodes)

    mass = math.exp(_log_norm_squared(lam, 0))
    if not math.isclose(weights.sum(), mass, rel_tol=1e-9):
        raise ConvergenceError(
            f"Gauss weights (lam={lam}, order={order}) sum to {weights.sum():.16e}, "
            f"expected total mass {mass:.16e}"
        )
    return QuadratureRule(
        nodes=_immutable(nodes), weights=_immutable(weights), lam=lam, order=order, bisected=bisected
    )


# The uncached builder, where `functools.lru_cache` would put it.
quadrature.__wrapped__ = _gauss_rule.__wrapped__
