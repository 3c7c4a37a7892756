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
`_step` is that formula and `_fill` the one loop that runs it, one degree at
a time into a ring of rows that no caller writes to (a table is a ring that
holds every degree), so every table and row has the same bits.

Gauss rules are built with numpy alone (the package does not use scipy). At
λ = 0 and λ = 1 they are the Gauss–Chebyshev rules of the first and second
kind, nodes and weights in closed form from angles (`_chebyshev_rule`), in
time linear in the order. At λ = 1/2 from order `_LEGENDRE_MIN_ORDER` on they
are Gauss–Legendre rules from Bogaert's iteration-free asymptotic series in
the zeros of J_0 (`_legendre_rule`), also linear in the order, with no
recurrence. Every other λ and order finds its nodes by rounds of Newton
passes on the recurrence from asymptotic guesses, each round ending in one
pass of Sturm counts of the zero-diagonal Jacobi matrix (Barth, Martin &
Wilkinson 1967; Golub & Welsch 1969) that proves each root alone in its own
interval and brackets the rest, which go on inside their brackets. Both
passes are one loop, `_ratio`, over ratios of consecutive polynomials: none
under- or overflows. Its weights are Christoffel numbers from the recurrence
above, which are more accurate than the Golub–Welsch eigenvector weights at
high order. Every route gives only the nonnegative half of its rule, and
`_gauss_rule` alone mirrors it into the rule. Those weights are summed and
the Sturm signs counted one degree at a time, so memory grows with the
number of points, not with degree × points. A degree table is built whole
only up to `_TABLE_CACHE_BYTES`, over which it would spill the cache: coefficient
recovery (`_project`) caches its degree × node table (`_degree_table`) up to it,
and over it each row of the ring takes one dot product; `kernel_eval` sums a
block from one table up to it, and over it from the rows of the ring.
"""

import functools
import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = [
    "GegenbauerBasis",
    "QuadratureRule",
    "eval_normalized",
    "eval_sequence",
    "norm_squared",
    "quadrature",
]

MAX_DEGREE = 10_000
MAX_SEED = 2**128 - 1

# Largest degree × point table, in bytes, and most points that a kernel sum
# takes at once: one block, and the most pairs per `fields.gram` call. Of 4096 to
# 65536 points, 16384 ran the S², sphere × time and product Gram matrices of
# 800-1000 points fastest or within 5 % of the fastest; 4096 was 28-34 % slower.
_BLOCK_BYTES = 16 * 2**20
_BLOCK_POINTS = 16384

# Largest array, in bytes, that one request may build whole: an
# `eval_sequence` table here; a point set, a Gram matrix, a sample or an output
# table in `fields` and `cli`; `certify`'s seed split. gram holds the matrix
# and one n² cosine matrix per sphere factor (three n²-sized arrays on a
# product of spheres), so 1 GiB keeps it within an 8 GiB machine.
_MAX_ARRAY_BYTES = 2**30

# Largest degree table, in bytes, that is built whole: the (n_max+1) × order
# table that `_degree_table` caches, 16 of them (16 MiB), so n_max <= 255 at
# `certify`'s default order 2(n_max+1); and the (N+1) × points table of one
# `kernel_eval` block. A larger one is read row by row from `_fill`'s ring.
_TABLE_CACHE_BYTES = 2**20

# Most Newton passes over the recurrence in one round of `_newton_roots`.
_NEWTON_STEPS = 8

# Largest λ with a Gauss rule: the log-gamma form of h_n cancels to an absolute
# error of about 4e-11 at λ = 1e4 and 1e-9 at 1e5, the mass check's tolerance.
_MAX_RULE_LAM = 1e4

# Least order of a λ = 1/2 rule from `_legendre_rule`; lower orders take the
# recurrence route. The series' truncation error falls as the order grows: at
# every node of every order from 69 to 140, the node is within 1.9·2^-53 of a
# 40-digit reference and the weight within 7.5e-16 relative, the gate of
# 4·2^-53 and 1e-15 with two ulps to spare, so a `sin` that rounds otherwise
# cannot cross it. Orders 67 and 68 pass with less (weights 9.0e-16 and
# 8.0e-16), 66 fails (1.02e-15), and below 59 the nodes fail too.
_LEGENDRE_MIN_ORDER = 69


def _immutable(arr: np.ndarray) -> np.ndarray:
    """`arr` if it views an immutable `bytes` object, else a copy of it that
    does: no caller can make it writeable again (`setflags(write=True)` raises
    ValueError), so a stored or cached array cannot be changed through it."""
    if isinstance(arr.base, bytes):
        return arr
    return np.ndarray(arr.shape, dtype=arr.dtype, buffer=arr.tobytes())


def _frozen_floats(values, ndim: int, what: str, error=DomainError) -> np.ndarray:
    """`values` as a read-only, nonempty, `ndim`-D array of finite floats, else
    `error`: the intake of every array a result stores. It converts nothing
    itself; `_float_array` does. A read-only float64 array that views an
    immutable `bytes` object (see `_immutable`) or owns its data is kept, so a
    fresh result is handed over without a copy; the owner of the latter can
    make it writeable again, so a value that must stay checked is made
    `_immutable` after this. Anything else is copied once into an `_immutable`
    array, so a caller's writeable array is never frozen or shared."""
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.float64
        and not values.flags.writeable
        and values.flags.owndata
    ):
        arr = values
    else:
        arr = _immutable(_float_array(values, what, error))
    if arr.ndim != ndim or arr.size == 0:
        raise error(f"{what} must be a nonempty {ndim}-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise error(f"{what} must be finite")
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


def _is_real(value) -> bool:
    """Whether `value` is a real number by `_check_real`'s rule."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_real(value, name: str, interval: str = "(-inf, inf)", type_error=DomainError) -> float:
    """The one real-number rule: a tolerance, scale, index or parameter as a
    Python float. It must be a real number (a Python or numpy int or float, or
    a Fraction; not a bool, a string, a Decimal or a complex) whose float lies
    in `interval`, written like "(0, 2]". NaN lies in no interval and ±inf in
    none in use, whose infinite ends are open; an int too large for a float
    is out of range too. Anything else is a DomainError, or a `type_error` if
    it is not a real number, whose message is worded from the interval and
    shows the value with `_shown`."""
    real, error = math.nan, DomainError
    if not _is_real(value):
        error = type_error
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


def _check_array_bytes(shape: tuple, what: str, items: str = "floats", itemsize: int = 8):
    """DomainError if an array of `shape`, `itemsize` bytes per item (8 for the
    floats of every array but a seed split), would exceed `_MAX_ARRAY_BYTES`."""
    size = itemsize * math.prod(shape)
    if size > _MAX_ARRAY_BYTES:
        dims = " x ".join(map(_shown, shape))
        raise DomainError(f"{what} of {dims} {items} needs {_shown(size)} bytes, over the bound of {_MAX_ARRAY_BYTES}")


def _overflow(message: str, *args) -> np.errstate:
    """The one overflow rule: inside `with _overflow(message, *args):` numpy
    calls `fail` on an overflow or an invalid operation (in these blocks a NaN
    can only follow an overflow), which raises DomainError(`message.format(*args)`),
    formatted only then. numpy checks its flags after every ufunc anyway."""

    def fail(kind, flag):
        raise DomainError(message.format(*args))

    return np.errstate(call=fail, over="call", invalid="call")


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

    `nodes` and `weights` are stored `_immutable` (see `_frozen_floats`), `lam`
    as a float in [0, inf) (see `_check_real`) and `order` as an int.
    `bisected` is the node route: how many of the positive nodes the first
    Newton–Sturm round could not prove, an int (0 for every rule up to
    λ = 10.5, for the closed-form Gauss–Chebyshev rules, λ = 0 and λ = 1, and
    for the iteration-free λ = 1/2 rules from order `_LEGENDRE_MIN_ORDER` (69)
    on, which run no round).
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
            object.__setattr__(self, name, _immutable(_frozen_floats(getattr(self, name), 1, name)))
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
        (see `_frozen_floats`). A sum that overflows is a DomainError."""
        values = _frozen_floats(values, 1, "values")
        if values.shape != (self.order,):
            raise DomainError(f"values must have shape ({self.order},), got {values.shape}")
        with _overflow("the weighted sum of the values overflows"):
            return float(np.dot(self.weights, values))


# What `_float_array` calls an array of each numpy kind that is not a number's.
_NOT_NUMBERS = {
    "b": "bools", "c": "complex numbers", "M": "datetimes", "m": "timedeltas", "S": "bytes", "U": "strings",
    "V": "records",
}


def _float_array(values, what: str, error=DomainError) -> np.ndarray:
    """The one conversion of a caller's values, an argument or an array to be
    stored, to a float array, not copied if it is one, else `error`. Numbers
    follow `_check_real`'s rule, read from the array's kind before any cast:
    an ndarray as it is, anything else as the one array numpy makes of it, so
    what numpy coerces is kept ([1.0, True] is a float array). Ints and floats
    pass, and so does an object array whose elements are real numbers or None,
    which numpy casts to NaN. Every other kind is an `error` that names it,
    even where it would cast, and so is a masked array, whose mask a cast
    would drop. Strings are cast first, so one that is not a number keeps
    numpy's message, as does any failed cast; a long double beyond float64
    range fails its cast under `_overflow`. `numpy.ma` is not imported here:
    an array can only be masked once something else has imported it."""
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(values, ma.MaskedArray):
        raise error(f"{what} must be an array of numbers, not a masked array")
    try:
        arr = values if isinstance(values, np.ndarray) else np.asarray(values)
        kind = arr.dtype.kind
        if kind == "O":  # named as numpy types the first element that is not a number
            other = next((v for v in arr.flat if v is not None and not _is_real(v)), None)
            if other is None:
                kind = "f"
            elif (kind := np.asarray(other).dtype.kind) not in _NOT_NUMBERS:
                kind = f"{type(other).__name__} objects"
        if kind in ("i", "u", "f", "S", "U"):
            with _overflow("a value lies beyond float64 range"):
                floats = np.asarray(arr, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise error(f"{what} must be an array of numbers: {exc}") from None
    if kind not in ("i", "u", "f"):
        raise error(f"{what} must be an array of numbers, not of {_NOT_NUMBERS.get(kind, kind)}")
    return floats


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
    """Yield P̃_0(x), ..., P̃_{n_max}(x), one row per degree: P̃_n(x) is row
    n mod rows of `buffer`, of shape (rows,) + x.shape, and holds until degree
    n + rows is made. No caller writes to a row: each step reads the last two.
    `buffer` needs three rows, or fewer if it holds every degree; by default
    it is a ring of min(3, n_max + 1) rows. Beyond it, one scratch row. Degree
    and argument are not checked."""
    if buffer is None:
        buffer = np.empty((min(3, n_max + 1),) + x.shape)
    rows = [buffer[i, ...] for i in range(len(buffer))]
    scratch, before, last = np.empty(x.shape), None, None
    for n in range(n_max + 1):
        out = rows[n % len(rows)]
        if n >= 2:
            _step(lam, n, x, last, before, out, scratch)
        else:
            out[...] = x if n else 1.0
        before, last = last, out
        yield out


def _blocks(rows: int, n: int):
    """Yield slices covering range(n) in steps of `_BLOCK_POINTS` points, or fewer
    (at least 1) so that a float table of `rows` rows over one fits `_BLOCK_BYTES`,
    or a lower `_MAX_ARRAY_BYTES`, the bound that `eval_sequence` checks."""
    step = max(1, min(_BLOCK_POINTS, min(_BLOCK_BYTES, _MAX_ARRAY_BYTES) // (8 * rows)))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _block_sum(scale: float, rows: int, terms, *args):
    """`scale` times the sum of a kernel series' terms at the broadcast points of
    `args`: for each of `_blocks(rows, ...)`, `acc += term` runs from zero over
    what `terms(*block)` yields, so a value does not depend on its batch, block or
    BLAS threads. A term is added before the next is made, so `terms` may reuse a
    buffer. Memory is the output plus one block: at most `_BLOCK_POINTS` points
    within `_BLOCK_BYTES` (`rows` rows). Scalar points give a float, arrays an
    array of their shape. Arguments that are not numbers or do not broadcast are
    a DomainError, and so is a `scale` that makes a value overflow (normalized
    weights can sum to just over 1 in floating point)."""
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
    with _overflow("kernel scale {!r} is too large: the kernel values overflow", scale):
        out *= scale
    return float(out[0]) if arrays[0].ndim == 0 else out.reshape(arrays[0].shape)


def eval_normalized(basis: GegenbauerBasis, n: int, x):
    """Evaluate P̃_n(x) = C_n^λ(x)/C_n^λ(1); T_n(x) when λ = 0.

    Scalar x gives a float; an array gives an array of the same shape.
    """
    n = _check_degree(n)
    x = _check_argument(x)
    for row in _fill(basis.lam, n, x):
        pass  # only the last degree is kept
    return float(row) if x.ndim == 0 else row.copy()


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


def _log_norm_squared(lam: float, n: int) -> float:
    # ∫ P̃_n² (1−x²)^{λ−1/2} dx in closed form via Gamma functions:
    #   h_n = π·2^{1−2λ}·Γ(2λ)²·n! / [(n+λ)·Γ(λ)²·Γ(n+2λ)]
    # The terms that do not depend on n are summed first, left to right; the
    # bits of every h_n, and so of `_norms`, depend on that order.
    return (
        (math.log(math.pi) + (1.0 - 2.0 * lam) * math.log(2.0) + 2.0 * math.lgamma(2.0 * lam) - 2.0 * math.lgamma(lam))
        + math.lgamma(n + 1.0) - math.lgamma(n + 2.0 * lam) - math.log(n + lam)
    )


def _norm_squared(lam: float, n: int) -> float:
    if lam == 0.0:
        return math.pi if n == 0 else math.pi / 2.0
    return math.exp(_log_norm_squared(lam, n))


def norm_squared(basis: GegenbauerBasis, n: int) -> float:
    """Squared weighted L² norm h_n = ∫_{−1}^{1} P̃_n(x)² (1−x²)^{λ−1/2} dx."""
    n = _check_degree(n)
    return _norm_squared(basis.lam, n)


@functools.lru_cache(maxsize=32)
def _norms(lam: float, count: int) -> np.ndarray:
    """h_0, ..., h_{count−1} at λ as an `_immutable` float array, cached by
    (λ, count): `_norm_squared(lam, n)`, the one definition of h_n, for each
    n < count."""
    return _immutable(np.array([_norm_squared(lam, n) for n in range(count)], dtype=float))


@functools.lru_cache(maxsize=16)
def _degree_table(lam: float, order: int, n_max: int) -> np.ndarray:
    """The `_immutable` table of P̃_0, ..., P̃_{n_max} at the order-`order` Gauss nodes."""
    return _immutable(_table(lam, n_max, _gauss_rule(lam, order).nodes))


def _project(lam: float, order: int, n_max: int, v: np.ndarray) -> np.ndarray:
    """Σ_i v_i·P̃_n(x_i) at the order-`order` Gauss nodes, n = 0..n_max, in one array:
    one `np.vecdot` with the cached `_degree_table` up to `_TABLE_CACHE_BYTES`, else
    one BLAS dot `row @ v` per row of `_fill`'s ring, the dot `np.vecdot` runs per row."""
    if 8 * (n_max + 1) * order <= _TABLE_CACHE_BYTES:
        return np.vecdot(_degree_table(lam, order, n_max), v)
    out = np.empty(n_max + 1)
    for n, row in enumerate(_fill(lam, n_max, _gauss_rule(lam, order).nodes)):
        out[n] = row @ v
    return out


def _christoffel_weights(lam: float, order: int, x: np.ndarray) -> np.ndarray:
    """Christoffel numbers 1/Σ_k P̃_k(x_i)²/h_k, k < order, at the nodes `x`, the
    nonnegative half of the order-`order` rule: `total += np.square(P̃_k) / h_k`
    one degree at a time, over the rows of `_fill`. The working memory is a few
    vectors of x's length plus its ring of three rows."""
    norms, total, term = _norms(lam, order), np.zeros(x.size), np.empty(x.size)
    for norm, row in zip(norms, _fill(lam, order - 1, x)):
        total += np.divide(np.square(row, out=term), norm, out=term)
    return 1.0 / total


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

    One loop over the βs runs both kinds of pass, two ufuncs per β writing
    q_2, ..., q_N into one row. If `counts` is given (a Sturm pass), the sign
    bit of each ratio is added to it as the ratio is made: the number of
    negative ratios at each point, the sign changes of p_0(x), ..., p_N(x),
    which by Sturm's theorem is the number of roots of P̃_N above x. The
    working memory is a few vectors of x's length."""
    q, out = x, np.empty_like(x)
    if counts is not None:
        counts += np.signbit(x)
    for beta in betas:
        np.divide(beta, q, out=out)
        q = np.subtract(x, out, out=out)
        if counts is not None:
            counts += np.signbit(q)
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
    root (a point with c roots above it lies at or above all but the c largest).
    An unproven root keeps its iterate if that lies inside its bracket, and
    otherwise restarts at its point evenly spaced in the bracket it shares;
    the next counts run at those spaced points either way, so they at least
    halve every bracket, and a root ends once its bracket is two adjacent
    floats. The loop returns after the first round that leaves no root
    unproven."""
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
        y = x[active]
        x[active] = np.where((lo[active] < y) & (y < hi[active + 1]), y, restart)
        split = (lo[active] < restart) & (restart < hi[active + 1])
        active, restart = active[split], restart[split]
    return x, first


def _positive_roots(lam: float, order: int) -> tuple[np.ndarray, int]:
    """The order // 2 positive roots of P̃_order, ascending, and how many of them
    the first round of `_newton_roots` could not prove."""
    with np.errstate(all="ignore"):
        x, proven = _newton_roots(lam, order, _monic_betas(lam, order))
    return x, int(np.count_nonzero(~proven))


def _chebyshev_rule(lam: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonnegative half of the Gauss–Chebyshev rule at λ = 0 or λ = 1, nodes
    ascending and their weights, from angles alone, with no recurrence
    (Abramowitz & Stegun 25.4.38, 25.4.40).

    λ = 0, the first kind: nodes cos((2k−1)π/(2N)), each averaged with the
    negated node opposite it, so the middle one at odd N is 0, and weights π/N.
    λ = 1, the second kind: P̃_N is U_N/(N+1), whose roots cos(kπ/(N+1)) are
    taken as sin((N+1−2k)π/(2(N+1))), the same angle measured from π/2, so
    small roots keep full relative accuracy. The weights π/(N+1)·sin²(kπ/(N+1))
    are formed for k <= (N+1)/2, where the angle is at most π/2 and sin keeps
    full relative accuracy (cos² of the complementary angle would not)."""
    if lam == 0.0:
        nodes = np.cos((2 * np.arange(order, 0, -1) - 1) * np.pi / (2 * order))
        return 0.5 * (nodes - nodes[::-1])[order // 2 :], np.full(order - order // 2, np.pi / order)
    step = np.pi / (2 * (order + 1))
    sines = np.sin(np.arange(order + order % 2, 1, -2) * step)  # sin(kπ/(N+1)), k = (N+1)//2, ..., 1
    return np.sin(np.arange(1 - order % 2, order, 2) * step), np.pi / (order + 1) * np.square(sines)


# j_{0,k}, the zeros of the Bessel function J_0, for k = 1, ..., 20, and
# J_1(j_{0,k})² for k = 1, ..., 21: the doubles nearest their 40-digit mpmath
# values (`besseljzero(0, k)`, `besselj(1, j)**2`). `_legendre_rule` takes
# McMahon's expansions beyond them.
_J0_ZEROS = np.array([
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281, 14.930917708487787,
    18.071063967910924, 21.21163662987926, 24.352471530749302, 27.493479132040253, 30.634606468431976,
    33.77582021357357, 36.917098353664045, 40.05842576462824, 43.19979171317673, 46.341188371661815,
    49.482609897397815, 52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
])
_J1_SQUARED = np.array([
    0.2695141239419169, 0.11578013858220369, 0.07368635113640822, 0.05403757319811628, 0.04266142901724309,
    0.0352421034909961, 0.030021070103054673, 0.02614739149530809, 0.023159121824691393, 0.02078382912226786,
    0.01885045066931767, 0.017246157569665008, 0.0158935181059236, 0.01473762609647219, 0.013738465145387117,
    0.012866181737615133, 0.012098051548626797, 0.011416471224491609, 0.010807592791180204, 0.010260372926280762,
    0.009765897139791051,
])

# Polynomial coefficients, lowest power first, for `_legendre_rule`.
# McMahon: j_{0,k} = β + P(1/β²)/β, β = (k − 1/4)π, with the coefficients
# 1/8, −31/384, 3779/15360, −6277237/3440640, 2092163573/82575360 and
# −8249725736393/14533263360 (Abramowitz & Stegun 9.5.12); the next term is
# below 1e-21 of j_{0,k} from k = 21 on.
_MCMAHON = (
    0.125, -0.08072916666666667, 0.24602864583333334, -1.824438767206101, 25.336414797343906, -567.6444121351834
)
# J_1(j_{0,k})² = t·P(t²), t = 1/(k − 1/4), and the fits in θ² of the node
# corrections F_1, F_2, F_3 and the weight terms W_1, W_2, W_3 of Bogaert (2014),
# as published in his FastGL code.
_J1_SQUARED_SERIES = (
    0.202642367284675542887758926420, 0.0, -0.303380429711290253026202643516e-3,
    0.198924364245969295201137972743e-3, -0.228969902772111653038747229723e-3,
    0.433710719130746277915572905025e-3, -0.123632349727175414724737657367e-2,
    0.496101423268883102872271417616e-2, -0.266837393702323757700998557826e-1, 0.185395398206345628711318848386,
)
_NODE_FITS = (
    (
        -0.416666666666662959639712457549e-1, 0.416666666665193394525296923981e-2,
        -0.148809523713909147898955880165e-3, 0.275573168962061235623801563453e-5,
        -3.13148654635992041468855740012e-8, 2.40724685864330121825976175184e-10,
        -1.29052996274280508473467968379e-12,
    ),
    (
        0.815972221772932265640401128517e-2, -0.209022248387852902722635654229e-2,
        0.282116886057560434805998583817e-3, -0.253300326008232025914059965302e-4,
        0.161969259453836261731700382098e-5, -7.53036771373769326811030753538e-8,
        2.20639421781871003734786884322e-9,
    ),
    (
        -0.416012165620204364833694266818e-2, 0.128654198542845137196151147483e-2,
        -0.251395293283965914823026348764e-3, 0.418498100329504574443885193835e-4,
        -0.567797841356833081642185432056e-5, 5.55845330223796209655886325712e-7,
        -2.97058225375526229899781956673e-8,
    ),
)
_WEIGHT_FITS = (
    (
        0.833333333333333302184063103900e-1, -0.305555555555553028279487898503e-1,
        0.436507936507598105249726413120e-2, -0.326278659594412170300449074873e-3,
        0.149644593625028648361395938176e-4, -4.63968647553221331251529631098e-7,
        1.03756066927916795821098009353e-8, -1.75257700735423807659851042318e-10,
        2.30365726860377376873232578871e-12, -2.20902861044616638398573427475e-14,
    ),
    (
        -0.111111111111214923138249347172e-1, 0.268959435694729660779984493795e-2,
        -0.407297185611335764191683161117e-3, 0.465969530694968391417927388162e-4,
        -0.381817918680045468483009307090e-5, 2.11483880685947151466370130277e-7,
        -7.12912857233642220650643150625e-9, 7.67643545069893130779501844323e-11,
        3.63117412152654783455929483029e-12,
    ),
    (
        0.656966489926484797412985260842e-2, -0.947969308958577323145923317955e-4,
        -0.105646050254076140548678457002e-3, -0.422888059282921161626339411388e-4,
        0.200559326396458326778521795392e-4, -0.397933316519135275712977531366e-5,
        5.08898347288671653137451093208e-7, -4.38647122520206649251063212545e-8,
        2.01826791256703301806643264922e-9,
    ),
)


def _horner(coefficients: tuple, x: np.ndarray) -> np.ndarray:
    """The polynomial with `coefficients`, lowest power first, at `x`: Horner's
    rule, two in-place ufuncs per coefficient."""
    acc = np.full_like(x, coefficients[-1])
    for c in coefficients[-2::-1]:
        acc *= x
        acc += c
    return acc


def _series(fits: tuple, x: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """F_1 + u2·(F_2 + u2·F_3), each F_i the polynomial `fits[i]` at x."""
    f1, f2, f3 = (_horner(fit, x) for fit in fits)
    return f1 + u2 * (f2 + u2 * f3)


def _bessel_zeros(count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k = 1, ..., count as floats, j_{0,k} − (k − 1/4)π and J_1(j_{0,k})²: the
    tables `_J0_ZEROS` and `_J1_SQUARED`, then McMahon's expansions. In the
    table the difference is exact (Sterbenz), so adding (k − 1/4)π back gives
    the tabulated zero."""
    k = np.arange(1.0, count + 1.0)
    beta = np.pi * (k - 0.25)
    outer = beta[_J0_ZEROS.size :]
    t = 1.0 / (k[_J1_SQUARED.size :] - 0.25)
    return (
        k,
        np.concatenate((_J0_ZEROS[:count] - beta[: _J0_ZEROS.size], _horner(_MCMAHON, 1.0 / (outer * outer)) / outer)),
        np.concatenate((_J1_SQUARED[:count], t * _horner(_J1_SQUARED_SERIES, t * t))),
    )


def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss–Legendre rule (λ = 1/2) from asymptotic
    series, with no recurrence and no iteration: Bogaert (2014), "Iteration-free
    computation of Gauss–Legendre quadrature nodes and weights", SIAM J. Sci.
    Comput. 36(3):A1008–A1026, with the polynomial fits of his FastGL code.
    `_gauss_rule` takes it from order `_LEGENDRE_MIN_ORDER` on.

    With v = 1/(N + 1/2), j_k the k-th zero of J_0, θ⁰ = v·j_k and
    u = v²·j_k/sin θ⁰, the k-th node from +1 is cos θ_k with
    θ_k = v·(j_k + θ⁰·u·F(θ⁰², u²)), and its weight is
    2v / (J_1(j_k)²·(j_k/sin θ⁰)·(1 + u²·W(θ⁰², u²))); F and W are the fits
    (`_series`), and j_k and J_1(j_k)² come from `_bessel_zeros`. Since
    v·(k − 1/4)π = π/2 − π(N+1−2k)/(2N+1), the node is taken as
    sin(π(N+1−2k)/(2N+1) − v·(j_k − (k − 1/4)π + θ⁰·u·F)): that angle is
    small near the middle, so no rounding of θ_k near π/2 and of its cosine
    is paid there (cos θ_k erred by up to 5·2^-53 at order 90, this by at
    most 2.1·2^-53 at every order from 67 to 4096). It returns the nonnegative
    half of the rule, nodes ascending: the N//2 positive nodes, after 0 at odd
    N, whose weight is the formula's at k = (N+1)/2. The number of ufunc calls
    is the same at every order."""
    half = order // 2
    v = 1.0 / (order + 0.5)
    k, delta, bessel = _bessel_zeros((order + 1) // 2)
    nu = np.pi * (k - 0.25) + delta
    theta = v * nu
    x = theta * theta
    nu_sin = nu / np.sin(theta)
    u = v * v * nu_sin
    u2 = u * u
    shift = delta + theta * u * _series(_NODE_FITS, x, u2)
    positive = np.sin(np.pi * (order + 1 - 2 * k[:half]) / (2 * order + 1) - v * shift[:half])
    scaled = bessel * nu_sin
    weights = 2.0 * v / (scaled + scaled * u2 * _series(_WEIGHT_FITS, x, u2))
    return np.concatenate((np.zeros(order % 2), positive[::-1])), weights[::-1]


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

    The rule comes from numpy alone, without scipy. λ = 0 and λ = 1 take the
    closed-form Gauss–Chebyshev rules: nodes cos((2k−1)π/(2N)) and weights
    π/N, and nodes cos(kπ/(N+1)) (the roots of U_N) and weights
    π/(N+1)·sin²(kπ/(N+1)), exact to a few ulp, in time linear in the order.
    λ = 1/2 from order 69 (`_LEGENDRE_MIN_ORDER`) on takes Bogaert's (2014)
    iteration-free Gauss–Legendre series, also linear in the order (about
    0.2 ms up to order 1024 on a 2-core Xeon VM): nodes within 4·2^-53 and
    weights within 1e-15 relative of a 40-digit reference; it runs no round,
    so `bisected` reads 0. Every other λ and order uses rounds of Newton
    passes on the recurrence from asymptotic guesses, each ending in one pass
    of Sturm counts that proves each root alone in its own interval and
    brackets the rest, which go on inside their brackets (from λ = 11 on the
    first round misses some; the rule's `bisected` says how many). Its
    weights are Christoffel numbers 1/Σ_k P̃_k(x_i)²/h_k, summed in degree
    order over the nonnegative nodes, in time quadratic in the order. The
    Sturm counts and the weights run one degree at a time, so the working
    memory is a few vectors of length order plus `_fill`'s ring of three
    recurrence rows. Every route gives the nonnegative half of the
    rule, which one step mirrors, so the nodes are exactly antisymmetric and
    the weights symmetric. Every rule must pass the same checks: distinct nodes
    inside (−1, 1) and weights that sum to h_0. The tests check orders up to
    1024 (20002 at λ = 1/2 and 1); orders above 2·MAX_DEGREE + 2 = 20002 raise
    DomainError, and so do λ > 1e4 and an order whose smallest norm h_{N−1}
    would overflow the Christoffel sums (λ = 200 from order 665 on).

    The last 64 rules are cached by (lam, order), so repeated calls return
    the same rule object; λ and the order are checked first. Its nodes and
    weights are `_immutable`: no caller, callback included, can make them
    writeable and change a later call's rule.
    """
    # Christoffel weights take time quadratic in the order (the closed-form
    # rules at λ = 0 and 1 and the λ = 1/2 series, linear). 2·MAX_DEGREE + 2
    # is the largest rule `certify` or the default `coeffs` asks for.
    return _gauss_rule(_check_lam(lam), _check_count(order, "order", 1, most=2 * MAX_DEGREE + 2))


@functools.lru_cache(maxsize=64)
def _gauss_rule(lam: float, order: int) -> QuadratureRule:
    """The rule of `quadrature`, for a float λ and an int order it has checked.
    Each route gives the nonnegative half of the rule, nodes ascending (0 first
    at odd order) with their weights; the rule is that half mirrored, the
    nodes negated, so it is exactly symmetric whatever the route."""
    bisected = 0
    if lam == 0.0 or lam == 1.0:
        x, w = _chebyshev_rule(lam, order)
    elif lam == 0.5 and order >= _LEGENDRE_MIN_ORDER:
        x, w = _legendre_rule(order)
    else:
        _check_rule_range(lam, order)
        positive, bisected = _positive_roots(lam, order)
        x = np.concatenate((np.zeros(order % 2), positive))
        w = _christoffel_weights(lam, order, x)
    nodes = np.concatenate((-x[order % 2 :][::-1], x))
    weights = np.concatenate((w[order % 2 :][::-1], w))
    if np.any(np.diff(nodes) <= 0) or np.max(np.abs(nodes)) >= 1:
        raise ConvergenceError(
            f"Gauss nodes (lam={lam}, order={order}) are not distinct and inside (-1, 1)"
        )

    mass = _norm_squared(lam, 0)
    if not math.isclose(weights.sum(), mass, rel_tol=1e-9):
        raise ConvergenceError(
            f"Gauss weights (lam={lam}, order={order}) sum to {weights.sum():.16e}, "
            f"expected total mass {mass:.16e}"
        )
    return QuadratureRule(
        nodes=_immutable(nodes), weights=_immutable(weights), lam=lam, order=order, bisected=bisected
    )
