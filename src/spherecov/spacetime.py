"""Isotropic-stationary covariance kernels on sphere cross line.

The admissible class on S^d × R is

    k(x, t) = c · Σ_n a_n φ_n(t) P̃_n^λ(x),

where each φ_n is a real even characteristic function with φ_n(0) = 1 and
(a_n) is a Schoenberg weight sequence. Degreewise products of positive
definite factors keep every truncation positive definite.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gegenbauer import GegenbauerBasis, _block_sum, _check_argument, _check_degree, _check_real, _fill, _float_array
from .schoenberg import SchoenbergSequence, _Kernel, _split_mass

__all__ = [
    "CharFn",
    "SpaceTimeKernel",
    "charfn_eval",
    "exponential",
    "gaussian",
    "is_separable",
    "make_charfn",
    "make_st_kernel",
    "point_mass_at_zero",
    "schoenberg_functions_at",
    "spatial_sequence",
    "st_kernel_eval",
    "stable",
    "triangle_sinc",
]

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
STABLE = "stable"
TRIANGLE_SINC = "triangle_sinc"
POINT_MASS_AT_ZERO = "point_mass_at_zero"


def _sinc(u):
    """sin(u)/u, 1 at u = 0 and 0 where u overflowed to ±inf (|sinc u| ≤ 1/|u|)."""
    # np.sinc(v) = sin(pi v)/(pi v); np.sinc(inf) would be sin(inf)/inf = nan.
    huge = np.isinf(u)
    return np.where(huge, 0.0, np.sinc(np.where(huge, 0.0, u) / np.pi))


# family name -> (each parameter's interval for `_check_real`, in the order
# they are checked; φ(t; params)). The formulas' operation order fixes the
# bits of every sphere × time kernel value.
_FAMILIES = {
    GAUSSIAN: ({"sigma": "(0, inf)"}, lambda t, sigma: np.exp(-0.5 * (sigma * t) ** 2)),
    EXPONENTIAL: ({"rate": "(0, inf)"}, lambda t, rate: np.exp(-rate * np.abs(t))),
    STABLE: ({"scale": "(0, inf)", "alpha": "(0, 2]"}, lambda t, alpha, scale: np.exp(-scale * np.abs(t) ** alpha)),
    TRIANGLE_SINC: ({"width": "(0, inf)"}, lambda t, width: _sinc(width * t)),
    POINT_MASS_AT_ZERO: ({}, np.ones_like),
}


@dataclass(frozen=True)
class CharFn:
    """A parametric characteristic function: real, even, φ(0) = 1, |φ| ≤ 1.

    Each parameter is a real number (see `gegenbauer._check_real`) stored as
    a float: the stable index alpha in (0, 2], every other in (0, inf).
    """

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(
                f"unknown characteristic function family {self.family!r}; "
                f"known: {sorted(_FAMILIES)}"
            )
        try:
            params = {str(k): v for k, v in dict(self.params).items()}
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{self.family} parameters must be numbers: {exc}") from None
        intervals = _FAMILIES[self.family][0]
        if sorted(params) != sorted(intervals):
            raise DomainError(f"family {self.family!r} takes parameters {sorted(intervals)}, got {sorted(params)}")

        def not_a_number(message):
            return DomainError(f"{self.family} parameters must be numbers: {message}")

        for name, interval in intervals.items():
            params[name] = _check_real(params[name], name, interval, type_error=not_a_number)
        object.__setattr__(self, "params", tuple(sorted(params.items())))

    @property
    def param_dict(self) -> dict:
        return dict(self.params)


def gaussian(sigma: float) -> CharFn:
    """φ(t) = exp(−σ² t² / 2)."""
    return CharFn(GAUSSIAN, {"sigma": sigma}.items())


def exponential(rate: float) -> CharFn:
    """φ(t) = exp(−rate·|t|), the Cauchy-distribution characteristic function."""
    return CharFn(EXPONENTIAL, {"rate": rate}.items())


def stable(scale: float, alpha: float) -> CharFn:
    """φ(t) = exp(−scale·|t|^α) for 0 < α ≤ 2."""
    return CharFn(STABLE, {"scale": scale, "alpha": alpha}.items())


def triangle_sinc(width: float) -> CharFn:
    """φ(t) = sin(width·t)/(width·t), transform of the uniform density."""
    return CharFn(TRIANGLE_SINC, {"width": width}.items())


def point_mass_at_zero() -> CharFn:
    """φ ≡ 1, the degenerate distribution at the origin."""
    return CharFn(POINT_MASS_AT_ZERO, {}.items())


def make_charfn(family: str, params: dict) -> CharFn:
    """Build a CharFn from a family name and parameter mapping."""
    return CharFn(family, dict(params).items())


def charfn_eval(spec: CharFn, t):
    """Evaluate φ at scalar or array t. Even in t, exactly 1 at t = 0. A lag
    that is not a number, or a NaN lag, is a DomainError."""
    value = _charfn_values(spec, _lags(t))
    return float(value) if value.ndim == 0 else value


def _charfn_values(spec: CharFn, t: np.ndarray) -> np.ndarray:
    """φ at the float array t of checked lags (see `_lags`), of t's shape."""
    # At huge lags σt, rate·|t| or |t|^α overflow to inf, and exp(−inf) = 0.
    with np.errstate(over="ignore"):
        return _FAMILIES[spec.family][1](t, **spec.param_dict)


@dataclass(frozen=True)
class SpaceTimeKernel(_Kernel):
    """Weights (a_n), per-degree characteristic functions, and scale c."""

    weights: np.ndarray
    charfns: tuple
    scale_c: float
    basis: GegenbauerBasis

    kind = "sphere_time"
    arguments = ("x", "t")
    WEIGHTS = "weights"
    BASES = ("basis",)

    def __post_init__(self):
        super().__post_init__()
        charfns = tuple(self.charfns)
        if len(charfns) != self.weights.size:
            raise DomainError(
                f"need one characteristic function per weight: {self.weights.size} weights, "
                f"{len(charfns)} functions"
            )
        for cf in charfns:
            if not isinstance(cf, CharFn):
                raise DomainError(f"charfns entries must be CharFn, got {type(cf).__name__}")
        object.__setattr__(self, "charfns", charfns)

    def values(self, x, t):
        """Kernel values at cosines x and time lags t; see `st_kernel_eval`."""
        return st_kernel_eval(self, x, t)

    def separability(self, tol: float = 1e-12) -> dict:
        """JSON-ready verdict of `is_separable`."""
        return {"separable": is_separable(self, tol)}


def make_st_kernel(terms, basis: GegenbauerBasis, normalize: bool = False) -> SpaceTimeKernel:
    """Build a SpaceTimeKernel from (weight, CharFn) pairs for n = 0, 1, ...

    With `normalize` the weight mass moves into `scale_c`; otherwise the
    weights must already sum to 1.
    """
    try:
        terms = [(a, cf) for a, cf in terms]
    except (TypeError, ValueError):
        raise DomainError("terms must be (weight, CharFn) pairs") from None
    weights, scale = _split_mass([a for a, _ in terms], 1, "weights", normalize)
    return SpaceTimeKernel(weights, tuple(cf for _, cf in terms), scale, basis)


def _lags(t) -> np.ndarray:
    """Time lags as a float array (see `gegenbauer._float_array`); a NaN lag
    is a DomainError."""
    t = _float_array(t, "time lag")
    if np.isnan(t).any():
        raise DomainError("time lag must not be NaN")
    return t


def st_kernel_eval(kernel: SpaceTimeKernel, x, t):
    """k(x, t) = c · Σ_n a_n φ_n(t) P̃_n(x); x and t broadcast together.
    `_block_sum` adds (a_n φ_n(t)) · P̃_n(x) over the nonzero weights, formed in
    one buffer that every term reuses, P̃_n read from `_fill`'s ring of three
    rows of the block (no table, no copy). A block has at most `_BLOCK_POINTS`
    points within `_BLOCK_BYTES` for the 12 rows it holds: the ring of three,
    the term, `_step`'s scratch row and φ with its temporaries, at most seven
    rows (`triangle_sinc`). The degree and the lags are checked once, for all
    terms: a NaN lag is a DomainError."""
    n_max = _check_degree(kernel.truncation)

    def terms(x_block, t_block):
        x_block = _check_argument(x_block)
        term = np.empty(x_block.size)
        for a, cf, p in zip(kernel.weights, kernel.charfns, _fill(kernel.basis.lam, n_max, x_block)):
            if a != 0.0:
                np.multiply(a, _charfn_values(cf, t_block), out=term)
                yield np.multiply(term, p, out=term)

    return _block_sum(kernel.scale_c, 12, terms, x, _lags(t))


def schoenberg_functions_at(kernel: SpaceTimeKernel, t: float) -> np.ndarray:
    """The time-slice sequence n ↦ a_n φ_n(t); a Schoenberg sequence scaled
    by factors in [−1, 1]. A NaN lag, or more than one lag, is a DomainError."""
    t = _lags(t)
    if t.ndim:
        raise DomainError(f"t must be one time lag, got shape {t.shape}")
    return np.array([a * _charfn_values(cf, t) for a, cf in zip(kernel.weights, kernel.charfns)])


def spatial_sequence(kernel: SpaceTimeKernel) -> SchoenbergSequence:
    """The purely spatial margin k(·, 0), dropping the time component."""
    return SchoenbergSequence(kernel.weights, kernel.scale_c, kernel.basis)


def _charfns_match(a: CharFn, b: CharFn, tol: float) -> bool:
    if a.family != b.family:
        return False
    pa, pb = a.param_dict, b.param_dict
    return all(abs(pa[k] - pb[k]) <= tol for k in pa)


def is_separable(kernel: SpaceTimeKernel, tol: float = 1e-12) -> bool:
    """True when all terms with weight above tol share one characteristic
    function (same family, parameters equal within tol), i.e. k(x, t) =
    c·φ(t)·k_space(x). `tol` is a real number in [0, inf) (see
    `gegenbauer._check_real`)."""
    tol = _check_real(tol, "tol", "[0, inf)")
    active = [cf for a, cf in zip(kernel.weights, kernel.charfns) if a > tol]
    if len(active) <= 1:
        return True
    first = active[0]
    return all(_charfns_match(first, cf, tol) for cf in active[1:])
