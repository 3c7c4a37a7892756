"""Isotropic-stationary covariance kernels on sphere cross line.

The admissible class on S^d × R is

    k(x, t) = c · Σ_n a_n φ_n(t) P̃_n^λ(x),

where each φ_n is a real even characteristic function with φ_n(0) = 1 and
(a_n) is a Schoenberg weight sequence. Degreewise products of positive
definite factors keep every truncation positive definite.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .gegenbauer import GegenbauerBasis, _check_argument, _check_degree, _sequence
from .schoenberg import SchoenbergSequence, _check_tol, _split_mass, _stored_weights

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
STABLE = "stable"
TRIANGLE_SINC = "triangle_sinc"
POINT_MASS_AT_ZERO = "point_mass_at_zero"

# family name -> (its parameter names, sorted; φ(t; params)). The formulas'
# operation order fixes the bits of every sphere × time kernel value.
_FAMILIES = {
    GAUSSIAN: (("sigma",), lambda t, sigma: np.exp(-0.5 * (sigma * t) ** 2)),
    EXPONENTIAL: (("rate",), lambda t, rate: np.exp(-rate * np.abs(t))),
    STABLE: (("alpha", "scale"), lambda t, alpha, scale: np.exp(-scale * np.abs(t) ** alpha)),
    # np.sinc(u) = sin(pi u)/(pi u), finite and 1 at u = 0.
    TRIANGLE_SINC: (("width",), lambda t, width: np.sinc(width * t / np.pi)),
    POINT_MASS_AT_ZERO: ((), np.ones_like),
}


@dataclass(frozen=True)
class CharFn:
    """A parametric characteristic function: real, even, φ(0) = 1, |φ| ≤ 1."""

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(
                f"unknown characteristic function family {self.family!r}; "
                f"known: {sorted(_FAMILIES)}"
            )
        params = tuple(sorted((str(k), float(v)) for k, v in dict(self.params).items()))
        names = [k for k, _ in params]
        expected = list(_FAMILIES[self.family][0])
        if names != expected:
            raise DomainError(f"family {self.family!r} takes parameters {expected}, got {names}")
        # Every parameter is a finite positive real except the stable index alpha.
        for name, value in params:
            if name != "alpha" and not (math.isfinite(value) and value > 0):
                raise DomainError(f"{name} must be a positive real, got {value}")
        values = dict(params)
        if "alpha" in values and not 0.0 < values["alpha"] <= 2.0:
            raise DomainError(f"alpha must lie in (0, 2], got {values['alpha']}")
        object.__setattr__(self, "params", params)

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
    """Evaluate φ at scalar or array t. Even in t, exactly 1 at t = 0."""
    t = np.asarray(t, dtype=float)
    # At huge lags σt, rate·|t| or |t|^α overflow to inf, and exp(−inf) = 0.
    with np.errstate(over="ignore"):
        value = _FAMILIES[spec.family][1](t, **spec.param_dict)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class SpaceTimeKernel:
    """Weights (a_n), per-degree characteristic functions, and scale c."""

    weights: np.ndarray
    charfns: tuple
    scale_c: float
    basis: GegenbauerBasis

    kind = "sphere_time"
    arguments = ("x", "t")

    def __post_init__(self):
        weights = _stored_weights(self.weights, 1, "weights", self.scale_c)
        charfns = tuple(self.charfns)
        if len(charfns) != weights.size:
            raise DomainError(
                f"need one characteristic function per weight: {weights.size} weights, "
                f"{len(charfns)} functions"
            )
        for cf in charfns:
            if not isinstance(cf, CharFn):
                raise DomainError(f"charfns entries must be CharFn, got {type(cf).__name__}")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "charfns", charfns)

    @property
    def truncation(self) -> int:
        return self.weights.size - 1

    @property
    def dimensions(self) -> tuple:
        """Sphere dimension of the cosine argument, as (d,)."""
        return (self.basis.dimension,)

    @property
    def label(self) -> str:
        """Short identifier used in provenance strings."""
        return f"sphere_time(d={self.basis.dimension}, n_max={self.truncation})"

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
    terms = list(terms)
    weights, scale = _split_mass([float(a) for a, _ in terms], 1, "weights", normalize)
    return SpaceTimeKernel(weights, tuple(cf for _, cf in terms), scale, basis)


def st_kernel_eval(kernel: SpaceTimeKernel, x, t):
    """k(x, t) = c · Σ_n a_n φ_n(t) P̃_n(x); x and t broadcast together."""
    x_b, t_b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    degrees = _sequence(kernel.basis.lam, _check_degree(kernel.truncation), _check_argument(x_b))
    acc = np.zeros(x_b.shape)
    for a, cf, p in zip(kernel.weights, kernel.charfns, degrees):
        if a == 0.0:
            continue
        acc += a * charfn_eval(cf, t_b) * p
    value = kernel.scale_c * acc
    return float(value) if value.ndim == 0 else value


def schoenberg_functions_at(kernel: SpaceTimeKernel, t: float) -> np.ndarray:
    """The time-slice sequence n ↦ a_n φ_n(t); a Schoenberg sequence scaled
    by factors in [−1, 1]."""
    return np.array([a * charfn_eval(cf, float(t)) for a, cf in zip(kernel.weights, kernel.charfns)])


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
    c·φ(t)·k_space(x)."""
    _check_tol(tol)
    active = [cf for a, cf in zip(kernel.weights, kernel.charfns) if a > tol]
    if len(active) <= 1:
        return True
    first = active[0]
    return all(_charfns_match(first, cf, tol) for cf in active[1:])
