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
from .gegenbauer import GegenbauerBasis, eval_sequence
from .schoenberg import SchoenbergSequence, _split_mass, _stored_weights

GAUSSIAN = "gaussian"
EXPONENTIAL = "exponential"
STABLE = "stable"
TRIANGLE_SINC = "triangle_sinc"
POINT_MASS_AT_ZERO = "point_mass_at_zero"

# family name -> {param name: validator description}
_FAMILY_PARAMS = {
    GAUSSIAN: ("sigma",),
    EXPONENTIAL: ("rate",),
    STABLE: ("scale", "alpha"),
    TRIANGLE_SINC: ("width",),
    POINT_MASS_AT_ZERO: (),
}


@dataclass(frozen=True)
class CharFn:
    """A parametric characteristic function: real, even, φ(0) = 1, |φ| ≤ 1."""

    family: str
    params: tuple

    def __post_init__(self):
        if self.family not in _FAMILY_PARAMS:
            raise DomainError(
                f"unknown characteristic function family {self.family!r}; "
                f"known: {sorted(_FAMILY_PARAMS)}"
            )
        params = tuple(sorted((str(k), float(v)) for k, v in dict(self.params).items()))
        names = tuple(k for k, _ in params)
        if tuple(sorted(names)) != tuple(sorted(_FAMILY_PARAMS[self.family])):
            raise DomainError(
                f"family {self.family!r} takes parameters {sorted(_FAMILY_PARAMS[self.family])}, "
                f"got {sorted(names)}"
            )
        values = dict(params)
        for name in ("sigma", "rate", "scale", "width"):
            if name in values and not (math.isfinite(values[name]) and values[name] > 0):
                raise DomainError(f"{name} must be a positive real, got {values[name]}")
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
    p = spec.param_dict
    if spec.family == GAUSSIAN:
        value = np.exp(-0.5 * (p["sigma"] * t) ** 2)
    elif spec.family == EXPONENTIAL:
        value = np.exp(-p["rate"] * np.abs(t))
    elif spec.family == STABLE:
        value = np.exp(-p["scale"] * np.abs(t) ** p["alpha"])
    elif spec.family == TRIANGLE_SINC:
        # np.sinc(u) = sin(pi u)/(pi u), finite and 1 at u = 0.
        value = np.sinc(p["width"] * t / np.pi)
    else:
        value = np.ones_like(t)
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class SpaceTimeKernel:
    """Weights (a_n), per-degree characteristic functions, and scale c."""

    weights: np.ndarray
    charfns: tuple
    scale_c: float
    basis: GegenbauerBasis

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
    table = eval_sequence(kernel.basis, kernel.truncation, x_b)
    acc = np.zeros(x_b.shape)
    for n, cf in enumerate(kernel.charfns):
        if kernel.weights[n] == 0.0:
            continue
        acc += kernel.weights[n] * charfn_eval(cf, t_b) * table[n]
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
    active = [cf for a, cf in zip(kernel.weights, kernel.charfns) if a > tol]
    if len(active) <= 1:
        return True
    first = active[0]
    return all(_charfns_match(first, cf, tol) for cf in active[1:])
