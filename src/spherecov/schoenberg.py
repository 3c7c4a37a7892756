"""Schoenberg coefficient sequences on the d-sphere.

A nonnegative summable weight sequence (a_n) defines the isotropic kernel

    k(x) = c · Σ_n a_n P̃_n^λ(x),      x = ⟨p, q⟩ ∈ [−1, 1],

which is exactly the class of isotropic positive definite functions on the
sphere. This module synthesizes kernels from stored (truncated) sequences,
recovers coefficients of black-box functions by Gauss quadrature, and
certifies positive definiteness with a coefficient check backed by an
independent Gram-eigenvalue oracle.
"""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
    NegativeCoefficientError,
    NormalizationError,
    ZeroMassError,
)
from .gegenbauer import GegenbauerBasis, _check_degree, _sequence, eval_sequence, norm_squared, quadrature

NORMALIZATION_TOL = 1e-12

DEFAULT_COEFF_TOL = 1e-8
DEFAULT_GRAM_TRIALS = 5
CERTIFY_GRAM_POINTS = 25

PD = "PD"
NOT_PD = "NotPD"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SchoenbergSequence:
    """Truncated sequence (a_0..a_N) with Σ a_n = 1 and overall scale c.

    Construction through `make_sequence` normalizes the mass into `scale_c`,
    so the stored coefficients always form a convex combination.
    """

    coeffs: np.ndarray
    scale_c: float
    basis: GegenbauerBasis

    kind = "sphere"
    arguments = ("x",)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _stored_weights(self.coeffs, 1, "coeffs", self.scale_c))

    @property
    def truncation(self) -> int:
        """Largest retained degree N."""
        return self.coeffs.size - 1

    @property
    def dimensions(self) -> tuple:
        """Sphere dimension of the cosine argument, as (d,)."""
        return (self.basis.dimension,)

    @property
    def label(self) -> str:
        """Short identifier used in provenance strings."""
        return f"sphere(d={self.basis.dimension}, n_max={self.truncation})"

    def values(self, x):
        """Kernel values at cosines x; see `kernel_eval`."""
        return kernel_eval(self, x)


def _checked_weights(values, ndim: int, name: str) -> np.ndarray:
    """A float copy of values: nonempty, `ndim`-dimensional, finite and
    nonnegative. A negative entry is reported with its index and value."""
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty {ndim}-D array")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    flat = arr.reshape(-1)
    bad = np.flatnonzero(flat < 0)
    if bad.size:
        i = int(bad[0])
        index = i if arr.ndim == 1 else np.unravel_index(i, arr.shape)
        raise NegativeCoefficientError(index, float(flat[i]))
    return arr


def _finite_total(arr: np.ndarray, name: str) -> float:
    """Sum of checked weights as a float; an overflowing sum is a DomainError,
    not a numpy warning."""
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if not math.isfinite(total):
        raise DomainError(f"{name} must have a finite total, got {total}")
    return total


def _split_mass(values, ndim: int, name: str, normalize: bool) -> tuple[np.ndarray, float]:
    """(weights, scale) for a kernel constructor.

    With `normalize` the weights are rescaled to unit mass and their total
    becomes the scale; otherwise they are returned with scale 1.
    """
    arr = _checked_weights(values, ndim, name)
    total = _finite_total(arr, name)
    if total == 0.0:
        raise ZeroMassError("all coefficients are zero")
    if normalize:
        return arr / total, total
    return arr, 1.0


def _stored_weights(values, ndim: int, name: str, scale_c: float) -> np.ndarray:
    """The read-only weight array a kernel stores: checked as by
    `_checked_weights`, summing to 1, and with a positive finite scale."""
    arr = _checked_weights(values, ndim, name)
    total = _finite_total(arr, name)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(f"stored {name} must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
    if not (math.isfinite(scale_c) and scale_c > 0):
        raise DomainError(f"scale_c must be a positive real, got {scale_c}")
    arr.setflags(write=False)
    return arr


def _check_tol(tol: float):
    """A separability tolerance must be finite and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"tol must be finite and nonnegative, got {tol}")


def make_sequence(coeffs, basis: GegenbauerBasis, normalize: bool = False) -> SchoenbergSequence:
    """Validate a coefficient vector into a SchoenbergSequence.

    With `normalize` the vector is rescaled to unit mass and the original
    total is stored as `scale_c`; otherwise the input must already sum to 1.
    """
    coeffs, scale = _split_mass(coeffs, 1, "coeffs", normalize)
    return SchoenbergSequence(coeffs=coeffs, scale_c=scale, basis=basis)


def kernel_eval(seq: SchoenbergSequence, x):
    """k(x) = c · Σ_n a_n P̃_n(x). Scalar in, float out; arrays broadcast."""
    table = eval_sequence(seq.basis, seq.truncation, x)
    value = seq.scale_c * np.tensordot(seq.coeffs, table, axes=1)
    return float(value) if np.ndim(value) == 0 else value


VECTORIZED = "vectorized"
POINTWISE = "pointwise"


def _evaluate(g, xs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Values of g on the 1-D array xs, and whether one call made them.

    xs is made read-only, then g is called once on the whole array. Only if
    that call raises or does not return a real array of xs's shape is g
    called point by point on Python floats, so a scalar-only callback works
    and a failure names its point. A non-finite value raises at the first
    point that produced one.
    """
    xs.setflags(write=False)
    try:
        values = np.asarray(g(xs))
        vectorized = values.shape == xs.shape and values.dtype.kind in "biuf"
    except Exception:  # noqa: BLE001 - any failure selects the pointwise path
        vectorized = False
    if vectorized:
        values = values.astype(float)
    else:
        values = np.empty(xs.size)
        for i, x in enumerate(xs.tolist()):
            try:
                values[i] = g(x)
            except Exception as exc:  # noqa: BLE001 - attribute the failing point
                raise EvaluationError(x, exc) from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise EvaluationError(float(xs[bad[0]]), "non-finite function value")
    return values, vectorized


def _check_recovery(n_max: int, quad_order: int) -> int:
    """The degree n_max as an int, once it and the Gauss order are valid for
    coefficient recovery."""
    if quad_order < n_max + 1:
        raise DomainError(f"quad_order must be at least n_max+1 = {n_max + 1}, got {quad_order}")
    return _check_degree(n_max)


def _recover(g, basis: GegenbauerBasis, n_max: int, quad_order: int) -> tuple[np.ndarray, bool]:
    n_max = _check_recovery(n_max, quad_order)
    rule = quadrature(basis.lam, quad_order)
    values, vectorized = _evaluate(g, rule.nodes)
    weighted = rule.weights * values
    degrees = enumerate(_sequence(basis.lam, n_max, rule.nodes))
    return np.array([p @ weighted / norm_squared(basis, n) for n, p in degrees]), vectorized


def _default_quad_order(n_max: int) -> int:
    """Gauss order of `certify` and `coeffs` when none is given."""
    return max(64, 2 * (n_max + 1))


def _tail_mass(ahat: np.ndarray) -> float:
    """Σ|â_n| over n > n_max/2 of â_0..â_n_max: mass the truncation has barely resolved."""
    n_max = ahat.size - 1
    return float(np.sum(np.abs(ahat[np.arange(ahat.size) > n_max / 2])))


def recover_coefficients(g, basis: GegenbauerBasis, n_max: int, quad_order: int) -> np.ndarray:
    """Fourier-Gegenbauer coefficients â_n of g for n = 0..n_max.

    â_n = (1/h_n) Σ_i w_i g(x_i) P̃_n(x_i) with a Gauss rule of the given
    order; exact for polynomial g of degree ≤ n_max when
    quad_order ≥ n_max + 1.

    g is first called once with the read-only 1-D float array of all nodes
    and should return an array of the same shape. Only if that call raises
    or returns another shape is g called once per node with a float, so
    scalar-only functions still work. A failing or non-finite evaluation
    raises EvaluationError naming the node.
    """
    return _recover(g, basis, n_max, quad_order)[0]


@dataclass(frozen=True)
class PDCertificate:
    """Outcome of positive-definiteness certification.

    `witness` is None for PD/Inconclusive verdicts; for NotPD it holds either
    {"kind": "coefficient", "index", "value"} or
    {"kind": "eigenvalue", "gram_size", "eigenvalue", "seed", "trial"}.
    `quad_order` is the Gauss rule used for the coefficients, `evaluations`
    the number of function values computed, and `callback_path` is
    "vectorized" when every batched call of g succeeded, else "pointwise".
    """

    verdict: str
    coefficients: np.ndarray
    min_coefficient: float
    min_coefficient_index: int
    tail_mass: float
    coeff_tol: float
    eig_tol: float
    gram_trials: int
    gram_points: int
    min_gram_eigenvalue: float | None
    witness: dict | None
    seed: int
    quad_order: int
    evaluations: int
    callback_path: str

    def to_dict(self) -> dict:
        """JSON-ready representation, keys in field order."""
        doc = {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}
        doc["coefficients"] = self.coefficients.tolist()
        return doc


def certify(
    g,
    basis: GegenbauerBasis,
    n_max: int = 30,
    coeff_tol: float = DEFAULT_COEFF_TOL,
    eig_tol: float | None = None,
    gram_trials: int = DEFAULT_GRAM_TRIALS,
    seed: int = 0,
) -> PDCertificate:
    """Certify whether g is an isotropic positive definite function on S^d.

    A coefficient â_n < −coeff_tol or a Gram matrix on a random point set
    with an eigenvalue < −eig_tol yields NotPD with a concrete witness.
    Otherwise the verdict is PD when the recovered coefficient mass beyond
    degree n_max/2 is below coeff_tol (the truncation saw the whole
    function), else Inconclusive. `eig_tol` defaults to 1e−8 times the Gram
    dimension. Trial point-set seeds are derived from `seed` through
    numpy's SeedSequence, so results are reproducible.

    g is called as in `recover_coefficients`: first once with a read-only
    1-D float array (the quadrature nodes, then the upper triangle of each
    trial's cosine matrix), and point by point with floats only if that call
    raises or returns another shape.
    """
    # fields depends on this module for Gram dispatch, hence the local import.
    from .fields import _cosine_matrix, min_eigenvalue, uniform_sphere_points

    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if eig_tol is None:
        eig_tol = 1e-8 * CERTIFY_GRAM_POINTS
    for name, tol in (("coeff_tol", coeff_tol), ("eig_tol", eig_tol)):
        if not tol > 0:
            raise DomainError(f"{name} must be positive")
        if tol == math.inf:
            raise DomainError(f"{name} must be finite")
    if gram_trials < 0:
        raise DomainError(f"gram_trials must be nonnegative, got {gram_trials}")

    quad_order = _default_quad_order(n_max)
    ahat, vectorized = _recover(g, basis, n_max, quad_order)
    evaluations = quad_order
    i_min = int(np.argmin(ahat))
    a_min = float(ahat[i_min])
    tail = _tail_mass(ahat)

    def _certificate(verdict, min_eig, witness):
        return PDCertificate(
            verdict=verdict,
            coefficients=ahat,
            min_coefficient=a_min,
            min_coefficient_index=i_min,
            tail_mass=tail,
            coeff_tol=coeff_tol,
            eig_tol=eig_tol,
            gram_trials=gram_trials,
            gram_points=CERTIFY_GRAM_POINTS,
            min_gram_eigenvalue=min_eig,
            witness=witness,
            seed=seed,
            quad_order=quad_order,
            evaluations=evaluations,
            callback_path=VECTORIZED if vectorized else POINTWISE,
        )

    if a_min < -coeff_tol:
        return _certificate(NOT_PD, None, {"kind": "coefficient", "index": i_min, "value": a_min})

    n = CERTIFY_GRAM_POINTS
    iu = np.triu_indices(n)
    trial_seeds = np.random.SeedSequence(seed).generate_state(max(gram_trials, 1))
    min_eig = math.inf
    for trial in range(gram_trials):
        trial_seed = int(trial_seeds[trial])
        pts = uniform_sphere_points(basis.dimension, n, trial_seed)
        values, batched = _evaluate(g, _cosine_matrix(pts.points)[iu])
        vectorized = vectorized and batched
        evaluations += values.size
        gmat = np.empty((n, n))
        gmat[iu] = values
        gmat[iu[1], iu[0]] = values
        eig = min_eigenvalue(gmat)
        min_eig = min(min_eig, eig)
        if eig < -eig_tol:
            witness = {
                "kind": "eigenvalue",
                "gram_size": n,
                "eigenvalue": eig,
                "seed": trial_seed,
                "trial": trial,
            }
            return _certificate(NOT_PD, eig, witness)

    reported_eig = None if gram_trials < 1 else min_eig
    if tail <= coeff_tol:
        return _certificate(PD, reported_eig, None)
    return _certificate(INCONCLUSIVE, reported_eig, None)


def multiquadric_kernel(delta: float, lam: float, x):
    """Closed form (1−δ)^{2λ} (1−2δx+δ²)^{−λ} of the multiquadric family."""
    x = np.asarray(x, dtype=float)
    value = (1.0 - delta) ** (2.0 * lam) / (1.0 - 2.0 * delta * x + delta * delta) ** lam
    return float(value) if value.ndim == 0 else value


def multiquadric_sequence(delta: float, basis: GegenbauerBasis, n_max: int) -> SchoenbergSequence:
    """Truncated multiquadric sequence a_n ∝ δ^n C_n^λ(1), renormalized.

    The synthesized kernel converges to `multiquadric_kernel` as n_max grows
    (geometric tail δ^{n_max}); the Gegenbauer generating function makes this
    family an analytic oracle for coefficient recovery. Requires λ > 0.
    """
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    lam = basis.lam
    if lam <= 0:
        raise DomainError("multiquadric sequence requires lam > 0 (d >= 2)")
    terms = np.empty(n_max + 1)
    terms[0] = 1.0
    for n in range(1, n_max + 1):
        terms[n] = terms[n - 1] * delta * (n + 2.0 * lam - 1.0) / n
    seq = make_sequence(terms, basis, normalize=True)
    return dataclasses.replace(seq, scale_c=1.0)
