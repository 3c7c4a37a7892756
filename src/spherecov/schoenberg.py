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
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
    NegativeCoefficientError,
    NormalizationError,
    ZeroMassError,
)
from .gegenbauer import (
    GegenbauerBasis,
    _block_sum,
    _check_argument,
    _check_array_bytes,
    _check_count,
    _check_degree,
    _check_lam,
    _check_real,
    _check_seed,
    _frozen_floats,
    _immutable,
    _norms,
    _overflow,
    _project,
    eval_sequence,
    quadrature,
)

__all__ = [
    "INCONCLUSIVE",
    "NOT_PD",
    "PD",
    "PDCertificate",
    "SchoenbergSequence",
    "certify",
    "kernel_eval",
    "make_sequence",
    "multiquadric_kernel",
    "multiquadric_sequence",
    "recover_coefficients",
]

NORMALIZATION_TOL = 1e-12

DEFAULT_COEFF_TOL = 1e-8
DEFAULT_GRAM_TRIALS = 5
CERTIFY_GRAM_POINTS = 25

PD = "PD"
NOT_PD = "NotPD"
INCONCLUSIVE = "Inconclusive"


def _checked_weights(values, ndim: int, name: str) -> tuple[np.ndarray, float]:
    """(weights, total): `values` as `_frozen_floats` takes them, nonnegative,
    with a finite, nonzero total, as an `_immutable` array (one is kept as it
    is), so no one can edit the weights once they are checked. A negative
    entry is reported with its index and value; an overflowing total is a
    DomainError, not a numpy warning."""
    arr = _immutable(_frozen_floats(values, ndim, name))
    flat = arr.reshape(-1)
    bad = np.flatnonzero(flat < 0)
    if bad.size:
        i = int(bad[0])
        index = i if arr.ndim == 1 else np.unravel_index(i, arr.shape)
        raise NegativeCoefficientError(index, float(flat[i]))
    with _overflow("{} must have a finite total, got inf", name):  # finite nonnegative weights overflow to +inf
        total = float(arr.sum())
    if total == 0.0:
        raise ZeroMassError("all coefficients are zero")
    return arr, total


def _split_mass(values, ndim: int, name: str, normalize: bool) -> tuple:
    """(weights, scale) for a kernel constructor, which checks them.

    With `normalize` the weights are checked here for their total, rescaled
    to unit mass, and the total becomes the scale; otherwise they are passed
    on as given with scale 1.
    """
    if not normalize:
        return values, 1.0
    arr, total = _checked_weights(values, ndim, name)
    return arr / total, total


def _stored_weights(values, ndim: int, name: str, scale_c) -> tuple[np.ndarray, float]:
    """(weights, scale) a kernel stores: the read-only weight array, checked
    by `_checked_weights` and summing to 1, and `scale_c` as a float in
    (0, inf) by `_check_real`."""
    arr, total = _checked_weights(values, ndim, name)
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise NormalizationError(f"stored {name} must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
    return arr, _check_real(scale_c, "scale_c", "(0, inf)")


class _Kernel:
    """The kernel protocol, written once: a kernel is a frozen dataclass of
    nonnegative weights (the field named `WEIGHTS`, one axis per basis), the
    Gegenbauer bases (the fields named `BASES`, in axis order) and `scale_c`,
    a real number in (0, inf) stored as a float."""

    def __post_init__(self):
        weights, scale = _stored_weights(getattr(self, self.WEIGHTS), len(self.BASES), self.WEIGHTS, self.scale_c)
        object.__setattr__(self, self.WEIGHTS, weights)
        object.__setattr__(self, "scale_c", scale)

    @property
    def dimensions(self) -> tuple:
        """Sphere dimension of each cosine argument, one per basis."""
        return tuple(getattr(self, name).dimension for name in self.BASES)

    @property
    def truncations(self) -> tuple:
        """Largest retained degree of each weight axis."""
        return tuple(n - 1 for n in getattr(self, self.WEIGHTS).shape)

    @property
    def truncation(self) -> int:
        """Largest retained degree N of a kernel with one weight axis."""
        if len(self.BASES) != 1:
            raise AttributeError(f"{type(self).__name__} has one truncation per axis, see `truncations`")
        return self.truncations[0]

    @property
    def label(self) -> str:
        """Short identifier used in provenance strings, e.g. `sphere(d=2, n_max=3)`
        or `product_spheres(d1=2, d2=1, m_max=1, n_max=1)`."""
        one = len(self.BASES) == 1
        dims = [("d" if one else f"d{i}", d) for i, d in enumerate(self.dimensions, 1)]
        degrees = zip(("n_max",) if one else ("m_max", "n_max"), self.truncations)
        return f"{self.kind}({', '.join(f'{key}={value}' for key, value in [*dims, *degrees])})"


@dataclass(frozen=True)
class SchoenbergSequence(_Kernel):
    """Truncated sequence (a_0..a_N) with Σ a_n = 1 and overall scale c.

    Construction through `make_sequence` normalizes the mass into `scale_c`,
    so the stored coefficients always form a convex combination.
    """

    coeffs: np.ndarray
    scale_c: float
    basis: GegenbauerBasis

    kind = "sphere"
    arguments = ("x",)
    WEIGHTS = "coeffs"
    BASES = ("basis",)

    def values(self, x):
        """Kernel values at cosines x; see `kernel_eval`."""
        return kernel_eval(self, x)


def make_sequence(coeffs, basis: GegenbauerBasis, normalize: bool = False) -> SchoenbergSequence:
    """Validate a coefficient vector into a SchoenbergSequence.

    With `normalize` the vector is rescaled to unit mass and the original
    total is stored as `scale_c`; otherwise the input must already sum to 1.
    """
    coeffs, scale = _split_mass(coeffs, 1, "coeffs", normalize)
    return SchoenbergSequence(coeffs=coeffs, scale_c=scale, basis=basis)


def kernel_eval(seq: SchoenbergSequence, x):
    """k(x) = c · Σ_n a_n P̃_n(x), summed by `_block_sum` over the rows of one
    `eval_sequence` table per block. Each term a_n P̃_n is made in the table
    itself, by one multiply of the whole table by the column of a_n, and the
    rows are then added in degree order: N + 2 ufunc calls per block. Scalar
    in, float out; an array gives an array of its shape."""
    coeffs = seq.coeffs[:, None]

    def terms(block):
        table = eval_sequence(seq.basis, seq.truncation, block)
        return np.multiply(table, coeffs, out=table)

    return _block_sum(seq.scale_c, seq.coeffs.size, terms, x)


VECTORIZED = "vectorized"
POINTWISE = "pointwise"


def _evaluate(g, xs: np.ndarray) -> tuple[np.ndarray, bool]:
    """Values of g on the 1-D array xs, and whether one call made them.

    xs is made read-only, then g is called once on the whole array. Only if
    that call raises or does not return a real array of xs's shape is g
    called point by point on Python floats, in one `np.fromiter` loop, so a
    scalar-only callback works and a failure names its point. That loop
    cannot keep a StopIteration that g raises, so the error's cause is a new
    one. A non-finite value raises at the first point that produced one.
    """
    xs.setflags(write=False)
    try:
        values = np.asarray(g(xs))
        vectorized = values.shape == xs.shape and values.dtype.kind in "biuf"
    except Exception:  # noqa: BLE001 - any failure selects the pointwise path
        vectorized = False
    if vectorized:
        values = np.asarray(values, dtype=float)  # a float64 result is not copied
    else:
        points = xs.tolist()
        rest = iter(points)
        try:
            values = np.fromiter(map(g, rest), float)
        except Exception as exc:  # noqa: BLE001 - attribute the failing point
            # `map` has taken every point up to and including the failing one.
            raise EvaluationError(points[len(points) - len(list(rest)) - 1], exc) from exc
        if values.size < len(points):  # a StopIteration from g ends `map` early
            stop = StopIteration()
            raise EvaluationError(points[values.size], stop) from stop
    if not np.isfinite(values).all():
        bad = np.flatnonzero(~np.isfinite(values))
        raise EvaluationError(float(xs[bad[0]]), "non-finite function value")
    return values, vectorized


def _check_recovery(n_max: int, quad_order: int) -> int:
    """The degree n_max as an int, once it and the Gauss order are valid for
    coefficient recovery."""
    n_max = _check_degree(n_max)
    quad_order = _check_count(quad_order, "order", 1)
    if quad_order < n_max + 1:
        raise DomainError(f"quad_order must be at least n_max+1 = {n_max + 1}, got {quad_order}")
    return n_max


def _recover(g, basis: GegenbauerBasis, n_max: int, quad_order: int) -> tuple[np.ndarray, bool]:
    """(â_0, ..., â_n_max, whether g ran vectorized): each â_n is `_project`'s one
    BLAS dot product of the weighted values with P̃_n at the nodes, over h_n. The
    cached table and the streamed rows run that same dot per row (unlike
    `table @ weighted`, a gemv that can change last bits), so both give the same bytes."""
    n_max = _check_recovery(n_max, quad_order)
    rule = quadrature(basis.lam, quad_order)
    values, vectorized = _evaluate(g, rule.nodes)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below, not a warning
        weighted = rule.weights * values
        ahat = _project(rule.lam, rule.order, n_max, weighted)
        ahat /= _norms(rule.lam, n_max + 1)
    if not np.isfinite(ahat).all():
        raise DomainError(f"coefficient {np.argmin(np.isfinite(ahat))} overflows: the function's values are too large")
    return ahat, vectorized


def _default_quad_order(n_max: int) -> int:
    """Gauss order of `certify` and `coeffs` when none is given."""
    return max(64, 2 * (n_max + 1))


def _tail_mass(ahat: np.ndarray) -> float:
    """Σ|â_n| over n > n_max/2 of â_0..â_n_max: mass the truncation has barely
    resolved. A sum that overflows is a DomainError."""
    n_max = ahat.size - 1
    with _overflow("the coefficient tail mass overflows: the function's values are too large"):
        return float(np.sum(np.abs(ahat[n_max // 2 + 1 :])))


def recover_coefficients(g, basis: GegenbauerBasis, n_max: int, quad_order: int) -> np.ndarray:
    """Fourier-Gegenbauer coefficients â_n of g for n = 0..n_max.

    â_n = (1/h_n) Σ_i w_i g(x_i) P̃_n(x_i) with a Gauss rule of the given
    order; exact for polynomial g of degree ≤ n_max when
    quad_order ≥ n_max + 1.

    g is first called once with the read-only 1-D float array of all nodes
    and should return an array of the same shape. Only if that call raises
    or returns another shape is g called once per node with a float, so
    scalar-only functions still work. A failing or non-finite evaluation
    raises EvaluationError naming the node; an overflowing coefficient,
    DomainError.

    The (n_max+1) × quad_order table of P̃_n at the nodes is cached by
    (λ, quad_order, n_max) up to 1 MiB and takes one `np.vecdot` with the
    weighted values; a larger one is streamed from a ring of three rows, one
    BLAS dot per row into the coefficient array. Both run the same dot on each
    row, so the coefficients have the same bytes either way. The cache lives
    in the process: a fresh CLI process gains nothing.
    """
    return _recover(g, basis, n_max, quad_order)[0]


@dataclass(frozen=True)
class PDCertificate:
    """Outcome of positive-definiteness certification.

    `witness` is None for PD/Inconclusive verdicts; for NotPD it holds either
    {"kind": "coefficient", "index", "value"} or
    {"kind": "eigenvalue", "gram_size", "eigenvalue", "seed", "trial"}.
    `min_gram_eigenvalue` is the least eigenvalue over the Gram trials that
    ran, None when none ran (a coefficient witness, or gram_trials=0).
    `quad_order` is the Gauss rule used for the coefficients, `evaluations`
    the number of function values computed (`quad_order` plus 325 per trial
    that ran), and `callback_path` is "vectorized" when every batched call
    of g succeeded, else "pointwise".
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
    dimension. Both tolerances are absolute real numbers in (0, inf), stored
    as floats (see `gegenbauer._check_real`), so g scaled by s needs them
    scaled by s: at the defaults exp(x−1) on S^2 reads PD, 1e7·exp(x−1)
    NotPD (â_26 ≈ −3.5e−8). Trial point-set seeds come from `seed` through
    numpy's SeedSequence, so results are reproducible; the split is not
    cached, so no call keeps its 4·gram_trials bytes.

    g is called as in `recover_coefficients`: first once with a read-only
    1-D float array (the quadrature nodes, then the upper triangle of each
    trial's cosine matrix), and point by point with floats only if that call
    raises or returns another shape. Repeated calls with the same basis and
    n_max <= 255 reuse the table that `recover_coefficients` caches. Each
    trial's Gram matrix is one gather of g's values through a cached index
    map, so it is exactly symmetric by construction, and g's values were
    checked finite: it goes to `np.linalg.eigvalsh` directly, without the
    checks that `min_eigenvalue` runs on a caller's matrix. Each trial's
    cosines are cached by (d, 25, trial seed), the last 64 (about 170 KB), so
    a repeated seed skips drawing the points but still calls g on every
    trial. These caches live in the process: a fresh CLI process gains
    nothing from them.
    """
    # fields depends on this module for Gram dispatch, hence the local import.
    from .fields import _seed_states, _trial_arguments, _trial_index

    n_max = _check_degree(n_max)
    coeff_tol = _check_real(coeff_tol, "coeff_tol", "(0, inf)")
    eig_tol = _check_real(1e-8 * CERTIFY_GRAM_POINTS if eig_tol is None else eig_tol, "eig_tol", "(0, inf)")
    gram_trials = _check_count(gram_trials, "gram_trials")
    _check_array_bytes((gram_trials,), "a seed split", "uint32 seeds", 4)
    seed = _check_seed(seed)

    quad_order = _default_quad_order(n_max)
    ahat, vectorized = _recover(g, basis, n_max, quad_order)
    evaluations = quad_order
    i_min = int(np.argmin(ahat))
    a_min = float(ahat[i_min])
    tail = _tail_mass(ahat)

    min_eig = witness = None
    if a_min < -coeff_tol:
        witness = {"kind": "coefficient", "index": i_min, "value": a_min}
    else:
        index = _trial_index(CERTIFY_GRAM_POINTS)
        for trial, trial_seed in enumerate(_seed_states(seed, gram_trials).tolist()):
            values, batched = _evaluate(g, _trial_arguments(basis.dimension, CERTIFY_GRAM_POINTS, trial_seed))
            vectorized = vectorized and batched
            evaluations += values.size
            eig = float(np.linalg.eigvalsh(values[index])[0])
            min_eig = eig if min_eig is None else min(min_eig, eig)
            if eig < -eig_tol:
                witness = {
                    "kind": "eigenvalue",
                    "gram_size": CERTIFY_GRAM_POINTS,
                    "eigenvalue": eig,
                    "seed": trial_seed,
                    "trial": trial,
                }
                break

    return PDCertificate(
        verdict=NOT_PD if witness else (PD if tail <= coeff_tol else INCONCLUSIVE),
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


def multiquadric_kernel(delta: float, lam: float, x):
    """Closed form (1−δ)^{2λ} (1−2δx+δ²)^{−λ} of the multiquadric family, for
    δ in (0, 1), λ in [0, inf) (real numbers, see `gegenbauer._check_real`)
    and x in [−1, 1]. It is evaluated as ((1−δ)² / (1−2δx+δ²))^λ, a power of
    a ratio in (0, 1], so no factor over- or underflows alone at a large λ."""
    delta = _check_real(delta, "delta", "(0, 1)")
    lam = _check_lam(lam)
    x = _check_argument(x)
    value = ((1.0 - delta) ** 2 / (1.0 - 2.0 * delta * x + delta * delta)) ** lam
    return float(value) if value.ndim == 0 else value


def multiquadric_sequence(delta: float, basis: GegenbauerBasis, n_max: int) -> SchoenbergSequence:
    """Truncated multiquadric sequence a_n ∝ δ^n C_n^λ(1), renormalized.

    The synthesized kernel converges to `multiquadric_kernel` as n_max grows
    (geometric tail δ^{n_max}); the Gegenbauer generating function makes this
    family an analytic oracle for coefficient recovery. Requires λ > 0 and
    δ in (0, 1), a real number (see `gegenbauer._check_real`).
    """
    delta = _check_real(delta, "delta", "(0, 1)")
    lam = basis.lam
    if lam <= 0:
        raise DomainError("multiquadric sequence requires lam > 0 (d >= 2)")
    n_max = _check_degree(n_max)
    terms = [1.0]
    for n in range(1, n_max + 1):
        # A Python float overflows silently; a power of two keeps every ratio's bits.
        while (term := terms[-1] * delta * (n + 2.0 * lam - 1.0) / n) > 2.0**1000:
            terms = [t * 2.0**-512 for t in terms]
        terms.append(term)
    seq = make_sequence(terms, basis, normalize=True)
    return dataclasses.replace(seq, scale_c=1.0)
