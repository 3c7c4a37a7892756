"""Isotropic covariance kernels on a product of two spheres.

The admissible class on S^{d1} × S^{d2} is the double series

    k(x1, x2) = c · Σ_{m,n} a_{mn} P̃_m^{λ1}(x1) P̃_n^{λ2}(x2)

with nonnegative summable coefficients. A kernel is separable exactly when
the coefficient matrix has rank one, which is decided here by checking all
2×2 minors against a relative tolerance.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateZeroError
from .gegenbauer import GegenbauerBasis, eval_sequence
from .schoenberg import SchoenbergSequence, _split_mass, _stored_weights


@dataclass(frozen=True)
class ProductSphereKernel:
    """Coefficient matrix a_{mn} (rows: first sphere, cols: second) with
    unit total mass, plus the overall scale c."""

    coeff_matrix: np.ndarray
    scale_c: float
    basis1: GegenbauerBasis
    basis2: GegenbauerBasis

    arguments = ("x1", "x2")

    def __post_init__(self):
        object.__setattr__(
            self, "coeff_matrix", _stored_weights(self.coeff_matrix, 2, "coeff_matrix", self.scale_c)
        )

    @property
    def truncations(self) -> tuple:
        """Largest retained degrees (M, N)."""
        return (self.coeff_matrix.shape[0] - 1, self.coeff_matrix.shape[1] - 1)

    @property
    def dimensions(self) -> tuple:
        """Sphere dimensions of the two cosine arguments, as (d1, d2)."""
        return (self.basis1.dimension, self.basis2.dimension)

    @property
    def label(self) -> str:
        """Short identifier used in provenance strings."""
        m_max, n_max = self.truncations
        return (
            f"product_spheres(d1={self.basis1.dimension}, d2={self.basis2.dimension}, "
            f"m_max={m_max}, n_max={n_max})"
        )

    def values(self, x1, x2):
        """Kernel values at cosine pairs (x1, x2); see `ps_kernel_eval`."""
        return ps_kernel_eval(self, x1, x2)


def make_ps_kernel(
    matrix, basis1: GegenbauerBasis, basis2: GegenbauerBasis, normalize: bool = False
) -> ProductSphereKernel:
    """Validate a coefficient matrix into a ProductSphereKernel.

    With `normalize` the total mass moves into `scale_c`; otherwise the
    entries must already sum to 1.
    """
    arr, scale = _split_mass(matrix, 2, "coeff_matrix", normalize)
    return ProductSphereKernel(arr, scale, basis1, basis2)


def ps_kernel_eval(kernel: ProductSphereKernel, x1, x2):
    """k(x1, x2) = c · Σ a_{mn} P̃_m(x1) P̃_n(x2); x1 and x2 broadcast."""
    x1_b, x2_b = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    m_max, n_max = kernel.truncations
    t1 = eval_sequence(kernel.basis1, m_max, x1_b)
    t2 = eval_sequence(kernel.basis2, n_max, x2_b)
    value = kernel.scale_c * np.einsum("mn,m...,n...->...", kernel.coeff_matrix, t1, t2)
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class Separable:
    """Rank-one witness: coeff_matrix ≈ outer(row_factors, col_factors)."""

    row_factors: np.ndarray
    col_factors: np.ndarray


@dataclass(frozen=True)
class NonSeparable:
    """A violating 2×2 minor (m, n, m', n') and its determinant value."""

    minor: tuple
    value: float


def separability_test(kernel: ProductSphereKernel, tol: float = 1e-9):
    """Decide whether the coefficient matrix is rank one.

    All 2×2 minors a_{mn} a_{m'n'} − a_{mn'} a_{m'n} must vanish within
    tol · (max entry)². Returns Separable with nonnegative factors whose
    outer product reconstructs the matrix, or NonSeparable with the first
    violating minor in row-pair-major order.
    """
    a = kernel.coeff_matrix
    a_max = float(a.max())
    if a_max == 0.0:
        raise DegenerateZeroError("coefficient matrix is identically zero")
    threshold = tol * a_max * a_max

    rows, cols = a.shape
    col_pairs = np.triu_indices(cols, k=1)
    for m in range(rows - 1):
        for m2 in range(m + 1, rows):
            outer = np.outer(a[m], a[m2])
            # (outer - outer.T)[n, n2] = a[m,n] a[m2,n2] - a[m,n2] a[m2,n]
            vals = (outer - outer.T)[col_pairs]
            bad = np.flatnonzero(np.abs(vals) > threshold)
            if bad.size:
                k = int(bad[0])
                n, n2 = int(col_pairs[0][k]), int(col_pairs[1][k])
                return NonSeparable(minor=(m, n, m2, n2), value=float(vals[k]))

    i, j = np.unravel_index(int(np.argmax(a)), a.shape)
    row_factors = a[:, j].copy()
    col_factors = a[i, :] / a[i, j]
    return Separable(row_factors=row_factors, col_factors=col_factors)


def outer_product_kernel(
    seq1: SchoenbergSequence, seq2: SchoenbergSequence
) -> ProductSphereKernel:
    """The separable kernel k1(x1) k2(x2) as a rank-one coefficient matrix."""
    matrix = np.outer(seq1.coeffs, seq2.coeffs)
    scale = seq1.scale_c * seq2.scale_c
    return ProductSphereKernel(matrix, scale, seq1.basis, seq2.basis)
