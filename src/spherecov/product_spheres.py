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
from .gegenbauer import GegenbauerBasis, _block_sum, _check_argument, _check_degree, _check_real, _fill, _table
from .schoenberg import SchoenbergSequence, _Kernel, _split_mass

__all__ = [
    "NonSeparable",
    "ProductSphereKernel",
    "Separable",
    "make_ps_kernel",
    "outer_product_kernel",
    "ps_kernel_eval",
    "separability_test",
]


@dataclass(frozen=True)
class ProductSphereKernel(_Kernel):
    """Coefficient matrix a_{mn} (rows: first sphere, cols: second) with
    unit total mass, plus the overall scale c."""

    coeff_matrix: np.ndarray
    scale_c: float
    basis1: GegenbauerBasis
    basis2: GegenbauerBasis

    kind = "product_spheres"
    arguments = ("x1", "x2")
    WEIGHTS = "coeff_matrix"
    BASES = ("basis1", "basis2")

    def values(self, x1, x2):
        """Kernel values at cosine pairs (x1, x2); see `ps_kernel_eval`."""
        return ps_kernel_eval(self, x1, x2)

    def separability(self, tol: float = 1e-9) -> dict:
        """JSON-ready verdict of `separability_test`."""
        return separability_test(self, tol).to_dict()


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
    """k(x1, x2) = c · Σ a_{mn} P̃_m(x1) P̃_n(x2); x1 and x2 broadcast. `_block_sum` adds
    (a_{mn} P̃_m) · P̃_n, m outer from `_fill`'s ring, n inner from a table that every m
    reads, made in one buffer to keep a block in cache. A block has at most `_BLOCK_POINTS`
    points within `_BLOCK_BYTES` for n_max + 5 rows: the table, a ring of three, the term."""
    m_max, n_max = (_check_degree(n) for n in kernel.truncations)

    def terms(x1_block, x2_block):
        ring = _fill(kernel.basis1.lam, m_max, _check_argument(x1_block))
        t2 = _table(kernel.basis2.lam, n_max, _check_argument(x2_block))
        term = np.empty(x1_block.size)
        for a_m, p in zip(kernel.coeff_matrix, ring):
            for a_mn, q in zip(a_m, t2):
                np.multiply(a_mn, p, out=term)
                term *= q
                yield term

    return _block_sum(kernel.scale_c, n_max + 5, terms, x1, x2)


@dataclass(frozen=True)
class Separable:
    """Rank-one witness: coeff_matrix ≈ outer(row_factors, col_factors)."""

    row_factors: np.ndarray
    col_factors: np.ndarray

    def to_dict(self) -> dict:
        return {
            "separable": True,
            "row_factors": self.row_factors.tolist(),
            "col_factors": self.col_factors.tolist(),
        }


@dataclass(frozen=True)
class NonSeparable:
    """A violating 2×2 minor (m, n, m', n') and its determinant value."""

    minor: tuple
    value: float

    def to_dict(self) -> dict:
        return {"separable": False, "minor": list(self.minor), "value": self.value}


def separability_test(kernel: ProductSphereKernel, tol: float = 1e-9):
    """Decide whether the coefficient matrix is rank one.

    All 2×2 minors a_{mn} a_{m'n'} − a_{mn'} a_{m'n} must vanish within
    tol · (max entry)². Returns Separable with nonnegative factors whose
    outer product reconstructs the matrix, or NonSeparable with the first
    violating minor in row-pair-major order. `tol` is a real number in
    [0, inf) (see `gegenbauer._check_real`).
    """
    tol = _check_real(tol, "tol", "[0, inf)")
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
