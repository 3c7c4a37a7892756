"""Reference values that do not depend on the code under test.

Zonal polynomials come from scipy.special (Chebyshev T_n for the circle,
Legendre P_n for the 2-sphere, Gegenbauer C_n^λ / C_n^λ(1) otherwise), the
characteristic functions and the multiquadric family are written out in
closed form here, and exp(x − 1) has a closed-form Bessel series. Every
kernel is evaluated from the raw (unnormalized) coefficients the benchmark
generated, never from a spherecov object.
"""

import math

import numpy as np
from scipy import special

EPS = np.finfo(np.float64).eps


def tolerance(terms: int, magnitude: float) -> float:
    """Absolute tolerance for a float64 sum of `terms` terms of this magnitude."""
    return 256.0 * terms * EPS * max(1.0, magnitude)


def zonal(lam: float, n_max: int, x) -> np.ndarray:
    """P̃_0..P̃_{n_max} at x, shape (n_max+1,) + x.shape, with P̃_n(1) = 1."""
    x = np.asarray(x, dtype=float)
    n = np.arange(n_max + 1).reshape((-1,) + (1,) * x.ndim)
    if lam == 0.0:
        return special.eval_chebyt(n, x)
    if lam == 0.5:
        return special.eval_legendre(n, x)
    return special.eval_gegenbauer(n, lam, x) / special.eval_gegenbauer(n, lam, 1.0)


def charfn(family: str, params: dict, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if family == "gaussian":
        return np.exp(-0.5 * (params["sigma"] * t) ** 2)
    if family == "exponential":
        return np.exp(-params["rate"] * np.abs(t))
    if family == "stable":
        return np.exp(-params["scale"] * np.abs(t) ** params["alpha"])
    if family == "triangle_sinc":
        u = params["width"] * t
        safe = np.where(u == 0.0, 1.0, u)
        return np.where(u == 0.0, 1.0, np.sin(safe) / safe)
    if family == "point_mass_at_zero":
        return np.ones_like(t)
    raise ValueError(f"unknown family {family!r}")


def sphere_kernel(raw, lam, x) -> np.ndarray:
    raw = np.asarray(raw, dtype=float)
    return np.tensordot(raw, zonal(lam, raw.size - 1, x), axes=1)


def sphere_time_kernel(terms, lam, x, t) -> np.ndarray:
    """terms: list of (weight, family, params) per degree."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    table = zonal(lam, len(terms) - 1, x)
    acc = np.zeros(x.shape)
    for n, (w, family, params) in enumerate(terms):
        acc += w * charfn(family, params, t) * table[n]
    return acc


def product_kernel(matrix, lam1, lam2, x1, x2) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=float)
    t1 = zonal(lam1, matrix.shape[0] - 1, x1)
    t2 = zonal(lam2, matrix.shape[1] - 1, x2)
    return np.einsum("mn,m...,n...->...", matrix, t1, t2)


def exp_coefficients(lam: float, n_max: int) -> np.ndarray:
    """Coefficients of exp(x − 1) in the normalized basis, from the
    Gegenbauer–Bessel expansion e^{x} = Γ(λ)2^λ Σ (n+λ) I_{n+λ}(1) C_n^λ(x)
    (and e^{x} = I_0(1) + 2 Σ I_n(1) T_n(x) on the circle)."""
    n = np.arange(n_max + 1)
    if lam == 0.0:
        return np.where(n == 0, 1.0, 2.0) * special.iv(n, 1.0) * math.exp(-1.0)
    c_at_one = np.exp(special.gammaln(n + 2 * lam) - special.gammaln(n + 1) - special.gammaln(2 * lam))
    return math.exp(-1.0) * math.gamma(lam) * 2.0**lam * (n + lam) * special.iv(n + lam, 1.0) * c_at_one


def multiquadric(delta: float, lam: float, x):
    """(1−δ)^{2λ} (1−2δx+δ²)^{−λ}; accepts scalars and arrays."""
    return (1.0 - delta) ** (2.0 * lam) / (1.0 - 2.0 * delta * x + delta * delta) ** lam


def multiquadric_coefficients(delta: float, lam: float, n_max: int) -> np.ndarray:
    """a_n = (1−δ)^{2λ} δ^n C_n^λ(1), by the term ratio δ(n+2λ−1)/n."""
    law = np.empty(n_max + 1)
    law[0] = (1.0 - delta) ** (2.0 * lam)
    for n in range(1, n_max + 1):
        law[n] = law[n - 1] * delta * (n + 2.0 * lam - 1.0) / n
    return law
