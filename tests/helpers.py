"""Shared constructors for randomized kernels and point sets, and the
runner for ``python -m spherecov`` child processes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import spherecov
from spherecov import (
    GegenbauerBasis,
    ProductPointSet,
    ProductSphereKernel,
    SchoenbergSequence,
    SpaceTimeKernel,
    SpaceTimePointSet,
    SpherePointSet,
    eval_sequence,
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
    uniform_sphere_points,
)
from spherecov.spacetime import (
    EXPONENTIAL,
    GAUSSIAN,
    STABLE,
    TRIANGLE_SINC,
    exponential,
    gaussian,
    point_mass_at_zero,
    stable,
    triangle_sinc,
)


def random_sequence(rng, basis, n_max):
    """A unit-variance SchoenbergSequence with strictly positive weights."""
    raw = rng.uniform(0.05, 1.0, n_max + 1)
    return make_sequence(raw / raw.sum(), basis)


def random_charfn(rng):
    pick = rng.integers(0, 5)
    if pick == 0:
        return gaussian(float(rng.uniform(0.2, 2.0)))
    if pick == 1:
        return exponential(float(rng.uniform(0.2, 2.0)))
    if pick == 2:
        return stable(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 2.0)))
    if pick == 3:
        return triangle_sinc(float(rng.uniform(0.2, 3.0)))
    return point_mass_at_zero()


def charfn_eval_branches(spec, t):
    """Reference copy of `charfn_eval` written with one branch per family,
    as it was before the family table, with the `triangle_sinc` overflow
    limit added since; the table must give the same bits."""
    t = np.asarray(t, dtype=float)
    p = spec.param_dict
    if spec.family == GAUSSIAN:
        value = np.exp(-0.5 * (p["sigma"] * t) ** 2)
    elif spec.family == EXPONENTIAL:
        value = np.exp(-p["rate"] * np.abs(t))
    elif spec.family == STABLE:
        value = np.exp(-p["scale"] * np.abs(t) ** p["alpha"])
    elif spec.family == TRIANGLE_SINC:
        # np.sinc(u) = sin(pi u)/(pi u), finite and 1 at u = 0; where width·t
        # overflows, the limit 0.
        u = p["width"] * t
        finite = np.where(np.isinf(u), 0.0, u)
        value = np.where(np.isinf(u), 0.0, np.sinc(finite / np.pi))
    else:
        value = np.ones_like(t)
    return float(value) if value.ndim == 0 else value


def ps_kernel_eval_one_einsum(kernel, x1, x2):
    """Reference copy of `ps_kernel_eval` as it was before point blocks: both
    factor tables over all pairs, contracted in one `einsum`; the block sum
    must give the same bits on two or more pairs."""
    x1_b, x2_b = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    m_max, n_max = kernel.truncations
    t1 = eval_sequence(kernel.basis1, m_max, x1_b)
    t2 = eval_sequence(kernel.basis2, n_max, x2_b)
    value = kernel.scale_c * np.einsum("mn,m...,n...->...", kernel.coeff_matrix, t1, t2)
    return float(value) if np.ndim(value) == 0 else value


def _cosine_matrix(points):
    return np.clip(points @ points.T, -1.0, 1.0)


class SpherePointSetMethods:
    """Reference copy of the protocol members `SpherePointSet` wrote itself
    before the point sets shared one implementation over their factors; the
    shared one must give the same bytes. Instance members take the point set
    first."""

    @staticmethod
    def dimensions(ps):
        return (ps.dimension,)

    @staticmethod
    def n_columns(dimensions):
        return dimensions[0] + 1

    @staticmethod
    def from_columns(dimensions, data):
        return SpherePointSet(dimension=dimensions[0], points=data)

    @staticmethod
    def columns(ps):
        return ps.points

    @staticmethod
    def random(dimensions, n, states):
        return uniform_sphere_points(dimensions[0], n, int(states[0]))

    @staticmethod
    def pair_arguments(ps, pairs):
        return (_cosine_matrix(ps.points)[pairs],)


class SpaceTimePointSetMethods:
    """Reference copy of `SpaceTimePointSet`'s own protocol members, as for
    `SpherePointSetMethods`."""

    @staticmethod
    def dimensions(ps):
        return (ps.space.dimension,)

    @staticmethod
    def n_columns(dimensions):
        return SpherePointSetMethods.n_columns(dimensions) + 1

    @staticmethod
    def from_columns(dimensions, data):
        return SpaceTimePointSet(space=SpherePointSetMethods.from_columns(dimensions, data[:, :-1]), times=data[:, -1])

    @staticmethod
    def columns(ps):
        return np.column_stack([ps.space.points, ps.times])

    @staticmethod
    def random(dimensions, n, states):
        space = SpherePointSetMethods.random(dimensions, n, states)
        return SpaceTimePointSet(space=space, times=np.random.default_rng(int(states[1])).uniform(0.0, 1.0, n))

    @staticmethod
    def pair_arguments(ps, pairs):
        lag = ps.times[:, None] - ps.times[None, :]
        return (_cosine_matrix(ps.space.points)[pairs], lag[pairs])


class ProductPointSetMethods:
    """Reference copy of `ProductPointSet`'s own protocol members, as for
    `SpherePointSetMethods`."""

    @staticmethod
    def dimensions(ps):
        return (ps.first.dimension, ps.second.dimension)

    @staticmethod
    def n_columns(dimensions):
        d1, d2 = dimensions
        return d1 + d2 + 2

    @staticmethod
    def from_columns(dimensions, data):
        d1, d2 = dimensions
        return ProductPointSet(
            first=SpherePointSet(dimension=d1, points=data[:, : d1 + 1]),
            second=SpherePointSet(dimension=d2, points=data[:, d1 + 1 :]),
        )

    @staticmethod
    def columns(ps):
        return np.hstack([ps.first.points, ps.second.points])

    @staticmethod
    def random(dimensions, n, states):
        d1, d2 = dimensions
        return ProductPointSet(
            first=uniform_sphere_points(d1, n, int(states[0])),
            second=uniform_sphere_points(d2, n, int(states[1])),
        )

    @staticmethod
    def pair_arguments(ps, pairs):
        return (_cosine_matrix(ps.first.points)[pairs], _cosine_matrix(ps.second.points)[pairs])


REFERENCE_POINT_SET_METHODS = {
    SpherePointSet: SpherePointSetMethods,
    SpaceTimePointSet: SpaceTimePointSetMethods,
    ProductPointSet: ProductPointSetMethods,
}


class SchoenbergSequenceMembers:
    """Reference copy of the protocol members `SchoenbergSequence` wrote itself
    before the kernel classes shared one implementation; the shared one must
    give the same values and label bytes. Each takes the kernel."""

    @staticmethod
    def truncation(k):
        return k.coeffs.size - 1

    @staticmethod
    def dimensions(k):
        return (k.basis.dimension,)

    @staticmethod
    def label(k):
        return f"sphere(d={k.basis.dimension}, n_max={SchoenbergSequenceMembers.truncation(k)})"


class SpaceTimeKernelMembers:
    """Reference copy of `SpaceTimeKernel`'s own protocol members, as for
    `SchoenbergSequenceMembers`."""

    @staticmethod
    def truncation(k):
        return k.weights.size - 1

    @staticmethod
    def dimensions(k):
        return (k.basis.dimension,)

    @staticmethod
    def label(k):
        return f"sphere_time(d={k.basis.dimension}, n_max={SpaceTimeKernelMembers.truncation(k)})"


class ProductSphereKernelMembers:
    """Reference copy of `ProductSphereKernel`'s own protocol members, as for
    `SchoenbergSequenceMembers`."""

    @staticmethod
    def truncations(k):
        return (k.coeff_matrix.shape[0] - 1, k.coeff_matrix.shape[1] - 1)

    @staticmethod
    def dimensions(k):
        return (k.basis1.dimension, k.basis2.dimension)

    @staticmethod
    def label(k):
        m_max, n_max = ProductSphereKernelMembers.truncations(k)
        return (
            f"product_spheres(d1={k.basis1.dimension}, d2={k.basis2.dimension}, "
            f"m_max={m_max}, n_max={n_max})"
        )


REFERENCE_KERNEL_MEMBERS = {
    SchoenbergSequence: SchoenbergSequenceMembers,
    SpaceTimeKernel: SpaceTimeKernelMembers,
    ProductSphereKernel: ProductSphereKernelMembers,
}


def random_st_kernel(rng, basis, n_max):
    raw = rng.uniform(0.05, 1.0, n_max + 1)
    weights = raw / raw.sum()
    return make_st_kernel([(w, random_charfn(rng)) for w in weights], basis)


def random_ps_kernel(rng, basis1, basis2, m_max, n_max):
    raw = rng.uniform(0.05, 1.0, (m_max + 1, n_max + 1))
    return make_ps_kernel(raw / raw.sum(), basis1, basis2)


def random_rank_one_matrix(rng, m_max, n_max):
    b = rng.uniform(0.05, 1.0, m_max + 1)
    c = rng.uniform(0.05, 1.0, n_max + 1)
    matrix = np.outer(b, c)
    return matrix / matrix.sum()


def random_higher_rank_matrix(rng, m_max, n_max):
    """A matrix with a 2x2 minor bounded away from zero after normalization."""
    matrix = random_rank_one_matrix(rng, m_max, n_max)
    i, j = rng.integers(0, m_max), rng.integers(0, n_max)
    matrix[i, j] += matrix.max() * float(rng.uniform(0.5, 1.0))
    return matrix / matrix.sum()


def basis_for_dimension(d):
    return GegenbauerBasis.from_dimension(d)


def cli_env():
    """Environment for a ``python -m spherecov`` child process.

    ``PYTHONPATH`` starts with the absolute directory that holds the imported
    package, so the child runs the same ``spherecov`` from any working
    directory. ``SPHERECOV_SEED`` is dropped, so the documented default seed
    applies whatever the calling shell exports.
    """
    env = {k: v for k, v in os.environ.items() if k != "SPHERECOV_SEED"}
    rest = env.get("PYTHONPATH")
    src = str(Path(spherecov.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def run_cli(args, cwd):
    """Run ``python -m spherecov *args`` in ``cwd`` with :func:`cli_env`."""
    return subprocess.run(
        [sys.executable, "-m", "spherecov", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=cli_env(),
    )
