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
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
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
    as it was before the family table; the table must give the same bits."""
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
