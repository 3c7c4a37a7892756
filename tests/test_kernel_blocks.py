"""Sphere and product kernel sums over bounded blocks of points: accuracy,
independence of the block size and of BLAS, and the table bound."""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cli_env, ps_kernel_eval_one_einsum, random_ps_kernel, random_sequence
from spherecov import GegenbauerBasis, eval_sequence, kernel_eval, make_sequence, ps_kernel_eval
from spherecov import gegenbauer, schoenberg

EPS = np.finfo(float).eps
SMALL_BUDGET = 2048  # bytes: a 21-row table then holds 12 points per block


def _record_tables(monkeypatch, module):
    """Wrap `module.eval_sequence` so each call appends its table's byte size."""
    sizes = []

    def recording(basis, n_max, x):
        table = eval_sequence(basis, n_max, x)
        sizes.append(table.nbytes)
        return table

    monkeypatch.setattr(module, "eval_sequence", recording)
    return sizes


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    n_max=st.integers(0, 400),
    seed=st.integers(0, 2**32 - 1),
    points=st.lists(st.floats(-1.0, 1.0), max_size=40),
)
def test_kernel_eval_matches_exact_degree_sum(d, n_max, seed, points):
    """Against c·fsum(a_n P̃_n) over the same table, the error is at most that
    of recursive summation, (N + 2)·eps·c·Σ|a_n P̃_n|."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 1.0, n_max + 1) * (rng.uniform(size=n_max + 1) < 0.8)
    raw[0] += 0.1
    seq = make_sequence(raw * float(rng.uniform(0.1, 10.0)), GegenbauerBasis.from_dimension(d), normalize=True)
    x = np.array([-1.0, 0.0, 1.0, *points])
    table = eval_sequence(seq.basis, n_max, x)
    got = kernel_eval(seq, x)
    for i in range(x.size):
        terms = [float(a) * float(p) for a, p in zip(seq.coeffs, table[:, i])]
        exact = seq.scale_c * math.fsum(terms)
        bound = (n_max + 2) * EPS * seq.scale_c * math.fsum(abs(t) for t in terms)
        assert abs(got[i] - exact) <= bound


class TestBlocks:
    @pytest.mark.parametrize("rows, n", [(1, 0), (1, 5), (21, 12), (21, 13), (21, 25), (101, 10**6)])
    def test_slices_cover_the_points_within_the_budget(self, rows, n):
        slices = list(gegenbauer._blocks(rows, n))
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(rows * (s.stop - s.start) * 8 <= gegenbauer._BLOCK_BYTES for s in slices)
        # The fewest: one slice less could not hold all n points.
        assert (len(slices) - 1) * (gegenbauer._BLOCK_BYTES // (8 * rows)) < n

    def test_no_single_point_block(self, monkeypatch):
        monkeypatch.setattr(gegenbauer, "_BLOCK_BYTES", SMALL_BUDGET)
        for n in range(2, 200):
            assert min(s.stop - s.start for s in gegenbauer._blocks(21, n)) >= 2


class TestManyBlocks:
    """With a budget of a few KiB, small inputs span many blocks and must
    give the bits of one block."""

    SHAPES = [(), (1,), (2,), (12,), (13,), (25,), (1000,), (31, 17)]

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kernel_eval_is_bit_equal_to_one_block(self, monkeypatch, shape, d):
        rng = np.random.default_rng(d)
        seq = random_sequence(rng, GegenbauerBasis.from_dimension(d), 20)
        x = rng.uniform(-1.0, 1.0, shape)
        one_block = kernel_eval(seq, x)
        monkeypatch.setattr(gegenbauer, "_BLOCK_BYTES", SMALL_BUDGET)
        sizes = _record_tables(monkeypatch, schoenberg)
        many = kernel_eval(seq, x)
        assert type(many) is type(one_block)
        assert np.shape(many) == shape
        assert np.asarray(many).tobytes() == np.asarray(one_block).tobytes()
        assert len(sizes) == -(-x.size // 12)
        assert max(sizes) <= SMALL_BUDGET

    @pytest.mark.parametrize(
        "shape1, shape2", [((), ()), ((1,), ()), ((2,), (2,)), ((40,), ()), ((1000,), (1000,)), ((23, 1), (1, 19))]
    )
    @pytest.mark.parametrize("m_max, n_max", [(0, 5), (1, 1), (1, 9), (4, 0), (7, 12)])
    def test_ps_kernel_eval_is_bit_equal_to_one_einsum(self, monkeypatch, shape1, shape2, m_max, n_max):
        rng = np.random.default_rng(m_max * 31 + n_max)
        basis1, basis2 = (GegenbauerBasis.from_dimension(int(d)) for d in rng.integers(1, 4, 2))
        kernel = random_ps_kernel(rng, basis1, basis2, m_max, n_max)
        x1, x2 = rng.uniform(-1.0, 1.0, shape1), rng.uniform(-1.0, 1.0, shape2)
        want = ps_kernel_eval_one_einsum(kernel, x1, x2)
        for budget in (gegenbauer._BLOCK_BYTES, SMALL_BUDGET, 8 * 4 * (m_max + n_max + 2)):
            monkeypatch.setattr(gegenbauer, "_BLOCK_BYTES", budget)
            got = ps_kernel_eval(kernel, x1, x2)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_table_stays_within_the_budget_for_a_million_points(monkeypatch):
    rng = np.random.default_rng(5)
    seq = random_sequence(rng, GegenbauerBasis.from_dimension(2), 100)
    x = rng.uniform(-1.0, 1.0, 10**6)
    sizes = _record_tables(monkeypatch, schoenberg)
    tracemalloc.start()
    try:
        values = kernel_eval(seq, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sizes) > 1
    assert max(sizes) <= gegenbauer._BLOCK_BYTES
    assert peak < 3 * values.nbytes + 2 * gegenbauer._BLOCK_BYTES


_HASHES = """
import hashlib
import numpy as np
from spherecov import GegenbauerBasis, gram, kernel_eval, make_sequence, uniform_sphere_points

rng = np.random.default_rng(11)
seq = make_sequence(rng.uniform(0.05, 1.0, 101), GegenbauerBasis.from_dimension(2), normalize=True)
values = kernel_eval(seq, rng.uniform(-1.0, 1.0, 200_003))
entries = gram(seq, uniform_sphere_points(2, 300, 4)).entries
print(hashlib.sha256(values.tobytes()).hexdigest(), hashlib.sha256(entries.tobytes()).hexdigest())
"""


def test_values_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(cli_env(), OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", _HASHES], capture_output=True, text=True, env=env)
        assert (result.returncode, result.stderr) == (0, "")
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
