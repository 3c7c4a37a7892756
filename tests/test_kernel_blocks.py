"""The three kernel sums over bounded blocks of points: accuracy,
independence of the batch, the block size and BLAS, and the table bound."""

import ast
import inspect
import math
import subprocess
import sys
import textwrap
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cli_env,
    ps_kernel_eval_one_einsum,
    random_charfn,
    random_ps_kernel,
    random_sequence,
    random_st_kernel,
)
from spherecov import (
    GegenbauerBasis,
    eval_sequence,
    kernel_eval,
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
    ps_kernel_eval,
)
from spherecov import gegenbauer, product_spheres, schoenberg, spacetime

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
    @pytest.mark.parametrize(
        "rows, n", [(1, 0), (1, 5), (21, 12), (21, 13), (21, 25), (101, 10**6), (1, 10**6), (21, 10**6), (2000, 10**6)]
    )
    def test_slices_cover_the_points_within_the_budget(self, rows, n):
        slices = list(gegenbauer._blocks(rows, n))
        assert [i for s in slices for i in range(n)[s]] == list(range(n))
        assert all(rows * (s.stop - s.start) * 8 <= gegenbauer._BLOCK_BYTES for s in slices)
        assert all(s.stop - s.start <= gegenbauer._BLOCK_POINTS for s in slices)
        # The fewest: one slice less could not hold all n points.
        step = min(gegenbauer._BLOCK_POINTS, gegenbauer._BLOCK_BYTES // (8 * rows))
        assert (len(slices) - 1) * step < n

    def test_slices_take_fixed_steps_and_stop_at_n(self, monkeypatch):
        # A short last block, even of one point, is allowed: no kernel sum's
        # bits depend on the block length.
        monkeypatch.setattr(gegenbauer, "_BLOCK_BYTES", SMALL_BUDGET)
        for n in range(200):
            want = [slice(start, min(start + 12, n)) for start in range(0, n, 12)]
            assert list(gegenbauer._blocks(21, n)) == want


def _direct_call(kind, rng, size):
    """A kernel of `kind` at degrees where the byte budget alone takes 50 000
    points as one block, its `size`-point arguments, and the (module, name) of
    each function that builds a block's rows from the points, its third argument."""
    s2, s1 = GegenbauerBasis.from_dimension(2), GegenbauerBasis.from_dimension(1)
    x = rng.uniform(-1.0, 1.0, size)
    if kind == "sphere":
        return random_sequence(rng, s2, 20), (x,), [(schoenberg, "eval_sequence")]
    if kind == "sphere_time":
        return random_st_kernel(rng, s2, 30), (x, rng.normal(0.0, 3.0, size)), [(spacetime, "_fill")]
    kernel = random_ps_kernel(rng, s2, s1, 20, 10)
    return kernel, (x, rng.uniform(-1.0, 1.0, size)), [(product_spheres, "_fill"), (product_spheres, "_table")]


@pytest.mark.parametrize("kind", ["sphere", "sphere_time", "product_spheres"])
def test_a_direct_call_takes_blocks_of_at_most_the_block_points(monkeypatch, kind):
    """A direct call of 50 000 points builds its rows in blocks of
    `_BLOCK_POINTS` points and has the bytes of one block and of small ones."""
    size = 50_000
    kernel, args, builders = _direct_call(kind, np.random.default_rng(3), size)
    widths = []

    def recording(build):
        def record(*a, **k):
            widths.append(a[2].size)
            return build(*a, **k)

        return record

    for module, name in builders:
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    values = kernel.values(*args)
    edge = gegenbauer._BLOCK_POINTS
    assert sorted(widths) == sorted(len(builders) * ([edge] * (size // edge) + [size % edge]))
    for name, value in [("_BLOCK_POINTS", size), ("_BLOCK_BYTES", 2**18)]:
        with mock.patch.object(gegenbauer, name, value):
            assert kernel.values(*args).tobytes() == values.tobytes()


def test_a_sphere_time_block_is_sized_for_the_rows_it_holds(monkeypatch):
    """An N = 200 sphere × time sum holds a ring of three rows and a few more,
    not a table of N + 1 rows, so two blocks of `_BLOCK_POINTS` points take a
    call on twice that many; 201 rows within `_BLOCK_BYTES` would take four."""
    rng = np.random.default_rng(5)
    kernel = random_st_kernel(rng, GegenbauerBasis.from_dimension(2), 200)
    size = 2 * gegenbauer._BLOCK_POINTS
    x, t = rng.uniform(-1.0, 1.0, size), rng.normal(0.0, 3.0, size)
    blocks, take = [], gegenbauer._blocks

    def counting(rows, n):
        for block in take(rows, n):
            blocks.append(block)
            yield block

    monkeypatch.setattr(gegenbauer, "_blocks", counting)
    values = kernel.values(x, t)
    assert [(s.start, s.stop) for s in blocks] == [(0, size // 2), (size // 2, size)]
    with mock.patch.object(gegenbauer, "_BLOCK_POINTS", size):
        assert kernel.values(x, t).tobytes() == values.tobytes()
    assert len(blocks) == 3


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
        if np.broadcast(x1, x2).size >= 2:
            want = ps_kernel_eval_one_einsum(kernel, x1, x2)
        else:
            # `einsum` sums a one-point operand in another order; a pair alone
            # must get the bits it has inside a batch.
            others = rng.uniform(-1.0, 1.0, (2, 3))
            batch = ps_kernel_eval_one_einsum(
                kernel, np.append(x1, others[0]), np.append(x2, others[1])
            )
            want = batch[:1].reshape(np.broadcast(x1, x2).shape)
            want = float(want) if want.ndim == 0 else want
        for budget in (gegenbauer._BLOCK_BYTES, SMALL_BUDGET, 8 * 4 * (m_max + n_max + 2)):
            monkeypatch.setattr(gegenbauer, "_BLOCK_BYTES", budget)
            got = ps_kernel_eval(kernel, x1, x2)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        d1=st.sampled_from([1, 2, 3, 4]),
        d2=st.sampled_from([1, 2, 3, 4]),
        m_max=st.integers(5, 30),
        n_max=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ps_kernel_eval_is_bit_equal_to_one_einsum_as_the_ring_wraps(self, d1, d2, m_max, n_max, seed):
        """The ring of three first-factor rows wraps inside the sum of the one
        block of pairs, at λ = 0, ½, 1 and 1.5 on either factor."""
        rng = np.random.default_rng(seed)
        basis1, basis2 = GegenbauerBasis.from_dimension(d1), GegenbauerBasis.from_dimension(d2)
        kernel = random_ps_kernel(rng, basis1, basis2, m_max, n_max)
        x1, x2 = rng.uniform(-1.0, 1.0, (2, 25))
        got = ps_kernel_eval(kernel, x1, x2)
        assert got.tobytes() == ps_kernel_eval_one_einsum(kernel, x1, x2).tobytes()


def _random_kernel(rng, kind):
    """A kernel of `kind` with random dimensions, truncations and weights,
    about a fifth of the weights zero."""

    def weights(shape):
        raw = rng.uniform(0.0, 1.0, shape) * (rng.uniform(size=shape) < 0.8)
        raw.reshape(-1)[0] += 0.1
        return raw * float(rng.uniform(0.1, 10.0))

    basis = GegenbauerBasis.from_dimension(int(rng.integers(1, 4)))
    if kind == "sphere":
        return make_sequence(weights(int(rng.integers(1, 101))), basis, normalize=True)
    if kind == "sphere_time":
        terms = [(a, random_charfn(rng)) for a in weights(int(rng.integers(1, 32)))]
        return make_st_kernel(terms, basis, normalize=True)
    basis2 = GegenbauerBasis.from_dimension(int(rng.integers(1, 4)))
    shape = (int(rng.integers(1, 22)), int(rng.integers(1, 12)))
    return make_ps_kernel(weights(shape), basis, basis2, normalize=True)


@settings(max_examples=90, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "sphere_time", "product_spheres"]),
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(2, 40),
)
def test_a_pair_has_the_same_bits_alone_in_a_batch_and_in_small_blocks(kind, seed, size):
    rng = np.random.default_rng(seed)
    kernel = _random_kernel(rng, kind)
    args = [rng.uniform(-1.0, 1.0, size) for _ in kernel.arguments]
    if kind == "sphere_time":
        args[1] = rng.normal(0.0, 3.0, size)
    batch = kernel.values(*args)
    with mock.patch.object(gegenbauer, "_BLOCK_BYTES", SMALL_BUDGET):
        small = kernel.values(*args)
    alone = np.array([kernel.values(*(float(a[i]) for a in args)) for i in range(size)])
    assert small.tobytes() == batch.tobytes()
    assert alone.tobytes() == batch.tobytes()


# The kernel series are summed term by term, never by BLAS or `einsum`.
BLAS_CALLS = {"einsum", "tensordot", "dot", "matmul", "inner"}
KERNEL_SUMS = [
    (schoenberg, "kernel_eval"),
    (spacetime, "st_kernel_eval"),
    (product_spheres, "ps_kernel_eval"),
    (gegenbauer, "_block_sum"),
]


def _blas_sites(source):
    """Line numbers of BLAS-style calls and `@` products in `source`."""
    sites = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in BLAS_CALLS:
                sites.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append(node.lineno)
    return sorted(sites)


@pytest.mark.parametrize("module, name", KERNEL_SUMS, ids=[name for _, name in KERNEL_SUMS])
def test_kernel_sums_use_no_blas(module, name):
    assert _blas_sites(inspect.getsource(getattr(module, name))) == []


def test_blas_guard_flags_each_form():
    source = """\
        out = np.einsum("mn,m...,n...->...", a, t1, t2)
        out = np.tensordot(a, t, axes=1)
        out = a.dot(t)
        out = matmul(a, t)
        out = np.inner(a, t)
        out = a @ t
        out @= t
        out = a * t
    """
    assert _blas_sites(source) == [1, 2, 3, 4, 5, 6, 7]
    assert _blas_sites(inspect.getsource(ps_kernel_eval_one_einsum)) != []


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
from spherecov import (
    GegenbauerBasis, ProductPointSet, SpaceTimePointSet, gaussian, exponential, gram, kernel_eval,
    make_ps_kernel, make_sequence, make_st_kernel, uniform_sphere_points,
)

rng = np.random.default_rng(11)
s2 = GegenbauerBasis.from_dimension(2)
seq = make_sequence(rng.uniform(0.05, 1.0, 101), s2, normalize=True)
values = kernel_eval(seq, rng.uniform(-1.0, 1.0, 200_003))
entries = gram(seq, uniform_sphere_points(2, 300, 4)).entries
terms = [(a, gaussian(1.0 + n) if n % 2 else exponential(0.5)) for n, a in enumerate(rng.uniform(0.05, 1.0, 31))]
st_points = SpaceTimePointSet(uniform_sphere_points(2, 300, 5), rng.uniform(0.0, 2.0, 300))
st_entries = gram(make_st_kernel(terms, s2, normalize=True), st_points).entries
ps = make_ps_kernel(rng.uniform(0.05, 1.0, (21, 11)), s2, GegenbauerBasis.from_dimension(1), normalize=True)
ps_entries = gram(ps, ProductPointSet(uniform_sphere_points(2, 300, 6), uniform_sphere_points(1, 300, 7))).entries
for array in (values, entries, st_entries, ps_entries):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_values_do_not_depend_on_the_blas_thread_count():
    outputs = []
    for threads in ("1", "2"):
        env = dict(cli_env(), OPENBLAS_NUM_THREADS=threads)
        result = subprocess.run([sys.executable, "-c", _HASHES], capture_output=True, text=True, env=env)
        assert (result.returncode, result.stderr) == (0, "")
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
