"""Command-line contract: golden outputs, exit codes, error shape, atomicity."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.interpolate import PchipInterpolator

from helpers import cli_env, run_cli
from spherecov import GegenbauerBasis, cli, gegenbauer, multiquadric_kernel, multiquadric_sequence
from spherecov.cli import main
from spherecov.kernelspec import read_kernel_file

LEGENDRE = GegenbauerBasis.from_index(0.5)

SPHERE_CONST = {"kind": "sphere", "d": 2, "coeffs": [1.0]}
SPHERE_DEGREE_ONE = {"kind": "sphere", "d": 2, "coeffs": [0.0, 1.0]}
ST_GAUSS = {
    "kind": "sphere_time",
    "d": 2,
    "terms": [{"a": 1.0, "charfn": {"family": "gaussian", "params": {"sigma": 1.0}}}],
}
ST_TWO_GAUSS = {
    "kind": "sphere_time",
    "d": 2,
    "terms": [
        {"a": 0.5, "charfn": {"family": "gaussian", "params": {"sigma": 2.0}}},
        {"a": 0.5, "charfn": {"family": "gaussian", "params": {"sigma": 2.0}}},
    ],
}
ST_MIXED = {
    "kind": "sphere_time",
    "d": 2,
    "terms": [
        {"a": 0.5, "charfn": {"family": "gaussian", "params": {"sigma": 1.0}}},
        {"a": 0.5, "charfn": {"family": "exponential", "params": {"rate": 1.0}}},
    ],
}
PROD_A11 = {"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[0.0, 0.0], [0.0, 1.0]]}
PROD_OUTER = {
    "kind": "product_spheres",
    "d1": 2,
    "d2": 2,
    "matrix": [[0.1, 0.1], [0.4, 0.4]],
}
PROD_IDENTITY = {"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[0.5, 0.0], [0.0, 0.5]]}


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    """Tests rely on the default seed; a caller's SPHERECOV_SEED must not leak in."""
    monkeypatch.delenv("SPHERECOV_SEED", raising=False)


@pytest.fixture
def spec_file(tmp_path):
    def write(doc, name="kernel.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_coeffs(out):
    pairs = [line.split(",") for line in out.strip().splitlines()]
    assert [int(n) for n, _ in pairs] == list(range(len(pairs)))
    return np.array([float(a) for _, a in pairs])


class TestEval:
    def test_sphere_golden(self, capsys, spec_file):
        code, out, err = run(capsys, "eval", spec_file(SPHERE_CONST), "--x", "0.3")
        assert code == 0 and err == ""
        assert out == "0.3,1.0\n"

    def test_sphere_time_golden(self, capsys, spec_file):
        code, out, _ = run(capsys, "eval", spec_file(ST_GAUSS), "--x", "1", "--t", "1")
        assert code == 0
        assert out == "1,1,0.6065306597126334\n"

    def test_product_golden(self, capsys, spec_file):
        code, out, _ = run(capsys, "eval", spec_file(PROD_A11), "--x1", "0.3", "--x2", "-0.4")
        assert code == 0
        assert out == "0.3,-0.4,-0.12\n"

    def test_grid_covers_domain(self, capsys, spec_file):
        code, out, _ = run(capsys, "eval", spec_file(SPHERE_CONST), "--grid", "5")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert [float(r[0]) for r in rows] == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_grid_sphere_time_has_both_axes(self, capsys, spec_file):
        code, out, _ = run(capsys, "eval", spec_file(ST_GAUSS), "--grid", "3", "--t-max", "2.0")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 9
        assert {float(r[1]) for r in rows} == {0.0, 1.0, 2.0}

    def test_missing_argument_is_validation_error(self, capsys, spec_file):
        code, out, err = run(capsys, "eval", spec_file(SPHERE_CONST))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == 2 and "message" in payload

    def test_wrong_argument_for_kind(self, capsys, spec_file):
        code, _, _ = run(capsys, "eval", spec_file(SPHERE_CONST), "--x", "0.1", "--t", "0.5")
        assert code == 2

    def test_out_of_domain_is_exit_3(self, capsys, spec_file):
        code, _, err = run(capsys, "eval", spec_file(SPHERE_CONST), "--x", "1.5")
        assert code == 3
        assert json.loads(err)["error"] == 3

    def test_bad_spec_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "eval", str(tmp_path / "missing.json"), "--x", "0.0")
        assert code == 2
        assert json.loads(err)["error"] == 2

    def test_grid_rejects_point_flags(self, capsys, spec_file):
        code, _, _ = run(capsys, "eval", spec_file(SPHERE_CONST), "--grid", "5", "--x", "0.3")
        assert code == 2

    @pytest.mark.parametrize(
        "spec, flags",
        [
            (SPHERE_CONST, ["--grid", "3"]),
            (PROD_OUTER, ["--grid", "3"]),
            (ST_GAUSS, ["--x", "0.1", "--t", "0.5"]),
        ],
    )
    def test_t_max_outside_sphere_time_grid_is_rejected(self, capsys, spec_file, spec, flags):
        code, out, err = run(capsys, "eval", spec_file(spec), *flags, "--t-max", "2.0")
        assert (code, out) == (2, "")
        assert "--t-max" in json.loads(err)["message"]


GOLDEN_SPHERE = {"kind": "sphere", "d": 2, "coeffs": [0.2, 0.5, 0.3]}
GOLDEN_ST = {
    "kind": "sphere_time",
    "d": 2,
    "terms": [
        {"a": 0.5, "charfn": {"family": "gaussian", "params": {"sigma": 1.0}}},
        {"a": 0.3, "charfn": {"family": "exponential", "params": {"rate": 2.0}}},
        {"a": 0.2, "charfn": {"family": "triangle_sinc", "params": {"width": 3.0}}},
    ],
}
GOLDEN_PROD = {"kind": "product_spheres", "d1": 2, "d2": 1, "matrix": [[0.1, 0.2], [0.3, 0.4]]}
GOLDEN_SPECS = {"sphere": GOLDEN_SPHERE, "sphere_time": GOLDEN_ST, "product_spheres": GOLDEN_PROD}


class TestEvalGoldenBytes:
    """Exact stdout of ``eval`` for each kind, point and grid."""

    @pytest.mark.parametrize(
        "kind, flags, expected",
        [
            ("sphere", ["--x", "0.3"], "0.3,0.2405\n"),
            ("sphere_time", ["--x", "-0.25", "--t", "0.7"], "-0.25,0.7,0.33945951537758934\n"),
            ("product_spheres", ["--x1", "0.3", "--x2", "-0.4"], "0.3,-0.4,0.061999999999999986\n"),
            ("sphere", ["--grid", "3"], "-1.0,0.0\n0.0,0.05000000000000002\n1.0,1.0\n"),
            (
                "sphere_time",
                ["--grid", "3"],
                "-1.0,0.0,0.4\n-1.0,0.5,0.46388395048807224\n-1.0,1.0,0.2720727454226574\n"
                "0.0,0.0,0.4\n0.0,0.5,0.37474878551869406\n0.0,1.0,0.29856132958765447\n"
                "1.0,0.0,1.0\n1.0,0.5,0.6846116151909376\n1.0,1.0,0.353273915364625\n",
            ),
            (
                "product_spheres",
                ["--grid", "3"],
                "-1.0,-1.0,0.0\n-1.0,0.0,-0.19999999999999998\n-1.0,1.0,-0.39999999999999997\n"
                "0.0,-1.0,-0.1\n0.0,0.0,0.1\n0.0,1.0,0.30000000000000004\n"
                "1.0,-1.0,-0.20000000000000004\n1.0,0.0,0.4\n1.0,1.0,1.0\n",
            ),
        ],
    )
    def test_stdout(self, capsys, spec_file, kind, flags, expected):
        code, out, err = run(capsys, "eval", spec_file(GOLDEN_SPECS[kind]), *flags)
        assert (code, err) == (0, "")
        assert out == expected


class TestCoeffs:
    def test_legendre3_golden(self, capsys):
        code, out, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "6", "--expr", "legendre3")
        assert code == 0 and err == ""
        coeffs = parse_coeffs(out)
        assert abs(coeffs[3] - 1.0) <= 1e-10
        assert np.all(np.abs(np.delete(coeffs, 3)) <= 1e-10)

    def test_xsquared_golden(self, capsys):
        code, out, _ = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "4", "--expr", "xsquared")
        assert code == 0
        coeffs = parse_coeffs(out)
        assert_allclose(coeffs[0], 1.0 / 3.0, rtol=0, atol=1e-12)
        assert_allclose(coeffs[2], 2.0 / 3.0, rtol=0, atol=1e-12)
        assert np.all(np.abs(coeffs[[1, 3, 4]]) <= 1e-12)

    def test_multiquadric_table_golden(self, capsys, tmp_path):
        xs = np.linspace(-1.0, 1.0, 801).tolist()
        table = tmp_path / "table.csv"
        table.write_text(
            "\n".join(f"{x!r},{multiquadric_kernel(0.4, 0.5, x)!r}" for x in xs) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "25", "--table", str(table))
        assert code == 0
        recovered = parse_coeffs(out)
        expected = multiquadric_sequence(0.4, LEGENDRE, 25).coeffs
        assert float(np.abs(recovered - expected).max()) <= 1e-6

    def test_tail_warning_on_short_truncation(self, capsys):
        code, out, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "5", "--expr", "legendre3")
        assert code == 0
        assert parse_coeffs(out).size == 6
        assert err.startswith("warning:")

    def test_unknown_expression(self, capsys):
        code, _, err = run(capsys, "coeffs", "--lambda", "0.5", "--expr", "mystery")
        assert code == 2
        assert "mystery" in json.loads(err)["message"]

    def test_table_and_expr_conflict(self, capsys, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("0,1\n", encoding="utf-8")
        code, _, _ = run(capsys, "coeffs", "--lambda", "0.5", "--expr", "x", "--table", str(table))
        assert code == 2

    def test_malformed_table(self, capsys, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("0.0,1.0\n0.5\n", encoding="utf-8")
        code, _, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "1", "--table", str(table))
        assert code == 2
        assert json.loads(err)["error"] == 2

    def test_table_too_small(self, capsys, tmp_path):
        table = tmp_path / "small.csv"
        table.write_text("0.0,1.0\n0.5,1.0\n", encoding="utf-8")
        code, _, _ = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "10", "--table", str(table))
        assert code == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.0,1.0\n0.5\n", "{path}:2: expected two comma-separated columns, got 1"),
            ("# x,g\n\n0.0,abc\n", "{path}:3: non-numeric entry"),
            ("0.0,nan\n", "{path}:1: non-finite entry"),
            ("1.5,1.0\n", "{path}:1: x must lie in [-1, 1], got 1.5"),
        ],
    )
    def test_table_row_messages(self, capsys, tmp_path, text, message):
        table = tmp_path / "t.csv"
        table.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "1", "--table", str(table))
        assert code == 2
        assert json.loads(err)["message"] == message.format(path=table)

    def test_duplicate_x_is_exit_2(self, capsys, tmp_path):
        table = tmp_path / "dup.csv"
        table.write_text("-1.0,0.5\n0.25,1.0\n1.0,2.0\n0.25,1.5\n", encoding="utf-8")
        code, out, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "1", "--table", str(table))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": 2, "message": "table has duplicate x values"}

    def test_missing_table_message(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code, _, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "1", "--table", str(missing))
        assert code == 2
        assert json.loads(err)["message"].startswith(f"cannot read table {missing}: ")

    def test_table_coverage_check(self, capsys, tmp_path):
        xs = np.linspace(-0.5, 0.5, 200).tolist()
        table = tmp_path / "narrow.csv"
        table.write_text("\n".join(f"{x!r},1.0" for x in xs) + "\n", encoding="utf-8")
        code, _, _ = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "10", "--table", str(table))
        assert code == 2

    def test_table_coverage_message_shows_floats(self, capsys, tmp_path):
        table = tmp_path / "narrow.csv"
        table.write_text("".join(f"{x!r},1.0\n" for x in np.linspace(-0.5, 0.6, 200).tolist()), encoding="utf-8")
        code, out, err = run(capsys, "certify", "--lambda", "0.5", "--table", str(table))
        assert (code, out) == (2, "")
        message = "table spans [-0.5, 0.6] but must cover [-1.0, 1.0]"
        assert err == json.dumps({"error": 2, "message": message}) + "\n"


def _table(n, kind, rng):
    """x knots on [-1, 1] and y values of one `kind` of table."""
    xs = np.sort(rng.uniform(-1.0, 1.0, n))
    ys = {
        "random": rng.normal(size=n),
        "increasing": np.cumsum(rng.exponential(size=n)),
        "decreasing": -np.cumsum(rng.exponential(size=n)) * 1e4,
        "flat runs": np.round(rng.normal(size=n)),  # equal neighbours: zero slopes
        "zigzag": np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * rng.uniform(0.5, 2.0, n),
    }[kind]
    return xs, ys


class TestPchip:
    """`cli._pchip` gives the values of scipy's `PchipInterpolator(...,
    extrapolate=False)`, which the CLI used before, within 1e-14 relative."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40),
        kind=st.sampled_from(["random", "increasing", "decreasing", "flat runs", "zigzag"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=2, kind="random", seed=0)
    @example(n=3, kind="zigzag", seed=1)
    @example(n=3, kind="flat runs", seed=2)
    def test_matches_scipy(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        xs, ys = _table(n, kind, rng)
        if np.any(np.diff(xs) == 0):
            return
        # Random points, out-of-range points on both sides, and the knots themselves.
        at = np.concatenate((rng.uniform(-1.5, 1.5, 64), [-2.0, 2.0, np.nan], xs))
        ours = cli._pchip(xs, ys, "t.csv")(at)
        theirs = PchipInterpolator(xs, ys, extrapolate=False)(at)
        assert np.array_equal(np.isnan(ours), np.isnan(theirs))
        assert np.all(np.isnan(ours[(at < xs[0]) | (at > xs[-1]) | np.isnan(at)]))
        inside = ~np.isnan(theirs)
        assert_allclose(ours[inside], theirs[inside], rtol=1e-14, atol=0)
        # The table's own values at its knots (the last one through its cubic).
        assert_allclose(ours[-n:], ys, rtol=1e-14, atol=1e-15 * np.abs(ys).max())

    def test_scalar_point(self):
        xs, ys = np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
        assert float(cli._pchip(xs, ys, "t.csv")(0.5)) == float(PchipInterpolator(xs, ys, extrapolate=False)(0.5))

    def test_single_row_table_is_exit_2(self, capsys, tmp_path):
        table = tmp_path / "one.csv"
        table.write_text("0,1\n", encoding="utf-8")
        code, out, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "0", "--quad-order", "1", "--table", str(table))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": 2, "message": "table needs at least 2 and 2*n_max = 0 nodes, got 1"}


class TestCertify:
    def test_x_is_pd(self, capsys):
        code, out, _ = run(capsys, "certify", "--lambda", "0.5", "--nmax", "10", "--expr", "x")
        assert code == 0
        assert json.loads(out)["verdict"] == "PD"

    def test_negx_witness(self, capsys):
        code, out, _ = run(capsys, "certify", "--lambda", "0.5", "--nmax", "10", "--expr", "negx")
        assert code == 4
        cert = json.loads(out)
        assert cert["verdict"] == "NotPD"
        assert cert["witness"]["kind"] == "coefficient"
        assert cert["witness"]["index"] == 1

    def test_xsquared_is_pd(self, capsys):
        code, out, _ = run(capsys, "certify", "--lambda", "0.5", "--nmax", "10", "--expr", "xsquared")
        assert code == 0
        assert json.loads(out)["verdict"] == "PD"

    def test_inconclusive_exit_code(self, capsys, tmp_path):
        xs = np.linspace(-1.0, 1.0, 2001).tolist()
        table = tmp_path / "mq.csv"
        table.write_text(
            "\n".join(f"{x!r},{multiquadric_kernel(0.8, 0.5, x)!r}" for x in xs) + "\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "certify", "--lambda", "0.5", "--nmax", "10", "--table", str(table))
        assert code == 5
        assert json.loads(out)["verdict"] == "Inconclusive"

    def test_negative_gram_trials_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "certify", "--lambda", "0.5", "--nmax", "10", "--expr", "x", "--gram-trials", "-3"
        )
        assert code == 3
        assert out == ""
        assert json.loads(err)["error"] == 3

    @pytest.mark.parametrize("expr, path", [("xsquared", "vectorized"), ("expcos", "pointwise")])
    def test_certificate_records_how_it_was_made(self, capsys, expr, path):
        code, out, _ = run(capsys, "certify", "--lambda", "0.5", "--nmax", "30", "--expr", expr)
        assert code == 0
        cert = json.loads(out)
        assert cert["quad_order"] == 64
        assert cert["evaluations"] == 64 + 5 * 25 * 26 // 2
        assert cert["callback_path"] == path

    @pytest.mark.parametrize(
        "nmax, message",
        [("-1", "degree must be >= 0, got -1"), ("20000", "degree 20000 exceeds the supported cap 10000")],
    )
    def test_table_checks_nmax_before_it_is_read(self, capsys, tmp_path, nmax, message):
        table = tmp_path / "one.csv"  # one row: were it read first, the exit would be 2
        table.write_text("0.0,1.0\n", encoding="utf-8")
        results = [
            run(capsys, "certify", "--lambda", "0.5", "--nmax", nmax, *source)
            for source in (["--table", str(table)], ["--expr", "x"])
        ]
        assert results[0] == results[1]
        code, out, err = results[0]
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": 3, "message": message}

    def test_certificate_key_order(self, capsys):
        code, out, _ = run(capsys, "certify", "--lambda", "0.5", "--nmax", "10", "--expr", "x")
        assert code == 0
        assert list(json.loads(out)) == [
            "verdict", "coefficients", "min_coefficient", "min_coefficient_index", "tail_mass",
            "coeff_tol", "eig_tol", "gram_trials", "gram_points", "min_gram_eigenvalue", "witness",
            "seed", "quad_order", "evaluations", "callback_path",
        ]


class TestSeparable:
    def test_outer_product_matrix(self, capsys, spec_file):
        code, out, _ = run(capsys, "separable", spec_file(PROD_OUTER))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["separable"] is True
        b = np.asarray(verdict["row_factors"])
        c = np.asarray(verdict["col_factors"])
        assert_allclose(np.outer(b, c), np.asarray(PROD_OUTER["matrix"]), rtol=0, atol=1e-12)

    def test_identity_matrix(self, capsys, spec_file):
        code, out, _ = run(capsys, "separable", spec_file(PROD_IDENTITY))
        assert code == 0
        verdict = json.loads(out)
        assert verdict["separable"] is False
        assert verdict["minor"] == [0, 0, 1, 1]
        assert_allclose(verdict["value"], 0.25, rtol=1e-12)

    def test_all_equal_charfns(self, capsys, spec_file):
        code, out, _ = run(capsys, "separable", spec_file(ST_TWO_GAUSS))
        assert code == 0
        assert json.loads(out) == {"separable": True}

    def test_mixed_charfns(self, capsys, spec_file):
        code, out, _ = run(capsys, "separable", spec_file(ST_MIXED))
        assert code == 0
        assert json.loads(out) == {"separable": False}

    def test_sphere_kind_rejected(self, capsys, spec_file):
        code, _, err = run(capsys, "separable", spec_file(SPHERE_CONST))
        assert code == 2
        assert json.loads(err) == {
            "error": 2,
            "message": "separability applies to sphere_time and product_spheres specs",
        }

    @pytest.mark.parametrize(
        "spec, expected",
        [
            (
                PROD_OUTER,
                '{\n  "separable": true,\n  "row_factors": [\n    0.1,\n    0.4\n  ],\n'
                '  "col_factors": [\n    1.0,\n    1.0\n  ]\n}\n',
            ),
            (
                PROD_IDENTITY,
                '{\n  "separable": false,\n  "minor": [\n    0,\n    0,\n    1,\n    1\n  ],\n'
                '  "value": 0.25\n}\n',
            ),
            (ST_TWO_GAUSS, '{\n  "separable": true\n}\n'),
            (ST_MIXED, '{\n  "separable": false\n}\n'),
        ],
        ids=["rank_one", "identity", "st_separable", "st_mixed"],
    )
    def test_stdout_bytes(self, capsys, spec_file, spec, expected):
        code, out, err = run(capsys, "separable", spec_file(spec))
        assert (code, out, err) == (0, expected, "")


class TestSimulate:
    def _points_file(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("1,0,0\n0,1,0\n0,0,1\n", encoding="utf-8")
        return str(path)

    @staticmethod
    def _data_rows(text):
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert lines[0].startswith("sample,")
        return np.array([[float(v) for v in l.split(",")[1:]] for l in lines[1:]])

    def test_constant_kernel_rows_constant(self, capsys, spec_file, tmp_path):
        code, out, _ = run(
            capsys,
            "simulate",
            spec_file(SPHERE_CONST),
            "--points", self._points_file(tmp_path),
            "--samples", "2",
            "--seed", "7",
            "--jitter", "0",
        )
        assert code == 0
        rows = self._data_rows(out)
        assert rows.shape == (2, 3)
        assert float((rows.max(axis=1) - rows.min(axis=1)).max()) <= 1e-12

    def test_byte_identical_reruns(self, capsys, spec_file, tmp_path):
        spec = spec_file(SPHERE_DEGREE_ONE)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "simulate", spec, "--random", "4", "--samples", "3",
                "--seed", "11", "--out", out,
            )
            assert code == 0
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_degree_one_monte_carlo(self, capsys, spec_file, tmp_path):
        points = tmp_path / "two.csv"
        points.write_text(f"0,0,1\n{math.sqrt(3.0) / 2.0!r},0,0.5\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "simulate",
            spec_file(SPHERE_DEGREE_ONE),
            "--points", str(points),
            "--samples", "10000",
            "--seed", "13",
        )
        assert code == 0
        rows = self._data_rows(out)
        cov = float(np.cov(rows, rowvar=False, ddof=1)[0, 1])
        assert abs(cov - 0.5) <= 0.04

    def test_spectral_matches_tolerance(self, capsys, spec_file, tmp_path):
        points = tmp_path / "two.csv"
        points.write_text(f"0,0,1\n{math.sqrt(3.0) / 2.0!r},0,0.5\n", encoding="utf-8")
        code, out, _ = run(
            capsys,
            "simulate",
            spec_file(SPHERE_DEGREE_ONE),
            "--points", str(points),
            "--samples", "10000",
            "--seed", "17",
            "--method", "spectral",
        )
        assert code == 0
        rows = self._data_rows(out)
        cov = float(np.cov(rows, rowvar=False, ddof=1)[0, 1])
        assert abs(cov - 0.5) <= 0.04

    def test_spectral_wrong_kind_is_exit_3(self, capsys, spec_file, tmp_path):
        code, _, err = run(
            capsys, "simulate", spec_file(ST_GAUSS), "--random", "3",
            "--seed", "0", "--method", "spectral",
        )
        assert code == 3
        assert json.loads(err)["error"] == 3

    def test_spectral_wrong_dimension_is_exit_3(self, capsys, spec_file):
        spec = spec_file({"kind": "sphere", "d": 3, "coeffs": [1.0]})
        code, _, _ = run(capsys, "simulate", spec, "--random", "3", "--seed", "0", "--method", "spectral")
        assert code == 3

    def test_no_partial_file_on_failure(self, capsys, spec_file, tmp_path):
        bad = tmp_path / "bad_points.csv"
        bad.write_text("2,0,0\n0,1,0\n", encoding="utf-8")
        out = tmp_path / "field.csv"
        code, _, _ = run(
            capsys, "simulate", spec_file(SPHERE_CONST), "--points", str(bad),
            "--seed", "0", "--out", str(out),
        )
        assert code == 3
        assert not out.exists()
        assert list(tmp_path.glob(".spherecov-*")) == []

    @staticmethod
    def _write_error(err, out):
        """The message of the one JSON line on stderr, which names the --out path."""
        line, rest = err.split("\n", 1)
        assert rest == ""
        error = json.loads(line)
        assert error["error"] == 2 and error["message"].startswith(f"cannot write {out}: ")
        return error["message"]

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_out_is_exit_2(self, capsys, spec_file, tmp_path, target):
        spec = spec_file(SPHERE_CONST)
        out = tmp_path / "missing" / "field.csv" if target == "missing-directory" else tmp_path / "field.csv"
        if target == "directory":
            out.mkdir()
        code, stdout, err = run(capsys, "simulate", spec, "--random", "3", "--seed", "0", "--out", str(out))
        assert (code, stdout) == (2, "")
        self._write_error(err, out)
        assert out.is_dir() == (target == "directory")
        assert not (tmp_path / "missing").exists()
        assert list(tmp_path.rglob(".spherecov-*")) == []

    def test_failed_rename_keeps_the_old_file(self, capsys, spec_file, tmp_path, monkeypatch):
        out = tmp_path / "field.csv"
        out.write_text("old contents\n", encoding="utf-8")

        def fail(src, dst):
            assert Path(src).name.startswith(".spherecov-") and Path(src).exists()
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.os, "replace", fail)
        code, stdout, err = run(
            capsys, "simulate", spec_file(SPHERE_CONST), "--random", "3", "--seed", "0", "--out", str(out)
        )
        assert (code, stdout) == (2, "")
        assert self._write_error(err, out) == f"cannot write {out}: [Errno 28] No space left on device"
        assert out.read_text(encoding="utf-8") == "old contents\n"
        assert list(tmp_path.glob(".spherecov-*")) == []

    def test_points_file_of_comments_only_is_exit_2(self, capsys, spec_file, tmp_path):
        points = tmp_path / "comments.csv"
        points.write_text("# x,y,z\n\n# no points\n", encoding="utf-8")
        code, stdout, err = run(capsys, "simulate", spec_file(SPHERE_CONST), "--points", str(points))
        assert (code, stdout) == (2, "")
        assert json.loads(err) == {"error": 2, "message": f"points file {points} is empty"}

    def test_wrong_column_count(self, capsys, spec_file, tmp_path):
        bad = tmp_path / "narrow.csv"
        bad.write_text("1,0\n0,1\n", encoding="utf-8")
        code, _, _ = run(capsys, "simulate", spec_file(SPHERE_CONST), "--points", str(bad), "--seed", "0")
        assert code == 2

    def test_points_file_messages(self, capsys, spec_file, tmp_path):
        spec = spec_file(SPHERE_CONST)
        bad = tmp_path / "bad.csv"
        bad.write_text("# x,y,z\n1,0,0\n\n0,one,0\n", encoding="utf-8")
        code, _, err = run(capsys, "simulate", spec, "--points", str(bad))
        assert (code, json.loads(err)["message"]) == (2, f"{bad}:4: non-numeric entry")
        missing = tmp_path / "missing.csv"
        code, _, err = run(capsys, "simulate", spec, "--points", str(missing))
        assert code == 2
        assert json.loads(err)["message"].startswith(f"cannot read points file {missing}: ")

    @pytest.mark.parametrize("method", ["factorized", "spectral"])
    def test_non_finite_point_is_exit_3(self, capsys, spec_file, tmp_path, method):
        points = tmp_path / "nan.csv"
        points.write_text("1,0,0\nnan,0,0\n", encoding="utf-8")
        code, out, err = run(
            capsys, "simulate", spec_file(SPHERE_DEGREE_ONE), "--points", str(points), "--method", method
        )
        assert (code, out) == (3, "")
        assert "finite" in json.loads(err)["message"]

    def test_spectral_rejects_jitter(self, capsys, spec_file):
        code, out, err = run(
            capsys, "simulate", spec_file(SPHERE_DEGREE_ONE), "--random", "3",
            "--method", "spectral", "--jitter", "1000",
        )
        assert (code, out) == (2, "")
        assert "--jitter" in json.loads(err)["message"]

    def test_ragged_points_file(self, capsys, spec_file, tmp_path):
        bad = tmp_path / "ragged.csv"
        bad.write_text("1,0,0\n0,1\n", encoding="utf-8")
        code, _, _ = run(capsys, "simulate", spec_file(SPHERE_CONST), "--points", str(bad), "--seed", "0")
        assert code == 2

    def test_spacetime_points_include_time_column(self, capsys, spec_file, tmp_path):
        points = tmp_path / "st.csv"
        points.write_text("1,0,0,0.0\n0,1,0,0.5\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "simulate", spec_file(ST_GAUSS), "--points", str(points),
            "--samples", "2", "--seed", "3",
        )
        assert code == 0
        assert self._data_rows(out).shape == (2, 2)

    def test_env_seed_matches_flag(self, capsys, spec_file, monkeypatch):
        spec = spec_file(SPHERE_DEGREE_ONE)
        monkeypatch.setenv("SPHERECOV_SEED", "23")
        code, out_env, _ = run(capsys, "simulate", spec, "--random", "3", "--samples", "2")
        assert code == 0
        monkeypatch.delenv("SPHERECOV_SEED")
        code, out_flag, _ = run(capsys, "simulate", spec, "--random", "3", "--samples", "2", "--seed", "23")
        assert code == 0
        assert out_env == out_flag

    def test_bad_env_seed(self, capsys, spec_file, monkeypatch):
        monkeypatch.setenv("SPHERECOV_SEED", "lucky")
        code, _, _ = run(capsys, "simulate", spec_file(SPHERE_CONST), "--random", "2")
        assert code == 2


class TestSeeds:
    """`--seed` and SPHERECOV_SEED take a nonnegative integer; anything else
    exits 2 with the JSON error line before any work is done."""

    COMMANDS = {
        "certify": ["certify", "--lambda", "0.5", "--nmax", "4", "--expr", "xsquared"],
        "simulate": ["simulate", "{spec}", "--random", "3"],
    }

    @pytest.mark.parametrize("value", ["-1", "1.5", "seven", ""])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_flag_is_exit_2(self, capsys, spec_file, command, value):
        argv = [a.format(spec=spec_file(SPHERE_CONST)) for a in self.COMMANDS[command]]
        code, out, err = run(capsys, *argv, f"--seed={value}")
        assert (code, out) == (2, "")
        message = json.loads(err)["message"]
        assert message.startswith("argument --seed: ") and repr(value) in message

    @pytest.mark.parametrize("value", ["-5", "2.0"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_bad_env_seed_is_exit_2(self, capsys, spec_file, monkeypatch, command, value):
        monkeypatch.setenv("SPHERECOV_SEED", value)
        argv = [a.format(spec=spec_file(SPHERE_CONST)) for a in self.COMMANDS[command]]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": 2,
            "message": f"SPHERECOV_SEED must be a nonnegative integer, got {value!r}",
        }


class TestSeedCap:
    """`--seed` and SPHERECOV_SEED take seeds up to 2**128 - 1, the library's
    MAX_SEED; one more exits 2 with the JSON error line."""

    COMMANDS = TestSeeds.COMMANDS
    CAP = 2**128 - 1

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_flag_cap_runs_and_one_more_is_exit_2(self, capsys, spec_file, command):
        argv = [a.format(spec=spec_file(SPHERE_CONST)) for a in self.COMMANDS[command]]
        assert run(capsys, *argv, f"--seed={self.CAP}")[0] == 0
        code, out, err = run(capsys, *argv, f"--seed={self.CAP + 1}")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": 2,
            "message": f"argument --seed: seed {self.CAP + 1} exceeds the supported cap {self.CAP}",
        }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_env_cap_runs_and_one_more_is_exit_2(self, capsys, spec_file, monkeypatch, command):
        argv = [a.format(spec=spec_file(SPHERE_CONST)) for a in self.COMMANDS[command]]
        monkeypatch.setenv("SPHERECOV_SEED", str(self.CAP))
        assert run(capsys, *argv)[0] == 0
        monkeypatch.setenv("SPHERECOV_SEED", str(self.CAP + 1))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": 2, "message": f"seed {self.CAP + 1} exceeds the supported cap {self.CAP}"}


class TestCountFlags:
    """Every integer flag takes its text through one argparse type built on
    `_check_count`: a value below the flag's least, a non-integer and an
    integer too long for `int` all exit 2 with one JSON line."""

    COMMANDS = {
        "--grid": (2, ["eval", "{spec}"]),
        "--random": (1, ["simulate", "{spec}"]),
        "--samples": (1, ["simulate", "{spec}", "--random", "3"]),
        "--seed": (0, ["simulate", "{spec}", "--random", "3"]),
    }

    @pytest.mark.parametrize(
        "flag, value",
        [(flag, v) for flag, (least, _) in COMMANDS.items() for v in (str(least - 1), "1.5", "-" + "9" * 5000)],
        ids=lambda value: value if len(value) < 20 else "-5000-digits",
    )
    def test_bad_value_is_exit_2_with_one_json_line(self, capsys, spec_file, flag, value):
        least, argv = self.COMMANDS[flag]
        argv = [a.format(spec=spec_file(SPHERE_CONST)) for a in argv]
        code, out, err = run(capsys, *argv, f"{flag}={value}")
        assert (code, out) == (2, "")
        line, rest = err.split("\n", 1)
        assert rest == ""
        assert json.loads(line) == {"error": 2, "message": f"argument {flag}: must be an integer >= {least}, got {value!r}"}


RANDOM_SPHERE_ROWS = (
    "0.41006065704279726,-0.22633659414677382,0.8835281567079049",
    "-0.10804877715796454,-0.8596556979293826,0.4993170763875541",
    "-0.20233820348162762,-0.67818399841505,-0.706488298350088",
)
HEADER_CASES = {
    ("sphere", "random"): ("sphere(d=2, n_max=2)", RANDOM_SPHERE_ROWS),
    ("sphere_time", "random"): (
        "sphere_time(d=2, n_max=2)",
        tuple(
            f"{row},{t}"
            for row, t in zip(RANDOM_SPHERE_ROWS, ("0.8871209184969293", "0.9318129485050863", "0.27421998026218264"))
        ),
    ),
    ("product_spheres", "random"): (
        "product_spheres(d1=2, d2=1, m_max=1, n_max=1)",
        tuple(
            f"{row},{q}"
            for row, q in zip(
                RANDOM_SPHERE_ROWS,
                (
                    "0.37966971266962524,0.9251221050657931",
                    "-0.09792960445270292,0.9951933443164385",
                    "0.3350261995716278,-0.9422088121009013",
                ),
            )
        ),
    ),
    ("sphere", "points"): ("sphere(d=2, n_max=2)", ("1.0,0.0,0.0", "0.0,0.6,0.8", "0.0,0.0,-1.0")),
    ("sphere_time", "points"): (
        "sphere_time(d=2, n_max=2)",
        ("1.0,0.0,0.0,0.0", "0.0,0.6,0.8,0.25", "0.0,0.0,-1.0,1.5"),
    ),
    ("product_spheres", "points"): (
        "product_spheres(d1=2, d2=1, m_max=1, n_max=1)",
        ("1.0,0.0,0.0,0.6,0.8", "0.0,0.6,0.8,-1.0,0.0", "0.0,0.0,-1.0,0.0,1.0"),
    ),
}
POINTS_FILES = {
    "sphere": "1,0,0\n0,0.6,0.8\n0,0,-1\n",
    "sphere_time": "1,0,0,0.0\n0,0.6,0.8,0.25\n0,0,-1,1.5\n",
    "product_spheres": "1,0,0,0.6,0.8\n0,0.6,0.8,-1,0\n0,0,-1,0,1\n",
}


class TestSpectralGoldenBytes:
    """``simulate --method spectral`` output of a degree-20 S² spec, pinned by
    sha256 (recorded with OpenBLAS 0.3.31 on x86-64, 1 and 2 threads alike)."""

    SPEC = {"kind": "sphere", "d": 2, "coeffs": [1.0 / (n + 1) for n in range(21)]}
    ARGS = ["--random", "50", "--samples", "5", "--seed", "3", "--method", "spectral"]
    SHA256 = "7a0101868023c76670e975bc61279928efee6824a5d34e2d4ee7243d30979eb4"

    def test_stdout(self, capsys, spec_file):
        code, out, err = run(capsys, "simulate", spec_file(self.SPEC), *self.ARGS)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.SHA256

    def test_out_file(self, capsys, spec_file, tmp_path):
        out = tmp_path / "field.csv"
        code, stdout, err = run(capsys, "simulate", spec_file(self.SPEC), *self.ARGS, "--out", str(out))
        assert (code, stdout, err) == (0, "", "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256


class TestMemoryBound:
    """A request whose output alone would exceed `gegenbauer._MAX_ARRAY_BYTES`
    exits 3 before it allocates. The bound is patched down to 16 KiB or
    1 MiB and there are at most 1000 points, so a missing guard costs
    megabytes, not the machine's memory."""

    @pytest.mark.parametrize(
        "extra, bound, what",
        [
            (["--random", "1000"], 2**14, "a point set of 1000 x 3 floats"),
            (["--random", "1000"], 2**20, "a Gram matrix of 1000 x 1000 floats"),
            (["--random", "100", "--samples", "2000"], 2**20, "a sample of 2000 x 100 floats"),
            (["--random", "1000", "--samples", "200", "--method", "spectral"], 2**20, "a sample of 200 x 1000 floats"),
        ],
    )
    def test_exit_3_with_no_output(self, capsys, monkeypatch, spec_file, tmp_path, extra, bound, what):
        monkeypatch.setattr(gegenbauer, "_MAX_ARRAY_BYTES", bound)
        out_path = tmp_path / "field.csv"
        code, out, err = run(capsys, "simulate", spec_file(SPHERE_DEGREE_ONE), *extra, "--out", str(out_path))
        assert (code, out) == (3, "")
        assert json.loads(err)["message"].startswith(what + " needs ")
        assert not out_path.exists()


class TestSpecOverflow:
    """An infinite or overflowing scale or coefficient mass is a spec problem:
    exit 2 with one JSON line on stderr and no numpy warning."""

    CASES = [
        ({"kind": "sphere", "d": 2, "coeffs": [1], "scale": math.inf},
         "invalid sphere spec: scale_c must be a positive real, got inf"),
        ({"kind": "sphere", "d": 2, "coeffs": [1e300, 1e300], "scale": 1e300},
         "invalid sphere spec: scale_c must be a positive real, got inf"),
        ({"kind": "sphere", "d": 2, "coeffs": [1e308, 1e308]},
         "invalid sphere spec: coeffs must have a finite total, got inf"),
        ({"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[1e308, 0.0], [0.0, 1e308]]},
         "invalid product_spheres spec: coeff_matrix must have a finite total, got inf"),
        ({**ST_MIXED, "terms": [{**term, "a": 1e308} for term in ST_MIXED["terms"]]},
         "invalid sphere_time spec: weights must have a finite total, got inf"),
    ]

    IDS = ["inf-scale", "scale-times-mass", "sphere-mass", "product-mass", "st-mass"]

    @pytest.mark.parametrize("doc, message", CASES, ids=IDS)
    def test_exit_2_with_one_json_line(self, tmp_path, doc, message):
        (tmp_path / "spec.json").write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli(["eval", "spec.json", "--grid", "3"], tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == json.dumps({"error": 2, "message": message}) + "\n"


class TestNumericOverflow:
    """A function or kernel scale whose numbers overflow double range on the way
    to a result: exit 3 with one JSON line on stderr and no numpy warning."""

    OVERFLOW = "coefficient 0 overflows: the function's values are too large"
    SCALE = "kernel scale 1e+308 is too large: "
    CASES = [
        (["certify", "--lambda", "0.5", "--table", "big.csv"], OVERFLOW),
        (["coeffs", "--lambda", "0.5", "--table", "big.csv", "--nmax", "4"], OVERFLOW),
        (["simulate", "spec.json", "--random", "5"], SCALE + "the Gram matrix plus jitter overflows"),
        (["simulate", "spec.json", "--random", "5", "--method", "spectral"], SCALE + "the spectral amplitudes overflow"),
    ]

    @pytest.mark.parametrize("argv, message", CASES, ids=["certify", "coeffs", "factorized", "spectral"])
    def test_exit_3_with_one_json_line(self, tmp_path, argv, message):
        (tmp_path / "big.csv").write_text("".join(f"{-1.0 + i / 40},1e308\n" for i in range(81)), encoding="utf-8")
        doc = {"kind": "sphere", "d": 2, "coeffs": [0.5, 0.5], "scale": 1e308}
        (tmp_path / "spec.json").write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli(argv, tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == json.dumps({"error": 3, "message": message}) + "\n"

    def test_table_slopes_that_overflow(self, tmp_path):
        # Neighbours 2e308 apart: the interpolant's slopes overflow before
        # any function value is taken.
        rows = "".join(f"{-1.0 + i / 40},{(-1) ** i * 1e308}\n" for i in range(81))
        (tmp_path / "t.csv").write_text(rows, encoding="utf-8")
        result = run_cli(["coeffs", "--lambda", "0.5", "--nmax", "4", "--table", "t.csv"], tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        message = "table t.csv: neighbouring values are too far apart, the interpolant's slopes overflow"
        assert result.stderr == json.dumps({"error": 3, "message": message}) + "\n"

    def test_point_whose_norm_overflows(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(SPHERE_CONST), encoding="utf-8")
        (tmp_path / "p.csv").write_text("1,0,0\n1e200,0,0\n", encoding="utf-8")
        result = run_cli(["simulate", "spec.json", "--points", "p.csv"], tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        message = "point 1 has norm inf, not 1 within 1e-12"
        assert result.stderr == json.dumps({"error": 3, "message": message}) + "\n"

    def test_children_turn_runtime_warnings_into_errors(self, tmp_path):
        # `cli_env` gives CLI children the in-process warning policy.
        script = "import numpy as np; np.float64(1e308) * 10.0"
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=cli_env())
        assert result.returncode != 0 and "RuntimeWarning: overflow" in result.stderr


class TestCharFnParamSpecs:
    """A characteristic-function parameter that is not a JSON number is a spec
    problem: exit 2 with one JSON line on stderr, no traceback."""

    @pytest.mark.parametrize("value", ["abc", None, [1], True], ids=["string", "null", "list", "true"])
    def test_exit_2_with_one_json_line(self, tmp_path, value):
        doc = {**ST_GAUSS, "terms": [{"a": 1.0, "charfn": {"family": "gaussian", "params": {"sigma": value}}}]}
        (tmp_path / "spec.json").write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli(["eval", "spec.json", "--x", "0.5", "--t", "0.1"], tmp_path)
        message = f"terms[0].charfn.params.sigma must be a number, got {value!r}"
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == json.dumps({"error": 2, "message": message}) + "\n"


class TestSpecReadingExitsTwo:
    """A spec whose dimension no basis can take, or that nests deeper than any
    kernel, exits 2 with one JSON line on stderr and no traceback, at a depth
    that `json` refuses and at one that it parses."""

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"kind": "sphere", "d": %s, "coeffs": [1]}' % HUGE,
             "invalid sphere spec: sphere dimension is too large: (d-1)/2 must be a finite float"),
            ('{"kind": "product_spheres", "d1": 2, "d2": %s, "matrix": [[1]]}' % HUGE,
             "invalid product_spheres spec: sphere dimension is too large: (d-1)/2 must be a finite float"),
            ('{"kind": "sphere", "d": 2.0, "coeffs": [1]}', "d must be an integer, got 2.0"),
            ('{"kind": "sphere", "d": true, "coeffs": [1]}', "d must be an integer, got True"),
            ('{"kind": "sphere", "d": 2, "coeffs": %s}' % ("[" * 100_000 + "]" * 100_000),
             "spec file spec.json nests too deeply to be read"),
            ('{"kind": "sphere", "d": 2, "coeffs": %s}' % ("[" * 900 + "1" + "]" * 900),
             "invalid sphere spec: coeffs must be an array of numbers: "),
            ('{"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": %s}' % ("[" * 900 + "1" + "]" * 900),
             "invalid product_spheres spec: coeff_matrix must be an array of numbers: "),
        ],
        ids=["huge-d", "huge-d2", "float-d", "bool-d", "deep-100000", "deep-900", "deep-900-matrix"],
    )
    def test_exit_2_with_one_json_line(self, tmp_path, text, message):
        (tmp_path / "spec.json").write_text(text, encoding="utf-8")
        result = run_cli(["eval", "spec.json", "--x", "0.5"], tmp_path)
        assert (result.returncode, result.stdout) == (2, "")
        line, rest = result.stderr.split("\n", 1)
        assert rest == ""
        assert json.loads(line)["error"] == 2
        assert json.loads(line)["message"].startswith(message)


@pytest.fixture(scope="class")
def grid_specs(tmp_path_factory):
    """Paths of the golden spec files by kind, written once per class."""
    folder = tmp_path_factory.mktemp("specs")
    for kind, doc in GOLDEN_SPECS.items():
        (folder / f"{kind}.json").write_text(json.dumps(doc), encoding="utf-8")
    return {kind: str(folder / f"{kind}.json") for kind in GOLDEN_SPECS}


class TestEvalGrid:
    """`eval --grid` checks its table of grid**k rows against
    `gegenbauer._MAX_ARRAY_BYTES` before it allocates anything (exit 3, as for
    `simulate`), then writes one block of lines at a time."""

    @pytest.mark.parametrize(
        "kind, grid, shape",
        [
            ("sphere", 10**8, "100000000 x 2"),
            ("sphere_time", 10**6, "1000000000000 x 3"),
            ("product_spheres", 10**6, "1000000000000 x 3"),
        ],
    )
    def test_exit_3_before_any_allocation(self, capsys, monkeypatch, spec_file, kind, grid, shape):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the grid was allocated before the bound check")

        monkeypatch.setattr(np, "linspace", no_allocation)
        code, out, err = run(capsys, "eval", spec_file(GOLDEN_SPECS[kind]), "--grid", str(grid))
        assert (code, out) == (3, "")
        assert json.loads(err)["message"].startswith(f"an eval table of {shape} floats needs ")

    def test_huge_product_grid_exits_3_with_one_json_line(self, tmp_path):
        (tmp_path / "spec.json").write_text(json.dumps(GOLDEN_PROD), encoding="utf-8")
        result = run_cli(["eval", "spec.json", "--grid", "1000000"], tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        assert json.loads(result.stderr) == {
            "error": 3,
            "message": "an eval table of 1000000000000 x 3 floats needs 24000000000000 bytes, "
            "over the bound of 1073741824",
        }

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SPECS))
    def test_writes_a_block_of_lines_at_a_time(self, capsys, monkeypatch, spec_file, kind):
        spec = spec_file(GOLDEN_SPECS[kind])
        code, out, _ = run(capsys, "eval", spec, "--grid", "4")
        assert code == 0
        monkeypatch.setattr(gegenbauer, "_BLOCK_POINTS", 3)
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["eval", spec, "--grid", "4"]) == 0
        lines = out.splitlines(keepends=True)
        assert len(lines) == (4 if kind == "sphere" else 16)
        assert writes == ["".join(lines[i : i + 3]) for i in range(0, len(lines), 3)]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(GOLDEN_SPECS)), grid=st.integers(2, 40))
    def test_any_block_size_writes_the_bytes_of_one_whole_table(self, grid_specs, data, kind, grid):
        """The stdout of `eval --grid`, with the kernel block patched to any
        size from 1 to rows + 1, equals the table built whole, as
        `np.column_stack` of the row-major axes and the kernel values, written
        by `_csv_row` per row."""
        spec = grid_specs[kind]
        rows = grid ** (1 if kind == "sphere" else 2)
        t_max = data.draw(st.none() | st.floats(-100.0, 100.0), label="t_max") if kind == "sphere_time" else None
        block = data.draw(st.integers(1, rows + 1), label="block")
        kernel = read_kernel_file(spec)
        xs = np.linspace(-1.0, 1.0, grid)
        ts = np.linspace(0.0, 1.0 if t_max is None else t_max, grid)
        mesh = np.meshgrid(*[ts if name == "t" else xs for name in kernel.arguments], indexing="ij")
        columns = [axis.reshape(-1) for axis in mesh]
        table = np.column_stack([*columns, kernel.values(*columns)])
        expected = "".join(f"{cli._csv_row(row)}\n" for row in table)
        argv = ["eval", spec, "--grid", str(grid), *([] if t_max is None else ["--t-max", repr(t_max)])]
        with mock.patch.object(gegenbauer, "_BLOCK_POINTS", block), contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0
        assert out.getvalue() == expected


class TestSimulateStreams:
    """`simulate` writes each line as it is formatted, so the whole text is
    never held in memory."""

    def test_peak_is_a_few_samples(self, capsys, spec_file, tmp_path):
        n_points, n_samples = 300, 2000
        spec = spec_file(SPHERE_DEGREE_ONE)
        out_path = tmp_path / "field.csv"
        argv = ["simulate", spec, "--random", str(n_points), "--samples", str(n_samples), "--out", str(out_path)]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert out_path.read_text(encoding="utf-8").count("\n") == 5 + n_points + 1 + n_samples
        # The text of the samples alone is about 2.5 times their float bytes.
        assert peak < 4 * 8 * n_points * n_samples + 2 * 2**20

    def test_closed_stdout_is_exit_1_without_traceback(self, tmp_path):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps(SPHERE_DEGREE_ONE), encoding="utf-8")
        # About 2 MB of rows overflow the pipe buffer, so the child is still
        # writing when the reader goes away.
        argv = [sys.executable, "-m", "spherecov", "simulate", str(spec), "--random", "300", "--samples", "400"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=cli_env()
        ) as child:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert first == b"# kernel: sphere(d=2, n_max=1)\n"
        assert (code, err) == (1, b"")


class TestSimulateHeaders:
    """Exact ``#`` header lines of ``simulate`` for each kind and point source."""

    @pytest.mark.parametrize("kind, source", sorted(HEADER_CASES))
    def test_header_lines(self, capsys, spec_file, tmp_path, kind, source):
        if source == "random":
            where = ["--random", "3"]
        else:
            path = tmp_path / "points.csv"
            path.write_text(POINTS_FILES[kind], encoding="utf-8")
            where = ["--points", str(path)]
        code, out, err = run(capsys, "simulate", spec_file(GOLDEN_SPECS[kind]), *where, "--seed", "5")
        assert (code, err) == (0, "")
        label, rows = HEADER_CASES[kind, source]
        expected = [f"# kernel: {label}", "# method: factorized", "# seed: 5", "# samples: 1", "# points: 3"]
        expected += [f"# point_{i}: {row}" for i, row in enumerate(rows)]
        assert [line for line in out.splitlines() if line.startswith("#")] == expected


class TestRoundTrip:
    def test_grid_output_feeds_coeffs(self, capsys, spec_file, tmp_path):
        seq = multiquadric_sequence(0.3, LEGENDRE, 60)
        spec = spec_file({"kind": "sphere", "d": 2, "coeffs": [float(a) for a in seq.coeffs]})
        code, out, _ = run(capsys, "eval", spec, "--grid", "401")
        assert code == 0
        table = tmp_path / "sampled.csv"
        table.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "25", "--table", str(table))
        assert code == 0
        recovered = parse_coeffs(out)
        assert float(np.abs(recovered - seq.coeffs[:26]).max()) <= 1e-6


class TestFloatFlags:
    # Each float flag in a command line that is valid apart from the flag's value.
    FLAGS = [
        (["eval", "{st}", "--grid", "3"], "--t-max"),
        (["coeffs", "--nmax", "5", "--expr", "x"], "--lambda"),
        (["certify", "--lambda", "0.5", "--nmax", "5", "--expr", "x"], "--coeff-tol"),
        (["certify", "--lambda", "0.5", "--nmax", "5", "--expr", "x"], "--eig-tol"),
        (["separable", "{prod}"], "--tol"),
        (["separable", "{st}"], "--tol"),
        (["simulate", "{sphere}", "--random", "3"], "--jitter"),
    ]

    @pytest.mark.parametrize("argv, flag", FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in FLAGS])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_is_exit_2(self, capsys, spec_file, argv, flag, value):
        specs = {
            "st": spec_file(ST_MIXED, "st.json"),
            "prod": spec_file({**PROD_IDENTITY, "matrix": [[0.5, 0.1], [0.1, 0.3]]}, "prod.json"),
            "sphere": spec_file(SPHERE_DEGREE_ONE, "sphere.json"),
        }
        args = [a.format(**specs) for a in argv]
        code, out, err = run(capsys, *args, f"{flag}={value}")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": 2, "message": f"argument {flag}: must be finite, got {value!r}"}

    @staticmethod
    def _command(spec_file, argv):
        specs = {
            "st": spec_file(ST_MIXED, "st.json"),
            "prod": spec_file(PROD_IDENTITY, "prod.json"),
            "sphere": spec_file(SPHERE_DEGREE_ONE, "sphere.json"),
        }
        return [a.format(**specs) for a in argv]

    @pytest.mark.parametrize("argv, flag", FLAGS, ids=[f"{argv[0]}{flag}" for argv, flag in FLAGS])
    @pytest.mark.parametrize("value", ["True", "None", "1j", "Decimal('1')", "0x1p3", "1,5"])
    def test_non_number_is_exit_2(self, capsys, spec_file, argv, flag, value):
        code, out, err = run(capsys, *self._command(spec_file, argv), f"{flag}={value}")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": 2, "message": f"argument {flag}: invalid float value: {value!r}"}

    # A finite value out of the parameter's interval is the library's DomainError, exit 3.
    OUT_OF_RANGE = [
        (["coeffs", "--nmax", "5", "--expr", "x"], "--lambda", "-1",
         "lam must be a finite nonnegative number, got -1.0"),
        (["certify", "--lambda", "0.5", "--nmax", "5", "--expr", "x"], "--coeff-tol", "0",
         "coeff_tol must be a positive real, got 0.0"),
        (["certify", "--lambda", "0.5", "--nmax", "5", "--expr", "x"], "--eig-tol", "-1e-3",
         "eig_tol must be a positive real, got -0.001"),
        (["separable", "{prod}"], "--tol", "-1", "tol must be a finite nonnegative number, got -1.0"),
        (["separable", "{st}"], "--tol", "-0.5", "tol must be a finite nonnegative number, got -0.5"),
        (["simulate", "{sphere}", "--random", "3"], "--jitter", "-2",
         "jitter must be a finite nonnegative number, got -2.0"),
    ]

    @pytest.mark.parametrize(
        "argv, flag, value, message", OUT_OF_RANGE, ids=[f"{argv[0]}{flag}" for argv, flag, _, _ in OUT_OF_RANGE]
    )
    def test_out_of_range_is_exit_3(self, capsys, spec_file, argv, flag, value, message):
        code, out, err = run(capsys, *self._command(spec_file, argv), f"{flag}={value}")
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": 3, "message": message}

    # Negative values that argparse's own pattern (-1, -1.5) reads as options.
    NEGATIVE = ["-1e-3", "-4.6e-275", "-1E+300", "-1.", "-.5e1", "-inf", "-nan", "-Infinity"]
    FLOATS = FLAGS + [
        (["eval", "{st}", "--t", "1"], "--x"),
        (["eval", "{st}", "--x", "0.5"], "--t"),
        (["eval", "{prod}", "--x2", "0.5"], "--x1"),
        (["eval", "{prod}", "--x1", "0.5"], "--x2"),
    ]

    @pytest.mark.parametrize("argv, flag", FLOATS, ids=[f"{argv[0]}{flag}" for argv, flag in FLOATS])
    @pytest.mark.parametrize("value", NEGATIVE)
    def test_negative_value_as_its_own_argument(self, capsys, spec_file, argv, flag, value):
        """`--flag <value>` as two arguments exits and prints as `--flag=<value>` does."""
        command = self._command(spec_file, argv)
        joined = run(capsys, *command, f"{flag}={value}")
        assert run(capsys, *command, flag, value) == joined

    def test_an_option_after_a_float_flag_is_still_missing_its_value(self, capsys, spec_file):
        code, out, err = run(capsys, "eval", spec_file(SPHERE_DEGREE_ONE), "--x", "--grid", "3")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": 2, "message": "argument --x: expected one argument"}

    def test_non_number_message_is_unchanged(self, capsys):
        code, _, err = run(capsys, "coeffs", "--lambda", "half", "--expr", "x")
        assert code == 2
        assert json.loads(err) == {"error": 2, "message": "argument --lambda: invalid float value: 'half'"}

    def test_negative_tol_is_domain_error(self, capsys, spec_file):
        code, out, err = run(capsys, "separable", spec_file(PROD_IDENTITY), "--tol", "-1")
        assert (code, out) == (3, "")
        assert json.loads(err)["error"] == 3


class TestPointFloats:
    """`eval --x/--t/--x1/--x2` read a float as the float flags do."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["{st}", "--x", "abc", "--t", "1"], "argument --x: invalid float value: 'abc'"),
            (["{st}", "--x", "0.5", "--t", "1e999"], "argument --t: must be finite, got '1e999'"),
            (["{st}", "--x", "nan", "--t", "1"], "argument --x: must be finite, got 'nan'"),
            (["{prod}", "--x1", "0.5", "--x2=-inf"], "argument --x2: must be finite, got '-inf'"),
            (["{prod}", "--x1", "", "--x2", "0.5"], "argument --x1: invalid float value: ''"),
        ],
    )
    def test_bad_value_is_exit_2(self, capsys, spec_file, argv, message):
        specs = {"st": spec_file(ST_MIXED, "st.json"), "prod": spec_file(PROD_IDENTITY, "prod.json")}
        code, out, err = run(capsys, "eval", *[a.format(**specs) for a in argv])
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": 2, "message": message}


class TestHugeLags:
    """Lags whose φ underflows to 0 print the value with nothing on stderr."""

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (["--x", "0.5", "--t", "1e200"], "0.5,1e200,0.0\n"),
            (
                ["--grid", "2", "--t-max", "1e300"],
                "-1.0,0.0,0.0\n-1.0,1e+300,0.0\n1.0,0.0,1.0\n1.0,1e+300,0.0\n",
            ),
        ],
        ids=["point", "grid"],
    )
    def test_stderr_is_empty(self, tmp_path, argv, stdout):
        (tmp_path / "st.json").write_text(json.dumps(ST_MIXED), encoding="utf-8")
        result = run_cli(["eval", "st.json", *argv], tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")

    def test_overflowing_sinc_argument_prints_the_limit(self, tmp_path):
        # width·t = 1e310 overflows; sin(u)/u tends to 0.
        spec = {
            "kind": "sphere_time",
            "d": 2,
            "terms": [{"a": 1.0, "charfn": {"family": "triangle_sinc", "params": {"width": 1e10}}}],
        }
        (tmp_path / "st.json").write_text(json.dumps(spec), encoding="utf-8")
        result = run_cli(["eval", "st.json", "--x", "0.5", "--t", "1e300"], tmp_path)
        assert (result.returncode, result.stdout, result.stderr) == (0, "0.5,1e300,0.0\n", "")


class TestQuadOrderCap:
    """A Gauss order above 2·MAX_DEGREE + 2 fails before any work is done.
    λ = 0 keeps each case fast even if the cap were missing."""

    def test_huge_order_is_exit_3_with_one_json_line(self, tmp_path):
        result = run_cli(["coeffs", "--lambda", "0", "--nmax", "3", "--expr", "x", "--quad-order", "1000000"], tmp_path)
        assert (result.returncode, result.stdout) == (3, "")
        assert result.stderr == json.dumps({"error": 3, "message": "order 1000000 exceeds the supported cap 20002"}) + "\n"

    def test_order_beyond_float_range_is_exit_3(self, capsys):
        big = "1" + "0" * 400
        code, out, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "3", "--expr", "x", "--quad-order", big)
        assert (code, out) == (3, "")
        message = "order 100000000000... (401 digits) exceeds the supported cap 20002"
        assert json.loads(err) == {"error": 3, "message": message}

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--nmax", "3", "--quad-order", "1000000"], "order 1000000 exceeds the supported cap 20002"),
            (["--nmax", "20000"], "degree 20000 exceeds the supported cap 10000"),
            (["--nmax", "5", "--quad-order", "3"], "quad_order must be at least n_max+1 = 6, got 3"),
        ],
    )
    def test_table_path_checks_recovery_before_building_its_rule(self, capsys, tmp_path, extra, message):
        table = tmp_path / "table.csv"
        table.write_text("-1.0,1.0\n1.0,1.0\n", encoding="utf-8")
        code, out, err = run(capsys, "coeffs", "--lambda", "0", "--table", str(table), *extra)
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": 3, "message": message}


class TestNonUtf8Input:
    BYTES = b"\xff\xfe{"

    def test_spec_file(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(self.BYTES)
        code, out, err = run(capsys, "eval", str(path), "--x", "0.1")
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith(f"cannot read spec file {path}: ")

    def test_points_file(self, capsys, spec_file, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(self.BYTES)
        code, out, err = run(capsys, "simulate", spec_file(SPHERE_CONST), "--points", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith(f"cannot read points file {path}: ")

    def test_table_file(self, capsys, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(self.BYTES)
        code, out, err = run(capsys, "coeffs", "--lambda", "0.5", "--nmax", "4", "--table", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["message"].startswith(f"cannot read table {path}: ")

    def test_module_invocation_has_no_traceback(self, tmp_path):
        (tmp_path / "bin.json").write_bytes(self.BYTES)
        result = run_cli(["eval", "bin.json", "--x", "0.1"], tmp_path)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert json.loads(result.stderr)["error"] == 2


class TestEntryPoints:
    """``python -m spherecov`` run from a scratch directory, as criterion 10 runs it."""

    def test_module_invocation(self, tmp_path):
        spec = tmp_path / "kernel.json"
        spec.write_text(json.dumps(SPHERE_CONST), encoding="utf-8")
        result = run_cli(["eval", str(spec), "--x", "0.3"], tmp_path)
        assert result.returncode == 0
        assert result.stdout == "0.3,1.0\n"

    def test_module_invocation_error_shape(self, tmp_path):
        result = run_cli(["eval", str(tmp_path / "nope.json"), "--x", "0"], tmp_path)
        assert result.returncode == 2
        payload = json.loads(result.stderr)
        assert payload["error"] == 2

    # One run of each of the five commands, `coeffs` once per input kind.
    ALL_COMMANDS = (
        "runs = [['eval', 'sphere.json', '--x', '0.3'], ['eval', 'sphere.json', '--grid', '5'],\n"
        "        ['coeffs', '--lambda', '0.5', '--nmax', '6', '--expr', 'legendre3'],\n"
        "        ['coeffs', '--lambda', '1', '--nmax', '6', '--table', 'table.csv'],\n"
        "        ['certify', '--lambda', '0.5', '--nmax', '30', '--expr', 'expcos'],\n"
        "        ['separable', 'product.json'], ['simulate', 'sphere.json', '--random', '4'],\n"
        "        ['simulate', 'sphere.json', '--random', '4', '--method', 'spectral']]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in runs]\n"
    )

    # What a child prints after its exit codes, by default the scipy modules it loaded.
    SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"

    def _run_all_commands(self, tmp_path, prelude, report=SCIPY_MODULES):
        (tmp_path / "sphere.json").write_text(json.dumps(SPHERE_DEGREE_ONE), encoding="utf-8")
        (tmp_path / "product.json").write_text(json.dumps(PROD_OUTER), encoding="utf-8")
        xs = np.linspace(-1.0, 1.0, 41)
        table = "".join(f"{x!r},{math.exp(x)!r}\n" for x in xs.tolist())
        (tmp_path / "table.csv").write_text(table, encoding="utf-8")
        script = prelude + "import contextlib, io, sys\nimport spherecov.cli as cli\n" + self.ALL_COMMANDS + (
            f"print(codes, {report})\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=cli_env()
        )
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_eval_separable_simulate_never_import_scipy(self, tmp_path):
        # The name predates it: now no command imports scipy, coeffs and certify included.
        assert self._run_all_commands(tmp_path, "") == "[0, 0, 0, 0, 0, 0, 0, 0] []\n"

    def test_no_command_loads_numpy_ma(self, tmp_path):
        # `_float_array` finds a masked array without importing `numpy.ma`, about 12 ms of a child's start.
        assert self._run_all_commands(tmp_path, "", "'numpy.ma' in sys.modules") == "[0, 0, 0, 0, 0, 0, 0, 0] False\n"

    def test_all_commands_run_where_scipy_cannot_be_imported(self, tmp_path):
        refuse_scipy = (
            "import sys\n"
            "class RefuseScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError('scipy is refused in this process')\n"
            "sys.meta_path.insert(0, RefuseScipy())\n"
        )
        assert self._run_all_commands(tmp_path, refuse_scipy) == "[0, 0, 0, 0, 0, 0, 0, 0] []\n"

    def test_closed_stdout_is_exit_1_without_traceback(self, tmp_path):
        spec = tmp_path / "product.json"
        spec.write_text(json.dumps(PROD_OUTER), encoding="utf-8")
        # 90000 rows overflow the pipe buffer, so the child is still writing
        # when the reader goes away.
        argv = [sys.executable, "-m", "spherecov", "eval", str(spec), "--grid", "300"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path, env=cli_env()
        ) as child:
            first = child.stdout.readline()
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert first.startswith(b"-1.0,-1.0,")
        assert (code, err) == (1, b"")

    def test_usage_error_is_exit_2(self, tmp_path):
        result = run_cli(["eval"], tmp_path)
        assert result.returncode == 2
        assert json.loads(result.stderr)["error"] == 2
