"""Command-line interface: eval, coeffs, certify, separable, simulate.

Exit codes: 0 success (certify: PD), 1 stdout closed before the output was
written (nothing on stderr), 2 validation failure, 3 domain or geometry
error, 4 certify NotPD, 5 certify Inconclusive. Errors are single-line JSON
objects {"error": code, "message": ...} on stderr; data goes to stdout (or
--out for simulate) as headerless CSV with '.' decimal separator. The
environment variable SPHERECOV_SEED supplies the default seed; everything
else is flags.
"""

import argparse
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import gegenbauer
from .errors import DomainError, KernelSpecError, SphereCovError
from .fields import _seed_states, point_set_type, sample_factorized, sample_spectral_s2
from .gegenbauer import GegenbauerBasis, _check_array_bytes, _check_count, _check_real, _check_seed, quadrature
from .kernelspec import read_kernel_file
# kernel_eval is not called here, but perfbench/selftest.py checks its traced binding in this module.
from .schoenberg import INCONCLUSIVE, NOT_PD, PD, certify, kernel_eval, recover_coefficients  # noqa: F401
from .schoenberg import DEFAULT_COEFF_TOL, DEFAULT_GRAM_TRIALS, _check_recovery, _default_quad_order, _tail_mass

SEED_ENV_VAR = "SPHERECOV_SEED"
TAIL_WARN_THRESHOLD = 1e-6

EVAL_FLAGS = ("--x", "--t", "--x1", "--x2")

BUILTIN_EXPRESSIONS = {
    "x": lambda x: x,
    "negx": lambda x: -x,
    "xsquared": lambda x: x * x,
    "legendre3": lambda x: 0.5 * (5.0 * x**3 - 3.0 * x),
    "expcos": lambda x: math.exp(x - 1.0),
}


class _ValidationFailure(Exception):
    """CLI-level input problem; maps to exit code 2."""


def _csv_row(row: np.ndarray) -> str:
    """A float row as the shortest round-tripping decimals (`repr`) of its
    values joined by commas, without one Python call per value."""
    return ",".join(map(repr, row.tolist()))


def _print_error(code: int, message: str):
    print(json.dumps({"error": code, "message": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Every parser and subparser of the CLI. Argument errors follow the
    JSON-on-stderr contract, and an argument that reads as a negative float in
    decimal or exponent notation, or as -inf or -nan, is a value, not an
    option (argparse's own pattern takes only -1 and -1.5, not -1e-3)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.I)

    def error(self, message):
        _print_error(2, message)
        raise SystemExit(2)


def _float_flag(text: str) -> float:
    """argparse type of every float flag: its text as a float that
    `_check_real` takes, so finite."""
    try:
        return _check_real(float(text), "value")
    except DomainError:
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}") from None
    except ValueError:  # the text of no float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _parse_float(text: str, name: str) -> float:
    """A flag kept as text (eval echoes it), read as `_float_flag` reads it."""
    try:
        return _float_flag(text)
    except argparse.ArgumentTypeError as exc:
        raise _ValidationFailure(f"argument {name}: {exc}") from None


def _count_flag(least: int):
    """argparse type of an integer flag: its text as an int that `_check_count`
    takes with this `least`."""

    def count(text: str) -> int:
        try:
            return _check_count(int(text), "value", least)
        except ValueError:  # not an integer's text, or a DomainError
            raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}") from None

    return count


def _seed_flag(text: str) -> int:
    """argparse type of --seed: `_count_flag(0)`, then the cap of `_check_seed`."""
    seed = _count_flag(0)(text)
    try:
        return _check_seed(seed)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _default_seed() -> int:
    """The seed in SPHERECOV_SEED, read as --seed is, else 0."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        seed = _count_flag(0)(raw)
    except argparse.ArgumentTypeError:
        raise _ValidationFailure(f"{SEED_ENV_VAR} must be a nonnegative integer, got {raw!r}") from None
    return _check_seed(seed, _ValidationFailure)


def _forbid(args, names, reason):
    for name in names:
        if getattr(args, name.strip("-").replace("-", "_")) is not None:
            raise _ValidationFailure(f"{name} is not valid {reason}")


# ---------------------------------------------------------------- eval


def cmd_eval(args) -> int:
    kernel = read_kernel_file(args.spec)
    if args.grid is None or "t" not in kernel.arguments:
        _forbid(args, ["--t-max"], "outside a --grid of a sphere_time spec")
    if args.grid is not None:
        _forbid(args, EVAL_FLAGS, "together with --grid")
        k = len(kernel.arguments)
        rows = args.grid**k
        _check_array_bytes((rows, k + 1), "an eval table")
        xs = np.linspace(-1.0, 1.0, args.grid)
        ts = np.linspace(0.0, 1.0 if args.t_max is None else args.t_max, args.grid)
        axes = [ts if name == "t" else xs for name in kernel.arguments]
        texts = [[f"{v!r}," for v in axis.tolist()] for axis in axes]
        # One kernel block of rows at a time, in row-major order of the axes, so
        # neither the table nor its text exists whole in memory. A kernel value
        # does not depend on its batch, so the bytes are those of one whole table.
        for start in range(0, rows, gegenbauer._BLOCK_POINTS):
            index = np.unravel_index(np.arange(start, min(rows, start + gegenbauer._BLOCK_POINTS)), (args.grid,) * k)
            values = kernel.values(*(axis[i] for axis, i in zip(axes, index)))
            cells = [[text[j] for j in i.tolist()] for text, i in zip(texts, index)]
            sys.stdout.write("".join(map("".join, zip(*cells, map("{!r}\n".format, values.tolist())))))
    else:
        flags = [f"--{name}" for name in kernel.arguments]
        texts = [getattr(args, name) for name in kernel.arguments]
        if None in texts:
            raise _ValidationFailure(f"a {kernel.label} spec needs {' and '.join(flags)} (or --grid)")
        _forbid(args, [f for f in EVAL_FLAGS if f not in flags], f"for a {kernel.label} spec")
        value = kernel.values(*(_parse_float(text, flag) for text, flag in zip(texts, flags)))
        print(",".join([*texts, repr(value)]))
    return 0


# ---------------------------------------------------------------- coeffs / certify


def _read_rows(path: str, what: str) -> list:
    """(line number, floats) of each row of a comma-separated file, skipping
    blank and '#' lines; `what` names the file in a read error."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    rows.append((lineno, [float(p) for p in line.split(",")]))
                except ValueError:
                    raise _ValidationFailure(f"{path}:{lineno}: non-numeric entry") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise _ValidationFailure(f"cannot read {what} {path}: {exc}") from exc
    return rows


def _load_table_function(path: str, n_max: int, cover: tuple):
    """Monotone piecewise-cubic interpolant of a two-column CSV table.

    The table needs at least 2 and 2*n_max nodes; `cover` is the (lo, hi) range
    the nodes must span so the interpolant is never extrapolated.
    """
    xs, ys = [], []
    for lineno, row in _read_rows(path, "table"):
        if len(row) != 2:
            raise _ValidationFailure(f"{path}:{lineno}: expected two comma-separated columns, got {len(row)}")
        x, y = row
        if not (math.isfinite(x) and math.isfinite(y)):
            raise _ValidationFailure(f"{path}:{lineno}: non-finite entry")
        if abs(x) > 1.0:
            raise _ValidationFailure(f"{path}:{lineno}: x must lie in [-1, 1], got {x!r}")
        xs.append(x)
        ys.append(y)
    if len(xs) < max(2, 2 * n_max):
        raise _ValidationFailure(
            f"table needs at least 2 and 2*n_max = {2 * n_max} nodes, got {len(xs)}"
        )
    order = np.argsort(xs)
    xs = np.asarray(xs)[order]
    ys = np.asarray(ys)[order]
    if np.any(np.diff(xs) == 0.0):
        raise _ValidationFailure("table has duplicate x values")
    if xs[0] > cover[0] or xs[-1] < cover[1]:
        raise _ValidationFailure(
            f"table spans [{float(xs[0])!r}, {float(xs[-1])!r}] but must cover [{cover[0]!r}, {cover[1]!r}]"
        )
    return _pchip(xs, ys, path)


def _pchip_end(h0: float, h1: float, m0: float, m1: float) -> float:
    """End derivative of `_pchip`: the one-sided three-point estimate, set to 0
    if its sign differs from the end slope m0, and limited to 3·m0 if the
    slopes change sign."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(xs: np.ndarray, ys: np.ndarray, path: str):
    """The monotone piecewise-cubic Hermite interpolant (PCHIP) through points
    with strictly increasing `xs`, NaN outside [xs[0], xs[-1]].

    Derivatives follow Fritsch & Carlson (1980) and Fritsch & Butland (1984):
    0 at a knot where the slopes on either side differ in sign or one is 0,
    else their weighted harmonic mean; `_pchip_end` at the ends; the slope
    itself for two points. Each step is written in the order of operations of
    scipy's `PchipInterpolator(xs, ys, extrapolate=False)`, so both give the
    same values. Values so far apart that a slope or a cubic coefficient is
    not finite are a DomainError that names the table `path`; a value that
    overflows is returned as ±inf or NaN, without a numpy warning, for the
    caller's check of function values."""
    with np.errstate(all="ignore"):  # overflows are checked below
        h = np.diff(xs)
        m = np.diff(ys) / h
        if xs.size == 2:
            d = np.array([m[0], m[0]])
        else:
            d = np.zeros(xs.size)
            smooth = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0)
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
            d[1:-1][smooth] = 1.0 / whmean[smooth]
            d[0] = _pchip_end(h[0], h[1], m[0], m[1])
            d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
        # Power-form coefficients of each interval's cubic in s = x - xs[i].
        t = (d[:-1] + d[1:] - 2 * m) / h
        c3, c2, c1, c0 = t / h, (m - d[:-1]) / h - t, d[:-1], ys[:-1]
    if not (np.isfinite(c3).all() and np.isfinite(c2).all() and np.isfinite(c1).all()):
        raise DomainError(f"table {path}: neighbouring values are too far apart, the interpolant's slopes overflow")

    def interpolant(x):
        x = np.asarray(x, dtype=float)
        i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
        s = np.where((xs[0] <= x) & (x <= xs[-1]), x - xs[i], np.nan)
        s2 = s * s
        with np.errstate(over="ignore", invalid="ignore"):
            return c0[i] + c1[i] * s + c2[i] * s2 + c3[i] * (s2 * s)

    return interpolant


def _function_from_args(args, n_max: int, cover: tuple | None):
    if (args.table is None) == (args.expr is None):
        raise _ValidationFailure("exactly one of --table or --expr is required")
    if args.expr is not None:
        if args.expr not in BUILTIN_EXPRESSIONS:
            raise _ValidationFailure(
                f"unknown expression {args.expr!r}; available: {sorted(BUILTIN_EXPRESSIONS)}"
            )
        return BUILTIN_EXPRESSIONS[args.expr]
    return _load_table_function(args.table, n_max, cover)


def cmd_coeffs(args) -> int:
    basis = GegenbauerBasis.from_index(args.lam)
    n_max = args.nmax
    quad_order = args.quad_order if args.quad_order is not None else _default_quad_order(n_max)
    rule_cover = None
    if args.table is not None:
        _check_recovery(n_max, quad_order)
        rule = quadrature(args.lam, quad_order)
        rule_cover = (float(rule.nodes[0]), float(rule.nodes[-1]))
    g = _function_from_args(args, n_max, rule_cover)
    coeffs = recover_coefficients(g, basis, n_max, quad_order)
    tail = _tail_mass(coeffs)
    print("\n".join(f"{n},{a!r}" for n, a in enumerate(coeffs.tolist())))
    if tail > TAIL_WARN_THRESHOLD:
        print(
            f"warning: coefficient mass {tail:.3e} beyond degree n_max/2 exceeds "
            f"{TAIL_WARN_THRESHOLD:.0e}; the truncation may be too short",
            file=sys.stderr,
        )
    return 0


def cmd_certify(args) -> int:
    basis = GegenbauerBasis.from_index(args.lam)
    g = _function_from_args(args, args.nmax, (-1.0, 1.0))
    certificate = certify(
        g,
        basis,
        n_max=args.nmax,
        coeff_tol=args.coeff_tol,
        eig_tol=args.eig_tol,
        gram_trials=args.gram_trials,
        seed=args.seed if args.seed is not None else _default_seed(),
    )
    print(json.dumps(certificate.to_dict(), indent=2))
    return {PD: 0, NOT_PD: 4, INCONCLUSIVE: 5}[certificate.verdict]


# ---------------------------------------------------------------- separable


def cmd_separable(args) -> int:
    kernel = read_kernel_file(args.spec)
    if not hasattr(kernel, "separability"):
        raise _ValidationFailure("separability applies to sphere_time and product_spheres specs")
    verdict = kernel.separability() if args.tol is None else kernel.separability(args.tol)
    print(json.dumps(verdict, indent=2))
    return 0


# ---------------------------------------------------------------- simulate


def _read_points_file(path: str, kernel):
    """Parse a points CSV whose column layout is fixed by the kernel kind."""
    rows = [row for _, row in _read_rows(path, "points file")]
    if not rows:
        raise _ValidationFailure(f"points file {path} is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise _ValidationFailure(f"points file {path} has ragged rows (widths {sorted(widths)})")
    data = np.array(rows)
    point_type = point_set_type(kernel)
    expected = point_type.n_columns(kernel.dimensions)
    if data.shape[1] != expected:
        raise _ValidationFailure(
            f"{kernel.label} points need {expected} columns ({point_type.LAYOUT}), got {data.shape[1]}"
        )
    return point_type.from_columns(kernel.dimensions, data)


def _random_points(kernel, n: int, seed: int):
    """Deterministic point generation with streams split off the seed."""
    return point_set_type(kernel).random(kernel.dimensions, n, _seed_states(seed, 2))


def cmd_simulate(args) -> int:
    kernel = read_kernel_file(args.spec)
    seed = args.seed if args.seed is not None else _default_seed()
    if args.method == "spectral":
        _forbid(args, ["--jitter"], "with --method spectral")
    if args.points is not None:
        points = _read_points_file(args.points, kernel)
    else:
        points = _random_points(kernel, args.random, seed)

    if args.method == "spectral":
        sample = sample_spectral_s2(kernel, points, args.samples, seed)
    else:
        sample = sample_factorized(kernel, points, args.samples, seed, jitter=args.jitter)

    def write(fh):
        # One line at a time, so the text never exists whole in memory.
        n = sample.n_points
        fh.write(
            f"# kernel: {kernel.label}\n# method: {args.method}\n# seed: {seed}\n"
            f"# samples: {args.samples}\n# points: {n}\n"
        )
        for i, row in enumerate(points.columns()):
            fh.write(f"# point_{i}: {_csv_row(row)}\n")
        fh.write("sample," + ",".join(f"p_{i}" for i in range(n)) + "\n")
        for k, row in enumerate(sample.values):
            fh.write(f"{k},{_csv_row(row)}\n")

    if args.out is None:
        write(sys.stdout)
        return 0
    tmp_path = None
    try:
        fd, tmp_path = tempfile.mkstemp(prefix=".spherecov-", dir=os.path.dirname(os.path.abspath(args.out)))
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            write(fh)
        os.replace(tmp_path, args.out)
    except OSError as exc:
        raise _ValidationFailure(f"cannot write {args.out}: {exc}") from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
    return 0


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spherecov", description="Isotropic covariance kernels on spheres.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a kernel spec at points or on a grid")
    p_eval.add_argument("spec", help="kernel spec JSON file")
    p_eval.add_argument("--x", help="cosine argument (sphere, sphere_time)")
    p_eval.add_argument("--t", help="time lag (sphere_time)")
    p_eval.add_argument("--x1", help="first cosine (product_spheres)")
    p_eval.add_argument("--x2", help="second cosine (product_spheres)")
    p_eval.add_argument("--grid", type=_count_flag(2), help="emit a uniform grid with this many points per axis")
    p_eval.add_argument("--t-max", type=_float_flag, help="sphere_time grid time range [0, t-max] (default 1)")
    p_eval.set_defaults(func=cmd_eval)

    def add_function_args(p):
        p.add_argument("--lambda", dest="lam", type=_float_flag, required=True, help="Gegenbauer index (d-1)/2")
        p.add_argument("--nmax", type=int, default=30, help="largest recovered degree (default 30)")
        p.add_argument("--table", help="CSV table of x,g(x) rows to interpolate")
        p.add_argument("--expr", help=f"built-in expression: {', '.join(sorted(BUILTIN_EXPRESSIONS))}")

    p_coeffs = sub.add_parser("coeffs", help="recover Fourier-Gegenbauer coefficients")
    add_function_args(p_coeffs)
    p_coeffs.add_argument(
        "--quad-order", type=int, help="quadrature order, at most 20002 (default max(64, 2*(nmax+1)))"
    )
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_cert = sub.add_parser("certify", help="certify positive definiteness")
    add_function_args(p_cert)
    p_cert.add_argument(
        "--coeff-tol", type=_float_flag, default=DEFAULT_COEFF_TOL, help="coefficient tolerance (default %(default)s)"
    )
    p_cert.add_argument("--eig-tol", type=_float_flag, help="Gram eigenvalue tolerance (default 1e-8 * gram size)")
    p_cert.add_argument(
        "--gram-trials", type=int, default=DEFAULT_GRAM_TRIALS, help="random Gram point sets (default %(default)s)"
    )
    p_cert.add_argument("--seed", type=_seed_flag, help=f"trial seed (default ${SEED_ENV_VAR} or 0)")
    p_cert.set_defaults(func=cmd_certify)

    p_sep = sub.add_parser("separable", help="test a spec for separability")
    p_sep.add_argument("spec", help="kernel spec JSON file (sphere_time or product_spheres)")
    p_sep.add_argument("--tol", type=_float_flag, help="tolerance (default 1e-9 matrix, 1e-12 sphere_time)")
    p_sep.set_defaults(func=cmd_separable)

    p_sim = sub.add_parser("simulate", help="draw Gaussian field realizations")
    p_sim.add_argument("spec", help="kernel spec JSON file")
    src = p_sim.add_mutually_exclusive_group(required=True)
    src.add_argument("--points", help="CSV file of evaluation points")
    src.add_argument("--random", type=_count_flag(1), help="draw this many uniform random points")
    p_sim.add_argument("--samples", type=_count_flag(1), default=1, help="number of realizations (default 1)")
    p_sim.add_argument("--seed", type=_seed_flag, help=f"seed (default ${SEED_ENV_VAR} or 0)")
    p_sim.add_argument(
        "--method", choices=("factorized", "spectral"), default="factorized",
        help="sampler (spectral: sphere kind with d=2 only)",
    )
    p_sim.add_argument("--jitter", type=_float_flag, help="factorized diagonal jitter (default 1e-10 * trace/dim)")
    p_sim.add_argument("--out", help="output CSV path (default: stdout); written atomically")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows up here, not at exit
        return code
    except BrokenPipeError:
        # The recipe of the `signal` docs: point stdout at devnull so the
        # flush at interpreter exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (_ValidationFailure, KernelSpecError) as exc:
        _print_error(2, str(exc))
        return 2
    except SphereCovError as exc:
        _print_error(3, str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
