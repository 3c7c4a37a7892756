"""The three benchmark workloads: fields, certify and cli.

Each workload is a closed loop with one client that repeats a fixed cycle of
ops. Inputs come only from the benchmark seed and are generated in `setup`;
every cycle runs the same inputs, so per-cycle work counts are exact. An op
returns its output; its check runs afterwards, outside the timed region, and
returns None or a one-line failure reason.
"""

import json
import math
import os
import resource
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np
import spherecov as sc
from scipy.interpolate import PchipInterpolator

import oracles
from spans import now_ns

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "launcher.py")

FAMILIES = ("gaussian", "exponential", "stable", "triangle_sinc", "point_mass_at_zero")


@dataclass
class Op:
    kind: str
    run: Callable
    check: Callable


def _random_charfn_params(rng, family: str) -> dict:
    if family == "gaussian":
        return {"sigma": float(rng.uniform(0.5, 2.0))}
    if family == "exponential":
        return {"rate": float(rng.uniform(0.2, 2.0))}
    if family == "stable":
        return {"scale": float(rng.uniform(0.2, 2.0)), "alpha": float(rng.uniform(0.5, 2.0))}
    if family == "triangle_sinc":
        return {"width": float(rng.uniform(0.5, 3.0))}
    return {}


def _cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.clip(np.einsum("ij,ij->i", a, b), -1.0, 1.0)


def _mib(nbytes: float) -> float:
    return nbytes / 2**20


# Reference loops. One is timed before every op and once after the last; an
# op's latency is scaled by the loop's nominal time over the mean time of the
# loops just before and just after it (worker.py). The host's speed drifts by
# tens of percent over seconds to minutes; a loop that does the same kind of
# work as the ops slows down with them, so the scaled latency repeats run to
# run where the wall-clock latency does not.
def interpreter_reference():
    """Interpreter-bound: scalar float work and calls to `math`."""
    total = 0.0
    for i in range(3000):
        total += math.exp(-1e-4 * i) * (i & 7)
    return total


_REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((300, 300))


def memory_reference():
    """Memory- and BLAS-bound: fresh 16 MB arrays (page faults, bandwidth)
    and a 300x300 matmul."""
    a = np.ones(2_000_000)
    b = a * 2.0
    return float(b[-1]) + float((_REFERENCE_MATRIX @ _REFERENCE_MATRIX)[0, 0])


class Workload:
    name = ""
    MIN_CYCLES = 2
    # The reference loop and its time at nominal host speed (about its median
    # on the 2-core Xeon VM that introduced it).
    REFERENCE = staticmethod(memory_reference)
    REFERENCE_NOMINAL_S = 7.0e-3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.ops = []

    def setup(self):
        raise NotImplementedError

    def use_tracer(self, tracer):
        self.tracer = tracer

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def layer_extras(self, cycles: int) -> dict:
        return {}

    def meta(self) -> dict:
        return {}


# ---------------------------------------------------------------- fields


class FieldsWorkload(Workload):
    """Library simulation path: Gram assembly, factorization, RNG and matmul."""

    name = "fields"
    NOMINAL_CYCLE_S = 2.5
    kinds = ("sample_factorized_s2", "sample_spectral_s2", "sample_sphere_time", "sample_product")

    N_S2, PTS_S2, SAMPLES_S2 = 100, 1000, 1000
    N_ST, PTS_ST, SAMPLES_ST = 30, 800, 500
    SHAPE_PS, PTS_PS, SAMPLES_PS = (21, 11), 800, 500
    GRAM_CHECK_POINTS = 40
    Z_PAIRS, Z_DIAG, Z_LIMIT = 32, 8, 6.0

    def setup(self):
        rng = np.random.default_rng([self.seed, 1])
        b2 = sc.GegenbauerBasis.from_dimension(2)
        b1 = sc.GegenbauerBasis.from_dimension(1)
        seeds = [int(s) for s in rng.integers(0, 2**31, 5)]

        self.raw_s2 = rng.uniform(0.05, 1.0, self.N_S2 + 1)
        self.k_s2 = sc.make_sequence(self.raw_s2, b2, normalize=True)
        self.p_s2 = sc.uniform_sphere_points(2, self.PTS_S2, seeds[0])

        self.terms_st = []
        for n in range(self.N_ST + 1):
            family = FAMILIES[n % len(FAMILIES)]
            self.terms_st.append((float(rng.uniform(0.05, 1.0)), family, _random_charfn_params(rng, family)))
        self.k_st = sc.make_st_kernel(
            [(w, sc.make_charfn(f, p)) for w, f, p in self.terms_st], b2, normalize=True
        )
        self.p_st = sc.SpaceTimePointSet(
            space=sc.uniform_sphere_points(2, self.PTS_ST, seeds[1]), times=rng.uniform(0.0, 2.0, self.PTS_ST)
        )

        self.m_ps = rng.uniform(0.05, 1.0, self.SHAPE_PS)
        self.k_ps = sc.make_ps_kernel(self.m_ps, b2, b1, normalize=True)
        self.p_ps = sc.ProductPointSet(
            first=sc.uniform_sphere_points(2, self.PTS_PS, seeds[2]),
            second=sc.uniform_sphere_points(1, self.PTS_PS, seeds[3]),
        )
        self.sample_seed = seeds[4]
        self._spectral_values = None

        fact = lambda c: sc.sample_factorized(self.k_s2, self.p_s2, self.SAMPLES_S2, self.sample_seed + c)
        spec = lambda c: sc.sample_spectral_s2(self.k_s2, self.p_s2, self.SAMPLES_S2, self.sample_seed + c)
        st = lambda c: sc.sample_factorized(self.k_st, self.p_st, self.SAMPLES_ST, self.sample_seed + c)
        ps = lambda c: sc.sample_factorized(self.k_ps, self.p_ps, self.SAMPLES_PS, self.sample_seed + c)
        self.ops = [
            Op("sample_factorized_s2", fact, lambda out, c: self._check(out, c, 0, "s2", gram=True)),
            Op("sample_spectral_s2", spec, lambda out, c: self._check(out, c, 1, "spectral", gram=False)),
            Op("sample_sphere_time", st, lambda out, c: self._check(out, c, 2, "st", gram=True)),
            Op("sample_product", ps, lambda out, c: self._check(out, c, 3, "ps", gram=True)),
            # Same call as op 1: its output must be byte-identical. Repeating
            # the slowest kind puts both the median and the tail rank inside
            # one kind's latencies instead of at the edge between two kinds.
            Op("sample_spectral_s2", spec, self._check_rerun),
        ]
        # Warm-up: one full-size op of each kind, so allocator, BLAS threads
        # and lazily loaded code are ready before the first timed op.
        for op in self.ops[:4]:
            op.run(-1)

    # Covariance oracle at index pairs (i, j) of the op's point set.
    def _oracle(self, which: str, i, j):
        if which == "s2":
            cos = _cosines(self.p_s2.points[i], self.p_s2.points[j])
            return oracles.sphere_kernel(self.raw_s2, 0.5, cos), self.raw_s2.size
        if which == "st":
            cos = _cosines(self.p_st.space.points[i], self.p_st.space.points[j])
            lag = self.p_st.times[i] - self.p_st.times[j]
            return oracles.sphere_time_kernel(self.terms_st, 0.5, cos, lag), len(self.terms_st)
        cos1 = _cosines(self.p_ps.first.points[i], self.p_ps.first.points[j])
        cos2 = _cosines(self.p_ps.second.points[i], self.p_ps.second.points[j])
        return oracles.product_kernel(self.m_ps, 0.5, 0.0, cos1, cos2), self.m_ps.size

    def _subset(self, which: str, idx):
        if which == "s2":
            return self.k_s2, sc.SpherePointSet(2, self.p_s2.points[idx])
        if which == "st":
            space = sc.SpherePointSet(2, self.p_st.space.points[idx])
            return self.k_st, sc.SpaceTimePointSet(space=space, times=self.p_st.times[idx])
        first = sc.SpherePointSet(2, self.p_ps.first.points[idx])
        second = sc.SpherePointSet(1, self.p_ps.second.points[idx])
        return self.k_ps, sc.ProductPointSet(first=first, second=second)

    def _check(self, sample, cycle, pos, which, gram):
        values = sample.values
        if which == "spectral":
            self._spectral_values = values.tobytes()
            which = "s2"
        n = {"s2": self.PTS_S2, "st": self.PTS_ST, "ps": self.PTS_PS}[which]
        s = {"s2": self.SAMPLES_S2, "st": self.SAMPLES_ST, "ps": self.SAMPLES_PS}[which]
        if values.shape != (s, n):
            return f"sample shape {values.shape}, expected {(s, n)}"
        if not np.all(np.isfinite(values)):
            return "non-finite sample values"
        rng = np.random.default_rng([self.seed, cycle + 1, pos])
        i = np.concatenate([rng.integers(0, n, self.Z_PAIRS), rng.integers(0, n, self.Z_DIAG)])
        j = np.concatenate([rng.integers(0, n, self.Z_PAIRS), i[self.Z_PAIRS:]])
        k_ij, _ = self._oracle(which, i, j)
        k_ii, _ = self._oracle(which, i, i)
        k_jj, _ = self._oracle(which, j, j)
        emp = np.einsum("si,si->i", values[:, i], values[:, j]) / s
        z = np.abs(emp - k_ij) / np.sqrt((k_ii * k_jj + k_ij**2) / s)
        if z.max() > self.Z_LIMIT:
            return f"empirical covariance off by {z.max():.1f} standard errors"
        if gram:
            idx = np.sort(rng.choice(n, self.GRAM_CHECK_POINTS, replace=False))
            kernel, subset = self._subset(which, idx)
            g = sc.gram(kernel, subset).entries
            ii, jj = np.meshgrid(idx, idx, indexing="ij")
            expect, terms = self._oracle(which, ii.ravel(), jj.ravel())
            expect = expect.reshape(g.shape)
            tol = oracles.tolerance(terms, float(np.abs(expect).max()))
            if not np.array_equal(g, g.T):
                return "Gram matrix not symmetric"
            err = float(np.abs(g - expect).max())
            if err > tol:
                return f"Gram entries differ from the scipy oracle by {err:.3e} > {tol:.3e}"
        return None

    def _check_rerun(self, sample, cycle):
        if self._spectral_values is None or sample.values.tobytes() != self._spectral_values:
            return "rerun of sample_spectral_s2 is not byte-identical"
        return None

    def meta(self) -> dict:
        """Computed working-set sizes (MiB) of the large arrays of each op."""
        n, s, big_n = self.PTS_S2, self.SAMPLES_S2, self.N_S2
        pairs = n * (n + 1) // 2
        n_st, n_ps = self.PTS_ST, self.PTS_PS
        m, k = self.SHAPE_PS
        return {
            "working_set_mib_computed": {
                "sample_factorized_s2": {
                    "eval_sequence_table": _mib((big_n + 1) * pairs * 8),
                    "gram": _mib(n * n * 8),
                    "factor": _mib(n * n * 8),
                    "normals_and_values": _mib(2 * s * n * 8),
                },
                "sample_spectral_s2": {
                    "legendre_table": _mib((big_n + 1) ** 2 * n * 8),
                    "harmonics_table": _mib((big_n + 1) ** 2 * n * 8),
                    "normals": _mib(s * (big_n + 1) ** 2 * 8),
                    "values": _mib(s * n * 8),
                },
                "sample_sphere_time": {
                    "eval_sequence_table": _mib((self.N_ST + 1) * (n_st * (n_st + 1) // 2) * 8),
                    "gram": _mib(n_st * n_st * 8),
                    "normals_and_values": _mib(2 * self.SAMPLES_ST * n_st * 8),
                },
                "sample_product": {
                    "eval_sequence_tables": _mib((m + k) * (n_ps * (n_ps + 1) // 2) * 8),
                    "gram": _mib(n_ps * n_ps * 8),
                    "normals_and_values": _mib(2 * self.SAMPLES_PS * n_ps * 8),
                },
            }
        }


# ---------------------------------------------------------------- certify


class CertifyWorkload(Workload):
    """Certification and coefficient recovery through user callbacks."""

    name = "certify"
    NOMINAL_CYCLE_S = 1.3
    REFERENCE = staticmethod(interpreter_reference)
    REFERENCE_NOMINAL_S = 0.4e-3
    # The tail rank (11th largest of about 32 ops per cycle) lands among the
    # slowest op kinds only with at least this many cycles.
    MIN_CYCLES = 20
    kinds = ("certify_planted", "certify_vector", "certify_scalar", "recover_multiquadric")

    DIMENSIONS = (1, 2, 3)
    N_MAX = (10, 40, 100)
    RECOVER = ((0.5, 512), (0.5, 1024), (1.0, 512), (1.0, 1024))
    RECOVER_N_MAX = 64
    RERUN_CASE = 4

    def setup(self):
        rng = np.random.default_rng([self.seed, 2])
        self.cases = []
        for d in self.DIMENSIONS:
            basis = sc.GegenbauerBasis.from_dimension(d)
            for n_max in self.N_MAX:
                degree = min(20, n_max)
                planted = rng.uniform(0.05, 1.0, degree + 1)
                planted /= planted.sum()
                k = int(rng.integers(0, degree + 1))
                planted[k] = -float(rng.uniform(0.05, 0.5))
                valid = rng.uniform(0.05, 1.0, min(n_max // 2, 12) + 1)
                self.cases.append(
                    {
                        "basis": basis,
                        "n_max": n_max,
                        "planted": planted,
                        "planted_index": k,
                        "valid_raw": valid,
                        "valid": sc.make_sequence(valid, basis, normalize=True),
                        "seed": int(rng.integers(0, 2**31)),
                    }
                )
        self.deltas = {lam: float(rng.uniform(0.3, 0.7)) for lam in (0.5, 1.0)}
        self._rerun_expect = None
        self.use_tracer(None)

        warm = self.cases[0]
        for run in (self._planted(warm), self._vector(warm), self._scalar(warm), self._recover(0.5, 128)):
            run(-1)

    def use_tracer(self, tracer):
        """Callbacks are the benchmark's own code, so it times them itself;
        the ops are rebuilt so that they capture the wrapped callbacks."""
        self.tracer = tracer
        self.ops = []
        for i, case in enumerate(self.cases):
            self.ops.append(Op("certify_planted", self._planted(case), self._check_planted(case)))
            self.ops.append(Op("certify_vector", self._vector(case), self._check_vector(case)))
            self.ops.append(Op("certify_scalar", self._scalar(case), self._check_scalar(case)))
            if i % 2 == 1:
                lam, order = self.RECOVER[i // 2]
                self.ops.append(Op("recover_multiquadric", self._recover(lam, order), self._check_recover(lam)))
        # Same call as the certify_scalar op of case RERUN_CASE, earlier in the cycle.
        self.ops.append(Op("certify_scalar", self._scalar(self.cases[self.RERUN_CASE]), self._check_rerun))

    def _callback(self, kind, fn):
        return fn if self.tracer is None else self.tracer.wrap(f"callback.{kind}", fn, _callback_work)

    # Callbacks. The planted function is scalar-only (float() of the sum);
    # kernel_eval and the multiquadric accept arrays; math.exp raises on them.
    def _planted(self, case):
        lam, coeffs = case["basis"].lam, case["planted"]
        g = self._callback("scalar", lambda x: float(coeffs @ oracles.zonal(lam, coeffs.size - 1, x)))
        return lambda c: sc.certify(g, case["basis"], n_max=case["n_max"], seed=case["seed"])

    def _vector(self, case):
        seq = case["valid"]
        g = self._callback("vector", lambda x: sc.kernel_eval(seq, x))
        return lambda c: sc.certify(g, case["basis"], n_max=case["n_max"], seed=case["seed"])

    def _scalar(self, case):
        g = self._callback("scalar", lambda x: math.exp(x - 1.0))
        return lambda c: sc.certify(g, case["basis"], n_max=case["n_max"], seed=case["seed"])

    def _recover(self, lam, order):
        delta = self.deltas[lam]
        g = self._callback("vector", lambda x: oracles.multiquadric(delta, lam, x))
        basis = sc.GegenbauerBasis.from_index(lam)
        return lambda c: sc.recover_coefficients(g, basis, self.RECOVER_N_MAX, order)

    def _check_planted(self, case):
        def check(cert, cycle):
            if cert.verdict != sc.NOT_PD or not cert.witness or cert.witness.get("kind") != "coefficient":
                return f"planted negative got verdict {cert.verdict} witness {cert.witness}"
            k = case["planted_index"]
            if cert.witness["index"] != k:
                return f"witness index {cert.witness['index']}, planted {k}"
            tol = oracles.tolerance(case["n_max"] + 1, float(np.abs(case["planted"]).sum()))
            if abs(cert.witness["value"] - case["planted"][k]) > tol:
                return f"witness value {cert.witness['value']!r}, planted {case['planted'][k]!r}"
            return None

        return check

    def _check_vector(self, case):
        truth = np.zeros(case["n_max"] + 1)
        truth[: case["valid_raw"].size] = case["valid_raw"]

        def check(cert, cycle):
            if cert.verdict != sc.PD:
                return f"valid kernel got verdict {cert.verdict}"
            err = float(np.abs(cert.coefficients - truth).max())
            tol = oracles.tolerance(case["n_max"] + 1, float(truth.sum()))
            if err > tol:
                return f"coefficients off by {err:.3e} > {tol:.3e}"
            return None

        return check

    def _check_scalar(self, case):
        truth = oracles.exp_coefficients(case["basis"].lam, case["n_max"])
        tail = float(truth[np.arange(truth.size) > case["n_max"] / 2].sum())
        expected = sc.PD if tail <= sc.schoenberg.DEFAULT_COEFF_TOL / 10 else sc.INCONCLUSIVE

        def check(cert, cycle):
            if cert.verdict != expected:
                return f"exp(x-1) got verdict {cert.verdict}, expected {expected}"
            err = float(np.abs(cert.coefficients - truth).max())
            tol = oracles.tolerance(case["n_max"] + 1, 1.0)
            if err > tol:
                return f"exp coefficients off by {err:.3e} > {tol:.3e}"
            if case is self.cases[self.RERUN_CASE]:
                self._rerun_expect = json.dumps(cert.to_dict())
            return None

        return check

    def _check_rerun(self, cert, cycle):
        if self._rerun_expect is None or json.dumps(cert.to_dict()) != self._rerun_expect:
            return "rerun of certify_scalar is not byte-identical"
        return None

    def _check_recover(self, lam):
        truth = oracles.multiquadric_coefficients(self.deltas[lam], lam, self.RECOVER_N_MAX)

        def check(coeffs, cycle):
            err = float(np.abs(coeffs - truth).max())
            tol = oracles.tolerance(self.RECOVER_N_MAX + 1, 1.0)
            if err > tol:
                return f"multiquadric coefficients off by {err:.3e} > {tol:.3e}"
            return None

        return check


def _callback_work(args, kwargs):
    return int(np.size(args[0])), 0


# ---------------------------------------------------------------- cli


class CliWorkload(Workload):
    """Each op is a fresh `python -m spherecov` process, one at a time."""

    name = "cli"
    NOMINAL_CYCLE_S = 9.0
    # With fewer cycles the per-position medians rest on too few samples to
    # repeat run to run, so a cli run measures about 30 s at --seconds 20.
    MIN_CYCLES = 3
    kinds = (
        "cli_eval_point",
        "cli_eval_grid",
        "cli_coeffs_expr",
        "cli_coeffs_table",
        "cli_certify_xsquared",
        "cli_certify_expcos",
        "cli_separable_product",
        "cli_separable_sphere_time",
        "cli_simulate_factorized",
        "cli_simulate_spectral",
        "cli_simulate_sphere_time",
        "cli_simulate_product",
    )

    GRID = 170
    SIM_POINTS, SIM_SAMPLES = 300, 400
    CHILD_TIMEOUT_S = 60.0

    def __init__(self, seed, workdir, src_dir):
        super().__init__(seed, workdir)
        self.src_dir = src_dir
        self.max_child_rss_kib = 0
        self.output_bytes = 0
        self._expected = {}
        self._rerun_bytes = None

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def use_tracer(self, tracer):
        self.tracer = tracer
        self.output_bytes = 0

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        env = {k: v for k, v in os.environ.items() if k != "SPHERECOV_SEED"}
        rest = env.get("PYTHONPATH")
        env["PYTHONPATH"] = self.src_dir + (os.pathsep + rest if rest else "")
        self.env = env

        def write_json(name, doc):
            with open(self._path(name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

        write_json("sphere.json", {"kind": "sphere", "d": 2, "coeffs": rng.uniform(0.05, 1.0, 31).tolist()})
        terms = []
        for n in range(21):
            family = FAMILIES[n % len(FAMILIES)]
            params = _random_charfn_params(rng, family)
            terms.append({"a": float(rng.uniform(0.05, 1.0)), "charfn": {"family": family, "params": params}})
        write_json("sphere_time.json", {"kind": "sphere_time", "d": 2, "terms": terms})
        u, v = rng.uniform(0.2, 1.0, 21), rng.uniform(0.2, 1.0, 11)
        write_json("product.json", {"kind": "product_spheres", "d1": 2, "d2": 1, "matrix": np.outer(u, v).tolist()})

        self.delta = float(rng.uniform(0.3, 0.45))
        xs = np.cos(np.linspace(np.pi, 0.0, 400))
        with open(self._path("table.csv"), "w", encoding="utf-8") as fh:
            fh.writelines(f"{float(x)!r},{float(oracles.multiquadric(self.delta, 1.0, x))!r}\n" for x in xs)

        n = self.SIM_POINTS
        space = np.array(sc.uniform_sphere_points(2, n, int(rng.integers(0, 2**31))).points)
        times = rng.uniform(0.0, 1.0, n)
        with open(self._path("points_st.csv"), "w", encoding="utf-8") as fh:
            fh.writelines(",".join(repr(float(c)) for c in (*p, t)) + "\n" for p, t in zip(space, times))
        first = np.array(sc.uniform_sphere_points(2, n, int(rng.integers(0, 2**31))).points)
        second = np.array(sc.uniform_sphere_points(1, n, int(rng.integers(0, 2**31))).points)
        with open(self._path("points_ps.csv"), "w", encoding="utf-8") as fh:
            fh.writelines(",".join(repr(float(c)) for c in (*p, *q)) + "\n" for p, q in zip(first, second))

        self.x = float(rng.uniform(-1.0, 1.0))
        self.cert_seed = int(rng.integers(0, 2**31))
        self.sim_seed = int(rng.integers(0, 2**31))
        sim = ["--samples", str(self.SIM_SAMPLES), "--seed", str(self.sim_seed)]
        self.commands = {
            "cli_eval_point": ["eval", "sphere.json", "--x", repr(self.x)],
            "cli_eval_grid": ["eval", "sphere_time.json", "--grid", str(self.GRID)],
            "cli_coeffs_expr": ["coeffs", "--lambda", "0.5", "--nmax", "40", "--expr", "legendre3"],
            "cli_coeffs_table": ["coeffs", "--lambda", "1", "--nmax", "40", "--table", "table.csv"],
            "cli_certify_xsquared": ["certify", "--lambda", "1", "--nmax", "30", "--expr", "xsquared",
                                     "--seed", str(self.cert_seed)],
            "cli_certify_expcos": ["certify", "--lambda", "0.5", "--nmax", "30", "--expr", "expcos",
                                   "--seed", str(self.cert_seed)],
            "cli_separable_product": ["separable", "product.json"],
            "cli_separable_sphere_time": ["separable", "sphere_time.json"],
            "cli_simulate_factorized": ["simulate", "sphere.json", "--random", str(n), *sim],
            "cli_simulate_spectral": ["simulate", "sphere.json", "--random", str(n), "--method", "spectral",
                                      *sim, "--out", "spectral.csv"],
            "cli_simulate_sphere_time": ["simulate", "sphere_time.json", "--points", "points_st.csv", *sim],
            "cli_simulate_product": ["simulate", "product.json", "--points", "points_ps.csv", *sim,
                                     "--out", "product.csv"],
        }
        self.ops = [Op(kind, self._runner(kind), self._checker(kind)) for kind in self.kinds]
        # Same command again: stdout must be byte-identical to the first run's.
        self.ops.append(Op("cli_simulate_factorized", self._runner("cli_simulate_factorized"), self._check_rerun))

        # Warm-up: one child, which also byte-compiles the package.
        result = self._spawn(self.commands["cli_eval_point"], traced=False)
        if result["code"] != 0:
            raise RuntimeError(f"warm-up CLI run failed with exit code {result['code']}: {result['stderr']}")

    def _spawn(self, argv, traced):
        out_name = argv[argv.index("--out") + 1] if "--out" in argv else None
        stdout_path, stderr_path = self._path("stdout.txt"), self._path("stderr.txt")
        spans_path = self._path("spans.json")
        if traced:
            cmd = [sys.executable, LAUNCHER, spans_path, "0", *argv]
        else:
            cmd = [sys.executable, "-m", "spherecov", *argv]
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            if traced:
                cmd[3] = str(now_ns())
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(self.CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        with open(stderr_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        file_bytes = None
        if out_name is not None and proc.returncode == 0:
            with open(self._path(out_name), "rb") as fh:
                file_bytes = fh.read()
        result = {
            "code": proc.returncode,
            "stdout": stdout,
            "file": file_bytes,
            "stderr": stderr.splitlines()[0] if stderr.strip() else "",
            "rss_kib": usage.ru_maxrss,
        }
        if traced:
            result["spans"] = self._read_spans(spans_path)
        return result

    @staticmethod
    def _read_spans(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return []
        finally:
            if os.path.exists(path):
                os.unlink(path)

    def _runner(self, kind):
        argv = self.commands[kind]

        def run(cycle):
            traced = self.tracer is not None
            result = self._spawn(argv, traced)
            if traced:
                self._attach_spans(result["spans"])
            else:
                self.max_child_rss_kib = max(self.max_child_rss_kib, result["rss_kib"])
            self.output_bytes += len(result["stdout"]) + len(result["file"] or b"")
            return result

        return run

    def _attach_spans(self, rows):
        """Add the launcher's spans under the op span that is open now."""
        tracer = self.tracer
        op_span = tracer.current()
        base = len(tracer.names)
        for name, start, end, parent, count, nbytes in rows:
            tracer.add(name, start, end, op_span if parent < 0 else base + parent, count, nbytes)

    def peak_rss_mb(self) -> float:
        return self.max_child_rss_kib / 1024.0

    def layer_extras(self, cycles: int) -> dict:
        return {"cli.output_bytes": self.output_bytes / cycles}

    # -------------------------------------------------------- checks

    def _checker(self, kind):
        parse = {
            "cli_eval_point": self._check_eval_point,
            "cli_eval_grid": self._check_eval_grid,
            "cli_coeffs_expr": self._check_coeffs,
            "cli_coeffs_table": self._check_coeffs,
            "cli_certify_xsquared": self._check_certify,
            "cli_certify_expcos": self._check_certify,
            "cli_separable_product": self._check_separable,
            "cli_separable_sphere_time": self._check_separable,
            "cli_simulate_factorized": self._check_simulate,
            "cli_simulate_spectral": self._check_simulate,
            "cli_simulate_sphere_time": self._check_simulate,
            "cli_simulate_product": self._check_simulate,
        }[kind]

        def check(result, cycle):
            if result["code"] != 0:
                return f"exit code {result['code']}: {result['stderr']}"
            try:
                return parse(kind, result)
            except (ValueError, KeyError, IndexError) as exc:
                return f"unparsable output: {type(exc).__name__}: {exc}"

        return check

    def _check_rerun(self, result, cycle):
        if result["code"] != 0:
            return f"exit code {result['code']}: {result['stderr']}"
        if result["stdout"] != self._rerun_bytes:
            return "rerun of cli_simulate_factorized is not byte-identical"
        return None

    def _expect(self, kind, compute):
        if kind not in self._expected:
            self._expected[kind] = compute()
        return self._expected[kind]

    def _kernel(self, spec):
        return sc.read_kernel_file(self._path(spec))

    @staticmethod
    def _compare(what, got, expect, terms):
        got, expect = np.asarray(got, dtype=float), np.asarray(expect, dtype=float)
        if got.shape != expect.shape:
            return f"{what}: shape {got.shape}, expected {expect.shape}"
        tol = oracles.tolerance(terms, float(np.abs(expect).max()))
        err = float(np.abs(got - expect).max())
        return f"{what}: differs from the library by {err:.3e} > {tol:.3e}" if err > tol else None

    def _check_eval_point(self, kind, result):
        x_text, value = result["stdout"].decode().strip().split(",")
        kernel = self._kernel("sphere.json")
        expect = self._expect(kind, lambda: sc.kernel_eval(kernel, float(x_text)))
        return self._compare("eval --x", float(value), expect, kernel.coeffs.size)

    def _check_eval_grid(self, kind, result):
        rows = np.array(result["stdout"].decode().split(), dtype=object)
        if rows.size != self.GRID**2:
            return f"eval --grid: {rows.size} rows, expected {self.GRID**2}"
        table = np.array([r.split(",") for r in rows], dtype=float)
        kernel = self._kernel("sphere_time.json")
        expect = self._expect(kind, lambda: sc.st_kernel_eval(kernel, table[:, 0], table[:, 1]))
        return self._compare("eval --grid", table[:, 2], expect, len(kernel.charfns))

    def _check_coeffs(self, kind, result):
        lines = result["stdout"].decode().split()
        got = np.array([float(line.split(",")[1]) for line in lines])
        basis = sc.GegenbauerBasis.from_index(0.5 if kind == "cli_coeffs_expr" else 1.0)

        def compute():
            if kind == "cli_coeffs_expr":
                g = lambda x: 0.5 * (5.0 * x**3 - 3.0 * x)
            else:
                tab = np.loadtxt(self._path("table.csv"), delimiter=",")
                g = PchipInterpolator(tab[:, 0], tab[:, 1], extrapolate=False)
            return sc.recover_coefficients(g, basis, 40, 82)

        return self._compare(kind, got, self._expect(kind, compute), 82)

    def _check_certify(self, kind, result):
        doc = json.loads(result["stdout"])
        lam = 1.0 if kind == "cli_certify_xsquared" else 0.5
        g = (lambda x: x * x) if kind == "cli_certify_xsquared" else (lambda x: math.exp(x - 1.0))
        basis = sc.GegenbauerBasis.from_index(lam)
        expect = self._expect(kind, lambda: sc.certify(g, basis, n_max=30, seed=self.cert_seed))
        if doc["verdict"] != sc.PD or expect.verdict != sc.PD:
            return f"verdict {doc['verdict']}, library {expect.verdict}, expected PD"
        return self._compare(kind, doc["coefficients"], expect.coefficients, 31)

    def _check_separable(self, kind, result):
        doc = json.loads(result["stdout"])
        if kind == "cli_separable_sphere_time":
            expect = self._expect(kind, lambda: sc.is_separable(self._kernel("sphere_time.json"), 1e-12))
            if doc != {"separable": expect}:
                return f"separable: {doc}, library {expect}"
            return None
        expect = self._expect(kind, lambda: sc.separability_test(self._kernel("product.json"), 1e-9))
        if not doc["separable"] or not isinstance(expect, sc.Separable):
            return f"rank-one product spec reported {doc['separable']}"
        return self._compare(
            kind, doc["row_factors"] + doc["col_factors"], np.concatenate([expect.row_factors, expect.col_factors]), 1
        )

    def _check_simulate(self, kind, result):
        text = (result["file"] if result["file"] is not None else result["stdout"]).decode()
        if kind == "cli_simulate_factorized":
            self._rerun_bytes = result["stdout"]
        lines = text.splitlines()
        header = [line for line in lines if line.startswith("#")]
        rows = [line for line in lines if not line.startswith("#")][1:]
        if len(rows) != self.SIM_SAMPLES:
            return f"simulate: {len(rows)} sample rows, expected {self.SIM_SAMPLES}"
        values = np.array(",".join(r.split(",", 1)[1] for r in rows).split(","), dtype=float)
        values = values.reshape(self.SIM_SAMPLES, -1)
        if values.shape[1] != self.SIM_POINTS:
            return f"simulate: {values.shape[1]} points, expected {self.SIM_POINTS}"
        coords = np.array(
            [line.split(": ", 1)[1].split(",") for line in header if line.startswith("# point_")], dtype=float
        )
        spec = self.commands[kind][1]
        kernel = self._kernel(spec)

        def compute():
            if spec == "sphere.json":
                points = sc.SpherePointSet(2, coords)
                if kind == "cli_simulate_spectral":
                    return sc.sample_spectral_s2(kernel, points, self.SIM_SAMPLES, self.sim_seed).values
            elif spec == "sphere_time.json":
                points = sc.SpaceTimePointSet(space=sc.SpherePointSet(2, coords[:, :3]), times=coords[:, 3])
            else:
                points = sc.ProductPointSet(
                    first=sc.SpherePointSet(2, coords[:, :3]), second=sc.SpherePointSet(1, coords[:, 3:])
                )
            return sc.sample_factorized(kernel, points, self.SIM_SAMPLES, self.sim_seed).values

        expect = self._expect(kind, compute)
        return self._compare(kind, values, expect, self.SIM_POINTS)


def make(name: str, seed: int, workdir: str, src_dir: str) -> Workload:
    if name == "fields":
        return FieldsWorkload(seed, workdir)
    if name == "certify":
        return CertifyWorkload(seed, workdir)
    if name == "cli":
        return CliWorkload(seed, workdir, src_dir)
    raise ValueError(f"unknown workload {name!r}")
