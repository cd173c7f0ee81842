"""The three workloads and the loop that measures them.

Every workload reports the same end-to-end metrics, so that each run
prints all of them: `setup_s`, `peak_rss_mb`, `pass_s` (one whole pass)
and `stage1_s`..`stage3_s`, the three stages a pass runs in order. ALIASES
gives each one's name in the workload's own terms.

A pass is one closed-loop round of the same operations; each call starts
when the previous one has returned. Outputs of the first pass are checked
in full; a later pass's output is checked again only if it differs bit for
bit from the first pass's. Operation times are taken around the library
call or the CLI child alone, so checking never enters them.

The host's speed drifts by 10-30 % over tens of seconds, moving every
operation of a run together. So that runs made at different moments
compare, a fixed calibration kernel is timed at the start and end of
every pass and set-up and between operations about once a second, and
each pass's and set-up's times are scaled by CAL_REF_S over the kernel's
time averaged over that interval: they read as times on a host where the
kernel takes CAL_REF_S.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import geninv
from geninv.errors import DomainError, NumericError
from geninv.reference import PAIR_4X3_A, PAIR_4X3_W

import checks
import inputs
import tracing

# A run measures whole passes until the next one would end after
# `--seconds`, and at least this many.
MIN_PASSES = 2
# Set-up repetitions per run; setup_s is their median.
SETUPS = 5
# Median time of the calibration kernel on the host of the reference
# figures (perfbench/README.md), and the spacing of its samples.
CAL_REF_S = 0.048
CAL_EVERY_S = 1.0
_CAL_MATRIX = np.random.default_rng(0).standard_normal((96, 96)) + 0j


def calibration_s() -> float:
    """Time of a fixed kernel, Fraction arithmetic and small complex SVDs
    like the work of the workloads, that involves no geninv code."""
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 3000):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    for _ in range(6):
        np.linalg.svd(_CAL_MATRIX)
    return perf_counter() - t0

ALIASES = {
    "conformance": {
        "pass_s": "conformance.run_s: one run_all(seed=1, count=100, max_dim=8)",
        "stage1_s": "run_example_checks(), the reference-pair part of run_all",
        "stage2_s": "random_pairs(1, 100, 8), the corpus run_all generates",
        "stage3_s": "run_all minus stages 1 and 2: the corpus member checks",
        "peak_rss_mb": "conformance.peak_rss_mb",
    },
    "float-family": {
        "pass_s": "one pass over every input",
        "stage1_s": "float-family.n32_s",
        "stage2_s": "float-family.n128_s",
        "stage3_s": "float-family.n256_s",
        "peak_rss_mb": "float-family.peak_rss_mb",
    },
    "cli": {
        "pass_s": "one pass over every call",
        "stage1_s": "cli.startup_call_s: median call (a)",
        "stage2_s": "cli.float_s: calls (b)",
        "stage3_s": "cli.exact_s: calls (c), mean of two rounds",
        "peak_rss_mb": "peak resident memory of the largest CLI call",
    },
}


def _fingerprint(out) -> bytes:
    h = hashlib.blake2b(digest_size=16)

    def feed(v):
        if isinstance(v, np.ndarray):
            h.update(repr((v.dtype, v.shape)).encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (tuple, list)):
            for x in v:
                feed(x)
        elif dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, bytes):
            h.update(v)
        else:
            h.update(repr(v).encode())

    feed(out)
    return h.digest()


def _too_big(residual: float, tol: float = checks.TOL) -> str | None:
    return None if residual <= tol else f"residual {residual:.3e} above {tol:.0e}"


def _first_problem(*problems) -> str | None:
    return next((p for p in problems if p), None)


class Workload:
    name = ""

    def __init__(self, seed: int, root: Path):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.errors: list[str] = []
        self._seen: dict[str, bytes] = {}
        self.stage_time = Counter()
        self.warming_up = False
        self.traced = False
        self.calibrations: list[tuple[float, float]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> dict[str, float]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def install_tracer(self) -> tracing.Tracer:
        self.traced = True
        tracer = tracing.Tracer()
        tracer.install()
        return tracer

    def import_s(self) -> float:
        return 0.0

    def trace_overhead(self, untraced: float, traced: float) -> float:
        return traced - untraced

    def close(self) -> None:
        pass

    def calibrate(self) -> None:
        """Time the calibration kernel; keeps (moment, time) pairs."""
        self.calibrations.append((perf_counter(), calibration_s()))

    def tick(self) -> None:
        """Calibrate if a second has passed since the last calibration."""
        if not self.calibrations or perf_counter() - self.calibrations[-1][0] >= CAL_EVERY_S:
            self.calibrate()

    def scaled(self, fn):
        """Run fn() between two calibrations; returns its times scaled to
        CAL_REF_S, with the kernel's time averaged over the interval (each
        gap between samples weighted by its length), and unscaled."""
        first = len(self.calibrations)
        self.calibrate()
        raw = fn()
        self.calibrate()
        samples = self.calibrations[first:]
        area = sum((tb - ta) * (ca + cb) / 2
                   for (ta, ca), (tb, cb) in zip(samples, samples[1:]))
        factor = CAL_REF_S * (samples[-1][0] - samples[0][0]) / area
        return {k: v * factor for k, v in raw.items()}, raw

    def observe(self, key: str, out, check) -> None:
        """Check `out` unless it equals, bit for bit, an output already checked."""
        if self.warming_up:
            return
        fp = _fingerprint(out)
        if self._seen.get(key) != fp:
            problem = check(out)
            if problem:
                self.problems.append(f"{self.name} {key}: {problem}")
            self._seen[key] = fp

    def timed(self, stage: str, key: str, fn, *args, check):
        """One library call: time it, count it, check its output."""
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a library error fails this operation only
            self.stage_time[stage] += perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{self.name} {key}: {type(exc).__name__}: {exc}")
            self.tick()
            return None
        self.stage_time[stage] += perf_counter() - t0
        self.observe(key, out, check)
        self.tick()
        return out


class Conformance(Workload):
    """The conformance runner users re-verify with.

    The run is fixed at seed 1, the same as `geninv verify all --seed 1
    --count 100`: `--seed` does not change it. Over corpus seeds 1-6 one
    run took 13.5-16.9 s here, a spread that would hide any change
    smaller than that. Its two short parts, the reference-pair checks and
    the corpus generation, are also timed as blocks of repeated calls:
    inside one run_all each is a single sample of 0.04-0.2 s, and samples
    that short spread by a third of their median from run to run here.
    """

    name = "conformance"
    EXAMPLE_REPEATS = 10
    CORPUS_REPEATS = 20

    def setup(self) -> None:
        geninv.run_all(seed=1, count=3, max_dim=8)

    def run_pass(self) -> dict[str, float]:
        self.stage_time.clear()
        self.timed("pass_s", "run_all", geninv.run_all, 1, 100, 8,
                   check=lambda r: checks.conformance(r, checks.CONFORMANCE_CHECKS))
        total = self.stage_time["pass_s"]
        if self.traced:
            return {"pass_s": total}
        for _ in range(self.EXAMPLE_REPEATS):
            self.timed("stage1_s", "examples", geninv.run_example_checks,
                       check=lambda r: checks.conformance(r, checks.EXAMPLE_CHECKS))
        for _ in range(self.CORPUS_REPEATS):
            self.timed("stage2_s", "corpus", geninv.corpus.random_pairs, 1, 100, 8,
                       check=checks.corpus_cycle)
        examples = self.stage_time["stage1_s"] / self.EXAMPLE_REPEATS
        corpus = self.stage_time["stage2_s"] / self.CORPUS_REPEATS
        return {"pass_s": total, "stage1_s": examples, "stage2_s": corpus,
                "stage3_s": total - examples - corpus}


class FloatFamily(Workload):
    """Every member of the family on seeded planted inputs, float path only."""

    name = "float-family"
    # stage: (n, planted square indices, planted pair indices); pairs are
    # n x (n - n/8) with a core of n/2, squares have a core of n/2.
    GROUPS = {
        "stage1_s": (32, (0, 1, 2, 3) * 6, (1, 2, 3) * 6),
        "stage2_s": (128, (0, 1, 2, 3), (1, 2, 3)),
        "stage3_s": (256, (1, 3), (2,)),
    }
    # Index-3 squares with chain links of magnitude 1e-7, drawn from fixed
    # seeds. matrix_index returns 2 for them with no warning; each counts
    # as failed until it returns 3 or raises NumericError/DomainError.
    ADVERSARIAL = 4

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.squares, self.pairs = [], []
        for stage, (n, square_ks, pair_ks) in self.GROUPS.items():
            for i, k in enumerate(square_ks):
                t = n if k == 0 else n // 2
                a = inputs.planted_square(rng, n, t, k)
                self.squares.append((stage, f"n{n}.sq{i}", a, t, k))
            for i, k in enumerate(pair_ks):
                a, w = inputs.planted_pair(rng, n, n - n // 8, n // 2, k)
                self.pairs.append((stage, f"n{n}.pair{i}", a, w, n // 2, k))
        self.adversarial = [
            inputs.planted_square(np.random.default_rng([0xADD, i]), 32, 16, 3, chain=1e-7)
            for i in range(self.ADVERSARIAL)]
        # warm-up: every code path at n = 32, and LAPACK at the larger sizes
        self.warming_up = True
        for stage, key, a, t, k in self.squares[:4]:
            self._square(stage, "warm-up." + key, a, t, k)
        for stage, key, a, w, t, k in self.pairs[:3]:
            self._pair(stage, "warm-up." + key, a, w, t, k)
        for n in (128, 256):
            geninv.pinv(np.eye(n, dtype=np.complex128))
        self.warming_up = False
        self.attempted = self.failed = 0

    def _square(self, stage, key, a, t, k) -> None:
        T = self.timed
        T(stage, key + ".index", geninv.matrix_index, a,
          check=lambda r: None if r.index == k else f"index {r.index}, planted {k}")
        T(stage, key + ".pinv", geninv.pinv, a,
          check=lambda x: _first_problem(
              _too_big(checks.agreement(x, checks.pinv(a)), checks.ROUTE_TOL),
              _too_big(checks.penrose(a, x))))
        T(stage, key + ".drazin", geninv.drazin, a,
          check=lambda x: _too_big(checks.drazin(a, x, k)))
        T(stage, key + ".core_ep", geninv.core_ep, a,
          check=lambda x: _too_big(checks.penrose(checks.qbt_operand(a, k), x)))
        direct = {}
        for q in range(k + 2):
            def check_qbt(x, q=q):
                first = _too_big(checks.agreement(x, checks.pinv(a)), checks.ROUTE_TOL) \
                    if q == 0 else None
                return first or _too_big(checks.penrose(checks.qbt_operand(a, q), x))
            direct[q] = T(stage, f"{key}.qbt{q}", geninv.qbt_inverse, a, q, check=check_qbt)
        if k <= 1:
            T(stage, key + ".group", geninv.group_inverse, a,
              check=lambda x: _too_big(checks.drazin(a, x, 1)))
            T(stage, key + ".core", geninv.core_inverse, a,
              check=lambda x: _too_big(checks.core_inverse(a, x)))
        d = T(stage, key + ".decompose", geninv.core_ep_decompose, a,
              check=lambda d: _first_problem(
                  None if (d.index, d.rank) == (k, t) else
                  f"index {d.index}, rank {d.rank}, planted {k}, {t}",
                  _too_big(checks.core_ep_decomposition(a, d.u, d.t, d.s, d.nil, k))))
        for q in range(k + 2):
            T(stage, f"{key}.canonical{q}", geninv.canonical_qbt, d, q,
              check=lambda x, q=q: _too_big(checks.agreement(x, direct[q]), checks.ROUTE_TOL))

    def _pair(self, stage, key, a, w, t, k) -> None:
        T = self.timed
        p = T(stage, key + ".pair", geninv.WeightedPair.from_matrices, a, w,
              check=lambda p: None if (p.ind_aw, p.ind_wa, p.k) == (k, k, k)
              else f"indices {(p.ind_aw, p.ind_wa, p.k)}, planted {k}")
        direct = {}
        for q in range(k + 2):
            def check_wqbt(x, q=q):
                first = _too_big(checks.agreement(x, checks.pinv(w @ a @ w)),
                                 checks.ROUTE_TOL) if q == 0 else None
                return first or _too_big(checks.penrose(checks.wqbt_operand(a, w, q), x))
            direct[q] = T(stage, f"{key}.wqbt{q}", geninv.weighted_qbt, p, q, check=check_wqbt)
        T(stage, key + ".wdrazin", geninv.weighted_drazin, p,
          check=lambda x: _too_big(checks.weighted_drazin(a, w, x, k)))
        d = T(stage, key + ".decompose", geninv.weighted_core_ep_decompose, p,
              check=lambda d: _first_problem(
                  None if d.t_dim == t else f"core size {d.t_dim}, planted {t}",
                  _too_big(checks.weighted_decomposition(
                      a, w, d.u, d.v, (d.a1, d.a2, d.a3, d.w1, d.w2, d.w3)))))
        for q in range(k + 2):
            T(stage, f"{key}.canonical{q}", geninv.canonical_weighted_qbt, d, q,
              check=lambda out, q=q: _too_big(checks.agreement(out[0], direct[q]),
                                              checks.ROUTE_TOL))

    def _adversarial(self, a) -> None:
        self.attempted += 1
        t0 = perf_counter()
        try:
            index = geninv.matrix_index(a).index
        except (NumericError, DomainError):
            index = 3
        self.stage_time["stage1_s"] += perf_counter() - t0
        if index != 3:
            self.failed += 1
        self.tick()

    def run_pass(self) -> dict[str, float]:
        self.stage_time.clear()
        for args in self.squares:
            self._square(*args)
        for args in self.pairs:
            self._pair(*args)
        for a in self.adversarial:
            self._adversarial(a)
        stages = {s: self.stage_time[s] for s in self.GROUPS}
        return {"pass_s": sum(stages.values()), **stages}


def _csv(matrix) -> str:
    def entry(z):
        z = complex(z)
        if z.imag == 0:
            return repr(z.real)
        return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"
    return "\n".join(",".join(entry(z) for z in row) for row in matrix) + "\n"


def _json(matrix) -> str:
    data = [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(matrix, complex)]
    return json.dumps({"rows": len(data), "cols": len(data[0]), "data": data})


def _int_csv(matrix) -> str:
    return "\n".join(",".join(str(int(v)) for v in row) for row in matrix) + "\n"


def _int_json(matrix) -> str:
    data = [[int(v) for v in row] for row in matrix]
    return json.dumps({"rows": len(data), "cols": len(data[0]), "data": data})


class Cli(Workload):
    """The CLI as users run it: one `python -m geninv` child per call."""

    name = "cli"
    STARTUP_REPEATS = 5
    EXACT_ROUNDS = 2
    # The exact inputs come from this fixed seed, whatever --seed is: at
    # these sizes the exact path's cost varied 1.3-2.3 s over seeds 11-20.
    EXACT_SEED = 0xE4AC7

    def __init__(self, seed: int, root: Path):
        super().__init__(seed, root)
        files = root / ".perfbench"
        files.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="cli-", dir=files))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None
        self.plain_s = 0.0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass

    def _write(self, name: str, text: str) -> None:
        (self.work / name).write_text(text, encoding="utf-8")

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.ref = (np.array(PAIR_4X3_A, dtype=complex), np.array(PAIR_4X3_W, dtype=complex))
        self._write("ref_a.csv", _int_csv(PAIR_4X3_A))
        self._write("ref_w.csv", _int_csv(PAIR_4X3_W))
        self.sq = inputs.planted_square(rng, 256, 128, 2)
        self._write("sq.csv", _csv(self.sq))
        self._write("sq.json", _json(self.sq))
        self.pa, self.pw = inputs.planted_pair(rng, 256, 256, 128, 2)
        self._write("pa.json", _json(self.pa))
        self._write("pw.csv", _csv(self.pw))
        rng = np.random.default_rng(self.EXACT_SEED)
        self.ia, self.iw = inputs.integer_pair(rng, 12, 10, 6, 3)
        self._write("ia.csv", _int_csv(self.ia))
        self._write("iw.csv", _int_csv(self.iw))
        self.ja, self.jw = inputs.integer_pair(rng, 14, 12, 7, 2)
        self._write("ja.json", _int_json(self.ja))
        self._write("jw.json", _int_json(self.jw))
        self.isq = inputs.integer_square(rng, 12, 6, 3)
        self._write("isq.csv", _int_csv(self.isq))
        self._call("warm-up", ["wqbt", "--q", "2", "ref_a.csv", "ref_w.csv"], check=None)
        self.attempted = self.failed = 0

    def _call(self, key: str, argv: list[str], check) -> float:
        """One CLI call as a child process; returns its wall time.

        Traced, the call runs plain and then through traced_cli.py, so that
        the tracing overhead is a paired difference, call by call.
        """
        dt = self._child(key, [sys.executable, "-m", "geninv", *argv], check)
        if not self.traced:
            return dt
        self.plain_s += dt
        out = self.work / "trace.json"
        out.unlink(missing_ok=True)
        dt = self._child(key, [sys.executable, str(TRACED_CLI), str(out), *argv], check)
        if out.exists():
            self.tracer.merge(json.loads(out.read_text(encoding="utf-8")))
        return dt

    def _child(self, key: str, cmd: list[str], check) -> float:
        self.attempted += 1
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=120)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            self.failed += 1
            self.errors.append(f"cli {key}: exit {proc.returncode}: {proc.stderr.strip()}")
        elif check is not None:
            self.observe(key, proc.stdout, check)
        self.tick()
        return dt

    def run_pass(self) -> dict[str, float]:
        startup = [self._call("a", ["wqbt", "--q", "2", "ref_a.csv", "ref_w.csv"],
                              check=self._float_check(self._wqbt_ref, "csv"))
                   for _ in range(self.STARTUP_REPEATS)]
        float_s = sum([
            self._call("b.pinv", ["pinv", "sq.csv"], check=self._float_check(
                lambda x: _first_problem(
                    _too_big(checks.agreement(x, checks.pinv(self.sq)), checks.ROUTE_TOL),
                    _too_big(checks.penrose(self.sq, x))), "csv")),
            self._call("b.core-ep", ["core-ep", "sq.json"], check=self._float_check(
                lambda x: _too_big(checks.penrose(checks.qbt_operand(self.sq, 2), x)), "json")),
            self._call("b.qbt", ["qbt", "--q", "2", "--verify", "sq.csv"], check=self._qbt_verify),
            self._call("b.wqbt", ["wqbt", "--q", "2", "pa.json", "pw.csv"], check=self._float_check(
                lambda x: _too_big(checks.penrose(checks.wqbt_operand(self.pa, self.pw, 2), x)),
                "json")),
        ])
        exact_s = sum(
            self._call("c.wqbt", ["wqbt", "--q", "2", "--exact", "ia.csv", "iw.csv"],
                       check=self._exact_penrose(self.ia, self.iw, 2, "csv"))
            + self._call("c.wcore-ep", ["wcore-ep", "--exact", "ja.json", "jw.json"],
                         check=self._exact_penrose(self.ja, self.jw, 2, "json"))
            + self._call("c.drazin", ["drazin", "--exact", "isq.csv"], check=self._exact_drazin)
            for _ in range(self.EXACT_ROUNDS))
        return {"pass_s": sum(startup) + float_s + exact_s,
                "stage1_s": statistics.median(startup), "stage2_s": float_s,
                "stage3_s": exact_s / self.EXACT_ROUNDS}

    def _wqbt_ref(self, x) -> str | None:
        a, w = self.ref
        return _too_big(checks.penrose(checks.wqbt_operand(a, w, 2), x))

    @staticmethod
    def _float_check(check, fmt: str):
        return lambda stdout: check(checks.parse_float_output(stdout, fmt))

    def _qbt_verify(self, stdout: str) -> str | None:
        matrix, residuals = checks.split_verify(stdout)
        x = checks.parse_float_output(matrix, "csv")
        if sorted(residuals) != ["penrose1", "penrose2", "penrose3", "penrose4"]:
            return f"--verify printed residuals {sorted(residuals)}"
        return _first_problem(_too_big(max(residuals.values())),
                              _too_big(checks.penrose(checks.qbt_operand(self.sq, 2), x)))

    @staticmethod
    def _exact_penrose(a, w, q: int, fmt: str):
        def check(stdout: str) -> str | None:
            b = checks.exact_wqbt_operand(checks.fmat(a), checks.fmat(w), q)
            ok = checks.exact_penrose(b, checks.parse_exact_output(stdout, fmt))
            return None if ok else "exact Penrose equations do not hold"
        return check

    def _exact_drazin(self, stdout: str) -> str | None:
        x = checks.parse_exact_output(stdout, "csv")
        ok = checks.exact_drazin(checks.fmat(self.isq), x, 3)
        return None if ok else "exact Drazin equations do not hold"

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def install_tracer(self) -> tracing.Tracer:
        self.traced = True
        self.tracer = tracing.Tracer()
        return self.tracer

    def trace_overhead(self, untraced: float, traced: float) -> float:
        return traced - self.plain_s

    def import_s(self) -> float:
        code = ("import time; t = time.perf_counter(); import geninv.cli; "
                "print(time.perf_counter() - t)")
        return statistics.median(
            float(subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                                 capture_output=True, text=True, check=True,
                                 timeout=120).stdout)
            for _ in range(3))


TRACED_CLI = Path(__file__).with_name("traced_cli.py")
WORKLOADS = {w.name: w for w in (Conformance, FloatFamily, Cli)}


def run(name: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    """One run of one workload; returns the result object the benchmark prints."""
    wl = WORKLOADS[name](seed, root)
    try:
        def timed_setup():
            t0 = perf_counter()
            wl.setup()
            return {"setup_s": perf_counter() - t0}

        setups = [wl.scaled(timed_setup) for _ in range(SETUPS)]
        if trace:
            # the first pass checks every output; the last untraced one is the reference
            untraced = [wl.run_pass() for _ in range(MIN_PASSES)][-1]["pass_s"]
            tracer = wl.install_tracer()
            traced = wl.run_pass()["pass_s"]
            metrics = tracing.layer_metrics(tracer, wl.import_s(),
                                            wl.trace_overhead(untraced, traced))
        else:
            passes = []
            start = perf_counter()
            while True:
                t0 = perf_counter()
                passes.append(wl.scaled(wl.run_pass))
                last = perf_counter() - t0
                if len(passes) >= MIN_PASSES and perf_counter() - start + last > seconds:
                    break
            metrics, unscaled = {}, {}
            for key in ("pass_s", "stage1_s", "stage2_s", "stage3_s"):
                metrics[key] = (statistics.median(p[0][key] for p in passes), "s")
                unscaled[key] = statistics.median(p[1][key] for p in passes)
            metrics["setup_s"] = (statistics.median(p[0]["setup_s"] for p in setups), "s")
            unscaled["setup_s"] = statistics.median(p[1]["setup_s"] for p in setups)
            metrics["peak_rss_mb"] = (wl.peak_rss_mb(), "MB")
            print(f"{name} passes = {len(passes)}, calibrations = {len(wl.calibrations)}, "
                  f"median kernel time {statistics.median(c for _, c in wl.calibrations):.4f} s "
                  f"(reference {CAL_REF_S} s)")
            print(f"{name} unscaled: " + ", ".join(f"{k} = {v:.6g} s" for k, v in unscaled.items()))
        for key, (value, unit) in metrics.items():
            alias = ALIASES[name].get(key, "")
            print(f"{name} {key} = {value:.6g} {unit}" + (f"  [{alias}]" if alias else ""))
    finally:
        wl.close()
    problems = wl.problems + checks.self_test(seed)
    for line in problems + wl.errors:
        print(line, file=sys.stderr)
    print(f"{name} attempted = {wl.attempted}, failed = {wl.failed}")
    return {"correct": not problems, "attempted": wl.attempted, "failed": wl.failed,
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}
