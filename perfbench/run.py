"""Layered benchmark of the fixed-point Stiefel mean.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tall --seed 1 --seconds 20 --trace 0

Workloads (one closed-loop client each: the next call starts when the
previous one returns):

* ``tall``: St(200,10), N=50, sigma=0.01; three clouds, all three map pairs
  in rotating order, each call with its own seeded initial guess. The point
  where ``mixed`` trails ``ortho``; the per-sample lift loop dominates.
* ``wide``: St(100,16), N=50, sigma=0.01; as ``tall``. The polar pair is
  bound by the Kronecker Lyapunov solve here, ortho and mixed are not.
* ``cli``: ``python -m stiefelmean`` child processes, one after another:
  ``gen`` (St(40,4), N=1000, sigma=0.05), ``validate``, then ``mean`` for
  each pair. Bound by interpreter start, package import and text I/O.
* ``experiment``: in-process ``run_experiment`` of ``runtime_vs_p`` over
  p in (50, 200) with two trials; bound by sample generation.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics: untraced and traced rounds alternate, each pair of rounds on the
same inputs, the traced one with the layers' public names rebound to timing
wrappers (see ``tracer.py``); the median difference within the pairs is
reported as the tracing overhead. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Every returned mean is checked; a failed check makes the exit
code 1. Full results, run metadata and span rows go to ``.perfbench_out/``
in the checkout.
"""

from __future__ import annotations

import os

# One BLAS thread, for this process and the children it starts. Set before
# NumPy loads; recorded in the run metadata.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import LAYERS, Tracer  # noqa: E402

PAIRS = ("polar", "ortho", "mixed")
CONV_TOL = 1e-10
ORACLE_TOL = 1e-9  # ortho/mixed mean vs. the polar factor of the ambient mean
RESIDUAL_TOL = 1e-9  # polar mean: norm of the lifted-sample field
GUESS_EPS = 0.01  # spread of the random initial guesses around sample 0
# Set-up repetitions per untraced run: one before the timed phase, the rest
# spread over it, so that they see the same speed regimes as the rounds.
SETUPS = 8
PROBES = 3  # child processes per cli.import_ms / cli.interp_ms figure
MOM_GROUPS = 5  # interleaved groups of a median-of-means
CHILD_TIMEOUT_S = 120

SIZES = {
    "tall": dict(p=200, n=10, N=50, sigma=0.01, clouds=3, pool=512, tasks_per_round=8),
    "wide": dict(p=100, n=16, N=50, sigma=0.01, clouds=3, pool=512, tasks_per_round=2),
    "cli": dict(p=40, n=4, N=1000, sigma=0.05),
    "experiment": dict(spec=dict(sweep=(50, 200), trials=2),
                       warmup=dict(sweep=(200,), trials=1)),
}


def import_package():
    """Import ``stiefelmean`` from this checkout's ``src``, never elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import stiefelmean
        import stiefelmean.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import stiefelmean from {SRC}: {exc}")
    if Path(stiefelmean.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: stiefelmean was imported from {stiefelmean.__file__}")
    return stiefelmean


def seed_int(*key) -> int:
    """Deterministic 31-bit seed for a position in the workload."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0] >> 1)


def polar_factor(a: np.ndarray) -> np.ndarray:
    """A (A^T A)^(-1/2), the exact mean of the orthographic-lifting pairs."""
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    return u @ vt


def qr_q(a: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0.0, -1.0, 1.0)


def mean_problems(pair, x, converged, residual, oracle, tol_orth) -> list:
    """Why a returned mean is wrong; empty when it passes every check."""
    problems = []
    if not converged:
        problems.append("did not converge")
    defect = float(np.linalg.norm(x.T @ x - np.eye(x.shape[1])))
    if not defect < tol_orth:
        problems.append(f"orthonormality defect {defect:.3e}")
    if pair == "polar":
        if not residual <= RESIDUAL_TOL:
            problems.append(f"residual field norm {residual:.3e}")
    else:
        err = float(np.linalg.norm(x - oracle))
        if not err <= ORACLE_TOL:
            problems.append(f"distance {err:.3e} to the exact mean")
    return problems


class Gate:
    """Counts operations and those whose output failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def run_rounds(seconds, round_fn, setup_fn=None, setups=0):
    """Run ``round_fn(0), round_fn(1), ...`` back to back until ``seconds``
    have passed (a round is not started when less than half of the previous
    one's duration is left). Between rounds, ``setup_fn`` runs once after
    each of ``setups`` evenly spaced points of the window has passed.
    Returns (each round's timed seconds, each set-up's seconds)."""
    start = time.perf_counter()
    deadline = start + seconds
    times, setup_times = [], []
    r = 0
    while True:
        t0 = time.perf_counter()
        times.append(round_fn(r))
        r += 1
        now = time.perf_counter()
        if now + 0.5 * (now - t0) > deadline:
            return times, setup_times
        if (len(setup_times) < setups
                and now - start >= (len(setup_times) + 1) * seconds / (setups + 1)):
            setup_times.append(setup_fn())


class Workload:
    """Inputs, warm-up and timed rounds of one workload."""

    rusage = resource.RUSAGE_SELF

    def __init__(self, sm, size, seed, gate):
        self.sm = sm
        self.size = size
        self.seed = seed
        self.gate = gate
        self.tracer = None  # set while a traced round runs
        self.samples: dict = {}

    def make_inputs(self):
        """Generate the inputs the program receives (traced in trace mode)."""

    def warm_up(self):
        """Untimed calls before the timed phase; counted in setup_s."""

    def setup(self) -> float:
        """One set-up repetition: inputs and warm-up; returns its seconds."""
        t0 = time.perf_counter()
        self.make_inputs()
        self.warm_up()
        return time.perf_counter() - t0

    def round(self, r) -> float:
        raise NotImplementedError

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def next_op(self):
        if self.tracer is not None:
            self.tracer.op += 1

    def untraced(self):
        return self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(self.rusage).ru_maxrss / 1024.0

    def layer_metrics(self, tracer, base_samples) -> dict:
        """Workload-specific per-layer numbers (name -> (value, unit))."""
        return {}

    def close(self):
        """Remove what the workload wrote."""


class MeanWorkload(Workload):
    """``tall`` and ``wide``: fixed_point_mean calls in-process."""

    def make_inputs(self):
        sm, s = self.sm, self.size
        dims = sm.Dims(s["p"], s["n"])
        clouds = []
        for c in range(s["clouds"]):
            center = sm.manifold.generate_center(dims, seed_int(self.seed, c, 0))
            cloud = sm.manifold.generate_samples(center, s["sigma"], s["N"],
                                                 seed_int(self.seed, c, 1))
            oracle = polar_factor(np.mean([x.X for x in cloud.samples], axis=0))
            clouds.append((cloud, oracle))
        rng = np.random.default_rng([self.seed, len(clouds)])
        self.tasks = []
        for t in range(s["pool"]):
            cloud, oracle = clouds[t % len(clouds)]
            x1 = cloud.samples[0].X
            guess = sm.StiefelPoint(qr_q(x1 + GUESS_EPS * rng.standard_normal(x1.shape)))
            self.tasks.append((cloud, oracle, guess))
        self.configs = {
            pair: sm.AveragingConfig(pair=sm.MapPair.from_name(pair), conv_tol=CONV_TOL)
            for pair in PAIRS
        }

    def warm_up(self):
        cloud = self.tasks[0][0]
        for pair in PAIRS:
            self.sm.averaging.fixed_point_mean(cloud, self.configs[pair], cloud.samples[0])

    def round(self, r):
        averaging = self.sm.averaging
        per_round = self.size["tasks_per_round"]
        t0 = time.perf_counter()
        for i in range(per_round):
            t = (r * per_round + i) % len(self.tasks)
            cloud, oracle, guess = self.tasks[t]
            for k in range(len(PAIRS)):
                pair = PAIRS[(t + k) % len(PAIRS)]
                self.next_op()
                c0 = time.perf_counter()
                try:
                    rep = averaging.fixed_point_mean(cloud, self.configs[pair], guess)
                except self.sm.StiefelMeanError as exc:
                    self.gate.record(f"{pair} mean, task {t}", [repr(exc)])
                    continue
                c1 = time.perf_counter()
                self.add(f"mean_ms.{pair}", (c1 - c0) * 1e3)
                self.add(f"iters.{pair}", rep.iterations_used)
                self.gate.record(f"{pair} mean, task {t}", mean_problems(
                    pair, rep.final_point.X, rep.converged, rep.residual_field_norm,
                    oracle, self.sm.TOL_ORTH))
        return time.perf_counter() - t0


class CliWorkload(Workload):
    """``cli``: each command is a ``python -m stiefelmean`` child process."""

    rusage = resource.RUSAGE_CHILDREN

    def __init__(self, *args):
        super().__init__(*args)
        self.dir = OUT / f"cli-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        # captured before any rebinding, for the benchmark's own checks
        self._generate_center = self.sm.manifold.generate_center
        self._generate_samples = self.sm.manifold.generate_samples

    def child(self, argv, what):
        """Run a child to completion; returns (seconds, stdout)."""
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            self.gate.record(what, [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"])
            return elapsed, None
        return elapsed, proc.stdout

    def command(self, name, args):
        """One ``stiefelmean`` command, traced in a traced round."""
        if self.tracer is None:
            return self.child(["-m", "stiefelmean", name, *args], name)
        state_path = self.dir / "child_state.json"
        with self.tracer.span(f"cli.command.{name}") as frame:
            elapsed, out = self.child(
                [str(HERE / "traced_child.py"), str(state_path), str(self.tracer.op),
                 name, *args], name)
            if out is not None:
                state = json.loads(state_path.read_text())
                frame[4] += state["main_ns"]  # child time is the child's own spans
                self.tracer.merge(state, parent_span=frame[0])
        return elapsed, out

    def make_inputs(self):
        self.dir.mkdir(parents=True, exist_ok=True)

    def warm_up(self):
        # compiles and caches the package's bytecode before anything is timed
        self.child(["-c", "import stiefelmean.cli"], "warm-up import")

    def round(self, r):
        s = self.size
        gseed = seed_int(self.seed, r)
        cloud_path = self.dir / "cloud.txt"
        order = [PAIRS[(r + k) % len(PAIRS)] for k in range(len(PAIRS))]
        self.next_op()
        t0 = time.perf_counter()
        ms, gen_out = self.command("gen", [
            "--p", str(s["p"]), "--n", str(s["n"]), "--N", str(s["N"]),
            "--sigma", repr(s["sigma"]), "--seed", str(gseed), "--out", str(cloud_path)])
        self.add("cmd_ms.gen", ms * 1e3)
        self.next_op()
        ms, val_out = self.command("validate", [str(cloud_path)])
        self.add("cmd_ms.validate", ms * 1e3)
        outputs = {}
        for pair in order:
            self.next_op()
            mean_path, trace_path = self.dir / f"mean_{pair}.txt", self.dir / f"trace_{pair}.csv"
            ms, out = self.command("mean", [
                "--in", str(cloud_path), "--pair", pair, "--conv-tol", repr(CONV_TOL),
                "--out", str(mean_path), "--trace", str(trace_path)])
            self.add(f"mean_ms.{pair}", ms * 1e3)
            outputs[pair] = (out, mean_path, trace_path)
        elapsed = time.perf_counter() - t0
        with self.untraced():
            self.check(gseed, gen_out, val_out, outputs)
        return elapsed

    def check(self, gseed, gen_out, val_out, outputs):
        sm, s = self.sm, self.size
        if gen_out is not None:
            self.gate.record("gen", [] if "wrote" in gen_out else ["no confirmation printed"])
        if val_out is not None:
            invalid = val_out.count("INVALID")
            self.gate.record("validate", [f"{invalid} invalid blocks"] if invalid else [])
        center = self._generate_center(sm.Dims(s["p"], s["n"]), gseed)
        cloud = self._generate_samples(center, s["sigma"], s["N"], gseed)
        oracle = polar_factor(np.mean([x.X for x in cloud.samples], axis=0))
        for pair, (out, mean_path, trace_path) in outputs.items():
            if out is None:
                continue
            # iterations: trace rows after the header and the initial-guess row
            iters = len(trace_path.read_text().splitlines()) - 2
            self.add(f"iters.{pair}", iters)
            first = out.partition("\n")[0]
            try:
                residual = float(first.rsplit("residual field", 1)[1].strip(" )"))
            except (IndexError, ValueError):
                self.gate.record(f"{pair} mean command", [f"unexpected output {first!r}"])
                continue
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                valid = sm.cli.main(["validate", str(mean_path)]) == 0
            x = sm.fileio.read_matrix_blocks(mean_path)[1][0]
            problems = mean_problems(pair, x, " converged " in first, residual, oracle,
                                     sm.TOL_ORTH)
            if not valid:
                problems.append("mean file fails validate")
            self.gate.record(f"{pair} mean command", problems)

    def layer_metrics(self, tracer, base_samples):
        imports, interps = [], []
        for _ in range(PROBES):
            imports.append(self.child(["-c", "import stiefelmean.cli"], "import")[0] * 1e3)
            interps.append(self.child(["-c", "pass"], "interpreter")[0] * 1e3)
        return {
            "cli.import_ms": (statistics.median(imports), "ms"),
            "cli.interp_ms": (statistics.median(interps), "ms"),
            "cli.cmd_ms.gen": (median_of_means(base_samples.get("cmd_ms.gen", [])), "ms"),
            "cli.cmd_ms.validate": (median_of_means(base_samples.get("cmd_ms.validate", [])),
                                    "ms"),
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


class ExperimentWorkload(Workload):
    """``experiment``: ``run_experiment`` of ``runtime_vs_p`` in-process."""

    def __init__(self, *args):
        super().__init__(*args)
        self.timed_s = 0.0
        self.trial_failures = 0

    def spec(self, seed, overrides):
        return self.sm.experiments.default_spec("runtime_vs_p", seed, **overrides)

    def warm_up(self):
        # one trial per pair at the largest p: generation and averaging at
        # the size that dominates a round
        self.sm.experiments.run_experiment(self.spec(seed_int(self.seed, 0, 0),
                                                     self.size["warmup"]))

    def round(self, r):
        experiments = self.sm.experiments
        spec = self.spec(seed_int(self.seed, r), self.size["spec"])
        # every mean the experiment computes, kept for the checks below
        calls = []
        inner = experiments.fixed_point_mean

        def recorded(samples, config, initial):
            report = inner(samples, config, initial)
            calls.append((samples, config.pair.label, report))
            return report

        experiments.fixed_point_mean = recorded
        self.next_op()
        try:
            t0 = time.perf_counter()
            result = experiments.run_experiment(spec)
            elapsed = time.perf_counter() - t0
        finally:
            experiments.fixed_point_mean = inner
        checked = set()
        clouds = {}  # p -> pair -> seeds of the clouds it averaged
        for samples, pair, report in calls:
            oracle = polar_factor(np.mean([x.X for x in samples.samples], axis=0))
            self.gate.record(f"{pair} mean at p={samples.dims.p}", mean_problems(
                pair, report.final_point.X, report.converged, report.residual_field_norm,
                oracle, self.sm.TOL_ORTH))
            checked.add((pair, samples.dims.p))
            clouds.setdefault(samples.dims.p, {}).setdefault(pair, set()).add(samples.seed)
        for dim, by_pair in clouds.items():
            # every pair averages the same clouds, one per trial
            seeds = list(by_pair.values())
            same = all(s == seeds[0] for s in seeds) and len(seeds[0]) == spec.trials
            self.gate.record(f"clouds at p={dim}", [] if same else [f"clouds per pair {by_pair}"])
        top = max(spec.sweep)
        for rec in result.records:
            self.gate.record(f"{rec.pair} trial {rec.trial} at p={rec.dim}",
                             [] if (rec.pair, rec.dim) in checked else ["mean not seen"])
            self.add(f"iters.{rec.pair}", rec.iterations)
        for (pair, dim), count in result.failures.items():
            for _ in range(count):
                self.gate.record(f"{pair} trial at p={dim}", ["raised an error"])
        for pair in PAIRS:
            if (pair, top) in result.medians:
                self.add(f"mean_ms.{pair}", result.medians[(pair, top)] * 1e3)
        if self.tracer is not None:
            self.timed_s += sum(rec.wall_time for rec in result.records)
            self.trial_failures += sum(result.failures.values())
        return elapsed

    def layer_metrics(self, tracer, base_samples):
        c = tracer.counters
        run_ns = tracer.total("experiments.run_experiment")
        generated = c["experiments.clouds_generated"]
        return {
            "experiments.clouds_generated": (int(generated), "count"),
            "experiments.cloud_reuse_ratio": (len(tracer.cloud_keys) / generated if generated else 0.0,
                                              "ratio"),
            "experiments.timed_share": (self.timed_s * 1e9 / run_ns if run_ns else 0.0, "ratio"),
            "experiments.generate_share": (c["experiments.generate_ns"] / run_ns if run_ns else 0.0,
                                           "ratio"),
            "experiments.trial_failures": (self.trial_failures, "count"),
        }


WORKLOADS = {"tall": MeanWorkload, "wide": MeanWorkload, "cli": CliWorkload,
             "experiment": ExperimentWorkload}


def median_of_means(xs) -> float:
    """Median of the means of ``MOM_GROUPS`` interleaved subsets of ``xs``
    (fewer groups when that leaves a group under 4 samples).

    The speed of a shared host drifts between regimes that last seconds. A
    plain median snaps to whichever regime covered more of the run; the
    interleaved group means average over the regimes, and the median over
    the groups still rejects a single outlying stretch.
    """
    if not xs:
        return 0.0
    k = max(1, min(MOM_GROUPS, len(xs) // 4))
    return statistics.median(statistics.fmean(xs[i::k]) for i in range(k))


def end_to_end_metrics(wl, rounds, setups) -> dict:
    m = {"wall_s": (median_of_means(rounds), "s", len(rounds)),
         "setup_s": (median_of_means(setups), "s", len(setups))}
    for pair in PAIRS:
        ms = wl.samples.get(f"mean_ms.{pair}", [])
        it = wl.samples.get(f"iters.{pair}", [])
        m[f"mean_ms.{pair}"] = (median_of_means(ms), "ms", len(ms))
        m[f"iters.{pair}"] = (statistics.fmean(it) if it else 0.0, "count", len(it))
    m["peak_rss_mb"] = (wl.peak_rss_mb(), "MB", 1)
    return m


# Per-layer numbers of the layers a workload does not exercise.
NOT_EXERCISED = {
    "cli.import_ms": (0.0, "ms"), "cli.interp_ms": (0.0, "ms"),
    "cli.cmd_ms.gen": (0.0, "ms"), "cli.cmd_ms.validate": (0.0, "ms"),
    "experiments.clouds_generated": (0, "count"),
    "experiments.cloud_reuse_ratio": (0.0, "ratio"),
    "experiments.timed_share": (0.0, "ratio"),
    "experiments.generate_share": (0.0, "ratio"),
    "experiments.trial_failures": (0, "count"),
}


def per_layer_metrics(wl, tracer, base_rounds, traced_rounds, base_samples,
                      self_ns_before) -> dict:
    """Per-layer numbers of a traced run. ``base_rounds[i]`` and
    ``traced_rounds[i]`` are the untraced and traced round on the same
    inputs; ``base_samples`` are the untraced rounds' samples."""
    c = tracer.counters
    m = {}

    def ratio(a, b):
        return a / b if b else 0.0

    def per_call(name):
        calls = tracer.total(name, field=0)
        m[f"{name}.calls"] = (calls, "count")
        m[f"{name}.us_per_call"] = (ratio(tracer.total(name) / 1e3, calls), "us")

    for k in ("solve_lyapunov_sym", "solve_ortho_retraction_eq", "spd_inv_sqrt", "skew_expm"):
        per_call(f"kernels.{k}")
    m["kernels.solve_lyapunov_sym.alloc_kib"] = (
        tracer.alloc_kib("kernels.solve_lyapunov_sym"), "KiB")
    errors = 0
    for op in ("lift", "retract"):
        for kind in ("polar", "orthographic"):
            per_call(f"maps.{op}.{kind}")
            errors += c[f"maps.{op}.{kind}.errors"]
    m["maps.domain_errors"] = (int(errors), "count")
    per_call("manifold.validate")
    m["manifold.generate_samples.calls"] = (tracer.total("manifold.generate_samples", field=0),
                                            "count")
    m["manifold.generate_samples.ms_per_sample"] = (
        ratio(tracer.total("manifold.generate_samples") / 1e6,
              c["manifold.generate_samples.samples"]), "ms")

    for pair in PAIRS:
        p = f"averaging.{pair}"
        fpm_calls = tracer.total("averaging.fixed_point_mean", ctx=pair, field=0)
        fpm_ns = tracer.total("averaging.fixed_point_mean", ctx=pair)
        lifts = tracer.total("averaging.lift", ctx=pair, field=0)
        m[f"{p}.us_per_iter"] = (ratio(fpm_ns / 1e3, c[f"{p}.iters"]), "us")
        for phase, key in (("lift", "lift"), ("retract", "retract"),
                           ("validate", "validate"), (None, "other")):
            m[f"{p}.{key}_share"] = (ratio(tracer.phase_ns.get((pair, phase), 0), fpm_ns), "ratio")
        m[f"{p}.lifts_per_call"] = (ratio(lifts, fpm_calls), "count")
        m[f"{p}.useful_lift_ratio"] = (ratio(c[f"{p}.useful_lifts"], lifts), "ratio")
        fpm_ms = tracer.fpm_ms.get(pair, [])
        m[f"{p}.p90_ms"] = (float(np.percentile(fpm_ms, 90)) if fpm_ms else 0.0, "ms")

    total_bytes = 0
    for op in ("read_sample_set", "write_sample_set"):
        name = f"fileio.{op}"
        ns, nbytes = tracer.total(name), c[f"{name}.bytes"]
        total_bytes += nbytes
        m[f"{name}.ms"] = (ratio(ns / 1e6, tracer.total(name, field=0)), "ms")
        m[f"{name}.mb_per_s"] = (ratio(nbytes / 1e6, ns / 1e9), "MB/s")
    m["fileio.bytes"] = (int(total_bytes), "B")

    m.update(NOT_EXERCISED)
    m.update(wl.layer_metrics(tracer, base_samples))

    # self time of the timed traced phase only, per benchmark operation
    self_ns = tracer.layer_self_ns()
    for layer in LAYERS:
        m[f"layer.{layer}.self_ms_per_op"] = (
            ratio((self_ns[layer] - self_ns_before[layer]) / 1e6, tracer.op), "ms")
    m["trace.overhead_s"] = (
        statistics.median(t - b for b, t in zip(base_rounds, traced_rounds)), "s")
    m["trace.spans"] = (tracer.span_count(), "count")
    return {k: (v, u, None) for k, (v, u) in m.items()}


def metadata(workload, seed, seconds, trace) -> dict:
    import scipy

    sha = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unavailable"
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": sha, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "blas_env": BLAS_ENV, "setups": SETUPS,
    }


def run_workload(name, seed, seconds, trace, size=None):
    """Run one workload; returns (result line dict, full record dict)."""
    sm = import_package()
    gate = Gate()
    wl = WORKLOADS[name](sm, size or SIZES[name], seed, gate)
    OUT.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    try:
        setups = [wl.setup()]
        if tracer is None:
            rounds, more = run_rounds(seconds, wl.round, wl.setup, SETUPS - 1)
            setups += more
            metrics = end_to_end_metrics(wl, rounds, setups)
            extra = {}
        else:
            # input generation traced once, outside the timed rounds
            with tracer.installed():
                wl.make_inputs()
            self_ns_before = tracer.layer_self_ns()
            base_rounds, traced_rounds = [], []
            base_samples, traced_samples = {}, {}

            def alternating(r):
                # even rounds untraced, odd rounds traced, both on inputs r // 2
                if r % 2 == 0:
                    wl.samples = base_samples
                    base_rounds.append(wl.round(r // 2))
                    return base_rounds[-1]
                wl.samples, wl.tracer = traced_samples, tracer
                try:
                    with tracer.installed():
                        traced_rounds.append(wl.round(r // 2))
                finally:
                    wl.tracer = None
                return traced_rounds[-1]

            # complete the last pair when the window closed after its untraced round
            run_rounds(seconds, alternating)
            if len(base_rounds) > len(traced_rounds):
                alternating(2 * len(base_rounds) - 1)
            tracer.measure_allocs()
            metrics = per_layer_metrics(wl, tracer, base_rounds, traced_rounds, base_samples,
                                        self_ns_before)
            extra = {"untraced_round_s": base_rounds, "traced_round_s": traced_rounds,
                     "layer_self_ms": {k: v / 1e6 for k, v in tracer.layer_self_ns().items()}}
            spans_path = OUT / f"{name}-seed{seed}-spans.npz"
            tracer.dump_spans(spans_path)
            extra["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        wl.close()
    line = {
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    record = {
        "meta": metadata(name, seed, seconds, trace),
        "result": line,
        "samples": {k: n for k, (_, _, n) in metrics.items() if n is not None},
        "setup_s": setups,
        "failures": gate.failures[:100],
        **extra,
    }
    if tracer is None:
        record["round_s"] = rounds
        record["raw"] = wl.samples
    (OUT / f"{name}-seed{seed}-trace{int(bool(trace))}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    line, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    for name, m in line["metrics"].items():
        n = record["samples"].get(name)
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']:<6}" + (f" n={n}" if n else ""))
    print("meta " + json.dumps(record["meta"], default=str))
    for failure in record["failures"][:10]:
        print(f"FAILED {failure}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
