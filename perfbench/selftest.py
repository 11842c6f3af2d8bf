"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` untraced and traced on tiny inputs
and checks that the printed metric names and units are exactly the ones
``BENCHMARK.json`` lists and that every operation passed its check; then
checks that the correctness gate rejects deliberately perturbed means and an
experiment that averages the wrong cloud, and that the benchmark fails
without printing a result when the package sources are missing. Exits 1 on
the first failed check.
"""

import json
import shutil
import subprocess
import sys

import numpy as np

import run

TINY = {
    "tall": dict(p=8, n=2, N=5, sigma=0.01, clouds=2, pool=4, tasks_per_round=1),
    "wide": dict(p=6, n=3, N=5, sigma=0.01, clouds=2, pool=4, tasks_per_round=1),
    "cli": dict(p=6, n=2, N=20, sigma=0.05),
    "experiment": dict(spec=dict(sweep=(4, 6), trials=1, n=2, n_samples=5),
                       warmup=dict(sweep=(4,), trials=1, n=2, n_samples=3)),
}


def fail(message):
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def check_metric_names(spec):
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            line, _ = run.run_workload(workload, seed=3, seconds=0.2, trace=trace,
                                       size=TINY[workload])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != want:
                fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, "
                     f"units {[k for k in want if k in got and got[k] != want[k]]}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                fail(f"{workload} trace={trace}: {line['failed']} of {line['attempted']} failed")
            values = [v["value"] for v in line["metrics"].values()]
            if not all(isinstance(v, (int, float)) and np.isfinite(v) for v in values):
                fail(f"{workload} trace={trace}: non-finite metric value")
            print(f"ok {workload} trace={trace}: {len(got)} metrics, "
                  f"{line['attempted']} operations checked")


def check_gate_rejects_perturbed_mean():
    sm = run.import_package()
    center = sm.generate_center(sm.Dims(8, 2), 5)
    cloud = sm.generate_samples(center, 0.05, 6, 6)
    oracle = run.polar_factor(np.mean([x.X for x in cloud.samples], axis=0))
    rng = np.random.default_rng(7)
    for pair in run.PAIRS:
        config = sm.AveragingConfig(pair=sm.MapPair.from_name(pair), conv_tol=run.CONV_TOL)
        rep = sm.fixed_point_mean(cloud, config, cloud.samples[0])
        x = rep.final_point.X

        def problems(x=x, converged=rep.converged, residual=rep.residual_field_norm):
            return run.mean_problems(pair, x, converged, residual, oracle, sm.TOL_ORTH)

        if problems():
            fail(f"{pair}: gate rejects a correct mean: {problems()}")
        rotated = run.qr_q(x + 1e-6 * rng.standard_normal(x.shape))
        cases = {
            "not orthonormal": problems(x=x * (1 + 1e-6)),
            "not converged": problems(converged=False),
            "moved off the mean": problems(x=rotated, residual=1e-6),
        }
        for what, found in cases.items():
            if not found:
                fail(f"{pair}: gate accepts a mean that is {what}")
    print("ok gate rejects perturbed means")


def check_experiment_gate_rejects_wrong_cloud():
    """An experiment whose means average one sample too few must fail."""
    sm = run.import_package()
    experiments = sm.experiments
    inner = experiments.fixed_point_mean

    def short_cloud_mean(samples, config, initial):
        short = sm.SampleSet(samples.dims, samples.center, samples.sigma, samples.seed,
                             samples.samples[:-1])
        return inner(short, config, initial)

    experiments.fixed_point_mean = short_cloud_mean
    try:
        line, _ = run.run_workload("experiment", seed=3, seconds=0.2, trace=0,
                                   size=TINY["experiment"])
    finally:
        experiments.fixed_point_mean = inner
    if line["correct"] or not line["failed"]:
        fail("experiment gate accepts means of the wrong cloud")
    print(f"ok experiment gate rejects wrong-cloud means: {line['failed']} failed")


def check_fails_without_sources():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "tall", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail("benchmark succeeded without the package sources")
    print(f"ok without sources: exit code {proc.returncode}, no result printed")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_gate_rejects_perturbed_mean()
    check_experiment_gate_rejects_wrong_cloud()
    check_fails_without_sources()
    check_metric_names(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
