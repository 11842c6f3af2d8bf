import re
import threading

import numpy as np
import pytest

import stiefelmean.experiments as experiments
import stiefelmean.manifold as manifold
from stiefelmean.errors import DomainError, ValidationError
from stiefelmean.experiments import (
    ExperimentSpec,
    csv_filename,
    default_spec,
    run_experiment,
)
from stiefelmean.manifold import Dims, derive_seed, generate_center, generate_samples
from stiefelmean.maps import ALL_PAIRS, orthographic_lifting


# ---------------------------------------------------------------- specs

def test_default_desk_specs():
    d = default_spec("discrepancy_stats", seed=1)
    assert (d.p, d.n, d.n_samples, d.sigma) == (20, 4, 1000, 0.05)
    c = default_spec("convergence", seed=1)
    assert (c.p, c.n, c.n_samples, c.sigma) == (20, 4, 30, 0.2)
    rn = default_spec("runtime_vs_n", seed=1)
    assert rn.p == 100 and rn.sweep == (5, 10, 20, 30) and rn.trials == 20
    rp = default_spec("runtime_vs_p", seed=1)
    assert rp.n == 10 and rp.sweep == (20, 50, 100, 200) and rp.trials == 20


def test_default_paper_scale_specs():
    d = default_spec("discrepancy_stats", seed=1, paper_scale=True)
    assert d.n_samples == 20000
    rn = default_spec("runtime_vs_n", seed=1, paper_scale=True)
    assert rn.trials == 100 and rn.sweep[-1] == 40


def test_spec_overrides():
    s = default_spec("runtime_vs_n", seed=2, sweep=(3, 4), trials=2, p=10)
    assert s.sweep == (3, 4) and s.trials == 2 and s.p == 10


def test_spec_validation():
    with pytest.raises(ValidationError):
        default_spec("runtime_vs_n", seed=1, sweep=(5, 5))
    with pytest.raises(ValidationError):
        default_spec("runtime_vs_n", seed=1, sweep=())
    with pytest.raises(ValidationError):
        default_spec("convergence", seed=1, trials=0)
    with pytest.raises(ValidationError):
        ExperimentSpec(kind="nope", p=4, n=2, n_samples=3, sigma=0.1, seed=1)
    with pytest.raises(ValidationError):
        default_spec("convergence", seed=1, sigma=float("nan"))
    for seed in (-2, 1.5, None):
        with pytest.raises(ValidationError, match="seed must be a nonnegative integer"):
            default_spec("convergence", seed=seed)
    # integer fields take integers only: no float, bool or string is
    # truncated or let through to fail inside the run
    for kind, name, value in [
        ("runtime_vs_n", "trials", 2.5), ("runtime_vs_n", "trials", True),
        ("discrepancy_stats", "n_samples", 2.5), ("convergence", "n_samples", "30"),
        ("convergence", "p", 20.0), ("runtime_vs_p", "n", True),
    ]:
        with pytest.raises(ValidationError, match=f"^{name} must be an integer >= 1, got "):
            default_spec(kind, seed=1, **{name: value})
    with pytest.raises(ValidationError, match=r"^sweep value must be an integer >= 1, got 2.7$"):
        default_spec("runtime_vs_n", seed=1, sweep=(2.7, 3))
    with pytest.raises(ValidationError, match="sweep value must be an integer >= 1"):
        default_spec("runtime_vs_p", seed=1, sweep=(0, 20))
    # a bare integer is not a sweep
    with pytest.raises(ValidationError, match="^sweep must be a sequence of integers, got 5$"):
        default_spec("runtime_vs_n", seed=1, sweep=5)
    # paper_scale is a bool: a truthy string must not switch to paper scale
    for paper_scale in ("no", 1, None):
        with pytest.raises(ValidationError, match="^paper_scale must be a bool, got "):
            default_spec("discrepancy_stats", seed=1, paper_scale=paper_scale)
    # the single-draw kinds take no trials and no sweep
    for kind in ("discrepancy_stats", "convergence"):
        for overrides in (dict(trials=5), dict(sweep=(5, 10)), dict(trials=2, sweep=(5,))):
            with pytest.raises(ValidationError, match=f"^{kind} runs a single draw"):
                default_spec(kind, seed=1, paper_scale=True, **overrides)
    # a runtime spec checks every St(p, n) its sweep makes
    with pytest.raises(ValidationError, match=r"need 1 <= n <= p, got \(6, 9\)"):
        default_spec("runtime_vs_n", seed=1, p=6, sweep=(2, 9))
    with pytest.raises(ValidationError, match=r"need 1 <= n <= p, got \(40, 50\)"):
        default_spec("runtime_vs_p", seed=1, n=50, sweep=(40, 60))


def test_spec_dims_are_the_dimensions_the_run_uses():
    assert default_spec("convergence", seed=1).dims == (Dims(20, 4),)
    # the fixed pair of a runtime kind need not be a valid St(p, n): only the
    # swept pairs are
    rn = default_spec("runtime_vs_n", seed=1, p=4, sweep=[2, 3])
    assert (rn.n, rn.sweep, rn.dims) == (None, (2, 3), (Dims(4, 2), Dims(4, 3)))
    rp = default_spec("runtime_vs_p", seed=1, n=30, sweep=(40, 50))
    assert (rp.p, rp.dims) == (None, (Dims(40, 30), Dims(50, 30)))


def test_runtime_spec_takes_no_value_for_its_swept_dimension():
    # the run never reads it, so a value would only be written to the CSV
    # header as if it had been used
    for kind, axis, paper_scale in [("runtime_vs_n", "n", False), ("runtime_vs_p", "p", True)]:
        for value in (7, None, "7"):
            if value is None:
                assert getattr(default_spec(kind, seed=1, paper_scale=paper_scale), axis) is None
                continue
            message = f"^{kind} sweeps {axis}: give its values in sweep, not {axis}={value!r}$"
            with pytest.raises(ValidationError, match=message):
                default_spec(kind, seed=1, paper_scale=paper_scale, **{axis: value})


_PAIRS = "pairs=polar,ortho,mixed"
HEADER_LINES = {
    ("discrepancy_stats", False): "kind=discrepancy_stats p=20 n=4 sweep=- N=1000 sigma=0.05 "
                                  f"trials=1 seed=5 {_PAIRS}",
    ("discrepancy_stats", True): "kind=discrepancy_stats p=20 n=4 sweep=- N=20000 sigma=0.05 "
                                 f"trials=1 seed=5 {_PAIRS}",
    ("convergence", False): "kind=convergence p=20 n=4 sweep=- N=30 sigma=0.2 trials=1 "
                            f"seed=5 {_PAIRS}",
    ("convergence", True): "kind=convergence p=20 n=4 sweep=- N=30 sigma=0.2 trials=1 "
                           f"seed=5 {_PAIRS}",
    ("runtime_vs_n", False): "kind=runtime_vs_n p=100 n=- sweep=5,10,20,30 N=50 sigma=0.01 "
                             f"trials=20 seed=5 {_PAIRS}",
    ("runtime_vs_n", True): "kind=runtime_vs_n p=100 n=- sweep=5,10,15,20,25,30,35,40 N=50 "
                            f"sigma=0.01 trials=100 seed=5 {_PAIRS}",
    ("runtime_vs_p", False): "kind=runtime_vs_p p=- n=10 sweep=20,50,100,200 N=50 "
                             f"sigma=0.01 trials=20 seed=5 {_PAIRS}",
    ("runtime_vs_p", True): "kind=runtime_vs_p p=- n=10 sweep=20,50,100,200,300,400 N=50 "
                            f"sigma=0.01 trials=100 seed=5 {_PAIRS}",
}


@pytest.mark.parametrize("kind, paper_scale", sorted(HEADER_LINES))
def test_csv_header_line_of_each_default_spec(tmp_path, kind, paper_scale):
    assert {k for k, _ in HEADER_LINES} == set(experiments._KINDS)
    spec = default_spec(kind, seed=5, paper_scale=paper_scale)
    path = tmp_path / csv_filename(spec)
    experiments._write_csv(path, spec, [], "columns", [])
    expected = "# stiefelmean experiment " + HEADER_LINES[(kind, paper_scale)]
    lines = path.read_text().splitlines()
    assert lines[0] == expected
    # the BLAS name is NumPy's build information, or "unknown" without it
    assert re.fullmatch(rf"# machine cpus={manifold._usable_cpus()} "
                        rf"numpy={re.escape(np.__version__)} blas=\S+", lines[1])
    assert lines[2:] == ["columns"]


def test_machine_line_without_build_information(monkeypatch):
    # NumPy before 1.26 has no show_config(mode="dicts")
    def show_config():
        pass

    monkeypatch.setattr(np, "show_config", show_config)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    assert re.fullmatch(r"machine cpus=3 numpy=\S+ blas=unknown", experiments._machine())


def test_numpy_sigma_is_described_as_a_python_float():
    spec = default_spec("convergence", seed=1, sigma=np.float64(0.2))
    assert " sigma=0.2 " in spec.describe()


def test_csv_filename():
    assert csv_filename(default_spec("convergence", seed=9)) == "convergence_9.csv"


# ---------------------------------------------------------------- discrepancy

def test_discrepancy_stats_small_run(tmp_path):
    spec = default_spec("discrepancy_stats", seed=3, n_samples=60)
    result = run_experiment(spec)
    assert len(result.rows) == 60
    assert result.median_delta > 0.0
    assert result.median_composition > 0.0
    assert -1.0 <= result.spearman <= 1.0
    path = tmp_path / csv_filename(spec)
    result.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# stiefelmean experiment kind=discrepancy_stats")
    assert "seed=3" in lines[0]
    assert any(line.startswith("# median_delta") for line in lines)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx] == "k,delta_C_Xk,Delta_C_Xk"
    assert len(lines) - header_idx - 1 == 60


def test_discrepancy_stats_zero_spread():
    spec = default_spec("discrepancy_stats", seed=4, n_samples=10, sigma=0.0)
    result = run_experiment(spec)
    for _, d, comp in result.rows:
        assert d < 1e-12
        assert comp < 1e-12
    assert result.spearman == 0.0


def test_discrepancy_stats_spearman_matches_scipy():
    from scipy import stats

    result = run_experiment(default_spec("discrepancy_stats", seed=6, n_samples=40))
    deltas = [d for _, d, _ in result.rows]
    comps = [c for _, _, c in result.rows]
    assert result.spearman == float(stats.spearmanr(deltas, comps).statistic)


def test_discrepancy_stats_reproducible():
    spec = default_spec("discrepancy_stats", seed=5, n_samples=25)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.rows == b.rows


def test_discrepancy_stats_names_the_first_far_sample():
    # at sigma = 1.0 on St(4, 2) the samples straddle the guard; the cloud
    # is rebuilt as the experiment builds it, and the public lifting, one
    # sample at a time, finds the first far one
    spec = default_spec("discrepancy_stats", seed=3, p=4, n=2, n_samples=10, sigma=1.0)
    center = generate_center(Dims(4, 2), derive_seed(3, 0))
    cloud = generate_samples(center, 1.0, 10, derive_seed(3, 1))
    for k, q in enumerate(cloud.samples):
        try:
            orthographic_lifting(center, q)
        except DomainError as exc:
            expected = exc
            break
    else:
        pytest.fail("no sample past the guard")
    assert k > 0
    with pytest.raises(DomainError) as err:
        run_experiment(spec)
    assert err.value.sample_index == k
    assert str(err.value) == f"{expected} (sample {k})"


# ---------------------------------------------------------------- convergence

def test_convergence_small_run(tmp_path):
    spec = default_spec("convergence", seed=6, n_samples=8, sigma=0.05)
    result = run_experiment(spec)
    assert not result.failures
    assert set(result.reports) == {"polar", "ortho", "mixed"}
    for label, report in result.reports.items():
        assert report.converged
    labels = {row[0] for row in result.rows}
    assert labels == {"polar", "ortho", "mixed"}
    # each pair's trace starts at iteration 0 with the shared initial guess
    starts = {row[2] for row in result.rows if row[1] == 0}
    assert len(starts) == 1
    path = tmp_path / csv_filename(spec)
    result.write_csv(path)
    text = path.read_text()
    assert "pair,iter,delta_to_center" in text
    assert "final_delta_to_center=" in text


def test_convergence_reproducible():
    spec = default_spec("convergence", seed=7, n_samples=6, sigma=0.05)
    a = run_experiment(spec)
    b = run_experiment(spec)
    assert a.rows == b.rows


# ---------------------------------------------------------------- runtime

def test_runtime_vs_n_structure(tmp_path):
    spec = default_spec("runtime_vs_n", seed=8, p=10, sweep=(2, 3),
                        n_samples=3, trials=2)
    result = run_experiment(spec)
    assert len(result.records) == len(ALL_PAIRS) * 2 * 2
    assert not result.failures
    for record in result.records:
        assert record.converged
        assert record.wall_time > 0.0
        assert record.iterations >= 1
    assert set(result.medians) == {
        (pair.label, dim) for pair in ALL_PAIRS for dim in (2, 3)
    }
    path = tmp_path / csv_filename(spec)
    result.write_csv(path)
    text = path.read_text()
    assert "warm-up" in text
    assert "pair,dim,trial,wall_time_s,iterations,converged" in text


def test_runtime_rows_reproducible_except_wall_time():
    spec = default_spec("runtime_vs_n", seed=9, p=8, sweep=(2, 3),
                        n_samples=3, trials=2)
    a = run_experiment(spec)
    b = run_experiment(spec)
    keyed_a = [(r.pair, r.dim, r.trial, r.iterations, r.converged) for r in a.records]
    keyed_b = [(r.pair, r.dim, r.trial, r.iterations, r.converged) for r in b.records]
    assert keyed_a == keyed_b


def test_runtime_vs_p_square_boundary():
    # the p = n square case must run cleanly
    spec = default_spec("runtime_vs_p", seed=10, n=6, sweep=(6, 8),
                        n_samples=3, trials=1)
    result = run_experiment(spec)
    assert not result.failures
    assert {r.dim for r in result.records} == {6, 8}


def test_runtime_trials_time_every_pair_on_one_cloud(monkeypatch):
    calls = []
    inner = experiments.fixed_point_mean

    def recorded(samples, config, initial):
        calls.append((samples, initial, config.pair.label))
        return inner(samples, config, initial)

    monkeypatch.setattr(experiments, "fixed_point_mean", recorded)
    spec = default_spec("runtime_vs_n", seed=13, p=8, sweep=(2, 3),
                        n_samples=3, trials=3)
    result = run_experiment(spec)
    assert len(result.records) == len(ALL_PAIRS) * 2 * 3
    # per (dim, trial): a warm-up and a timed call for each pair, all on the
    # same cloud and initial guess, in a pair order rotating with the trial;
    # each trial cycles through the sweep
    per_trial = [calls[i:i + 6] for i in range(0, len(calls), 6)]
    assert len(per_trial) == 2 * 3
    labels = [pair.label for pair in ALL_PAIRS]
    for index, block in enumerate(per_trial):
        trial, dim_index = divmod(index, len(spec.sweep))
        assert block[0][0].dims.n == spec.sweep[dim_index]
        assert all(c[0] is block[0][0] and c[1] is block[0][1] for c in block)
        order = [c[2] for c in block[::2]]
        shift = trial % len(labels)
        assert order == labels[shift:] + labels[:shift]
        assert [c[2] for c in block[1::2]] == order


def test_no_thread_outlives_generation_into_the_timed_runs(monkeypatch):
    # St(100, 4) clouds of 40 samples span four chunks of 13, so a worker
    # thread draws them; it must be gone before any pair is timed
    monkeypatch.setattr(manifold, "_usable_cpus", lambda: 2)
    counts = []
    inner = experiments.fixed_point_mean

    def counted(samples, config, initial):
        counts.append(threading.active_count())
        return inner(samples, config, initial)

    monkeypatch.setattr(experiments, "fixed_point_mean", counted)
    assert manifold.SAMPLE_CHUNK_BYTES // (8 * 100 * 100) == 13
    before = threading.active_count()
    spec = default_spec("runtime_vs_p", seed=14, n=4, sweep=(90, 100), n_samples=40, trials=2)
    assert not run_experiment(spec).failures
    assert counts == [before] * (2 * 2 * 2 * len(ALL_PAIRS))
    assert threading.active_count() == before


def test_runtime_drops_and_counts_a_failed_trial(monkeypatch, tmp_path):
    calls, ortho_clouds = [], []
    inner = experiments.fixed_point_mean

    def failing(samples, config, initial):
        calls.append((samples, config.pair.label))
        if (config.pair.label, samples.dims.n) == ("ortho", 3):
            ortho_clouds.append(samples)
            if len(ortho_clouds) == 3:  # its warm-up in trial 1
                raise DomainError("injected failure")
        return inner(samples, config, initial)

    monkeypatch.setattr(experiments, "fixed_point_mean", failing)
    spec = default_spec("runtime_vs_n", seed=14, p=8, sweep=(2, 3),
                        n_samples=3, trials=3)
    result = run_experiment(spec)
    assert result.failures == {("ortho", 3): 1}
    assert len(result.records) == len(ALL_PAIRS) * 2 * 3 - 1
    # the median comes from the two remaining trials
    kept = [r for r in result.records if (r.pair, r.dim) == ("ortho", 3)]
    assert [r.trial for r in kept] == [0, 2]
    assert result.medians[("ortho", 3)] == float(np.median([r.wall_time for r in kept]))
    # the other pairs still run, warm-up and timed, on the cloud ortho failed on
    on_it = [label for samples, label in calls if samples is ortho_clouds[2]]
    assert sorted(on_it) == ["mixed", "mixed", "ortho", "polar", "polar"]
    path = tmp_path / csv_filename(spec)
    result.write_csv(path)
    failed = [line for line in path.read_text().splitlines() if "failed_trials" in line]
    assert failed == ["# failed_trials pair=ortho dim=3 count=1"]


def test_runtime_counts_every_pair_when_the_cloud_fails(monkeypatch):
    inner = experiments.generate_samples
    seen = []

    def failing(center, sigma, n_samples, seed):
        seen.append(center.dims.n)
        if seen[-1] == 2 and seen.count(2) == 2:  # the cloud of trial 1 at n = 2
            raise ValidationError("injected failure")
        return inner(center, sigma, n_samples, seed)

    monkeypatch.setattr(experiments, "generate_samples", failing)
    spec = default_spec("runtime_vs_n", seed=15, p=8, sweep=(2, 3),
                        n_samples=3, trials=2)
    result = run_experiment(spec)
    assert result.failures == {(pair.label, 2): 1 for pair in ALL_PAIRS}
    assert sorted({(r.dim, r.trial) for r in result.records}) == [(2, 0), (3, 0), (3, 1)]
    assert len(result.records) == len(ALL_PAIRS) * 3


def test_convergence_records_a_failed_pair(monkeypatch, tmp_path):
    inner = experiments.fixed_point_mean

    def failing(samples, config, initial):
        if config.pair.label == "mixed":
            raise DomainError("injected failure at iteration 2")
        return inner(samples, config, initial)

    monkeypatch.setattr(experiments, "fixed_point_mean", failing)
    spec = default_spec("convergence", seed=6, n_samples=8, sigma=0.05)
    result = run_experiment(spec)
    assert result.failures == {"mixed": "injected failure at iteration 2"}
    assert set(result.reports) == {"polar", "ortho"}
    assert {row[0] for row in result.rows} == {"polar", "ortho"}
    path = tmp_path / csv_filename(spec)
    result.write_csv(path)
    assert "# pair=mixed FAILED: injected failure at iteration 2" in (
        path.read_text().splitlines())


# ---------------------------------------------------------------- dispatch

def test_run_experiment_dispatch():
    spec = default_spec("discrepancy_stats", seed=12, n_samples=10)
    result = run_experiment(spec)
    assert len(result.rows) == 10
