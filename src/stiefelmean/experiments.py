"""Seeded, self-describing experiment drivers.

``run_experiment(spec)`` is the one entry point; ``default_spec(kind, seed)``
builds its spec. Four experiment kinds are built in, one row each of the
table ``_KINDS``, which holds a kind's desk-scale fields, the fields that
paper scale changes, its runner and, for a runtime kind, its swept axis:

* ``discrepancy_stats``: per-sample discrepancy to the center versus the
  mixed-composition mismatch at the center, with medians and a Spearman
  rank correlation; the maps are composed over the whole sample stack in
  one array call;
* ``convergence``: one shared sample cloud and initial guess, averaged under
  all three map pairs, tracing the per-iteration discrepancy to the center;
* ``runtime_vs_n`` / ``runtime_vs_p``: wall-clock timing of the full
  averaging call per map pair over a sweep of the column or row dimension.
  Trials are paired: each trial draws one fresh sample cloud and initial
  guess, and every pair is timed on it back to back, in an order that
  rotates with the trial, so slow drift of the machine's speed hits all
  pairs alike. Each trial cycles through the whole sweep, so the drift
  also hits every dimension alike. One untimed warm-up run precedes each
  timed run; medians are reported.

The first two kinds run a single draw and take no ``trials`` or ``sweep``.
Every kind runs all three map pairs. A spec works out once the dimensions
its run uses, ``spec.dims``, and validates them and no others.

Desk-scale defaults keep every run in the minutes range;
``default_spec(..., paper_scale=True)`` selects the full-size protocols
(bigger sample counts, wider sweeps, 100 trials). All randomness derives
from the experiment seed via ``derive_seed``, so rows are bit-reproducible
except for wall-time columns. Each CSV starts with '#' comment lines
recording the complete spec and seed, then the machine: the CPUs the
process may use, the NumPy version and the BLAS NumPy was built against.
Then come the lines of the result's ``summary()``, which ``stiefelmean
exp`` also prints: medians, each pair's outcome or error, or the timing
protocol with its medians and failure counts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .averaging import AveragingConfig, AveragingReport, fixed_point_mean
from .errors import StiefelMeanError, ValidationError
from .manifold import (
    Dims,
    _check_int,
    _check_real,
    _check_type,
    _usable_cpus,
    derive_seed,
    generate_center,
    generate_samples,
    perturb_initial_guess,
)
from .maps import ALL_PAIRS, _mixed_composition


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one experiment run.

    For the runtime kinds, ``sweep`` lists the varying dimension (n for
    ``runtime_vs_n`` with p fixed, p for ``runtime_vs_p`` with n fixed) and
    must be strictly increasing; the swept field itself is ``None``.
    ``trials`` repetitions are timed per swept value. The other kinds use a
    single draw: ``trials`` is 1 and ``sweep`` is ``None``. ``dims`` is the
    St(p, n) of each swept value, in sweep order, or the one St(p, n) of a
    single-draw kind.
    """

    kind: str
    p: Optional[int]
    n: Optional[int]
    n_samples: int
    sigma: float
    seed: int
    trials: int = 1
    sweep: Optional[Tuple[int, ...]] = None
    dims: Tuple[Dims, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        axis = _kind(self.kind).axis
        if axis is not None and getattr(self, axis) is not None:
            raise ValidationError(
                f"{self.kind} sweeps {axis}: give its values in sweep, not "
                f"{axis}={getattr(self, axis)!r}"
            )
        for name, minimum in (("seed", 0), ("p", 1), ("n", 1), ("n_samples", 1),
                              ("trials", 1)):
            if name != axis:
                object.__setattr__(self, name, _check_int(getattr(self, name), name, minimum))
        object.__setattr__(self, "sigma", _check_real(self.sigma, "sigma"))
        if axis is None:
            if self.trials != 1 or self.sweep is not None:
                raise ValidationError(
                    f"{self.kind} runs a single draw; it takes no trials or sweep, "
                    f"got trials={self.trials} sweep={self.sweep}"
                )
            dims = (Dims(self.p, self.n),)
        else:
            try:
                sweep = () if self.sweep is None else tuple(self.sweep)
            except TypeError:
                raise ValidationError(
                    f"sweep must be a sequence of integers, got {self.sweep!r}"
                ) from None
            if not sweep:
                raise ValidationError(f"{self.kind} needs a dimension sweep")
            sweep = tuple(_check_int(v, "sweep value", 1) for v in sweep)
            if any(b <= a for a, b in zip(sweep, sweep[1:])):
                raise ValidationError("sweep values must be strictly increasing")
            object.__setattr__(self, "sweep", sweep)
            dims = tuple(Dims(v, self.n) if axis == "p" else Dims(self.p, v) for v in sweep)
        object.__setattr__(self, "dims", dims)

    def describe(self) -> str:
        sweep = "-" if self.sweep is None else ",".join(str(v) for v in self.sweep)
        p, n = ("-" if v is None else v for v in (self.p, self.n))
        pairs = ",".join(pair.label for pair in ALL_PAIRS)
        return (
            f"kind={self.kind} p={p} n={n} sweep={sweep} "
            f"N={self.n_samples} sigma={self.sigma!r} trials={self.trials} "
            f"seed={self.seed} pairs={pairs}"
        )


def default_spec(kind: str, seed: int, paper_scale: bool = False, **overrides) -> ExperimentSpec:
    """Desk-scale (or paper-scale) defaults for each experiment kind.

    Keyword overrides replace individual fields, e.g. ``sigma=0.1`` or
    ``sweep=(5, 10)``.
    """
    entry = _kind(kind)
    paper = entry.paper if _check_type(paper_scale, bool, "paper_scale") else {}
    return ExperimentSpec(kind=kind, seed=seed, **{**entry.desk, **paper, **overrides})


@dataclass
class TimingRecord:
    """One timed averaging run: which pair, which swept dimension value,
    which trial, how long, how many iterations, and whether it converged."""

    pair: str
    dim: int
    trial: int
    wall_time: float
    iterations: int
    converged: bool


def csv_filename(spec: ExperimentSpec) -> str:
    return f"{spec.kind}_{spec.seed}.csv"


def _machine() -> str:
    """The machine line of an experiment CSV, after the spec."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # NumPy before 1.26 returns no build dicts
        blas = "unknown"
    return f"machine cpus={_usable_cpus()} numpy={np.__version__} blas={blas}"


def _write_csv(path, spec: ExperimentSpec, summary_lines, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# stiefelmean experiment {spec.describe()}\n")
        fh.write(f"# {_machine()}\n")
        for line in summary_lines:
            fh.write(f"# {line}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


@dataclass
class DiscrepancyStatsResult:
    """Per-sample rows, their medians and their Spearman rank correlation."""

    spec: ExperimentSpec
    rows: List[Tuple[int, float, float]]
    median_delta: float
    median_composition: float
    spearman: float

    def summary(self) -> List[str]:
        return [
            f"median_delta_C_Xk={self.median_delta:.17g}",
            f"median_Delta_C_Xk={self.median_composition:.17g}",
            f"spearman_rank_correlation={self.spearman:.17g}",
        ]

    def write_csv(self, path) -> None:
        rows = [(k, f"{d:.17g}", f"{dd:.17g}") for k, d, dd in self.rows]
        _write_csv(path, self.spec, self.summary(), "k,delta_C_Xk,Delta_C_Xk", rows)


def _run_discrepancy_stats(spec: ExperimentSpec) -> DiscrepancyStatsResult:
    """Per-sample (delta(C, X_k), Delta_C(X_k)) pairs on one seeded cloud.

    The composition mismatch is evaluated by actually composing the maps,
    over the whole sample stack at once. A sample past the lifting's guard
    aborts the run with its index in ``sample_index``.
    """
    center = generate_center(spec.dims[0], derive_seed(spec.seed, 0))
    cloud = generate_samples(center, spec.sigma, spec.n_samples, derive_seed(spec.seed, 1))
    deltas, comps = _mixed_composition(center.X, cloud.stack)
    rows = list(zip(range(len(cloud)), deltas.tolist(), comps.tolist()))
    if np.ptp(deltas) == 0.0 and np.ptp(comps) == 0.0:
        spearman = 0.0  # constant columns (e.g. sigma = 0) have no rank trend
    else:
        from scipy import stats  # here, not at the top: it takes ~1 s to load

        spearman = float(stats.spearmanr(deltas, comps).statistic)
    return DiscrepancyStatsResult(
        spec=spec,
        rows=rows,
        median_delta=float(np.median(deltas)),
        median_composition=float(np.median(comps)),
        spearman=spearman,
    )


@dataclass
class ConvergenceResult:
    """Each pair's report, or its error's text in ``failures``, and rows
    tracing every iterate's discrepancy to the center."""

    spec: ExperimentSpec
    rows: List[Tuple[str, int, float]]
    reports: Dict[str, AveragingReport]
    failures: Dict[str, str]

    def summary(self) -> List[str]:
        lines = [
            f"pair={label} converged={str(report.converged).lower()} "
            f"iterations={report.iterations_used} "
            f"final_delta_to_center={report.iterates_delta_to_center[-1]:.17g} "
            f"residual_field_norm={report.residual_field_norm:.17g}"
            for label, report in self.reports.items()
        ]
        lines += [f"pair={label} FAILED: {message}" for label, message in self.failures.items()]
        return lines

    def write_csv(self, path) -> None:
        rows = [(label, i, f"{d:.17g}") for label, i, d in self.rows]
        _write_csv(path, self.spec, self.summary(), "pair,iter,delta_to_center", rows)


def _run_convergence(spec: ExperimentSpec) -> ConvergenceResult:
    """Average one shared cloud under every pair from the same initial
    guess; rows trace delta(X_i, C) per iteration. A pair that fails is
    recorded and the remaining pairs still run."""
    center = generate_center(spec.dims[0], derive_seed(spec.seed, 0))
    cloud = generate_samples(center, spec.sigma, spec.n_samples, derive_seed(spec.seed, 1))
    initial = perturb_initial_guess(cloud.stack[0], 0.01, derive_seed(spec.seed, 2))
    rows: List[Tuple[str, int, float]] = []
    reports: Dict[str, AveragingReport] = {}
    failures: Dict[str, str] = {}
    for pair in ALL_PAIRS:
        config = AveragingConfig(pair=pair)
        try:
            report = fixed_point_mean(cloud, config, initial)
        except StiefelMeanError as exc:
            failures[pair.label] = str(exc)
            continue
        reports[pair.label] = report
        for i, d in enumerate(report.iterates_delta_to_center):
            rows.append((pair.label, i, d))
    return ConvergenceResult(spec=spec, rows=rows, reports=reports, failures=failures)


@dataclass
class RuntimeResult:
    """Every timed run, and the median wall time and failed trials per (pair, dim)."""

    spec: ExperimentSpec
    records: List[TimingRecord]
    medians: Dict[Tuple[str, int], float]
    failures: Dict[Tuple[str, int], int] = field(default_factory=dict)

    def summary(self) -> List[str]:
        return [
            "timing protocol: paired trials; each trial draws one cloud and "
            "initial guess shared by every pair, and times the pairs on it in "
            "an order that rotates with the trial; trials cycle through the "
            "sweep; one untimed warm-up run precedes each timed run; medians "
            "over trials",
            *(f"median pair={label} dim={dim} wall_time_s={med:.17g}"
              for (label, dim), med in sorted(self.medians.items())),
            *(f"failed_trials pair={label} dim={dim} count={cnt}"
              for (label, dim), cnt in sorted(self.failures.items())),
        ]

    def write_csv(self, path) -> None:
        rows = [
            (r.pair, r.dim, r.trial, f"{r.wall_time:.9f}", r.iterations,
             str(r.converged).lower())
            for r in self.records
        ]
        _write_csv(path, self.spec, self.summary(),
                   "pair,dim,trial,wall_time_s,iterations,converged", rows)


def _timed_trial(spec, dims, dim_index, trial):
    """Time every pair on one shared cloud and initial guess, in the order
    that rotates with the trial. Returns ``(label, elapsed, report)`` per
    pair, in the order timed; ``elapsed`` and ``report`` are ``None`` for a
    pair that raised.
    """
    sample_seed = derive_seed(spec.seed, dim_index, trial, 0)
    init_seed = derive_seed(spec.seed, dim_index, trial, 1)
    center = generate_center(dims, derive_seed(spec.seed, dim_index, trial, 2))
    cloud = generate_samples(center, spec.sigma, spec.n_samples, sample_seed)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, init_seed)
    shift = trial % len(ALL_PAIRS)
    timed = []
    for pair in ALL_PAIRS[shift:] + ALL_PAIRS[:shift]:
        config = AveragingConfig(pair=pair)
        try:
            fixed_point_mean(cloud, config, initial)  # warm-up, untimed
            t0 = time.perf_counter()
            report = fixed_point_mean(cloud, config, initial)
            elapsed = time.perf_counter() - t0
        except StiefelMeanError:
            elapsed = report = None
        timed.append((pair.label, elapsed, report))
    return timed


def _run_runtime(spec: ExperimentSpec) -> RuntimeResult:
    """Time the full averaging call on each St(p, n) of ``spec.dims``."""
    records: List[TimingRecord] = []
    failures: Dict[Tuple[str, int], int] = {}
    for trial in range(spec.trials):
        for dim_index, (dim, dims) in enumerate(zip(spec.sweep, spec.dims)):
            try:
                timed = _timed_trial(spec, dims, dim_index, trial)
            except StiefelMeanError:  # the shared cloud itself failed
                timed = [(pair.label, None, None) for pair in ALL_PAIRS]
            for label, elapsed, report in timed:
                if report is None:
                    failures[(label, dim)] = failures.get((label, dim), 0) + 1
                else:
                    records.append(TimingRecord(
                        pair=label, dim=dim, trial=trial, wall_time=elapsed,
                        iterations=report.iterations_used, converged=report.converged,
                    ))

    records.sort(key=lambda r: (r.pair, r.dim, r.trial))
    medians = {
        key: float(np.median([r.wall_time for r in group]))
        for key, group in itertools.groupby(records, key=lambda r: (r.pair, r.dim))
    }
    return RuntimeResult(spec=spec, records=records, medians=medians, failures=failures)


class _Kind(NamedTuple):
    desk: dict  # the desk-scale fields; a runtime kind's swept one is None
    paper: dict  # the fields that paper scale changes
    run: Callable
    axis: Optional[str] = None  # the dimension a runtime kind sweeps


_KINDS = {
    "discrepancy_stats": _Kind(
        dict(p=20, n=4, n_samples=1000, sigma=0.05), dict(n_samples=20000),
        _run_discrepancy_stats,
    ),
    "convergence": _Kind(dict(p=20, n=4, n_samples=30, sigma=0.2), {}, _run_convergence),
    "runtime_vs_n": _Kind(
        dict(p=100, n=None, n_samples=50, sigma=0.01, trials=20, sweep=(5, 10, 20, 30)),
        dict(trials=100, sweep=(5, 10, 15, 20, 25, 30, 35, 40)),
        _run_runtime, axis="n",
    ),
    "runtime_vs_p": _Kind(
        dict(p=None, n=10, n_samples=50, sigma=0.01, trials=20, sweep=(20, 50, 100, 200)),
        dict(trials=100, sweep=(20, 50, 100, 200, 300, 400)),
        _run_runtime, axis="p",
    ),
}


def _kind(kind: str) -> _Kind:
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):
        raise ValidationError(f"unknown experiment kind '{kind}'") from None


def run_experiment(spec: ExperimentSpec):
    """Run ``spec`` with its kind's runner. Returns a
    ``DiscrepancyStatsResult``, a ``ConvergenceResult`` or, for the runtime
    kinds, a ``RuntimeResult``; each has ``summary()`` and ``write_csv(path)``."""
    return _KINDS[spec.kind].run(spec)
