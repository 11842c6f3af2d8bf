"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured values. Every tolerance is asserted exactly as stated. The
discrepancy magnitude window of criterion 3 is expected to fail on honest
measurements; the runtime orderings of criteria 6 and 7 compare wall times,
which a loaded machine can flip. CHANGES.md and ROADMAP.md record the
measurements.

The heavy runtime protocols (criteria 6 and 7) take several minutes
combined; everything else finishes in seconds.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from stiefelmean.averaging import (
    AveragingConfig,
    fixed_point_mean,
)
from stiefelmean.experiments import (
    default_spec,
    run_experiment,
)
from stiefelmean.kernels import solve_lyapunov_sym, solve_ortho_retraction_eq
from stiefelmean.manifold import (
    Dims,
    SampleSet,
    StiefelPoint,
    derive_seed,
    discrepancy,
    generate_center,
    generate_samples,
    orthonormality_defect,
    perturb_initial_guess,
    project_to_tangent,
    tangency_defect,
)
from stiefelmean.maps import (
    ALL_PAIRS,
    MapPair,
    composition_discrepancy_closed_form,
    composition_discrepancy_direct,
    orthographic_lifting,
    orthographic_retraction,
    polar_lifting,
    polar_retraction,
)

pytestmark = pytest.mark.acceptance

SEED = 1217


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------- shared fixtures

@pytest.fixture(scope="module")
def discrepancy_run():
    spec = default_spec("discrepancy_stats", seed=SEED)  # St(20,4), 0.05, 1000
    t0 = time.perf_counter()
    result = run_experiment(spec)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runtime_n_run():
    spec = default_spec("runtime_vs_n", seed=SEED)
    t0 = time.perf_counter()
    result = run_experiment(spec)
    return spec, result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def runtime_p_run():
    spec = default_spec("runtime_vs_p", seed=SEED)
    t0 = time.perf_counter()
    result = run_experiment(spec)
    return spec, result, time.perf_counter() - t0


# ------------------------------------------------------------- criterion 1

def test_criterion_1_map_law_properties():
    """200 seeded instances on St(20,4) with delta(X,Q) < 0.3: both
    associated round trips within 1e-9, retraction orthonormality and
    lifting tangency defects below 1e-9, projector idempotence to 1e-12."""
    t0 = time.perf_counter()
    dims = Dims(20, 4)
    worst = {"polar_rt": 0.0, "ortho_rt": 0.0, "orth_defect": 0.0,
             "tan_defect": 0.0, "idempotence": 0.0}
    rng = np.random.default_rng(derive_seed(SEED, 10))
    for k in range(200):
        x = generate_center(dims, derive_seed(SEED, 11, k))
        q = generate_samples(x, 0.04, 1, derive_seed(SEED, 12, k)).samples[0]
        assert discrepancy(x, q) < 0.3

        v_p = polar_lifting(x, q)
        v_o = orthographic_lifting(x, q)
        back_p = polar_retraction(x, v_p)
        back_o = orthographic_retraction(x, v_o)
        worst["polar_rt"] = max(worst["polar_rt"], discrepancy(back_p, q))
        worst["ortho_rt"] = max(worst["ortho_rt"], discrepancy(back_o, q))
        worst["orth_defect"] = max(
            worst["orth_defect"],
            orthonormality_defect(back_p.X),
            orthonormality_defect(back_o.X),
        )
        worst["tan_defect"] = max(
            worst["tan_defect"],
            tangency_defect(x.X, v_p.V),
            tangency_defect(x.X, v_o.V),
        )
        a = rng.standard_normal((20, 4))
        once = project_to_tangent(x, a)
        twice = project_to_tangent(x, once.V)
        worst["idempotence"] = max(
            worst["idempotence"], float(np.linalg.norm(twice.V - once.V))
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst["polar_rt"] < 1e-9
        and worst["ortho_rt"] < 1e-9
        and worst["orth_defect"] < 1e-9
        and worst["tan_defect"] < 1e-9
        and worst["idempotence"] < 1e-12
        and elapsed < 10.0
    )
    report(1, ok, f"map laws over 200 instances, worst values {worst}, "
                  f"elapsed {elapsed:.1f}s")
    assert worst["polar_rt"] < 1e-9
    assert worst["ortho_rt"] < 1e-9
    assert worst["orth_defect"] < 1e-9
    assert worst["tan_defect"] < 1e-9
    assert worst["idempotence"] < 1e-12
    assert elapsed < 10.0


# ------------------------------------------------------------- criterion 2

def test_criterion_2_oracle_equivalence():
    """Structured solvers against independent oracles: Kronecker
    vectorization for the Lyapunov solve (100 instances, n <= 6),
    substitution residual for the orthographic inner solve, and closed-form
    versus direct composition mismatch on 1000 pairs."""
    t0 = time.perf_counter()

    worst_lyap = 0.0
    rng = np.random.default_rng(derive_seed(SEED, 20))
    for k in range(100):
        n = 1 + k % 6
        m = np.eye(n) + 0.2 * rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        b = b + b.T
        s = solve_lyapunov_sym(m, b)
        op = np.zeros((n * n, n * n))
        for j in range(n):
            for i in range(n):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                op[:, j * n + i] = (m @ e + e @ m.T).flatten(order="F")
        oracle = np.linalg.solve(op, b.flatten(order="F")).reshape((n, n), order="F")
        worst_lyap = max(worst_lyap, float(np.linalg.norm(s - oracle)))

    worst_sub = 0.0
    for k in range(100):
        x = generate_center(Dims(20, 4), derive_seed(SEED, 21, k))
        raw = project_to_tangent(x, rng.standard_normal((20, 4)))
        v = 0.1 * raw.V / np.linalg.norm(raw.V)
        xtv = x.X.T @ v
        omega = 0.5 * (xtv - xtv.T)
        g = v.T @ v
        s = solve_ortho_retraction_eq(omega, g)
        residual = 2.0 * s + s @ s + g + s @ omega - omega @ s
        worst_sub = max(worst_sub, float(np.linalg.norm(residual)))

    worst_gap = 0.0
    center = generate_center(Dims(20, 4), derive_seed(SEED, 22))
    cloud = generate_samples(center, 0.05, 1000, derive_seed(SEED, 23))
    for sample in cloud.samples:
        direct = composition_discrepancy_direct(center, sample)
        closed = composition_discrepancy_closed_form(center, sample)
        worst_gap = max(worst_gap, abs(direct - closed))

    elapsed = time.perf_counter() - t0
    ok = worst_lyap < 1e-10 and worst_sub < 1e-12 and worst_gap < 1e-10 and elapsed < 10.0
    report(2, ok, f"lyapunov-vs-kron {worst_lyap:.2e}, inner-solve residual "
                  f"{worst_sub:.2e}, closed-vs-direct {worst_gap:.2e}, "
                  f"elapsed {elapsed:.1f}s")
    assert worst_lyap < 1e-10
    assert worst_sub < 1e-12
    assert worst_gap < 1e-10
    assert elapsed < 10.0


# ------------------------------------------------------------- criterion 3

def test_criterion_3_composition_values_strictly_positive(discrepancy_run):
    """Every sample beyond numerical coincidence with the center must have a
    strictly positive composition mismatch."""
    result, elapsed = discrepancy_run
    violations = [
        (k, d, comp) for k, d, comp in result.rows if d > 1e-6 and not comp > 0.0
    ]
    ok = not violations and elapsed < 60.0
    report("3 (positivity)", ok,
           f"{len(result.rows)} samples, {len(violations)} non-positive "
           f"mismatch values, run elapsed {elapsed:.1f}s")
    assert not violations
    assert elapsed < 60.0


def test_criterion_3_composition_median_window(discrepancy_run):
    """Median composition mismatch at sigma=0.05 inside [1e-8, 1e-4].

    Honest finding: with the sampling rule implemented exactly as specified
    (unnormalized standard-normal skew generators), sigma=0.05 on St(20,4)
    yields median point discrepancies near 0.12 and the mismatch scales as
    their cube, putting the median near 1.5e-3, outside the stated window.
    The window would be met around sigma=0.005. The assertion is kept at its
    stated bounds rather than retuned; ROADMAP.md records the measurement.
    """
    result, _ = discrepancy_run
    med = result.median_composition
    ok = 1e-8 <= med <= 1e-4
    report("3 (median window)", ok,
           f"median composition mismatch {med:.3e}, window [1e-8, 1e-4], "
           f"median point discrepancy {result.median_delta:.3e}")
    assert 1e-8 <= med <= 1e-4


# ------------------------------------------------------------- criterion 4

def test_criterion_4_rank_correlation(discrepancy_run):
    """Spearman rank correlation between the mismatch and the point
    discrepancy exceeds 0.5."""
    result, _ = discrepancy_run
    ok = result.spearman > 0.5
    report(4, ok, f"spearman rank correlation {result.spearman:.4f} > 0.5")
    assert result.spearman > 0.5


# ------------------------------------------------------------- criterion 5

def test_criterion_5_convergence_three_pairs():
    """St(20,4), N=30, sigma=0.2, shared cloud and initial guess: all three
    pairs converge below 1e-10 within 100 iterations, final distances to the
    center agree within a factor of two, residual fields below 1e-9."""
    t0 = time.perf_counter()
    spec = default_spec("convergence", seed=SEED)
    result = run_experiment(spec)
    elapsed = time.perf_counter() - t0

    assert not result.failures, result.failures
    finals, residuals = {}, {}
    for label, rep in result.reports.items():
        assert rep.converged, label
        assert rep.step_sizes[-1] < 1e-10
        assert rep.iterations_used <= 100
        finals[label] = rep.iterates_delta_to_center[-1]
        residuals[label] = rep.residual_field_norm
    spread_factor = max(finals.values()) / min(finals.values())
    worst_res = max(residuals.values())
    ok = spread_factor < 2.0 and worst_res < 1e-9 and elapsed < 60.0
    report(5, ok, f"finals {({k: round(v, 6) for k, v in finals.items()})}, "
                  f"mutual factor {spread_factor:.3f}, worst residual "
                  f"{worst_res:.2e}, elapsed {elapsed:.1f}s")
    assert spread_factor < 2.0
    assert worst_res < 1e-9
    assert elapsed < 60.0


# ------------------------------------------------------------- criterion 6

def test_criterion_6_runtime_scaling_in_columns(runtime_n_run):
    """St(100,n), n in {5,10,20,30}, N=50, sigma=0.01, 20 trials: the mixed
    pair's median runtime sits strictly below both associated pairs for
    every n >= 10, and every pair's runtime grows with n."""
    spec, result, elapsed = runtime_n_run
    lines = []
    mixed_fastest = True
    for dim in spec.sweep:
        row = {lab: result.medians[(lab, dim)] for lab in ("polar", "ortho", "mixed")}
        if dim >= 10 and not (row["mixed"] < row["polar"] and row["mixed"] < row["ortho"]):
            mixed_fastest = False
        lines.append(f"n={dim}: polar={row['polar']*1e3:.2f}ms "
                     f"ortho={row['ortho']*1e3:.2f}ms mixed={row['mixed']*1e3:.2f}ms")
    growing = True
    for lab in ("polar", "ortho", "mixed"):
        meds = [result.medians[(lab, d)] for d in spec.sweep]
        rho = stats.spearmanr(spec.sweep, meds).statistic
        if not rho > 0.0:
            growing = False
    ok = mixed_fastest and growing and elapsed < 600.0
    report(6, ok, "; ".join(lines) + f"; elapsed {elapsed:.0f}s")
    assert not result.failures
    assert mixed_fastest, "mixed pair not strictly fastest at some n >= 10"
    assert growing
    assert elapsed < 600.0


# ------------------------------------------------------------- criterion 7

def test_criterion_7_runtime_scaling_in_rows(runtime_n_run, runtime_p_run):
    """St(p,10), p in {20,50,100,200}, N=50, sigma=0.01, 20 trials: mixed
    fastest at every p, and its log-log runtime slope in p is smaller than
    its slope in n from criterion 6.

    Measured: at p=200 the mixed and orthographic pairs both take 5 outer
    iterations in every one of the 20 trials, stopping on the norm of the
    combined field. One iteration of either pair is the shared screened
    locality guard and combined tangent plus its retraction, and the mixed
    pair's retraction is the cheaper, so the ordering rests on that margin
    and on the machine's noise. The assertion is kept as stated; CHANGES.md
    records the measurements.
    """
    spec_n, result_n, _ = runtime_n_run
    spec_p, result_p, elapsed = runtime_p_run
    lines = []
    mixed_fastest = True
    for dim in spec_p.sweep:
        row = {lab: result_p.medians[(lab, dim)] for lab in ("polar", "ortho", "mixed")}
        if not (row["mixed"] < row["polar"] and row["mixed"] < row["ortho"]):
            mixed_fastest = False
        lines.append(f"p={dim}: polar={row['polar']*1e3:.2f}ms "
                     f"ortho={row['ortho']*1e3:.2f}ms mixed={row['mixed']*1e3:.2f}ms")

    def loglog_slope(dims, meds):
        return float(np.polyfit(np.log(dims), np.log(meds), 1)[0])

    slope_n = loglog_slope(spec_n.sweep, [result_n.medians[("mixed", d)] for d in spec_n.sweep])
    slope_p = loglog_slope(spec_p.sweep, [result_p.medians[("mixed", d)] for d in spec_p.sweep])
    ok = mixed_fastest and slope_p < slope_n and elapsed < 600.0
    report(7, ok, "; ".join(lines) +
           f"; mixed slopes: vs p {slope_p:.3f}, vs n {slope_n:.3f}; "
           f"elapsed {elapsed:.0f}s")
    assert not result_p.failures
    assert slope_p < slope_n
    assert elapsed < 600.0
    assert mixed_fastest, "mixed pair not strictly fastest at some p"


# ------------------------------------------------------------- criterion 8

def test_criterion_8_degenerate_and_symmetry_suite():
    """Zero spread recovers the center in at most 3 iterations; a singleton
    set returns its sample; symmetric circle samples average to the center;
    all-ones weights reproduce the unweighted trace exactly."""
    t0 = time.perf_counter()
    dims = Dims(20, 4)

    center = generate_center(dims, derive_seed(SEED, 30))
    cloud0 = generate_samples(center, 0.0, 10, derive_seed(SEED, 31))
    start = perturb_initial_guess(cloud0.stack[0], 0.01, derive_seed(SEED, 32))
    for pair in ALL_PAIRS:
        rep = fixed_point_mean(cloud0, AveragingConfig(pair=pair), start)
        assert rep.converged
        assert rep.iterations_used <= 3
        assert discrepancy(rep.final_point, center) < 1e-10

    single = SampleSet(dims=dims, center=center, sigma=0.0, seed=0,
                       stack=(center,))
    rep = fixed_point_mean(single, AveragingConfig(pair=MapPair.MIXED), start)
    assert rep.converged
    assert discrepancy(rep.final_point, center) < 1e-10

    theta = math.pi / 6.0
    cpoint = lambda t: StiefelPoint(np.array([[math.cos(t)], [math.sin(t)]]))
    circle = SampleSet(dims=Dims(2, 1), center=cpoint(0.0), sigma=0.0, seed=0,
                       stack=(cpoint(theta), cpoint(-theta)))
    for pair in ALL_PAIRS:
        rep = fixed_point_mean(circle, AveragingConfig(pair=pair, conv_tol=1e-13),
                               cpoint(0.05))
        assert rep.converged
        assert discrepancy(rep.final_point, cpoint(0.0)) < 1e-9

    cloud = generate_samples(center, 0.1, 8, derive_seed(SEED, 33))
    start2 = perturb_initial_guess(cloud.stack[0], 0.01, derive_seed(SEED, 34))
    plain = fixed_point_mean(cloud, AveragingConfig(), start2)
    ones = fixed_point_mean(
        cloud, AveragingConfig(weights=[1.0] * len(cloud)), start2
    )
    assert plain.step_sizes == ones.step_sizes
    assert np.array_equal(plain.final_point.X, ones.final_point.X)

    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report(8, ok, f"degenerate, singleton, circle symmetry and equal-weights "
                  f"checks passed, elapsed {elapsed:.1f}s")
    assert elapsed < 5.0
