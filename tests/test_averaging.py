import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stiefelmean import averaging
from stiefelmean.averaging import AveragingConfig, fixed_point_mean
from stiefelmean.errors import DomainError, StiefelMeanError, ValidationError
from stiefelmean.kernels import skew_expm, skew_part, solve_lyapunov_sym
from stiefelmean.manifold import (
    TOL_ORTH,
    Dims,
    SampleSet,
    StiefelPoint,
    TangentVector,
    derive_seed,
    discrepancy,
    generate_center,
    generate_samples,
    orthonormality_defect,
    perturb_initial_guess,
)
from stiefelmean.maps import (
    ALL_PAIRS,
    DOMAIN_GUARD,
    MapPair,
    _ambient_mean,
    _iteration,
    _locality_certificate,
    lift,
    orthographic_lifting,
    polar_lifting,
    retract,
)


def circle_point(theta):
    return StiefelPoint(np.array([[math.cos(theta)], [math.sin(theta)]]))


def circle_angle(point):
    return math.atan2(point.X[1, 0], point.X[0, 0])


def circle_set(thetas, center_theta=None):
    samples = tuple(circle_point(t) for t in thetas)
    center = None if center_theta is None else circle_point(center_theta)
    return SampleSet(dims=Dims(2, 1), center=center, sigma=0.0, seed=0,
                     stack=samples)


def small_cloud(seed, sigma=0.05, n_samples=10, p=20, n=4):
    center = generate_center(Dims(p, n), seed)
    return generate_samples(center, sigma, n_samples, seed + 1)


# ---------------------------------------------------------------- basics

@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
def test_singleton_mean_is_the_sample(pair):
    center = generate_center(Dims(20, 4), 1)
    cloud = SampleSet(dims=center.dims, center=center, sigma=0.0, seed=0,
                      stack=(center,))
    initial = perturb_initial_guess(center, 0.01, 2)
    report = fixed_point_mean(cloud, AveragingConfig(pair=pair), initial)
    assert report.converged
    assert discrepancy(report.final_point, center) < 1e-10
    # associated pairs snap back in one step; the mixed pair needs one more
    budget = 3 if pair is MapPair.MIXED else 2
    assert report.iterations_used <= budget
    assert report.iterates_delta_to_center[min(2, report.iterations_used)] < 1e-9


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
def test_degenerate_spread_recovers_center(pair):
    center = generate_center(Dims(20, 4), 3)
    cloud = generate_samples(center, 0.0, 6, 4)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 5)
    report = fixed_point_mean(cloud, AveragingConfig(pair=pair), initial)
    assert report.converged
    assert report.iterations_used <= 3
    assert discrepancy(report.final_point, center) < 1e-10


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
def test_circle_symmetric_mean_is_center(pair):
    theta = math.pi / 6.0
    cloud = circle_set([theta, -theta], center_theta=0.0)
    initial = circle_point(0.05)
    config = AveragingConfig(pair=pair, conv_tol=1e-13)
    report = fixed_point_mean(cloud, config, initial)
    assert report.converged
    assert discrepancy(report.final_point, circle_point(0.0)) < 1e-9


def test_every_iterate_step_recorded_and_convergence_flag():
    cloud = small_cloud(6)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 7)
    report = fixed_point_mean(cloud, AveragingConfig(), initial)
    assert report.converged
    assert report.step_sizes[-1] < 1e-10
    assert len(report.step_sizes) == report.iterations_used
    assert len(report.iterates_delta_to_center) == report.iterations_used + 1
    assert len(report.cumulative_time_ns) == report.iterations_used
    assert report.cumulative_time_ns[-1] > 0


def test_step_sizes_decrease_after_first_iteration():
    for seed in (8, 9, 10):
        cloud = small_cloud(seed, sigma=0.05, n_samples=12)
        initial = perturb_initial_guess(cloud.stack[0], 0.01, seed + 100)
        report = fixed_point_mean(cloud, AveragingConfig(), initial)
        steps = report.step_sizes
        assert all(b < a for a, b in zip(steps[1:], steps[2:]))


def test_non_convergence_reports_full_trace():
    cloud = small_cloud(11, sigma=0.2, n_samples=8)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 12)
    report = fixed_point_mean(cloud, AveragingConfig(max_iters=2), initial)
    assert not report.converged
    assert report.iterations_used == 2
    assert len(report.step_sizes) == 2


def test_domain_violation_carries_context():
    x = generate_center(Dims(8, 3), 13)
    far = StiefelPoint(-x.X)
    cloud = SampleSet(dims=x.dims, center=None, sigma=0.0, seed=0,
                      stack=(x, far))
    initial = perturb_initial_guess(x, 0.01, 14)
    with pytest.raises(DomainError) as err:
        fixed_point_mean(cloud, AveragingConfig(), initial)
    assert err.value.iteration == 0
    assert err.value.sample_index == 1


@pytest.mark.parametrize("pair", [MapPair.ORTHO, MapPair.MIXED], ids=lambda p: p.label)
def test_domain_violation_reports_first_far_sample(pair):
    x = generate_center(Dims(8, 3), 36)
    far = StiefelPoint(-x.X)
    cloud = SampleSet(dims=x.dims, center=None, sigma=0.0, seed=0,
                      stack=(x, x, far, x, far))
    initial = perturb_initial_guess(x, 0.01, 37)
    with pytest.raises(DomainError) as err:
        fixed_point_mean(cloud, AveragingConfig(pair=pair), initial)
    assert err.value.iteration == 0
    assert err.value.sample_index == 2
    assert "sample 2" in str(err.value)


def _not_positive_definite_partner(x):
    """A point Q with delta(X, Q) = 1.2, inside the guard, whose X^T Q has
    an indefinite symmetric part: column 0 of X becomes -0.2 x_0 plus a unit
    vector orthogonal to X, so (X^T Q)_00 = -0.2."""
    y = np.linalg.qr(np.hstack([x.X, np.eye(x.dims.p)[:, :1]]))[0][:, -1]
    q = x.X.copy()
    q[:, 0] = -0.2 * x.X[:, 0] + math.sqrt(0.96) * y
    return StiefelPoint(q)


@pytest.mark.parametrize("order, k", [("pd-first", 2), ("guard-first", 1)])
def test_polar_domain_error_matches_per_sample_loop(order, k):
    # one sample fails the solver's positive-definiteness check, another
    # the guard; the run names whichever comes first, as a loop would
    x = generate_center(Dims(8, 3), 41)
    bad, far = _not_positive_definite_partner(x), StiefelPoint(-x.X)
    samples = (x, x, bad, x, far) if order == "pd-first" else (x, far, x, bad, x)
    cloud = SampleSet(dims=x.dims, center=None, sigma=0.0, seed=0, stack=samples)
    initial = perturb_initial_guess(x, 0.01, 42)
    for j, q in enumerate(samples):
        try:
            polar_lifting(initial, q)
        except DomainError as exc:
            expected = f"lifting failed: {exc} (iteration 0, sample {j})"
            break
    assert j == k
    with pytest.raises(DomainError) as err:
        fixed_point_mean(cloud, AveragingConfig(pair=MapPair.POLAR), initial)
    assert (err.value.iteration, err.value.sample_index) == (0, k)
    assert str(err.value) == expected
    assert ("positive definite" in expected) == (order == "pd-first")


def test_retraction_failure_names_its_iteration():
    # At 0 degrees the tangent of one sample at 90 degrees has length 1, the
    # reach of the orthographic retraction on the circle: its inner iteration
    # fails at iteration 0, and no sample is to blame.
    cloud = circle_set([math.pi / 2.0])
    config = AveragingConfig(pair=MapPair.ORTHO)
    with pytest.raises(DomainError) as err:
        fixed_point_mean(cloud, config, circle_point(0.0))
    assert (err.value.iteration, err.value.sample_index) == (0, None)
    assert str(err.value) == (
        "retraction failed: inner iteration did not reach residual 1.0e-12 within 100 "
        "steps; tangent too large for the orthographic retraction (iteration 0)")


def test_public_polar_lifting_keeps_the_solver_error():
    # inside the guard, the solver's own error, with no sample named
    x = generate_center(Dims(8, 3), 47)
    q = _not_positive_definite_partner(x)
    xtq = x.X.T @ q.X
    lowest = np.linalg.eigvalsh(xtq + xtq.T)[0]
    with pytest.raises(DomainError) as err:
        polar_lifting(x, q)
    assert str(err.value) == (
        f"M + M^T is not positive definite (smallest eigenvalue {lowest:.3e}); "
        "arguments too far apart for a unique solution")
    assert (err.value.iteration, err.value.sample_index) == (None, None)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_batched_polar_tangent_matches_per_sample_loop(weighted):
    cloud = small_cloud(43, sigma=0.1, n_samples=30, p=40, n=6)
    x = perturb_initial_guess(cloud.stack[0], 0.05, 44)
    rng = np.random.default_rng(45)
    w = rng.uniform(0.2, 3.0, len(cloud)) if weighted else np.ones(len(cloud))
    loop = np.zeros_like(x.X)
    for wk, q in zip(w, cloud.samples):
        loop += wk * polar_lifting(x, q).V
    loop /= w.sum()
    batched = _iteration(MapPair.POLAR, cloud.stack, w)[0](x.X)
    assert np.linalg.norm(batched - loop) < 1e-13


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_batched_orthographic_tangent_matches_per_sample_loop(weighted):
    # the lifting of the ambient mean against the mean of the liftings
    cloud = small_cloud(38, sigma=0.1, n_samples=30, p=40, n=6)
    x = perturb_initial_guess(cloud.stack[0], 0.05, 39)
    rng = np.random.default_rng(40)
    w = rng.uniform(0.2, 3.0, len(cloud)) if weighted else np.ones(len(cloud))
    loop = np.zeros_like(x.X)
    for wk, q in zip(w, cloud.samples):
        loop += wk * orthographic_lifting(x, q).V
    loop /= w.sum()
    batched = _iteration(MapPair.ORTHO, cloud.stack, w)[0](x.X)
    assert np.linalg.norm(batched - loop) < 1e-15


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("p, n, n_samples", [(1, 1, 9), (1, 1, 200), (2, 1, 33),
                                             (20, 4, 50), (40, 4, 1000)])
def test_ambient_mean_sums_in_sample_order(weighted, p, n, n_samples):
    # Bitwise equal to the sequential loop. NumPy's reductions sum pairwise
    # over a contiguous axis, which differs in the last bits once p n = 1.
    rng = np.random.default_rng(p * 1000 + n_samples)
    center = generate_center(Dims(p, n), n_samples)
    cloud = generate_samples(center, 0.3, n_samples, n_samples + 1)
    w = rng.uniform(0.2, 3.0, n_samples) if weighted else np.ones(n_samples)
    acc = np.zeros((p, n))
    for wk, q in zip(w, cloud.stack):
        acc += wk * q
    acc /= w.sum()
    assert np.array_equal(_ambient_mean(cloud.stack, w), acc)


# ---------------------------------------------------------------- locality guard

def exact_discrepancies(x, points):
    n = x.shape[1]
    return [float(np.linalg.norm(np.eye(n) - x.T @ q)) for q in points]


def screened_guard(x, stack, iteration):
    """Run the screened guard of ``x`` over ``stack``; a failure is located
    at ``iteration`` as ``fixed_point_mean`` locates it."""
    try:
        _locality_certificate(stack)(x)
    except DomainError as exc:
        k = exc.sample_index
        raise DomainError(f"lifting failed: {exc.args[0]}",
                          iteration=iteration, sample_index=k) from None


def check_locality(x, points, iteration):
    """Run the screened guard of ``x`` over a cloud of ``points``."""
    screened_guard(x, SampleSet(dims=Dims(*x.shape), center=None, sigma=0.0, seed=0,
                                stack=points).stack, iteration)


def guard_crossing(x, a):
    """Smallest t with ||I - X^T exp(tA) X||_F = DOMAIN_GUARD, to rounding, or
    None when t in [0, 8] does not reach the guard."""
    def disc(t):
        return exact_discrepancies(x, [skew_expm(t * a) @ x])[0]
    grid = np.linspace(0.0, 8.0, 161)
    above = [t for t in grid if disc(t) >= DOMAIN_GUARD]
    if not above:
        return None
    lo, hi = above[0] - grid[1], above[0]
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if disc(mid) >= DOMAIN_GUARD else (mid, hi)
    return hi


@st.composite
def clouds_near_the_guard(draw):
    """An iterate X and a cloud: samples spread around X, plus samples placed
    just inside and just outside discrepancy DOMAIN_GUARD from X."""
    p = draw(st.integers(1, 12))
    n = draw(st.integers(1, p))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    center = generate_center(Dims(p, n), seed)
    spread = generate_samples(center, draw(st.floats(0.0, 0.4)), draw(st.integers(1, 6)), seed)
    # an iterate carries an orthonormality defect below TOL_ORTH: c X has
    # defect (c^2 - 1) sqrt(n), here t TOL_ORTH with t up to 0.99
    t = draw(st.floats(0.0, 0.99))
    x = center.X * math.sqrt(1.0 + t * TOL_ORTH / math.sqrt(n))
    points = list(spread.stack)
    for _ in range(draw(st.integers(0, 4))):
        a = skew_part(rng.standard_normal((p, p)))
        t_star = guard_crossing(center.X, a)
        if t_star is None:
            continue
        offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-9.0, -3.0))
        q = skew_expm(t_star * (1.0 + offset) * a) @ center.X
        points.insert(draw(st.integers(0, len(points))), q)
    return x, points


@given(clouds_near_the_guard())
def test_screened_guard_matches_the_exact_discrepancies(case):
    x, points = case
    exact = exact_discrepancies(x, points)
    far = [k for k, d in enumerate(exact) if d >= DOMAIN_GUARD]
    if not far:
        check_locality(x, points, 3)
        return
    with pytest.raises(DomainError) as err:
        check_locality(x, points, 3)
    k = far[0]
    assert (err.value.iteration, err.value.sample_index) == (3, k)
    assert str(err.value) == (
        "lifting failed: orthographic lifting: arguments too far apart "
        f"(discrepancy {exact[k]:.3f} >= {DOMAIN_GUARD}) (iteration 3, sample {k})")


def test_screen_defers_to_the_exact_check():
    # One column turned by 100 degrees out of the span of X: the screen's
    # bound ||X - Q||_F = sqrt(2 - 2 cos 100deg) = 1.53 cannot clear the
    # sample, while its discrepancy 1 - cos 100deg = 1.17 is inside the guard.
    # At 125 degrees the discrepancy 1.57 is outside.
    x = generate_center(Dims(6, 3), 41).X
    u = np.linalg.qr(np.hstack([x, np.eye(6)[:, :1]]))[0][:, 3]
    points = []
    for degrees in (100.0, 125.0):
        theta = math.radians(degrees)
        q = x.copy()
        q[:, 1] = math.cos(theta) * x[:, 1] + math.sin(theta) * u
        points.append(q)
    near, outside = exact_discrepancies(x, points)
    assert np.linalg.norm(x - points[0]) > DOMAIN_GUARD > near
    assert outside > DOMAIN_GUARD
    check_locality(x, points[:1] * 3, 0)
    with pytest.raises(DomainError) as err:
        check_locality(x, points[:1] + points, 0)
    assert err.value.sample_index == 2
    assert f"(discrepancy {outside:.3f} >= {DOMAIN_GUARD})" in str(err.value)


# ---------------------------------------------------------------- reference loop

def reference_mean(cloud, config, initial, screen=False):
    """The fixed-point iteration one public call at a time.

    Every iteration lifts each sample with ``maps.lift``, which is the exact
    locality guard; with ``screen``, ``_locality_certificate`` screens the
    whole cloud at every iterate instead (orthographic-lifting pairs). The
    combined tangent is, for ortho and mixed, ``lift`` of the ambient mean
    summed in sample order; for polar, one ``solve_lyapunov_sym`` call per
    sample, the X^T Q_k and the weighted sum of the Q_k S_k formed through
    the samples side by side, the products the averaging loop makes. The
    run stops once the tangent's norm is below ``conv_tol`` or after
    ``max_iters`` steps; the step is ``retract``, every iterate a
    ``StiefelPoint``, every discrepancy ``discrepancy``.
    """
    pair, samples = config.pair, cloud.samples
    n_samples, p, n = cloud.stack.shape
    columns = cloud.stack.transpose(1, 0, 2).reshape(p, n_samples * n)
    w = np.ones(n_samples) if config.weights is None else np.asarray(config.weights)
    qbar = np.zeros(cloud.stack.shape[1:])
    for wk, q in zip(w, samples):
        qbar += wk * q.X
    qbar /= w.sum()
    # the ambient mean is not a Stiefel point; the orthographic lifting is
    # linear in Q and needs only its array
    qbar = StiefelPoint._unchecked(qbar, cloud.dims)

    def tangent(x, iteration):
        if screen and pair is not MapPair.POLAR:
            screened_guard(x.X, cloud.stack, iteration)
        else:
            for k, q in enumerate(samples):
                try:
                    lift(pair, x, q)
                except DomainError as exc:
                    raise DomainError(f"lifting failed: {exc}",
                                      iteration=iteration, sample_index=k) from None
        if pair is not MapPair.POLAR:
            return lift(pair, x, qbar)
        xtq = np.ascontiguousarray(
            (x.X.T @ columns).reshape(n, n_samples, n).transpose(1, 0, 2))
        ws = np.array([wk * solve_lyapunov_sym(m, 2.0 * np.eye(n)) for wk, m in zip(w, xtq)])
        acc = columns @ ws.reshape(n_samples * n, n)
        acc -= w.sum() * x.X
        acc /= w.sum()
        return TangentVector(x, acc)

    x = initial
    center = cloud.center
    deltas = None if center is None else [discrepancy(x, center)]
    steps = []
    for i in range(config.max_iters + 1):
        v = tangent(x, i)
        if v.norm() < config.conv_tol or i == config.max_iters:
            break
        x_next = retract(pair, x, v)
        steps.append(discrepancy(x_next, x))
        if center is not None:
            deltas.append(discrepancy(x_next, center))
        x = x_next
    return x, steps, deltas, v.norm()


def assert_same_run(cloud, config, initial, screen=False):
    """fixed_point_mean and the reference loop give the same bits, or raise
    the same error with the same iteration and sample."""
    try:
        report = fixed_point_mean(cloud, config, initial)
    except StiefelMeanError as exc:
        with pytest.raises(type(exc)) as err:
            reference_mean(cloud, config, initial, screen)
        assert (str(err.value), err.value.iteration, err.value.sample_index) == (
            str(exc), exc.iteration, exc.sample_index)
        return exc
    x, steps, deltas, residual = reference_mean(cloud, config, initial, screen)
    assert np.array_equal(report.final_point.X, x.X)
    assert report.step_sizes == steps
    assert report.iterates_delta_to_center == deltas
    assert report.residual_field_norm == residual
    assert report.iterations_used == len(steps)
    assert report.converged == (residual < config.conv_tol)
    return report


def reference_cases():
    one = StiefelPoint(np.array([[1.0]]))
    cloud = SampleSet(dims=one.dims, center=one, sigma=0.0, seed=0, stack=(one,))
    yield "St(1,1) N=1", cloud, StiefelPoint(np.array([[1.0]]))
    center = generate_center(Dims(8, 3), 71)
    cloud = SampleSet(dims=center.dims, center=center, sigma=0.0, seed=0, stack=(center,))
    yield "St(8,3) N=1", cloud, perturb_initial_guess(center, 0.05, 72)
    cloud = small_cloud(73, sigma=0.05, n_samples=1000, p=40, n=4)
    yield "St(40,4) N=1000", cloud, perturb_initial_guess(cloud.stack[0], 0.01, 74)
    # the criterion-5 cloud and initial guess: St(20,4), N=30, sigma=0.2,
    # seed 1217, as the convergence experiment builds them
    center = generate_center(Dims(20, 4), derive_seed(1217, 0))
    cloud = generate_samples(center, 0.2, 30, derive_seed(1217, 1))
    yield "sigma=0.2", cloud, perturb_initial_guess(cloud.stack[0], 0.01, derive_seed(1217, 2))


REFERENCE_CASES = list(reference_cases())


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
@pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: c[0])
def test_fixed_point_mean_matches_the_public_map_loop(case, pair, weighted):
    _, cloud, initial = case
    rng = np.random.default_rng(76)
    weights = list(rng.uniform(0.5, 1.5, len(cloud))) if weighted else None
    report = assert_same_run(cloud, AveragingConfig(pair=pair, weights=weights), initial)
    assert report.converged


@given(clouds_near_the_guard(), st.sampled_from([MapPair.ORTHO, MapPair.MIXED]),
       st.data())
def test_locality_certificate_raises_what_a_screen_per_iteration_raises(case, pair, data):
    # Multi-iteration runs from an iterate with samples on both sides of the
    # guard: the certificate clears, re-screens and raises exactly where a
    # screen of the whole cloud at every iterate does. A weight of up to
    # 0.9 of the total on one sample pulls the iterates toward it and away
    # from the others, so samples also cross the guard after iteration 0,
    # up to the last iterate.
    x, points = case
    n_samples = len(points)
    pull = data.draw(st.floats(0.05, 0.9)) if n_samples > 1 else 1.0
    weights = np.full(n_samples, (1.0 - pull) * n_samples / max(n_samples - 1, 1))
    weights[data.draw(st.integers(0, n_samples - 1))] = pull * n_samples
    cloud = SampleSet(dims=Dims(*x.shape), center=None, sigma=0.0, seed=0,
                      stack=points)
    config = AveragingConfig(pair=pair, max_iters=6, weights=list(weights))
    assert_same_run(cloud, config, StiefelPoint(x), screen=True)


@pytest.mark.parametrize("max_iters", [100, 1])
def test_locality_certificate_follows_the_iterate_across_the_guard(max_iters):
    # Samples at +-90 degrees on the circle sit at discrepancy 1 and
    # ||X_0 - Q||_F = sqrt(2) < DOMAIN_GUARD from X_0 = 0 degrees, so the
    # screen at X_0 bounds every sample inside the guard. The weights pull
    # X_1 to 38.7 degrees (mixed) or 53.1 degrees (ortho), 128.7 or 143.1
    # degrees from the second sample: discrepancy 1.63 or 1.80. Only a
    # certificate that adds ||X_1 - X_0||_F to its bound catches that, at
    # iteration 1, also when X_1 is the last iterate.
    cloud = circle_set([math.pi / 2.0, -math.pi / 2.0])
    for pair in (MapPair.ORTHO, MapPair.MIXED):
        config = AveragingConfig(pair=pair, max_iters=max_iters, weights=[1.8, 0.2])
        err = assert_same_run(cloud, config, circle_point(0.0), screen=True)
        assert isinstance(err, DomainError)
        assert (err.iteration, err.sample_index) == (1, 1)


# ---------------------------------------------------------------- residual

def lifted_field_norm(x, cloud, pair):
    """|| sum_k lift(x, X_k) ||_F / N with one lifting per sample."""
    acc = np.zeros_like(x.X)
    for q in cloud.samples:
        acc += lift(pair, x, q).V
    return float(np.linalg.norm(acc / len(cloud)))


def test_residual_zero_at_single_sample():
    x = generate_center(Dims(10, 3), 15)
    cloud = SampleSet(dims=x.dims, center=None, sigma=0.0, seed=0, stack=(x,))
    for pair in ALL_PAIRS:
        assert lifted_field_norm(x, cloud, pair) < 1e-13


def test_residual_cancels_at_circle_center():
    cloud = circle_set([0.5, -0.5])
    x = circle_point(0.0)
    for pair in ALL_PAIRS:
        assert lifted_field_norm(x, cloud, pair) < 1e-15


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
def test_residual_small_at_converged_mean(pair):
    cloud = small_cloud(16, sigma=0.1, n_samples=15)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 17)
    config = AveragingConfig(pair=pair)
    report = fixed_point_mean(cloud, config, initial)
    assert report.converged
    res = lifted_field_norm(report.final_point, cloud, pair)
    assert res < 10.0 * config.conv_tol
    assert report.residual_field_norm == pytest.approx(res, rel=1e-9)


# ---------------------------------------------------------------- invariances

@st.composite
def property_clouds(draw, max_p=12, max_sigma=0.2):
    """A cloud of 3 to 12 samples on St(p, n), 1 <= n <= p <= ``max_p``, at
    spread sigma <= ``max_sigma``, an initial guess near its first sample,
    and weights drawn from [0.2, 3] or ``None``."""
    p = draw(st.integers(1, max_p))
    n = draw(st.integers(1, p))
    n_samples = draw(st.integers(3, 12))
    sigma = draw(st.floats(0.0, max_sigma))
    seed = draw(st.integers(0, 2**32 - 1))
    center = generate_center(Dims(p, n), derive_seed(seed, 0))
    cloud = generate_samples(center, sigma, n_samples, derive_seed(seed, 1))
    initial = perturb_initial_guess(cloud.stack[0], 0.01, derive_seed(seed, 2))
    weights = None
    if draw(st.booleans()):
        weights = np.random.default_rng(seed).uniform(0.2, 3.0, n_samples)
    return cloud, initial, weights


def converged_mean(cloud, pair, weights, initial):
    """The final point of a converged run, else ``None``."""
    try:
        report = fixed_point_mean(cloud, AveragingConfig(pair=pair, weights=weights), initial)
    except StiefelMeanError:
        return None
    return report.final_point if report.converged else None


@given(property_clouds(), st.data())
def test_sample_order_permutation_invariance(case, data):
    # the weights move with their samples
    cloud, initial, weights = case
    order = np.array(data.draw(st.permutations(range(len(cloud)))))
    shuffled = SampleSet(
        dims=cloud.dims, center=cloud.center, sigma=cloud.sigma, seed=cloud.seed,
        stack=cloud.stack[order],
    )
    moved = None if weights is None else weights[order]
    for pair in ALL_PAIRS:
        base = converged_mean(cloud, pair, weights, initial)
        permuted = converged_mean(shuffled, pair, moved, initial)
        if base is not None and permuted is not None:
            assert discrepancy(base, permuted) < 1e-9


@given(property_clouds(), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_left_rotation_equivariance(case, seed, angle):
    cloud, initial, weights = case
    p = cloud.dims.p
    u = skew_expm(angle * skew_part(np.random.default_rng(seed).standard_normal((p, p))))
    rotated = SampleSet(
        dims=cloud.dims, center=None, sigma=cloud.sigma, seed=cloud.seed,
        stack=u @ cloud.stack,
    )
    rotated_initial = StiefelPoint(u @ initial.X)
    for pair in ALL_PAIRS:
        base = converged_mean(cloud, pair, weights, initial)
        rot = converged_mean(rotated, pair, weights, rotated_initial)
        if base is not None and rot is not None:
            assert discrepancy(rot, StiefelPoint(u @ base.X)) < 1e-9


@given(property_clouds(max_p=30, max_sigma=0.6))
def test_runs_near_the_guard_converge_or_fail_where_they_fail(case):
    # At sigma up to 0.6 on up to St(30, 30) samples reach and cross the
    # guard. Each run either ends with a finite field norm, converged or
    # not, or raises a DomainError located at its iteration and, for a
    # lifting, at its sample; never anything else.
    cloud, initial, weights = case
    for pair in ALL_PAIRS:
        config = AveragingConfig(pair=pair, max_iters=20, weights=weights)
        try:
            report = fixed_point_mean(cloud, config, initial)
        except DomainError as exc:
            assert exc.iteration is not None
            lifting = exc.args[0].startswith("lifting failed: ")
            assert lifting or exc.args[0].startswith("retraction failed: ")
            assert (exc.sample_index is not None) == lifting
            continue
        assert math.isfinite(report.residual_field_norm)


# ---------------------------------------------------------------- weighted

def test_equal_weights_match_unweighted_bitwise():
    cloud = small_cloud(24, sigma=0.1, n_samples=7)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 25)
    plain = fixed_point_mean(cloud, AveragingConfig(), initial)
    ones = fixed_point_mean(cloud, AveragingConfig(weights=[1.0] * len(cloud)), initial)
    assert plain.step_sizes == ones.step_sizes
    assert np.array_equal(plain.final_point.X, ones.final_point.X)


def test_fixed_point_mean_runs_the_weighted_rule():
    cloud = small_cloud(34, sigma=0.1, n_samples=6)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 35)
    config = AveragingConfig(weights=[3.0, 1.0, 0.5, 0.5, 0.5, 0.5])
    direct = fixed_point_mean(cloud, config, initial)
    plain = fixed_point_mean(cloud, AveragingConfig(), initial)
    assert discrepancy(direct.final_point, plain.final_point) > 1e-6
    ones = fixed_point_mean(cloud, AveragingConfig(weights=[1.0] * 6), initial)
    assert plain.step_sizes == ones.step_sizes
    assert np.array_equal(plain.final_point.X, ones.final_point.X)


def test_weighted_circle_against_scalar_oracle():
    # two samples at +/- theta with weights (2, 1); the mixed pair on the
    # circle reduces to the scalar recursion
    #   phi <- phi + atan(v),  v = (1/sum(w)) sum_k w_k sin(theta_k - phi),
    # where |v| is the norm of the combined field and the fixed point solves
    # tan(phi) = tan(theta) / 3.
    theta = 0.5
    weights = [2.0, 1.0]
    conv_tol = 1e-14
    phi = 0.05
    for steps in range(500):
        v = sum(w * math.sin(t - phi) for w, t in zip(weights, [theta, -theta])) / sum(weights)
        if abs(v) < conv_tol:
            break
        phi += math.atan(v)

    cloud = circle_set([theta, -theta])
    config = AveragingConfig(pair=MapPair.MIXED, conv_tol=conv_tol,
                             weights=weights)
    report = fixed_point_mean(cloud, config, circle_point(0.05))
    assert report.converged
    assert report.iterations_used == steps
    angle = circle_angle(report.final_point)
    assert angle == pytest.approx(phi, abs=1e-12)
    # the field, below conv_tol, is first order in the angle error
    assert math.tan(angle) == pytest.approx(math.tan(theta) / 3.0, abs=1e-12)
    assert angle > 0.0  # tilts toward the weight-2 sample


def test_long_weighted_mixed_run_stays_orthonormal():
    # The weighted circle of the scalar-oracle test, run with a tolerance
    # the field at rounding level does not meet, so the run goes on through
    # 300 steps at rounding level and ends unconverged. Retracting to the
    # polar factor of X + V removes any orthonormality defect the iterate
    # carries on every step, so it stays at rounding level to the end.
    theta = 0.5
    cloud = circle_set([theta, -theta])
    config = AveragingConfig(pair=MapPair.MIXED, conv_tol=1e-300,
                             max_iters=300, weights=[2.0, 1.0])
    report = fixed_point_mean(cloud, config, circle_point(0.05))
    assert not report.converged and report.iterations_used == 300
    assert max(report.step_sizes[-3:]) < 1e-15
    assert orthonormality_defect(report.final_point.X) < 1e-15
    assert math.tan(circle_angle(report.final_point)) == pytest.approx(
        math.tan(theta) / 3.0, abs=1e-13)


def test_weight_limit_sweep_pulls_mean_to_sample():
    # Only the weights' ratios matter, so a growing weight on sample 0 pulls
    # the mean to it with no renormalization.
    cloud = small_cloud(28, sigma=0.05, n_samples=8)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 29)
    gaps = []
    for big in (1e2, 1e4, 1e6):
        weights = np.ones(len(cloud))
        weights[0] = big
        report = fixed_point_mean(cloud, AveragingConfig(weights=weights), initial)
        assert report.converged
        gaps.append(discrepancy(report.final_point, cloud.samples[0]))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-3


def induced_arithmetic_mean(stack, weights):
    """U V^T for the thin SVD U S V^T of (1/sum(w)) sum_k w_k Q_k: the closed
    form of the ortho and mixed means, where the combined orthographic
    tangent Q_w - X sym(X^T Q_w) vanishes."""
    w = np.asarray(weights)
    u, _, vt = np.linalg.svd(np.tensordot(w, stack, axes=1) / w.sum(), full_matrices=False)
    return u @ vt


@given(st.integers(0, 2**32 - 1), st.integers(2, 20), st.integers(1, 8),
       st.integers(1, 40), st.floats(-3.0, 3.0))
def test_ortho_and_mixed_weighted_means_are_the_induced_arithmetic_mean(
        seed, p, n, n_samples, log_scale):
    p, n = max(p, n), min(p, n)
    center = generate_center(Dims(p, n), seed)
    cloud = generate_samples(center, 0.05, n_samples, seed + 1)
    rng = np.random.default_rng(seed)
    weights = 10.0 ** log_scale * rng.uniform(0.2, 3.0, n_samples)
    oracle = induced_arithmetic_mean(cloud.stack, weights)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, seed + 2)
    for pair in (MapPair.ORTHO, MapPair.MIXED):
        config = AveragingConfig(pair=pair, conv_tol=1e-12, weights=list(weights))
        report = fixed_point_mean(cloud, config, initial)
        assert report.converged
        assert np.linalg.norm(report.final_point.X - oracle) < 1e-9


@st.composite
def plus_minus_clouds(draw):
    """A cloud whose center C is the exact mean of every pair, with its
    weights. C = U_0[:, :n] for a random orthogonal U_0, and the samples
    come in pairs exp(+-Omega_k) C with Omega_k = U_0 [[0, -B_k^T], [B_k,
    0]] U_0^T and ||B_k||_F <= spread <= 0.2. The reflection U_0 diag(I_n,
    -I_{p-n}) U_0^T fixes C and swaps the two samples of a pair, so the
    parts of their liftings normal to C cancel; C^T Q_k is symmetric, so
    their parts along C vanish too. The weights are ``None`` or equal within
    each pair."""
    p = draw(st.integers(2, 30))
    n = draw(st.integers(1, p - 1))
    n_pairs = draw(st.integers(1, 10))
    spread = draw(st.floats(0.0, 0.2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u0 = np.linalg.qr(rng.standard_normal((p, p)))[0]
    stack = []
    for _ in range(n_pairs):
        b = rng.standard_normal((p - n, n))
        b *= spread * rng.uniform() / np.linalg.norm(b)
        block = np.zeros((p, p))
        block[n:, :n], block[:n, n:] = b, -b.T
        # exp(+-Omega_k) C = U_0 exp(+-block)[:, :n]
        stack += [u0 @ skew_expm(block)[:, :n], u0 @ skew_expm(-block)[:, :n]]
    center = StiefelPoint(u0[:, :n])
    cloud = SampleSet(dims=center.dims, center=center, sigma=spread, seed=0, stack=stack)
    weights = None
    if draw(st.booleans()):
        weights = list(np.repeat(rng.uniform(0.2, 3.0, n_pairs), 2))
    return cloud, weights


@given(plus_minus_clouds(), st.integers(0, 2**32 - 1))
def test_plus_minus_cloud_center_is_every_pairs_mean(case, seed):
    # A converged run's field is below conv_tol, which is first order in the
    # distance to the mean: the point lies within 1e-9 of C.
    cloud, weights = case
    initial = perturb_initial_guess(cloud.stack[0], 0.01, seed)
    for pair in ALL_PAIRS:
        report = fixed_point_mean(cloud, AveragingConfig(pair=pair, weights=weights), initial)
        assert report.converged
        assert np.linalg.norm(report.final_point.X - cloud.center.X) <= 1e-9


@pytest.mark.parametrize("max_iters", [100, 2])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
def test_one_tangent_per_iterate_and_one_stop_measure(monkeypatch, pair, max_iters):
    # The combined tangent is evaluated once at every iterate, the last
    # included, and its norm alone decides convergence, also when
    # max_iters ends the run.
    calls = []

    def counted(*args):
        tangent, retract_core = _iteration(*args)

        def spy(x):
            calls.append(None)
            return tangent(x)
        return spy, retract_core
    monkeypatch.setattr(averaging, "_iteration", counted)
    cloud = small_cloud(53, sigma=0.1, n_samples=12)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 54)
    config = AveragingConfig(pair=pair, max_iters=max_iters)
    report = fixed_point_mean(cloud, config, initial)
    assert len(calls) == report.iterations_used + 1
    assert report.converged == (report.residual_field_norm < config.conv_tol)
    assert report.converged == (max_iters == 100)


WEIGHT_SCALE_CLOUD = small_cloud(50, sigma=0.05, n_samples=30)


@given(st.sampled_from(ALL_PAIRS), st.integers(0, 2**32 - 1), st.integers(-20, 20),
       st.floats(1e-3, 1e3))
def test_only_the_weights_ratios_matter(pair, seed, k, scale):
    # Scaling by a power of two is exact at every operation, so the run keeps
    # its bits; any other scale only rounds differently.
    cloud = WEIGHT_SCALE_CLOUD
    weights = np.random.default_rng(seed).uniform(0.2, 3.0, len(cloud))
    initial = perturb_initial_guess(cloud.stack[0], 0.01, seed)

    def run(w):
        report = fixed_point_mean(cloud, AveragingConfig(pair=pair, weights=list(w)), initial)
        assert report.converged
        return report

    base = run(weights)
    doubled = run(math.ldexp(1.0, k) * weights)
    assert doubled.step_sizes == base.step_sizes
    assert np.array_equal(doubled.final_point.X, base.final_point.X)
    assert np.linalg.norm(run(scale * weights).final_point.X - base.final_point.X) < 1e-12


@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
def test_extreme_weight_scales_give_the_unweighted_mean(pair):
    cloud = small_cloud(51, sigma=0.05, n_samples=4)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 52)
    plain = fixed_point_mean(cloud, AveragingConfig(pair=pair), initial).final_point.X
    for scale in (1e300, 1e-300):
        config = AveragingConfig(pair=pair, weights=[scale] * 4)
        report = fixed_point_mean(cloud, config, initial)
        assert report.converged
        assert np.linalg.norm(report.final_point.X - plain) < 1e-12


def test_weight_validation():
    # the weights are checked when the config is built, all but their count,
    # which only the samples give
    cloud = small_cloud(30, n_samples=4)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 31)
    with pytest.raises(ValidationError):
        AveragingConfig(weights=[1.0, -1.0, 1.0, 1.0])
    count = r"^need one weight per sample \(4\), got shape \(2,\)$"
    with pytest.raises(ValidationError, match=count):
        fixed_point_mean(cloud, AveragingConfig(weights=[1.0, 1.0]), initial)
    # weights that are not reals, or a callable, are named
    # complex weights are refused, not cast to their real part
    # a scalar or a nested sequence is not a sequence of reals either
    for bad, shown in ((["a", "b", "c", "d"], "'a'"), (lambda k: 1.0, "<function"),
                       ([1.0, 1.0 + 1e-3j, 1.0, 1.0], "(1+0.001j)"),
                       (np.ones(4, dtype=complex), "array([1.+0.j"), (2.0, "2.0"),
                       ([[1.0, 1.0], [1.0, 1.0]], "[[1.0, 1.0], [1.0, 1.0]]")):
        with pytest.raises(ValidationError) as err:
            AveragingConfig(weights=bad)
        assert str(err.value).startswith("weights must be a sequence of reals, got ")
        assert shown in str(err.value)
    # the first weight that is not finite and positive is named
    for bad in (math.inf, -math.inf, math.nan, 0.0):
        with pytest.raises(ValidationError) as err:
            AveragingConfig(weights=[1.0, 1.0, bad, bad])
        assert str(err.value) == (
            f"weights must be finite and positive, got {bad} at index 2"
        )
    # each weight is finite and positive, but their sum overflows or is
    # below the smallest normal float, which leaves no ratio to average by
    for weight, total in ((1e308, "inf"), (5e-324, "2e-323")):
        with pytest.raises(ValidationError) as err:
            AveragingConfig(weights=[weight] * 4)
        assert str(err.value) == f"the sum of the weights must be finite and normal, got {total}"


def test_weighted_configs_hash_and_compare_as_values():
    config = AveragingConfig(weights=[1.0, 2.0, 3.0])
    same = AveragingConfig(weights=np.array([1.0, 2.0, 3.0]))
    assert config == same and hash(config) == hash(same)
    assert config.weights == (1.0, 2.0, 3.0)
    assert all(type(w) is float for w in same.weights)
    assert config != AveragingConfig(weights=[1.0, 2.0, 4.0])
    assert len({config, same, AveragingConfig()}) == 2


@pytest.mark.parametrize("container", [list, np.array], ids=["list", "array"])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids=lambda p: p.label)
def test_changing_the_callers_weights_leaves_the_config_alone(pair, container):
    cloud = generate_samples(generate_center(Dims(6, 2), 55), 0.1, 5, 56)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 57)
    weights = container([1.0, 2.0, 0.5, 3.0, 1.5])
    config = AveragingConfig(pair=pair, weights=weights)
    before = fixed_point_mean(cloud, config, initial)
    weights[0] = 100.0
    after = fixed_point_mean(cloud, config, initial)
    assert np.array_equal(after.final_point.X, before.final_point.X)
    assert after.step_sizes == before.step_sizes


# ---------------------------------------------------------------- trace CSV

def test_trace_csv_layout(tmp_path):
    cloud = small_cloud(32, n_samples=5)
    initial = perturb_initial_guess(cloud.stack[0], 0.01, 33)
    report = fixed_point_mean(cloud, AveragingConfig(), initial)
    path = tmp_path / "trace.csv"
    report.write_trace_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,step_size,delta_to_center,cumulative_time_ns"
    assert len(lines) == report.iterations_used + 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == ""  # no step for the initial guess
    assert float(first[2]) == pytest.approx(report.iterates_delta_to_center[0])
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(report.step_sizes[-1])
    assert int(last[3]) > 0


def test_trace_csv_without_center(tmp_path):
    x = generate_center(Dims(8, 2), 34)
    cloud = SampleSet(dims=x.dims, center=None, sigma=0.0, seed=0, stack=(x,))
    initial = perturb_initial_guess(x, 0.01, 35)
    report = fixed_point_mean(cloud, AveragingConfig(), initial)
    assert report.iterates_delta_to_center is None
    path = tmp_path / "trace.csv"
    report.write_trace_csv(path)
    row = path.read_text().splitlines()[1].split(",")
    assert row[2] == ""


def test_fixed_point_mean_checks_its_inputs():
    x = generate_center(Dims(6, 2), 36)
    cloud = generate_samples(x, 0.1, 3, 37)
    for samples, initial, message in (
            (cloud.stack, x, "samples must be a SampleSet, got ndarray"),
            (cloud, x.X, "initial must be a StiefelPoint, got ndarray")):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            fixed_point_mean(samples, AveragingConfig(), initial)
    with pytest.raises(ValidationError, match="^dimension mismatch: "):
        fixed_point_mean(cloud, AveragingConfig(), generate_center(Dims(6, 3), 38))


def test_config_validation():
    for name, value in [
        ("conv_tol", 0.0), ("conv_tol", -1e-10), ("conv_tol", math.nan),
        ("conv_tol", math.inf), ("conv_tol", "1e-3"), ("conv_tol", None),
        ("max_iters", 0), ("max_iters", 2.5), ("max_iters", "10"),
        ("max_iters", True), ("pair", "mixed"), ("pair", None),
    ]:
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            AveragingConfig(**{name: value})
    # frozen, so an assignment cannot skip the checks
    with pytest.raises(AttributeError):
        AveragingConfig().pair = "polar"
