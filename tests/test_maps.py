import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from stiefelmean import manifold, maps
from stiefelmean.errors import DomainError, ValidationError
from stiefelmean.kernels import skew_expm, skew_part, thin_qr_q_factor
from stiefelmean.manifold import (
    TOL_ORTH,
    Dims,
    StiefelPoint,
    discrepancy,
    generate_center,
    generate_samples,
    orthonormality_defect,
    project_to_tangent,
    tangency_defect,
)
from stiefelmean.maps import (
    ALL_PAIRS,
    DOMAIN_GUARD,
    MapPair,
    composition_discrepancy_closed_form,
    composition_discrepancy_direct,
    lift,
    orthographic_lifting,
    orthographic_retraction,
    polar_lifting,
    polar_retraction,
    retract,
)


def random_point(p, n, seed):
    rng = np.random.default_rng(seed)
    return StiefelPoint(thin_qr_q_factor(rng.standard_normal((p, n))))


def nearby_point(x, sigma, seed):
    rng = np.random.default_rng(seed)
    rot = skew_expm(sigma * skew_part(rng.standard_normal((x.dims.p, x.dims.p))))
    return StiefelPoint(rot @ x.X)


def random_tangent(x, norm, seed):
    rng = np.random.default_rng(seed)
    v = project_to_tangent(x, rng.standard_normal(x.X.shape))
    from stiefelmean.manifold import TangentVector

    return TangentVector(x, v.V * (norm / np.linalg.norm(v.V)))


def circle_point(theta):
    return StiefelPoint(np.array([[math.cos(theta)], [math.sin(theta)]]))


def circle_tangent(x, t):
    from stiefelmean.manifold import TangentVector

    # unit tangent at angle phi is (-sin phi, cos phi)
    phi = math.atan2(x.X[1, 0], x.X[0, 0])
    return TangentVector(x, t * np.array([[-math.sin(phi)], [math.cos(phi)]]))


# ---------------------------------------------------------------- MapPair

def test_map_pair_labels():
    assert MapPair.POLAR.label == "polar"
    assert MapPair.ORTHO.label == "ortho"
    assert MapPair.MIXED.label == "mixed"
    assert ALL_PAIRS == (MapPair.POLAR, MapPair.ORTHO, MapPair.MIXED) == tuple(MapPair)


def test_map_pair_from_name():
    assert MapPair.from_name("mixed") is MapPair.MIXED
    assert MapPair.from_name("polar") is MapPair.POLAR
    assert MapPair.from_name("ORTHO") is MapPair.ORTHO
    for pair in MapPair:
        for spelling in (pair.label, pair.label.upper(), f" {pair.label}\n"):
            assert MapPair.from_name(spelling) is pair
    # one name per pair: the former aliases are rejected like any other name
    for name in ("ortho-polar", "polar-polar", "ortho_ortho", "orthographic",
                 "polar-ortho", "", 3):
        with pytest.raises(ValidationError) as err:
            MapPair.from_name(name)
        assert str(err.value) == (
            f"unknown map pair '{name}' (choose from: polar, ortho, mixed)"
        )


# ---------------------------------------------------------------- polar maps

def test_polar_retraction_zero_tangent():
    x = random_point(10, 3, 0)
    v = random_tangent(x, 0.0 + 1e-300, 1)  # effectively zero
    out = polar_retraction(x, v)
    assert discrepancy(out, x) < 1e-14


def test_polar_retraction_circle():
    x = circle_point(0.0)
    out = polar_retraction(x, circle_tangent(x, 1.0))
    expected = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
    assert np.allclose(out.X, expected, atol=1e-14)


def test_polar_retraction_orthonormality():
    x = random_point(20, 4, 2)
    out = polar_retraction(x, random_tangent(x, 0.3, 3))
    assert orthonormality_defect(out.X) < 1e-10


def test_polar_lifting_identity_case():
    x = random_point(20, 4, 4)
    v = polar_lifting(x, x)
    assert np.linalg.norm(v.V) < 1e-12


def test_polar_lifting_circle():
    theta = 0.4
    x = circle_point(0.0)
    q = circle_point(theta)
    v = polar_lifting(x, q)
    assert np.allclose(v.V, np.array([[0.0], [math.tan(theta)]]), atol=1e-13)
    back = polar_retraction(x, v)
    assert discrepancy(back, q) < 1e-14


@pytest.mark.parametrize("seed", range(5))
def test_polar_round_trip(seed):
    x = random_point(20, 4, 100 + seed)
    q = nearby_point(x, 0.05, 200 + seed)
    assert discrepancy(x, q) < 0.3
    v = polar_lifting(x, q)
    assert tangency_defect(x.X, v.V) < 1e-9
    back = polar_retraction(x, v)
    assert discrepancy(back, q) < 1e-9


# ----------------------------------------------------------- orthographic maps

def test_orthographic_lifting_identity_case():
    x = random_point(20, 4, 5)
    v = orthographic_lifting(x, x)
    assert np.linalg.norm(v.V) < 1e-14


def test_orthographic_lifting_circle():
    theta = 0.7
    x = circle_point(0.0)
    v = orthographic_lifting(x, circle_point(theta))
    assert np.allclose(v.V, np.array([[0.0], [math.sin(theta)]]), atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_orthographic_lifting_matches_projector_formula(seed):
    # the fused two-product form must coincide with projecting Q - X through
    # the explicit (I - X X^T) A - X skew(X^T A) projector
    x = random_point(20, 4, 300 + seed)
    q = nearby_point(x, 0.1, 400 + seed)
    v = orthographic_lifting(x, q)
    oracle = project_to_tangent(x, q.X - x.X)
    assert np.linalg.norm(v.V - oracle.V) < 1e-13


@pytest.mark.parametrize("p, n", [(6, 2), (20, 4), (200, 10)])
def test_orthographic_lifting_is_the_tangent_projection_of_q(p, n):
    # the projection sends X to zero, so lifting Q is projecting Q itself:
    # both run one array core and give the same bits
    x = random_point(p, n, 500 + p)
    q = nearby_point(x, 0.05, 600 + p)
    assert np.array_equal(project_to_tangent(x, q.X).V, orthographic_lifting(x, q).V)


def test_orthographic_retraction_zero_tangent():
    x = random_point(10, 3, 6)
    out = orthographic_retraction(x, random_tangent(x, 1e-300, 7))
    assert discrepancy(out, x) < 1e-14


def test_orthographic_retraction_circle():
    v = 0.6
    x = circle_point(0.0)
    out = orthographic_retraction(x, circle_tangent(x, v))
    expected = np.array([[math.sqrt(1.0 - v * v)], [v]])
    assert np.allclose(out.X, expected, atol=1e-13)


@pytest.mark.parametrize("seed", range(5))
def test_orthographic_round_trip(seed):
    x = random_point(20, 4, 500 + seed)
    v = random_tangent(x, 0.1, 600 + seed)
    q = orthographic_retraction(x, v)
    assert orthonormality_defect(q.X) < 1e-10
    back = orthographic_lifting(x, q)
    assert np.linalg.norm(back.V - v.V) < 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_orthographic_pair_round_trip_from_points(seed):
    x = random_point(20, 4, 700 + seed)
    q = nearby_point(x, 0.05, 800 + seed)
    back = orthographic_retraction(x, orthographic_lifting(x, q))
    assert discrepancy(back, q) < 1e-9


# ---------------------------------------------------------------- dispatch

def test_retract_lift_dispatch():
    x = random_point(12, 3, 8)
    q = nearby_point(x, 0.05, 9)
    for pair in ALL_PAIRS:
        v = lift(pair, x, q)
        out = retract(pair, x, v)
        assert orthonormality_defect(out.X) < 1e-9
        # the polar pair alone lifts polarly, the ortho pair alone retracts
        # orthographically
        lifting = polar_lifting if pair is MapPair.POLAR else orthographic_lifting
        retraction = orthographic_retraction if pair is MapPair.ORTHO else polar_retraction
        assert np.array_equal(v.V, lifting(x, q).V)
        assert np.array_equal(out.X, retraction(x, v).X)


@pytest.mark.parametrize("pair", ["polar", None], ids=["name", "none"])
def test_retract_lift_reject_a_non_member(pair):
    x = random_point(6, 2, 8)
    q = nearby_point(x, 0.05, 9)
    v = orthographic_lifting(x, q)
    message = f"pair must be a MapPair, got {type(pair).__name__}"
    with pytest.raises(ValidationError) as err:
        lift(pair, x, q)
    assert str(err.value) == message
    with pytest.raises(ValidationError) as err:
        retract(pair, x, v)
    assert str(err.value) == message


@pytest.mark.parametrize("retraction", [polar_retraction, orthographic_retraction])
def test_retractions_reject_a_tangent_at_another_point(retraction):
    x = random_point(6, 2, 8)
    v = random_tangent(nearby_point(x, 0.05, 9), 0.1, 10)
    with pytest.raises(ValidationError) as err:
        retraction(x, v)
    assert str(err.value) == "tangent vector is anchored at a different point"


def test_lifting_domain_guard():
    x = random_point(8, 3, 10)
    antipode = StiefelPoint(-x.X)  # discrepancy 2 sqrt(3) > guard
    d = float(np.linalg.norm(np.eye(3) - x.X.T @ antipode.X))
    for lifting, what in ((orthographic_lifting, "orthographic lifting"),
                          (polar_lifting, "polar lifting")):
        with pytest.raises(DomainError) as err:
            lifting(x, antipode)
        # a public lifting words the guard's error and names no sample
        assert str(err.value) == (
            f"{what}: arguments too far apart (discrepancy {d:.3f} >= {DOMAIN_GUARD})")
        assert (err.value.iteration, err.value.sample_index) == (None, None)


# ------------------------------------------------- first-order agreement

def test_retractions_agree_to_first_order():
    x = random_point(20, 4, 11)
    direction = random_tangent(x, 1.0, 12)
    from stiefelmean.manifold import TangentVector

    ratios = []
    for h in (1e-1, 1e-2, 1e-3):
        vh = TangentVector(x, h * direction.V)
        d = discrepancy(polar_retraction(x, vh), orthographic_retraction(x, vh))
        ratios.append(d / h**2)
    assert all(r < 1.0 for r in ratios)
    # the gap actually shrinks faster than h^2; the ratio must not grow
    assert ratios[2] <= ratios[0] + 1e-12


# ------------------------------------------------- composition discrepancy

def test_composition_identity_case():
    x = random_point(20, 4, 13)
    assert composition_discrepancy_direct(x, x) < 1e-13
    assert composition_discrepancy_closed_form(x, x) < 1e-13


def test_composition_circle_against_scalar_oracle():
    theta = math.pi / 6.0
    # composing by hand on the circle: lift gives (0, sin t), the polar
    # retraction lands at (1, sin t)/sqrt(1 + sin^2 t)
    s = math.sin(theta)
    expected = abs(1.0 - (math.cos(theta) + s * s) / math.sqrt(1.0 + s * s))
    assert expected == pytest.approx(1.796e-3, abs=1e-6)
    x = circle_point(0.0)
    q = circle_point(theta)
    direct = composition_discrepancy_direct(x, q)
    assert direct == pytest.approx(expected, abs=1e-12)
    closed = composition_discrepancy_closed_form(x, q)
    assert closed == pytest.approx(expected, abs=1e-12)
    # scalar closed form |1 - (1 + m - m^2)/sqrt(2 - m^2)| with m = cos(theta)
    m = math.cos(theta)
    scalar = abs(1.0 - (1.0 + m - m * m) / math.sqrt(2.0 - m * m))
    assert closed == pytest.approx(scalar, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_composition_closed_form_equals_direct(seed):
    x = random_point(20, 4, 900 + seed)
    q = nearby_point(x, 0.05, 1000 + seed)
    d1 = composition_discrepancy_direct(x, q)
    d2 = composition_discrepancy_closed_form(x, q)
    assert abs(d1 - d2) < 1e-10


def _paired_point(x, kind, seed):
    rng = np.random.default_rng(seed)
    p, n = x.dims.p, x.dims.n
    if kind == "antipodal":
        return StiefelPoint(-x.X)
    if kind == "same span":  # Q = X R, R orthogonal
        return StiefelPoint(x.X @ thin_qr_q_factor(rng.standard_normal((n, n))))
    if kind == "orthogonal":  # X^T Q = 0
        g = rng.standard_normal((p, n))
        return StiefelPoint(thin_qr_q_factor(g - x.X @ (x.X.T @ g)))
    if kind == "random":
        return random_point(p, n, seed)
    return nearby_point(x, float(kind), seed)


@given(st.data())
def test_composition_closed_form_is_defined_for_every_pair(data):
    # the bracket is I + V^T V, so no pair is too far apart for the closed
    # form; inside the lifting's guard it is the direct composition
    p = data.draw(st.integers(1, 11))
    n = data.draw(st.integers(1, p))
    seed = data.draw(st.integers(0, 2**32 - 1))
    kinds = ["antipodal", "same span", "random", "0.01", "0.1", "0.5", "1.0"]
    kind = data.draw(st.sampled_from(kinds + (["orthogonal"] if p >= 2 * n else [])))
    x = random_point(p, n, seed)
    q = _paired_point(x, kind, seed + 1)
    closed = composition_discrepancy_closed_form(x, q)
    assert isinstance(closed, float) and math.isfinite(closed)
    try:
        direct = composition_discrepancy_direct(x, q)
    except DomainError:
        assert discrepancy(x, q) >= DOMAIN_GUARD
        return
    assert abs(closed - direct) <= 1e-10


def test_composition_positive_correlation_with_distance():
    center = generate_center(Dims(20, 4), 14)
    cloud = generate_samples(center, 0.05, 200, 15)
    ds = np.array([discrepancy(center, s) for s in cloud.samples])
    comps = np.array(
        [composition_discrepancy_direct(center, s) for s in cloud.samples]
    )
    rho = stats.spearmanr(ds, comps).statistic
    assert rho > 0.5


def composition_loop(center, points):
    """The oracle of the mixed-composition core: the public maps, one sample
    at a time. ``(deltas, comps)``, or ``(k, error)`` for the first sample
    whose lifting raises."""
    deltas, comps = [], []
    for k, q in enumerate(points):
        try:
            v = orthographic_lifting(center, q)
        except DomainError as exc:
            return k, exc
        deltas.append(discrepancy(center, q))
        comps.append(discrepancy(polar_retraction(center, v), q))
    return np.array(deltas), np.array(comps)


@given(st.data())
def test_mixed_composition_core_matches_the_public_map_loop(data):
    # spreads from 0 to far past the guard: small ones keep every sample
    # inside, large ones scatter samples over the whole manifold
    p = data.draw(st.integers(1, 30))
    n = data.draw(st.integers(1, p))
    seed = data.draw(st.integers(0, 2**32 - 1))
    sigma = data.draw(st.just(0.0) | st.floats(-3.0, 0.5).map(lambda t: 10.0 ** t))
    center = generate_center(Dims(p, n), seed)
    cloud = generate_samples(center, sigma, data.draw(st.integers(1, 8)), seed)
    expected = composition_loop(center, cloud.samples)
    if isinstance(expected[1], DomainError):
        k, exc = expected
        with pytest.raises(DomainError) as err:
            maps._mixed_composition(center.X, cloud.stack)
        assert (str(err.value), err.value.sample_index) == (f"{exc} (sample {k})", k)
        return
    deltas, comps = maps._mixed_composition(center.X, cloud.stack)
    assert np.array_equal(deltas, expected[0])
    assert np.all(np.abs(comps - expected[1]) <= np.maximum(1e-12 * expected[1], 1e-14))
    # the public function is the core's one-slice call
    for q, comp in zip(cloud.samples, comps):
        assert composition_discrepancy_direct(center, q) == maps._mixed_composition(
            center.X, q.X)[1] == pytest.approx(comp, rel=1e-12, abs=1e-14)


def test_mixed_composition_checks_the_retracted_points(monkeypatch):
    # the retracted points R_k go to manifold._check_stiefel, here with R_2
    # and R_3 scaled by 1.5: a stack names its first failing sample, and one
    # pair names none, as StiefelPoint would not
    center = random_point(9, 3, 16)
    cloud = generate_samples(center, 0.05, 5, 17)
    scale = np.array([1.0, 1.0, 1.5, 1.5, 1.0])[:, None, None]
    seen = []

    def spoiled(r):
        seen.append(r)
        manifold._check_stiefel(r * (scale if r.ndim == 3 else 1.5))
    monkeypatch.setattr(maps, "_check_stiefel", spoiled)
    with pytest.raises(ValidationError) as err:
        maps._mixed_composition(center.X, cloud.stack)
    defect = orthonormality_defect(1.5 * seen[0][2])
    assert str(err.value) == f"orthonormality defect {defect:.3e} >= {TOL_ORTH:.1e} (sample 2)"
    assert (err.value.defect, err.value.sample_index) == (defect, 2)
    for q, r in zip(cloud.samples, seen[0]):
        expected = polar_retraction(center, orthographic_lifting(center, q)).X
        assert np.abs(r - expected).max() < 1e-14
    with pytest.raises(ValidationError) as err:
        composition_discrepancy_direct(center, cloud.samples[2])
    assert seen[1].shape == (9, 3)
    defect = orthonormality_defect(1.5 * seen[1])
    assert str(err.value) == f"orthonormality defect {defect:.3e} >= {TOL_ORTH:.1e}"
