import math

import numpy as np
import pytest
from scipy import stats

from stiefelmean.errors import DomainError, ValidationError
from stiefelmean.kernels import skew_expm, skew_part, thin_qr_q_factor
from stiefelmean.manifold import (
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
    MIXED_POLAR_ORTHO,
    ORTHO_ORTHO,
    POLAR_POLAR,
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
    rot = skew_expm(skew_part(rng.standard_normal((x.dims.p, x.dims.p))), sigma)
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
    assert POLAR_POLAR.label == "polar"
    assert ORTHO_ORTHO.label == "ortho"
    assert MIXED_POLAR_ORTHO.label == "mixed"
    assert ALL_PAIRS == (POLAR_POLAR, ORTHO_ORTHO, MIXED_POLAR_ORTHO) == tuple(MapPair)


def test_map_pair_from_name():
    assert MapPair.from_name("mixed") is MIXED_POLAR_ORTHO
    assert MapPair.from_name("polar") is POLAR_POLAR
    assert MapPair.from_name("ORTHO") is ORTHO_ORTHO
    for pair in MapPair:
        assert MapPair.from_name(pair.label) is pair
    aliases = {
        "polar-polar": POLAR_POLAR, "ortho-ortho": ORTHO_ORTHO,
        "orthographic": ORTHO_ORTHO, "polar-ortho": MIXED_POLAR_ORTHO,
    }
    for alias, pair in aliases.items():
        for spelling in (alias, alias.upper(), alias.replace("-", "_"), f" {alias}\n"):
            assert MapPair.from_name(spelling) is pair
    with pytest.raises(ValidationError) as err:
        MapPair.from_name("ortho-polar")
    assert str(err.value) == (
        "unknown map pair 'ortho-polar' (choose from: polar, ortho, mixed)"
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
        lifting = polar_lifting if pair is POLAR_POLAR else orthographic_lifting
        retraction = orthographic_retraction if pair is ORTHO_ORTHO else polar_retraction
        assert np.array_equal(v.V, lifting(x, q).V)
        assert np.array_equal(out.X, retraction(x, v).X)


def test_lifting_domain_guard():
    x = random_point(8, 3, 10)
    antipode = StiefelPoint(-x.X)  # discrepancy 2 sqrt(3) > guard
    with pytest.raises(DomainError):
        orthographic_lifting(x, antipode)
    with pytest.raises(DomainError):
        polar_lifting(x, antipode)


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
    out = composition_discrepancy_direct(x, x)
    assert out.value < 1e-13
    assert np.allclose(out.m, np.eye(4), atol=1e-13)
    closed = composition_discrepancy_closed_form(x, x)
    assert closed.value < 1e-13


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
    assert direct.value == pytest.approx(expected, abs=1e-12)
    closed = composition_discrepancy_closed_form(x, q)
    assert closed.value == pytest.approx(expected, abs=1e-12)
    # scalar closed form |1 - (1 + m - m^2)/sqrt(2 - m^2)| with m = cos(theta)
    m = math.cos(theta)
    scalar = abs(1.0 - (1.0 + m - m * m) / math.sqrt(2.0 - m * m))
    assert closed.value == pytest.approx(scalar, abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_composition_closed_form_equals_direct(seed):
    x = random_point(20, 4, 900 + seed)
    q = nearby_point(x, 0.05, 1000 + seed)
    d1 = composition_discrepancy_direct(x, q).value
    d2 = composition_discrepancy_closed_form(x, q).value
    assert abs(d1 - d2) < 1e-10


def test_composition_positive_correlation_with_distance():
    center = generate_center(Dims(20, 4), 14)
    cloud = generate_samples(center, 0.05, 200, 15)
    ds = np.array([discrepancy(center, s) for s in cloud.samples])
    comps = np.array(
        [composition_discrepancy_direct(center, s).value for s in cloud.samples]
    )
    rho = stats.spearmanr(ds, comps).statistic
    assert rho > 0.5
