import math

import numpy as np
import pytest

from stiefelmean import manifold
from stiefelmean.errors import ValidationError
from stiefelmean.kernels import skew_expm, skew_part, thin_qr_q_factor
from stiefelmean.manifold import (
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
    project_to_tangent,
    tangency_defect,
)


def canonical_point(p, n):
    return StiefelPoint(np.eye(p)[:, :n])


def random_point(p, n, seed):
    rng = np.random.default_rng(seed)
    return StiefelPoint(thin_qr_q_factor(rng.standard_normal((p, n))))


def circle_point(theta):
    return StiefelPoint(np.array([[math.cos(theta)], [math.sin(theta)]]))


# ---------------------------------------------------------------- types

def test_dims_validation():
    Dims(5, 5)
    Dims(5, 1)
    with pytest.raises(ValidationError):
        Dims(3, 4)
    with pytest.raises(ValidationError):
        Dims(3, 0)


def test_point_is_immutable():
    x = canonical_point(4, 2)
    with pytest.raises(AttributeError):
        x.X = np.zeros((4, 2))


def test_sample_set_requires_samples():
    x = canonical_point(4, 2)
    with pytest.raises(ValidationError):
        SampleSet(dims=x.dims, center=x, sigma=0.1, seed=0, samples=())


def test_sample_set_checks_dims():
    x = canonical_point(4, 2)
    y = canonical_point(5, 2)
    with pytest.raises(ValidationError):
        SampleSet(dims=x.dims, center=x, sigma=0.1, seed=0, samples=(x, y))
    with pytest.raises(ValidationError) as err:
        SampleSet(dims=x.dims, center=x, sigma=0.1, seed=0, samples=(x.X, x.X, x.X[:3]))
    assert str(err.value) == "sample 2 has shape (3, 2), expected (4, 2)"


def raw_cloud(seed, n_samples=6, p=7, n=3):
    """Plain (p, n) arrays of a generated cloud, with its dims."""
    cloud = generate_samples(generate_center(Dims(p, n), seed), 0.1, n_samples, seed + 1)
    return cloud.dims, [np.array(s.X) for s in cloud.samples]


def test_sample_set_names_the_first_off_manifold_array():
    dims, blocks = raw_cloud(61)
    blocks[3] = 2.0 * blocks[3]  # defect ||4I - I||_F = 3 sqrt(n)
    blocks[5] = 3.0 * blocks[5]
    with pytest.raises(ValidationError) as err:
        SampleSet(dims, None, 0.1, 0, blocks)
    assert str(err.value).startswith("sample 3: orthonormality defect")
    assert err.value.defect == pytest.approx(3.0 * math.sqrt(3), rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_set_names_the_first_non_finite_array(bad):
    dims, blocks = raw_cloud(62)
    blocks[4][2, 1] = bad
    with pytest.raises(ValidationError) as err:
        SampleSet(dims, None, 0.1, 0, blocks)
    assert str(err.value) == "sample 4: entries must be finite"


def test_sample_set_stack_is_read_only_and_backs_the_samples():
    dims, blocks = raw_cloud(63)
    cloud = SampleSet(dims, None, 0.1, 0, blocks)
    assert cloud.stack.shape == (6, 7, 3) and cloud.stack.dtype == np.float64
    assert cloud.stack.flags.c_contiguous
    assert np.array_equal(cloud.stack, np.array(blocks))
    with pytest.raises(ValueError):
        cloud.stack[0, 0, 0] = 1.0
    for k, s in enumerate(cloud.samples):
        assert isinstance(s, StiefelPoint) and s.dims == dims
        assert np.shares_memory(s.X, cloud.stack)
        assert np.array_equal(s.X, blocks[k])
    # points are copied in, so the caller's arrays stay the caller's
    blocks[0][0, 0] = 5.0
    assert cloud.stack[0, 0, 0] != 5.0
    again = SampleSet(dims, None, 0.1, 0, cloud.samples)
    assert np.array_equal(again.stack, cloud.stack)


def test_generate_samples_validates_the_cloud_once(monkeypatch):
    calls = []
    original = manifold.orthonormality_defect

    def counted(x):
        calls.append(x.shape)
        return original(x)

    center = generate_center(Dims(9, 2), 64)
    monkeypatch.setattr(manifold, "orthonormality_defect", counted)
    cloud = generate_samples(center, 0.1, 40, 65)
    assert len(cloud) == 40
    assert calls == []


# ---------------------------------------------------------------- validate

def test_validate_accepts_canonical_columns():
    p = StiefelPoint(np.eye(6)[:, :3])
    assert p.dims == Dims(6, 3)


def test_validate_rejects_scaled_point_with_defect():
    x = random_point(20, 4, 0)
    with pytest.raises(ValidationError) as err:
        StiefelPoint(2.0 * x.X)
    # ||4I - I||_F = 3 sqrt(n)
    assert err.value.defect == pytest.approx(3.0 * math.sqrt(4), rel=1e-12)


def test_validate_accepts_qr_factor():
    rng = np.random.default_rng(1)
    q = thin_qr_q_factor(rng.standard_normal((20, 4)))
    p = StiefelPoint(q, dims=Dims(20, 4))
    assert orthonormality_defect(p.X) < 1e-12


def test_validate_rejects_non_finite():
    x = np.eye(4)[:, :2]
    x[0, 0] = np.nan
    with pytest.raises(ValidationError):
        StiefelPoint(x)


# ---------------------------------------------------------------- projector

def test_projector_sends_anchor_to_zero():
    x = random_point(10, 3, 2)
    v = project_to_tangent(x, x.X)
    assert np.linalg.norm(v.V) < 1e-14


def test_projector_fixes_tangent_vectors():
    x = random_point(10, 3, 3)
    rng = np.random.default_rng(4)
    v = project_to_tangent(x, rng.standard_normal((10, 3)))
    again = project_to_tangent(x, v.V)
    assert np.linalg.norm(again.V - v.V) < 1e-12


def test_projector_annihilates_normal_space():
    x = random_point(10, 3, 5)
    rng = np.random.default_rng(6)
    s = rng.standard_normal((3, 3))
    s = s + s.T
    v = project_to_tangent(x, x.X @ s)
    assert np.linalg.norm(v.V) < 1e-13


def test_projector_output_shadow_is_skew():
    x = random_point(12, 4, 7)
    rng = np.random.default_rng(8)
    v = project_to_tangent(x, rng.standard_normal((12, 4)))
    shadow = x.X.T @ v.V
    assert np.linalg.norm(shadow + shadow.T) < 1e-12


def test_projector_shape_mismatch():
    x = random_point(10, 3, 9)
    with pytest.raises(ValidationError):
        project_to_tangent(x, np.zeros((10, 4)))


# ---------------------------------------------------------------- discrepancy

def test_discrepancy_self_is_zero():
    x = random_point(15, 5, 10)
    assert discrepancy(x, x) < 1e-14


def test_discrepancy_circle_value():
    x = circle_point(0.0)
    y = circle_point(math.pi / 3.0)
    assert discrepancy(x, y) == pytest.approx(0.5, abs=1e-15)


def test_discrepancy_antipodal():
    x = random_point(9, 3, 11)
    minus = StiefelPoint(-x.X)
    assert discrepancy(x, minus) == pytest.approx(2.0 * math.sqrt(3), rel=1e-12)


def test_discrepancy_symmetry():
    x = random_point(20, 4, 12)
    y = random_point(20, 4, 13)
    assert discrepancy(x, y) == pytest.approx(discrepancy(y, x), rel=1e-12)


def test_discrepancy_left_rotation_invariance():
    rng = np.random.default_rng(14)
    x = random_point(20, 4, 15)
    y = random_point(20, 4, 16)
    u = skew_expm(skew_part(rng.standard_normal((20, 20))), 0.8)
    rx = StiefelPoint(u @ x.X)
    ry = StiefelPoint(u @ y.X)
    assert abs(discrepancy(rx, ry) - discrepancy(x, y)) < 1e-12


def test_discrepancy_dimension_mismatch():
    with pytest.raises(ValidationError):
        discrepancy(random_point(10, 3, 17), random_point(10, 4, 18))


# ---------------------------------------------------------------- sampling

def test_generate_center_deterministic():
    dims = Dims(20, 4)
    a = generate_center(dims, 99)
    b = generate_center(dims, 99)
    assert np.array_equal(a.X, b.X)
    assert orthonormality_defect(a.X) < 1e-12


def test_generate_center_square_case():
    c = generate_center(Dims(5, 5), 3)
    assert np.linalg.norm(c.X.T @ c.X - np.eye(5)) < 1e-12
    assert np.linalg.norm(c.X @ c.X.T - np.eye(5)) < 1e-12


def test_generate_samples_zero_spread_equals_center():
    c = generate_center(Dims(20, 4), 5)
    cloud = generate_samples(c, 0.0, 7, 6)
    for s in cloud.samples:
        assert discrepancy(c, s) < 1e-12


def test_generate_samples_bit_identical_across_runs():
    c = generate_center(Dims(12, 3), 7)
    a = generate_samples(c, 0.1, 5, 8)
    b = generate_samples(c, 0.1, 5, 8)
    for s, t in zip(a.samples, b.samples):
        assert np.array_equal(s.X, t.X)


def test_generate_samples_positive_bounded_discrepancies():
    c = generate_center(Dims(20, 4), 9)
    cloud = generate_samples(c, 0.05, 200, 10)
    ds = np.array([discrepancy(c, s) for s in cloud.samples])
    assert np.all(ds > 0.0)
    assert ds.max() < 1.0
    # the spread scale moves with sigma
    tight = generate_samples(c, 0.005, 200, 10)
    dt = np.array([discrepancy(c, s) for s in tight.samples])
    assert np.median(dt) < 0.2 * np.median(ds)


def test_generate_samples_rejects_bad_args():
    c = generate_center(Dims(6, 2), 11)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            generate_samples(c, sigma, 3, 0)
    with pytest.raises(ValidationError):
        generate_samples(c, 0.1, 0, 0)
    with pytest.raises(ValidationError):
        SampleSet(dims=c.dims, center=c, sigma=float("nan"), seed=0, samples=(c,))


# ---------------------------------------------------------------- perturb

def test_perturb_continuity_in_epsilon():
    x1 = random_point(20, 4, 19)
    out = perturb_initial_guess(x1, 1e-8, 20)
    assert discrepancy(out, x1) < 1e-6


def test_perturb_output_on_manifold_and_order_epsilon():
    x1 = random_point(20, 4, 21)
    out = perturb_initial_guess(x1, 0.01, 22)
    assert orthonormality_defect(out.X) < 1e-12
    d = discrepancy(out, x1)
    assert 0.0 < d < 0.1


def test_perturb_rejects_nonpositive_epsilon():
    x1 = random_point(6, 2, 23)
    for epsilon in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            perturb_initial_guess(x1, epsilon, 0)


# ---------------------------------------------------------------- seeds

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 0, 1) == derive_seed(42, 0, 1)
    assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)
    assert derive_seed(42) != derive_seed(43)


# ---------------------------------------------------------------- tangent

def test_tangent_vector_validation():
    x = random_point(10, 3, 24)
    rng = np.random.default_rng(25)
    v = project_to_tangent(x, rng.standard_normal((10, 3)))
    TangentVector(x, v.V)  # fine
    with pytest.raises(ValidationError):
        TangentVector(x, x.X)  # X itself is far from tangent
    assert tangency_defect(x.X, v.V) < 1e-12
