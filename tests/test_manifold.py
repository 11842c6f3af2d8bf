import math
import re
import reprlib
import sys
import threading
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from stiefelmean import manifold, maps
from stiefelmean.averaging import AveragingConfig
from stiefelmean.errors import DomainError, StiefelMeanError, ValidationError
from stiefelmean.experiments import default_spec
from stiefelmean.fileio import read_sample_set, write_point, write_sample_set
from stiefelmean.kernels import _skew_expm_action, skew_expm, skew_part, thin_qr_q_factor
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
    project_to_tangent,
    tangency_defect,
    _orthonormality_defects,
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


def test_tangent_is_immutable_and_both_types_print_their_space():
    x = canonical_point(4, 2)
    v = TangentVector(x, np.array([[0.0, 0.5], [-0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(AttributeError, match="^TangentVector is immutable$"):
        v.V = np.zeros((4, 2))
    assert repr(x) == "StiefelPoint(St(4,2))"
    assert repr(v) == "TangentVector(St(4,2), |V|=7.071e-01)"


def test_sample_set_requires_samples():
    x = canonical_point(4, 2)
    with pytest.raises(ValidationError):
        SampleSet(dims=x.dims, center=x, sigma=0.1, seed=0, stack=())


def test_sample_set_checks_dims():
    x = canonical_point(4, 2)
    y = canonical_point(5, 2)
    with pytest.raises(ValidationError):
        SampleSet(dims=x.dims, center=x, sigma=0.1, seed=0, stack=(x, y))
    with pytest.raises(ValidationError) as err:
        SampleSet(dims=x.dims, center=x, sigma=0.1, seed=0, stack=(x.X, x.X, x.X[:3]))
    assert str(err.value) == "sample 2 has shape (3, 2), expected (4, 2)"
    # a complex sample is refused, not cast to its real part
    for not_numbers in (np.full((2, 4, 2), "a"), [x.X, [[object()] * 2] * 4],
                        [x.X + 1j, x.X], np.array([x.X, x.X]) + 1e-3j):
        with pytest.raises(ValidationError, match="^samples must be real numbers$") as err:
            SampleSet(dims=x.dims, center=x, sigma=0.1, seed=0, stack=not_numbers)
        # NumPy's own conversion error is kept as the cause
        assert isinstance(err.value.__cause__, (TypeError, ValueError))


def raw_cloud(seed, n_samples=6, p=7, n=3):
    """Plain (p, n) arrays of a generated cloud, with its dims."""
    cloud = generate_samples(generate_center(Dims(p, n), seed), 0.1, n_samples, seed + 1)
    return cloud.dims, [np.array(x) for x in cloud.stack]


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
    assert str(err.value) == "sample 4: X must be finite"


def test_sample_set_stack_is_read_only_and_backs_the_samples():
    dims, blocks = raw_cloud(63)
    cloud = SampleSet(dims, None, 0.1, 0, blocks)
    assert cloud.stack.shape == (6, 7, 3) and cloud.stack.dtype == np.float64
    assert cloud.stack.flags.c_contiguous
    assert np.array_equal(cloud.stack, np.array(blocks))
    with pytest.raises(ValueError):
        cloud.stack[0, 0, 0] = 1.0
    # the point views are built on first read only, then kept
    assert "samples" not in vars(cloud)
    assert cloud.samples is cloud.samples
    # a point reads as its array, copied only when a copy is asked for
    assert np.asarray(cloud.samples[0]) is cloud.samples[0].X
    assert not np.shares_memory(np.array(cloud.samples[0]), cloud.stack)
    # NumPy 1.x calls the protocol without copy, positionally with a dtype
    assert cloud.samples[0].__array__() is cloud.samples[0].X
    assert cloud.samples[0].__array__(np.float32).dtype == np.float32
    for k, s in enumerate(cloud.samples):
        assert isinstance(s, StiefelPoint) and s.dims == dims
        assert np.shares_memory(s.X, cloud.stack)
        assert np.array_equal(s.X, blocks[k])
    # points are copied in, so the caller's arrays stay the caller's
    blocks[0][0, 0] = 5.0
    assert cloud.stack[0, 0, 0] != 5.0
    again = SampleSet(dims, None, 0.1, 0, cloud.samples)
    assert np.array_equal(again.stack, cloud.stack)
    # a tuple of points, passed positionally as a cloud minus its last sample
    short = SampleSet(dims, None, 0.1, 0, cloud.samples[:-1])
    assert short.stack.tobytes() == cloud.stack[:-1].tobytes()


def test_sample_set_takes_one_stack_whole():
    dims, blocks = raw_cloud(64)
    stack = np.array(blocks)
    cloud = SampleSet(dims, None, 0.1, 0, stack)
    assert np.array_equal(cloud.stack, stack)
    assert not np.shares_memory(cloud.stack, stack)
    assert np.array_equal(SampleSet(dims, None, 0.1, 0, blocks).stack, cloud.stack)
    # a stack in another memory order is copied into C order
    fortran = SampleSet(dims, None, 0.1, 0, np.asfortranarray(stack))
    assert fortran.stack.flags.c_contiguous
    assert np.array_equal(fortran.stack, stack)
    with pytest.raises(ValidationError) as err:
        SampleSet(dims, None, 0.1, 0, stack[:, :5])
    assert str(err.value) == "sample 0 has shape (5, 3), expected (7, 3)"
    stack[2] *= 2.0
    with pytest.raises(ValidationError) as err:
        SampleSet(dims, None, 0.1, 0, stack)
    assert str(err.value).startswith("sample 2: orthonormality defect")


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


@given(st.integers(1, 30), st.integers(1, 12), st.integers(0, 2**32 - 1),
       st.floats(-12.0, -7.0))
def test_batched_defects_are_the_per_slice_bits(p, n, seed, log_spread):
    n = min(n, p)
    rng = np.random.default_rng(seed)
    stack = np.linalg.qr(rng.standard_normal((5, p, n)))[0]
    stack = stack * (1.0 + 10.0 ** log_spread * rng.standard_normal((5, 1, n)))
    expected = [orthonormality_defect(x) for x in stack]
    assert np.array_equal(_orthonormality_defects(np.ascontiguousarray(stack)), expected)


def test_defect_of_a_view_is_the_bits_the_constructors_check():
    # columns scaled to a defect within rounding of TOL_ORTH, read through a
    # reversed view: the function checks the C-ordered copy, as StiefelPoint
    # and SampleSet do, so all three accept and reject the same columns
    rng = np.random.default_rng(0)
    q = rng.standard_normal((2000, 27, 1))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    q *= np.sqrt(1.0 + TOL_ORTH * (1.0 + 1e-6 * rng.uniform(-1.0, 1.0, (2000, 1, 1))))
    views = [col[::-1] for col in q]
    defects = np.array([orthonormality_defect(v) for v in views])
    assert 0 < np.count_nonzero(defects < TOL_ORTH) < len(views)
    assert np.array_equal(defects, _orthonormality_defects(np.array(views)))
    for v, d in zip(views, defects):
        if d < TOL_ORTH:
            StiefelPoint(v)
        else:
            with pytest.raises(ValidationError):
                StiefelPoint(v)


@given(st.integers(1, 60), st.integers(1, 20), st.integers(0, 2**32 - 1),
       st.floats(1.0 - 1e-7, 1.0))
def test_square_norm_bound_covers_samples_just_inside_the_tolerance(p, n, seed, share):
    # Columns scaled by 1 + delta put the whole defect on the diagonal, where
    # tr(Q^T Q - I) <= sqrt(n) ||Q^T Q - I||_F is tight, so ||Q||_F^2 sits
    # at n + sqrt(n) TOL_ORTH up to the check's rounding.
    n = min(n, p)
    delta = math.sqrt(1.0 + share * TOL_ORTH / math.sqrt(n)) - 1.0
    q = thin_qr_q_factor(np.random.default_rng(seed).standard_normal((p, n)))
    q = q * (1.0 + delta)
    # the row order changes the rounding of the check and of the norm
    samples = [s for s in (q, q[::-1]) if orthonormality_defect(s) < TOL_ORTH]
    assume(samples)
    rows = SampleSet(Dims(p, n), None, 0.0, 0, samples).stack.reshape(len(samples), -1)
    assert np.all(np.einsum("ki,ki->k", rows, rows) <= maps._sq_norm_bound(p, n))


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
    p = StiefelPoint(q)
    assert orthonormality_defect(p.X) < 1e-12


def test_validate_rejects_non_finite():
    x = np.eye(4)[:, :2]
    x[0, 0] = np.nan
    with pytest.raises(ValidationError, match="^X must be finite$"):
        StiefelPoint(x)


def test_point_and_defects_take_x_by_the_matrix_rule():
    # StiefelPoint, orthonormality_defect and tangency_defect convert and
    # check their arrays as every matrix input is, a complex X included
    x = np.eye(4)[:, :2]
    nan = np.full((4, 2), np.nan)
    for value, message in [
        ([["a"]], "X must be an array of real numbers"),
        (x + 1e-3j, "X must be an array of real numbers"),
        (np.ones(3), "X must be a matrix, got shape (3,)"),
        (np.ones((2, 2, 2)), "X must be a matrix, got shape (2, 2, 2)"),
        (np.ones((3, 0)), "X must be a matrix, got shape (3, 0)"),
        (nan, "X must be finite"),
    ]:
        for call in (StiefelPoint, orthonormality_defect, lambda v: tangency_defect(v, x)):
            with pytest.raises(ValidationError) as err:
                call(value)
            assert str(err.value) == message
    for value, message in [
        (np.ones((4, 2)) + 1j, "V must be an array of real numbers"),
        (np.ones((2, 4)), "V must be a (4, 2) matrix, got shape (2, 4)"),
        (nan, "V must be finite"),
    ]:
        with pytest.raises(ValidationError) as err:
            tangency_defect(x, value)
        assert str(err.value) == message
    # n > p passes the matrix rule and fails the Dims one
    with pytest.raises(ValidationError, match=r"^need 1 <= n <= p, got \(2, 3\)$"):
        StiefelPoint(np.eye(2, 3))
    # a point wraps a C-ordered float array, converted from what it is given
    y = StiefelPoint(np.asfortranarray(x))
    assert y.X.flags.c_contiguous and np.array_equal(y.X, x)
    assert StiefelPoint([[1], [0]]).X.dtype == np.float64


def test_point_and_tangent_run_the_matrix_rule_once_per_argument(monkeypatch):
    # StiefelPoint checks X only inside orthonormality_defect, which it calls
    # by its module name; TangentVector checks V only inside tangency_defect
    x = random_point(9, 3, 7)
    v = project_to_tangent(x, np.ones((9, 3))).V
    calls = []
    check_matrix, defect = manifold._check_matrix, manifold.orthonormality_defect

    def counted(a, name, *args, **kwargs):
        calls.append(name)
        return check_matrix(a, name, *args, **kwargs)

    def counted_defect(a):
        calls.append("defect")
        return defect(a)
    monkeypatch.setattr(manifold, "_check_matrix", counted)
    monkeypatch.setattr(manifold, "orthonormality_defect", counted_defect)
    for value in (x.X, x.X.tolist(), np.asfortranarray(x.X), 2.0 * x.X, np.full((9, 3), np.inf)):
        calls.clear()
        try:
            StiefelPoint(value)
        except ValidationError:
            pass
        assert calls == ["defect", "X"]
    calls.clear()
    TangentVector(x, v)
    assert calls == ["X", "V"]


def test_check_stiefel_names_the_first_failing_sample():
    dims, blocks = raw_cloud(64)
    stack = np.array(blocks)
    manifold._check_stiefel(stack)  # a valid cloud passes
    manifold._check_stiefel(stack[0])
    stack[2] *= 1.5
    stack[4] *= 2.0
    defect = orthonormality_defect(stack[2])
    expected = f"orthonormality defect {defect:.3e} >= {TOL_ORTH:.1e}"
    with pytest.raises(ValidationError) as err:
        manifold._check_stiefel(stack)
    assert (str(err.value), err.value.defect) == ("sample 2: " + expected, defect)
    # one array names no sample, as StiefelPoint does not
    with pytest.raises(ValidationError) as err:
        manifold._check_stiefel(stack[2])
    assert (str(err.value), err.value.defect) == (expected, defect)
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="^sample 1: X must be finite$"):
        manifold._check_stiefel(stack)


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
    u = skew_expm(0.8 * skew_part(rng.standard_normal((20, 20))))
    rx = StiefelPoint(u @ x.X)
    ry = StiefelPoint(u @ y.X)
    assert abs(discrepancy(rx, ry) - discrepancy(x, y)) < 1e-12


def test_discrepancy_dimension_mismatch():
    with pytest.raises(ValidationError):
        discrepancy(random_point(10, 3, 17), random_point(10, 4, 18))


# ---------------------------------------------------------------- sampling

def test_generate_center_takes_dims():
    with pytest.raises(ValidationError, match="^dims must be a Dims, got tuple$"):
        generate_center((6, 2), 1)


def test_entry_points_check_argument_types(tmp_path):
    # a bare array or tuple where a StiefelPoint, TangentVector, SampleSet
    # or Dims belongs is a ValidationError, not an AttributeError from deeper in
    center = generate_center(Dims(6, 2), 1)
    cloud = generate_samples(center, 0.1, 2, 0)
    q = cloud.samples[0]
    v = maps.orthographic_lifting(center, q)
    path = tmp_path / "point.txt"
    point_pairs = [maps.polar_lifting, maps.orthographic_lifting,
                   maps.composition_discrepancy_direct,
                   maps.composition_discrepancy_closed_form,
                   lambda x, y: maps.lift(maps.MapPair.POLAR, x, y),
                   lambda x, y: maps.lift(maps.MapPair.MIXED, x, y)]
    retractions = [maps.polar_retraction, maps.orthographic_retraction,
                   lambda x, w: maps.retract(maps.MapPair.ORTHO, x, w),
                   lambda x, w: maps.retract(maps.MapPair.MIXED, x, w)]
    cases = [(lambda f=f: f(center.X, q), "^x must be a StiefelPoint, got ndarray$")
             for f in point_pairs]
    cases += [(lambda f=f: f(center, q.X), "^q must be a StiefelPoint, got ndarray$")
              for f in point_pairs]
    cases += [(lambda f=f: f(center.X, v), "^x must be a StiefelPoint, got ndarray$")
              for f in retractions]
    cases += [(lambda f=f: f(center, v.V), "^v must be a TangentVector, got ndarray$")
              for f in retractions]
    for call, message in cases + [
        (lambda: discrepancy(center.X, q), "^x must be a StiefelPoint, got ndarray$"),
        (lambda: discrepancy(center, q.X), "^y must be a StiefelPoint, got ndarray$"),
        (lambda: TangentVector(center.X, v.V), "^anchor must be a StiefelPoint, got ndarray$"),
        (lambda: project_to_tangent(center.X, v.V),
         "^point must be a StiefelPoint, got ndarray$"),
        (lambda: write_sample_set(path, cloud.stack),
         "^sample_set must be a SampleSet, got ndarray$"),
        (lambda: generate_samples(center.X, 0.1, 2, 0),
         "^center must be a StiefelPoint, got ndarray$"),
        (lambda: write_point(path, center.X), "^point must be a StiefelPoint, got ndarray$"),
        (lambda: SampleSet((6, 2), None, 0.1, 0, (center,)), "^dims must be a Dims, got tuple$"),
        (lambda: SampleSet(center.dims, center.X, 0.1, 0, (center,)),
         "^center must be a StiefelPoint, got ndarray$"),
        (lambda: SampleSet(center.dims, None, 0.1, 0, None),
         "^stack must be a sequence of samples, got NoneType$"),
    ]:
        with pytest.raises(ValidationError, match=message):
            call()
    assert not path.exists()


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
    assert np.array_equal(a.stack, b.stack)


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
    for count in (0, 3.0, "3", None):
        with pytest.raises(ValidationError, match="n_samples must be an integer >= 1"):
            generate_samples(c, 0.1, count, 0)
    with pytest.raises(ValidationError):
        SampleSet(dims=c.dims, center=c, sigma=float("nan"), seed=0, stack=(c,))


def per_sample_pade_stack(center, sigma, count, seed):
    """The sampling rule one draw at a time, through the p x p exponential."""
    rng = np.random.default_rng(seed)
    p = center.dims.p
    return np.array([skew_expm(sigma * skew_part(rng.standard_normal((p, p)))) @ center.X
                     for _ in range(count)])


@pytest.mark.parametrize("p, n, sigma, count", [
    (200, 10, 0.01, 7), (40, 4, 0.05, 90), (20, 4, 0.2, 30), (5, 5, 0.3, 12),
    (200, 10, 0.1, 4), (1, 1, 0.5, 3),
])
def test_generate_samples_matches_the_per_sample_pade_rule(p, n, sigma, count):
    center = generate_center(Dims(p, n), 31)
    cloud = generate_samples(center, sigma, count, 32)
    oracle = per_sample_pade_stack(center, sigma, count, 32)
    assert np.linalg.norm(cloud.stack - oracle, axis=(1, 2)).max() < 1e-13


def test_large_spread_samples_keep_the_pade_bits():
    # every generator's 2-norm bound is far past ACTION_RADIUS, so each
    # sample is the per-sample Pade rule's, bit for bit
    center = generate_center(Dims(6, 2), 33)
    cloud = generate_samples(center, 20.0, 9, 34)
    assert np.array_equal(cloud.stack, per_sample_pade_stack(center, 20.0, 9, 34))


@pytest.mark.parametrize("sigma", [1e20, 1e200, 1e308])
def test_huge_spreads_are_typed_errors(sigma):
    # at 1e20 the rotations lose every digit (zero or non-finite matrices),
    # at 1e200 their squarings overflow, and at 1e308 so do the generators;
    # pytest turns any warning into an error
    center = generate_center(Dims(6, 2), 37)
    for call in (lambda: generate_samples(center, sigma, 4, 38),
                 lambda: perturb_initial_guess(center, sigma, 38)):
        with pytest.raises(StiefelMeanError) as err:
            call()
        if sigma > 1e100:
            assert isinstance(err.value, DomainError)
            assert err.value.sample_index == 0


@given(st.integers(1, 12), st.one_of(st.floats(15.0, 20.0), st.floats(0.0, 308.25)),
       st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3]))
def test_any_finite_spread_gives_samples_or_a_typed_error(p, log_sigma, seed, chunk):
    # past the action's radius a spread of 1e8 to 1e16 loses orthonormality,
    # 1e16 to 1e19 or so can give finite entries so large that X^T X
    # overflows (drawn half the time), and more gives non-finite rotations;
    # none of it may warn, with a worker either: chunks of 1 or 2 of the 3
    # samples are drawn on a worker, a chunk of 3 inline
    center = generate_center(Dims(p, max(1, p // 3)), seed)
    sigma = min(10.0**log_sigma, np.finfo(float).max)
    with mock.patch.object(manifold, "SAMPLE_CHUNK_BYTES", chunk * 8 * p * p), \
            mock.patch.object(manifold, "_usable_cpus", lambda: 2):
        for call in (lambda: generate_samples(center, sigma, 3, seed).stack,
                     lambda: perturb_initial_guess(center, sigma, seed).X):
            try:
                assert np.isfinite(call()).all()
            except StiefelMeanError:
                pass


def test_huge_finite_entries_fail_the_point_check_without_a_warning():
    # X^T X and its norm overflow: the defect is inf, which fails the check
    huge = np.full((4, 2), 1e100)
    assert orthonormality_defect(huge) == math.inf
    with pytest.raises(ValidationError, match="orthonormality defect inf"):
        StiefelPoint(huge)
    with pytest.raises(ValidationError, match="sample 1: orthonormality defect"):
        SampleSet(Dims(4, 2), None, 0.0, 0, [np.eye(4)[:, :2], 1e200 * np.ones((4, 2))])


class ChunkCountingRng:
    """A generator that counts the chunks drawn from it."""

    def __init__(self, rng):
        self.rng, self.drawn, self.third_drawn = rng, 0, threading.Event()

    def standard_normal(self, out):
        self.rng.standard_normal(out=out)
        self.drawn += 1
        if self.drawn == 3:
            self.third_drawn.set()


def test_generation_names_a_failing_sample_by_its_index_in_the_cloud(monkeypatch):
    # chunks of 4 samples, all past the action's radius, and an exponential
    # that is not finite for the failing samples: 9 is slice 1 of the third
    # chunk, 5 slice 1 of the second; inline (1 CPU) and with a worker that
    # draws (2). With the worker, sample 5 fails only once the third chunk
    # is drawn, and the error still names it
    p = 6
    center = generate_center(Dims(p, 2), 39)
    monkeypatch.setattr(manifold, "SAMPLE_CHUNK_BYTES", 4 * 8 * p * p)
    expm, default_rng = scipy.linalg.expm, np.random.default_rng
    for cpus in (1, 2):
        for failing, first in (({9}, 9), ({5, 9}, 5)):
            monkeypatch.setattr(manifold, "_usable_cpus", lambda: cpus)
            rng, calls = ChunkCountingRng(default_rng(40)), []
            monkeypatch.setattr(manifold.np.random, "default_rng", lambda seed: rng)

            def failing_expm(omega):
                out = expm(omega)
                calls.append(omega.shape)
                if len(calls) - 1 in failing:
                    if cpus == 2 and len(calls) - 1 < 8:
                        assert rng.third_drawn.wait(10)
                    out[0, 0] = math.nan
                return out

            monkeypatch.setattr(scipy.linalg, "expm", failing_expm)
            before = threading.active_count()
            with pytest.raises(DomainError, match="not finite") as err:
                generate_samples(center, 20.0, 12, 40)
            assert calls == [(p, p)] * (first + 1)
            assert err.value.sample_index == first
            # inline, no chunk past the failing one is drawn; on a worker, one is
            assert rng.drawn == min(3, first // 4 + cpus)
            assert threading.active_count() == before


@pytest.mark.parametrize("p, n, chunk", [
    (1, 1, 3), (40, 4, 3), (200, 10, 3), (40, 4, None), (200, 10, None),
])
def test_generate_samples_prefix_is_the_smaller_cloud(monkeypatch, p, n, chunk):
    """The first k samples of a cloud are the k-sample cloud, for k on both
    sides of a chunk boundary; ``chunk`` None keeps the module's chunk size.
    Clouds are made as the machine allows, and with one CPU, inline."""
    if chunk is None:
        chunk = manifold.SAMPLE_CHUNK_BYTES // (8 * p * p)
    else:
        monkeypatch.setattr(manifold, "SAMPLE_CHUNK_BYTES", chunk * 8 * p * p)
    center = generate_center(Dims(p, n), 35)
    full = generate_samples(center, 0.05, 2 * chunk + 1, 36)
    monkeypatch.setattr(manifold, "_usable_cpus", lambda: 1)
    for k in (1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
        head = generate_samples(center, 0.05, k, 36)
        assert np.array_equal(head.stack, full.stack[:k])
    assert np.array_equal(generate_samples(center, 0.05, 2 * chunk + 1, 36).stack, full.stack)


def serial_rotation_stack(x, scale, count, seed, chunk):
    """The sampling rule chunk by chunk in draw order, on this thread."""
    rng, p, out = np.random.default_rng(seed), x.shape[0], []
    for start in range(0, count, chunk):
        a = rng.standard_normal((min(chunk, count - start), p, p))
        out.append(_skew_expm_action((np.swapaxes(a, 1, 2) - a) * (0.5 * scale), x, start))
    return np.concatenate(out)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("chunks", [1, 2, 5])
@pytest.mark.parametrize("p, n, sigma", [(40, 4, 0.05), (200, 10, 0.01), (6, 2, 20.0)])
def test_generation_has_the_bits_of_the_serial_chunk_loop(monkeypatch, p, n, sigma, chunks,
                                                          cpus):
    # 13 samples in 1, 2 or 5 chunks, the last one short but for one chunk;
    # sigma 20 sends every St(6, 2) rotation to the exponential. The
    # interpreter lock changes hands as often as it can, so the two threads
    # interleave finely
    count = 13
    chunk = -(-count // chunks)
    monkeypatch.setattr(manifold, "SAMPLE_CHUNK_BYTES", chunk * 8 * p * p)
    monkeypatch.setattr(manifold, "_usable_cpus", lambda: cpus)
    center = generate_center(Dims(p, n), 41)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cloud = generate_samples(center, sigma, count, 42)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(cloud.stack, serial_rotation_stack(center.X, sigma, count, 42, chunk))
    guess = perturb_initial_guess(cloud.stack[3], sigma, 43)
    assert np.array_equal(guess.X, serial_rotation_stack(cloud.stack[3], sigma, 1, 43, 1)[0])
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2])
def test_rotations_are_applied_under_the_callers_error_state(monkeypatch, cpus):
    # NumPy's error state belongs to a thread; the rotations are applied
    # under the caller's, also while a worker draws
    seen = []

    def action(omega, x, first):
        seen.append((first, np.geterr()["over"]))
        return np.broadcast_to(x, omega.shape[:1] + x.shape)

    monkeypatch.setattr(manifold, "_skew_expm_action", action)
    monkeypatch.setattr(manifold, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(manifold, "SAMPLE_CHUNK_BYTES", 2 * 8 * 6 * 6)
    center = generate_center(Dims(6, 2), 44)
    with np.errstate(over="raise"):
        cloud = generate_samples(center, 0.1, 5, 45)
    assert seen == [(0, "raise"), (2, "raise"), (4, "raise")]
    assert np.array_equal(cloud.stack, np.broadcast_to(center.X, (5, 6, 2)))


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


def test_perturb_applies_the_sampling_rotation():
    x1 = random_point(20, 4, 26)
    out = perturb_initial_guess(x1, 0.01, 27)
    a = np.random.default_rng(27).standard_normal((20, 20))
    assert np.linalg.norm(out.X - skew_expm(0.01 * skew_part(a)) @ x1.X) < 1e-13
    cloud = generate_samples(x1, 0.01, 1, 27)
    assert np.array_equal(out.X, cloud.stack[0])


def test_perturb_takes_a_stack_row_or_its_point():
    cloud = generate_samples(random_point(20, 4, 28), 0.1, 3, 29)
    from_row = perturb_initial_guess(cloud.stack[0], 0.01, 30)
    from_point = perturb_initial_guess(cloud.samples[0], 0.01, 30)
    assert from_row.dims == cloud.dims
    assert from_row.X.tobytes() == from_point.X.tobytes()


# ---------------------------------------------------------------- seeds

def test_derive_seed_deterministic_and_distinct():
    assert derive_seed(42, 0, 1) == derive_seed(42, 0, 1)
    assert derive_seed(42, 0, 1) != derive_seed(42, 1, 0)
    assert derive_seed(42) != derive_seed(43)


@pytest.mark.parametrize("seed", [-1, -5, 1.0, 1.5, True, "7", None])
def test_seeds_must_be_nonnegative_integers(seed, tmp_path):
    dims = Dims(6, 2)
    center = generate_center(dims, 1)
    calls = [
        lambda: generate_center(dims, seed),
        lambda: generate_samples(center, 0.1, 3, seed),
        lambda: perturb_initial_guess(center, 0.01, seed),
        lambda: derive_seed(seed, 0),
        lambda: derive_seed(1, 0, seed),
        lambda: SampleSet(dims, center, 0.1, seed, (center,)),
        # the writer takes no seed that its reader would reject
        lambda: write_point(tmp_path / "point.txt", center, seed=seed),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="must be a nonnegative integer"):
            call()
    assert not (tmp_path / "point.txt").exists()
    # NumPy integers are seeds too
    assert np.array_equal(generate_center(dims, np.uint64(1)).X, center.X)


_INT1 = "an integer >= 1"
_INT0 = "a nonnegative integer"
_REAL = "finite and nonnegative"
_POSITIVE = "finite and positive"


def _stores_nothing(result):
    return None


def _written_and_read(path, center, **metadata):
    write_point(path, center, **metadata)
    return read_sample_set(path)


# (id, field name, rule, build): build(value, center, path) passes value as
# that field and returns what was stored, or None where nothing is stored
_SCALAR_INPUTS = [
    ("Dims.p", "p", _INT1, lambda v, c, f: Dims(v, 1).p),
    ("Dims.n", "n", _INT1, lambda v, c, f: Dims(6, v).n),
    ("SampleSet.sigma", "sigma", _REAL, lambda v, c, f: SampleSet(c.dims, c, v, 0, (c,)).sigma),
    ("SampleSet.seed", "seed", _INT0, lambda v, c, f: SampleSet(c.dims, c, 0.1, v, (c,)).seed),
    ("generate_samples.sigma", "sigma", _REAL, lambda v, c, f: generate_samples(c, v, 2, 0).sigma),
    ("generate_samples.n_samples", "n_samples", _INT1,
     lambda v, c, f: len(generate_samples(c, 0.1, v, 0))),
    ("generate_samples.seed", "seed", _INT0, lambda v, c, f: generate_samples(c, 0.1, 2, v).seed),
    ("perturb_initial_guess.epsilon", "epsilon", _POSITIVE,
     lambda v, c, f: _stores_nothing(perturb_initial_guess(c, v, 0))),
    ("perturb_initial_guess.seed", "seed", _INT0,
     lambda v, c, f: _stores_nothing(perturb_initial_guess(c, 0.01, v))),
    ("derive_seed.seed", "seed", _INT0, lambda v, c, f: _stores_nothing(derive_seed(v))),
    ("derive_seed.path", "seed path entry", _INT0,
     lambda v, c, f: _stores_nothing(derive_seed(1, v))),
    ("AveragingConfig.max_iters", "max_iters", _INT1,
     lambda v, c, f: AveragingConfig(max_iters=v).max_iters),
    ("AveragingConfig.conv_tol", "conv_tol", _POSITIVE,
     lambda v, c, f: AveragingConfig(conv_tol=v).conv_tol),
    ("default_spec.seed", "seed", _INT0, lambda v, c, f: default_spec("convergence", v).seed),
    ("default_spec.p", "p", _INT1, lambda v, c, f: default_spec("convergence", 1, p=v).p),
    ("default_spec.trials", "trials", _INT1,
     lambda v, c, f: default_spec("runtime_vs_n", 1, trials=v).trials),
    ("default_spec.sweep", "sweep value", _INT1,
     lambda v, c, f: default_spec("runtime_vs_n", 1, sweep=(v,)).sweep[0]),
    ("default_spec.sigma", "sigma", _REAL,
     lambda v, c, f: default_spec("convergence", 1, sigma=v).sigma),
    ("write_point.sigma", "sigma", _REAL,
     lambda v, c, f: _written_and_read(f, c, sigma=v).sigma),
    ("write_point.seed", "seed", _INT0,
     lambda v, c, f: _written_and_read(f, c, seed=v).seed),
]


@pytest.mark.parametrize("name, rule, build", [
    pytest.param(name, rule, build, id=case) for case, name, rule, build in _SCALAR_INPUTS
])
def test_scalar_inputs_share_one_rule(name, rule, build, tmp_path):
    center = generate_center(Dims(6, 2), 1)
    path = tmp_path / "point.txt"
    integer = rule in (_INT0, _INT1)
    # a real rule also rejects an int too large for a float, whose message
    # shortens it
    bad = (True, "0.1", None, math.nan) + ((np.float64(6.0),) if integer else (10**400,))
    for value in bad:
        message = f"^{re.escape(name)} must be {rule}, got {re.escape(reprlib.repr(value))}$"
        with pytest.raises(ValidationError, match=message):
            build(value, center, path)
    assert not path.exists()
    # NumPy scalars are accepted and stored as Python numbers
    good = (np.int64(6),) if integer else (np.int64(6), np.float64(0.1), np.float32(0.1))
    for value in good:
        stored = build(value, center, path)
        expected = int(value) if integer else float(value)
        assert stored is None or (type(stored) is type(expected) and stored == expected)


# ---------------------------------------------------------------- tangent

def test_tangent_vector_validation():
    x = random_point(10, 3, 24)
    rng = np.random.default_rng(25)
    v = project_to_tangent(x, rng.standard_normal((10, 3)))
    TangentVector(x, v.V)  # fine
    with pytest.raises(ValidationError):
        TangentVector(x, x.X)  # X itself is far from tangent
    assert tangency_defect(x.X, v.V) < 1e-12
    # a NaN defect is not below the tolerance: non-finite entries are rejected
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="^V must be finite$"):
            TangentVector(x, np.full((10, 3), bad))


def test_projector_matches_the_p_by_p_projector_formula():
    x = random_point(12, 4, 26)
    a = np.random.default_rng(27).standard_normal((12, 4))
    xta = x.X.T @ a
    formula = (np.eye(12) - x.X @ x.X.T) @ a - x.X @ (0.5 * (xta.T - xta))
    assert np.abs(project_to_tangent(x, a).V - formula).max() < 1e-15
