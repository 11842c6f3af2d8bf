import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from stiefelmean import kernels
from stiefelmean.errors import DomainError, RankDeficientError, ValidationError
from stiefelmean.kernels import (
    skew_expm,
    skew_expm_action,
    skew_part,
    solve_lyapunov_sym,
    solve_ortho_retraction_eq,
    spd_inv_sqrt,
    thin_qr_q_factor,
)
from stiefelmean.manifold import (
    StiefelPoint,
    TangentVector,
    perturb_initial_guess,
    project_to_tangent,
)


# ---------------------------------------------------------------- oracles

def expm_taylor(a, terms=30):
    """Plain truncated exponential series; accurate for small ||a||."""
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def lyapunov_kron_oracle(m, b):
    """Assemble the vectorized operator column by column from its action on
    basis matrices, then solve. Independent of the library's construction."""
    n = m.shape[0]
    op = np.zeros((n * n, n * n))
    for j in range(n):
        for i in range(n):
            e = np.zeros((n, n))
            e[i, j] = 1.0
            op[:, j * n + i] = (m @ e + e @ m.T).flatten(order="F")
    s = np.linalg.solve(op, b.flatten(order="F"))
    return s.reshape((n, n), order="F")


def random_skew(rng, p):
    a = rng.standard_normal((p, p))
    return 0.5 * (a.T - a)


# ---------------------------------------------------------------- skew part

def test_skew_part_of_symmetric_is_zero():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 5))
    sym = a + a.T
    assert np.all(skew_part(sym) == 0.0)


def test_skew_part_example():
    out = skew_part(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.array_equal(out, np.array([[0.0, -0.5], [0.5, 0.0]]))


def test_skew_part_double_application_negates():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    once = skew_part(a)
    assert np.allclose(skew_part(once), -once, atol=1e-16)


def test_skew_part_rejects_non_square():
    with pytest.raises(ValidationError):
        skew_part(np.ones((2, 3)))


# ---------------------------------------------------------------- thin QR

def test_qr_fixed_point_on_canonical_columns():
    a = np.eye(5)[:, :2]
    assert np.allclose(thin_qr_q_factor(a), a, atol=1e-15)


def test_qr_column_scaling():
    a = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(thin_qr_q_factor(a), expected, atol=1e-15)


def test_qr_orthonormality_random():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((20, 4))
    q = thin_qr_q_factor(a)
    assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-12


def test_qr_deterministic_sign_convention():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((10, 3))
    q1 = thin_qr_q_factor(a)
    q2 = thin_qr_q_factor(a.copy())
    assert np.array_equal(q1, q2)
    # reconstruct R and check its diagonal is nonnegative
    r = q1.T @ a
    assert np.all(np.diag(r) >= 0.0)


def test_qr_rank_deficiency_reports_column():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((8, 4))
    a[:, 2] = a[:, 0]  # third column dependent
    with pytest.raises(RankDeficientError) as err:
        thin_qr_q_factor(a)
    assert err.value.column == 2


def test_qr_rejects_wide_input():
    with pytest.raises(ValidationError):
        thin_qr_q_factor(np.ones((2, 3)))


# ---------------------------------------------------------------- spd_inv_sqrt

def test_spd_inv_sqrt_identity():
    assert np.allclose(spd_inv_sqrt(np.eye(4)), np.eye(4), atol=1e-15)


def test_spd_inv_sqrt_diagonal():
    out = spd_inv_sqrt(np.diag([4.0, 9.0]))
    assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]), atol=1e-15)


def test_spd_inv_sqrt_closed_form_2x2():
    # eigenpairs of [[2,1],[1,2]]: (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    a = 0.5 * (1.0 + 1.0 / math.sqrt(3.0))
    b = 0.5 * (1.0 / math.sqrt(3.0) - 1.0)
    expected = np.array([[a, b], [b, a]])
    r = spd_inv_sqrt(s)
    assert np.allclose(r, expected, atol=1e-14)
    assert np.linalg.norm(r @ s @ r - np.eye(2)) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 11])
def test_spd_inv_sqrt_round_trip_random(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    s = a @ a.T + n * np.eye(n)
    r = spd_inv_sqrt(s)
    assert np.allclose(r, r.T, atol=1e-15)
    assert np.linalg.norm(r @ s @ r - np.eye(n)) < 1e-12


def test_spd_inv_sqrt_graded_condition_1e8():
    # Exactly representable spectra up to condition 1e8 keep the round trip
    # at the 1e-10 contract.
    w = np.logspace(-4, 4, 9)
    s = np.diag(w)
    r = spd_inv_sqrt(s)
    assert np.linalg.norm(r @ s @ r - np.eye(9)) < 1e-10


def test_spd_inv_sqrt_rotated_condition_1e4():
    rng = np.random.default_rng(7)
    n = 8
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.logspace(-2, 2, n)
    s = (q * w) @ q.T
    s = 0.5 * (s + s.T)
    r = spd_inv_sqrt(s)
    assert np.linalg.norm(r @ s @ r - np.eye(n)) < 1e-10


def test_spd_inv_sqrt_rotated_condition_1e8_storage_limited():
    # With a rotated spectrum at condition 1e8, float64 storage of S itself
    # perturbs the small eigenvalues at relative level eps*cond ~ 2e-8, so no
    # double-precision algorithm can do better than that on the round trip.
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n = 8
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        w = np.logspace(-4, 4, n)
        s = (q * w) @ q.T
        s = 0.5 * (s + s.T)
        r = spd_inv_sqrt(s)
        worst = max(worst, np.linalg.norm(r @ s @ r - np.eye(n)))
    assert worst < 1e8 * np.finfo(float).eps * 10


def eigh_inv_sqrt(s):
    """Inverse square root through the symmetric eigendecomposition."""
    w, u = np.linalg.eigh(s)
    r = (u / np.sqrt(w)) @ u.T
    return 0.5 * (r + r.T)


def series_inv_sqrt(s):
    """The binomial series of (I + G)^(-1/2), G = S - I, with its
    coefficients built by the recurrence for each call, as spd_inv_sqrt
    built them before it tabulated them."""
    eye = np.eye(s.shape[0])
    g = s - eye
    gnrm = float(np.linalg.norm(g))
    coeffs = [1.0]
    while gnrm ** len(coeffs) / (1.0 - gnrm) >= kernels.SERIES_TAIL:
        k = len(coeffs)
        coeffs.append(coeffs[-1] * -(2 * k - 1) / (2 * k))
    r = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        r = r @ g
        r.flat[:: r.shape[0] + 1] += c
    return 0.5 * (r + r.T)


@pytest.mark.parametrize("n", range(1, 41))
def test_spd_inv_sqrt_series_matches_eigh_near_identity(n, monkeypatch):
    # S = I + G with ||G||_F on both sides of the series radius 1/4: inside
    # it the series runs (eigh is patched away to prove it) and gives the
    # bits of the per-call recurrence, outside it the eigendecomposition
    # does; both agree with the eigh oracle.
    rng = np.random.default_rng(500 + n)
    a = rng.standard_normal((n, n))
    direction = (a + a.T) / np.linalg.norm(a + a.T)
    radii = (0.0, 1e-12, 1e-6, 1e-2, 0.1, 0.25 * (1.0 - 1e-9), 0.25 * (1.0 + 1e-9), 0.5)
    # the eigh oracle itself is accurate to a few n * eps in Frobenius norm
    tol = 4 * n * np.finfo(float).eps
    cases = []
    for radius in radii:
        s = np.eye(n) + radius * direction
        cases.append((s, eigh_inv_sqrt(s), radius < 0.25))
    for s, oracle, series in cases:
        with monkeypatch.context() as m:
            if series:
                m.setattr(np.linalg, "eigh", None)
            r = spd_inv_sqrt(s)
        if series:
            assert np.array_equal(r, series_inv_sqrt(s))
        assert np.array_equal(r, r.T)
        assert np.linalg.norm(r - oracle) < tol
        assert np.linalg.norm(r @ s @ r - np.eye(n)) < tol


def test_spd_inv_sqrt_series_keeps_positive_definiteness_check(monkeypatch):
    # eigenvalues at or below EPS_SPD still reach the eigh path and its
    # DomainError, however close to the identity the input is
    s = np.diag([1.0, 1.0 - 0.2])
    assert np.allclose(spd_inv_sqrt(s), np.diag([1.0, 1.0 / math.sqrt(0.8)]), atol=1e-15)
    monkeypatch.setattr(kernels, "EPS_SPD", 0.9)
    with pytest.raises(DomainError, match=r"<= 9\.0e-01$"):
        spd_inv_sqrt(s)


def test_spd_inv_sqrt_rejects_asymmetric():
    with pytest.raises(ValidationError):
        spd_inv_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_spd_inv_sqrt_rejects_indefinite():
    with pytest.raises(DomainError):
        spd_inv_sqrt(np.diag([1.0, -0.5]))


def test_spd_inv_sqrt_rejects_tiny_eigenvalue():
    with pytest.raises(DomainError):
        spd_inv_sqrt(np.diag([1.0, 1e-15]))


# ---------------------------------------------------------------- skew_expm

def test_skew_expm_zero_is_identity():
    assert np.array_equal(skew_expm(np.zeros((4, 4))), np.eye(4))


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.5, 7.0])
def test_skew_expm_planar_rotation(theta):
    omega = np.array([[0.0, -1.0], [1.0, 0.0]])
    expected = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert np.allclose(skew_expm(theta * omega), expected, atol=1e-13)


def test_skew_expm_matches_taylor_oracle():
    rng = np.random.default_rng(5)
    omega = random_skew(rng, 20)
    out = skew_expm(0.05 * omega)
    oracle = expm_taylor(0.05 * omega, terms=30)
    assert np.linalg.norm(out - oracle) < 1e-8


def test_skew_expm_orthogonality_defect():
    rng = np.random.default_rng(6)
    omega = random_skew(rng, 20)
    out = skew_expm(0.05 * omega)
    assert np.linalg.norm(out.T @ out - np.eye(20)) < 1e-10


def test_skew_expm_large_scale_stays_orthogonal():
    # exercises the squaring branch: ||scale*omega||_F well above 1
    rng = np.random.default_rng(16)
    omega = random_skew(rng, 30)
    out = skew_expm(1.7 * omega)
    assert np.linalg.norm(out.T @ out - np.eye(30)) < 1e-10
    assert np.allclose(out, scipy.linalg.expm(1.7 * omega), atol=1e-9)


def test_skew_expm_inverse_by_negation():
    rng = np.random.default_rng(8)
    omega = random_skew(rng, 12)
    fwd = skew_expm(0.7 * omega)
    back = skew_expm(-0.7 * omega)
    assert np.linalg.norm(fwd @ back - np.eye(12)) < 1e-10


def test_skew_expm_rejects_non_skew():
    with pytest.raises(ValidationError):
        skew_expm(np.eye(3))


# ---------------------------------------------------------------- skew_expm_action

def scaled_skew(rng, p, bound):
    """Random skew p x p matrix whose 2-norm bound ||W||_F / sqrt(2) is ``bound``."""
    w = random_skew(rng, p)
    nrm = np.linalg.norm(w)
    return w * (bound * math.sqrt(2.0) / nrm) if nrm > 0.0 else w


@st.composite
def action_cases(draw):
    """A frame X on St(p, n), 1 <= n <= p <= 30, and 1-4 skew generators
    whose 2-norm bounds run from 0 to past ACTION_RADIUS, the large-spread
    path."""
    p = draw(st.integers(1, 30))
    n = draw(st.integers(1, p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bounds = draw(st.lists(st.floats(0.0, 1.5 * kernels.ACTION_RADIUS),
                           min_size=1, max_size=4))
    x = thin_qr_q_factor(rng.standard_normal((p, n)))
    return np.array([scaled_skew(rng, p, b) for b in bounds]), x


def check_action(omega, x, out):
    n = x.shape[1]
    assert out.shape == (len(omega),) + x.shape
    for w, y in zip(omega, out):
        assert np.linalg.norm(y - skew_expm(w) @ x) < 1e-13
        assert np.linalg.norm(y.T @ y - np.eye(n)) < 1e-13
        # a slice's bits do not depend on the slices beside it
        assert np.array_equal(y, skew_expm_action(w[None], x)[0])


@given(action_cases())
def test_skew_expm_action_matches_the_pade_oracle(case):
    omega, x = case
    check_action(omega, x, skew_expm_action(omega, x))


def test_skew_expm_action_matches_the_pade_oracle_on_st_200_10():
    rng = np.random.default_rng(12)
    x = thin_qr_q_factor(rng.standard_normal((200, 10)))
    # sigma * skew_part(A) with sigma 0, 0.01 (the tall benchmark cloud),
    # 0.05 and 0.1, whose bound of about 10 takes the large-spread path
    omega = np.array([sigma * skew_part(rng.standard_normal((200, 200)))
                      for sigma in (0.0, 0.01, 0.05, 0.1)])
    out = skew_expm_action(omega, x)
    check_action(omega, x, out)
    assert np.array_equal(out[0], x)


def test_skew_expm_action_sends_only_large_spreads_to_skew_expm():
    # the Pade path gives skew_expm's bits; the Taylor path differs from
    # them at the rounding level
    rng = np.random.default_rng(13)
    x = thin_qr_q_factor(rng.standard_normal((12, 3)))
    radius = kernels.ACTION_RADIUS
    omega = np.array([scaled_skew(rng, 12, f * radius) for f in (0.5, 0.99, 1.01, 3.0)])
    out = skew_expm_action(omega, x)
    for k, pade in enumerate(skew_expm(w) @ x for w in omega):
        assert np.array_equal(out[k], pade) == (k >= 2)
        assert np.linalg.norm(out[k] - pade) < 1e-13


def test_skew_expm_action_rejects_bad_input():
    x = np.eye(3)[:, :2]
    for omega in (np.zeros((3, 3)), np.zeros((2, 4, 4)), np.zeros((1, 1, 3, 3))):
        with pytest.raises(ValidationError, match=r"Omega must be an \(N, 3, 3\) stack"):
            skew_expm_action(omega, x)
    with pytest.raises(ValidationError, match="Omega slice 1 must be skew-symmetric") as err:
        skew_expm_action(np.array([np.zeros((3, 3)), np.eye(3), np.eye(3)]), x)
    assert err.value.defect == pytest.approx(2.0 * math.sqrt(3.0))
    for bad in (math.nan, math.inf):
        omega = np.zeros((2, 3, 3))
        omega[1, 0, 1] = bad
        with pytest.raises(ValidationError, match="must be finite"):
            skew_expm_action(omega, x)
        with pytest.raises(ValidationError, match="must be finite"):
            skew_expm_action(np.zeros((1, 3, 3)), np.full((3, 2), bad))
    assert skew_expm_action(np.zeros((0, 3, 3)), x).shape == (0, 3, 2)


# ---------------------------------------------------------------- Lyapunov

def test_lyapunov_identity_case():
    s = solve_lyapunov_sym(np.eye(3), 2.0 * np.eye(3))
    assert np.allclose(s, np.eye(3), atol=1e-13)


def test_lyapunov_scalar_case():
    s = solve_lyapunov_sym(np.array([[2.5]]), np.array([[2.0]]))
    assert s[0, 0] == pytest.approx(1.0 / 2.5, abs=1e-15)


@pytest.mark.parametrize("seed", range(8))
def test_lyapunov_matches_kron_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 4
    m = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    b = b + b.T
    s = solve_lyapunov_sym(m, b)
    oracle = lyapunov_kron_oracle(m, b)
    assert np.linalg.norm(s - oracle) < 1e-10 * max(1.0, np.linalg.norm(oracle))


def test_lyapunov_matches_scipy_sylvester():
    # independent dense Bartels-Stewart route, as a cross-library check
    rng = np.random.default_rng(21)
    n = 6
    m = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    b = b + b.T
    s = solve_lyapunov_sym(m, b)
    ref = scipy.linalg.solve_sylvester(m, m.T, b)
    assert np.allclose(s, ref, atol=1e-10)


def test_lyapunov_residual_and_symmetry():
    rng = np.random.default_rng(22)
    n = 5
    m = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    b = b + b.T
    s = solve_lyapunov_sym(m, b)
    assert np.array_equal(s, s.T)
    res = np.linalg.norm(m @ s + s @ m.T - b)
    assert res < 1e-10 * np.linalg.norm(b)


def test_lyapunov_needs_no_eigenvalues_when_every_slice_is_certified(monkeypatch):
    # ||M - I||_F < 1 certifies every slice positive definite, so the
    # eigenvalue check is not called at all, and the bits do not change
    rng = np.random.default_rng(23)
    ms = np.eye(4) + 0.1 * rng.standard_normal((5, 4, 4))
    b = 2.0 * np.eye(4)
    expected = [solve_lyapunov_sym(m, b) for m in ms]
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert np.array_equal(solve_lyapunov_sym(ms, b), np.array(expected))


def _certified_stack(rng, n, radii, structure="dense"):
    """I + G_k with ||G_k||_F = radii[k] < 1, G_k of ``structure`` "dense",
    "upper-triangular" or "rank-one" (symmetric, so ||G_k^2||_F =
    ||G_k||_F^2): every slice certified, from slices that need one
    Newton-Schulz step to slices at the certificate's edge that need five."""
    g = rng.standard_normal((len(radii), n, n))
    if structure == "upper-triangular":
        g = np.triu(g)
    elif structure == "rank-one":
        g = g[:, :, :1] * np.swapaxes(g[:, :, :1], 1, 2)
    g *= (np.asarray(radii) / np.sqrt(np.einsum("kij,kij->k", g, g)))[:, None, None]
    return np.eye(n) + g


CERTIFIED_RADII = (0.0, 1e-9, 1e-4, 0.05, 0.3, 0.7, 0.95, 0.999)


def test_lyapunov_needs_no_lapack_when_every_slice_is_certified(monkeypatch):
    # the inverses of certified slices are Newton-Schulz products: neither
    # LAPACK's inverse nor the eigenvalue check is called, and the bits do
    # not change
    rng = np.random.default_rng(26)
    ms = _certified_stack(rng, 6, CERTIFIED_RADII)
    b = rng.standard_normal((6, 6))
    b = b + b.T
    batched = solve_lyapunov_sym(ms, b)
    slices = [solve_lyapunov_sym(m, b) for m in ms]
    monkeypatch.setattr(np.linalg, "inv", None)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert np.array_equal(solve_lyapunov_sym(ms, b), batched)
    for m, s, expected in zip(ms, batched, slices):
        assert np.array_equal(solve_lyapunov_sym(m, b), expected)
        assert np.array_equal(s, expected)
        oracle = lyapunov_kron_oracle(m, b)
        assert np.linalg.norm(s - oracle) < 1e-11 * max(1.0, np.linalg.norm(oracle))


def test_lyapunov_unsure_slice_keeps_lapack_inverse(monkeypatch):
    # one slice outside the certificate, between certified ones: only it goes
    # to the eigenvalue check and LAPACK's inverse, and each slice keeps the
    # bits of its own call
    rng = np.random.default_rng(27)
    n = 4
    ms = _certified_stack(rng, n, (0.2, 0.6, 0.0, 0.9, 0.1))
    ms[2] = 2.5 * np.eye(n) + random_skew(rng, n)  # ||M - I||_F > 1, M + M^T = 5I
    b = rng.standard_normal((n, n))
    b = b + b.T
    inverted = []
    inv = np.linalg.inv

    def recording(a):
        inverted.append(a.shape)
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", recording)
    batched = solve_lyapunov_sym(ms, b)
    assert inverted == [(1, n, n)]
    for m, s in zip(ms, batched):
        assert np.array_equal(s, solve_lyapunov_sym(m, b))
        oracle = lyapunov_kron_oracle(m, b)
        assert np.linalg.norm(s - oracle) < 1e-11 * max(1.0, np.linalg.norm(oracle))


def test_newton_schulz_takes_its_last_step_before_freezing():
    # A slice freezes after the step in which ||R||_F^2 first falls below
    # LYAP_TAIL. That step squares R, so W is the inverse to rounding;
    # freezing one step earlier would leave R, up to sqrt(LYAP_TAIL) ~ 3e-9,
    # in I - A W.
    rng = np.random.default_rng(28)
    n = 5
    ms = _certified_stack(rng, n, CERTIFIED_RADII)
    a = ms + np.eye(n)
    w, done = kernels._newton_schulz_inverse(a)
    assert done.all()
    r = np.eye(n) - a @ w
    assert np.sqrt(np.einsum("kij,kij->k", r, r)).max() < 1e-14
    assert np.abs(w - np.linalg.inv(a)).max() < 1e-15


@pytest.mark.parametrize("structure", ["dense", "upper-triangular", "rank-one"])
@pytest.mark.parametrize("n", [1, 2, 4, 10, 16, 30])
def test_newton_schulz_needs_at_most_five_steps(n, structure, monkeypatch):
    # From W = (3I - M)/4, R = (M - I)^2 / 4 has ||R||_F <= ||M - I||_F^2 / 4
    # < 1/4, normal M - I or not, and five squarings take ||R||_F^2 below
    # LYAP_TAIL; the start I/2 needs six near the certificate's edge, where
    # a rank-one M - I has ||(M - I)^j||_F = ||M - I||_F^j.
    monkeypatch.setattr(kernels, "INVERSE_MAX_STEPS", 5)
    rng = np.random.default_rng(29 + n)
    radii = CERTIFIED_RADII + (0.99, 0.999, 0.999, 0.999)
    ms = _certified_stack(rng, n, radii, structure)
    b = rng.standard_normal((n, n))
    b = b + b.T
    for m, s in zip(ms, solve_lyapunov_sym(ms, b)):
        oracle = lyapunov_kron_oracle(m, b)
        assert np.linalg.norm(s - oracle) < 1e-11 * max(1.0, np.linalg.norm(oracle))


def test_newton_schulz_cap_names_its_slice(monkeypatch):
    # one step solves only the identity slices, whose start (3I - M)/4 = I/2
    # is their inverse; the first other slice reaches the cap, unless a
    # slice before it fails earlier
    monkeypatch.setattr(kernels, "INVERSE_MAX_STEPS", 1)
    two = 2.0 * np.eye(2)
    near = np.eye(2) + np.array([[0.1, 0.0], [0.05, -0.1]])
    for ms, k, message in [
        ([np.eye(2), np.eye(2), near, near], 2, "Newton-Schulz inverse did not converge in 1 steps"),
        ([np.eye(2), NOT_PD, near], 1, "not positive definite"),
    ]:
        with pytest.raises(DomainError, match=message) as err:
            solve_lyapunov_sym(np.array(ms), two)
        assert err.value.sample_index == k
    with pytest.raises(DomainError, match="Newton-Schulz inverse did not converge") as err:
        solve_lyapunov_sym(near, two)
    assert err.value.sample_index is None


def test_lyapunov_rejects_non_pd_symmetric_part():
    m = np.diag([1.0, -1.0])  # eigenvalue pair sums to zero, unsolvable
    with pytest.raises(DomainError):
        solve_lyapunov_sym(m, 2.0 * np.eye(2))


def test_lyapunov_rejects_asymmetric_rhs():
    with pytest.raises(ValidationError):
        solve_lyapunov_sym(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


@st.composite
def lyapunov_stacks(draw):
    """(N, n, n) stacks of M = P + K with P symmetric positive definite and
    K skew, the skew part scaled up to 5 so that ||M - I||_2 > 1 is common,
    together with a symmetric right-hand side."""
    n = draw(st.integers(1, 12))
    count = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    floor = draw(st.floats(0.05, 1.0))
    skew_scale = draw(st.floats(0.0, 5.0))
    ms = []
    for _ in range(count):
        a = rng.standard_normal((n, n))
        k = random_skew(rng, n)
        ms.append(a @ a.T / n + floor * np.eye(n) + skew_scale * k)
    b = rng.standard_normal((n, n))
    return np.array(ms), b + b.T


@given(lyapunov_stacks())
def test_batched_lyapunov_matches_slices_and_kron_oracle(case):
    ms, b = case
    batched = solve_lyapunov_sym(ms, b)
    assert batched.shape == ms.shape
    for m, s in zip(ms, batched):
        assert np.array_equal(s, solve_lyapunov_sym(m, b))
        oracle = lyapunov_kron_oracle(m, b)
        assert np.linalg.norm(s - oracle) < 1e-11 * max(1.0, np.linalg.norm(oracle))


def _stack_with(bad, n=2):
    """Five well-posed 2 x 2 slices with ``bad`` (index -> matrix) swapped in."""
    rng = np.random.default_rng(5)
    ms = np.eye(n) + 0.1 * rng.standard_normal((5, n, n))
    for k, m in bad.items():
        ms[k] = m
    return ms


NOT_PD = np.diag([1.0, -1.0])
# M + M^T = 2e-30 I is positive definite, but U = (M + I)^-1 (M - I) is a
# rotation in floating point, so the doubling never converges
STUCK = np.array([[1e-30, 1.0], [-1.0, 1e-30]])


def test_batched_lyapunov_reports_the_first_bad_slice():
    two = 2.0 * np.eye(2)
    for bad, k, message in [
        ({2: NOT_PD, 4: NOT_PD}, 2, "is not positive definite"),
        ({1: STUCK, 3: STUCK}, 1, "did not converge in 50 doublings"),
        ({1: STUCK, 3: NOT_PD}, 1, "did not converge"),
        ({1: NOT_PD, 3: STUCK}, 1, "not positive definite"),
    ]:
        with pytest.raises(DomainError, match=message) as err:
            solve_lyapunov_sym(_stack_with(bad), two)
        assert err.value.sample_index == k
    # a single matrix reports no slice
    with pytest.raises(DomainError, match="did not converge") as err:
        solve_lyapunov_sym(STUCK, two)
    assert err.value.sample_index is None
    # B is checked before any slice
    with pytest.raises(ValidationError, match="B must be symmetric"):
        solve_lyapunov_sym(_stack_with({1: NOT_PD, 3: STUCK}),
                           np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_batched_lyapunov_shapes():
    assert solve_lyapunov_sym(np.zeros((0, 3, 3)), np.eye(3)).shape == (0, 3, 3)
    for m in (np.eye(3)[None, None], np.eye(2), np.ones(3)):
        with pytest.raises(ValidationError, match="M must be"):
            solve_lyapunov_sym(m, np.eye(3))


# ------------------------------------------------- orthographic inner solve

def test_ortho_eq_zero_inputs():
    s = solve_ortho_retraction_eq(np.zeros((3, 3)), np.zeros((3, 3)))
    assert np.all(s == 0.0)


def test_ortho_eq_scalar_case():
    v = 0.6
    s = solve_ortho_retraction_eq(np.zeros((1, 1)), np.array([[v * v]]))
    assert s[0, 0] == pytest.approx(-1.0 + math.sqrt(1.0 - v * v), abs=1e-12)


def test_ortho_eq_substitution_residual():
    rng = np.random.default_rng(9)
    n = 3
    g = rng.standard_normal((n, n))
    g = 0.01 * (g @ g.T) / n  # symmetric PSD, ||G|| ~ 0.01
    omega = 0.1 * (lambda a: 0.5 * (a - a.T))(rng.standard_normal((n, n)))
    s = solve_ortho_retraction_eq(omega, g)
    residual = 2.0 * s + s @ s + g + s @ omega - omega @ s
    assert np.linalg.norm(residual) < 1e-12
    assert np.array_equal(s, s.T)


def test_ortho_eq_diverges_for_large_tangent():
    g = 10.0 * np.eye(3)
    with pytest.raises(DomainError):
        solve_ortho_retraction_eq(np.zeros((3, 3)), g)


def test_ortho_eq_rejects_non_skew_omega():
    with pytest.raises(ValidationError):
        solve_ortho_retraction_eq(np.eye(2), np.zeros((2, 2)))


# ------------------------------------------------- the matrix-input rule

def _matrix_inputs():
    """(name, call, good, shape, structure) for every public matrix argument:
    call(value) passes value as that argument with valid others; good is a
    valid value; shape is how the rule sizes it ("square", "tall", "any",
    "fixed" for one given (r, c), "stack" for an (N, r, r) stack only,
    "either" for a given matrix or a stack of them)."""
    rng = np.random.default_rng(40)
    x = thin_qr_q_factor(rng.standard_normal((5, 2)))
    point = StiefelPoint(x)
    a = rng.standard_normal((3, 3))
    sym, skew = a + a.T, 0.5 * (a.T - a)
    tangent = project_to_tangent(point, rng.standard_normal((5, 2))).V
    stack = np.array([random_skew(rng, 5) for _ in range(3)])
    ms = np.eye(3) + 0.1 * rng.standard_normal((3, 3, 3))
    zero = np.zeros((3, 3))
    return [
        ("skew_part A", skew_part, a, "square", None),
        ("thin_qr_q_factor A", thin_qr_q_factor, rng.standard_normal((5, 2)), "tall", None),
        ("spd_inv_sqrt S", spd_inv_sqrt, np.eye(3) + 0.1 * sym, "square", "symmetric"),
        ("skew_expm Omega", skew_expm, skew, "square", "skew-symmetric"),
        ("skew_expm_action Omega", lambda v: skew_expm_action(v, x), stack, "stack",
         "skew-symmetric"),
        ("skew_expm_action X", lambda v: skew_expm_action(stack, v), x, "any", None),
        ("solve_lyapunov_sym M", lambda v: solve_lyapunov_sym(v, sym), ms[0], "either", None),
        ("solve_lyapunov_sym M", lambda v: solve_lyapunov_sym(v, sym), ms, "either", None),
        ("solve_lyapunov_sym B", lambda v: solve_lyapunov_sym(np.eye(3), v), sym, "square",
         "symmetric"),
        ("solve_ortho_retraction_eq Omega", lambda v: solve_ortho_retraction_eq(v, zero),
         0.1 * skew, "square", "skew-symmetric"),
        ("solve_ortho_retraction_eq G", lambda v: solve_ortho_retraction_eq(zero, v),
         0.01 * sym, "fixed", "symmetric"),
        ("A", lambda v: project_to_tangent(point, v), rng.standard_normal((5, 2)), "fixed", None),
        ("V", lambda v: TangentVector(point, v), tangent, "fixed", None),
        ("x1", lambda v: perturb_initial_guess(v, 0.01, 1), x, "any", None),
    ]


def _broken(good, shape, structure):
    """(value, what the message says) for each way the rule rejects: not
    numbers, complex numbers, NaN or +-inf entries, a norm that overflows, the wrong ndim, the
    wrong matrix shape and, with a structure, a slice without it. A stack is
    broken in slice 1."""
    k = (1,) if good.ndim == 3 else ()
    where = " slice 1" if good.ndim == 3 else ""
    cases = [("abc", " must be an array of real numbers$"),
             (good + 1e-3j, " must be an array of real numbers$")]
    for index, bad in ((k, math.nan), (k + (0, 0), math.inf), (k + (-1, 0), -math.inf)):
        value = good.copy()
        value[index] = bad  # NaN fills the whole matrix or slice
        cases.append((value, f"{where} must be finite$"))
    value = good.copy()
    value[k] *= 1e200  # finite entries whose squares overflow
    cases.append((value, f"{where} must be finite$"))
    wrong = [good.ravel(), good[None, None]] + ([good[0]] if shape == "stack" else [])
    wrong.append(good.T if shape == "tall" else good[..., :0] if shape == "any"
                 else good[..., :-1])
    cases += [(value, r" must be .*, got shape ") for value in wrong]
    if structure is not None:
        value = good.copy()
        value[k + (0, 1)] += 1.0
        value[k + (0, 0)] += 1.0
        cases.append((value, f"{where} must be {structure}, got defect "))
    return cases


@pytest.mark.parametrize("name, call, good, shape, structure", [
    pytest.param(*case, id=case[0].replace(" ", ".") + ("-stack" if case[2].ndim == 3 else ""))
    for case in _matrix_inputs()
])
def test_matrix_inputs_share_one_rule(name, call, good, shape, structure):
    call(good)  # valid
    for value, message in _broken(good, shape, structure):
        with pytest.raises(ValidationError, match=f"^{re.escape(name)}{message}") as err:
            call(value)
        assert (err.value.defect is not None) == ("defect" in message)


def test_skew_expm_action_core_gives_the_public_bits():
    rng = np.random.default_rng(41)
    x = thin_qr_q_factor(rng.standard_normal((9, 3)))
    radius = kernels.ACTION_RADIUS
    omega = np.array([scaled_skew(rng, 9, f * radius) for f in (0.0, 0.01, 0.5, 1.5)])
    assert np.array_equal(kernels._skew_expm_action(omega, x), skew_expm_action(omega, x))
