import math

import numpy as np
import pytest
import scipy.linalg

from stiefelmean import kernels
from stiefelmean.errors import DomainError, RankDeficientError, ValidationError
from stiefelmean.kernels import (
    skew_expm,
    skew_part,
    solve_lyapunov_sym,
    solve_ortho_retraction_eq,
    spd_inv_sqrt,
    thin_qr_q_factor,
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


@pytest.mark.parametrize("n", range(1, 41))
def test_spd_inv_sqrt_series_matches_eigh_near_identity(n, monkeypatch):
    # S = I + G with ||G||_F on both sides of the series radius 1/4: inside
    # it the series runs (eigh is patched away to prove it), outside it the
    # eigendecomposition does; both agree with the eigh oracle.
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
    assert np.allclose(skew_expm(omega, theta), expected, atol=1e-13)


def test_skew_expm_matches_taylor_oracle():
    rng = np.random.default_rng(5)
    omega = random_skew(rng, 20)
    out = skew_expm(omega, 0.05)
    oracle = expm_taylor(0.05 * omega, terms=30)
    assert np.linalg.norm(out - oracle) < 1e-8


def test_skew_expm_orthogonality_defect():
    rng = np.random.default_rng(6)
    omega = random_skew(rng, 20)
    out = skew_expm(omega, 0.05)
    assert np.linalg.norm(out.T @ out - np.eye(20)) < 1e-10


def test_skew_expm_large_scale_stays_orthogonal():
    # exercises the squaring branch: ||scale*omega||_F well above 1
    rng = np.random.default_rng(16)
    omega = random_skew(rng, 30)
    out = skew_expm(omega, 1.7)
    assert np.linalg.norm(out.T @ out - np.eye(30)) < 1e-10
    assert np.allclose(out, scipy.linalg.expm(1.7 * omega), atol=1e-9)


def test_skew_expm_inverse_by_negation():
    rng = np.random.default_rng(8)
    omega = random_skew(rng, 12)
    fwd = skew_expm(omega, 0.7)
    back = skew_expm(omega, -0.7)
    assert np.linalg.norm(fwd @ back - np.eye(12)) < 1e-10


def test_skew_expm_rejects_non_skew():
    with pytest.raises(ValidationError):
        skew_expm(np.eye(3))


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


def test_lyapunov_rejects_non_pd_symmetric_part():
    m = np.diag([1.0, -1.0])  # eigenvalue pair sums to zero, unsolvable
    with pytest.raises(DomainError):
        solve_lyapunov_sym(m, 2.0 * np.eye(2))


def test_lyapunov_rejects_asymmetric_rhs():
    with pytest.raises(ValidationError):
        solve_lyapunov_sym(np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]]))


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
