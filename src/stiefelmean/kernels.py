"""Dense float64 matrix kernels underlying the manifold layer.

All routines take and return plain 2-D ``numpy.ndarray`` objects in C order.
Matrices in this library are small (tens of rows/columns), so the kernels
favor robustness and determinism over asymptotic tricks: QR signs are fixed,
symmetric outputs are explicitly symmetrized, and the structured solvers
verify their own residuals.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RankDeficientError, ValidationError

# Error threshold on eigenvalues of a matrix that must be positive definite.
EPS_SPD = 1e-14

# Relative tolerance of the symmetric and skew input checks of spd_inv_sqrt,
# skew_expm and solve_lyapunov_sym, and of the Lyapunov residual check.
CHECK_RTOL = 1e-10
# Absolute residual target and step cap of solve_ortho_retraction_eq.
ORTHO_EQ_TOL = 1e-12
ORTHO_EQ_MAX_ITERS = 100
# Rank threshold of thin_qr_q_factor, relative to the largest |R_ii|.
RANK_RTOL = 1e-12

# spd_inv_sqrt sums the binomial series of (I + G)^(-1/2) when
# ||G||_F <= SERIES_RADIUS, stopping once the tail bound is below SERIES_TAIL.
SERIES_RADIUS = 0.25
SERIES_TAIL = 1e-17

# Pade [6/6] numerator coefficients, constant term first.
_PADE6 = (665280.0, 332640.0, 75600.0, 10080.0, 840.0, 42.0, 1.0)


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValidationError(f"{name} must be a 2-D array, got shape {a.shape}")
    return a


def _require_square(a: np.ndarray, name: str) -> np.ndarray:
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {a.shape}")
    return a


def skew_part(a) -> np.ndarray:
    """Skew-symmetric part ``(a.T - a) / 2`` of a square matrix.

    Note the transpose-minus-original sign convention; it is used consistently
    everywhere in this package. Applying the operator twice negates it:
    ``skew_part(skew_part(a)) == -skew_part(a)``.
    """
    a = _require_square(_as_matrix(a, "skew_part input"), "skew_part input")
    return 0.5 * (a.T - a)


def thin_qr_q_factor(a) -> np.ndarray:
    """Q-factor of the thin QR decomposition with a nonnegative R diagonal.

    Forcing the R diagonal nonnegative makes the factor unique, so repeated
    runs (and other implementations of the same convention) produce the same
    orthonormal frame from the same input.

    Raises ``RankDeficientError`` naming the first column whose R-diagonal
    magnitude falls below ``RANK_RTOL`` times the largest one.
    """
    a = _as_matrix(a, "thin_qr_q_factor input")
    if a.shape[0] < a.shape[1]:
        raise ValidationError(
            f"need at least as many rows as columns, got shape {a.shape}"
        )
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    scale = np.max(np.abs(diag))
    bad = np.flatnonzero(np.abs(diag) <= RANK_RTOL * scale)
    if scale == 0.0 or bad.size:
        column = 0 if scale == 0.0 else int(bad[0])
        raise RankDeficientError(
            f"input is numerically rank deficient at column {column}", column
        )
    signs = np.where(diag < 0.0, -1.0, 1.0)
    return q * signs


def spd_inv_sqrt(s) -> np.ndarray:
    """Inverse square root of a symmetric positive definite matrix.

    Near the identity, S = I + G with ||G||_F <= 1/4 (every retraction in
    the hot paths lands here), the binomial series
    sum_k binom(-1/2, k) G^k is summed until its tail bound
    ||G||^(k+1) / (1 - ||G||) drops below ``SERIES_TAIL``; the eigenvalues
    of S are then at least 3/4, so S is positive definite. Otherwise the
    result comes from the symmetric eigendecomposition: S = U diag(w) U^T
    gives R = U diag(w^-1/2) U^T. Either way R is re-symmetrized against
    rounding and satisfies R S R = I to roughly machine precision times the
    condition number of S.

    Raises ``ValidationError`` if ``s`` is not symmetric within ``CHECK_RTOL``
    (relative to its norm) and ``DomainError`` if any eigenvalue is at or
    below ``EPS_SPD``.
    """
    s = _require_square(_as_matrix(s, "spd_inv_sqrt input"), "spd_inv_sqrt input")
    nrm = np.linalg.norm(s)
    asym = np.linalg.norm(s - s.T)
    if asym > CHECK_RTOL * max(1.0, nrm):
        raise ValidationError(
            f"matrix is not symmetric: asymmetry {asym:.3e}", defect=asym
        )
    s = 0.5 * (s + s.T)
    eye = np.eye(s.shape[0])
    g = s - eye
    gnrm = float(np.linalg.norm(g))
    if gnrm <= SERIES_RADIUS and 1.0 - gnrm > EPS_SPD:
        # coefficients binom(-1/2, k) up to the first degree whose tail
        # bound is below SERIES_TAIL, then Horner's rule in G
        coeffs = [1.0]
        while gnrm ** len(coeffs) / (1.0 - gnrm) >= SERIES_TAIL:
            k = len(coeffs)
            coeffs.append(coeffs[-1] * -(2 * k - 1) / (2 * k))
        r = coeffs[-1] * eye
        for c in coeffs[-2::-1]:
            r = r @ g
            r.flat[:: r.shape[0] + 1] += c
        return 0.5 * (r + r.T)
    w, u = np.linalg.eigh(s)
    if w[0] <= EPS_SPD:
        raise DomainError(
            f"matrix is not positive definite: smallest eigenvalue {w[0]:.3e} "
            f"<= {EPS_SPD:.1e}"
        )
    r = (u / np.sqrt(w)) @ u.T
    return 0.5 * (r + r.T)


def skew_expm(omega, scale: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(scale * omega) of a skew-symmetric matrix.

    Scaling and squaring with a degree-6 diagonal Pade core. The squaring
    count is ceil(log2 ||scale * omega||_F) clamped at zero, so the core
    always sees an argument of Frobenius norm at most 1, where the Pade
    truncation error is far below the 1e-10 orthogonality budget. For a skew
    argument the diagonal Pade approximant is itself exactly orthogonal in
    exact arithmetic, and squaring preserves that.
    """
    omega = _require_square(_as_matrix(omega, "skew_expm input"), "skew_expm input")
    defect = np.linalg.norm(omega + omega.T)
    if defect > CHECK_RTOL * max(1.0, np.linalg.norm(omega)):
        raise ValidationError(
            f"matrix is not skew-symmetric: defect {defect:.3e}", defect=defect
        )
    p = omega.shape[0]
    a = scale * omega
    nrm = np.linalg.norm(a)
    if nrm == 0.0:
        return np.eye(p)
    squarings = max(0, math.ceil(math.log2(nrm)))
    a = a / (2.0 ** squarings)

    eye = np.eye(p)
    a2 = a @ a
    a4 = a2 @ a2
    b = _PADE6
    even = b[0] * eye + b[2] * a2 + b[4] * a4 + b[6] * (a4 @ a2)
    odd = a @ (b[1] * eye + b[3] * a2 + b[5] * a4)
    result = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        result = result @ result
    return result


def solve_lyapunov_sym(m, b) -> np.ndarray:
    """Solve M S + S M^T = B for symmetric S, with B symmetric.

    Dense Kronecker vectorization: (I (x) M + M (x) I) vec(S) = vec(B) in
    column-major stacking, solved directly. The cost is O(n^6), which is
    acceptable at this package's matrix sizes and is an intended part of the
    runtime comparison between map pairs.

    The pre-condition that M + M^T be positive definite guarantees a unique
    solution (every eigenvalue pair sum has positive real part); its failure
    is reported as ``DomainError`` since it means the lifting's arguments sit
    too far apart. The returned S is symmetrized and its residual is checked
    against ``CHECK_RTOL * ||B||_F``.
    """
    m = _require_square(_as_matrix(m, "solve_lyapunov_sym M"), "solve_lyapunov_sym M")
    b = _require_square(_as_matrix(b, "solve_lyapunov_sym B"), "solve_lyapunov_sym B")
    n = m.shape[0]
    if b.shape[0] != n:
        raise ValidationError(f"M and B sizes differ: {m.shape} vs {b.shape}")
    bnrm = np.linalg.norm(b)
    if np.linalg.norm(b - b.T) > CHECK_RTOL * max(1.0, bnrm):
        raise ValidationError("right-hand side B must be symmetric")
    sym_eigs = np.linalg.eigvalsh(m + m.T)
    if sym_eigs[0] <= 0.0:
        raise DomainError(
            "M + M^T is not positive definite (smallest eigenvalue "
            f"{sym_eigs[0]:.3e}); arguments too far apart for a unique solution"
        )
    # I (x) M + M (x) I assembled blockwise (same layout np.kron would give):
    # the first term is the block diagonal, the second adds M[i, j] I blocks.
    k4 = np.zeros((n, n, n, n))
    idx = np.arange(n)
    k4[idx, :, idx, :] = m
    k4[:, idx, :, idx] += m
    kron_op = k4.reshape(n * n, n * n)
    vec_s = np.linalg.solve(kron_op, b.flatten(order="F"))
    s = vec_s.reshape((n, n), order="F")
    s = 0.5 * (s + s.T)
    residual = np.linalg.norm(m @ s + s @ m.T - b)
    if residual > CHECK_RTOL * max(bnrm, np.finfo(float).tiny):
        raise DomainError(
            f"Lyapunov solve residual {residual:.3e} exceeds "
            f"{CHECK_RTOL:.1e} * ||B||; arguments too far apart"
        )
    return s


def solve_ortho_retraction_eq(omega, g) -> np.ndarray:
    """Solve 2S + S^2 + G + S Omega - Omega S = 0 for the symmetric S near 0.

    This is the normal-space correction of the orthographic retraction:
    writing the retracted point as Q = X + V + X S with S symmetric,
    Omega = X^T V and G = V^T V, the orthonormality condition Q^T Q = I
    expands exactly to the quadratic equation above. It is solved by the
    fixed-point iteration S <- -(S^2 + G + S Omega - Omega S) / 2 started
    from S = 0, which contracts for small G and Omega and keeps every
    iterate symmetric. Iteration stops once the equation residual drops
    below ``ORTHO_EQ_TOL``.
    """
    omega = _require_square(
        _as_matrix(omega, "solve_ortho_retraction_eq Omega"),
        "solve_ortho_retraction_eq Omega",
    )
    g = _require_square(
        _as_matrix(g, "solve_ortho_retraction_eq G"), "solve_ortho_retraction_eq G"
    )
    n = omega.shape[0]
    if g.shape[0] != n:
        raise ValidationError(f"Omega and G sizes differ: {omega.shape} vs {g.shape}")
    if np.linalg.norm(omega + omega.T) > 1e-9 * max(1.0, np.linalg.norm(omega)):
        raise ValidationError("Omega must be skew-symmetric")
    if np.linalg.norm(g - g.T) > 1e-9 * max(1.0, np.linalg.norm(g)):
        raise ValidationError("G must be symmetric")

    s = np.zeros((n, n))
    first_res = None
    for _ in range(ORTHO_EQ_MAX_ITERS):
        rhs = s @ s + g + s @ omega - omega @ s
        res = np.linalg.norm(2.0 * s + rhs)
        if res < ORTHO_EQ_TOL:
            return 0.5 * (s + s.T)
        if first_res is None:
            first_res = res
        elif not np.isfinite(res) or res > 1e6 * max(1.0, first_res):
            break  # diverging, no point burning the remaining iterations
        s = -0.5 * rhs
    raise DomainError(
        f"inner iteration did not reach residual {ORTHO_EQ_TOL:.1e} within "
        f"{ORTHO_EQ_MAX_ITERS} steps; tangent too large for the orthographic "
        "retraction"
    )
