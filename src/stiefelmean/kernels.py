"""Dense float64 matrix kernels underlying the manifold layer.

All routines take and return plain 2-D ``numpy.ndarray`` objects in C order,
except that ``solve_lyapunov_sym`` also solves an (N, n, n) stack in one
call, which is how the polar lifting of a whole sample cloud is computed,
and ``skew_expm_action`` applies an (N, p, p) stack of rotations to one
p x n frame, which is how sample clouds are generated.
Matrices in this library are small (tens of rows/columns), so the kernels
favor robustness and determinism: QR signs are fixed, symmetric outputs are
explicitly symmetrized, and the structured solvers verify their own
residuals. On a stack, a slice that a cheap bound certifies takes a path of
batched matrix products (the Newton-Schulz inverse of the Lyapunov solver,
the Taylor steps of the action), and the rest LAPACK's ``inv`` or SciPy's
``expm``; each slice gets the bits its own call would give.

Matrix inputs follow one rule, ``_check_matrix``. Each public kernel checks
its arguments there and runs an unchecked core, ``_spd_inv_sqrt``,
``_skew_expm_action`` and so on, which the maps and sampling call directly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, RankDeficientError, ValidationError

# Error threshold on eigenvalues of a matrix that must be positive definite.
EPS_SPD = 1e-14

# Relative tolerance of the one symmetry and skew-symmetry check of matrix
# inputs, _check_matrix, and of the Lyapunov residual check.
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

# solve_lyapunov_sym doubles until every ||U||_F^2 is below LYAP_TAIL, at
# most LYAP_MAX_DOUBLINGS times (2^50 terms). ||M - I||_F^2 < 1 - margin
# certifies a slice positive definite; the margin covers its rounding. A
# certified slice's Newton-Schulz inverse stops on LYAP_TAIL as well, within
# INVERSE_MAX_STEPS steps (see _newton_schulz_inverse).
LYAP_TAIL = 1e-17
LYAP_MAX_DOUBLINGS = 50
INVERSE_MAX_STEPS = 8
_PD_SCREEN_MARGIN = 1e-9

# skew_expm_action sends a slice whose 2-norm bound exceeds ACTION_RADIUS to
# skew_expm. It sums the rest in steps of 2-norm at most ACTION_STEP_NORM,
# ending a step once a term is below ACTION_TAIL of the partial sum; term j
# is at most 4^j / j! of the step's input, so ACTION_MAX_TERMS = 34 terms
# (4^34 / 34! < 1e-18) end every step.
ACTION_RADIUS = 8.0
ACTION_STEP_NORM = 4.0
ACTION_TAIL = 1e-17
ACTION_MAX_TERMS = 34


def _real_array(a, copy: bool = False) -> np.ndarray:
    """``a`` as a C-ordered float array, a new one if ``copy``. A complex ``a``
    raises ``TypeError``, as what does not convert does, not its real part."""
    a = (np.array if copy else np.asarray)(a, order="C")
    if np.iscomplexobj(a):
        raise TypeError("a complex array has no real cast")
    return a.astype(float, copy=False)


def _check_matrix(a, name: str, shape="square", ndim=(2,), structure=None) -> np.ndarray:
    """``a`` as a C-ordered float array, if it passes the one rule for matrix
    inputs: real numbers, then its shape (``ndim`` (2,) for a matrix, (3,) for
    an (N, r, c) stack, (2, 3) for either; each matrix (r, c) = ``shape`` if a
    tuple, else nonempty and "square", "tall" (r >= c) or, for ``None``, any),
    then finite entries and Frobenius norms, then, for ``structure``
    "symmetric" ("skew-symmetric"), a defect ||M - M^T||_F (||M + M^T||_F)
    <= ``CHECK_RTOL`` * max(1, ||M||_F) of each matrix M. A ``ValidationError``
    names the argument and, for a stack, the first failing slice in
    ``sample_index``; a structure failure carries its defect."""
    try:
        a = _real_array(a)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be an array of real numbers") from None
    r, c = a.shape[-2:] if a.ndim >= 2 else (0, 0)
    if isinstance(shape, tuple):
        fits, want = (r, c) == shape, f"a {shape} matrix"
    else:
        fits = min(r, c) >= 1 and {None: True, "square": r == c, "tall": r >= c}[shape]
        want = {None: "a matrix", "square": "a square matrix",
                "tall": "a matrix with no more columns than rows"}[shape]
    if 3 in ndim:  # a stack's matrices have a given shape
        stack = "an (N, {}, {}) stack".format(*shape)
        want = f"{want} or {stack}" if 2 in ndim else stack
    if a.ndim not in ndim or not fits:
        raise ValidationError(f"{name} must be {want}, got shape {a.shape}")
    slices = a.reshape(-1, r, c)
    stacked = a.ndim == 3  # a stack's failing slice k goes in sample_index
    # NaN and inf entries give a NaN or inf norm, and so do entries whose
    # squares overflow, which no kernel could use
    norms = np.sqrt(np.einsum("kij,kij->k", slices, slices))
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"{name} must be finite", sample_index=k if stacked else None)
    if structure is not None:
        t = np.swapaxes(slices, 1, 2)
        d = slices + t if structure == "skew-symmetric" else slices - t
        defects = np.sqrt(np.einsum("kij,kij->k", d, d))
        bad = np.flatnonzero(defects > CHECK_RTOL * np.maximum(1.0, norms))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(f"{name} must be {structure}, got defect {defects[k]:.3e}",
                                  defect=float(defects[k]), sample_index=k if stacked else None)
    return a


def skew_part(a) -> np.ndarray:
    """Skew-symmetric part ``(a.T - a) / 2`` of a square matrix.

    Note the transpose-minus-original sign convention; it is used consistently
    everywhere in this package. Applying the operator twice negates it:
    ``skew_part(skew_part(a)) == -skew_part(a)``.
    """
    a = _check_matrix(a, "skew_part A")
    return 0.5 * (a.T - a)


def thin_qr_q_factor(a) -> np.ndarray:
    """Q-factor of the thin QR decomposition with a nonnegative R diagonal.

    Forcing the R diagonal nonnegative makes the factor unique, so repeated
    runs (and other implementations of the same convention) produce the same
    orthonormal frame from the same input.

    Raises ``RankDeficientError`` naming the first column whose R-diagonal
    magnitude falls below ``RANK_RTOL`` times the largest one.
    """
    a = _check_matrix(a, "thin_qr_q_factor A", shape="tall")
    q, r = np.linalg.qr(a)
    diag = np.diag(r)
    scale = np.max(np.abs(diag))
    bad = np.flatnonzero(np.abs(diag) <= RANK_RTOL * scale)
    if bad.size:
        column = int(bad[0])
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

    Raises ``ValidationError`` if ``s`` is not a finite square matrix
    symmetric within ``CHECK_RTOL`` (relative to its norm) and
    ``DomainError`` if any eigenvalue is at or below ``EPS_SPD``.
    """
    s = _check_matrix(s, "spd_inv_sqrt S", structure="symmetric")
    return _spd_inv_sqrt(s)


def _series_coefficients(radius: float) -> tuple:
    # binom(-1/2, k) up to the first degree whose tail bound at ||G||_F =
    # radius is below SERIES_TAIL; the bound grows with ||G||_F, so a
    # smaller ||G||_F needs a prefix of these
    coeffs = [1.0]
    while radius ** len(coeffs) / (1.0 - radius) >= SERIES_TAIL:
        k = len(coeffs)
        coeffs.append(coeffs[-1] * -(2 * k - 1) / (2 * k))
    return tuple(coeffs)


_SERIES_COEFFS = _series_coefficients(SERIES_RADIUS)


def _frobenius(a: np.ndarray) -> float:
    """||a||_F as ``np.linalg.norm(a)`` computes it, the same dot product of
    the same elements, without its argument handling."""
    v = a.ravel(order="K")
    return math.sqrt(v.dot(v))


def _spd_inv_sqrt(s: np.ndarray) -> np.ndarray:
    # spd_inv_sqrt for an s symmetric to rounding
    eye = np.eye(s.shape[0])
    s = 0.5 * (s + s.T)
    g = s - eye
    gnrm = _frobenius(g)
    if gnrm <= SERIES_RADIUS:
        # the coefficients up to the first degree whose tail bound is below
        # SERIES_TAIL, then Horner's rule in G
        degree = 1
        while gnrm ** degree / (1.0 - gnrm) >= SERIES_TAIL:
            degree += 1
        coeffs = _SERIES_COEFFS[:degree]
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


def skew_expm(omega) -> np.ndarray:
    """Matrix exponential exp(omega) of a skew-symmetric matrix, by SciPy's
    ``scipy.linalg.expm``, scaling and squaring around a Pade approximant
    (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009), imported on the
    first call. ``skew_expm_action`` falls back to it past its radius.

    Raises ``ValidationError`` if ``omega`` is not a finite square matrix
    skew-symmetric within ``CHECK_RTOL`` (relative to its norm), and
    ``DomainError`` if its exponential is not finite, as a large enough
    argument's is in floating point.
    """
    omega = _check_matrix(omega, "skew_expm Omega", structure="skew-symmetric")
    return _skew_expm(omega)


def _skew_expm(omega: np.ndarray, sample_index=None) -> np.ndarray:
    # skew_expm of a checked skew matrix; its DomainError carries sample_index
    from scipy.linalg import expm  # here: importing the package loads no SciPy
    with np.errstate(all="ignore"):  # a huge argument's squarings overflow
        out = expm(omega)
    if not np.isfinite(out).all():
        raise DomainError("exp(Omega) is not finite: Omega is too large for floating point",
                          sample_index=sample_index)
    return out


def skew_expm_action(omega, x) -> np.ndarray:
    """exp(Omega_k) X for every slice of an (N, p, p) stack of skew matrices.

    Only the p x n action is formed, never the p x p exponential (Al-Mohy &
    Higham, SIAM J. Sci. Comput. 33, 2011). A real skew matrix's singular
    values come in pairs, so b_k = ||Omega_k||_F / sqrt(2) bounds its
    2-norm. A slice with b_k <= ``ACTION_RADIUS`` takes
    s_k = ceil(b_k / ``ACTION_STEP_NORM``) steps Y <- T(Omega_k / s_k) Y,
    where T sums the Taylor terms Omega_k B / (s_k j) until a term is below
    ``ACTION_TAIL`` of the partial sum, at most ``ACTION_MAX_TERMS`` of
    them. A step's terms sum in norm to at most e^4 times its input, so its
    rounding stays within about 55 ulps. A finished slice's term is set to
    0, so each slice's result is the same bits whatever else shares its
    stack.

    A slice with b_k > ``ACTION_RADIUS`` gets ``skew_expm(Omega_k) @ X``, bit
    for bit, so the cost stays bounded for every finite input. The radius,
    8, was measured against SciPy's ``expm`` on a sampling chunk (one BLAS
    thread, 2-core x86 host): at b = 8 the action took 0.37, 0.80 and 0.95
    of its time on St(200,10), St(40,4) and St(20,4), at most 0.59 at any
    smaller b, and 1.6 and 4.1 times it on St(100,30) and St(30,30); at
    b = 32, 0.76 of it on St(200,10) and 2.1 times it on St(40,4).

    Raises ``ValidationError`` for a non-finite input, shapes that do not
    match, or a slice that is not skew-symmetric within ``CHECK_RTOL``, and
    ``DomainError``, naming the slice, for a non-finite exponential.
    """
    x = _check_matrix(x, "skew_expm_action X", shape=None)
    p = x.shape[0]
    omega = _check_matrix(omega, "skew_expm_action Omega", shape=(p, p), ndim=(3,),
                          structure="skew-symmetric")
    return _skew_expm_action(omega, x)


def _skew_expm_action(omega: np.ndarray, x: np.ndarray, first: int = 0) -> np.ndarray:
    # skew_expm_action for a stack omega of skew matrices (a slice overflowed
    # to inf takes the far path) and a finite x; slice k is named first + k
    squares = np.einsum("kij,kij->k", omega, omega)
    bound = np.sqrt(0.5 * squares)
    far = bound > ACTION_RADIUS
    steps = np.maximum(1.0, np.ceil(bound / ACTION_STEP_NORM))
    out = np.broadcast_to(x, omega.shape[:1] + x.shape).copy()
    term = np.empty_like(out)
    product = np.empty_like(out)
    for step in range(int(steps[~far].max(initial=0.0))):
        live = ~far & (steps > step)
        np.copyto(term, out)
        term[~live] = 0.0
        for j in range(1, ACTION_MAX_TERMS + 1):
            np.matmul(omega, term, out=product)
            product /= (steps * j)[:, None, None]
            term, product = product, term
            out += term
            small = (np.einsum("kij,kij->k", term, term)
                     <= ACTION_TAIL ** 2 * np.einsum("kij,kij->k", out, out))
            term[small] = 0.0
            live &= ~small
            if not live.any():
                break
    for k in np.flatnonzero(far):
        out[k] = _skew_expm(omega[k], first + int(k)) @ x
    return out


def solve_lyapunov_sym(m, b) -> np.ndarray:
    """Solve M S + S M^T = B for symmetric S, with B symmetric.

    ``m`` is one (n, n) matrix or an (N, n, n) stack whose slices are solved
    against the same B; S has the shape of ``m``. With W = (M + I)^-1 the
    equation is the Stein equation S - U S U^T = 2 W B W^T, U = I - 2W,
    whose series is summed by squared Smith doubling (S <- S + U S U^T,
    U <- U^2) until every ||U||_F^2 < ``LYAP_TAIL``: O(n^3) per slice and
    doubling, in batched products (Smith, SIAM J. Appl. Math. 16, 1968).

    M + M^T must be positive definite, which makes S unique and U a strict
    contraction, so the doubling converges; ||M - I||_F < 1 certifies it,
    and the other slices get the smallest eigenvalue. A certified slice
    gets W by Newton-Schulz steps, matrix products only (Schulz 1933;
    Higham, Functions of Matrices, SIAM 2008, sec. 7.3); the others by
    ``np.linalg.inv``. Its failure, reaching ``INVERSE_MAX_STEPS`` or
    ``LYAP_MAX_DOUBLINGS``, and a residual of the symmetrized S above
    ``CHECK_RTOL * ||B||_F`` are ``DomainError``s: the lifting's arguments
    sit too far apart. After the input checks, B's first, the first failing
    slice is reported with its first failure in that order, as a loop over
    the slices would; for a stack, ``sample_index`` names the slice.
    """
    b = _check_matrix(b, "solve_lyapunov_sym B", structure="symmetric")
    n = b.shape[0]
    m = _check_matrix(m, "solve_lyapunov_sym M", shape=(n, n), ndim=(2, 3))
    return _solve_lyapunov(m.reshape(-1, n, n), b, m.ndim == 3).reshape(m.shape)


def _solve_lyapunov(ms: np.ndarray, b: np.ndarray, stacked: bool) -> np.ndarray:
    """solve_lyapunov_sym of an (N, n, n) stack ``ms`` against a symmetric
    ``b``; a ``DomainError`` names its slice when ``stacked``."""
    n = b.shape[0]
    eye = np.eye(n)
    failures = []  # (slice, message); the smallest slice is raised

    e = ms - eye
    sure = np.einsum("kij,kij->k", e, e) < 1.0 - _PD_SCREEN_MARGIN
    unsure = np.flatnonzero(~sure)
    solved = len(ms)
    if unsure.size:
        lowest = np.linalg.eigvalsh(ms[unsure] + np.swapaxes(ms[unsure], 1, 2))[:, 0]
        bad = np.flatnonzero(lowest <= 0.0)
        if bad.size:
            solved = int(unsure[bad[0]])
            failures.append((solved, (
                "M + M^T is not positive definite (smallest eigenvalue "
                f"{lowest[bad[0]]:.3e}); arguments too far apart for a unique solution"
            )))
    # every slice before the first non-positive-definite one is solved
    ms, sure = ms[:solved], sure[:solved]
    a = ms + eye
    if sure.all():
        w, done = _newton_schulz_inverse(a)
    else:
        # the slices the screen left unsure keep LAPACK's inverse
        w = np.empty_like(a)
        w[~sure] = np.linalg.inv(a[~sure])
        w[sure], done = _newton_schulz_inverse(a[sure])
    stuck = np.flatnonzero(sure)[~done]
    if stuck.size:
        failures.append((int(stuck[0]), (
            f"Newton-Schulz inverse did not converge in {INVERSE_MAX_STEPS} "
            "steps; arguments too far apart"
        )))
    u = eye - 2.0 * w
    s = 2.0 * (w @ b @ np.swapaxes(w, 1, 2))
    for doubling in range(LYAP_MAX_DOUBLINGS + 1):
        live = ~(np.einsum("kij,kij->k", u, u) < LYAP_TAIL)
        if not live.any() or doubling == LYAP_MAX_DOUBLINGS:
            break
        if not live.all():
            # a converged slice stops where its own call would: U = 0 adds
            # nothing to S and cannot underflow
            u[~live] = 0.0
        s += u @ s @ np.swapaxes(u, 1, 2)
        u = u @ u
    stuck = np.flatnonzero(live)
    if stuck.size:
        failures.append((int(stuck[0]), (
            f"Lyapunov doubling did not converge in {LYAP_MAX_DOUBLINGS} "
            "doublings; arguments too far apart"
        )))
    s = 0.5 * (s + np.swapaxes(s, 1, 2))
    r = ms @ s
    r += np.swapaxes(r, 1, 2) - b
    residual = np.sqrt(np.einsum("kij,kij->k", r, r))
    bnrm = _frobenius(b)
    over = np.flatnonzero(~(residual <= CHECK_RTOL * max(bnrm, np.finfo(float).tiny)))
    if over.size:
        failures.append((int(over[0]), (
            f"Lyapunov solve residual {residual[over[0]]:.3e} exceeds "
            f"{CHECK_RTOL:.1e} * ||B||; arguments too far apart"
        )))
    if failures:
        k, message = min(failures, key=lambda f: f[0])
        raise DomainError(message, sample_index=k if stacked else None)
    return s


def _newton_schulz_inverse(a: np.ndarray):
    """``(W, done)``: W_k = A_k^-1 for every slice of an (N, n, n) stack A = M
    + I with ||M_k - I||_F < 1, by steps W <- W + W R, R = I - A W; ``done``
    marks the slices that converged.

    The start W = I - A/4 = (3I - M)/4 is the first step from I/2, taken in
    closed form: its R = (I - A/2)^2 = (M - I)^2 / 4 has ||R||_F < 1/4. Each
    step squares R, so the slice's own step in which ||R||_F^2 falls below
    ``LYAP_TAIL`` leaves an error of rounding size, the fifth at the latest,
    within ``INVERSE_MAX_STEPS``; then R = 0 freezes the slice, so its bits
    do not depend on the other slices.
    """
    eye = np.eye(a.shape[-1])
    w = eye - 0.25 * a
    half = eye - 0.5 * a
    r = half @ half
    for _ in range(INVERSE_MAX_STEPS):
        done = np.einsum("kij,kij->k", r, r) < LYAP_TAIL
        w += w @ r
        if done.all():
            break
        r = eye - a @ w
        r[done] = 0.0
    return w, done


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
    omega = _check_matrix(omega, "solve_ortho_retraction_eq Omega",
                          structure="skew-symmetric")
    n = omega.shape[0]
    g = _check_matrix(g, "solve_ortho_retraction_eq G", shape=(n, n), structure="symmetric")
    return _solve_ortho_retraction_eq(omega, g)


def _solve_ortho_retraction_eq(omega: np.ndarray, g: np.ndarray) -> np.ndarray:
    # solve_ortho_retraction_eq for a skew omega and a symmetric g
    s = np.zeros(omega.shape)
    first_res = None
    for _ in range(ORTHO_EQ_MAX_ITERS):
        rhs = s @ s + g + s @ omega - omega @ s
        res = _frobenius(2.0 * s + rhs)
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
