"""Retraction and lifting maps on St(p, n), and their mixed composition.

Two families are implemented, each locally inverse to its associate:

* polar:        P_X(V) = (X + V) (I + V^T V)^(-1/2), the polar factor of
                X + V, lifted by solving a small linear matrix equation for
                the symmetric factor S in V = Q S - X;
* orthographic: lifting is the tangent projection of Q - X (which collapses
                to Q - X sym(X^T Q)); the retraction corrects along the
                normal space, Q = X + V + X S with symmetric S from the
                quadratic equation solved in ``kernels``.

``MapPair`` names the three configurations: polar, orthographic and the
mixed polar-retraction with orthographic-lifting. Composing maps from
different families is not an exact identity; ``composition_discrepancy_*``
return the mismatch ||I - Q^T P_X(lift_X(Q))||_F as a float, evaluated
directly or by a closed form driven only by M = Q^T X. It shrinks like the
cube of the discrepancy between X and Q. The direct one is one
slice of an array core that composes the maps over a whole (N, p, n) stack
of samples at one anchor, which is how the discrepancy experiment runs.

All maps are local: the liftings' exact guard, ``_first_far``, rejects
argument pairs whose discrepancy reaches ``DOMAIN_GUARD``. The guard is an
engineering bound, not a theoretical radius; it is sized so that the sample
clouds used by the bundled experiments (spread up to sigma = 0.2 on
St(20, 4)) stay inside it.

The pair parameterizes the averaging loop, and every rule that depends on
it is written here: ``_iteration`` sets up a pair's combined tangent over a
cloud and the retraction core that ``retract`` also applies. The polar
tangent runs the exact guard on every sample. The orthographic-lifting
pairs lift only the weighted ambient mean; their guard screens the whole
cloud at the initial guess X_a, keeping a bound r_a on max_k ||X_a - Q_k||_F.
At a later iterate X of defect e, delta(X, Q_k) <= sqrt(1 + e) (r_a +
||X - X_a||_F) + e clears every sample when below the guard by
``_SCREEN_MARGIN``; otherwise the cloud is screened again at X, the new
anchor. A sample no screen clears goes through the exact guard.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import DomainError, ValidationError
from .kernels import (
    _solve_lyapunov,
    _solve_ortho_retraction_eq,
    _spd_inv_sqrt,
    # perfbench/tracer.py rebinds maps.solve_lyapunov_sym and
    # maps.solve_ortho_retraction_eq by name, so they stay bound although
    # the liftings and the retraction call the unchecked cores
    solve_lyapunov_sym,  # noqa: F401
    solve_ortho_retraction_eq,  # noqa: F401
    spd_inv_sqrt,
)
from .manifold import (
    TOL_ORTH,
    StiefelPoint,
    TangentVector,
    _check_points,
    _check_stiefel,
    _check_type,
    _gaps_to_identity,
)

# Liftings reject pairs with discrepancy at or above this bound.
DOMAIN_GUARD = 1.5

# The locality screen clears a sample only when its bound on the discrepancy
# is below DOMAIN_GUARD by this much. The margin covers the rounding of the
# iterate's defect e and of the scalar steps of the screen and of the
# certificate, so a cleared sample is also below the guard as the exact
# check computes it.
_SCREEN_MARGIN = 1e-9


class MapPair(Enum):
    """The retraction/lifting pair of the averaging iteration: the two
    associated pairs and the mixed polar-retraction/orthographic-lifting one."""

    POLAR = "polar"
    ORTHO = "ortho"
    MIXED = "mixed"

    @property
    def label(self) -> str:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "MapPair":
        """Parse a pair name, 'polar', 'ortho' or 'mixed', in any case and
        with surrounding blanks. Raises ``ValidationError`` for anything
        else, including the unsupported 'ortho-polar'."""
        try:
            return cls(name.strip().lower())
        except (AttributeError, ValueError):
            raise ValidationError(
                f"unknown map pair '{name}' (choose from: polar, ortho, mixed)"
            ) from None


ALL_PAIRS = tuple(MapPair)


def _check_anchor(x: StiefelPoint, v: TangentVector):
    anchor = _check_type(v, TangentVector, "v").anchor
    if anchor is not _check_type(x, StiefelPoint, "x") and not np.array_equal(anchor.X, x.X):
        raise ValidationError("tangent vector is anchored at a different point")


def _first_far(xtq: np.ndarray, what: str, samples=None):
    """The locality guard of one X^T Q or an (N, n, n) stack of X^T Q_k, by
    the exact discrepancies: ``(k, error)`` for the first slice k at or past
    ``DOMAIN_GUARD``, error naming sample ``samples[k]`` (k by default,
    ``None`` for one matrix); ``(N, None)`` when every slice is inside."""
    d = _gaps_to_identity(xtq.reshape(-1, *xtq.shape[-2:]))
    far = np.flatnonzero(d >= DOMAIN_GUARD)
    if not far.size:
        return len(d), None
    k = int(far[0])
    index = None if xtq.ndim == 2 else k if samples is None else int(samples[k])
    return k, DomainError(
        f"{what}: arguments too far apart (discrepancy {d[k]:.3f} >= {DOMAIN_GUARD})",
        sample_index=index,
    )


def _polar_factors(xtq: np.ndarray) -> np.ndarray:
    """The symmetric S_k with (X^T Q_k) S_k + S_k (Q_k^T X) = 2I of the polar
    liftings Q_k S_k - X, for one X^T Q or an (N, n, n) stack. The guard,
    then one solve of the slices before the first far one, so an error names
    the first failing slice with its message, as a per-sample loop would."""
    n = xtq.shape[-1]
    first, far = _first_far(xtq, "polar lifting")
    s = _solve_lyapunov(xtq.reshape(-1, n, n)[:first], 2.0 * np.eye(n), xtq.ndim == 3)
    if far is not None:
        raise far
    return s.reshape(xtq.shape)


def polar_retraction(x: StiefelPoint, v: TangentVector) -> StiefelPoint:
    """P_X(V) = (X + V) (I + V^T V)^(-1/2).

    Evaluated as the polar factor Y (Y^T Y)^(-1/2) of Y = X + V, which
    equals the formula above whenever X^T X = I and X^T V is skew, but is
    orthonormal to rounding whatever defect X and V carry in, so the
    iterates of a long run do not drift off the manifold. Defined for every
    tangent vector; Y^T Y = I + V^T V is always positive definite.
    """
    _check_anchor(x, v)
    return StiefelPoint(_polar_retract(x.X, v.V))


def _polar_retract(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    # polar_retraction on arrays; Y^T Y is symmetric, so no input check runs
    y = x + v
    return y @ _spd_inv_sqrt(y.T @ y)


def polar_lifting(x: StiefelPoint, q: StiefelPoint) -> TangentVector:
    """Inverse of the polar retraction: the tangent V with P_X(V) = Q.

    Writing V = Q S - X with S symmetric, tangency forces the linear system
    (X^T Q) S + S (Q^T X) = 2 I, solved by ``solve_lyapunov_sym``. The
    round trip through ``polar_retraction`` reproduces Q to solver accuracy.
    """
    _check_points(x, q, ("x", "q"))
    s = _polar_factors(x.X.T @ q.X)
    # tangency defect of Q S - X equals the solver residual, already bounded
    return TangentVector._unchecked(x, q.X @ s - x.X)


def orthographic_lifting(x: StiefelPoint, q: StiefelPoint) -> TangentVector:
    """Tangent projection of Q - X, evaluated as Q - X sym(X^T Q).

    Algebraically identical to projecting Q - X with the tangent projector;
    this form needs only two thin products, which is what makes the mixed
    pair cheap.
    """
    _check_points(x, q, ("x", "q"))
    xtq = x.X.T @ q.X
    _, far = _first_far(xtq, "orthographic lifting")
    if far is not None:
        raise far
    # X^T V + V^T X = -(E S + S E) with E = X^T X - I, so the defect is
    # bounded by twice the anchor's construction tolerance; skip the re-check
    return TangentVector._unchecked(x, _ortho_lift(x.X, q.X, xtq))


def _ortho_lift(x: np.ndarray, q: np.ndarray, xtq: np.ndarray) -> np.ndarray:
    # orthographic_lifting on arrays, given xtq = X^T Q; also of every slice
    # of an (N, p, n) stack q with its (N, n, n) stack xtq
    return q - x @ (0.5 * (xtq + xtq.swapaxes(-1, -2)))


def orthographic_retraction(x: StiefelPoint, v: TangentVector) -> StiefelPoint:
    """Inverse of the orthographic lifting: move along the normal space
    {X S : S symmetric} until landing on the manifold.

    Q = X + V + X S with S the near-zero symmetric solution of the quadratic
    equation handled by ``solve_ortho_retraction_eq`` (Omega = X^T V,
    G = (X + V)^T (X + V) - I, which is V^T V when X^T X = I but also
    corrects the defect X carries). Since Q - X - V = X S is annihilated by
    the tangent projector, the associated lifting recovers V exactly.
    """
    _check_anchor(x, v)
    return StiefelPoint(_ortho_retract(x.X, v.V))


def _ortho_retract(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    # orthographic_retraction on arrays; Omega is skew and G symmetric, so the
    # kernel's checks are skipped
    xtv = x.T @ v
    omega = 0.5 * (xtv - xtv.T)  # drop the rounding-level symmetric part
    y = x + v
    g = y.T @ y
    g.flat[:: g.shape[0] + 1] -= 1.0
    return y + x @ _solve_ortho_retraction_eq(omega, g)


def _retraction(pair: MapPair):
    """The array core of the pair's retraction: orthographic for ``ORTHO``, polar else."""
    return _ortho_retract if pair is MapPair.ORTHO else _polar_retract


def retract(pair: MapPair, x: StiefelPoint, v: TangentVector) -> StiefelPoint:
    """Apply the pair's retraction: orthographic for ``ORTHO``, polar for the others."""
    core = _retraction(_check_type(pair, MapPair, "pair"))
    _check_anchor(x, v)
    return StiefelPoint(core(x.X, v.V))


def lift(pair: MapPair, x: StiefelPoint, q: StiefelPoint) -> TangentVector:
    """Apply the pair's lifting: polar for ``POLAR``, orthographic for the others."""
    if _check_type(pair, MapPair, "pair") is MapPair.POLAR:
        return polar_lifting(x, q)
    return orthographic_lifting(x, q)


def _sq_norm_bound(p: int, n: int) -> float:
    """A bound on ||Q||_F^2 = n + tr(Q^T Q - I) <= n + sqrt(n) TOL_ORTH for
    every p x n Q that passed the orthonormality check, as every sample of a
    ``SampleSet`` has. Slack for the check's rounding (u = eps / 2): each
    ||q_i||^2 is a dot product of length p, within p u, and the norm of
    Q^T Q - I one of length n^2 and a square root, within (n^2 + 3) u; the
    factor 1 + (p + n^2 + 4) eps covers both and this expression's own."""
    return (n + math.sqrt(n) * TOL_ORTH) * (1.0 + (p + n * n + 4) * np.finfo(float).eps)


def _ambient_mean(stack: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(1/sum(w)) sum_k w_k Q_k, accumulated in sample order."""
    rows = stack.reshape(len(stack), -1)
    if rows.shape[1] == 1:
        # NumPy sums a single contiguous column pairwise, not in sample order
        acc = np.zeros(1)
        for wk, q in zip(w, rows):
            acc += wk * q
    else:
        # an axis-0 reduction from 0.0 adds one row at a time, in order, the
        # same bits as the loop above; unit weights need no (N, p n) product
        terms = rows if np.all(w == 1.0) else w[:, None] * rows
        acc = np.add.reduce(terms, axis=0, initial=0.0)
    acc /= w.sum()
    return acc.reshape(stack.shape[1:])


def _check_locality(x: np.ndarray, e: float, stack: np.ndarray) -> float:
    """Raise the guard's ``DomainError`` for the first sample of ``stack``
    at or beyond ``DOMAIN_GUARD`` from ``x``, of defect e; else return r, an
    upper bound on max_k ||X - Q_k||_F.

    Since I - X^T Q = X^T (X - Q) + (I - X^T X) and ||X||_2 <= sqrt(1 + e),
    ||I - X^T Q_k||_F <= sqrt(1 + e) ||X - Q_k||_F + e, and ||X - Q_k||_F^2
    <= ||X||^2 + b - 2 <X, Q_k>, b = ``_sq_norm_bound``, takes one
    matrix-vector product over the (N, p n) rows of the stack. A sample
    whose bound, rounding added, is below the guard by ``_SCREEN_MARGIN`` is
    cleared; every other one goes through the exact guard.
    """
    xv = x.ravel()
    xx = float(xv @ xv)
    qq = _sq_norm_bound(*x.shape)
    # Bound on the rounding error of ||X||^2 + b - 2 <X, Q_k> per unit of
    # ||X||^2 + b: two dot products of length p n and two additions, each
    # within (p n + 2) u of the sum of the magnitudes, with u = eps / 2.
    rounding = (xv.size + 2) * np.finfo(float).eps
    d2 = qq - 2.0 * (stack.reshape(len(stack), -1) @ xv)
    d2 += xx + rounding * (xx + qq)
    radius = math.sqrt(max(float(d2.max()), 0.0))
    # bound < DOMAIN_GUARD - margin, squared; a NaN is not cleared
    limit = max(DOMAIN_GUARD - _SCREEN_MARGIN - e, 0.0)
    near = np.flatnonzero(~(d2 < limit * limit / (1.0 + e)))
    if near.size:
        _, far = _first_far(x.T @ stack[near], "orthographic lifting", near)
        if far is not None:
            raise far
    return radius


def _locality_certificate(stack: np.ndarray):
    """``check(x, e)``: raise what ``_check_locality`` at X would, for an
    iterate X of defect e, screening the cloud only where the certificate
    of the last anchor (see the module docstring) does not clear every
    sample."""
    # the computed ||X - X_a||_F^2 times 1 + rounding bounds the exact one:
    # a difference and a dot product of length p n, as in _check_locality
    rounding = (stack[0].size + 2) * np.finfo(float).eps
    anchor = radius = None

    def check(x: np.ndarray, e: float) -> None:
        nonlocal anchor, radius
        if anchor is not None:
            gap = (x - anchor).ravel()
            moved = math.sqrt(gap.dot(gap) * (1.0 + rounding))
            if (radius + moved) * math.sqrt(1.0 + e) + e < DOMAIN_GUARD - _SCREEN_MARGIN:
                return
        radius = _check_locality(x, e, stack)
        anchor = x
    return check


def _iteration(pair: MapPair, stack: np.ndarray, weights: np.ndarray):
    """``(tangent, retract)`` of the pair's averaging iteration over an
    (N, p, n) ``stack`` with positive ``weights``, set up once per run, on
    arrays: ``tangent(x, e)`` is (1/sum(w)) sum_k w_k lift(X, Q_k) for an
    iterate X of orthonormality defect e, a ``DomainError`` naming the first
    failing sample in ``sample_index``; ``retract(x, v)`` is the pair's
    retraction. The polar tangent is (sum_k w_k Q_k S_k - sum(w) X) / sum(w),
    each S_k from the polar core; the orthographic lifting is linear in Q,
    so the other pairs lift the weighted ambient mean, computed here once.
    """
    n_samples, p, n = stack.shape
    if pair is MapPair.POLAR:
        weight_sum = weights.sum()
        # the samples side by side, Q_k in columns k n to k n + n - 1: every
        # X^T Q_k is one product with it, and so is sum_k w_k Q_k S_k
        columns = stack.transpose(1, 0, 2).reshape(p, n_samples * n)

        def tangent(x, e):
            xtq = (x.T @ columns).reshape(n, n_samples, n).transpose(1, 0, 2)
            s = _polar_factors(np.ascontiguousarray(xtq))
            s *= weights[:, None, None]
            acc = columns @ s.reshape(n_samples * n, n)
            acc -= weight_sum * x
            acc /= weight_sum
            return acc
    else:
        qbar = _ambient_mean(stack, weights)
        check_locality = _locality_certificate(stack)

        def tangent(x, e):
            check_locality(x, e)
            return _ortho_lift(x, qbar, x.T @ qbar)
    return tangent, _retraction(pair)


def _mixed_composition(c: np.ndarray, q: np.ndarray):
    """``(delta, comp)``: delta(C, Q_k) = ||I - C^T Q_k||_F and Delta_C(Q_k)
    = ||I - R_k^T Q_k||_F, with R_k the polar retraction at C of the
    orthographic lifting of Q_k, for one p x n Q or every slice of an
    (N, p, n) stack, as arrays of shape ``q.shape[:-2]``.

    The guard names the first far slice of a stack in ``sample_index``, and
    the R_k are checked as ``StiefelPoint`` checks a point, as the public
    maps in a loop over the slices would. Each R_k is the polar factor of Y_k = C +
    V_k; Y_k^T Y_k = I + V_k^T V_k has no eigenvalue below 1, so one
    batched ``eigh`` gives every inverse square root. delta has the bits of
    ``discrepancy``.
    """
    ctq = c.T @ q
    _, far = _first_far(ctq, "orthographic lifting")
    if far is not None:
        raise far
    n = c.shape[1]
    stack = q.reshape(-1, *c.shape)
    ctq = ctq.reshape(-1, n, n)
    y = c + _ortho_lift(c, stack, ctq)
    w, u = np.linalg.eigh(np.swapaxes(y, 1, 2) @ y)
    r = y @ ((u / np.sqrt(w)[:, None, :]) @ np.swapaxes(u, 1, 2))
    _check_stiefel(r.reshape(q.shape))
    comp = _gaps_to_identity(np.swapaxes(r, 1, 2) @ stack)
    return _gaps_to_identity(ctq).reshape(q.shape[:-2]), comp.reshape(q.shape[:-2])


def composition_discrepancy_direct(x: StiefelPoint, q: StiefelPoint) -> float:
    """Mismatch ||I - Q^T P_X(lift_X(Q))||_F of the mixed composition,
    evaluated by actually composing the maps: lift Q orthographically at X,
    retract polarly, and measure the discrepancy to Q."""
    _check_points(x, q, ("x", "q"))
    return float(_mixed_composition(x.X, q.X)[1])


def composition_discrepancy_closed_form(x: StiefelPoint, q: StiefelPoint) -> float:
    """Same mismatch computed purely from M = Q^T X:

        Delta = || I - [I + M - M(M + M^T)/2]
                      [2I - (M - M^T)^2/4 - M M^T]^(-1/2) ||_F

    For any X and Q on one St(p, n) the bracket under the inverse square
    root equals I + V^T V with V = Q - X (X^T Q + Q^T X)/2, the orthographic
    lifting's formula, so its eigenvalues are at least 1: the closed form is
    defined for every pair, also past the lifting's locality guard.
    """
    _check_points(x, q, ("x", "q"))
    n = x.dims.n
    eye = np.eye(n)
    m = q.X.T @ x.X
    left = eye + m - 0.5 * m @ (m + m.T)
    d = m - m.T
    bracket = 2.0 * eye - 0.25 * (d @ d) - m @ m.T
    return float(np.linalg.norm(eye - left @ spd_inv_sqrt(bracket)))
