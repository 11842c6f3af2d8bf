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
directly or by a closed form driven only by M = Q^T X. The direct one is one
slice of an array core that composes the maps over a whole (N, p, n) stack
of samples at one anchor, which is how the discrepancy experiment runs.

All maps are local: liftings reject argument pairs whose discrepancy reaches
``DOMAIN_GUARD``. The guard is an engineering bound, not a theoretical
radius; it is sized so that the sample clouds used by the bundled experiments
(spread up to sigma = 0.2 on St(20, 4)) stay inside it.
"""

from __future__ import annotations

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
    StiefelPoint,
    TangentVector,
    _check_points,
    _check_stiefel,
    _check_type,
    _gaps_to_identity,
)

# Liftings reject pairs with discrepancy at or above this bound.
DOMAIN_GUARD = 1.5


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


def _polar_factors(xtq: np.ndarray, w0=None):
    """``(S, W)``: the symmetric S_k with (X^T Q_k) S_k + S_k (Q_k^T X) = 2I of
    the polar liftings Q_k S_k - X, for one X^T Q or an (N, n, n) stack, and
    the stack of (X^T Q_k + I)^-1 the solver used, a start ``w0`` for the
    next call at a nearby X. The guard, then one solve of the slices before
    the first far one, so an error names the first failing slice with its
    message, as a per-sample loop would."""
    n = xtq.shape[-1]
    first, far = _first_far(xtq, "polar lifting")
    s, w = _solve_lyapunov(xtq.reshape(-1, n, n)[:first], 2.0 * np.eye(n),
                           xtq.ndim == 3, w0)
    if far is not None:
        raise far
    return s.reshape(xtq.shape), w


def polar_retraction(x: StiefelPoint, v: TangentVector) -> StiefelPoint:
    """P_X(V) = (X + V) (I + V^T V)^(-1/2).

    Evaluated as the polar factor Y (Y^T Y)^(-1/2) of Y = X + V, which
    equals the formula above whenever X^T X = I and X^T V is skew, but is
    orthonormal to rounding whatever defect X and V carry in, so the
    iterates of a long run do not drift off the manifold. Defined for every
    tangent vector; Y^T Y = I + V^T V is always positive definite.
    """
    _check_anchor(x, v)
    return StiefelPoint(_polar_retract(x.X, v.V, np.eye(x.dims.n)))


def _polar_retract(x: np.ndarray, v: np.ndarray, eye: np.ndarray) -> np.ndarray:
    # polar_retraction on arrays; eye is I_n. Y^T Y is symmetric by
    # construction, so the kernel's input check is skipped
    y = x + v
    return y @ _spd_inv_sqrt(y.T @ y, eye)


def polar_lifting(x: StiefelPoint, q: StiefelPoint) -> TangentVector:
    """Inverse of the polar retraction: the tangent V with P_X(V) = Q.

    Writing V = Q S - X with S symmetric, tangency forces the linear system
    (X^T Q) S + S (Q^T X) = 2 I, solved by ``solve_lyapunov_sym``. The
    round trip through ``polar_retraction`` reproduces Q to solver accuracy.
    """
    _check_points(x, q, ("x", "q"))
    s, _ = _polar_factors(x.X.T @ q.X)
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
    # kernel's checks are skipped. V^T V for G would pass an iterate's defect
    # E = X^T X - I on as about (I - 2 sym(X^T Q_w)) E, growing once sum(w) > N
    xtv = x.T @ v
    omega = 0.5 * (xtv - xtv.T)  # drop the rounding-level symmetric part
    y = x + v
    g = y.T @ y
    g.flat[:: g.shape[0] + 1] -= 1.0
    return y + x @ _solve_ortho_retraction_eq(omega, g)


def retract(pair: MapPair, x: StiefelPoint, v: TangentVector) -> StiefelPoint:
    """Apply the pair's retraction: orthographic for ``ORTHO``, polar for the others."""
    if _check_type(pair, MapPair, "pair") is MapPair.ORTHO:
        return orthographic_retraction(x, v)
    return polar_retraction(x, v)


def lift(pair: MapPair, x: StiefelPoint, q: StiefelPoint) -> TangentVector:
    """Apply the pair's lifting: polar for ``POLAR``, orthographic for the others."""
    if _check_type(pair, MapPair, "pair") is MapPair.POLAR:
        return polar_lifting(x, q)
    return orthographic_lifting(x, q)


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

    The bracket under the inverse square root equals I + V^T V of the lifted
    tangent, hence is symmetric positive definite whenever the pair is close
    enough; ``spd_inv_sqrt`` checks its symmetry to rounding and reports a
    failure of definiteness as the arguments being too far apart.
    """
    _check_points(x, q, ("x", "q"))
    n = x.dims.n
    eye = np.eye(n)
    m = q.X.T @ x.X
    left = eye + m - 0.5 * m @ (m + m.T)
    d = m - m.T
    bracket = 2.0 * eye - 0.25 * (d @ d) - m @ m.T
    try:
        inv_sqrt = spd_inv_sqrt(bracket)
    except DomainError as exc:
        raise DomainError(
            "closed-form composition discrepancy: arguments too far apart "
            f"({exc})"
        ) from exc
    return float(np.linalg.norm(eye - left @ inv_sqrt))
