"""Fixed-point empirical mean of Stiefel points under a retraction/lifting pair.

The mean of samples Q_1..Q_N with positive weights w_k (all ones unless
given) is characterized implicitly: it is the point X whose lifted samples
average to zero, equivalently a solution of

    X = retract_X( (1/sum(w)) * sum_k w_k lift_X(Q_k) ),

the weighted quasi-arithmetic (Kolmogoroff-Nagumo) mean, in which only the
weights' ratios matter. ``fixed_point_mean`` retracts along the combined
lifted field until its norm at the current iterate is below ``conv_tol``.

Where validation happens: ``fixed_point_mean`` checks its inputs at entry.
In between, one loop serves all three pairs on plain (p, n) arrays, through
the unchecked array cores of the maps and kernels that the public maps also
call, so every iterate, step and residual has the bits of a loop over the
public maps. Each retracted iterate's Gram matrix is formed once; its
orthonormality defect e is both the check ``StiefelPoint`` would make (the
same ``ValidationError``) and an input of the locality certificate. Only
the final point is wrapped as a ``StiefelPoint``.

Locality: every lifting must see each sample closer than ``DOMAIN_GUARD``.
The polar pair hands every X^T Q_k to the polar core of ``maps``, which runs
the exact guard and solves with ``kernels.solve_lyapunov_sym``. The
orthographic-lifting pairs lift only the ambient mean, so their guard
screens the whole cloud once, at the initial guess X_a, and keeps a bound
r_a on max_k ||X_a - Q_k||_F. At a later iterate X, with defect e,

    delta(X, Q_k) <= sqrt(1 + e) (r_a + ||X - X_a||_F) + e,

so one p x n difference clears every sample when that bound is below the
guard by the screen's margin; otherwise the cloud is screened again at X,
which becomes the anchor.

A ``DomainError`` aborts the run, and ``fixed_point_mean`` attaches, in one
place, the index of the iterate it failed at: a lifting failure names the
first failing sample, with the message a per-sample loop would give, a
retraction failure no sample. Running past ``max_iters`` is not an error;
it is reported through ``converged=False`` with the full trace.
"""

from __future__ import annotations

import math
import reprlib
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import maps
from .errors import DomainError, ValidationError
from .kernels import _frobenius, _real_array
from .manifold import (
    SampleSet,
    StiefelPoint,
    _check_int,
    _check_real,
    _check_same_dims,
    _check_type,
    _checked_defect,
    _gap_to_identity,
    _sq_norm_bound,
)
# ``lift`` and ``retract`` are not called here; perfbench/tracer.py rebinds
# averaging.lift and averaging.retract by name, so they stay bound
from .maps import DOMAIN_GUARD, MapPair, lift, retract  # noqa: F401

# The locality screen clears a sample only when its bound on the discrepancy
# is below DOMAIN_GUARD by this much. The margin covers the rounding of the
# iterate's defect e and of the scalar steps of the screen and of the
# certificate, so a cleared sample is also below the guard as the exact
# check computes it.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class AveragingConfig:
    """Knobs of the fixed-point iteration.

    ``max_iters`` is an integer >= 1 and ``conv_tol`` a finite positive real.
    A run stops at the first iterate where the combined lifted field, whose
    zero is the mean, has a Frobenius norm below ``conv_tol``, or after
    ``max_iters`` steps. So a converged run's field is below ``conv_tol``.
    Every retraction has dR_X(0) = id, so that norm is first order in the
    whole step the iteration would take next.

    ``weights`` may be ``None`` (unweighted) or a sequence of N finite
    positive reals with a finite, normal sum. The initial guess is the
    caller's: ``perturb_initial_guess`` derives one from a sample.
    """

    pair: MapPair = MapPair.MIXED
    max_iters: int = 100
    conv_tol: float = 1e-10
    weights: Optional[Sequence[float]] = None

    def __post_init__(self):
        _check_type(self.pair, MapPair, "pair")
        object.__setattr__(self, "max_iters", _check_int(self.max_iters, "max_iters", 1))
        conv_tol = _check_real(self.conv_tol, "conv_tol", positive=True)
        object.__setattr__(self, "conv_tol", conv_tol)


@dataclass
class AveragingReport:
    """Outcome and per-iteration trace of one averaging run.

    ``residual_field_norm`` is the norm of the combined lifted-sample
    tangent at the final point, with the run's weights: the mean is a zero
    of that field, and this norm is the only stop measure, so ``converged``
    is ``residual_field_norm < conv_tol``. ``step_sizes[i]`` is the paper's
    discrepancy ||I - X_i^T X_{i+1}||_F, recorded only; it is empty when no
    step was taken. ``iterates_delta_to_center`` tracks the discrepancy of
    every iterate (including the initial guess) to the sample set's center
    when that is known, else ``None``. ``cumulative_time_ns[i]`` is the time
    from the start of the loop to the end of iteration i.
    """

    final_point: StiefelPoint
    iterations_used: int
    converged: bool
    step_sizes: list = field(default_factory=list)
    iterates_delta_to_center: Optional[list] = None
    cumulative_time_ns: list = field(default_factory=list)
    residual_field_norm: float = float("nan")

    def write_trace_csv(self, path) -> None:
        """CSV trace: columns iter, step_size, delta_to_center,
        cumulative_time_ns. Row 0 describes the initial guess, so its
        step_size is empty; delta_to_center is empty throughout when the
        center is unknown."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iter,step_size,delta_to_center,cumulative_time_ns\n")
            deltas = self.iterates_delta_to_center
            for i in range(self.iterations_used + 1):
                step = "" if i == 0 else f"{self.step_sizes[i - 1]:.17g}"
                dc = "" if deltas is None else f"{deltas[i]:.17g}"
                tns = 0 if i == 0 else self.cumulative_time_ns[i - 1]
                fh.write(f"{i},{step},{dc},{tns}\n")


def _resolve_weights(weights: Optional[Sequence[float]], n_samples: int) -> np.ndarray:
    # Unweighted runs use all-ones weights: both rules then take the same
    # summation path, and multiplying by 1.0 is exact.
    if weights is None:
        return np.ones(n_samples)
    try:
        w = _real_array(weights)
    except (TypeError, ValueError):
        raise ValidationError(
            f"weights must be a sequence of reals, got {reprlib.repr(weights)}"
        ) from None
    if w.shape != (n_samples,):
        raise ValidationError(f"need one weight per sample ({n_samples}), got shape {w.shape}")
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"weights must be finite and positive, got {w[k]} at index {k}")
    with np.errstate(over="ignore"):  # the rule divides by sum(w)
        total = w.sum()
    if not (np.isfinite(total) and total >= np.finfo(float).tiny):
        raise ValidationError(f"the sum of the weights must be finite and normal, got {total}")
    return w


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
    """Raise the ``maps`` guard's ``DomainError`` for the first sample of
    ``stack`` at or beyond ``DOMAIN_GUARD`` from ``x``, of defect e; else
    return r, an upper bound on max_k ||X - Q_k||_F.

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
        _, far = maps._first_far(x.T @ stack[near], "orthographic lifting", near)
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


def _combined_tangent(pair: MapPair, stack: np.ndarray, weights: np.ndarray):
    """Set up, once per run, the combined tangent ``(x, e) ->
    (1/sum(w)) sum_k w_k lift(X, Q_k)`` on arrays, for an iterate X of
    orthonormality defect e; a ``DomainError`` names the first failing
    sample in ``sample_index``.

    The orthographic lifting Q - X sym(X^T Q) is linear in Q, so for the
    orthographic-lifting pairs this is the lifting of the weighted ambient
    mean Q_w = (1/sum(w)) sum_k w_k Q_k, computed here once; the locality
    certificate guards the samples. The polar tangent is (sum_k w_k Q_k S_k
    - sum(w) X) / sum(w), with every S_k from the polar core of ``maps``,
    the solve the public polar lifting runs; nothing is kept between calls.
    """
    n_samples, p, n = stack.shape
    if pair is MapPair.POLAR:
        weight_sum = weights.sum()
        # the samples side by side, Q_k in columns k n to k n + n - 1: every
        # X^T Q_k is one product with it, and so is sum_k w_k Q_k S_k
        columns = stack.transpose(1, 0, 2).reshape(p, n_samples * n)

        def tangent(x, e):
            xtq = (x.T @ columns).reshape(n, n_samples, n).transpose(1, 0, 2)
            s = maps._polar_factors(np.ascontiguousarray(xtq))
            s *= weights[:, None, None]
            acc = columns @ s.reshape(n_samples * n, n)
            acc -= weight_sum * x
            acc /= weight_sum
            return acc
        return tangent

    qbar = _ambient_mean(stack, weights)
    check_locality = _locality_certificate(stack)

    def tangent(x, e):
        check_locality(x, e)
        return maps._ortho_lift(x, qbar, x.T @ qbar)
    return tangent


def fixed_point_mean(
    samples: SampleSet, config: AveragingConfig, initial: StiefelPoint
) -> AveragingReport:
    """Fixed-point mean of ``samples`` under ``config.pair``.

    From ``initial``, evaluates the combined tangent V_i at iterate X_i,
    stops if ||V_i||_F < ``config.conv_tol`` or ``config.max_iters`` steps
    are taken, and otherwise steps to X_{i+1} = retract_{X_i}(V_i). A
    converged run's field is below ``conv_tol``. Every iterate is checked
    as a ``StiefelPoint`` would be. With all weights equal to one the
    trajectory matches the unweighted run bit for bit.
    """
    _check_type(samples, SampleSet, "samples")
    _check_same_dims(_check_type(initial, StiefelPoint, "initial"), samples)
    weights = _resolve_weights(config.weights, len(samples))
    tangent = _combined_tangent(config.pair, samples.stack, weights)
    if config.pair is MapPair.ORTHO:
        step_along = maps._ortho_retract
    else:
        eye = np.eye(samples.dims.n)

        def step_along(x, v):
            return maps._polar_retract(x, v, eye)
    center = None if samples.center is None else samples.center.X
    x = initial.X
    e = _gap_to_identity(x, x)
    deltas = None if center is None else [_gap_to_identity(x, center)]
    steps: list = []
    times: list = []
    t0 = time.perf_counter_ns()
    try:
        for i in range(config.max_iters + 1):
            v = tangent(x, e)
            residual = _frobenius(v)
            if residual < config.conv_tol or i == config.max_iters:
                break
            x_next = step_along(x, v)
            e = _checked_defect(x_next)
            steps.append(_gap_to_identity(x_next, x))
            times.append(time.perf_counter_ns() - t0)
            if deltas is not None:
                deltas.append(_gap_to_identity(x_next, center))
            x = x_next
    except DomainError as exc:
        # the tangent names its failing sample, a retraction none
        k = exc.sample_index
        where = "retraction" if k is None else "lifting"
        sample = "" if k is None else f", sample {k}"
        raise DomainError(
            f"{where} failed at iteration {i}{sample}: {exc}", iteration=i, sample_index=k
        ) from exc
    return AveragingReport(
        # every iterate passed _checked_defect
        final_point=StiefelPoint._unchecked(x, samples.dims),
        iterations_used=i,
        converged=residual < config.conv_tol,
        step_sizes=steps,
        iterates_delta_to_center=deltas,
        cumulative_time_ns=times,
        residual_field_norm=residual,
    )
