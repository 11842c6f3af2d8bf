"""Fixed-point empirical mean of Stiefel points under a retraction/lifting pair.

The mean of samples X_1..X_N is characterized implicitly: it is the point X
whose lifted samples average to zero, equivalently a solution of

    X = retract_X( (1/N) * sum_k lift_X(X_k) ).

The iteration below evaluates the right-hand side at the current iterate and
repeats until the discrepancy between consecutive iterates drops below
``conv_tol`` or ``max_iters`` is reached. An optional positive weighting of
the lifted samples generalizes the rule; weights enter exactly as given, the
1/N factor stays. Large unnormalized weights scale the combined step by
sum(w)/N, which destabilizes the iteration (and can push the step outside the
retraction's domain); callers who want strong emphasis on a sample should
renormalize weights to sum approximately N.

Lifting failures abort the run with the iteration and sample index attached;
running past ``max_iters`` is not an error and is reported through
``converged=False`` with the full trace.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, ValidationError
from .manifold import SampleSet, StiefelPoint, TangentVector, discrepancy
from .maps import DOMAIN_GUARD, MapPair, lift, retract

WeightSpec = Union[None, Sequence[float], Callable[..., Sequence[float]]]

# The locality screen clears a sample only when its bound on the discrepancy
# is below DOMAIN_GUARD by this much. The margin covers the rounding of the
# iterate's defect e and of the scalar steps of the test, so a cleared sample
# is also below the guard as the exact check computes it.
_SCREEN_MARGIN = 1e-9


@dataclass(frozen=True)
class AveragingConfig:
    """Knobs of the fixed-point iteration.

    ``weights`` may be ``None`` (unweighted), a sequence of N finite positive
    reals, or a callable ``(iteration, point, samples) -> sequence`` evaluated
    once per iteration for adaptive schemes; ``fixed_point_mean`` runs the
    weighted rule whenever it is set. The initial guess is the caller's:
    ``perturb_initial_guess`` derives one from a sample.
    """

    pair: MapPair = MapPair.MIXED
    max_iters: int = 100
    conv_tol: float = 1e-10
    weights: WeightSpec = None

    def __post_init__(self):
        if not isinstance(self.pair, MapPair):
            raise ValidationError(f"pair must be a MapPair member, got {self.pair!r}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ValidationError(f"max_iters must be an int >= 1, got {self.max_iters!r}")
        if not (np.isfinite(self.conv_tol) and self.conv_tol > 0.0):
            raise ValidationError(f"conv_tol must be finite and positive, got {self.conv_tol}")


@dataclass
class AveragingReport:
    """Outcome and per-iteration trace of one averaging run.

    ``step_sizes[i]`` is the discrepancy between iterates i and i+1;
    ``iterates_delta_to_center`` tracks the discrepancy of every iterate
    (including the initial guess) to the sample set's center when that is
    known, else ``None``. ``residual_field_norm`` is the norm of the combined
    lifted-sample tangent at the final point divided by N, using the same
    weighting the run used; the mean is a zero of that field. ``converged``
    implies the last step size is below the configured tolerance.
    """

    final_point: StiefelPoint
    iterations_used: int
    converged: bool
    step_sizes: list = field(default_factory=list)
    iterates_delta_to_center: Optional[list] = None
    cumulative_time_ns: list = field(default_factory=list)
    wall_time: float = 0.0
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


def _resolve_weights(
    weights: WeightSpec, iteration: int, point: StiefelPoint, samples: SampleSet
) -> np.ndarray:
    # Unweighted runs use all-ones weights: both rules then take the same
    # summation path, and multiplying by 1.0 is exact.
    if weights is None:
        return np.ones(len(samples))
    if callable(weights):
        w = np.asarray(weights(iteration, point, samples), dtype=float)
    else:
        w = np.asarray(weights, dtype=float)
    if w.shape != (len(samples),):
        raise ValidationError(
            f"need one weight per sample ({len(samples)}), got shape {w.shape}"
        )
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        k = int(bad[0])
        raise ValidationError(f"weights must be finite and positive, got {w[k]} at index {k}")
    return w


class _Cloud:
    """The samples of one run as one contiguous (N, p, n) stack, built once.

    The orthographic lifting Q - X sym(X^T Q) is linear in Q, so the
    combined tangent of an orthographic-lifting pair is the lifting of the
    weighted ambient mean Q_w = (1/N) sum_k w_k Q_k. The per-sample domain
    guard is screened with one matrix-vector product over the (N, p n) rows
    of the stack, which gives every ||X - Q_k||_F; see ``check_locality``.
    """

    def __init__(self, samples: SampleSet):
        self.samples = samples
        p, n = samples.dims.p, samples.dims.n
        self.stack = np.concatenate([s.X for s in samples.samples]).reshape(-1, p, n)
        self.rows = self.stack.reshape(len(samples), p * n)
        self.sq_norms = np.einsum("ki,ki->k", self.rows, self.rows)
        # Bound on the rounding error of ||X||^2 + ||Q_k||^2 - 2 <X, Q_k>
        # per unit of ||X||^2 + max_k ||Q_k||^2: three dot products of
        # length p n and two additions, each within (p n + 2) u of the sum
        # of the magnitudes, with u = eps / 2.
        self._rounding = (p * n + 2) * np.finfo(float).eps
        self._max_sq_norm = float(self.sq_norms.max())
        self._weights = None
        self._mean = None

    def ambient_mean(self, w: np.ndarray) -> np.ndarray:
        """(1/N) sum_k w_k Q_k, accumulated in sample order; kept while the
        same weight array comes back."""
        if w is not self._weights:
            # one (p, n) row at a time: a single reduction over the stack
            # would need an (N, p, n) temporary on every run
            acc = np.zeros(self.stack.shape[1:])
            for wk, q in zip(w, self.stack):
                acc += wk * q
            acc /= len(w)
            self._weights, self._mean = w, acc
        return self._mean

    def check_locality(self, x: np.ndarray, iteration: Optional[int]) -> None:
        """Raise ``DomainError`` for the first sample at or beyond
        ``DOMAIN_GUARD`` from ``x``.

        Since I - X^T Q = X^T (X - Q) + (I - X^T X),

            ||I - X^T Q_k||_F <= ||X||_2 ||X - Q_k||_F + e,
            e = ||I - X^T X||_F,  ||X||_2 <= sqrt(1 + e),

        and ||X - Q_k||_F^2 = ||X||^2 + ||Q_k||^2 - 2 <X, Q_k> comes from one
        matrix-vector product. A sample whose bound, with the rounding of
        that expansion added, is below the guard by ``_SCREEN_MARGIN`` is
        cleared; the discrepancy of every other sample is computed exactly.
        """
        n = x.shape[1]
        xv = x.ravel()
        xx = float(xv @ xv)
        gram = x.T @ x
        gram.flat[:: n + 1] -= 1.0
        e = float(np.sqrt(np.einsum("ij,ij->", gram, gram)))
        d2 = self.sq_norms - 2.0 * (self.rows @ xv)
        d2 += xx + self._rounding * (xx + self._max_sq_norm)
        # bound < DOMAIN_GUARD - margin, squared; a NaN is not cleared
        limit = max(DOMAIN_GUARD - _SCREEN_MARGIN - e, 0.0)
        near = np.flatnonzero(~(d2 < limit * limit / (1.0 + e)))
        if not near.size:
            return
        m = x.T @ self.stack[near]
        m -= np.eye(n)
        d = np.sqrt(np.einsum("kij,kij->k", m, m))
        far = np.flatnonzero(d >= DOMAIN_GUARD)
        if far.size:
            j = far[0]
            k = int(near[j])
            raise DomainError(
                f"lifting failed at iteration {iteration}, sample {k}: "
                f"orthographic lifting: arguments too far apart (discrepancy "
                f"{d[j]:.3f} >= {DOMAIN_GUARD})",
                iteration=iteration,
                sample_index=k,
            )


def _combined_tangent(
    pair: MapPair,
    point: StiefelPoint,
    cloud: _Cloud,
    weights: np.ndarray,
    iteration: Optional[int],
) -> TangentVector:
    if pair is MapPair.POLAR:
        # Samples are combined in index order into a single accumulator so
        # the result is deterministic regardless of how callers schedule the
        # lifts.
        acc = np.zeros_like(point.X)
        for k, xk in enumerate(cloud.samples.samples):
            try:
                vk = lift(pair, point, xk)
            except DomainError as exc:
                raise DomainError(
                    f"lifting failed at iteration {iteration}, sample {k}: {exc}",
                    iteration=iteration,
                    sample_index=k,
                ) from exc
            acc += weights[k] * vk.V
        acc /= len(cloud.samples)
    else:
        cloud.check_locality(point.X, iteration)
        qbar = cloud.ambient_mean(weights)
        xtq = point.X.T @ qbar
        acc = qbar - point.X @ (0.5 * (xtq + xtq.T))
    # a convex-style combination of tangents at one anchor stays tangent
    return TangentVector._unchecked(point, acc)


def fixed_point_mean(
    samples: SampleSet, config: AveragingConfig, initial: StiefelPoint
) -> AveragingReport:
    """Fixed-point mean of ``samples`` under ``config.pair``.

    Iterates from ``initial`` until the step discrepancy falls below
    ``config.conv_tol`` or ``config.max_iters`` is exhausted. Every iterate
    is a validated Stiefel point. When ``config.weights`` is set, the
    combined tangent is (1/N) sum_k w_k lift(X, X_k) with the weights used
    exactly as supplied; with all weights equal to one the trajectory
    matches the unweighted run bit for bit.
    """
    weights = config.weights
    if (initial.dims.p, initial.dims.n) != (samples.dims.p, samples.dims.n):
        raise ValidationError(
            f"initial guess dims {initial.dims} do not match samples {samples.dims}"
        )
    cloud = _Cloud(samples)
    # static weights are resolved once, so the ambient mean is computed once
    static = None if callable(weights) else _resolve_weights(weights, 0, initial, samples)

    def weights_at(iteration, point):
        if static is not None:
            return static
        return _resolve_weights(weights, iteration, point, samples)

    center = samples.center
    deltas = None if center is None else [discrepancy(initial, center)]
    steps: list = []
    times: list = []
    x = initial
    converged = False
    t0 = time.perf_counter_ns()
    for i in range(config.max_iters):
        vbar = _combined_tangent(config.pair, x, cloud, weights_at(i, x), i)
        x_next = retract(config.pair, x, vbar)
        step = discrepancy(x_next, x)
        steps.append(step)
        times.append(time.perf_counter_ns() - t0)
        if center is not None:
            deltas.append(discrepancy(x_next, center))
        x = x_next
        if step < config.conv_tol:
            converged = True
            break
    wall = (time.perf_counter_ns() - t0) / 1e9

    w = weights_at(len(steps), x)
    residual = _combined_tangent(config.pair, x, cloud, w, None).norm()
    return AveragingReport(
        final_point=x,
        iterations_used=len(steps),
        converged=converged,
        step_sizes=steps,
        iterates_delta_to_center=deltas,
        cumulative_time_ns=times,
        wall_time=wall,
        residual_field_norm=residual,
    )


def weighted_fixed_point_mean(
    samples: SampleSet, config: AveragingConfig, initial: StiefelPoint
) -> AveragingReport:
    """``fixed_point_mean`` that insists on ``config.weights`` being set."""
    if config.weights is None:
        raise ValidationError("weighted_fixed_point_mean needs config.weights")
    return fixed_point_mean(samples, config, initial)

