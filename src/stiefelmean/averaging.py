"""Fixed-point empirical mean of Stiefel points under a retraction/lifting pair.

The mean of samples Q_1..Q_N with positive weights w_k (all ones unless
given) is characterized implicitly: it is the point X whose lifted samples
average to zero, equivalently a solution of

    X = retract_X( (1/sum(w)) * sum_k w_k lift_X(Q_k) ),

the weighted quasi-arithmetic (Kolmogoroff-Nagumo) mean, in which only the
weights' ratios matter. ``fixed_point_mean`` retracts along the combined
lifted field until its norm at the current iterate is below ``conv_tol``.

One loop serves every pair: the combined tangent, the stop test, the
retraction, the check of the new iterate and the trace. What depends on the
pair comes from ``maps._iteration``. ``AveragingConfig`` checks its fields,
the weights included, when it is built, and ``fixed_point_mean`` checks its
other inputs at entry. In between, the loop runs on plain (p, n) arrays,
through the unchecked array cores of the maps and kernels that the public
maps also call, so every iterate, step and residual has the bits of a loop
over the public maps. Each retracted iterate gets the orthonormality check
``StiefelPoint`` would make (the same ``ValidationError``), whose bound is
all the locality certificate in ``maps`` assumes of an iterate: the
tangent takes the iterate alone. Only the final point is wrapped.

A ``DomainError`` aborts the run. ``fixed_point_mean`` re-raises it, in one
place, as "lifting failed: " or "retraction failed: " followed by the
message a per-sample loop over the public maps would give, with the
iterate's index in ``iteration`` and, for a lifting, the first failing
sample in ``sample_index``; ``str()`` of the error names both once (see
``errors``). Running past ``max_iters`` is not an error; it is reported
through ``converged=False`` with the full trace.
"""

from __future__ import annotations

import reprlib
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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
)
# ``lift`` and ``retract`` are not called here; perfbench/tracer.py rebinds
# averaging.lift and averaging.retract by name, so they stay bound
from .maps import MapPair, _iteration, lift, retract  # noqa: F401


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
    positive reals with a finite, normal sum, stored as a tuple of floats:
    a config is a value, which later changes to the caller's sequence do
    not reach. The initial guess is the caller's: ``perturb_initial_guess``
    derives one from a sample.
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
        if self.weights is None:
            return
        try:
            w = _real_array(self.weights)
        except (TypeError, ValueError):
            w = None
        if w is None or w.ndim != 1:
            raise ValidationError(
                f"weights must be a sequence of reals, got {reprlib.repr(self.weights)}"
            )
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            k = int(bad[0])
            raise ValidationError(f"weights must be finite and positive, got {w[k]} at index {k}")
        with np.errstate(over="ignore"):  # the rule divides by sum(w)
            total = w.sum()
        if not (np.isfinite(total) and total >= np.finfo(float).tiny):
            raise ValidationError(f"the sum of the weights must be finite and normal, got {total}")
        object.__setattr__(self, "weights", tuple(w.tolist()))


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
    # unweighted runs use all-ones weights: both rules then take the same
    # summation path, and multiplying by 1.0 is exact
    weights = np.ones(len(samples)) if config.weights is None else np.array(config.weights)
    if weights.shape != (len(samples),):
        raise ValidationError(
            f"need one weight per sample ({len(samples)}), got shape {weights.shape}"
        )
    tangent, step_along = _iteration(config.pair, samples.stack, weights)
    center = None if samples.center is None else samples.center.X
    x = initial.X
    deltas = None if center is None else [_gap_to_identity(x, center)]
    steps: list = []
    times: list = []
    t0 = time.perf_counter_ns()
    try:
        for i in range(config.max_iters + 1):
            v = tangent(x)
            residual = _frobenius(v)
            if residual < config.conv_tol or i == config.max_iters:
                break
            x_next = step_along(x, v)
            _checked_defect(x_next)
            steps.append(_gap_to_identity(x_next, x))
            times.append(time.perf_counter_ns() - t0)
            if deltas is not None:
                deltas.append(_gap_to_identity(x_next, center))
            x = x_next
    except DomainError as exc:
        # the tangent names its failing sample, a retraction none
        k = exc.sample_index
        where = "retraction" if k is None else "lifting"
        raise DomainError(f"{where} failed: {exc.args[0]}", iteration=i, sample_index=k) from exc
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
