"""Stiefel manifold types, validation, discrepancy, and random sampling.

The compact Stiefel manifold St(p, n) is the set of p x n real matrices with
orthonormal columns (X^T X = I_n). Its tangent space at X consists of the
p x n matrices V with X^T V + V^T X = 0.

Randomness contract: every sampling routine takes a nonnegative integer seed
and draws from ``numpy.random.default_rng(seed)``, i.e. a PCG64 generator with
normal variates from ``Generator.standard_normal``. Given the same seed,
outputs are bit-identical across runs; seeds are recorded in every artifact
this package writes, and ``derive_seed`` derives the nested ones. Sampling
a cloud of two chunks or more (``SAMPLE_CHUNK_BYTES``) on a process that
may use two CPUs draws each next chunk on one worker thread while the
calling thread applies the rotations of the last one; the thread ends with
the call, and the bits are those of drawing and applying each chunk in
turn on one thread.

Input is checked once, where it enters (a point, a tangent vector, a sample
set, an averaging config, weights, a file header), by rules written once,
here: ``_check_int`` and ``_check_real``, which return a Python ``int`` or
``float`` for the frozen types to store, so no NumPy scalar reaches a file
or a CSV; ``_check_type``, ``_check_same_dims`` and ``_check_stiefel``, the
point check of an array or stack. Matrix arguments follow
``kernels._check_matrix``. A broken rule is a ``ValidationError`` that
names the argument.
"""

from __future__ import annotations

import math
import numbers
import os
import reprlib
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ValidationError
from .kernels import (
    _check_matrix,
    _frobenius,
    _real_array,
    _skew_expm_action,
    # unused since sampling applies skew_expm_action; perfbench/tracer.py
    # rebinds manifold.skew_expm by name, so it stays bound
    skew_expm,  # noqa: F401
    thin_qr_q_factor,
)

# Construction tolerances. Looser than the 1e-12 kernel accuracies on purpose:
# they must absorb rounding accumulated over long fixed-point iterations.
TOL_ORTH = 1e-9
TOL_TAN = 1e-9

# generate_samples draws its p x p generators in chunks of about this many
# bytes, so its working memory stays bounded for any sample count: one
# generator buffer and one draws buffer, two when a worker thread draws the
# next chunk while this one is applied, each this size, and the action's
# p x n buffers for the chunk being applied.
SAMPLE_CHUNK_BYTES = 1 << 20


def _check_int(value, name: str, minimum: int = 0) -> int:
    """``value`` as an ``int``, if a Python or NumPy integer, not a bool, >= ``minimum``."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not (integer and value >= minimum):
        what = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValidationError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _check_real(value, name: str, positive: bool = False) -> float:
    """``value`` as a ``float``, if a finite real, not a bool, >= 0 (> 0 if ``positive``)."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        finite = False
    if not (finite and (value > 0 if positive else value >= 0)):
        what = "positive" if positive else "nonnegative"
        raise ValidationError(f"{name} must be finite and {what}, got {reprlib.repr(value)}")
    return float(value)


def _check_type(value, kind: type, name: str):
    """``value``, if an instance of ``kind``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")
    return value


def _check_same_dims(a, b) -> None:
    if a.dims != b.dims:
        raise ValidationError(f"dimension mismatch: {a.dims} vs {b.dims}")


def _check_points(x, y, names=("x", "y")) -> None:
    """Check that ``x`` and ``y`` are ``StiefelPoint``s of one St(p, n)."""
    _check_same_dims(_check_type(x, StiefelPoint, names[0]),
                     _check_type(y, StiefelPoint, names[1]))


@dataclass(frozen=True)
class Dims:
    """Dimensions (p, n) of St(p, n); requires 1 <= n <= p."""

    p: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "p", _check_int(self.p, "p", 1))
        object.__setattr__(self, "n", _check_int(self.n, "n", 1))
        if self.n > self.p:
            raise ValidationError(f"need 1 <= n <= p, got ({self.p}, {self.n})")


def orthonormality_defect(x) -> float:
    """Frobenius norm of X^T X - I, of a C-ordered copy of X when X is not
    C-ordered: the bits ``StiefelPoint`` and ``SampleSet`` check."""
    x = _check_matrix(x, "X", shape=None)
    with np.errstate(over="ignore"):  # a defect past the largest float is inf
        return _gap_to_identity(x, x)


def _gap_to_identity(x: np.ndarray, y: np.ndarray) -> float:
    # ||X^T Y - I||_F, equal bit for bit to np.linalg.norm(np.eye(n) - X^T Y):
    # the identity is subtracted in place and a sign does not change a square
    m = x.T @ y
    m.flat[:: m.shape[0] + 1] -= 1.0
    return _frobenius(m)


def _gaps_to_identity(m: np.ndarray) -> np.ndarray:
    # ||M_k - I||_F of every slice of an (N, n, n) stack, each the bits
    # _frobenius gives of one slice: a batch of vector-vector products is
    # the dot product it takes
    rows = (m - np.eye(m.shape[-1])).reshape(len(m), 1, -1)
    return np.sqrt(rows @ np.swapaxes(rows, 1, 2)).ravel()


def _orthonormality_defects(stack: np.ndarray) -> np.ndarray:
    # the defect of every slice of an (N, p, n) stack, each the bits
    # orthonormality_defect gives, inf or NaN where huge entries overflow
    with np.errstate(over="ignore", invalid="ignore"):
        return _gaps_to_identity(np.swapaxes(stack, 1, 2) @ stack)


def _checked_defect(x: np.ndarray, sample_index=None) -> float:
    """Orthonormality defect of a p x n array that must be a Stiefel point;
    raises the ``ValidationError`` ``StiefelPoint(x)`` would, "X must be
    finite" where the matrix rule would reject its entries, located at
    ``sample_index``."""
    defect = _gap_to_identity(x, x)
    if not defect < TOL_ORTH:
        if not np.all(np.isfinite(x)):
            raise ValidationError("X must be finite", sample_index=sample_index)
        raise ValidationError(f"orthonormality defect {defect:.3e} >= {TOL_ORTH:.1e}",
                              defect=defect, sample_index=sample_index)
    return defect


def _check_stiefel(x: np.ndarray) -> None:
    """Raise ``_checked_defect``'s error for a p x n array that is not a Stiefel
    point, or, with k in ``sample_index``, for the first such slice k of a
    stack; entries too large for X^T X give a defect of inf or NaN, which fails."""
    with np.errstate(over="ignore", invalid="ignore"):
        if x.ndim == 2:
            _checked_defect(x)
            return
        for k in np.flatnonzero(~(_orthonormality_defects(x) < TOL_ORTH)):
            _checked_defect(x[k], int(k))


def tangency_defect(x, v) -> float:
    """Frobenius norm of X^T V + V^T X."""
    x = _check_matrix(x, "X", shape=None)
    xtv = x.T @ _check_matrix(v, "V", shape=x.shape)
    return float(np.linalg.norm(xtv + xtv.T))


class StiefelPoint:
    """A point on St(p, n): a p x n matrix with orthonormal columns.

    Construction checks X by the matrix rule, then its orthonormality defect
    against ``TOL_ORTH``; rejected input reports the defect. The shape of
    the array is its ``dims``. The wrapped array is treated as read-only.
    """

    __slots__ = ("dims", "X")

    def __init__(self, x):
        # the matrix rule runs once, in orthonormality_defect, called by its
        # module name: perfbench/tracer.py counts validation there
        defect = orthonormality_defect(x)
        x = _real_array(x)  # the rule's conversion, a no-op on a C-ordered float array
        object.__setattr__(self, "dims", Dims(*x.shape))
        if not defect < TOL_ORTH:
            _check_stiefel(x)  # raises the message
        object.__setattr__(self, "X", x)

    @classmethod
    def _unchecked(cls, x: np.ndarray, dims: Dims) -> "StiefelPoint":
        # Internal fast path for the rows of a SampleSet's validated stack
        # and for averaging iterates that passed _checked_defect.
        out = object.__new__(cls)
        object.__setattr__(out, "dims", dims)
        object.__setattr__(out, "X", x)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("StiefelPoint is immutable")

    def __array__(self, dtype=None, copy=None):
        # lets NumPy read a point, or a sequence of points, as its array;
        # NumPy 1.x passes no copy, and its np.array rejects copy=None
        return np.array(self.X, dtype=dtype) if copy else np.asarray(self.X, dtype=dtype)

    def __repr__(self):
        return f"StiefelPoint(St({self.dims.p},{self.dims.n}))"


class TangentVector:
    """A tangent vector at a Stiefel point: a finite V of the anchor's shape
    with X^T V + V^T X = 0 within ``TOL_TAN``."""

    __slots__ = ("anchor", "V")

    def __init__(self, anchor: StiefelPoint, v):
        defect = tangency_defect(_check_type(anchor, StiefelPoint, "anchor").X, v)
        v = _real_array(v)  # the conversion tangency_defect checked
        if not defect < TOL_TAN:  # an overflow to inf or NaN fails too
            raise ValidationError(
                f"tangency defect {defect:.3e} >= {TOL_TAN:.1e}", defect=defect
            )
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "V", v)

    @classmethod
    def _unchecked(cls, anchor: StiefelPoint, v: np.ndarray) -> "TangentVector":
        # Internal fast path for the public liftings, whose solve or
        # construction already bounds the tangency defect that the re-check,
        # a full p x n^2 product, would measure.
        out = object.__new__(cls)
        object.__setattr__(out, "anchor", anchor)
        object.__setattr__(out, "V", v)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TangentVector is immutable")

    def norm(self) -> float:
        return float(np.linalg.norm(self.V))

    def __repr__(self):
        d = self.anchor.dims
        return f"TangentVector(St({d.p},{d.n}), |V|={self.norm():.3e})"


@dataclass(frozen=True, eq=False)
class SampleSet:
    """An ordered collection of Stiefel points with its generation metadata.

    ``stack`` is converted once, by one NumPy call, into a read-only
    C-ordered (N, p, n) array and validated there in one batch. Anything
    NumPy reads as N p x n blocks will do: one (N, p, n) array, a sequence
    of p x n arrays, or a sequence of ``StiefelPoint``s.

    ``center`` is the point the samples were scattered around when known
    (``None`` for sets loaded from files that omit it). ``seed`` is the
    nonnegative integer that reproduces the set through ``generate_samples``.
    """

    dims: Dims
    center: Optional[StiefelPoint]
    sigma: float
    seed: int
    stack: np.ndarray

    def __post_init__(self):
        _check_type(self.dims, Dims, "dims")
        try:
            count = len(self.stack)
        except TypeError:  # not a sequence, or a 0-d array
            raise ValidationError(
                f"stack must be a sequence of samples, got {type(self.stack).__name__}"
            ) from None
        if count < 1:
            raise ValidationError("a sample set needs at least one sample")
        object.__setattr__(self, "sigma", _check_real(self.sigma, "sigma"))
        object.__setattr__(self, "seed", _check_int(self.seed, "seed"))
        if self.center is not None:
            _check_same_dims(_check_type(self.center, StiefelPoint, "center"), self)
        p, n = self.dims.p, self.dims.n
        error = None
        try:
            stack = _real_array(self.stack, copy=True)
        except (TypeError, ValueError) as exc:
            stack, error = None, exc  # ragged, or not real numbers: told apart below
        if stack is None or stack.shape[1:] != (p, n):
            for k, x in enumerate(self.stack):
                if np.shape(x) != (p, n):
                    raise ValidationError(
                        f"shape {np.shape(x)}, expected {(p, n)}", sample_index=k
                    ) from error
            raise ValidationError("samples must be real numbers") from error
        _check_stiefel(stack)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)

    @cached_property
    def samples(self) -> tuple:
        """``StiefelPoint`` views of the rows of ``stack``, built on first read."""
        return tuple(StiefelPoint._unchecked(x, self.dims) for x in self.stack)

    def __len__(self) -> int:
        return len(self.stack)


def project_to_tangent(point: StiefelPoint, a) -> TangentVector:
    """Orthogonal-style projection of an ambient p x n matrix onto the
    tangent space at ``point``:

        pi(A) = (I_p - X X^T) A - X skew_part(X^T A) = A - X sym(X^T A),

    evaluated in the right-hand form, with no p x p projector. The projector
    is idempotent and maps X itself (and any X S with S symmetric) to zero.
    """
    x = _check_type(point, StiefelPoint, "point").X
    a = _check_matrix(a, "A", shape=x.shape)
    return TangentVector(point, _project_to_tangent(x, a, x.T @ a))


def _project_to_tangent(x: np.ndarray, a: np.ndarray, xta: np.ndarray) -> np.ndarray:
    # project_to_tangent on arrays, given xta = X^T A; also of every slice of
    # an (N, p, n) stack a with its (N, n, n) stack xta. The orthographic
    # lifting of Q is this projection of Q.
    return a - x @ (0.5 * (xta + xta.swapaxes(-1, -2)))


def discrepancy(x: StiefelPoint, y: StiefelPoint) -> float:
    """Discrepancy delta(X, Y) = ||I_n - X^T Y||_F.

    Zero exactly when X^T Y = I; symmetric in its arguments because the
    Frobenius norm is invariant under transposition. The identity inside the
    norm is n x n (the size of X^T Y).
    """
    _check_points(x, y)
    return _gap_to_identity(x.X, y.X)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _rotate(x: np.ndarray, scale: float, count: int, rng) -> np.ndarray:
    """(count, p, n) stack of exp(scale * skew_part(A_k)) @ x, drawn from
    ``rng`` as ``generate_samples`` describes, for a checked x: the
    generators are skew by construction.

    When the stack spans two chunks or more and the process may use two
    CPUs, one worker thread draws chunk i + 1 while this thread applies
    chunk i; the draw releases the interpreter lock for its whole length,
    so the two overlap. The draws are the same either way, in the same
    order, into a second buffer, and every chunk is applied here in turn,
    so the bits, the error state and the first failing sample's error are
    those of the one-thread loop. This thread waits for a draw by yielding
    its CPU, not by sleeping on a lock, and the worker is told to end after
    the last draw, so it is gone, not waited for, once the last chunk is
    applied: on a 2-vCPU virtual machine the averaging timed after a
    generation whose calling thread slept ran up to 50 % slower."""
    p = x.shape[0]
    chunk = max(1, min(count, SAMPLE_CHUNK_BYTES // (8 * p * p)))
    starts = range(0, count, chunk)
    overlap = len(starts) > 1 and _usable_cpus() > 1 and hasattr(os, "sched_yield")
    draws = [np.empty((chunk, p, p)) for _ in range(1 + overlap)]
    omega = np.empty_like(draws[0])
    out = np.empty((count,) + x.shape)

    def draw(i: int) -> np.ndarray:
        a = draws[i % len(draws)][:min(chunk, count - starts[i])]
        rng.standard_normal(out=a)
        return a

    worker = None
    if overlap:
        from concurrent.futures import ThreadPoolExecutor
        worker = ThreadPoolExecutor(max_workers=1)
    with worker or nullcontext():
        a = draw(0)
        for i, start in enumerate(starts):
            more = i + 1 < len(starts)
            if worker is not None and more:
                drawn = worker.submit(draw, i + 1)  # into the buffer not read below
                if i + 2 == len(starts):
                    worker.shutdown(wait=False)
            w = omega[:len(a)]
            # (scale / 2)(A^T - A) is the same bits as scale * skew_part(A)
            np.subtract(np.swapaxes(a, 1, 2), a, out=w)
            with np.errstate(over="ignore"):  # a generator is inf past about 1e307
                w *= 0.5 * scale
            out[start:start + len(a)] = _skew_expm_action(w, x, start)
            if more and worker is None:
                a = draw(i + 1)
            elif more:
                while not drawn.done():
                    os.sched_yield()
                a = drawn.result()
    return out


def generate_center(dims: Dims, seed: int) -> StiefelPoint:
    """Random point on St(p, n): the Q-factor of a thin QR decomposition of a
    p x n matrix with independent standard-normal entries.

    Deterministic for a fixed seed, which must be a nonnegative integer.
    """
    _check_type(dims, Dims, "dims")
    rng = np.random.default_rng(_check_int(seed, "seed"))
    return StiefelPoint(thin_qr_q_factor(rng.standard_normal((dims.p, dims.n))))


def generate_samples(
    center: StiefelPoint, sigma: float, n_samples: int, seed: int
) -> SampleSet:
    """Scatter ``n_samples`` points around ``center`` by random rotations.

    Sample k is ``exp(sigma * skew_part(A_k)) @ C`` where each A_k is an
    independent p x p standard-normal draw; ``sigma`` scales the spread.
    Draws are consumed in sample order from a fresh ``default_rng(seed)``,
    so the set is bit-identical across runs for a fixed seed. They are made
    in chunks of about ``SAMPLE_CHUNK_BYTES``, and ``skew_expm_action``
    applies each chunk's rotations to C without forming a p x p exponential,
    so memory stays bounded in ``n_samples`` (about three chunks in flight)
    and the first k samples are those of the k-sample set. When there are
    two chunks or more and the process may use two CPUs, a worker thread
    that lives only for this call draws chunk i + 1 while chunk i is
    applied; the bits are the same as with one thread, or one CPU.
    Samples agree with ``skew_expm(...) @ C`` to rounding, and are those
    bits where a rotation is large enough for the action to fall back to
    ``skew_expm``. A rotation that is not finite (sigma past about 1e16 to
    1e20) is a ``DomainError`` that names the first such sample by its
    index in the set.
    """
    _check_type(center, StiefelPoint, "center")
    sigma = _check_real(sigma, "sigma")
    n_samples = _check_int(n_samples, "n_samples", 1)
    seed = _check_int(seed, "seed")
    stack = _rotate(center.X, sigma, n_samples, np.random.default_rng(seed))
    return SampleSet(dims=center.dims, center=center, sigma=sigma, seed=seed, stack=stack)


def perturb_initial_guess(x1, epsilon: float, seed: int) -> StiefelPoint:
    """Slightly rotate the p x n array ``x1`` (a ``StiefelPoint`` will do) by
    exp(epsilon * skew_part(A)) with A a fresh standard-normal p x p draw,
    applied, errors too, as ``generate_samples`` applies its rotations. One
    draw is one chunk, so it is drawn on the calling thread, with no
    worker. Used to produce the starting point of the fixed-point iteration
    from the first sample."""
    x1 = _check_matrix(x1, "x1", shape=None)
    epsilon = _check_real(epsilon, "epsilon", positive=True)
    rng = np.random.default_rng(_check_int(seed, "seed"))
    return StiefelPoint(_rotate(x1, epsilon, 1, rng)[0])


def derive_seed(base_seed: int, *path: int) -> int:
    """Deterministic child seed for nested experiment structure.

    Uses ``numpy.random.SeedSequence(base_seed, spawn_key=path)`` so distinct
    paths give statistically independent streams while remaining reproducible
    from the base seed alone. The seed and the path entries must be
    nonnegative integers.
    """
    base_seed = _check_int(base_seed, "seed")
    path = tuple(_check_int(i, "seed path entry") for i in path)
    ss = np.random.SeedSequence(base_seed, spawn_key=path)
    return int(ss.generate_state(1, np.uint64)[0])
