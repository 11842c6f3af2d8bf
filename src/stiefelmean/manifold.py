"""Stiefel manifold types, validation, discrepancy, and random sampling.

The compact Stiefel manifold St(p, n) is the set of p x n real matrices with
orthonormal columns (X^T X = I_n). Its tangent space at X consists of the
p x n matrices V with X^T V + V^T X = 0.

Randomness contract: every sampling routine takes an integer seed and draws
from ``numpy.random.default_rng(seed)``, i.e. a PCG64 generator with normal
variates from ``Generator.standard_normal``. Given the same seed, outputs are
bit-identical across runs; seeds are recorded in every artifact this package
writes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ValidationError
from .kernels import skew_expm, skew_part, thin_qr_q_factor

# Construction tolerances. Looser than the 1e-12 kernel accuracies on purpose:
# they must absorb rounding accumulated over long fixed-point iterations.
TOL_ORTH = 1e-9
TOL_TAN = 1e-9


@dataclass(frozen=True)
class Dims:
    """Dimensions (p, n) of St(p, n); requires 1 <= n <= p."""

    p: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.n, int)):
            raise ValidationError(f"dimensions must be integers, got ({self.p}, {self.n})")
        if not 1 <= self.n <= self.p:
            raise ValidationError(f"need 1 <= n <= p, got ({self.p}, {self.n})")


def orthonormality_defect(x: np.ndarray) -> float:
    """Frobenius norm of X^T X - I."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x.T @ x - np.eye(x.shape[1])))


def tangency_defect(x: np.ndarray, v: np.ndarray) -> float:
    """Frobenius norm of X^T V + V^T X."""
    xtv = np.asarray(x, dtype=float).T @ np.asarray(v, dtype=float)
    return float(np.linalg.norm(xtv + xtv.T))


class StiefelPoint:
    """A point on St(p, n): a p x n matrix with orthonormal columns.

    Construction validates shape, finiteness and the orthonormality defect
    against ``TOL_ORTH``; rejected input reports the defect. The wrapped
    array is treated as read-only.
    """

    __slots__ = ("dims", "X")

    def __init__(self, x, dims: Optional[Dims] = None):
        x = np.ascontiguousarray(x, dtype=float)
        if x.ndim != 2:
            raise ValidationError(f"a Stiefel point must be a 2-D array, got shape {x.shape}")
        inferred = Dims(int(x.shape[0]), int(x.shape[1]))
        if dims is not None and (dims.p, dims.n) != (inferred.p, inferred.n):
            raise ValidationError(
                f"shape {x.shape} does not match requested dims ({dims.p}, {dims.n})"
            )
        if not np.all(np.isfinite(x)):
            raise ValidationError("entries must be finite")
        defect = orthonormality_defect(x)
        if defect >= TOL_ORTH:
            raise ValidationError(
                f"orthonormality defect {defect:.3e} >= {TOL_ORTH:.1e}", defect=defect
            )
        object.__setattr__(self, "dims", inferred)
        object.__setattr__(self, "X", x)

    def __setattr__(self, name, value):
        raise AttributeError("StiefelPoint is immutable")

    def __repr__(self):
        return f"StiefelPoint(St({self.dims.p},{self.dims.n}))"


class TangentVector:
    """A tangent vector at a Stiefel point: X^T V + V^T X = 0 within ``TOL_TAN``."""

    __slots__ = ("anchor", "V")

    def __init__(self, anchor: StiefelPoint, v):
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape != anchor.X.shape:
            raise ValidationError(
                f"tangent shape {v.shape} does not match anchor shape {anchor.X.shape}"
            )
        defect = tangency_defect(anchor.X, v)
        if defect >= TOL_TAN:
            raise ValidationError(
                f"tangency defect {defect:.3e} >= {TOL_TAN:.1e}", defect=defect
            )
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "V", v)

    @classmethod
    def _unchecked(cls, anchor: StiefelPoint, v: np.ndarray) -> "TangentVector":
        # Internal fast path for vectors whose tangency is already guaranteed
        # (lifting residual checks, or sums of tangents at one anchor). The
        # defect re-check costs a full p x n^2 product, which would otherwise
        # dominate the averaging loop's per-sample cost.
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


@dataclass(frozen=True)
class SampleSet:
    """An ordered collection of Stiefel points with its generation metadata.

    ``center`` is the point the samples were scattered around when known
    (``None`` for sets loaded from files that omit it). ``seed`` is the
    64-bit integer that reproduces the set through ``generate_samples``.
    """

    dims: Dims
    center: Optional[StiefelPoint]
    sigma: float
    seed: int
    samples: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if len(self.samples) < 1:
            raise ValidationError("a sample set needs at least one sample")
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValidationError(f"sigma must be finite and nonnegative, got {self.sigma}")
        for k, s in enumerate(self.samples):
            if (s.dims.p, s.dims.n) != (self.dims.p, self.dims.n):
                raise ValidationError(f"sample {k} has dims {s.dims}, expected {self.dims}")
        if self.center is not None and (self.center.dims.p, self.center.dims.n) != (
            self.dims.p,
            self.dims.n,
        ):
            raise ValidationError("center dims do not match the sample set dims")

    def __len__(self) -> int:
        return len(self.samples)


def validate_point(x, dims: Optional[Dims] = None) -> StiefelPoint:
    """Wrap a matrix as a StiefelPoint, rejecting it if the orthonormality
    defect is ``TOL_ORTH`` or larger. The raised ``ValidationError`` carries
    the measured defect."""
    return StiefelPoint(x, dims=dims)


def project_to_tangent(point: StiefelPoint, a) -> TangentVector:
    """Orthogonal-style projection of an ambient p x n matrix onto the
    tangent space at ``point``:

        pi(A) = (I_p - X X^T) A - X skew_part(X^T A)

    with ``skew_part(M) = (M^T - M) / 2``. The projector is idempotent and
    maps X itself (and any X S with S symmetric) to zero.
    """
    x = point.X
    a = np.asarray(a, dtype=float)
    if a.shape != x.shape:
        raise ValidationError(f"shape {a.shape} does not match point shape {x.shape}")
    p = x.shape[0]
    v = (np.eye(p) - x @ x.T) @ a - x @ skew_part(x.T @ a)
    return TangentVector(point, v)


def discrepancy(x: StiefelPoint, y: StiefelPoint) -> float:
    """Discrepancy delta(X, Y) = ||I_n - X^T Y||_F.

    Zero exactly when X^T Y = I; symmetric in its arguments because the
    Frobenius norm is invariant under transposition. The identity inside the
    norm is n x n (the size of X^T Y).
    """
    if (x.dims.p, x.dims.n) != (y.dims.p, y.dims.n):
        raise ValidationError(f"dimension mismatch: {x.dims} vs {y.dims}")
    return float(np.linalg.norm(np.eye(x.dims.n) - x.X.T @ y.X))


def generate_center(dims: Dims, seed: int) -> StiefelPoint:
    """Random point on St(p, n): the Q-factor of a thin QR decomposition of a
    p x n matrix with independent standard-normal entries.

    Deterministic for a fixed seed. Rank deficiency has probability zero;
    if it does occur numerically the draw is retried once, then the error
    propagates.
    """
    rng = np.random.default_rng(seed)
    for attempt in range(2):
        a = rng.standard_normal((dims.p, dims.n))
        try:
            return StiefelPoint(thin_qr_q_factor(a), dims=dims)
        except ValidationError:
            if attempt == 1:
                raise
    raise AssertionError("unreachable")


def generate_samples(
    center: StiefelPoint, sigma: float, n_samples: int, seed: int
) -> SampleSet:
    """Scatter ``n_samples`` points around ``center`` by random rotations.

    Sample k is ``exp(sigma * skew_part(A_k)) @ C`` where each A_k is an
    independent p x p standard-normal draw; ``sigma`` scales the spread.
    Draws are consumed in sample order from a fresh ``default_rng(seed)``,
    so the set is bit-identical across runs for a fixed seed.
    """
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise ValidationError(f"sigma must be finite and nonnegative, got {sigma}")
    if n_samples < 1:
        raise ValidationError(f"need at least one sample, got {n_samples}")
    rng = np.random.default_rng(seed)
    p = center.dims.p
    samples = []
    for _ in range(n_samples):
        a = rng.standard_normal((p, p))
        rotation = skew_expm(skew_part(a), sigma)
        samples.append(StiefelPoint(rotation @ center.X, dims=center.dims))
    return SampleSet(
        dims=center.dims, center=center, sigma=float(sigma), seed=int(seed),
        samples=tuple(samples),
    )


def perturb_initial_guess(x1: StiefelPoint, epsilon: float, seed: int) -> StiefelPoint:
    """Slightly rotate ``x1`` by exp(epsilon * skew_part(A)) with A a fresh
    standard-normal p x p draw. Used to produce the starting point of the
    fixed-point iteration from the first sample."""
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValidationError(f"epsilon must be finite and positive, got {epsilon}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((x1.dims.p, x1.dims.p))
    rotation = skew_expm(skew_part(a), epsilon)
    return StiefelPoint(rotation @ x1.X, dims=x1.dims)


def derive_seed(base_seed: int, *path: int) -> int:
    """Deterministic child seed for nested experiment structure.

    Uses ``numpy.random.SeedSequence(base_seed, spawn_key=path)`` so distinct
    paths give statistically independent streams while remaining reproducible
    from the base seed alone.
    """
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(int(i) for i in path))
    return int(ss.generate_state(1, np.uint64)[0])
