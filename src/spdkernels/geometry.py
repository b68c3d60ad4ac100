"""Points on the circle and on spheres, and the sampler of point configurations.

``CirclePoint`` stores a canonical angle and ``SpherePoint`` a unit vector;
``sample_config`` draws distinct circle points and pairwise non-antipodal
sphere points from a seed, the points of ``spdkernels gram``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import SamplingError
from .kernels import CHUNK_PAIRS

__all__ = [
    "CirclePoint",
    "SpherePoint",
    "sample_config",
]

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
_SAMPLING_GAP = 1e-9
_MAX_RESAMPLES = 1000


@dataclass(frozen=True)
class CirclePoint:
    """A point on the unit circle, stored as an angle canonicalized to [0, 2pi)."""

    theta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError("angle must be finite")
        object.__setattr__(self, "theta", float(self.theta) % TWO_PI)


@dataclass(frozen=True)
class SpherePoint:
    """A unit vector in R^(m+1); the norm must already be 1 within 1e-12."""

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) < 3:
            raise ValueError("sphere points need at least 3 coordinates (m >= 2)")
        norm = math.sqrt(sum(c * c for c in self.coords))
        if not math.isfinite(norm):
            raise ValueError("sphere point coordinates must be finite")
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"sphere point norm {norm} deviates from 1 beyond 1e-12")


class _PointModel(NamedTuple):
    """A point class and its coordinate field, an angle or a coordinate
    tuple (``gram._POINT_CLASSES`` holds each axis kind's).  ``array`` takes
    points to one array of their fields; ``points`` takes it back without
    the classes' validation, for finite angles canonical in [0, 2pi) or
    finite rows of norm 1 within 1e-12; ``jsonable`` gives a point's JSON
    form {field: value}, a tuple written as a list."""

    cls: type
    field: str

    def array(self, points: Sequence) -> np.ndarray:
        return np.array([getattr(p, self.field) for p in points])

    def points(self, values: np.ndarray) -> list:
        points = [object.__new__(self.cls) for _ in range(len(values))]
        for p, value in zip(points, values.tolist() if values.ndim == 1 else map(tuple, values.tolist())):
            object.__setattr__(p, self.field, value)
        return points

    def jsonable(self, point) -> dict:
        return {self.field: getattr(point, self.field)}


@dataclass
class _Tally:
    """The sampler's work: rejected candidates, batches drawn, and batches
    decided candidate by candidate."""

    resamples: int = 0
    batches: int = 0
    pointwise: int = 0

    def reject(self, what: str) -> None:
        self.resamples += 1
        if self.resamples > _MAX_RESAMPLES:
            raise SamplingError(f"{what} sampling failed after {_MAX_RESAMPLES} resamples")


def sample_config(
    m: int, n_circle: int, n_sphere: int, seed: int
) -> tuple[list[CirclePoint], list[SpherePoint]]:
    """Deterministic rejection sampling of circle points and sphere points on
    S^m, each pair farther apart than ``_SAMPLING_GAP``: in angle mod 2pi on
    the circle, in distance to the point and to its antipode on the sphere.

    Candidates are drawn a batch at a time, as many as points are still
    missing, which consumes the generator exactly as drawing them one by
    one does.  A batch is screened against itself and the accepted points
    in one numpy pass; when the screen clears every pair, the whole batch is
    accepted.  Otherwise the batch is decided candidate by candidate with
    the pointwise angle and ``math.dist`` tests, so the accepted points,
    resample counts and errors are those of sampling one candidate at a
    time.
    """
    if m < 2:
        raise ValueError(f"invalid dimension m={m}: need m >= 2")
    if n_circle < 0 or n_sphere < 0:
        raise ValueError("point counts must be >= 0")
    min_gap = _SAMPLING_GAP
    rng = np.random.default_rng(seed)
    tally = _Tally()
    thetas = _sample_circle(rng, n_circle, min_gap, tally)
    coords = _sample_sphere(rng, m, n_sphere, min_gap, tally)
    logger.debug(
        "sample_config(seed=%s) used %d resamples, %d batches, %d pointwise",
        seed, tally.resamples, tally.batches, tally.pointwise,
    )
    return _PointModel(CirclePoint, "theta").points(thetas), _PointModel(SpherePoint, "coords").points(coords)


def _sample_circle(rng: np.random.Generator, n: int, min_gap: float, tally: _Tally) -> np.ndarray:
    thetas = np.empty(n)
    count = 0
    while count < n:
        # canonical angles, as CirclePoint stores them (a draw may round up to 2pi)
        batch = np.remainder(rng.uniform(0.0, TWO_PI, size=n - count), TWO_PI)
        tally.batches += 1
        if not _circle_batch_near(thetas[:count], batch, min_gap):
            thetas[count:] = batch
            break
        tally.pointwise += 1
        for theta in batch.tolist():
            d = np.abs(theta - thetas[:count]) % TWO_PI
            if np.all(np.minimum(d, TWO_PI - d) > min_gap):
                thetas[count] = theta
                count += 1
            else:
                tally.reject("circle")
    return thetas


def _circle_batch_near(accepted: np.ndarray, batch: np.ndarray, min_gap: float) -> bool:
    """Whether some pair of the pooled angles may lie within min_gap.

    Sorted, a pair's difference is at least that of any neighbours between
    them, and its way round the circle at least that of the outermost pair
    (rounding is monotone), so the neighbour differences and the outermost
    pair's gap bound every gap the pointwise test computes from below.
    """
    pool = np.sort(np.concatenate([accepted, batch]))
    if len(pool) < 2:
        return False
    span = pool[-1] - pool[0]
    return not (np.diff(pool).min() > min_gap and min(span, TWO_PI - span) > min_gap)


def _sample_sphere(rng: np.random.Generator, m: int, n: int, min_gap: float, tally: _Tally) -> np.ndarray:
    coords = np.empty((n, m + 1))
    count = 0
    # numpy's squared distances only clear the pairs that are farther than
    # min_gap by far more than rounding; math.dist decides the rest
    clear = (min_gap * (1.0 + 1e-9)) ** 2
    while count < n:
        draws = rng.standard_normal((n - count, m + 1))
        tally.batches += 1
        # each row's own dot: bit-equal to np.linalg.norm, as einsum is not
        norms = [math.sqrt(r.dot(r)) for r in draws]
        if min(norms) >= 1e-8:
            unit = draws / np.array(norms)[:, None]
            if not _sphere_batch_near(coords[:count], unit, clear):
                coords[count:] = unit
                break
        tally.pointwise += 1
        for vec, norm in zip(draws, norms):
            if norm < 1e-8:
                tally.resamples += 1
                continue
            c = vec / norm
            accepted = coords[:count]
            diff, summ = accepted - c, accepted + c
            squared = np.minimum(np.einsum("ij,ij->i", diff, diff), np.einsum("ij,ij->i", summ, summ))
            near = np.flatnonzero(~(squared > clear))  # a NaN gap leaves every pair near
            cand = tuple(c)
            if all(
                math.dist(cand, accepted[i]) > min_gap and math.dist(cand, -accepted[i]) > min_gap
                for i in near
            ):
                coords[count] = c
                count += 1
            else:
                tally.reject("sphere")
    return coords


def _sphere_batch_near(accepted: np.ndarray, unit: np.ndarray, clear: float) -> bool:
    """Whether some candidate may lie within sqrt(clear) of an accepted point,
    of an earlier candidate, or of their antipodes.

    For rows normalized as the sampler normalizes them, |a -/+ b|^2 is
    2 -/+ 2 a.b within (m + 5) eps, and the computed a.b lies within
    (m + 1) eps of a.b, so ``slack`` keeps every pair that ``math.dist``
    could put within min_gap.  Rows are compared in blocks of about
    CHUNK_PAIRS pairs.
    """
    slack = 16 * unit.shape[1] * np.finfo(float).eps
    bound = 1.0 - (clear + slack) / 2.0
    pool = np.concatenate([accepted, unit])
    first = len(accepted)
    rows = max(1, CHUNK_PAIRS // len(pool))
    for lo in range(0, len(unit), rows):
        block = unit[lo : lo + rows]
        if np.any(np.abs(block @ pool[: first + lo].T) >= bound):
            return True
        # the pairs within the block, each twice; a row with itself is no pair
        inner = np.abs(block @ block.T)
        np.fill_diagonal(inner, 0.0)
        if np.any(inner >= bound):
            return True
    return False
