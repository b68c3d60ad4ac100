"""Points on the circle and on spheres, their point models, and the sampler.

``CirclePoint`` stores a canonical angle and ``SpherePoint`` a unit vector.
A kind's ``_PointModel`` row says how its points are drawn, screened for
duplicates, read as an axis table's argument and checked for width, so
``sample_config`` draws distinct circle points and pairwise non-antipodal
sphere points from a seed in one loop over the rows (``spdkernels gram``).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
    tuple; an axis kind's subclass is its row of ``gram._POINT_CLASSES``.
    ``array`` takes points to one array of their fields, each shaped as
    ``shape`` gives a point on S^m; ``points`` takes it back without the
    classes' validation, for finite angles canonical in [0, 2pi) or finite
    rows of norm 1 within 1e-12; ``jsonable`` gives a point's JSON form
    {field: value}, a tuple written as a list.  ``draw``, ``near``, ``fits``
    serve ``_draw``; ``gaps``, ``distance`` the duplicate screen; ``argument`` the Gram."""

    cls: type
    field: str

    def array(self, points: Sequence, space) -> np.ndarray:
        x = np.array([getattr(p, self.field) for p in points])
        if x.shape[1:] != self.shape(space.m):
            raise ValueError(f"points live on S^{x.shape[1] - 1}, spec wants S^{space.m}")
        return x

    def points(self, values: np.ndarray) -> list:
        points = [object.__new__(self.cls) for _ in range(len(values))]
        for p, value in zip(points, values.tolist() if values.ndim == 1 else map(tuple, values.tolist())):
            object.__setattr__(p, self.field, value)
        return points

    def jsonable(self, point) -> dict:
        return {self.field: getattr(point, self.field)}


class _Angles(_PointModel):
    kind = "circle"

    def shape(self, m: Optional[int]) -> tuple:
        return ()

    def draw(self, rng: np.random.Generator, m: int, count: int) -> np.ndarray:
        # canonical angles, as CirclePoint stores them (a draw may round up to 2pi)
        return np.remainder(rng.uniform(0.0, TWO_PI, size=count), TWO_PI)

    def near(self, accepted: np.ndarray, batch: np.ndarray, min_gap: float) -> bool:
        """Whether some pair of the pooled angles may lie within min_gap.

        Sorted, a pair's difference is at least that of any neighbours between
        them, and its way round the circle at least that of the outermost pair
        (rounding is monotone), so the neighbour differences and the outermost
        pair's gap bound every gap the pointwise test computes from below.
        """
        pool = np.sort(np.concatenate([accepted, batch]))
        span = pool[-1] - pool[0]
        return len(pool) > 1 and not (np.diff(pool).min() > min_gap and min(span, TWO_PI - span) > min_gap)

    def fits(self, accepted: np.ndarray, theta: float, min_gap: float) -> bool:
        return bool(np.all(self.distance(theta, accepted) > min_gap))

    def gaps(self, x: np.ndarray) -> np.ndarray:
        keys = np.sort(x)
        return np.append(np.diff(keys), TWO_PI - (keys[-1] - keys[0]))  # canonical angles: < 2pi apart

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d = np.abs(a - b) % TWO_PI
        return np.minimum(d, TWO_PI - d)

    def argument(self, x: np.ndarray):
        return lambda i, j: np.cos(x[i] - x[j])


class _UnitVectors(_PointModel):
    kind = "sphere"

    def shape(self, m: int) -> tuple:
        return (m + 1,)

    def draw(self, rng: np.random.Generator, m: int, count: int) -> np.ndarray:
        draws = rng.standard_normal((count, m + 1))
        # each row's own dot: bit-equal to np.linalg.norm, as einsum is not;
        # a row of norm below 1e-8 is never divided and stays NaN
        norms = np.array([math.sqrt(r.dot(r)) for r in draws]).reshape(-1, 1)
        return np.divide(draws, norms, out=np.full_like(draws, np.nan), where=norms >= 1e-8)

    def near(self, accepted: np.ndarray, unit: np.ndarray, min_gap: float) -> bool:
        """Whether some candidate may lie within min_gap (times 1 + 1e-9, as in
        ``fits``) of an accepted point, an earlier candidate, or their antipodes.

        For rows normalized as ``draw`` normalizes them, |a -/+ b|^2 is
        2 -/+ 2 a.b within (m + 5) eps, and the computed a.b lies within
        (m + 1) eps of a.b, so ``slack`` keeps every pair that ``math.dist``
        could put within min_gap.  Rows are compared in blocks of about
        CHUNK_PAIRS pairs.
        """
        slack = 16 * unit.shape[1] * np.finfo(float).eps
        bound = 1.0 - ((min_gap * (1.0 + 1e-9)) ** 2 + slack) / 2.0
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

    def fits(self, accepted: np.ndarray, c: np.ndarray, min_gap: float) -> bool:
        # numpy's squared distances only clear the pairs that are farther than
        # min_gap by far more than rounding; math.dist decides the rest
        diff, summ = accepted - c, accepted + c
        squared = np.minimum(np.einsum("ij,ij->i", diff, diff), np.einsum("ij,ij->i", summ, summ))
        near = np.flatnonzero(~(squared > (min_gap * (1.0 + 1e-9)) ** 2))  # a NaN gap leaves every pair near
        cand = tuple(c)
        return all(math.dist(cand, a) > min_gap and math.dist(cand, -a) > min_gap for a in accepted[near])

    def gaps(self, x: np.ndarray) -> np.ndarray:
        return np.diff(np.sort(x[:, 0]))

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.linalg.norm(a - b, axis=-1)

    def argument(self, x: np.ndarray) -> np.ndarray:
        # one matrix product, since a per-pair sum may round differently
        s = x @ x.T
        np.clip(s, -1.0, 1.0, out=s)
        return s


def sample_config(
    m: int, n_circle: int, n_sphere: int, seed: int
) -> tuple[list[CirclePoint], list[SpherePoint]]:
    """Deterministic rejection sampling of circle points and sphere points on
    S^m, each pair farther apart than ``_SAMPLING_GAP``: in angle mod 2pi on
    the circle, in distance to the point and to its antipode on the sphere.

    ``_draw`` runs the circle row, then the sphere row, on one generator;
    one DEBUG line tallies their rejected candidates, batches drawn, and
    batches decided candidate by candidate.
    """
    if m < 2:
        raise ValueError(f"invalid dimension m={m}: need m >= 2")
    if n_circle < 0 or n_sphere < 0:
        raise ValueError("point counts must be >= 0")
    rng, tally = np.random.default_rng(seed), Counter()
    rows = ((_Angles(CirclePoint, "theta"), n_circle), (_UnitVectors(SpherePoint, "coords"), n_sphere))
    points = tuple(_draw(model, rng, m, n, tally) for model, n in rows)
    logger.debug(
        "sample_config(seed=%s) used %d resamples, %d batches, %d pointwise",
        seed, tally["resamples"], tally["batches"], tally["pointwise"],
    )
    return points


def _draw(model: _PointModel, rng: np.random.Generator, m: int, n: int, tally: Counter) -> list:
    """n of the row's points, each pair farther apart than _SAMPLING_GAP.

    Candidates are drawn a batch at a time, as many as points are still
    missing, which consumes the generator exactly as drawing them one by
    one does.  A batch the row's screen clears against itself and the
    accepted points is accepted whole; any other is decided candidate by
    candidate with the row's one-candidate test, so the accepted points,
    resample counts and errors are those of sampling one at a time.  A
    NaN candidate, a draw the row could not make, is resampled without the
    limit check.
    """
    points = np.empty((n, *model.shape(m)))
    count, min_gap = 0, _SAMPLING_GAP
    while count < n:
        batch = model.draw(rng, m, n - count)
        tally["batches"] += 1
        if not np.isnan(batch).any() and not model.near(points[:count], batch, min_gap):
            points[count:] = batch
            break
        tally["pointwise"] += 1
        for cand in batch:
            drawn = not np.isnan(cand).any()
            if drawn and model.fits(points[:count], cand, min_gap):
                points[count] = cand
                count += 1
            else:
                tally["resamples"] += 1
                if drawn and tally["resamples"] > _MAX_RESAMPLES:
                    raise SamplingError(f"{model.kind} sampling failed after {_MAX_RESAMPLES} resamples")
    return model.points(points)
