"""Point configurations on circles and spheres, and real harmonics on S^2.

An "enhanced" configuration doubles a p x q grid of (circle, sphere) pairs
with the antipodes of the sphere points: the 2pq product points are ordered
z-block by z-block with the circle index moving fastest, all plain blocks
first, then all antipodal blocks in the same order.  This ordering is what
gives the Gram matrices of such sets their 2 x 2 block structure.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SamplingError
from .kernels import CHUNK_PAIRS

__all__ = [
    "CirclePoint",
    "SpherePoint",
    "EnhancedSet",
    "build_enhanced",
    "sample_config",
    "sph_basis_s2",
    "S2HarmonicBasis",
    "s2_quadrature",
]

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
_DISTINCT_TOL = 1e-12
_ANTIPODAL_TOL = 1e-9
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

    @property
    def coords(self) -> tuple[float, float]:
        return (math.cos(self.theta), math.sin(self.theta))

    def dot(self, other: "CirclePoint") -> float:
        return math.cos(self.theta - other.theta)

    def gap(self, other: "CirclePoint") -> float:
        """Angular distance mod 2pi."""
        d = abs(self.theta - other.theta) % TWO_PI
        return min(d, TWO_PI - d)


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

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "SpherePoint":
        arr = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm):
            raise ValueError("sphere point coordinates must be finite")
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(tuple(arr / norm))

    @property
    def dim(self) -> int:
        """The sphere dimension m (ambient dimension minus one)."""
        return len(self.coords) - 1

    def dot(self, other: "SpherePoint") -> float:
        return sum(a * b for a, b in zip(self.coords, other.coords))

    def antipode(self) -> "SpherePoint":
        return SpherePoint(tuple(-c for c in self.coords))


ProductPoint = tuple[CirclePoint, SpherePoint]


@dataclass(frozen=True)
class EnhancedSet:
    """The ordered 2pq product points built from p circle and q sphere points."""

    xs: tuple[CirclePoint, ...]
    zs: tuple[SpherePoint, ...]
    points: tuple[ProductPoint, ...]

    @property
    def p(self) -> int:
        return len(self.xs)

    @property
    def q(self) -> int:
        return len(self.zs)


def _trusted_circle_points(thetas: list[float]) -> list[CirclePoint]:
    """``CirclePoint(t)`` for each angle, without re-running the validation.

    For the sampler's output; the caller guarantees finite Python floats
    already canonical in [0, 2pi).
    """
    out = []
    for theta in thetas:
        x = object.__new__(CirclePoint)
        object.__setattr__(x, "theta", theta)
        out.append(x)
    return out


def _trusted_sphere_points(coords: np.ndarray) -> list[SpherePoint]:
    """``SpherePoint(tuple(row))`` for each row, without re-summing the norms.

    For the sampler's output; the caller guarantees rows normalized as
    ``SpherePoint.from_vector`` normalizes them.
    """
    out = []
    for row in coords.tolist():
        z = object.__new__(SpherePoint)
        object.__setattr__(z, "coords", tuple(row))
        out.append(z)
    return out


def _check_circle_distinct(xs: Sequence[CirclePoint], tol: float) -> None:
    """Refuse two circle points within tol of each other, naming the first
    pair (i, j), i < j, in row order.

    Rows are compared in blocks of about CHUNK_PAIRS pairs.  numpy's gaps
    only clear the pairs that are farther apart than tol by far more than
    rounding; ``CirclePoint.gap`` decides the rest.
    """
    thetas = np.array([x.theta for x in xs])
    n = len(thetas)
    clear = tol * (1.0 + 1e-9)
    rows = max(1, CHUNK_PAIRS // n)
    for lo in range(0, n, rows):
        d = np.abs(thetas[lo : lo + rows, None] - thetas[None, lo:])  # < 2pi: canonical angles
        near = np.triu(~(np.minimum(d, TWO_PI - d) > clear), k=1)
        for i, j in np.argwhere(near).tolist():
            if xs[lo + i].gap(xs[lo + j]) <= tol:
                raise ValueError(f"circle points {lo + i} and {lo + j} coincide within {tol}")


def _sphere_pair_fault(a: tuple[float, ...], b: tuple[float, ...], tol: float) -> str:
    """Why two sphere points may not share a configuration, or ""."""
    if math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b))) <= _DISTINCT_TOL:
        return "coincide"
    if math.sqrt(sum((x + y) ** 2 for x, y in zip(a, b))) <= tol:
        return f"are antipodal within {tol}"
    return ""


def _check_sphere_admissible(zs: Sequence[SpherePoint], tol: float) -> None:
    """Refuse coinciding or near-antipodal sphere points, naming the first
    pair (i, j), i < j, in row order.

    Rows are compared in blocks of about CHUNK_PAIRS pairs.  numpy's squared
    distances only clear the pairs that are farther apart than the
    tolerances by far more than rounding; ``_sphere_pair_fault`` decides the
    rest with the pointwise test.
    """
    coords = np.array([z.coords for z in zs])
    n = len(coords)
    clear = (max(_DISTINCT_TOL, tol) * (1.0 + 1e-9)) ** 2
    rows = max(1, CHUNK_PAIRS // n)
    for lo in range(0, n, rows):
        block = coords[lo : lo + rows, None, :]
        diff, summ = block - coords[None, lo:, :], block + coords[None, lo:, :]
        squared = np.minimum(np.einsum("ijk,ijk->ij", diff, diff), np.einsum("ijk,ijk->ij", summ, summ))
        near = np.triu(~(squared > clear), k=1)  # a NaN distance leaves the pair near
        for i, j in np.argwhere(near).tolist():
            fault = _sphere_pair_fault(zs[lo + i].coords, zs[lo + j].coords, tol)
            if fault:
                raise ValueError(f"sphere points {lo + i} and {lo + j} {fault}")


def build_enhanced(xs: Sequence[CirclePoint], zs: Sequence[SpherePoint]) -> EnhancedSet:
    """Validate the generators and lay out the 2pq points in block order."""
    if not xs or not zs:
        raise ValueError("need at least one circle and one sphere point")
    if len({z.dim for z in zs}) != 1:
        raise ValueError("sphere points must share one ambient dimension")
    _check_circle_distinct(xs, _DISTINCT_TOL)
    _check_sphere_admissible(zs, _ANTIPODAL_TOL)
    plain = [(x, z) for z in zs for x in xs]
    mirrored = [(x, z.antipode()) for z in zs for x in xs]
    points = tuple(plain + mirrored)
    assert len(points) == 2 * len(xs) * len(zs)
    return EnhancedSet(tuple(xs), tuple(zs), points)


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
    m: int, n_circle: int, n_sphere: int, seed: int, min_gap: float = _SAMPLING_GAP
) -> tuple[list[CirclePoint], list[SpherePoint]]:
    """Deterministic rejection sampling of distinct circle points and
    pairwise non-antipodal sphere points on S^m.

    Candidates are drawn a batch at a time, as many as points are still
    missing, which consumes the generator exactly as drawing them one by
    one does.  A batch is screened against itself and the accepted points
    in one numpy pass; when the screen clears every pair, the whole batch is
    accepted.  Otherwise the batch is decided candidate by candidate with
    the pointwise ``CirclePoint.gap`` and ``math.dist`` tests, so the
    accepted points, resample counts and errors are those of sampling one
    candidate at a time.
    """
    if m < 2:
        raise ValueError(f"invalid dimension m={m}: need m >= 2")
    if n_circle < 0 or n_sphere < 0:
        raise ValueError("point counts must be >= 0")
    rng = np.random.default_rng(seed)
    tally = _Tally()
    thetas = _sample_circle(rng, n_circle, min_gap, tally)
    coords = _sample_sphere(rng, m, n_sphere, min_gap, tally)
    logger.debug(
        "sample_config(seed=%s) used %d resamples, %d batches, %d pointwise",
        seed, tally.resamples, tally.batches, tally.pointwise,
    )
    return _trusted_circle_points(thetas.tolist()), _trusted_sphere_points(coords)


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


class S2HarmonicBasis:
    """Real orthonormal spherical harmonics of one degree on S^2.

    Calling the basis on an (n, 3) array of unit vectors returns a
    (2l+1, n) array; rows are ordered [m=0, cos terms m=1..l, sin terms
    m=1..l].  Normalization is L^2(S^2)-orthonormal, so the summed products
    over one degree reproduce (2l+1)/(4pi) times the zonal polynomial of the
    dot product.
    """

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree

    @property
    def size(self) -> int:
        return 2 * self.degree + 1

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != 3:
            raise ValueError("S^2 harmonics take points in R^3")
        l = self.degree
        ct = np.clip(pts[:, 2], -1.0, 1.0)
        st = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])

        # normalized associated Legendre values N_l^m(ct), built per order m
        plm = np.empty((l + 1, pts.shape[0]))
        pmm = np.full(pts.shape[0], math.sqrt(1.0 / (4.0 * math.pi)))
        for mo in range(l + 1):
            if mo > 0:
                pmm = -math.sqrt((2 * mo + 1) / (2.0 * mo)) * st * pmm
            if mo == l:
                plm[mo] = pmm
                continue
            prev, cur = pmm, math.sqrt(2 * mo + 3) * ct * pmm
            for ll in range(mo + 2, l + 1):
                a = math.sqrt((4.0 * ll * ll - 1.0) / (ll * ll - mo * mo))
                b = math.sqrt(((ll - 1.0) ** 2 - mo * mo) / (4.0 * (ll - 1.0) ** 2 - 1.0))
                prev, cur = cur, a * (ct * cur - b * prev)
            plm[mo] = cur

        out = np.empty((self.size, pts.shape[0]))
        out[0] = plm[0]
        root2 = math.sqrt(2.0)
        for mo in range(1, l + 1):
            out[mo] = root2 * plm[mo] * np.cos(mo * phi)
            out[l + mo] = root2 * plm[mo] * np.sin(mo * phi)
        return out


def sph_basis_s2(l: int) -> S2HarmonicBasis:
    """Real orthonormal degree-l harmonic basis on S^2, 2l+1 functions."""
    return S2HarmonicBasis(l)


def s2_quadrature(max_degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Product quadrature on S^2 exact for harmonic products up to max_degree.

    Gauss-Legendre in the polar cosine crossed with a uniform azimuthal grid;
    returns (points (N, 3), weights (N,)) with weights summing to 4pi.
    """
    n_theta = max_degree + 2
    n_phi = 2 * max_degree + 2
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    phi = TWO_PI * np.arange(n_phi) / n_phi
    ct = np.repeat(nodes, n_phi)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    ph = np.tile(phi, n_theta)
    points = np.column_stack([st * np.cos(ph), st * np.sin(ph), ct])
    weights = np.repeat(wts, n_phi) * (TWO_PI / n_phi)
    return points, weights
