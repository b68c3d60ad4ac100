"""Gram matrices and constructive degeneracy witnesses for truncated kernels.

Everything here is numerical evidence on the effective (truncated) support:
positive-definiteness checks through a symmetric eigensolve, the per-degree
quadratic-form decomposition, the 2 x 2 block structure over enhanced sets,
and three witness builders that exhibit vanishing quadratic forms:

* ``witness_parity_sphere``: a point and its antipode with coefficients
  (1, -1) or (1, 1) when the sphere-axis support is parity-pure;
* ``witness_progression_circle``: the n-th roots of unity weighted by
  cos(j * theta) when the symmetrized circle-axis support misses the class
  j mod n -- the character sums over the support then vanish;
* ``witness_product``: for a product refutation at any tail cutoff, the two
  composed: roots of unity crossed with q sphere points, weighted to cancel
  the layers below the cutoff, and their antipodes (q = 1 at cutoff 0).

Witnesses past ``MAX_POINTS`` points are refused before any Gram is built,
and the command line samples no more points than that for a Gram matrix.
Residuals are reported verbatim, never clamped.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .certify import Certificate, GammaFailure, Verdict
from .errors import NotApplicableError, NumericalError
from .geometry import TWO_PI, CirclePoint, EnhancedSet, SpherePoint, build_enhanced, sample_config
# kernel_values stays bound here though gram contracts through _contract:
# bench/spans.py traces the layer functions by the names each module holds
from .kernels import (  # noqa: F401
    CHUNK_PAIRS, KernelSpec, _contract, _rows, _slices, constant_scheme, kernel_values, sphere_space,
)
from .orthopoly import circle_table, gegenbauer_table
from .supportsets import (
    ProgressionWitness,
    SupportSet1D,
    Term1D,
    one,
    witness_avoids_window,
)

__all__ = [
    "MAX_POINTS",
    "WitnessReport",
    "BlockCheck",
    "gram_matrix",
    "check_pd",
    "per_degree_forms",
    "enhanced_block_check",
    "witness_parity_sphere",
    "witness_progression_circle",
    "witness_product",
]

logger = logging.getLogger(__name__)

_DUP_TOL = 1e-12

# Largest configuration a witness may build (the n roots of unity of a circle
# witness, the 2 n q points of a product witness, q growing like gamma^m) and
# the most points `spdkernels gram` may sample.
MAX_POINTS = 2048


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A configuration and coefficient vector with a (near-)vanishing form."""

    kind: str  # "parity" | "progression" | "composed"
    points: tuple
    coefficients: tuple[float, ...]
    residual: float
    scale: float


@dataclass(frozen=True)
class BlockCheck:
    """Deviations of one degree's enhanced Gram from its block identities."""

    degree: int
    max_abs_m22_minus_m11: float
    max_abs_m12_minus_signed_m11: float
    scale: float


def _sphere_array(points: Sequence[SpherePoint]) -> np.ndarray:
    return np.array([p.coords for p in points])


def _split_points(spec: KernelSpec, points: Sequence) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Angles and/or coordinate arrays for the point sequence, type-checked."""
    kind = spec.space.kind
    if kind == "circle_tph":
        raise NotApplicableError("no geometric point model for projective-space products")
    if not points:
        raise ValueError("need at least one point")
    if kind == "circle":
        if not all(isinstance(p, CirclePoint) for p in points):
            raise ValueError("circle specs take CirclePoint sequences")
        return np.array([p.theta for p in points]), None
    if kind == "sphere":
        if not all(isinstance(p, SpherePoint) for p in points):
            raise ValueError("sphere specs take SpherePoint sequences")
        thetas, spheres = None, points
    else:
        if not all(
            isinstance(p, tuple) and len(p) == 2
            and isinstance(p[0], CirclePoint) and isinstance(p[1], SpherePoint)
            for p in points
        ):
            raise ValueError("product specs take (CirclePoint, SpherePoint) pairs")
        thetas, spheres = np.array([x.theta for x, _ in points]), [z for _, z in points]
    zs = _sphere_array(spheres)
    if zs.shape[1] != spec.space.m + 1:
        raise ValueError(f"points live on S^{zs.shape[1]-1}, spec wants S^{spec.space.m}")
    return thetas, zs


def _check_duplicates(thetas: Optional[np.ndarray], zs: Optional[np.ndarray]) -> None:
    """Refuse two points that coincide within _DUP_TOL, naming the first pair
    (i, j), i < j, in row order.

    A sort screen clears most configurations in O(n log n): two points
    coincide only if their canonical angles (circle and product points) or
    their first coordinates (sphere points) do, and the closest two of those
    are neighbours once sorted, or the ends across 2pi on the circle.  Only
    when a gap is within _DUP_TOL * (1 + 1e-9), a margin for the rounding
    of the gaps, are the rows compared in blocks of about CHUNK_PAIRS
    pairs, so memory stays bounded whatever the point count.
    """
    n = len(thetas) if thetas is not None else len(zs)
    keys = np.sort(thetas if thetas is not None else zs[:, 0])
    gaps = np.diff(keys)
    if thetas is not None:
        gaps = np.append(gaps, TWO_PI - (keys[-1] - keys[0]))  # canonical angles: < 2pi apart
    if n < 2 or np.min(gaps) > _DUP_TOL * (1.0 + 1e-9):
        return
    rows = max(1, CHUNK_PAIRS // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # block rows lo..hi-1 against columns lo..n-1, upper triangle only
        same = np.triu(np.ones((hi - lo, n - lo), dtype=bool), k=1)
        if thetas is not None:
            d = np.abs(thetas[lo:hi, None] - thetas[None, lo:]) % TWO_PI
            same &= np.minimum(d, TWO_PI - d) <= _DUP_TOL
        if zs is not None and same.any():
            same &= np.linalg.norm(zs[lo:hi, None, :] - zs[None, lo:, :], axis=-1) <= _DUP_TOL
        if same.any():
            i, j = np.unravel_index(np.argmax(same), same.shape)
            raise ValueError(f"invalid configuration: points {lo + i} and {lo + j} coincide")


def _dot_matrices(thetas: Optional[np.ndarray], zs: Optional[np.ndarray]):
    t = s = None
    if thetas is not None:
        t = np.cos(thetas[:, None] - thetas[None, :])
    if zs is not None:
        s = np.clip(zs @ zs.T, -1.0, 1.0)
    return t, s


def _upper_triangle(n: int):
    """Indices (i, j), i <= j, of the upper triangle of an n x n matrix in
    row-major order, CHUNK_PAIRS pairs at a time."""
    rows = np.arange(n)
    starts = rows * n - rows * (rows - 1) // 2  # flat offset of (i, i)
    pairs = n * (n + 1) // 2
    edges = np.append(starts, pairs)
    for lo in range(0, pairs, CHUNK_PAIRS):
        hi = min(lo + CHUNK_PAIRS, pairs)
        first, last = np.searchsorted(starts, [lo, hi - 1], "right") - 1
        i = np.repeat(rows[first : last + 1], np.diff(np.clip(edges[first : last + 2], lo, hi)))
        yield i, np.arange(lo, hi) - starts[i] + i


def gram_matrix(spec: KernelSpec, points: Sequence) -> np.ndarray:
    """Gram matrix of the truncated kernel; each entry computed once, mirrored.

    The upper triangle is walked in row-major order, CHUNK_PAIRS pairs at a
    time through one contraction workspace, so memory is the n x n matrix
    and the sphere dot products plus one chunk's tables, not the n^2 pairs.
    """
    thetas, zs = _split_points(spec, points)
    _check_duplicates(thetas, zs)
    n = len(points)
    pairs = n * (n + 1) // 2
    logger.debug(
        "gram_matrix: %d points, %d pairs, %d contraction chunks",
        n, pairs, -(-pairs // CHUNK_PAIRS),
    )
    # the sphere dot products stay one matrix product, since a per-pair sum
    # may round differently; cosines are taken pair by pair
    _, s = _dot_matrices(None, zs)

    def chunks():
        for i, j in _upper_triangle(n):
            upper, lower = i * n + j, j * n + i  # flat indices of (i, j) and (j, i)
            t = None if thetas is None else np.cos(thetas[i] - thetas[j])
            sij = None if s is None else s.ravel()[upper]
            if spec.space.is_product:
                yield (upper, lower), t, sij
            else:
                yield (upper, lower), t if t is not None else sij, None

    a = np.empty((n, n))
    flat = a.ravel()
    for (upper, lower), values in _contract(spec, chunks(), min(pairs, CHUNK_PAIRS)):
        flat[upper] = values
        flat[lower] = values
    return a


def _check_tol(tol: float) -> None:
    """The one rule for an eigenvalue tolerance, shared with the command line."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"{tol} must be a finite number >= 0")


def check_pd(a: np.ndarray, tol: float = 1e-10) -> tuple[bool, float]:
    """Smallest eigenvalue test at relative tolerance tol * max(1, max diagonal);
    tol must be finite and >= 0."""
    _check_tol(tol)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("check_pd takes a square matrix")
    if not np.array_equal(a, a.T):
        raise ValueError("check_pd takes a symmetric matrix")
    try:
        eigs = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolve failed: {exc}") from exc
    if not np.all(np.isfinite(eigs)):
        raise NumericalError("eigensolve returned non-finite values")
    lam_min = float(eigs[0])
    threshold = tol * max(1.0, float(np.max(np.diag(a))))
    return lam_min > threshold, lam_min


def per_degree_forms(
    spec: KernelSpec, points: Sequence, c: Sequence[float]
) -> tuple[float, np.ndarray]:
    """Split the quadratic form c' G c into its sphere-degree layers.

    Layer l is c' [f_l(t_ij) P_l(s_ij)] c; the layers sum to the full form.
    The n^2 pairs are walked CHUNK_PAIRS at a time, as in ``gram_matrix``.
    """
    if not spec.space.is_product:
        raise NotApplicableError("per-degree layers are defined for product specs only")
    thetas, zs = _split_points(spec, points)
    c = np.asarray(c, dtype=float)
    if c.shape != (len(points),):
        raise ValueError("coefficient vector length must match the point count")
    t, s = _dot_matrices(thetas, zs)
    layers = _pair_layers(spec, t.ravel(), s.ravel(), np.outer(c, c).ravel())
    return float(layers.sum()), layers


def _pair_layers(spec: KernelSpec, t: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sums over the pairs p of w_p f_l(t_p) P_l(s_p), one per degree l."""
    layers = np.zeros(spec.lmax + 1)
    for lo, products in _contract(spec, _slices(t, s), min(len(t), CHUNK_PAIRS), layers=True):
        layers += products @ w[lo : lo + CHUNK_PAIRS]
    return layers


def _layer_matrix(spec: KernelSpec, enhanced: EnhancedSet, degree: int) -> np.ndarray:
    """Layer f_degree(t_ij) P_degree(s_ij) of one sphere degree; the circle
    table is contracted with that degree's coefficient column only, and the
    Gegenbauer table stops at the degree (enhanced sets are circle x sphere
    points, so ``_split_points`` has refused every other space).  The n^2
    pairs are walked CHUNK_PAIRS at a time through one table buffer."""
    thetas, zs = _split_points(spec, enhanced.points)
    t, s = _dot_matrices(thetas, zs)
    column = spec.coefficient_matrix[:, degree, None]
    layer = np.empty(t.size)
    table = np.empty((max(spec.kmax, degree) + 1) * min(t.size, CHUNK_PAIRS))
    # an elementwise product summed over rows treats every pair alike, so
    # equal arguments give equal values and the block identities stay exact
    for lo, tc, sc in _slices(t.ravel(), s.ravel()):
        circ = circle_table(spec.kmax, tc, out=_rows(table, spec.kmax + 1, len(tc)))
        circ *= column
        marg = circ.sum(axis=0)
        sph = gegenbauer_table(degree, spec.space.m, sc, out=_rows(table, degree + 1, len(sc)))
        layer[lo : lo + len(tc)] = marg * sph[degree]
    return layer.reshape(t.shape)


def enhanced_block_check(spec: KernelSpec, enhanced: EnhancedSet, degree: int) -> BlockCheck:
    """Measure the block identities of one degree layer over an enhanced set.

    With the block ordering of ``build_enhanced``, the antipodal diagonal
    block repeats the plain one and the off-diagonal blocks carry the sign
    (-1)^degree.
    """
    if not 0 <= degree <= spec.lmax:
        raise ValueError(f"degree {degree} outside the truncation box [0, {spec.lmax}]")
    mat = _layer_matrix(spec, enhanced, degree)
    half = enhanced.p * enhanced.q
    m11 = mat[:half, :half]
    m22 = mat[half:, half:]
    m12 = mat[:half, half:]
    m21 = mat[half:, :half]
    sign = -1.0 if degree % 2 else 1.0
    dev_diag = float(np.max(np.abs(m22 - m11)))
    dev_off = float(max(np.max(np.abs(m12 - sign * m11)), np.max(np.abs(m21 - sign * m11))))
    return BlockCheck(degree, dev_diag, dev_off, spec.value_at_one)


def _first_basis_point(m: int) -> SpherePoint:
    return SpherePoint((1.0,) + (0.0,) * m)


def _report(kind: str, spec: KernelSpec, points: tuple, c: np.ndarray) -> WitnessReport:
    """The witness with its form c' G c and scale f(1, 1) * c' c."""
    residual = float(c @ gram_matrix(spec, points) @ c)
    return WitnessReport(kind, points, tuple(c), residual, spec.value_at_one * float(c @ c))


def _sphere_axis_terms(spec: KernelSpec) -> list[Term1D]:
    if spec.space.is_product:
        return spec.support.l_terms()
    if spec.space.kind == "sphere":
        return list(spec.support.terms)
    raise NotApplicableError("no sphere axis on a circle spec")


def witness_parity_sphere(spec: KernelSpec) -> WitnessReport:
    """Antipodal two-point witness for a parity-pure sphere-axis support.

    An all-even support makes the two Gram rows identical, an all-odd one
    makes them opposite; the matching sign vector annihilates the form.
    """
    if spec.space.kind == "circle_tph":
        raise NotApplicableError("no geometric point model for projective-space products")
    terms = _sphere_axis_terms(spec)
    if not terms:
        raise NotApplicableError("empty sphere-axis support has no parity class")
    purity = []
    for t in terms:
        if t.is_progression and t.step % 2 == 1:
            raise NotApplicableError("odd-step term spans both parities; support is not parity-pure")
        purity.append(t.base % 2)
    if len(set(purity)) != 1:
        raise NotApplicableError("sphere-axis support mixes parities")
    parity_even = purity[0] == 0

    z = _first_basis_point(spec.space.m)
    if spec.space.is_product:
        x = CirclePoint(0.0)
        points: tuple = ((x, z), (x, z.antipode()))
    else:
        points = (z, z.antipode())
    c = np.array([1.0, -1.0]) if parity_even else np.array([1.0, 1.0])
    return _report("parity", spec, points, c)


def _circle_axis_support(spec: KernelSpec) -> SupportSet1D:
    if spec.space.kind == "circle":
        return spec.support
    if spec.space.kind == "circle_sphere":
        return spec.support.k_projection()
    raise NotApplicableError("no circle-axis point model for this space")


def _roots_of_unity_weights(n: int, j: int) -> tuple[list[CirclePoint], np.ndarray]:
    thetas = [CirclePoint(2.0 * math.pi * mu / n) for mu in range(n)]
    d = np.array([math.cos(2.0 * math.pi * j * mu / n) for mu in range(n)])
    return thetas, d


def _check_point_count(kind: str, points: int) -> None:
    if points > MAX_POINTS:
        raise NotApplicableError(f"{kind} witness needs {points} points, past the limit of {MAX_POINTS}")


def witness_progression_circle(spec: KernelSpec, witness: ProgressionWitness) -> WitnessReport:
    """Roots-of-unity witness for a missed circle residue class.

    Requires that the symmetrized circle-axis support avoid the class
    j mod n; this is re-checked exactly, term by term, and the operation
    refuses when the check fails.  The weights cos(j theta_mu) then make
    every supported character sum vanish.
    """
    support = _circle_axis_support(spec)
    if not witness_avoids_window(support, witness):
        raise NotApplicableError(
            f"class {witness.residue} mod {witness.modulus} is hit by the declared support; "
            "refusing to build a vanishing form"
        )
    _check_point_count("progression", witness.modulus)
    xs, d = _roots_of_unity_weights(witness.modulus, witness.residue)
    if spec.space.kind == "circle":
        points: tuple = tuple(xs)
    else:
        z = _first_basis_point(spec.space.m)
        points = tuple((x, z) for x in xs)
    return _report("progression", spec, points, d)


def _low_layers(spec: KernelSpec, failure: GammaFailure) -> list[int]:
    """Degrees l < gamma of the failing parity with a coefficient at some
    k = +/-j (mod n): the layers the missed class alone does not cancel."""
    n, j = failure.witness.modulus, failure.witness.residue
    k = np.arange(spec.kmax + 1)
    hit = spec.coefficient_matrix[(k % n == j) | (-k % n == j)]
    first = 0 if failure.parity == "even" else 1
    top = min(failure.gamma, spec.lmax + 1)
    return [l for l in range(first, top, 2) if np.any(hit[:, l] > 0)]


def _null_weights(m: int, zs: list[SpherePoint], low: list[int]) -> np.ndarray:
    """A unit eta with eta' [P_l(y_b . y_b')] eta = 0 for every l in low: each
    matrix is PSD, so the lowest eigenvector of their sum is in every null space."""
    if not low:
        return np.ones(1)
    layers = KernelSpec(sphere_space(m), SupportSet1D.of(*map(one, low)), constant_scheme(), (0, max(low)))
    _, vecs = np.linalg.eigh(gram_matrix(layers, zs))
    return vecs[:, 0]


def witness_product(spec: KernelSpec, certificate: Certificate) -> WitnessReport:
    """Exact degeneracy witness for a refuted circle x sphere support.

    The failure's tail set misses the class j mod n: the n-th roots of unity,
    weighted by cos(j theta), are crossed with q sphere points weighted by
    ``_null_weights`` and their antipodes signed by the parity.  Each layer
    of c' G c vanishes: the other parity by the signs, ``_low_layers`` by
    the sphere weights, the rest by the character sums.  At gamma = 0 no
    layer is low, so q = 1 and the sphere weight is 1.
    """
    if spec.space.kind != "circle_sphere":
        raise NotApplicableError("product witnesses need a circle_sphere spec")
    if certificate.verdict is not Verdict.NOT_SPD:
        raise NotApplicableError("witness construction needs a NotSPD certificate")
    failure = certificate.counterexample
    if not isinstance(failure, GammaFailure) or failure.witness is None:
        raise NotApplicableError("certificate carries no usable tail failure")
    m = spec.space.m
    n, j = failure.witness.modulus, failure.witness.residue
    low = _low_layers(spec, failure)
    q = 1 + sum(math.comb(l + m, m) - math.comb(l + m - 2, m) for l in low)  # dim H_l(S^m)
    _check_point_count("product", 2 * n * q)
    xs, d = _roots_of_unity_weights(n, j)
    zs = [_first_basis_point(m)] + sample_config(m, 0, q - 1, seed=0)[1]
    enhanced = build_enhanced(xs, zs)
    # block order of build_enhanced: circle index fastest within each z-block;
    # c = (w, w) cancels every odd layer, c = (w, -w) every even one
    plain = np.kron(_null_weights(m, zs, low), d)
    c = np.concatenate([plain, plain if failure.parity == "even" else -plain])
    return _report("composed", spec, enhanced.points, c)
