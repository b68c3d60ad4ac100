"""Gram matrices and constructive degeneracy witnesses for truncated kernels.

The Gram matrices and positive-definiteness checks (a symmetric
eigensolve) are numerical evidence on the truncated support.  A Gram reads
its points through each slot's row of ``_POINT_CLASSES``: their width,
duplicate screen and argument.  A witness is exact for the full expansion:
its form vanishes at every truncation.  It is the tensor of two factors:

* the circle factor (n, j): the n-th roots of unity weighted by
  cos(j * theta), whose character sums vanish at every k not +/-j mod n;
* the geodesic factor (a, p), a = p mod 2: 2a equally spaced points of a
  great circle weighted (-1)^mu (e0 and -e0 weighted (1, 1) when a = 0).
  Gegenbauer polynomials on a great circle are cosine sums with positive
  coefficients (Szego, (4.9.19)), so it cancels every degree below a and
  every degree of the other parity.

``witness_progression_circle`` takes the circle factor alone,
``witness_parity_sphere`` the geodesic factor with the point theta = 0,
``witness_product`` both: n * 2a points (n * 2 when a = 0).  One exact rule
on the terms picks a: each is cancelled by the circle class (its k-term
misses +/-j mod n), the antipodal sign (its l-term has no member of parity
p) or the bound (its parity-p members lie below a).  So a = D + 2 for D,
the largest parity-p member the first two leave (a = p if none).  A term
none cancels, or a witness past ``MAX_POINTS`` (naming D), is refused
before any point is built.  Residuals are reported verbatim.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .certify import Certificate, GammaFailure, Verdict
from .errors import NotApplicableError, NumericalError
from .geometry import CirclePoint, SpherePoint, _Angles, _UnitVectors
# kernel_values stays bound here though gram contracts through _contract:
# bench/spans.py traces the layer functions by the names each module holds
from .kernels import (  # noqa: F401
    _WORKSPACE,
    CHUNK_PAIRS,
    KernelSpec,
    _contract,
    _quiet,
    _slice_width,
    _warn_if_empty,
    kernel_values,
)
from .supportsets import (
    ProgressionWitness,
    SupportSet1D,
    Term1D,
    term_has_parity_member,
    witness_avoids_window,
)

__all__ = [
    "MAX_POINTS",
    "WitnessReport",
    "gram_matrix",
    "check_pd",
    "witness_parity_sphere",
    "witness_progression_circle",
    "witness_product",
]

logger = logging.getLogger(__name__)

_DUP_TOL = 1e-12

# Largest witness (n points for the circle factor (n, j), n * 2a with the
# geodesic factor (a, p), a = D + 2 for the largest declared degree D it
# cancels) and the most points `spdkernels gram` may sample.
MAX_POINTS = 2048


def _check_coordinates(what: str, points: int, spec: KernelSpec) -> None:
    """Refuse an axis with no point model, or points whose coordinates in a
    slot pass MAX_POINTS^2, the entries of the largest Gram: before any is built."""
    for model in filter(None, _point_models(spec)):
        count = points * math.prod(model.shape(spec.space.m))
        if count > MAX_POINTS**2:
            raise NotApplicableError(f"{what} needs {points} points on S^{spec.space.m}, "
                                     f"{count} coordinates, past the limit of {MAX_POINTS**2}")


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A configuration and coefficient vector with a (near-)vanishing form."""

    kind: str  # "parity" | "progression" | "composed"
    points: tuple
    coefficients: tuple[float, ...]
    residual: float
    scale: float


# The point model of each axis kind that has one; tph, the projective axis, has none.
_POINT_CLASSES = {"circle": _Angles(CirclePoint, "theta"), "sphere": _UnitVectors(SpherePoint, "coords")}


def _point_models(spec: KernelSpec) -> list:
    """Each slot's point model, None for an empty slot; refused for an axis with no point model."""
    if not all(axis in _POINT_CLASSES for axis in spec.space._axes if axis):
        raise NotApplicableError(f"no geometric point model for {spec.space.kind}")
    return [_POINT_CLASSES.get(axis) for axis in spec.space._axes]


def _split_points(spec: KernelSpec, points: Sequence) -> list[Optional[np.ndarray]]:
    """Each slot's array of coordinate fields, None for an empty slot; each
    point type-checked, each array's width checked by its row."""
    models = _point_models(spec)
    classes = [model.cls for model in models if model]
    if not points:
        raise ValueError("need at least one point")
    if len(classes) > 1:
        if not all(isinstance(p, tuple) and len(p) == len(classes) and all(map(isinstance, p, classes))
                   for p in points):
            raise ValueError(f"product specs take ({', '.join(c.__name__ for c in classes)}) pairs")
    elif not all(isinstance(p, classes[0]) for p in points):
        raise ValueError(f"{spec.space.kind} specs take {classes[0].__name__} sequences")
    parts = iter(zip(*points) if len(classes) > 1 else [points])
    return [model.array(next(parts), spec.space) if model else None for model in models]


def _join_points(spec: KernelSpec, parts: Sequence) -> list:
    """The points of the spec's space from each slot's points, an empty
    slot's part dropped: a product's points are tuples, one point a slot."""
    used = [part for axis, part in zip(spec.space._axes, parts) if axis]
    return list(zip(*used)) if len(used) > 1 else list(used[0])


def _check_duplicates(models: Sequence, arrays: Sequence) -> None:
    """Refuse two points that coincide within _DUP_TOL, naming the first pair
    (i, j), i < j, in row order; a None array marks an empty slot.

    A sort screen clears most configurations in O(n log n): two points
    coincide only if the sort keys of the first occupied slot do, canonical
    angles or first coordinates of sphere points, and the closest two keys
    are neighbours once sorted, or the ends across 2pi on the circle (its
    row's ``gaps``).  Only when a gap is within _DUP_TOL * (1 + 1e-9), a
    margin for the rounding of the gaps, are the rows compared in blocks of
    about CHUNK_PAIRS pairs, each slot's ``distance`` ANDed, so memory
    stays bounded whatever the point count.
    """
    slots = [(model, x) for model, x in zip(models, arrays) if x is not None]
    first, x = slots[0]
    n = len(x)
    if n < 2 or np.min(first.gaps(x)) > _DUP_TOL * (1.0 + 1e-9):
        return
    rows = max(1, CHUNK_PAIRS // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        # block rows lo..hi-1 against columns lo..n-1, upper triangle only
        same = np.triu(np.ones((hi - lo, n - lo), dtype=bool), k=1)
        for model, x in slots:
            if same.any():
                same &= model.distance(x[lo:hi, None], x[None, lo:]) <= _DUP_TOL
        if same.any():
            i, j = np.unravel_index(np.argmax(same), same.shape)
            raise ValueError(f"invalid configuration: points {lo + i} and {lo + j} coincide")


def _upper_triangle(n: int, width: int):
    """Indices (i, j), i <= j, of the upper triangle of an n x n matrix in
    row-major order, ``width`` pairs at a time."""
    rows = np.arange(n)
    starts = rows * n - rows * (rows - 1) // 2  # flat offset of (i, i)
    pairs = n * (n + 1) // 2
    edges = np.append(starts, pairs)
    for lo in range(0, pairs, width):
        hi = min(lo + width, pairs)
        first, last = np.searchsorted(starts, [lo, hi - 1], "right") - 1
        i = np.repeat(rows[first : last + 1], np.diff(np.clip(edges[first : last + 2], lo, hi)))
        yield i, np.arange(lo, hi) - starts[i] + i


def _circle_features(spec: KernelSpec, thetas: Optional[np.ndarray]):
    """The circle slot's factor rows at a chunk's pairs (i, j) from the
    points' Fourier features, as a function of (i, j); None where the slot
    keeps its table.

    T_k(cos(theta_i - theta_j)) = cos k theta_i cos k theta_j + sin k theta_i
    sin k theta_j.  So for the factor folded onto T_k, g (the circle slot's
    ``_Slot.beta``, nonnegative: scheme values on the support's mask times
    2/k), row rho at (i, j) is entry (i, j) of Psi_rho Psi_rho^T,
    where the n x (2K + 1) features Psi_rho = [cos k theta | sin k theta]
    (k = 0..K and 1..K) have their columns scaled by sqrt(g_rho).  A chunk
    takes one product: rows i_first..i_last of Psi against the rows its
    columns touch (about twice the chunk's pairs at most, and n more a
    row), gathered at the pairs.
    The route is taken when every slot has a factor (a circle spec, or a
    product off the dense route, whose identity slot keeps its family
    table) and the r features fit _WORKSPACE.
    """
    if spec.space._axes[0] != "circle" or any(f is None for f in spec._factors):
        return None
    cap, r = spec.kmax, len(spec._factors[0])
    if r == 0 or r * len(thetas) * (2 * cap + 1) > _WORKSPACE:
        return None  # r = 0, an empty product support: the table route writes its zeros
    psi = np.empty((r, len(thetas), 2 * cap + 1))
    phi = psi[0]  # built in place: k theta goes where its sines end up
    k_theta = phi[:, cap + 1 :]
    np.multiply.outer(thetas, np.arange(1, cap + 1), out=k_theta)
    phi[:, 0] = 1.0
    np.cos(k_theta, out=phi[:, 1 : cap + 1])
    np.sin(k_theta, out=k_theta)
    psi[1:] = phi
    roots = np.sqrt(spec._slot_plan[0].beta)
    psi *= np.concatenate([roots, roots[:, 1:]], axis=1)[:, None, :]

    def rows(i, j):
        first, last = i[0], i[-1] + 1
        left, right = j.min(), j.max() + 1
        block = np.matmul(psi[:, first:last], psi[:, left:right].transpose(0, 2, 1))
        return block.reshape(r, (last - first) * (right - left))[:, (i - first) * (right - left) + (j - left)]

    return rows


def gram_matrix(spec: KernelSpec, points: Sequence) -> np.ndarray:
    """Gram matrix of the truncated kernel; each entry computed once, mirrored.

    The upper triangle is walked in row-major order, a slice of pairs at a
    time (CHUNK_PAIRS up to degree 120) through one contraction workspace,
    so memory is the one n x n matrix plus one chunk's tables, not the n^2
    pairs.  Each slot's row gives its argument, a function of a chunk's
    pairs (i, j) or an n x n matrix (a sphere slot's dot products) that the
    Gram is written over: a chunk reads its upper-triangle entries before
    it writes, and none below the diagonal.  Where ``_circle_features``
    applies, its rows stand in for the circle slot's argument.  The
    features, folds and contraction run under ``_quiet``.
    """
    models = _point_models(spec)
    arrays = _split_points(spec, points)
    _check_duplicates(models, arrays)
    _warn_if_empty(spec)
    n = len(points)
    pairs = n * (n + 1) // 2
    args = [model.argument(x) if model else None for model, x in zip(models, arrays)]
    a = next((arg for arg in args if isinstance(arg, np.ndarray)), None)
    a = np.empty((n, n)) if a is None else a
    flat = a.ravel()
    with _quiet():
        features = _circle_features(spec, arrays[0])
        ready = () if features is None else (0,)
        if ready:
            args[0] = features
        width = _slice_width(spec, pairs, ready)
        logger.debug(
            "gram_matrix: %d points, %d pairs, %d contraction chunks, circle %s",
            n, pairs, -(-pairs // width), "features" if ready else "table",
        )

        def chunks():
            for i, j in _upper_triangle(n, width):
                upper, lower = i * n + j, j * n + i  # flat indices of (i, j) and (j, i)
                yield (upper, lower), *(None if f is None else flat[upper] if f is a else f(i, j)
                                        for f in args)

        for (upper, lower), values in _contract(spec, chunks(), width, ready=ready):
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


def _geodesic_bound(l_terms: Sequence[Term1D], parity: str) -> Optional[int]:
    """a: the least integer of the parity above each member of the parity in
    the l-terms, so that the geodesic factor cancels them (the antipodal sign
    cancels the other terms); None when a progression holds infinitely many."""
    a = int(parity == "odd")
    for lt in l_terms:
        if term_has_parity_member(lt, parity):
            if lt.is_progression:
                return None
            a = max(a, lt.base + 2)
    return a


def _tensor_witness(kind: str, spec: KernelSpec, n: int, j: int, a: Optional[int] = None) -> WitnessReport:
    """The circle factor (n, j), crossed with the geodesic factor (a, a mod 2)
    when a is given, the sphere points outer: c = kron(sphere weights, circle
    weights); a sphere spec takes the sphere points alone.  The report
    carries the form c' G c and the scale f(1, 1) * c' c."""
    h = 0 if a is None else max(a, 1)
    total = n * 2 * h if h else n
    name = "product" if kind == "composed" else kind
    if total > MAX_POINTS:
        cause = f" to cancel degree {a - 2}" if h > 1 else ""  # a = D + 2 for the kept degree D
        raise NotApplicableError(
            f"{name} witness needs {total} points{cause}, past the limit of {MAX_POINTS}"
        )
    thetas = 2.0 * math.pi * np.arange(n) / n  # below 2pi: canonical, as CirclePoint stores them
    d = np.array([math.cos(2.0 * math.pi * j * mu / n) for mu in range(n)])
    factors, c = [thetas, None], d
    if h:
        _check_coordinates(f"{name} witness", total, spec)
        # the points pi mu / h, mu < h, of the great circle through e0 and e1,
        # weighted (-1)^mu, then their antipodes weighted (-1)^(mu + a); an
        # antipode negates every coordinate, so a <= 1 gives e0 and -e0 exactly
        half = np.zeros((h, spec.space.m + 1))
        half[:, :2] = [(math.cos(math.pi * mu / h), math.sin(math.pi * mu / h)) for mu in range(h)]
        factors[1] = np.concatenate([half, -half])
        w = np.resize([1.0, -1.0], h)
        c = np.kron(np.concatenate([w, -w if a % 2 else w]), d)
    # each factor's points, made once; the sphere points outer
    xs, zs = (model.points(x) if model else None for model, x in zip(_point_models(spec), factors))
    points = tuple((x, z) for z in zs for x in xs) if xs and zs else tuple(xs or zs)
    residual = float(c @ gram_matrix(spec, points) @ c)
    return WitnessReport(kind, points, tuple(c), residual, spec.value_at_one * float(c @ c))


def witness_parity_sphere(spec: KernelSpec) -> WitnessReport:
    """Antipodal witness for a sphere-axis support with finitely many
    degrees of one parity, the kept one.

    One circle point crossed with the geodesic factor of the kept parity, a
    just above its largest declared degree D, past L or not; when both
    parities are finite, the one with the smaller a.  A parity-pure support
    keeps no degree: e0 and -e0 with c = (1, -1) (even support) or (1, 1)
    (odd or empty support).
    """
    if spec.space._axes[1] is None:
        raise NotApplicableError(f"no sphere axis on a {spec.space.kind} spec")
    _point_models(spec)  # refuses an axis with no point model
    axis = spec.support.l_terms() if spec.space.is_product else spec.support.terms
    bounds = [a for p in ("even", "odd") if (a := _geodesic_bound(axis, p)) is not None]
    if not bounds:
        raise NotApplicableError("sphere-axis support has infinitely many degrees of each parity")
    return _tensor_witness("parity", spec, 1, 0, min(bounds))


def witness_progression_circle(spec: KernelSpec, witness: ProgressionWitness) -> WitnessReport:
    """Roots-of-unity witness for a missed residue class of a circle spec.

    Requires that the symmetrized support avoid the class j mod n; this is
    re-checked exactly, term by term, and the operation refuses when the
    check fails.  The weights cos(j theta_mu) then make every supported
    character sum vanish.  Circle x sphere refutations go to
    ``witness_product``.
    """
    if spec.space._axes != ("circle", None):
        raise NotApplicableError("progression witnesses need a circle spec")
    if not witness_avoids_window(spec.support, witness):
        raise NotApplicableError(
            f"class {witness.residue} mod {witness.modulus} is hit by the declared support; "
            "refusing to build a vanishing form"
        )
    return _tensor_witness("progression", spec, witness.modulus, witness.residue)


def witness_product(spec: KernelSpec, certificate: Certificate) -> WitnessReport:
    """Exact degeneracy witness for a refuted circle x sphere support.

    The failure's tail set misses the class j mod n, so the terms over that
    class hold no l >= gamma of the failing parity p: the circle factor
    (n, j) crossed with the geodesic factor of parity p, a no more than the
    least a >= gamma, and a = p at gamma = 0.  The rule is re-checked on the
    terms, and a term it does not cancel is refused.
    """
    if spec.space._axes != ("circle", "sphere"):
        raise NotApplicableError("product witnesses need a circle_sphere spec")
    if certificate.verdict is not Verdict.NOT_SPD:
        raise NotApplicableError("witness construction needs a NotSPD certificate")
    failure = certificate.counterexample
    if not isinstance(failure, GammaFailure) or failure.witness is None:
        raise NotApplicableError("certificate carries no usable tail failure")
    n, j = failure.witness.modulus, failure.witness.residue
    met = [
        lt for kt, lt in spec.support.terms
        if not witness_avoids_window(SupportSet1D((kt,)), failure.witness)
    ]
    a = _geodesic_bound(met, failure.parity)
    if a is None:
        raise NotApplicableError(
            f"class {j} mod {n} meets a term with infinitely many {failure.parity} degrees; "
            "refusing to build a vanishing form"
        )
    return _tensor_witness("composed", spec, n, j, a)
