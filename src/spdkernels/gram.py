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
* ``witness_product``: for a product refutation at tail cutoff 0, the two
  constructions composed (roots of unity crossed with one sphere point and
  its antipode); past cutoff 0 a seeded search over enhanced sets (roots of
  unity crossed with sampled antipodal pairs) reports the most negative
  Rayleigh direction found instead.

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
from .kernels import CHUNK_PAIRS, KernelSpec, kernel_values, marginal_matrix
from .orthopoly import circle_table, gegenbauer_table
from .supportsets import (
    ProgressionWitness,
    SupportSet1D,
    Term1D,
    term_has_parity_member,
    witness_avoids_window,
)

__all__ = [
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


@dataclass(frozen=True, eq=False)
class WitnessReport:
    """A configuration and coefficient vector with a (near-)vanishing form."""

    kind: str  # "parity" | "progression" | "composed" | "searched"
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


def _circle_thetas(points: Sequence[CirclePoint]) -> np.ndarray:
    return np.array([p.theta for p in points])


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
        return _circle_thetas(points), None
    if kind == "sphere":
        if not all(isinstance(p, SpherePoint) for p in points):
            raise ValueError("sphere specs take SpherePoint sequences")
        zs = _sphere_array(points)
        if zs.shape[1] != spec.space.m + 1:
            raise ValueError(f"points live on S^{zs.shape[1]-1}, spec wants S^{spec.space.m}")
        return None, zs
    pairs = list(points)
    if not all(
        isinstance(p, tuple) and len(p) == 2
        and isinstance(p[0], CirclePoint) and isinstance(p[1], SpherePoint)
        for p in pairs
    ):
        raise ValueError("product specs take (CirclePoint, SpherePoint) pairs")
    zs = _sphere_array([p[1] for p in pairs])
    if zs.shape[1] != spec.space.m + 1:
        raise ValueError(f"points live on S^{zs.shape[1]-1}, spec wants S^{spec.space.m}")
    return _circle_thetas([p[0] for p in pairs]), zs


def _check_duplicates(thetas: Optional[np.ndarray], zs: Optional[np.ndarray]) -> None:
    """Refuse two points that coincide within _DUP_TOL, naming the first pair
    (i, j), i < j, in row order.  Rows are compared in blocks of about
    CHUNK_PAIRS pairs, so memory stays bounded whatever the point count."""
    n = len(thetas) if thetas is not None else len(zs)
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


def gram_matrix(spec: KernelSpec, points: Sequence) -> np.ndarray:
    """Gram matrix of the truncated kernel; each entry computed once, mirrored."""
    thetas, zs = _split_points(spec, points)
    _check_duplicates(thetas, zs)
    t, s = _dot_matrices(thetas, zs)
    n = len(points)
    iu = np.triu_indices(n)
    pairs = len(iu[0])
    logger.debug(
        "gram_matrix: %d points, %d pairs, %d contraction chunks",
        n, pairs, -(-pairs // CHUNK_PAIRS),
    )
    if spec.space.is_product:
        vals = kernel_values(spec, t[iu], s[iu])
    else:
        vals = kernel_values(spec, t[iu] if t is not None else s[iu])
    a = np.empty((n, n))
    a[iu] = vals
    a.T[iu] = vals
    return a


def check_pd(a: np.ndarray, tol: float = 1e-10) -> tuple[bool, float]:
    """Smallest eigenvalue test at relative tolerance tol * max(1, max diagonal)."""
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
    """
    if not spec.space.is_product:
        raise NotApplicableError("per-degree layers are defined for product specs only")
    thetas, zs = _split_points(spec, points)
    c = np.asarray(c, dtype=float)
    if c.shape != (len(points),):
        raise ValueError("coefficient vector length must match the point count")
    t, s = _dot_matrices(thetas, zs)
    marg = marginal_matrix(spec, t.ravel())          # (lmax+1, n*n)
    sph = spec.sphere_axis_table(s.ravel())          # (lmax+1, n*n)
    weights = np.outer(c, c).ravel()
    layers = (marg * sph) @ weights
    return float(layers.sum()), layers


def _layer_matrix(spec: KernelSpec, enhanced: EnhancedSet, degree: int) -> np.ndarray:
    """Layer f_degree(t_ij) P_degree(s_ij) of one sphere degree; the circle
    table is contracted with that degree's coefficient column only, and the
    Gegenbauer table stops at the degree (enhanced sets are circle x sphere
    points, so ``_split_points`` has refused every other space)."""
    thetas, zs = _split_points(spec, enhanced.points)
    t, s = _dot_matrices(thetas, zs)
    column = spec.coefficient_matrix[:, degree, None]
    # an elementwise product summed over rows treats every pair alike, so
    # equal arguments give equal values and the block identities stay exact
    marg = (column * circle_table(spec.kmax, t.ravel())).sum(axis=0)
    sph = gegenbauer_table(degree, spec.space.m, s.ravel())[degree]
    return (marg * sph).reshape(t.shape)


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
    a = gram_matrix(spec, points)
    residual = float(c @ a @ c)
    scale = spec.value_at_one * float(c @ c)
    return WitnessReport("parity", points, tuple(c), residual, scale)


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


def witness_progression_circle(spec: KernelSpec, witness: ProgressionWitness) -> WitnessReport:
    """Roots-of-unity witness for a missed circle residue class.

    Requires that the symmetrized circle-axis support avoid the class
    j mod n; this is re-checked against the window scan and the operation
    refuses when the check fails.  The weights cos(j theta_mu) then make
    every supported character sum vanish.
    """
    support = _circle_axis_support(spec)
    if not witness_avoids_window(support, witness):
        raise NotApplicableError(
            f"class {witness.residue} mod {witness.modulus} is hit by the declared support; "
            "refusing to build a vanishing form"
        )
    xs, d = _roots_of_unity_weights(witness.modulus, witness.residue)
    if spec.space.kind == "circle":
        points: tuple = tuple(xs)
    else:
        z = _first_basis_point(spec.space.m)
        points = tuple((x, z) for x in xs)
    a = gram_matrix(spec, points)
    residual = float(d @ a @ d)
    scale = spec.value_at_one * float(d @ d)
    return WitnessReport("progression", points, tuple(d), residual, scale)


def _composed_product_witness(spec: KernelSpec, failure: GammaFailure) -> WitnessReport:
    n, j = failure.witness.modulus, failure.witness.residue
    xs, d = _roots_of_unity_weights(n, j)
    z = _first_basis_point(spec.space.m)
    enhanced = build_enhanced(xs, [z])
    # c = (d, d) cancels every odd layer, c = (d, -d) every even one; the
    # surviving layers die through the vanishing character sums.
    tail = d if failure.parity == "even" else -d
    c = np.concatenate([d, tail])
    a = gram_matrix(spec, enhanced.points)
    residual = float(c @ a @ c)
    scale = spec.value_at_one * float(c @ c)
    return WitnessReport("composed", enhanced.points, tuple(c), residual, scale)


def _searched_product_witness(spec: KernelSpec, seed: int, budget: int) -> WitnessReport:
    # configurations stay enhanced-set shaped: p-th roots of unity on the
    # circle crossed with sampled antipodal-free sphere points
    rng = np.random.default_rng(seed)
    best = None
    spent = 0
    trial = 0
    while spent < budget:
        p = 2 + trial % 7
        q = 1 + (trial // 7) % 4
        xs = [CirclePoint(2.0 * math.pi * i / p) for i in range(p)]
        _, zs = sample_config(spec.space.m, 0, q, seed=int(rng.integers(2**31)))
        enhanced = build_enhanced(xs, zs)
        n_pts = len(enhanced.points)
        spent += n_pts * (n_pts + 1) // 2
        a = gram_matrix(spec, enhanced.points)
        try:
            eigs, vecs = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigensolve failed during witness search: {exc}") from exc
        lam = float(eigs[0])
        if best is None or lam < best[0]:
            c = vecs[:, 0]
            residual = float(c @ a @ c)
            scale = spec.value_at_one * float(c @ c)
            best = (lam, WitnessReport("searched", enhanced.points, tuple(c), residual, scale))
        trial += 1
    assert best is not None
    return best[1]


def witness_product(
    spec: KernelSpec, certificate: Certificate, seed: int = 0, budget: int = 10_000
) -> WitnessReport:
    """Degeneracy witness for a refuted circle x sphere support.

    Failures at tail cutoff 0 admit the composed construction; deeper
    failures fall back to a seeded randomized search over enhanced sets
    (kind "searched") reporting the best Rayleigh direction in the budget.
    """
    if spec.space.kind != "circle_sphere":
        raise NotApplicableError("product witnesses need a circle_sphere spec")
    if certificate.verdict is not Verdict.NOT_SPD:
        raise NotApplicableError("witness construction needs a NotSPD certificate")
    failure = certificate.counterexample
    if not isinstance(failure, GammaFailure) or failure.witness is None:
        raise NotApplicableError("certificate carries no usable tail failure")
    if failure.gamma == 0:
        return _composed_product_witness(spec, failure)
    return _searched_product_witness(spec, seed, budget)
