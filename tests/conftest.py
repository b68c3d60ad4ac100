"""Shared fixtures: fixed support batteries, independent oracle helpers and
reference constructions of the paper.

The oracles here re-derive expected answers from first principles (window
scans over integer ranges, modular arithmetic) without touching the
library's own decision procedures, so the tests cross-examine rather than
echo the implementation.  The paper's enhanced point sets and the real
spherical harmonics on S^2, with a quadrature for them, live here too: the
library itself has no use for them.
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

from spdkernels import SpherePoint, SupportSet1D, SupportSet2D, circle_table, gegenbauer_table, one, prog
from spdkernels.geometry import TWO_PI

WINDOW = 10_000


# ---------------------------------------------------------------------------
# fixed battery: product supports that satisfy the full characterization
# ---------------------------------------------------------------------------

SPD_PRODUCT_SUPPORTS = [
    # everything
    SupportSet2D(((prog(0, 1), prog(0, 1)),)),
    # parity grid: all four (k parity, l parity) blocks
    SupportSet2D((
        (prog(0, 2), prog(0, 2)),
        (prog(1, 2), prog(1, 2)),
        (prog(0, 2), prog(1, 2)),
        (prog(1, 2), prog(0, 2)),
    )),
    # full k-line against each l parity
    SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 1), prog(1, 2)))),
    # shifted residues mod 3 paired with both parities
    SupportSet2D((
        (prog(0, 3), prog(0, 2)), (prog(1, 3), prog(0, 2)), (prog(2, 3), prog(0, 2)),
        (prog(0, 3), prog(1, 2)), (prog(1, 3), prog(1, 2)), (prog(2, 3), prog(1, 2)),
    )),
    # coarse steps: +/- closure covers every class mod 5 with both l parities
    SupportSet2D((
        (prog(0, 5), prog(0, 2)), (prog(1, 5), prog(0, 2)), (prog(2, 5), prog(0, 2)),
        (prog(0, 5), prog(1, 2)), (prog(1, 5), prog(1, 2)), (prog(2, 5), prog(1, 2)),
    )),
    # mixed moduli on the circle axis
    SupportSet2D((
        (prog(0, 2), prog(0, 2)), (prog(1, 4), prog(0, 2)), (prog(3, 4), prog(0, 2)),
        (prog(0, 2), prog(1, 2)), (prog(1, 4), prog(1, 2)), (prog(3, 4), prog(1, 2)),
    )),
    # l-axis split across k-classes whose union still covers everything
    SupportSet2D((
        (prog(0, 2), prog(0, 4)), (prog(0, 2), prog(2, 4)),
        (prog(0, 2), prog(1, 4)), (prog(0, 2), prog(3, 4)),
        (prog(1, 2), prog(0, 2)), (prog(1, 2), prog(1, 2)),
    )),
    # singleton clutter on top of a complete core
    SupportSet2D((
        (prog(0, 1), prog(0, 2)), (prog(0, 1), prog(1, 2)),
        (one(3), one(0)), (one(7), one(5)),
    )),
    # both axes on step 3, +/- closure covering all classes, parities via step-3 pairs
    SupportSet2D((
        (prog(0, 3), prog(0, 3)), (prog(0, 3), prog(1, 3)), (prog(0, 3), prog(2, 3)),
        (prog(1, 3), prog(0, 3)), (prog(1, 3), prog(1, 3)), (prog(1, 3), prog(2, 3)),
    )),
    # step-6 cover: residues {0,1,2,3} and negatives give all of Z/6
    SupportSet2D((
        (prog(0, 6), prog(0, 2)), (prog(1, 6), prog(0, 2)),
        (prog(2, 6), prog(0, 2)), (prog(3, 6), prog(0, 2)),
        (prog(0, 6), prog(1, 2)), (prog(1, 6), prog(1, 2)),
        (prog(2, 6), prog(1, 2)), (prog(3, 6), prog(1, 2)),
    )),
    # variant with large bases: tails shift but classes persist
    SupportSet2D((
        (prog(9, 2), prog(8, 2)), (prog(10, 2), prog(9, 2)),
        (prog(9, 2), prog(9, 2)), (prog(10, 2), prog(8, 2)),
    )),
    # asymmetric steps 2 and 3 interleaved across parities
    SupportSet2D((
        (prog(0, 2), prog(0, 2)), (prog(1, 2), prog(0, 2)),
        (prog(0, 3), prog(1, 2)), (prog(1, 3), prog(1, 2)), (prog(2, 3), prog(1, 2)),
    )),
]

# product supports that already fail at gamma = 0, with the failing parity
NOT_SPD_PRODUCT_SUPPORTS_G0 = [
    # no odd l anywhere
    (SupportSet2D(((prog(0, 1), prog(0, 2)),)), "odd"),
    # no even l anywhere
    (SupportSet2D(((prog(0, 1), prog(1, 2)),)), "even"),
    # odd l exists only over even k
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 2), prog(1, 2)))), "odd"),
    # even l exists only over k = 0 mod 3 (misses a class mod 6)
    (SupportSet2D(((prog(0, 1), prog(1, 2)), (prog(0, 3), prog(0, 2)))), "even"),
    # odd-l rows confined to a single residue 1 mod 4
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(1, 4), prog(1, 2)))), "odd"),
    # even-l rows are singletons only: finite set cannot cover
    (SupportSet2D(((prog(0, 1), prog(1, 2)), (one(2), prog(0, 2)), (one(5), prog(0, 2)))), "even"),
    # odd-l support misses class 2 mod 6 on the circle axis
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 6), prog(1, 2)), (prog(1, 6), prog(1, 2)))), "odd"),
    # no odd l over any odd k and evens incomplete for odd tail
    (SupportSet2D(((prog(0, 2), prog(0, 1)), (prog(1, 2), prog(0, 2)))), "odd"),
    # empty odd tail built from even-only singleton l values
    (SupportSet2D(((prog(0, 1), one(0)), (prog(0, 1), one(2)), (prog(0, 1), one(4)))), "odd"),
    # even side only covers 0 mod 2 while odd side is full
    (SupportSet2D(((prog(0, 2), prog(0, 2)), (prog(0, 1), prog(1, 2)))), "even"),
    # odd-l columns stuck on k = 3 mod 5
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(3, 5), prog(1, 2)))), "odd"),
    # even tail lives on k multiples of 4 only
    (SupportSet2D(((prog(0, 4), prog(0, 2)), (prog(0, 1), prog(1, 2)))), "even"),
]

# supports that pass at gamma = 0 but fail once the cutoff removes singletons;
# entries are (support, expected gamma, expected parity)
LATE_FAILURES = [
    (
        SupportSet2D((
            (prog(0, 1), one(0)),
            (prog(0, 1), one(1)),
            (prog(0, 2), prog(2, 2)),
            (prog(0, 2), prog(3, 2)),
        )),
        1,
        "even",
    ),
    (
        SupportSet2D((
            (prog(0, 1), one(1)),
            (prog(0, 1), prog(0, 2)),
            (prog(0, 2), prog(1, 2)),
        )),
        2,
        "odd",
    ),
    (
        SupportSet2D((
            (prog(0, 1), one(2)),
            (prog(0, 1), prog(1, 2)),
            (prog(1, 2), prog(2, 2)),
        )),
        3,
        "even",
    ),
]

# SPD by the full test yet inconclusive for both one-axis sufficient tests
SPD_BUT_INCONCLUSIVE = [
    SupportSet2D((
        (prog(0, 3), prog(1, 4)),
        (prog(1, 3), prog(3, 4)),
        (prog(0, 3), prog(0, 4)),
        (prog(2, 3), prog(2, 4)),
    )),
    SupportSet2D((
        (prog(0, 5), prog(1, 4)),
        (prog(1, 5), prog(3, 4)),
        (prog(2, 5), prog(1, 4)),
        (prog(0, 5), prog(0, 4)),
        (prog(3, 5), prog(2, 4)),
        (prog(4, 5), prog(0, 4)),
    )),
    SupportSet2D((
        (prog(0, 3), prog(1, 4)),
        (prog(2, 3), prog(3, 4)),
        (prog(0, 3), prog(0, 4)),
        (prog(1, 3), prog(2, 4)),
    )),
]


# ---------------------------------------------------------------------------
# randomized batteries
# ---------------------------------------------------------------------------

def battery_1d(seed, count):
    """Random 1-axis supports: 1 to 4 terms, steps <= 8, bases <= 10."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nterms = int(rng.integers(1, 5))
        terms = []
        for _ in range(nterms):
            base = int(rng.integers(0, 11))
            if rng.random() < 0.3:
                terms.append(one(base))
            else:
                terms.append(prog(base, int(rng.integers(1, 9))))
        out.append(SupportSet1D(tuple(terms)))
    return out


def battery_2d(seed, count):
    """Random product supports: 1 to 5 term pairs from the 1-axis battery rules."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        npairs = int(rng.integers(1, 6))
        pairs = []
        for _ in range(npairs):
            parts = []
            for _ in range(2):
                base = int(rng.integers(0, 11))
                if rng.random() < 0.3:
                    parts.append(one(base))
                else:
                    parts.append(prog(base, int(rng.integers(1, 9))))
            pairs.append(tuple(parts))
        out.append(SupportSet2D(tuple(pairs)))
    return out


# ---------------------------------------------------------------------------
# oracle helpers (independent of the library's decision procedures)
# ---------------------------------------------------------------------------

def window_members(support, hi=WINDOW):
    """All members of a 1-axis support in [0, hi], computed by brute force."""
    vals = set()
    for t in support.terms:
        if t.is_progression:
            vals.update(range(t.base, hi + 1, t.step))
        elif t.base <= hi:
            vals.add(t.base)
    return vals


def oracle_witness_sound(support, witness, window=WINDOW):
    """Scan [-window, window]: no support member may be congruent to
    +residue or -residue mod modulus."""
    n, j = witness.modulus, witness.residue
    members = window_members(support, window)
    arr = np.fromiter(members, dtype=np.int64) if members else np.empty(0, np.int64)
    hits = np.count_nonzero((arr % n == j % n) | ((-arr) % n == j % n))
    return hits == 0


def oracle_class_member(support, n, j, bound=100_000):
    """Exhibit a support member v with v or -v congruent to j mod n, or None.

    Solved per term by modular arithmetic so the search never scans the
    full window: for a progression base + step*x the class is reachable
    exactly when gcd(step, n) divides the residue gap.
    """
    for target in (j % n, (-j) % n):
        for t in support.terms:
            if not t.is_progression:
                if t.base % n == target and t.base <= bound:
                    return t.base if target == j % n else -t.base
                continue
            g = math.gcd(t.step, n)
            gap = (target - t.base) % n
            if gap % g != 0:
                continue
            step_r, n_r = t.step // g, n // g
            x0 = (gap // g * pow(step_r, -1, n_r)) % n_r
            v = t.base + t.step * x0
            if v <= bound:
                return v if target == j % n else -v
    return None


def oracle_meets_all_small_moduli(support, max_modulus=64):
    """True when +/- support hits every class of every modulus up to the cap."""
    for n in range(1, max_modulus + 1):
        for j in range(n):
            if oracle_class_member(support, n, j) is None:
                return False, (n, j)
    return True, None


def gamma_parity_members(support2d, gamma, parity, kmax=200, lmax=200):
    """Brute-force k-values whose section holds a degree >= gamma of the
    given parity, scanning an explicit (k, l) rectangle."""
    want = 0 if parity == "even" else 1
    ks = set()
    for kt, lt in support2d.terms:
        for l in term_members(lt, lmax):
            if l >= gamma and l % 2 == want:
                ks.update(term_members(kt, kmax))
                break
    return ks


# ---------------------------------------------------------------------------
# membership and point arithmetic that only the tests need: each helper does
# the arithmetic of the library method it replaced
# ---------------------------------------------------------------------------

def term_members(term, hi):
    """The members of a ``Term1D`` in [0, hi], ascending."""
    if not term.is_progression:
        return [term.base] if term.base <= hi else []
    return range(term.base, hi + 1, term.step)


def contains_2d(support, k, l):
    """Whether a ``SupportSet2D`` holds (k, l)."""
    return any(kt.contains(k) and lt.contains(l) for kt, lt in support.terms)


def circle_gap(p, q):
    """The angular distance of two ``CirclePoint``s mod 2pi."""
    d = abs(p.theta - q.theta) % TWO_PI
    return min(d, TWO_PI - d)


def circle_dot(p, q):
    """The dot product of two ``CirclePoint``s, the cosine of their angle difference."""
    return math.cos(p.theta - q.theta)


def sphere_dot(a, b):
    """The dot product of two ``SpherePoint``s, summed left to right in Python."""
    return sum(x * y for x, y in zip(a.coords, b.coords))


def sphere_point(v):
    """The ``SpherePoint`` v / |v|, |v| from ``np.linalg.norm``."""
    arr = np.asarray(v, dtype=float)
    return SpherePoint(tuple(arr / float(np.linalg.norm(arr))))


def antipode(z):
    """The ``SpherePoint`` -z."""
    return SpherePoint(tuple(-c for c in z.coords))


# ---------------------------------------------------------------------------
# space kinds: valid parameters for each kind of kernels._SPACE_KINDS, in
# the table's order (test_kernels checks that the two name the same kinds)
# ---------------------------------------------------------------------------

SPACE_EXAMPLES = {
    "circle": {},
    "sphere": {"m": 3},
    "circle_sphere": {"m": 2},
    "circle_tph": {"family": "quat_proj", "d": 8},
}


def marginal_ref(spec, t):
    """The marginals f_l(t) = sum_k a_{k,l} P_k(t), shape (lmax+1, len(t))."""
    return spec.coefficient_matrix.T @ circle_table(spec.kmax, np.atleast_1d(np.asarray(t, dtype=float)))


class HalvedCall(NamedTuple):
    cap: int
    depth: int
    width: int
    out: np.ndarray  # the table buffer it wrote
    levels: np.ndarray  # the level-argument buffer it wrote


def record_halved_tables(monkeypatch):
    """Record every call the contraction makes of ``_halved_table``, the
    table of a folded slot, as a ``HalvedCall``; ``call[:3]`` is its cap,
    depth and width."""
    import spdkernels.kernels as kernels_mod

    calls = []
    table = kernels_mod._halved_table

    def recording(cap, depth, t, out=None, levels=None):
        calls.append(HalvedCall(cap, depth, np.size(t), out, levels))
        return table(cap, depth, t, out=out, levels=levels)

    monkeypatch.setattr(kernels_mod, "_halved_table", recording)
    return calls


def axis_table(spec, slot, x):
    """The family table of a slot's axis at x, degrees 0 to the slot's bound."""
    from spdkernels.kernels import _AXIS_TABLES

    return _AXIS_TABLES[spec.space._axes[slot]].table(spec.space, spec.truncation[slot], x, None)


def jacobi_one_ref(l, alpha):
    """binom(l + alpha, l), the Jacobi value at t = 1, by log-gamma."""
    return math.exp(
        math.lgamma(l + alpha + 1) - math.lgamma(alpha + 1) - math.lgamma(l + 1)
    )



# ---------------------------------------------------------------------------
# enhanced point sets and their block identities
# ---------------------------------------------------------------------------

def enhanced_points(xs, zs):
    """The 2pq (circle, sphere) points of the enhanced set of p circle and q
    sphere points: z-block by z-block with the circle index moving fastest,
    all plain blocks first, then all antipodal blocks in the same order."""
    plain = [(x, z) for z in zs for x in xs]
    mirrored = [(x, antipode(z)) for z in zs for x in xs]
    return tuple(plain + mirrored)


def layer_matrix_ref(spec, points, degree):
    """Layer f_degree(t_ij) P_degree(s_ij) of one sphere degree of a
    circle x sphere spec, in one piece.  The degree's coefficient column
    times the circle table is summed over its rows, which treats every pair
    alike, so equal arguments give equal values."""
    thetas = np.array([x.theta for x, _ in points])
    zs = np.array([z.coords for _, z in points])
    t = np.cos(thetas[:, None] - thetas[None, :])
    s = np.clip(zs @ zs.T, -1.0, 1.0)
    column = spec.coefficient_matrix[:, degree, None]
    marg = (column * circle_table(spec.kmax, t.ravel())).sum(axis=0)
    sph = gegenbauer_table(degree, spec.space.m, s.ravel())[degree]
    return (marg * sph).reshape(t.shape)


def per_degree_forms_ref(spec, points, c):
    """The quadratic form c' G c of a circle x sphere spec over ``points``
    split into its sphere-degree layers c' ``layer_matrix_ref`` c, with
    their sum: (total, layers), layers of shape (lmax + 1,)."""
    c = np.asarray(c, dtype=float)
    layers = np.array([c @ layer_matrix_ref(spec, points, degree) @ c for degree in range(spec.lmax + 1)])
    return float(layers.sum()), layers


def block_deviations(spec, points, degree):
    """How far one degree's layer over ``enhanced_points`` is from its block
    identities: max |M22 - M11|, and the largest |M12 - sign M11| and
    |M21 - sign M11| for sign = (-1)^degree.  The antipodal diagonal block
    repeats the plain one and the off-diagonal blocks carry the sign."""
    mat = layer_matrix_ref(spec, points, degree)
    half = len(points) // 2
    m11, m12 = mat[:half, :half], mat[:half, half:]
    m21, m22 = mat[half:, :half], mat[half:, half:]
    sign = -1.0 if degree % 2 else 1.0
    dev_off = max(np.max(np.abs(m12 - sign * m11)), np.max(np.abs(m21 - sign * m11)))
    return float(np.max(np.abs(m22 - m11))), float(dev_off)


# ---------------------------------------------------------------------------
# real spherical harmonics on S^2 and a quadrature for them
# ---------------------------------------------------------------------------

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

@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
