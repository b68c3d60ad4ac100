"""Kernel specifications: space, symbolic coefficient support, scheme, truncation.

A spec describes an expansion f = sum a_j P_j (single spaces) or
f = sum a_{k,l} P_k^circle P_l^sphere (product spaces) through a symbolic
support plus a positive coefficient rule.  Certifiers judge the declared
symbolic support; the evaluation routines here work with the truncated
effective support (declared support clipped to the truncation box), which is
numerical evidence rather than proof.

Coefficient rules: ``constant(c)`` gives a_{k,l} = c on the support, and
``geometric(r_k, r_l, c)`` gives a_{k,l} = c * r_k**k * r_l**l.  Overlapping
support terms are a union: each index pair carries its rule value once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import NotApplicableError, NumericalError
from .orthopoly import (
    MAX_DEGREE,
    _gegenbauer_on_chebyshev,
    _halved_coefficients,
    _halved_table,
    _recombine,
    circle_table,
    gegenbauer_table,
    jacobi_table,
)
from .supportsets import SupportSet1D, SupportSet2D

__all__ = [
    "BETA_BY_FAMILY",
    "DIMENSION_RULES",
    "DEFAULT_TRUNCATION",
    "MAX_TRUNCATION_BOX",
    "SpaceDescriptor",
    "circle_space",
    "sphere_space",
    "circle_sphere_space",
    "circle_tph_space",
    "CoefficientScheme",
    "constant_scheme",
    "geometric_scheme",
    "KernelSpec",
    "eval_kernel",
    "kernel_values",
]

# Jacobi beta parameter for each projective family; alpha is (d - 2)/2.
BETA_BY_FAMILY = {
    "real_proj": -0.5,
    "complex_proj": 0.0,
    "quat_proj": 1.0,
    "cayley": 3.0,
}

# Admissible dimensions d per projective family.
DIMENSION_RULES = {
    "real_proj": lambda d: d >= 2,
    "complex_proj": lambda d: d >= 4 and d % 2 == 0,
    "quat_proj": lambda d: d >= 8 and d % 4 == 0,
    "cayley": lambda d: d == 16,
}

DEFAULT_TRUNCATION = (60, 60)

# Most entries of a product spec's (kmax+1) x (lmax+1) coefficient matrix:
# 8 MB of float64, about K = L = 1000, where the workloads stop at
# K = L = 120.  Checked in KernelSpec before the matrix is built.
MAX_TRUNCATION_BOX = 1_000_000

# Argument pairs per contraction slice: at K = L = 60 the workspace of one
# product contraction whose slots both fold, a halved table of 8 rows
# (``_depth``: 3 halvings), 6 rows of level arguments and 2^3 r product
# rows a slot, takes (14 + 16r) x 8192 x 8 bytes: 2 MB at r = 1; a family
# table takes 61 rows, and the dense route's identity slot keeps one.
# BLAS may round a few columns of a slice differently at another slice
# width, so a new value here can move the last bits of some values; each
# slot's route is decided with the spec (``_Slot``), not by the slice.
CHUNK_PAIRS = 8_192

# Entries a slot's rows may hold in one contraction slice: the degree-120
# family table of a CHUNK_PAIRS slice, 7.9 MB.  A slice is narrowed
# (``_slice_width``) so that no slot's ``_Slot.entries`` a pair pass it.
# A family table, or a fold that is not halved (``_depth``), counts its
# cap + 1 table rows; its product rows are never more.  A halved fold
# counts its halved table, level and product rows together, with
# _SLICE_VECTORS.  Every shape with K, L <= 120 keeps CHUNK_PAIRS while
# its halved folds have at most 15 factor rows (``KernelSpec._factors``).
_WORKSPACE = 121 * CHUNK_PAIRS

# The vectors of a slice's width that a contraction and its caller make
# beside the buffers (indices, arguments, their checks and the temporaries
# between them).  A family table past degree 120 takes slices of at most
# _WORKSPACE // (cap + 1) pairs, so its vectors are under a fifth of its
# table and shrink with the degree; a halved fold holds about
# 2 sqrt(cap r) rows a pair, so its slices past degree 120 are thousands of
# pairs wide and its vectors a large share of them.  Counted in its
# ``_Slot.entries``, they keep a Gram there no higher than the family table's.
_SLICE_VECTORS = 24

# Folds of degree up to this take their halved rows from a map cached by
# axis, space, degree and depth (``_fold_map``), one product a spec: every
# command builds a fresh spec, and at degree 20 a sphere fold and its two
# halvings took about 100 us of numpy calls.  A map holds about
# (cap + 1)(cap + 2^h) entries, 130 KB at degree 120, and 32 are kept.
_MAPPED_DEGREE = 120


class _Kind(NamedTuple):
    params: dict  # parameter name -> type, in order
    axes: tuple  # the axis kinds of the circle and the sphere slot, None when empty


# Each space kind, read here alone: its parameters by SpaceDescriptor, the
# spec codec and --space, its axes by the contraction, points and witnesses.
# The circle slot reads kmax and r_k, the sphere slot lmax and r_l; each
# axis kind's point model is a row of ``gram._POINT_CLASSES``.
_SPACE_KINDS = {
    "circle": _Kind({}, ("circle", None)),
    "sphere": _Kind({"m": int}, (None, "sphere")),
    "circle_sphere": _Kind({"m": int}, ("circle", "sphere")),
    "circle_tph": _Kind({"family": str, "d": int}, ("circle", "tph")),
}


def _depth(cap: int, r: int) -> int:
    """The halvings h of a folded slot of degree ``cap`` and r factor rows
    that cost the fewest passes a pair: 3.5 a row of the halved table
    (Reinsch's three and half a pass of sign), 7 a level for its argument,
    and 2 for each product row that a level adds back.  The 2^h r product
    rows stay within the cap + 1 rows of the slot's family table."""
    depths = [h for h in range(cap.bit_length() + 1) if r << h <= cap + 1] or [0]
    return min(depths, key=lambda h: 3.5 * (cap >> h) + 7 * h + 2 * r * ((1 << h) - 1))


class _Slot:
    """An occupied slot's route, decided once a spec (``KernelSpec._slot_plan``):
    its axis, degree cap and factor of r rows (None for the identity), and
    whether it folds, as every factor on an axis with a fold does.  A fold
    sums the factor on T_0..T_cap at arguments halved h times (``_depth``);
    any other slot keeps its family table, h = 0.  A pair takes
    (cap >> h) + 1 table rows, h + 3 level rows when it folds and 2^h r
    product rows, and ``entries`` of a slice's workspace (``_slice_width``).
    Made on first use: beta, the factor folded onto T_0..T_cap (a circle
    slot on features takes beta alone), and the 2^h r halved rows
    (``_halved_coefficients``), from ``_fold_map`` up to _MAPPED_DEGREE."""

    def __init__(self, space: SpaceDescriptor, axis: str, cap: int, factor: Optional[np.ndarray]):
        self.space, self.axis, self.cap, self.factor = space, axis, cap, factor
        self.folds = factor is not None and _AXIS_TABLES[axis].fold is not None
        self.depth = _depth(cap, len(factor)) if self.folds else 0
        self.table_rows = (cap >> self.depth) + 1
        self.level_rows = self.depth + 3 if self.folds else 0
        self.product_rows = 0 if factor is None else len(factor) << self.depth
        # a halved fold counts every row a pair takes and _SLICE_VECTORS; a
        # table of cap + 1 rows bounds the rest (its product rows are no more)
        self.entries = (self.table_rows + self.level_rows + self.product_rows + _SLICE_VECTORS
                        if self.depth else cap + 1)

    @cached_property
    def beta(self) -> np.ndarray:
        return _AXIS_TABLES[self.axis].fold(self.space, self.factor)

    @cached_property
    def halved(self) -> np.ndarray:
        if self.cap > _MAPPED_DEGREE:
            return _halved_coefficients(self.beta, self.depth)
        rows = np.matmul(self.factor, _fold_map(self.axis, self.space, self.cap, self.depth))
        return rows.reshape(-1, self.table_rows)

    def rows(self, x: np.ndarray, table: np.ndarray, levels: np.ndarray, products: np.ndarray) -> np.ndarray:
        """The slot's r factor rows at the arguments x, written into the flat
        buffers; the identity's are its family table itself."""
        width = len(x)
        if self.folds:
            at = _rows(levels, self.level_rows, width)
            rows = _halved_table(self.cap, self.depth, x, out=_rows(table, self.table_rows, width), levels=at)
            sums = np.matmul(self.halved, rows, out=_rows(products, self.product_rows, width))
            return _recombine(sums, at, self.depth)
        rows = _AXIS_TABLES[self.axis].table(self.space, self.cap, x, _rows(table, self.table_rows, width))
        f = self.factor
        return rows if f is None else np.matmul(f, rows, out=_rows(products, self.product_rows, width))


@lru_cache(maxsize=32)
def _fold_map(axis: str, space: SpaceDescriptor, cap: int, depth: int) -> np.ndarray:
    """The halved rows of the identity on an axis of degree ``cap``, 2^h
    blocks of cap + 1 rows, h = ``depth``: a factor's halved rows are the
    factor times each block, stacked (``_halved_coefficients``)."""
    rows = _halved_coefficients(_AXIS_TABLES[axis].fold(space, np.eye(cap + 1)), depth)
    rows.flags.writeable = False  # shared by every spec that folds so
    return rows.reshape(1 << depth, cap + 1, -1)


class _Axis(NamedTuple):
    table: Callable  # (space, cap, x, out) -> the family's rows, degrees 0..cap at x
    fold: Optional[Callable]  # (space, f) -> f re-expressed on T_0..T_cap; None: no fold


# Each axis kind: its family table, called by this module's name for it (a
# tracer may rebind it), and how a factor on that table maps onto the
# Chebyshev rows T_k, which a folded slot sums on halved arguments
# (``_depth``) in about 3.5 passes a halved degree.  An axis with a fold
# folds every factor, whatever the pair count, and keeps its family table
# for an identity slot alone.
_AXIS_TABLES = {
    # circle row k is (2/k) T_k: the fold scales a factor once, r (K + 1)
    # products
    "circle": _Axis(
        lambda space, cap, x, out: circle_table(cap, x, out=out),
        lambda space, f: f * np.r_[1.0, 2.0 / np.arange(1, f.shape[-1])],
    ),
    # Gegenbauer rows are cosine sums (Szego, (4.9.19)): the fold takes about
    # r L^2 / 2 products, made once a spec, or one product with a cached map
    # up to _MAPPED_DEGREE (``_Slot``)
    "sphere": _Axis(
        lambda space, cap, x, out: gegenbauer_table(cap, space.m, x, out=out),
        lambda space, f: _gegenbauer_on_chebyshev(f, space.m),
    ),
    # no closed form of the Jacobi rows on T_k here, and no Gram route
    "tph": _Axis(lambda space, cap, x, out: jacobi_table(cap, space.alpha, space.beta, x, out=out), None),
}


@dataclass(frozen=True)
class SpaceDescriptor:
    """Which space the kernel lives on, with the derived polynomial parameters."""

    kind: str
    m: Optional[int] = None
    family: Optional[str] = None
    d: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _SPACE_KINDS:
            raise ValueError(
                f"unknown space kind {self.kind!r}; expected one of {tuple(_SPACE_KINDS)}"
            )
        params = _SPACE_KINDS[self.kind].params
        for name in (f.name for f in fields(self)):
            if name != "kind" and name not in params and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} takes no parameter {name!r}")
        if "m" in params and (self.m is None or self.m < 2):
            raise ValueError(f"invalid dimension m={self.m} for {self.kind}: need m >= 2")
        if "family" in params:
            if self.family not in BETA_BY_FAMILY:
                raise ValueError(
                    f"unknown projective family {self.family!r}; "
                    f"expected one of {sorted(BETA_BY_FAMILY)}"
                )
            if self.d is None or not DIMENSION_RULES[self.family](self.d):
                raise ValueError(f"invalid dimension d={self.d} for family {self.family!r}")

    @cached_property
    def _axes(self) -> tuple[Optional[str], Optional[str]]:
        """The axis kinds in the circle slot and in the sphere slot, None when empty."""
        return _SPACE_KINDS[self.kind].axes

    @property
    def is_product(self) -> bool:
        return None not in self._axes

    @property
    def alpha(self) -> float:
        if self._axes[1] != "tph":
            raise NotApplicableError("alpha is defined for circle_tph spaces only")
        return (self.d - 2) / 2.0

    @property
    def beta(self) -> float:
        if self._axes[1] != "tph":
            raise NotApplicableError("beta is defined for circle_tph spaces only")
        return BETA_BY_FAMILY[self.family]


def circle_space() -> SpaceDescriptor:
    return SpaceDescriptor("circle")


def sphere_space(m: int) -> SpaceDescriptor:
    return SpaceDescriptor("sphere", m=m)


def circle_sphere_space(m: int) -> SpaceDescriptor:
    return SpaceDescriptor("circle_sphere", m=m)


def circle_tph_space(family: str, d: int) -> SpaceDescriptor:
    return SpaceDescriptor("circle_tph", family=family, d=d)


@dataclass(frozen=True)
class CoefficientScheme:
    """Positive coefficient rule on the support."""

    kind: str
    scale: float = 1.0
    r_k: Optional[float] = None
    r_l: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "geometric"):
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not self.scale > 0:
            raise ValueError(f"scheme scale must be positive, got {self.scale}")
        if self.kind == "geometric":
            for name, r in (("r_k", self.r_k), ("r_l", self.r_l)):
                if r is None or not 0.0 < r < 1.0:
                    raise ValueError(f"geometric rate {name} must lie in (0, 1), got {r}")
        elif self.r_k is not None or self.r_l is not None:
            raise ValueError("constant scheme takes no rates")


def constant_scheme(scale: float = 1.0) -> CoefficientScheme:
    return CoefficientScheme("constant", scale=scale)


def geometric_scheme(r_k: float = 0.9, r_l: float = 0.9, scale: float = 1.0) -> CoefficientScheme:
    return CoefficientScheme("geometric", scale=scale, r_k=r_k, r_l=r_l)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel expansion: space + declared support + scheme + truncation box."""

    space: SpaceDescriptor
    support: Union[SupportSet1D, SupportSet2D]
    scheme: CoefficientScheme = field(default_factory=geometric_scheme)
    truncation: tuple[int, int] = DEFAULT_TRUNCATION

    def __post_init__(self) -> None:
        if self.space.is_product and not isinstance(self.support, SupportSet2D):
            raise ValueError("product spaces need a two-axis support")
        if not self.space.is_product and not isinstance(self.support, SupportSet1D):
            raise ValueError("single spaces need a one-axis support")
        # Checked here, before coefficient_matrix can allocate (kmax+1) x (lmax+1)
        # entries for degrees the polynomial tables would refuse anyway.
        kmax, lmax = self.truncation
        if type(kmax) is not int or type(lmax) is not int:
            raise ValueError(f"truncation bounds must be integers, got {self.truncation!r}")
        if kmax < 0 or lmax < 0:
            raise ValueError(f"truncation bounds must be >= 0, got {self.truncation}")
        if max(kmax, lmax) > MAX_DEGREE:
            raise ValueError(
                f"truncation bounds must be <= {MAX_DEGREE}, got {self.truncation}"
            )
        box = (kmax + 1) * (lmax + 1)
        if self.space.is_product and box > MAX_TRUNCATION_BOX:
            raise ValueError(
                f"truncation box {self.truncation} has {box} coefficients, "
                f"past the limit of {MAX_TRUNCATION_BOX}"
            )

    @property
    def kmax(self) -> int:
        return self.truncation[0]

    @property
    def lmax(self) -> int:
        return self.truncation[1]

    @cached_property
    def _slots(self) -> tuple[int, ...]:
        """The occupied slots: 0 for the circle slot, 1 for the sphere slot."""
        return tuple(slot for slot, axis in enumerate(self.space._axes) if axis)

    @property
    def axis_cap(self) -> int:
        """Degree cap for single-space specs: kmax on the circle, lmax on spheres."""
        return self.truncation[self._slots[-1]]

    def _support_mask(self) -> np.ndarray:
        """The effective support as booleans, an axis of its slot's bound + 1
        per occupied slot.  Each term marks one slice per axis (a singleton's
        slice steps past the box), so overlapping terms mark an index once."""
        shape = tuple(self.truncation[slot] + 1 for slot in self._slots)
        mask = np.zeros(shape, dtype=bool)
        for term in self.support.terms:
            parts = term if self.space.is_product else (term,)
            mask[tuple(slice(t.base, None, t.step or n) for t, n in zip(parts, shape))] = True
        return mask

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """Effective coefficients on the truncation box.

        Products: shape (kmax+1, lmax+1).  Single spaces: shape (cap+1,).
        Union semantics: each index of the support carries its rule value
        once.  On a single space the k-rate drives circle supports, the
        l-rate sphere supports, and a_j is Python's ``scale * rate**j``.
        """
        scheme = self.scheme
        mask = self._support_mask()
        if scheme.kind == "constant":
            return np.where(mask, scheme.scale, 0.0)
        if self.space.is_product:
            k_len, l_len = mask.shape
            values = scheme.scale * np.outer(
                scheme.r_k ** np.arange(k_len), scheme.r_l ** np.arange(l_len)
            )
            return np.where(mask, values, 0.0)
        rate = (scheme.r_k, scheme.r_l)[self._slots[-1]]
        return np.where(mask, [scheme.scale * rate**j for j in range(len(mask))], 0.0)

    @cached_property
    def _factors(self) -> tuple[Optional[np.ndarray], ...]:
        """One factor of r rows per occupied slot, None for the identity: the
        row coefficient_matrix for a single space, and for a product (U, V)
        with coefficient_matrix = U.T @ V, U r x (kmax+1), V r x (lmax+1).

        A product coefficient is a scheme value on the support's mask, and the
        geometric value scale * r_k**k * r_l**l splits over the axes, so the
        k-rows fall in r groups, one per distinct nonzero l-mask: group g
        puts scale * r_k**k on its rows in U and r_l**l on its l-mask in V
        (the constant scheme scale and 1), and the products agree with
        coefficient_matrix to round-off.  Every SPD support the workloads
        sample has r = 1.  When r (K + L + 2) reaches (K + 1)(L + 1), as when
        every row differs, r factor rows would cost at least the dense
        product: then the axis with fewer degrees takes the identity and the
        other coefficient_matrix (U = I when K <= L).  Either way a slice
        costs no more than a dense contraction: (K + 1)(L + 1) products and
        L + 1 row passes.  These factors act on the family tables; the
        contraction takes each on the Chebyshev rows instead where its
        axis has a fold (``_Slot``), and the identity keeps its family table.
        """
        if not self.space.is_product:
            return (self.coefficient_matrix[None],)
        mask = self._support_mask()
        k_len, l_len = mask.shape
        rows = mask.view(f"V{l_len}")[:, 0]  # one l-mask a row
        keys = dict.fromkeys(rows.tolist())
        keys.pop(bytes(l_len), None)  # the rows with no support
        groups = np.frombuffer(b"".join(keys), rows.dtype)
        if len(groups) * (k_len + l_len) >= k_len * l_len:
            a = self.coefficient_matrix
            return (None, a) if k_len <= l_len else (a.T, None)
        scheme = self.scheme
        if scheme.kind == "constant":
            k_values, l_values = scheme.scale, 1.0
        else:
            k_values = scheme.scale * scheme.r_k ** np.arange(k_len)
            l_values = scheme.r_l ** np.arange(l_len)
        u = (rows == groups[:, None]) * k_values
        v = groups.view(bool).reshape(len(groups), l_len) * l_values
        return u, v

    @cached_property
    def is_effectively_empty(self) -> bool:
        if self.space.is_product:
            _, v = self._factors
            return v is not None and len(v) == 0  # the dense route is never empty
        return not np.any(self.coefficient_matrix > 0)

    @cached_property
    def _slot_plan(self) -> dict[int, _Slot]:
        """Each occupied slot's record (``_Slot``), by slot."""
        return {slot: _Slot(self.space, self.space._axes[slot], self.truncation[slot], factor)
                for slot, factor in zip(self._slots, self._factors)}

    @cached_property
    def value_at_one(self) -> float:
        """f(1, 1) for products, f(1) for single spaces."""
        return float(kernel_values(self, 1.0, 1.0 if self.space.is_product else None)[0])


def _quiet() -> np.errstate:
    """numpy's overflow and invalid-value warnings off, for the contraction
    and what feeds it: an expansion past float64 is named once, by the
    ``NumericalError`` of ``_contract``, not by a warning from each
    product that overflowed."""
    return np.errstate(over="ignore", invalid="ignore")


def _warn_if_empty(spec: KernelSpec) -> None:
    if spec.is_effectively_empty:
        warnings.warn(
            "degenerate kernel spec: effective support is empty, evaluating to 0",
            stacklevel=3,
        )


def kernel_values(spec: KernelSpec, t: np.ndarray, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized truncated-kernel evaluation over paired argument arrays.

    The pairs are contracted a slice at a time (``_slice_width``: CHUNK_PAIRS
    pairs up to degree 120, fewer past it) in one workspace that is
    allocated once and refilled for every slice, so memory follows the
    slice and the degrees, about _WORKSPACE entries a slot, not the number
    of pairs.  One pair takes the route a Gram takes, set with the spec
    (``_Slot``): a slot that folds sums its factor on halved arguments.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if spec.space.is_product:
        if s is None:
            raise ValueError("product spaces need both arguments t and s")
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if s.shape != t.shape:
            raise ValueError("t and s must have the same shape")
    elif s is not None:
        raise ValueError("single spaces take one argument; drop s")
    _warn_if_empty(spec)
    out = np.empty(t.shape)
    args = (t, s) if spec.space._axes[0] else (None, t)  # a sphere's one argument is its slot's
    with _quiet():
        width = _slice_width(spec, len(t))
        for lo, values in _contract(spec, _slices(*args, width), width):
            out[lo : lo + len(values)] = values
    return out


def _slice_width(spec: KernelSpec, pairs: int, ready: tuple = ()) -> int:
    """The slice width of ``_contract`` over ``pairs`` pairs whose ``ready``
    slots come as factor rows: CHUNK_PAIRS, narrowed so that no other slot
    holds more than _WORKSPACE entries a slice (``_Slot.entries``), and no
    more than the pairs (at least one)."""
    entries = [record.entries for slot, record in spec._slot_plan.items() if slot not in ready]
    return max(1, min(pairs, CHUNK_PAIRS, _WORKSPACE // max(entries, default=1)))


def _slices(t: Optional[np.ndarray], s: Optional[np.ndarray], width: int):
    """(offset, t, s) for consecutive slices of ``width`` arguments; None stays None."""
    for lo in range(0, len(s if t is None else t), width):
        hi = lo + width
        yield lo, None if t is None else t[lo:hi], None if s is None else s[lo:hi]


def _rows(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first rows * width entries of a flat buffer as a C-ordered table."""
    return buffer[: rows * width].reshape(rows, width)


def _contract(spec: KernelSpec, chunks, width: int, ready: tuple = ()):
    """Contract each (key, t, s) slice of ``chunks``, t the circle slot's and
    s the sphere slot's arguments (None for an empty slot), none wider than
    ``width`` (``_slice_width(spec, pairs, ready)``, by which the caller
    sliced), and yield (key, values).  A slot in ``ready`` comes as its r
    factor rows at the slice's pairs, made by the caller, in place of its
    arguments; the rows are multiplied in place.

    Each occupied slot contracts its factor (``KernelSpec._factors``) with
    its axis table, r rows, and the values sum the rows' products: one row
    for a single space, sum_g a_g b_g with a = U @ circle and b = V @ P for
    a product A = U.T @ V.  Each slot that folds (``_Slot``) takes its
    factor folded onto the Chebyshev rows T_k and sums them on arguments
    halved h times, at one pair as at a Gram's many: the 2^h r halved rows
    times the (cap >> h) + 1 rows of ``_halved_table``, added back up over
    the levels (``_recombine``), about 3.5 cap / 2^h passes a pair where
    the Chebyshev recurrence took 2 cap.  An identity factor keeps its
    family table.  One buffer holds each table in turn, so a slot whose
    factor is the identity, its table itself, goes last.  The buffers,
    sized by the slots' rows, are allocated once and refilled, so what a
    slice yields is overwritten by the next one.
    A slice that holds a non-finite value raises ``NumericalError``; its
    callers run it, and the folds it makes, under ``_quiet``, so that this
    error is the one report of an overflow.
    """
    plan = spec._slot_plan
    order = sorted(plan, key=lambda slot: plan[slot].factor is None)  # the identity last
    r = len(plan[order[0]].factor)
    tabulated = [slot for slot in plan if slot not in ready]
    # the folds' cached rows before the buffers, below them on the heap, which
    # then shrinks once they are freed: after them, a Gram's peak RSS rose 2.8 MB
    for slot in tabulated:
        if plan[slot].folds:
            plan[slot].halved
    table = np.empty(max((plan[slot].table_rows for slot in tabulated), default=0) * width)
    levels = np.empty(max((plan[slot].level_rows for slot in tabulated), default=0) * width)
    products = {slot: np.empty(plan[slot].product_rows * width) for slot in tabulated}

    def side(slot, x):
        return x if slot in ready else plan[slot].rows(x, table, levels, products[slot])

    for key, *args in chunks:
        a = side(order[0], args[order[0]])
        for slot in order[1:]:
            a *= side(slot, args[slot])
        values = a[0] if r == 1 else a.sum(axis=0)
        if not np.isfinite(values).all():
            raise NumericalError("a kernel value is not finite: the expansion overflows float64")
        yield key, values


def eval_kernel(spec: KernelSpec, t: float, s: Optional[float] = None) -> float:
    """Truncated kernel value at (t, s); single spaces take t alone."""
    return float(kernel_values(spec, float(t), None if s is None else float(s))[0])

