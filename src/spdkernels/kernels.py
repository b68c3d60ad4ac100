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
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import NotApplicableError
from .orthopoly import MAX_DEGREE, circle_table, gegenbauer_table, jacobi_table
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
# contraction, a table and the marginals, takes 2 x 61 x 8192 x 8 bytes,
# about 8 MB.  BLAS may round a few columns of a slice differently at another
# slice width, so a new value here can move the last bits of some values.
CHUNK_PAIRS = 8_192

# The parameters each space kind takes, in order, with their types.  A kind's
# parameters are read here alone: by SpaceDescriptor, which refuses any other,
# and by the spec codec and the --space grammar of the command line.
_SPACE_PARAMS = {
    "circle": {},
    "sphere": {"m": int},
    "circle_sphere": {"m": int},
    "circle_tph": {"family": str, "d": int},
}
_PRODUCT_KINDS = ("circle_sphere", "circle_tph")


@dataclass(frozen=True)
class SpaceDescriptor:
    """Which space the kernel lives on, with the derived polynomial parameters."""

    kind: str
    m: Optional[int] = None
    family: Optional[str] = None
    d: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in _SPACE_PARAMS:
            raise ValueError(
                f"unknown space kind {self.kind!r}; expected one of {tuple(_SPACE_PARAMS)}"
            )
        params = _SPACE_PARAMS[self.kind]
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

    @property
    def is_product(self) -> bool:
        return self.kind in _PRODUCT_KINDS

    @property
    def alpha(self) -> float:
        if self.kind != "circle_tph":
            raise NotApplicableError("alpha is defined for circle_tph spaces only")
        return (self.d - 2) / 2.0

    @property
    def beta(self) -> float:
        if self.kind != "circle_tph":
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

    @property
    def axis_cap(self) -> int:
        """Degree cap for single-space specs: kmax on the circle, lmax on spheres."""
        return self.kmax if self.space.kind == "circle" else self.lmax

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """Effective coefficients on the truncation box.

        Products: shape (kmax+1, lmax+1).  Single spaces: shape (cap+1,).
        Union semantics: overlapping terms mark an index once, each term along
        one slice per axis (a singleton's slice steps past the box).  On a
        single space the k-rate drives circle supports, the l-rate sphere
        supports, and a_j is Python's ``scale * rate**j``.
        """
        scheme = self.scheme
        if self.space.is_product:
            k_len, l_len = self.kmax + 1, self.lmax + 1
            mask = np.zeros((k_len, l_len), dtype=bool)
            for kt, lt in self.support.terms:
                mask[kt.base :: kt.step or k_len, lt.base :: lt.step or l_len] = True
            if scheme.kind == "constant":
                return np.where(mask, scheme.scale, 0.0)
            values = scheme.scale * np.outer(
                scheme.r_k ** np.arange(k_len), scheme.r_l ** np.arange(l_len)
            )
            return np.where(mask, values, 0.0)
        length = self.axis_cap + 1
        mask = np.zeros(length, dtype=bool)
        for t in self.support.terms:
            mask[t.base :: t.step or length] = True
        if scheme.kind == "constant":
            return np.where(mask, scheme.scale, 0.0)
        rate = scheme.r_k if self.space.kind == "circle" else scheme.r_l
        return np.where(mask, [scheme.scale * rate**j for j in range(length)], 0.0)

    @cached_property
    def is_effectively_empty(self) -> bool:
        return not np.any(self.coefficient_matrix > 0)

    def sphere_axis_table(self, s: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Zonal polynomial values on the second axis, all degrees up to lmax."""
        if self.space.kind == "circle_sphere":
            return gegenbauer_table(self.lmax, self.space.m, s, out=out)
        if self.space.kind == "circle_tph":
            return jacobi_table(self.lmax, self.space.alpha, self.space.beta, s, out=out)
        raise NotApplicableError("sphere-axis table is defined for product specs only")

    @cached_property
    def value_at_one(self) -> float:
        """f(1, 1) for products, f(1) for single spaces."""
        return float(kernel_values(self, 1.0, 1.0 if self.space.is_product else None)[0])


def _warn_if_empty(spec: KernelSpec) -> None:
    if spec.is_effectively_empty:
        warnings.warn(
            "degenerate kernel spec: effective support is empty, evaluating to 0",
            stacklevel=3,
        )


def kernel_values(spec: KernelSpec, t: np.ndarray, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Vectorized truncated-kernel evaluation over paired argument arrays.

    The pairs are contracted CHUNK_PAIRS at a time in one workspace that is
    allocated once and refilled for every slice, so memory follows the
    chunk and the degrees, O(CHUNK_PAIRS * (max(K, L) + L)) entries, not the
    number of pairs.
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
    for lo, values in _contract(spec, _slices(t, s), min(len(t), CHUNK_PAIRS)):
        out[lo : lo + len(values)] = values
    return out


def _slices(t: np.ndarray, s: Optional[np.ndarray]):
    """(offset, t, s) for consecutive CHUNK_PAIRS slices of the arguments."""
    for lo in range(0, len(t), CHUNK_PAIRS):
        hi = lo + CHUNK_PAIRS
        yield lo, t[lo:hi], None if s is None else s[lo:hi]


def _rows(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first rows * width entries of a flat buffer as a C-ordered table."""
    return buffer[: rows * width].reshape(rows, width)


def _contract(spec: KernelSpec, chunks, width: int, layers: bool = False):
    """Contract each (key, t, s) slice of ``chunks`` (s is None for single
    spaces), none wider than ``width`` pairs, and yield (key, values).

    The tables are allocated once here and refilled for every slice: one
    (max(K, L) + 1) x width buffer holds the circle table and, once the BLAS
    product has read it, the sphere-axis table; a second holds the
    marginals.  With ``layers``, a product spec yields the (L + 1) x width
    products f_l(t) P_l(s) instead of their column sums.  What a slice
    yields is overwritten by the next one.
    """
    if not spec.space.is_product:
        cap = spec.axis_cap
        table = np.empty((cap + 1) * width)
        for key, t, _ in chunks:
            rows = _rows(table, cap + 1, len(t))
            if spec.space.kind == "circle":
                circle_table(cap, t, out=rows)
            else:
                gegenbauer_table(cap, spec.space.m, t, out=rows)
            yield key, spec.coefficient_matrix @ rows
        return
    kmax, lmax = spec.truncation
    table = np.empty((max(kmax, lmax) + 1) * width)
    marginals = np.empty((lmax + 1) * width)
    coefficients = spec.coefficient_matrix.T
    for key, t, s in chunks:
        circ = circle_table(kmax, t, out=_rows(table, kmax + 1, len(t)))
        marg = np.matmul(coefficients, circ, out=_rows(marginals, lmax + 1, len(t)))
        marg *= spec.sphere_axis_table(s, out=_rows(table, lmax + 1, len(t)))
        yield key, marg if layers else marg.sum(axis=0)


def eval_kernel(spec: KernelSpec, t: float, s: Optional[float] = None) -> float:
    """Truncated kernel value at (t, s); single spaces take t alone."""
    return float(kernel_values(spec, float(t), None if s is None else float(s))[0])

