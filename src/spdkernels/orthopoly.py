"""Zonal polynomial families for isotropic kernel expansions.

Three families on [-1, 1], each tabulated for every degree up to a cap by a
three-term recurrence, one row per degree and one column per argument:

* ``circle_table``: 1 for degree 0 and (2/k) cos(k arccos t) for degree
  k >= 1, computed through the Chebyshev recurrence rather than arccos;
* ``gegenbauer_table``: ultraspherical polynomials attached to the parameter
  (m - 1)/2 for the sphere S^m, m >= 2, normalized so the value at t = 1
  equals binom(n + m - 2, n);
* ``jacobi_table``: Jacobi polynomials P_l^(alpha, beta), alpha, beta > -1,
  normalized so the value at t = 1 equals the generalized binomial
  binom(l + alpha, l).

The Gegenbauer recurrence is run on values divided by the value at 1,

    R_0 = 1,  R_1 = t,
    R_n = ((2n + m - 3) t R_{n-1} - (n - 1) R_{n-2}) / (n + m - 2),

which keeps every intermediate inside [-1, 1]; the unnormalized value is
recovered by scaling each row with an incrementally built binomial factor
(no factorials).
Degrees are capped at MAX_DEGREE so everything stays in double precision.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_DEGREE", "circle_table", "gegenbauer_table", "jacobi_table"]

MAX_DEGREE = 10_000
_ARG_TOL = 1e-12


def _checked_degree(n: int) -> int:
    n = int(n)
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > MAX_DEGREE:
        raise ValueError(f"unsupported degree {n}: recurrences are capped at {MAX_DEGREE}")
    return n


def _checked_dimension(m: int) -> int:
    m = int(m)
    if m < 2:
        raise ValueError(f"invalid dimension m={m}: this family needs m >= 2")
    return m


def _checked_argument(t) -> np.ndarray:
    """Validate arguments lie in [-1, 1] up to 1e-12 slack and clamp them."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim > 1:
        raise ValueError("argument must be a scalar or 1-d array")
    flat = np.atleast_1d(arr)
    if not np.all(np.isfinite(flat)):
        raise ValueError("argument must be finite")
    if np.any(np.abs(flat) > 1.0 + _ARG_TOL):
        bad = flat[np.abs(flat) > 1.0 + _ARG_TOL][0]
        raise ValueError(f"argument {bad} outside [-1, 1]")
    return np.clip(flat, -1.0, 1.0)


def circle_table(kmax: int, t) -> np.ndarray:
    """Values of the circle family for all degrees 0..kmax, shape (kmax+1, len(t))."""
    kmax = _checked_degree(kmax)
    x = _checked_argument(t)
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax == 0:
        return out
    # rows 1..kmax hold cos(k arccos t), each written in place from the two
    # rows before it, until the closing scale by 2/k
    two_x = 2.0 * x
    out[1] = x
    for k in range(2, kmax + 1):
        row = out[k]
        np.multiply(two_x, out[k - 1], out=row)
        np.subtract(row, out[k - 2], out=row)
    out[1:] *= (2.0 / np.arange(1, kmax + 1))[:, None]
    return out


def _ratio_table(nmax: int, m: int, x: np.ndarray) -> np.ndarray:
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = x
    lower = np.empty(x.size)
    for n in range(2, nmax + 1):
        # ((2n + m - 3) x R_{n-1} - (n - 1) R_{n-2}) / (n + m - 2), in place
        row = out[n]
        np.multiply(2 * n + m - 3, x, out=row)
        np.multiply(row, out[n - 1], out=row)
        np.multiply(n - 1, out[n - 2], out=lower)
        np.subtract(row, lower, out=row)
        np.divide(row, n + m - 2, out=row)
    return out


def _norm_vector(nmax: int, m: int) -> np.ndarray:
    """Values at t = 1, binom(n + m - 2, n) for n = 0..nmax, as running products."""
    norms = np.empty(nmax + 1)
    norms[0] = 1.0
    for n in range(1, nmax + 1):
        norms[n] = norms[n - 1] * (n + m - 2) / n
    return norms


def gegenbauer_table(nmax: int, m: int, t) -> np.ndarray:
    """Ultraspherical values for degrees 0..nmax, shape (nmax+1, len(t))."""
    nmax = _checked_degree(nmax)
    m = _checked_dimension(m)
    x = _checked_argument(t)
    ratios = _ratio_table(nmax, m, x)
    ratios *= _norm_vector(nmax, m)[:, None]
    return ratios


def jacobi_table(lmax: int, alpha: float, beta: float, t) -> np.ndarray:
    """Jacobi values P_l^(alpha, beta) for degrees 0..lmax, shape (lmax+1, len(t))."""
    lmax = _checked_degree(lmax)
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError(f"jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}")
    x = _checked_argument(t)
    out = np.empty((lmax + 1, x.size))
    out[0] = 1.0
    if lmax == 0:
        return out
    out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    ab = alpha + beta
    lower = np.empty(x.size)
    for n in range(2, lmax + 1):
        c0 = 2.0 * n * (n + ab) * (2.0 * n + ab - 2.0)
        c1 = (2.0 * n + ab - 1.0) * (2.0 * n + ab) * (2.0 * n + ab - 2.0)
        c2 = (2.0 * n + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab)
        # ((c1 x + c2) P_{n-1} - c3 P_{n-2}) / c0, in place
        row = out[n]
        np.multiply(c1, x, out=row)
        np.add(row, c2, out=row)
        np.multiply(row, out[n - 1], out=row)
        np.multiply(c3, out[n - 2], out=lower)
        np.subtract(row, lower, out=row)
        np.divide(row, c0, out=row)
    return out
