"""Zonal polynomial families for isotropic kernel expansions.

Four tables on [-1, 1], each tabulated for every degree up to a cap by a
three-term recurrence, one row per degree and one column per argument:

* ``chebyshev_table``: T_k = cos(k arccos t), computed through the
  Chebyshev recurrence T_k = 2t T_{k-1} - T_{k-2} rather than arccos, two
  passes a degree;
* ``circle_table``: the circle family, 1 for degree 0 and (2/k) T_k for
  degree k >= 1: ``chebyshev_table`` and one closing pass that scales row k
  by 2/k;
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
(no factorials).  That takes five passes a degree and a sixth to scale.
A sum over Gegenbauer rows is also a sum over Chebyshev rows (Szego,
(4.9.19)), and ``_gegenbauer_on_chebyshev`` rewrites its coefficients so,
which lets a kernel contraction evaluate sums over T_k alone on circle and
sphere axes.  It does so on halved arguments: with u = 2t^2 - 1,
T_2j(t) = T_j(u) and T_2j+1(t) + T_2j-1(t) = 2t T_j(u), so a sum over
T_0..T_L at t is A(u) + t B(u), two sums over T_0..T_{L/2} at u
(``_halved_coefficients``).  Halved h times, a sum becomes 2^h sums over
the L/2^h + 1 rows of ``_halved_table``, whose products with the level
arguments ``_recombine`` adds back up.  The halved table runs Reinsch's
modified recurrence on d = 1 - |u|, the distance from the nearer endpoint,
which is carried exactly down the levels (1 + u = 2t^2 and
1 - u = 2(1 - |t|)(1 + |t|)): three passes a row and half a pass for the
sign, about 3.5L/2^h a sum in place of the 2L of ``chebyshev_table``, and
no error from rounding u next to +/-1, where T_j moves j^2 times as fast
as its argument.
Degrees are capped at MAX_DEGREE so everything stays in double precision.
Each table is written into ``out`` when one is given: the kernel
contraction passes views of one reused workspace, so that a Gram matrix
allocates its tables once, not once per slice of pairs.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MAX_DEGREE", "chebyshev_table", "circle_table", "gegenbauer_table", "jacobi_table"]

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


def _table_out(rows: int, x: np.ndarray, out) -> np.ndarray:
    """A fresh (rows, len(x)) table, or ``out`` checked to have that shape."""
    if out is None:
        return np.empty((rows, x.size))
    if out.shape != (rows, x.size):
        raise ValueError(f"out has shape {out.shape}, the table needs {(rows, x.size)}")
    return out


def chebyshev_table(kmax: int, t, out=None) -> np.ndarray:
    """Chebyshev values T_k(t) = cos(k arccos t) for degrees 0..kmax, shape (kmax+1, len(t))."""
    kmax = _checked_degree(kmax)
    x = _checked_argument(t)
    out = _table_out(kmax + 1, x, out)
    out[0] = 1.0
    if kmax == 0:
        return out
    # each row written in place from the two rows before it
    two_x = 2.0 * x
    out[1] = x
    for k in range(2, kmax + 1):
        row = out[k]
        np.multiply(two_x, out[k - 1], out=row)
        np.subtract(row, out[k - 2], out=row)
    return out


def _halved_table(kmax: int, depth: int, t, out=None, levels=None) -> np.ndarray:
    """Chebyshev values T_j(u_h) for j = 0..kmax >> h, h = ``depth``, at the
    arguments halved h times, u_0 = t and u_(i+1) = 2 u_i^2 - 1, shape
    (kmax >> h) + 1 by len(t).

    ``levels``, h + 3 rows by len(t), receives u_0..u_h in its first h + 1
    rows (``_recombine`` multiplies by u_0..u_(h-1)); its last two rows are
    the distance d and the recurrence's differences.  d_i = 1 - |u_i| is
    carried down exactly, d_(i+1) the lesser of 1 + u_(i+1) = 2 u_i^2 and
    1 - u_(i+1) = 2 d_i (2 - d_i), and the rows are Reinsch's modified
    recurrence at a = 1 - d_h = |u_h|: D_1 = -d, D_(j+1) = D_j - 2d T_j and
    T_(j+1) = T_j + D_(j+1), whose error does not grow as a nears 1 the
    way the plain recurrence's does.  T_j(-a) = (-1)^j T_j(a) closes it: one
    pass over the odd rows by the sign of u_h.
    """
    kmax = _checked_degree(kmax)
    x = _checked_argument(t)
    cap = kmax >> depth
    out = _table_out(cap + 1, x, out)
    if levels is None:
        levels = np.empty((depth + 3, x.size))
    u, d, diff = levels[: depth + 1], levels[depth + 1], levels[depth + 2]
    u[0] = x
    np.abs(x, out=d)
    np.subtract(1.0, d, out=d)
    for i in range(depth):
        nxt = u[i + 1]
        np.multiply(u[i], u[i], out=nxt)
        nxt *= 2.0  # 1 + u_(i+1)
        np.subtract(2.0, d, out=diff)
        diff *= d
        diff *= 2.0  # 1 - u_(i+1)
        np.minimum(nxt, diff, out=d)
        nxt -= 1.0
    out[0] = 1.0
    if cap == 0:
        return out
    np.subtract(1.0, d, out=out[1])
    np.negative(d, out=diff)
    two_d = np.multiply(d, 2.0, out=d)
    # each row written in place: 2d T_j, then D_(j+1), then T_j + D_(j+1)
    for j in range(1, cap):
        row = out[j + 1]
        np.multiply(two_d, out[j], out=row)
        np.subtract(diff, row, out=diff)
        np.add(out[j], diff, out=row)
    sign = np.copysign(1.0, u[depth], out=diff)
    odd = out[1::2]
    np.multiply(odd, sign, out=odd)
    return out


def _recombine(products: np.ndarray, levels: np.ndarray, depth: int) -> np.ndarray:
    """The r sums from the 2^h r rows ``products`` of ``_halved_coefficients``
    times ``_halved_table``, h = ``depth``, and the table's ``levels``: the
    rows of bit i are multiplied by u_i and added to the rows without it,
    the last level first, in place.  Returns the first r rows."""
    rows = len(products) >> depth
    for i in reversed(range(depth)):
        half = rows << i
        upper = products[half : 2 * half]
        upper *= levels[i]
        products[:half] += upper
    return products[:rows]


def circle_table(kmax: int, t, out=None) -> np.ndarray:
    """Values of the circle family for all degrees 0..kmax, shape (kmax+1, len(t))."""
    out = chebyshev_table(kmax, t, out)
    out[1:] *= (2.0 / np.arange(1, len(out)))[:, None]
    return out


def _ratio_table(nmax: int, m: int, x: np.ndarray, out=None) -> np.ndarray:
    out = _table_out(nmax + 1, x, out)
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


def gegenbauer_table(nmax: int, m: int, t, out=None) -> np.ndarray:
    """Ultraspherical values for degrees 0..nmax, shape (nmax+1, len(t))."""
    nmax = _checked_degree(nmax)
    m = _checked_dimension(m)
    x = _checked_argument(t)
    ratios = _ratio_table(nmax, m, x, out)
    ratios *= _norm_vector(nmax, m)[:, None]
    return ratios


def jacobi_table(lmax: int, alpha: float, beta: float, t, out=None) -> np.ndarray:
    """Jacobi values P_l^(alpha, beta) for degrees 0..lmax, shape (lmax+1, len(t))."""
    lmax = _checked_degree(lmax)
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError(f"jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}")
    x = _checked_argument(t)
    out = _table_out(lmax + 1, x, out)
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


def _gegenbauer_on_chebyshev(f: np.ndarray, m: int) -> np.ndarray:
    """Coefficients on T_0..T_L of the sums f over Gegenbauer rows 0..L.

    For f of shape (r, L + 1) the result beta has the same shape and
    ``beta @ chebyshev_table(L, t)`` equals ``f @ gegenbauer_table(L, m, t)``
    up to round-off.  Szego (4.9.19) writes Gegenbauer row n as
    sum_k g_k g_{n-k} T_{|n - 2k|} with g_0 = 1, g_k = g_{k-1} (lam + k - 1)/k
    and lam = (m - 1)/2, so

        beta_j = c_j sum_{k >= 0, j + 2k <= L} g_k g_{j+k} f_{j+2k},

    c_0 = 1 and c_j = 2 otherwise: L/2 + 1 slice updates of about r L^2 / 4
    entries in all, two products each.  Every g_k is positive, so
    nonnegative f gives nonnegative beta.
    """
    m = _checked_dimension(m)
    width = f.shape[-1]
    lam = (m - 1) / 2.0
    g = np.cumprod(np.r_[1.0, (lam + np.arange(width - 1)) / np.arange(1, width)])
    beta = np.zeros_like(f, dtype=float)
    for k in range((width + 1) // 2):
        n = width - 2 * k  # the degrees j = 0..L - 2k
        beta[..., :n] += (g[k] * g[k : k + n]) * f[..., 2 * k :]
    beta[..., 1:] *= 2.0
    return beta


def _halved_coefficients(beta: np.ndarray, depth: int) -> np.ndarray:
    """The map of sums over T_0..T_L onto the halved table: for beta of
    shape (r, L + 1), 2^h r rows on T_0..T_(L >> h), h = ``depth``, such
    that ``_recombine(rows @ _halved_table(L, h, t), levels, h)`` equals
    ``beta @ chebyshev_table(L, t)`` up to round-off.

    One halving writes sum_k beta_k T_k(t) as A(u) + t B(u): A_j = beta_2j,
    and B_i = c_i sum_(j >= i) (-1)^(j - i) beta_(2j+1), c_0 = 1 and c_i = 2
    otherwise, the alternating tail sums of the odd coefficients, from
    T_(2j+1)(t) = t (2 sum_(1 <= i <= j) (-1)^(j-i) T_i(u) + (-1)^j T_0(u)).
    Each level halves every row so far and stacks the A rows over the B
    rows, so bit i of a row's index (over r) says whether it carries the
    factor u_i.
    """
    rows = np.asarray(beta, dtype=float)
    signs = np.ones(rows.shape[-1])
    signs[1::2] = -1.0  # (-1)^j
    weights = 2.0 * signs  # (-1)^i c_i
    weights[0] = 1.0
    for _ in range(depth):
        count, width = len(rows), rows.shape[-1]
        n = width // 2  # the odd coefficients
        halved = np.zeros((2 * count, width - n))
        halved[:count] = rows[:, 0::2]
        # S_i = sum_(j >= i) (-1)^j beta_(2j+1), B_i = (-1)^i c_i S_i
        tails = np.cumsum((rows[:, 1::2] * signs[:n])[:, ::-1], axis=1)[:, ::-1]
        np.multiply(tails, weights[:n], out=halved[count:, :n])
        rows = halved
    return rows
