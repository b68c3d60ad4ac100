"""Point models and sampling, and the reference enhanced sets, spherical
harmonics and quadrature of ``conftest``."""

import logging
import math
import warnings

import numpy as np
import pytest

from conftest import (
    S2HarmonicBasis,
    antipode,
    circle_gap,
    enhanced_points,
    s2_quadrature,
    sphere_dot,
    sphere_point,
)
from spdkernels import CirclePoint, SamplingError, SpherePoint, gegenbauer_table, geometry, sample_config


# --- point models -----------------------------------------------------------------

def test_circle_point_canonical():
    p = CirclePoint(2 * math.pi + 0.5)
    assert p.theta == pytest.approx(0.5)
    q = CirclePoint(-0.25)
    assert q.theta == pytest.approx(2 * math.pi - 0.25)


def test_sphere_point_validation():
    assert SpherePoint((1.0, 0.0, 0.0)).coords == (1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        SpherePoint((0.5, 0.0, 0.0))
    with pytest.raises(ValueError):
        SpherePoint((1.0, 0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_sphere_point_refuses_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        SpherePoint((bad, 0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        SpherePoint((1.0, bad, 0.0))


# --- sampling ----------------------------------------------------------------------

def test_sample_config_deterministic():
    a = sample_config(2, 5, 4, seed=9)
    b = sample_config(2, 5, 4, seed=9)
    assert [p.theta for p in a[0]] == [p.theta for p in b[0]]
    assert [tuple(z.coords) for z in a[1]] == [tuple(z.coords) for z in b[1]]
    c = sample_config(2, 5, 4, seed=10)
    assert [p.theta for p in a[0]] != [p.theta for p in c[0]]


def test_sample_config_separation():
    xs, zs = sample_config(3, 12, 12, seed=3)
    assert len(xs) == 12 and len(zs) == 12
    for i in range(12):
        for j in range(i + 1, 12):
            assert circle_gap(xs[i], xs[j]) > 1e-9
            assert abs(sphere_dot(zs[i], zs[j])) < 1.0 - 1e-12


def test_sample_config_rejects_overfull_circle(monkeypatch):
    # at gap 2 radians the circle cannot hold ten points
    monkeypatch.setattr(geometry, "_SAMPLING_GAP", 2.0)
    with pytest.raises(SamplingError):
        sample_config(2, 10, 0, seed=0)


def _pointwise_sample_config(m, n_circle, n_sphere, seed, min_gap=1e-9, max_resamples=1000):
    """The sampler as first written: every candidate is compared with every
    accepted point in a Python loop.  Returns (thetas, coords, resamples)."""
    rng = np.random.default_rng(seed)
    resamples = 0
    xs = []
    while len(xs) < n_circle:
        cand = CirclePoint(float(rng.uniform(0.0, 2.0 * math.pi)))
        if all(circle_gap(cand, p) > min_gap for p in xs):
            xs.append(cand)
        else:
            resamples += 1
            if resamples > max_resamples:
                raise SamplingError(f"circle sampling failed after {max_resamples} resamples")
    zs = []
    while len(zs) < n_sphere:
        vec = rng.standard_normal(m + 1)
        if float(np.linalg.norm(vec)) < 1e-8:
            resamples += 1
            continue
        cand = sphere_point(vec)
        if all(
            math.dist(cand.coords, z.coords) > min_gap
            and math.dist(cand.coords, antipode(z).coords) > min_gap
            for z in zs
        ):
            zs.append(cand)
        else:
            resamples += 1
            if resamples > max_resamples:
                raise SamplingError(f"sphere sampling failed after {max_resamples} resamples")
    return [x.theta for x in xs], [z.coords for z in zs], resamples


def _sampled_resamples(caplog):
    (record,) = [r for r in caplog.records if r.name == "spdkernels.geometry"]
    return int(record.getMessage().split(" used ")[1].split()[0])


# at m = 10 the batch screen's slack, 16 (m + 1) eps, is widest
@pytest.mark.parametrize("m", [2, 5, 10])
@pytest.mark.parametrize("seed", [0, 1, 7, 123, 2024])
@pytest.mark.parametrize(
    "n_circle, n_sphere, min_gap",
    [(17, 5, 1e-9), (3, 40, 1e-9), (0, 9, 1e-9), (12, 0, 1e-9), (10, 6, 0.3), (4, 5, 0.8)],
)
def test_sample_config_matches_pointwise_reference(
    caplog, monkeypatch, m, seed, n_circle, n_sphere, min_gap
):
    caplog.set_level(logging.DEBUG, logger="spdkernels.geometry")
    monkeypatch.setattr(geometry, "_SAMPLING_GAP", min_gap)
    xs, zs = sample_config(m, n_circle, n_sphere, seed)
    thetas, coords, resamples = _pointwise_sample_config(m, n_circle, n_sphere, seed, min_gap)
    assert [x.theta for x in xs] == thetas
    assert [z.coords for z in zs] == coords
    assert _sampled_resamples(caplog) == resamples
    if min_gap > 0.1:
        assert resamples > 0


class _ZeroRow:
    """A generator whose k-th standard normal row of ``width`` values, counted
    over every draw, is zero: a sphere draw that cannot be normalized."""

    def __init__(self, rng, k, width):
        self.rng, self.k, self.width, self.rows = rng, k, width, 0

    def uniform(self, *args, **kwargs):
        return self.rng.uniform(*args, **kwargs)

    def standard_normal(self, size):
        draws = self.rng.standard_normal(size)
        rows = draws.reshape(-1, self.width)
        if 0 <= self.k - self.rows < len(rows):
            rows[self.k - self.rows] = 0.0
        self.rows += len(rows)
        return draws


@pytest.mark.parametrize("k", [0, 5, 11])
def test_sample_config_resamples_a_degenerate_sphere_draw(caplog, monkeypatch, k):
    # the sampler and the reference both draw from the wrapped generator
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ZeroRow(real(seed), k, 3))
    caplog.set_level(logging.DEBUG, logger="spdkernels.geometry")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, zs = sample_config(2, 4, 12, seed=11)
    thetas, coords, resamples = _pointwise_sample_config(2, 4, 12, 11)
    assert [x.theta for x in xs] == thetas
    assert [z.coords for z in zs] == coords
    assert _sampled_resamples(caplog) == resamples == 1


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_sample_config_decides_like_math_dist_at_the_gap(monkeypatch, seed):
    # the gap set to the distance between the first two points the sampler
    # draws: the second candidate sits exactly on the boundary
    _, (z0, z1), _ = _pointwise_sample_config(2, 0, 2, seed)
    d = min(math.dist(z0, z1), math.dist(z0, [-c for c in z1]))
    for gap in (math.nextafter(d, 0.0), d, math.nextafter(d, 2.0)):
        _, coords, resamples = _pointwise_sample_config(2, 0, 3, seed, gap)
        monkeypatch.setattr(geometry, "_SAMPLING_GAP", gap)
        _, zs = sample_config(2, 0, 3, seed)
        assert [z.coords for z in zs] == coords
        assert (zs[1].coords == z1) == (gap < d)


@pytest.mark.parametrize("n_circle, n_sphere", [(10, 0), (0, 12), (3, 30)])
def test_sample_config_gives_up_like_the_pointwise_reference(monkeypatch, n_circle, n_sphere):
    with pytest.raises(SamplingError) as expected:
        _pointwise_sample_config(2, n_circle, n_sphere, 5, min_gap=1.5)
    monkeypatch.setattr(geometry, "_SAMPLING_GAP", 1.5)
    with pytest.raises(SamplingError) as got:
        sample_config(2, n_circle, n_sphere, 5)
    assert str(got.value) == str(expected.value)


# --- enhanced configurations -----------------------------------------------------------

def test_enhanced_layout():
    xs = [CirclePoint(0.0), CirclePoint(1.0), CirclePoint(2.0)]
    zs = [SpherePoint((1.0, 0.0, 0.0)), SpherePoint((0.0, 1.0, 0.0))]
    points = enhanced_points(xs, zs)
    assert len(points) == 2 * 3 * 2
    # plain block first, x varying fastest inside each z
    for j, z in enumerate(zs):
        for i, x in enumerate(xs):
            px, pz = points[j * 3 + i]
            assert px.theta == x.theta and tuple(pz.coords) == tuple(z.coords)
    # antipodal block mirrors the sphere part only
    for j, z in enumerate(zs):
        for i, x in enumerate(xs):
            px, pz = points[6 + j * 3 + i]
            assert px.theta == x.theta
            assert tuple(pz.coords) == tuple(antipode(z).coords)


# --- harmonics and quadrature ------------------------------------------------------------

def test_quadrature_weights_cover_the_sphere():
    pts, w = s2_quadrature(10)
    assert w.sum() == pytest.approx(4 * math.pi, rel=1e-12)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0)


def test_harmonics_orthonormal_under_quadrature():
    pts, w = s2_quadrature(21)
    blocks = []
    for l in range(11):
        basis = S2HarmonicBasis(l)
        blocks.append(basis(pts))
    stacked = np.vstack(blocks)
    gram = (stacked * w) @ stacked.T
    assert np.allclose(gram, np.eye(stacked.shape[0]), atol=1e-8)


def test_addition_theorem_degree_three():
    rng = np.random.default_rng(12)
    basis = S2HarmonicBasis(3)
    for _ in range(25):
        u = rng.normal(size=3)
        v = rng.normal(size=3)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        lhs = float(basis(u[None, :])[:, 0] @ basis(v[None, :])[:, 0])
        # on S^2 the value at 1 is binom(3, 3) = 1: the table holds Legendre values
        rhs = (2 * 3 + 1) / (4 * math.pi) * gegenbauer_table(3, 2, [u @ v])[3, 0]
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_harmonic_count_per_degree():
    for l in (0, 1, 4, 9):
        basis = S2HarmonicBasis(l)
        vals = basis(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]))
        assert vals.shape == (2 * l + 1, 2)
