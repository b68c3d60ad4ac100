"""End-to-end acceptance checks.

Each test pins one headline guarantee at stated tolerances and prints a
one-line summary past the capture so the run log shows what was covered.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    LATE_FAILURES,
    NOT_SPD_PRODUCT_SUPPORTS_G0,
    SPD_BUT_INCONCLUSIVE,
    SPD_PRODUCT_SUPPORTS,
    S2HarmonicBasis,
    battery_1d,
    battery_2d,
    block_deviations,
    enhanced_points,
    jacobi_one_ref,
    oracle_class_member,
    oracle_witness_sound,
)
from spdkernels import (
    KernelSpec,
    SupportSet2D,
    Verdict,
    certify_circle_sphere,
    certify_circle_sphere_gamma_loop,
    certify_circle_tph,
    check_pd,
    circle_sphere_space,
    circle_table,
    circle_tph_space,
    gegenbauer_table,
    geometric_scheme,
    gram_matrix,
    jacobi_table,
    meets_every_progression,
    prog,
    sample_config,
    sufficient_product,
    witness_product,
)

_T0 = time.perf_counter()

ALL_FIXED_2D = (
    list(SPD_PRODUCT_SUPPORTS)
    + [s for s, _ in NOT_SPD_PRODUCT_SUPPORTS_G0]
    + [s for s, _, _ in LATE_FAILURES]
    + list(SPD_BUT_INCONCLUSIVE)
)


def _announce(capsys, line):
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_polynomial_normalization(capsys):
    # endpoint normalization: relative error below 1e-9 for n <= 50, m <= 10
    for m in range(2, 11):
        at_one = gegenbauer_table(50, m, [1.0])[:, 0]
        for n in range(51):
            want = math.comb(n + m - 2, n)
            assert abs(at_one[n] - want) <= 1e-9 * max(1.0, want), (n, m)

    # circle identity against cosines, k <= 64, absolute 1e-10
    theta = np.linspace(0.0, math.pi, 100)
    table = circle_table(64, np.cos(theta))
    for k in range(1, 65):
        assert np.abs(table[k] - (2.0 / k) * np.cos(k * theta)).max() <= 1e-10, k

    # parity and boundedness of the normalized ratio (each row divided by
    # its value at 1), every l <= 60, m <= 8
    grid = np.linspace(-1.0, 1.0, 41)
    signs = np.where(np.arange(61) % 2 == 0, 1.0, -1.0)[:, None]
    for m in range(2, 9):
        at_one = gegenbauer_table(60, m, [1.0])
        vals = gegenbauer_table(60, m, grid) / at_one
        mirrored = gegenbauer_table(60, m, -grid) / at_one
        assert np.abs(vals).max() <= 1.0 + 1e-10, m
        assert np.abs(mirrored - signs * vals).max() <= 1e-10, m

    _announce(capsys, "[1] polynomial families: normalization, circle identity, parity bounds")


def test_criterion_2_addition_theorem(capsys):
    rng = np.random.default_rng(42)
    for l in range(16):
        basis = S2HarmonicBasis(l)
        u = rng.normal(size=(100, 3))
        v = rng.normal(size=(100, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        lhs = (basis(u) * basis(v)).sum(axis=0)
        dots = np.clip((u * v).sum(axis=1), -1.0, 1.0)
        # on S^2 the value at 1 is binom(l, l) = 1: the rows are Legendre polynomials
        rhs = (2 * l + 1) / (4 * math.pi) * gegenbauer_table(l, 2, dots)[l]
        assert np.abs(lhs - rhs).max() <= 1e-8, l
    _announce(capsys, "[2] addition theorem on S^2 holds to 1e-8 for l <= 15, 100 pairs each")


def test_criterion_3_enhanced_block_structure(capsys):
    spec = KernelSpec(
        circle_sphere_space(2),
        SupportSet2D(((prog(0, 1), prog(0, 1)),)),
        geometric_scheme(),
        (40, 40),
    )
    bound = 1e-12 * spec.value_at_one
    rng = np.random.default_rng(7)
    for trial in range(20):
        p = int(rng.integers(1, 5))
        q = int(rng.integers(1, 5))
        xs, zs = sample_config(2, p, q, seed=1000 + trial)
        points = enhanced_points(xs, zs)
        for degree in range(41):
            dev_diag, dev_off = block_deviations(spec, points, degree)
            assert dev_diag <= bound, (trial, degree)
            assert dev_off <= bound, (trial, degree)
    _announce(capsys, "[3] 20 enhanced configurations: block identities exact through degree 40")


def test_criterion_4_circle_decisions_sound_and_complete(capsys):
    supports = battery_1d(seed=20260817, count=200)
    refused = accepted = 0
    for support in supports:
        ok, witness = meets_every_progression(support)
        if not ok:
            refused += 1
            assert witness is not None
            assert oracle_witness_sound(support, witness, window=10_000), (support, witness)
        else:
            accepted += 1
            for n in range(1, 65):
                for j in range(n):
                    member = oracle_class_member(support, n, j, bound=100_000)
                    assert member is not None, (support, n, j)
    assert refused >= 20 and accepted >= 20
    _announce(
        capsys,
        f"[4] 200 random supports: {refused} refusals window-checked, "
        f"{accepted} acceptances cover all classes mod 1..64",
    )


def test_criterion_5_product_routes_agree(capsys):
    supports = ALL_FIXED_2D + battery_2d(seed=31337, count=60)
    assert len(supports) >= 50
    for support in supports:
        a = certify_circle_sphere(support, 2)
        b = certify_circle_sphere_gamma_loop(support, 2, None)
        assert a.verdict == b.verdict, support
        if a.verdict is Verdict.NOT_SPD:
            fa, fb = a.counterexample, b.counterexample
            assert (fa.gamma, fa.parity) == (fb.gamma, fb.parity), support
    _announce(capsys, f"[5] {len(supports)} supports: both product routes return identical verdicts")


def test_criterion_6_sufficient_tests_safe(capsys):
    supports = ALL_FIXED_2D + battery_2d(seed=99, count=80)
    positives = 0
    for support in supports:
        for axis in ("circle-outer", "sphere-outer"):
            cert = sufficient_product(support, 2, axis)
            assert cert.verdict in (Verdict.SUFFICIENT_ONLY, Verdict.INCONCLUSIVE)
            if cert.verdict is Verdict.SUFFICIENT_ONLY:
                positives += 1
                assert certify_circle_sphere(support, 2).verdict is Verdict.SPD, (support, axis)
    assert positives > 0
    assert len(SPD_BUT_INCONCLUSIVE) >= 3
    for support in SPD_BUT_INCONCLUSIVE:
        assert certify_circle_sphere(support, 2).verdict is Verdict.SPD
        for axis in ("circle-outer", "sphere-outer"):
            assert sufficient_product(support, 2, axis).verdict is Verdict.INCONCLUSIVE
    _announce(
        capsys,
        f"[6] sufficient tests: {positives} positives all confirmed SPD, "
        f"{len(SPD_BUT_INCONCLUSIVE)} SPD supports stay inconclusive on both axes",
    )


def test_criterion_7_numerics_match_verdicts(capsys):
    scheme = geometric_scheme(r_k=0.9, r_l=0.9)
    space = circle_sphere_space(2)

    # refuted supports carry constructed witnesses with tiny relative residuals
    witnessed = 0
    for support, _ in NOT_SPD_PRODUCT_SUPPORTS_G0:
        spec = KernelSpec(space, support, scheme, (60, 60))
        cert = certify_circle_sphere(support, 2)
        w = witness_product(spec, cert)
        norm_sq = float(np.sum(np.square(w.coefficients)))
        assert abs(w.residual) <= 1e-10 * spec.value_at_one * norm_sq, support
        witnessed += 1
    assert witnessed >= 10

    # so do failures past gamma = 0, on several spheres and truncations
    late = [s for s, _, _ in LATE_FAILURES] + battery_2d(seed=2024, count=80)
    deep = 0
    for m in (2, 3, 5):
        for box in ((20, 20), (60, 60)):
            for support in late:
                cert = certify_circle_sphere(support, m)
                if cert.verdict is not Verdict.NOT_SPD:
                    continue
                w = witness_product(KernelSpec(circle_sphere_space(m), support, scheme, box), cert)
                assert abs(w.residual) <= 1e-10 * w.scale, (m, box, support)
                witnessed += 1
                deep += cert.counterexample.gamma > 0
    assert deep >= 3 * 2 * len(LATE_FAILURES)

    # certified supports produce positive definite Gram matrices at 30 points
    confirmed = 0
    for idx, support in enumerate(SPD_PRODUCT_SUPPORTS):
        spec = KernelSpec(space, support, scheme, (60, 60))
        xs, zs = sample_config(2, 30, 30, seed=500 + idx)
        a = gram_matrix(spec, list(zip(xs, zs)))
        ok, lam = check_pd(a, tol=1e-10)
        assert ok, (support, lam)
        assert lam > 1e-10 * spec.value_at_one, (support, lam)
        confirmed += 1
    assert confirmed >= 10
    _announce(
        capsys,
        f"[7] numerics: {witnessed} refusals ({deep} past gamma 0) carry exact witnesses, "
        f"{confirmed} certified supports give PD Gram matrices",
    )


def test_criterion_8_projective_second_factor(capsys):
    space = circle_tph_space("real_proj", 2)
    accept = certify_circle_tph(
        SupportSet2D(((prog(0, 1), prog(0, 2)),)), space, None
    )
    assert accept.verdict is Verdict.SPD
    reject = certify_circle_tph(
        SupportSet2D(((prog(0, 2), prog(0, 1)),)), space, None
    )
    assert reject.verdict is Verdict.NOT_SPD
    failure = reject.counterexample
    assert (failure.witness.modulus, failure.witness.residue) == (2, 1)

    # the four geometry families pin (alpha, beta); check degree-1 closed form
    # and endpoint normalization for each
    families = [("real_proj", 2), ("complex_proj", 4), ("quat_proj", 8), ("cayley", 16)]
    betas = []
    for family, d in families:
        sp = circle_tph_space(family, d)
        alpha, beta = sp.alpha, sp.beta
        betas.append(beta)
        grid = np.linspace(-1, 1, 9)
        degree_one = jacobi_table(1, alpha, beta, grid)[1]
        for x, got in zip(grid, degree_one):
            expect = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2
            assert got == pytest.approx(expect, abs=1e-12)
        table = jacobi_table(10, alpha, beta, np.array([1.0]))
        for l in range(11):
            want = jacobi_one_ref(l, alpha)
            assert table[l, 0] == pytest.approx(want, rel=1e-12), (family, l)
    assert betas == [-0.5, 0.0, 1.0, 3.0]
    _announce(capsys, "[8] projective families: verdicts and Jacobi normalizations check out")


def test_criterion_9_performance(capsys):
    # worst single certification stays under a second
    worst = 0.0
    for support in ALL_FIXED_2D:
        t0 = time.perf_counter()
        certify_circle_sphere(support, 2)
        certify_circle_sphere_gamma_loop(support, 2, None)
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 1.0, worst

    # a 200-point Gram assembly plus eigensolve stays under five seconds
    spec = KernelSpec(
        circle_sphere_space(2),
        SupportSet2D(((prog(0, 1), prog(0, 1)),)),
        geometric_scheme(),
        (60, 60),
    )
    xs, zs = sample_config(2, 200, 200, seed=2)
    t0 = time.perf_counter()
    a = gram_matrix(spec, list(zip(xs, zs)))
    ok, _ = check_pd(a)
    gram_elapsed = time.perf_counter() - t0
    assert ok
    assert gram_elapsed < 5.0, gram_elapsed

    total = time.perf_counter() - _T0
    assert total < 120.0, total
    _announce(
        capsys,
        f"[9] performance: worst certification {worst * 1e3:.0f} ms, "
        f"200-point Gram {gram_elapsed:.2f} s, acceptance module {total:.1f} s",
    )
