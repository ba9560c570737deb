"""SU(2) numerics: cocycles, clutching functions, curvature forms, quadrature."""

import functools
import math
import re
import tracemalloc
from itertools import permutations, product
from unittest import mock

import numpy as np
import pytest

from tcclasses import chernweil
from tcclasses.chernweil import (
    BOUNDARY_TOL,
    ClutchingFunction,
    CocyclePair,
    PartitionProfile,
    QuadratureGrid,
    SU2Map,
    a_form_integral,
    build_clutching_pair,
    build_example_cocycles,
    chern2,
    clutching_example,
    constant_clutching,
    curvature_local_form,
    det_curvature_su2,
    f2_moment,
    hemisphere_difference,
    integrate_chart,
    mapping_degree,
    paper_example_clutching,
    quaternion_power_clutching,
    standard_profile,
    unit_pole_chart,
)
from tcclasses.chernweil import _re_A, _volume_pullback

from su2_scalar import SU2Matrix, su2_inverse, su2_power, su2_product

RNG = np.random.default_rng(20260809)


def random_su2(rng=RNG) -> SU2Matrix:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return SU2Matrix(complex(q[0], q[1]), complex(q[2], q[3]))


class TestSU2Ops:
    def test_identity_neutral(self):
        a = random_su2()
        assert su2_product(SU2Matrix.identity(), a) == a

    def test_inverse(self):
        a = random_su2()
        prod = su2_product(a, su2_inverse(a))
        assert abs(prod.z - 1) < 1e-12 and abs(prod.w) < 1e-12

    def test_zeroth_power(self):
        assert su2_power(random_su2(), 0) == SU2Matrix.identity()

    def test_power_consistency(self):
        a = random_su2()
        direct = SU2Matrix.identity()
        for _ in range(7):
            direct = su2_product(direct, a)
        fast = su2_power(a, 7)
        assert abs(fast.z - direct.z) < 1e-12 and abs(fast.w - direct.w) < 1e-12
        inv7 = su2_power(a, -7)
        back = su2_product(fast, inv7)
        assert abs(back.z - 1) < 1e-11 and abs(back.w) < 1e-11

    def test_unit_invariant_enforced(self):
        with pytest.raises(ValueError):
            SU2Matrix(1.0, 1.0)

    def test_drift_control_long_chains(self):
        a = random_su2()
        big = su2_power(a, 1_000_003)
        assert abs(abs(big.z) ** 2 + abs(big.w) ** 2 - 1.0) < 1e-12


class TestSU2Map:
    def test_constant_rejects_a_non_unit_pair(self):
        with pytest.raises(ValueError, match=r"not a unit pair: \|z\|\^2\+\|w\|\^2 = 2\.0"):
            SU2Map.constant(1.0, 1.0)

    def test_constant_rejects_a_nan_pair(self):
        with pytest.raises(ValueError, match=r"not a unit pair: \|z\|\^2\+\|w\|\^2 = nan"):
            SU2Map.constant(float("nan"), 0)

    def test_analytic_partials_match_central_differences(self):
        pair = build_example_cocycles()
        chart = pair.rho1.inverse() * pair.rho2.inverse()
        pts = (np.array([0.9, 2.2, 4.0]), np.array([0.4, 1.1, 2.5]), np.array([0.3, 0.6, 0.9]))
        assert_partials_match_central_differences(chart, pts, h=1e-6, tol=1e-8)

    def test_product_is_pointwise_product(self):
        pair = build_example_cocycles()
        prod = pair.rho1 * pair.rho2
        a, b, r = 1.0, 0.8, 0.5
        z1, w1 = pair.rho1(a, b, r)
        z2, w2 = pair.rho2(a, b, r)
        expected = su2_product(SU2Matrix(complex(z1), complex(w1)),
                               SU2Matrix(complex(z2), complex(w2)))
        z, w = prod(a, b, r)
        assert abs(complex(z) - expected.z) < 1e-13
        assert abs(complex(w) - expected.w) < 1e-13

    def test_unit_norm_preserved(self):
        pair = build_example_cocycles()
        chart = (pair.rho1 * pair.rho2).power(3).inverse()
        a = np.linspace(0.1, 6.2, 11)[:, None, None]
        b = np.linspace(0.05, 3.1, 11)[None, :, None]
        r = np.linspace(0.05, 0.95, 11)[None, None, :]
        z, w = chart(a, b, r)
        assert np.max(np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1)) < 1e-12


class TestPartitionProfile:
    def test_standard_profile_valid(self):
        f2 = standard_profile()
        assert f2(-1.0) == 1.0 and f2(0.9) == 0.0
        assert f2(0.0) == pytest.approx(0.5)

    def test_constant_profile_rejected(self):
        with pytest.raises(ValueError):
            PartitionProfile(lambda h: np.ones_like(np.asarray(h, dtype=float)),
                             lambda h: np.zeros_like(np.asarray(h, dtype=float)))

    def test_increasing_profile_rejected(self):
        f2 = standard_profile()
        with pytest.raises(ValueError):
            PartitionProfile(lambda h: 1.0 - f2.fn(h), lambda h: -f2.derivative(h))

    def test_kinked_profile_rejected(self):
        def kinked(h):
            h = np.asarray(h, dtype=float)
            return np.clip(0.5 - 1.5 * h, 0.0, 1.0)

        def kinked_derivative(h):
            h = np.asarray(h, dtype=float)
            return np.where(np.abs(h) < 1 / 3, -1.5, 0.0)
        with pytest.raises(ValueError, match="differentiable"):
            PartitionProfile(kinked, kinked_derivative)

    @pytest.mark.parametrize("scale", [0.0, 2.0, -1.0])
    def test_derivative_of_another_function_rejected(self, scale):
        # A zero derivative would make f2_moment read 0.0 instead of -1/6.
        f2 = standard_profile()
        with pytest.raises(ValueError, match="derivative"):
            PartitionProfile(f2.fn, lambda h: scale * f2.derivative(h))

    @pytest.mark.parametrize("field", ["fn", "derivative"])
    def test_profile_nan_near_zero_rejected(self, field):
        # NaN compares False with every bound: each check is "not ... <=".
        f2 = standard_profile()
        parts = f2._asdict()
        good = parts[field]
        parts[field] = lambda h: np.where(np.abs(h) < 0.1, np.nan, good(h))
        with pytest.raises(ValueError, match="monotone" if field == "fn" else "derivative"):
            PartitionProfile(**parts)

    def test_moment_is_minus_one_sixth(self):
        assert f2_moment(standard_profile()) == pytest.approx(-1 / 6, abs=1e-12)


class TestQuadratureGrid:
    def test_weight_sums(self):
        grid = QuadratureGrid.make(24)
        assert np.sum(grid.alpha_weights) == pytest.approx(2 * math.pi, abs=1e-12)
        assert np.sum(grid.beta_weights) == pytest.approx(math.pi, abs=1e-12)
        assert np.sum(grid.r_weights) == pytest.approx(1.0, abs=1e-12)

    def test_open_rule_avoids_seams(self):
        grid = QuadratureGrid.make(32)
        assert np.all(grid.r_nodes > 0) and np.all(grid.r_nodes < 1)
        assert not np.any(np.isclose(grid.beta_nodes, math.pi / 2, atol=1e-12))

    def test_odd_beta_rejected(self):
        with pytest.raises(ValueError):
            QuadratureGrid.make(16, 15, 16)

    def test_halved(self):
        counts = QuadratureGrid.make(48).halved().counts()
        assert counts == {"alpha": 24, "beta": 24, "r": 24}

    # The alpha axis computes no Legendre rule: only n_beta // 2 and n_r do.
    @pytest.mark.parametrize("sizes, rules", [((192,), 2), ((32, 64, 16), 2), ((64, 32, 48), 2)])
    def test_one_rule_per_distinct_size(self, sizes, rules):
        rule = chernweil._legendre_rule
        rule.cache_clear()  # rules earlier tests computed
        grid = QuadratureGrid.make(*sizes)
        assert rule.cache_info().misses == rules
        QuadratureGrid.make(*sizes)  # a second grid of the same sizes computes no rule
        assert rule.cache_info().misses == rules

        def mapped(n, lo, hi):  # each axis's own rule, mapped onto [lo, hi]
            t, w = rule(n)
            return (hi - lo) / 2 * t + (hi + lo) / 2, (hi - lo) / 2 * w

        n_alpha, n_beta, n_r = (sizes * 3)[:3]
        halves = [mapped(n_beta // 2, lo, hi)
                  for lo, hi in ((0, math.pi / 2), (math.pi / 2, math.pi))]
        step = 2 * math.pi / n_alpha
        for (nodes, weights), (x, w) in (
                ((grid.alpha_nodes, grid.alpha_weights),
                 (np.arange(n_alpha) * step, np.full(n_alpha, step))),
                ((grid.beta_nodes, grid.beta_weights),
                 tuple(np.concatenate(pair) for pair in zip(*halves))),
                ((grid.r_nodes, grid.r_weights), mapped(n_r, 0.0, 1.0))):
            assert np.array_equal(nodes, x) and np.array_equal(weights, w)
        assert rule.cache_info().misses == rules

    def test_memoized_rules_are_read_only_and_unchanged(self):
        nodes, weights = chernweil._legendre_rule(48)
        assert chernweil._legendre_rule(48)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        fresh = chernweil._legendre_rule.__wrapped__(48)
        assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
        with pytest.raises(ValueError):
            nodes[0] = 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 48, 96, 192, 256])
    def test_rule_matches_a_40_digit_reference(self, n):
        # The reference refines each node by Newton's method on the Legendre
        # recurrence at 40 digits.  Measured: nodes within 6.2e-17, weights
        # within 5.7e-13 relative at n = 256 (numpy's leggauss: 4.2e-11 at
        # n = 192, outside this bound).
        mpmath = pytest.importorskip("mpmath")
        nodes, weights = chernweil._legendre_rule(n)
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])

        def legendre(x):  # P_n(x) and P_n'(x)
            p0, p1 = mpmath.mpf(1), x
            for j in range(1, n):
                p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
            return p1, n * (x * p1 - p0) / (x * x - 1)

        with mpmath.workdps(40):
            for i in range(n // 2, n):  # the nonnegative half; the rule is symmetric
                x = mpmath.mpf(float(nodes[i]))
                for _ in range(3):
                    p, dp = legendre(x)
                    x -= p / dp
                weight = 2 / ((1 - x * x) * legendre(x)[1] ** 2)
                assert abs(float(nodes[i] - x)) <= 2.2e-16
                assert abs(float((weights[i] - weight) / weight)) <= 1e-12


class TestExampleCocycles:
    def test_rho1_boundary_value(self):
        pair = build_example_cocycles()
        z, w = pair.rho1(np.float64(0.7), np.float64(0.0), np.float64(1.0))
        assert complex(z) == pytest.approx(np.exp(0.7j))
        assert abs(complex(w)) < 1e-15

    def test_rho2_center_value(self):
        pair = build_example_cocycles()
        z, w = pair.rho2(np.float64(0.3), np.float64(math.pi), np.float64(0.0))
        assert complex(z) == pytest.approx(1.0)
        assert abs(complex(w)) < 1e-15

    def test_branch_agreement_at_seam(self):
        pair = build_example_cocycles()
        eps = 1e-9
        for rho in (pair.rho1, pair.rho2):
            for r in (0.2, 0.5, 0.8, 1.0):
                zl, wl = rho(np.float64(1.1), np.float64(math.pi / 2 - eps), np.float64(r))
                zr, wr = rho(np.float64(1.1), np.float64(math.pi / 2 + eps), np.float64(r))
                assert abs(complex(zl) - complex(zr)) < 1e-7
                assert abs(complex(wl) - complex(wr)) < 1e-7

    def test_boundary_commutativity(self):
        pair = build_example_cocycles()
        assert pair.max_commutator() <= BOUNDARY_TOL
        assert pair.verify_boundary()

    def test_example_pair_meets_only_the_boundary_hypothesis(self):
        # build_clutching_pair needs commutativity at r = 1 alone; inside the
        # disk the paper's pair does not commute.
        pair = build_example_cocycles()
        assert pair.verify_boundary()
        coords = (np.float64(1.1), np.float64(2.0), np.float64(0.9))
        z1, w1 = (pair.rho1 * pair.rho2)(*coords)
        z2, w2 = (pair.rho2 * pair.rho1)(*coords)
        assert abs(complex(z1) - complex(z2)) + abs(complex(w1) - complex(w2)) > 0.1
        build_clutching_pair(pair)


class TestInverseChartClosedForms:
    """The inverse-bundle charts agree with their displayed closed forms."""

    def test_low_beta_branch(self):
        phis = build_clutching_pair(build_example_cocycles())
        for alpha, beta, r in ((0.3, 0.4, 0.2), (2.1, 1.2, 0.7), (5.0, 0.9, 0.95)):
            s, c = math.sin(math.pi / 2 * r), math.cos(math.pi / 2 * r)
            spr, cpr = math.sin(math.pi * r), math.cos(math.pi * r)
            z_ref = -s * cpr * np.exp(-1j * (alpha + 2 * beta)) - spr * c
            w_upper = cpr * c * np.exp(-2j * beta) - spr * s * np.exp(1j * alpha)
            zu, wu = phis.phi_Einv.upper(np.float64(alpha), np.float64(beta), np.float64(r))
            assert abs(complex(zu) - z_ref) < 1e-13
            assert abs(complex(wu) - w_upper) < 1e-13
            # lower chart: same z, conjugated w
            zl, wl = phis.phi_Einv.lower(np.float64(alpha), np.float64(beta), np.float64(r))
            assert abs(complex(zl) - z_ref) < 1e-13
            assert abs(complex(wl) - np.conj(w_upper)) < 1e-13

    def test_high_beta_branch(self):
        phis = build_clutching_pair(build_example_cocycles())
        for alpha, beta, r in ((0.8, 2.0, 0.3), (4.2, 2.9, 0.85)):
            srb, crb = math.sin(r * beta), math.cos(r * beta)
            spr, cpr = math.sin(math.pi * r), math.cos(math.pi * r)
            z_ref = srb * cpr * np.exp(-1j * alpha) - spr * crb
            w_upper = -spr * srb * np.exp(1j * alpha) - cpr * crb
            zu, wu = phis.phi_Einv.upper(np.float64(alpha), np.float64(beta), np.float64(r))
            assert abs(complex(zu) - z_ref) < 1e-13
            assert abs(complex(wu) - w_upper) < 1e-13
            zl, wl = phis.phi_Einv.lower(np.float64(alpha), np.float64(beta), np.float64(r))
            assert abs(complex(zl) - z_ref) < 1e-13
            assert abs(complex(wl) - np.conj(w_upper)) < 1e-13


class TestClutchingConstruction:
    def test_phi_e_single_formula(self):
        pair = build_example_cocycles()
        phis = build_clutching_pair(pair)
        assert phis.phi_E.boundary_mismatch() == 0.0
        a, b, r = 0.5, 2.0, 0.7
        zu, wu = phis.phi_E.upper(np.float64(a), np.float64(b), np.float64(r))
        zl, wl = phis.phi_E.lower(np.float64(a), np.float64(b), np.float64(r))
        assert complex(zu) == complex(zl) and complex(wu) == complex(wl)

    def test_phi_einv_boundary_agreement(self):
        phis = build_clutching_pair(build_example_cocycles())
        assert phis.phi_Einv.boundary_mismatch() <= BOUNDARY_TOL

    def test_constant_pair_gives_constant_clutchings(self):
        pair = CocyclePair(SU2Map.constant(1.0, 0.0), SU2Map.constant(1.0, 0.0))
        phis = build_clutching_pair(pair)
        z, w = phis.phi_Einv.upper(np.float64(1.0), np.float64(1.0), np.float64(0.5))
        assert complex(z) == pytest.approx(1.0) and abs(complex(w)) < 1e-15

    def test_charts_that_disagree_at_the_boundary_are_rejected(self):
        h = hemisphere_chart()
        phi = ClutchingFunction(h, h.power(2).mirror())
        assert phi.boundary_mismatch() == pytest.approx(2.0, abs=1e-3)  # max over the mesh
        with pytest.raises(ValueError, match="disagree at r = 1"):
            phi.check_boundary()

    def test_paper_checks_its_boundaries_on_six_leaf_jets(self, monkeypatch):
        # max_commutator evaluates rho1 and rho2 once each, and check_boundary
        # the returned pair: the upper chart's two leaves and the mirror's base's.
        leaves, jet = [], SU2Map.jet

        def logged(self, *coords):
            if not self.origin:
                leaves.append(self.phases)
            return jet(self, *coords)
        monkeypatch.setattr(SU2Map, "jet", logged)
        clutching_example("paper")
        assert sorted(leaves) == [(0, 0)] * 3 + [(1, 0)] * 3

    def test_paper_rejects_a_lower_chart_that_disagrees_at_the_boundary(self, monkeypatch):
        # The returned pair itself is checked: with the inverse (the mirror
        # "yuv") in place of R, its lower chart leaves the upper one at r = 1.
        mirror = SU2Map.mirror
        monkeypatch.setattr(SU2Map, "mirror", lambda self, flips="v": mirror(self, "yuv"))
        with pytest.raises(ValueError, match="disagree at r = 1"):
            clutching_example("paper")

    def test_inverse_charts_gap_is_the_commutator_over_sqrt2(self):
        # (ab)^-1 - (ba)^-1 = (ab)^-1 (ba - ab) (ba)^-1, and unitary factors keep
        # the Frobenius norm: build_clutching_pair checks the commutator alone.
        i_j = CocyclePair(SU2Map.constant(1j, 0.0), SU2Map.constant(0.0, 1.0))
        for pair in (build_example_cocycles(), i_j):
            inv1, inv2 = pair.rho1.inverse(), pair.rho2.inverse()
            gap = ClutchingFunction(inv1 * inv2, inv2 * inv1).boundary_mismatch()
            assert gap == pytest.approx(pair.max_commutator() / math.sqrt(2), rel=1e-15, abs=1e-15)

    def test_charts_with_a_nan_boundary_are_rejected(self):
        # No Gauss-Legendre r node reaches r = 1, so chern2 would not see the NaN.
        chart = unit_pole_chart()

        def jet(alpha, beta, r):
            z, w, zd, wd = chart.jet(alpha, beta, r)
            return np.where(r == 1.0, np.nan, z), w, zd, wd
        bad = SU2Map(jet, phases=chart.phases)
        with pytest.raises(ValueError, match=r"disagree at r = 1 \(max gap nan\)"):
            ClutchingFunction(bad, bad.mirror("x")).check_boundary()

    def test_noncommuting_pair_rejected(self):
        # Two constant maps that do not commute anywhere.
        i_mat = SU2Map.constant(1j, 0.0)
        j_mat = SU2Map.constant(0.0, 1.0)
        with pytest.raises(ValueError, match="commute"):
            build_clutching_pair(CocyclePair(i_mat, j_mat))

    def test_commutator_norm_of_i_and_j(self):
        # ij - ji = 2k, whose Frobenius norm is 2 sqrt(2).
        pair = CocyclePair(SU2Map.constant(1j, 0.0), SU2Map.constant(0.0, 1.0))
        assert pair.max_commutator() == pytest.approx(2 * math.sqrt(2), rel=1e-15, abs=0.0)


class TestChernQuadrature:
    def test_paper_example_small_grid(self):
        phi = paper_example_clutching()
        grid = QuadratureGrid.make(48)
        assert chern2(phi, grid) == pytest.approx(-1.0, abs=0.02)
        assert a_form_integral(phi, grid) == pytest.approx(-math.pi ** 2, rel=0.01)

    @pytest.mark.parametrize("name, size", [("paper", 48), ("qpow:2", 16)])
    def test_chern2_is_the_reports_c2_to_the_bit(self, name, size):
        # The chern2 report writes a_form_integral / pi^2 (and so does error_estimate's
        # coarse value): the library value must be that float, not one ulp off.
        phi, _ = clutching_example(name)
        grid = QuadratureGrid.make(size)
        assert chern2(phi, grid) == a_form_integral(phi, grid) / math.pi ** 2

    def test_a_form_integral_is_minus_half_the_j_integral(self):
        # A direct quadrature of J1 + J2 = Re A / -12 on each chart's own jet,
        # lower minus upper: no mirror shortcut and no product rule.
        phi = paper_example_clutching()
        grid = QuadratureGrid.make(32)
        coords = np.ix_(grid.alpha_nodes, grid.beta_nodes, grid.r_nodes)
        weights = np.multiply.outer(np.multiply.outer(grid.alpha_weights, grid.beta_weights),
                                    grid.r_weights)

        def j_integral(chart):
            z, w, zd, wd = chart.jet(*coords)
            return float(np.sum(_re_A(z, w, (zd, wd)) / -12.0 * weights))

        j = j_integral(phi.lower) - j_integral(phi.upper)
        assert j == pytest.approx(2.0 * math.pi ** 2, rel=1e-12)
        assert a_form_integral(phi, grid) == pytest.approx(-0.5 * j, rel=1e-12)

    def test_constant_is_zero(self):
        grid = QuadratureGrid.make(24)
        assert abs(chern2(constant_clutching(), grid)) < 1e-6

    def test_nullhomotopic_clutching_is_zero(self):
        phis = build_clutching_pair(build_example_cocycles())
        grid = QuadratureGrid.make(24)
        assert abs(chern2(phis.phi_E, grid)) < 1e-4

    def test_orientation_swap_negates(self):
        phi = paper_example_clutching()
        swapped = ClutchingFunction(phi.lower, phi.upper)
        grid = QuadratureGrid.make(24)
        assert chern2(swapped, grid) == pytest.approx(-chern2(phi, grid), abs=1e-14)

    def test_determinism(self):
        phi = paper_example_clutching()
        grid = QuadratureGrid.make(24)
        assert chern2(phi, grid) == chern2(phi, grid)

    def test_non_finite_sample_reported(self):
        def bad_jet(a, b, r):
            z = np.full(np.broadcast(a, b, r).shape, np.nan, dtype=complex)
            return z, z, (z, z, z), (z, z, z)
        bad = ClutchingFunction(SU2Map(bad_jet), SU2Map(bad_jet))
        with pytest.raises(ValueError, match="non-finite"):
            chern2(bad, QuadratureGrid.make(16))

    def test_non_finite_sample_located(self, monkeypatch):
        # One NaN node in the third beta chunk (rows 6-8 of three-row chunks):
        # the message must offset the beta index by the chunk start.
        grid = QuadratureGrid.make(16)
        node = (grid.alpha_nodes[5], grid.beta_nodes[7], grid.r_nodes[11])

        def jet(a, b, r):
            hit = (a == node[0]) & (b == node[1]) & (r == node[2])
            zero = np.zeros((), dtype=complex)
            return np.where(hit, np.nan, 1.0), zero, (zero, zero, zero), (zero, zero, zero)
        monkeypatch.setattr(chernweil, "CHUNK_NODES", 3 * 16 * 16)
        expected = f"(alpha, beta, r) = {tuple(float(c) for c in node)}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            integrate_chart(SU2Map(jet), grid)

    @pytest.mark.parametrize("chart", [
        lambda: build_example_cocycles().rho1,
        lambda: build_example_cocycles().rho2,
        unit_pole_chart,
        lambda: unit_pole_chart().power(3),
        lambda: SU2Map.constant(0.6, 0.8j),
        lambda: paper_example_clutching().upper,
    ], ids=["rho1", "rho2", "unit_pole", "unit_pole_cubed", "constant", "paper_upper"])
    def test_real_part_shortcut_matches_complex_A(self, chart):
        # Oracle: evaluate the full complex 3-form A on the coordinate frame
        # via 3x3 determinants and compare its real part with the -12(J1+J2)
        # shortcut actually used by the integrator.
        chart = chart()
        a = np.array([0.4, 1.7, 3.9])
        b = np.array([0.3, 1.2, 2.8])
        r = np.array([0.25, 0.55, 0.85])
        z, w, zd, wd = chart.jet(a, b, r)

        def axes(partials, f=lambda v: v):  # one row per axis, at every point
            return np.stack([np.broadcast_to(f(v), a.shape) for v in partials])
        rows = {"z": axes(zd), "zb": axes(zd, np.conj), "w": axes(wd), "wb": axes(wd, np.conj)}

        def det3(names):
            m = np.stack([rows[f] for f in names], axis=0)  # (3 forms, 3 axes, pts)
            total = np.zeros_like(m[0, 0])
            for perm in permutations(range(3)):
                sign = 1
                for i in range(3):
                    for j in range(i + 1, 3):
                        if perm[i] > perm[j]:
                            sign = -sign
                total = total + sign * m[0, perm[0]] * m[1, perm[1]] * m[2, perm[2]]
            return total

        complex_a = 2.0 * (np.conj(z) * det3(("z", "w", "wb"))
                           + np.conj(w) * det3(("z", "zb", "w"))
                           - 2.0 * (z * det3(("zb", "w", "wb"))
                                    + w * det3(("z", "zb", "wb"))))
        shortcut = _re_A(z, w, (zd, wd))
        assert np.max(np.abs(complex_a.real - shortcut)) < 1e-9


class TestMappingDegree:
    def test_constant_zero(self):
        grid = QuadratureGrid.make(24)
        assert abs(mapping_degree(constant_clutching(), grid)) < 1e-6

    def test_identity_degree_one(self):
        grid = QuadratureGrid.make(32)
        assert mapping_degree(quaternion_power_clutching(1), grid) == pytest.approx(1.0, rel=0.01)

    def test_square_degree_two_stable(self):
        coarse = mapping_degree(quaternion_power_clutching(2), QuadratureGrid.make(32))
        fine = mapping_degree(quaternion_power_clutching(2), QuadratureGrid.make(48))
        assert fine == pytest.approx(2.0, rel=0.02)
        assert abs(fine - coarse) < 1e-3

    def test_paper_example_degree_matches_chern_number(self):
        # The built-in example clutches a bundle with c2 = -1, so the map
        # itself must have degree -1 under the same orientation conventions.
        phi = paper_example_clutching()
        grid = QuadratureGrid.make(48)
        assert mapping_degree(phi, grid) == pytest.approx(-1.0, abs=1e-6)
        assert mapping_degree(phi, grid) == pytest.approx(chern2(phi, grid), abs=1e-6)

    @pytest.mark.parametrize("example", ["paper", "qpow:3"])
    def test_re_A_is_twelve_volume_forms(self, example):
        # Re A = 12 vol pointwise on SU(2), so c2 = (integral of Re A) / 24 pi^2
        # and the degree = (integral of vol) / 2 pi^2 are one integral computed
        # by two independent formulas.
        phi, _ = clutching_example(example)
        grid = QuadratureGrid.make(16)
        coords = (grid.alpha_nodes[:, None, None], grid.beta_nodes[None, :, None],
                  grid.r_nodes[None, None, :])
        for chart in (phi.upper, phi.lower):
            z, w, zd, wd = chart.jet(*coords)
            re_a = _re_A(z, w, (zd, wd))
            volume = np.broadcast_to(_volume_pullback(z, w, (zd, wd)), re_a.shape)
            sizable = np.abs(volume) > 1e-6 * np.max(np.abs(volume))
            assert np.mean(sizable) > 0.9
            np.testing.assert_allclose(re_a[sizable], 12.0 * volume[sizable], rtol=1e-9, atol=0)

    def test_registry(self):
        phi, ref = clutching_example("paper")
        assert ref == -1.0
        phi, ref = clutching_example("qpow:2")
        assert ref == 2.0 and phi.name == "qpow:2"  # q -> q^d has degree d
        for name in ("qpow:0", "qpow:-10", "qpow:250", "qpow:-250"):  # canonical spellings
            phi, ref = clutching_example(name)
            assert phi.name == name and ref == int(name[5:])
        with pytest.raises(ValueError):
            clutching_example("qpow:x")
        for name in ("qpow:-251", "qpow:251", "qpow:1000"):
            with pytest.raises(ValueError, match=r"cap \|d\| <= 250"):
                clutching_example(name)
        with pytest.raises(ValueError):
            clutching_example("moebius")


def matrix_curvature_form(rho: SU2Map, k: int, f2: PartitionProfile, point, X, Y) -> np.ndarray:
    """The reference for ``curvature_local_form``: rho^-k d(rho^k) and its wedge
    by 2x2 complex matrix products, with the inverse as the conjugate transpose."""
    a, b, r, h = point
    z, w, zd, wd = rho.power(k).jet(np.float64(a), np.float64(b), np.float64(r))

    def matrix(z, w):
        z, w = complex(z), complex(w)
        return np.array([[z, -np.conj(w)], [w, np.conj(z)]], dtype=complex)
    inv = matrix(z, w).conj().T
    dmats = [matrix(zd[i], wd[i]) for i in range(3)]

    def tau(vec):
        return inv @ sum(vec[i] * dmats[i] for i in range(3))
    df, fval = float(f2.diff(h)), float(f2(h))
    tX, tY = tau(X), tau(Y)
    return (df * X[3]) * tY - (df * Y[3]) * tX + (fval * fval - fval) * (tX @ tY - tY @ tX)


CURVATURE_CHARTS = pytest.mark.parametrize("chart", [
    lambda pair: pair.rho1 * pair.rho2,
    lambda pair: pair.rho1,
    lambda pair: pair.rho2.inverse(),
    lambda pair: hemisphere_chart().power(3),
    lambda pair: paper_example_clutching().upper,
], ids=["rho1_rho2", "rho1", "rho2_inverse", "hemisphere_cubed", "paper_upper"])


class TestCurvatureForms:
    def setup_method(self):
        pair = build_example_cocycles()
        self.rho = pair.rho1 * pair.rho2
        self.f2 = standard_profile()
        self.point = (1.3, 0.7, 0.55, 0.1)
        rng = np.random.default_rng(5)
        self.X, self.Y = rng.normal(size=4), rng.normal(size=4)
        self.frame = [rng.normal(size=4) for _ in range(4)]

    def test_zero_power_gives_zero(self):
        value = curvature_local_form(self.rho, 0, self.f2, self.point, self.X, self.Y)
        assert np.max(np.abs(value)) == 0.0

    def test_flat_region_gives_zero(self):
        flat = (1.3, 0.7, 0.55, -0.9)
        value = curvature_local_form(self.rho, 1, self.f2, flat, self.X, self.Y)
        assert np.max(np.abs(value)) == 0.0

    def test_antisymmetry(self):
        xy = curvature_local_form(self.rho, 1, self.f2, self.point, self.X, self.Y)
        yx = curvature_local_form(self.rho, 1, self.f2, self.point, self.Y, self.X)
        assert np.max(np.abs(xy + yx)) < 1e-9

    def test_point_outside_chart_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            curvature_local_form(self.rho, 1, self.f2, (7.0, 0.7, 0.5, 0.0), self.X, self.Y)

    def test_kth_associated_equals_powered_cocycle(self):
        for k in (-1, 0, 1, 2):
            lhs = curvature_local_form(self.rho, k, self.f2, self.point, self.X, self.Y)
            rhs = curvature_local_form(self.rho.power(k), 1, self.f2, self.point, self.X, self.Y)
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_non_integer_power_rejected(self):
        with pytest.raises(ValueError, match="integer exponent, not 2.5"):
            curvature_local_form(build_example_cocycles().rho1, 2.5, self.f2, self.point,
                                 self.X, self.Y)

    def test_det_vanishes_where_profile_flat(self):
        for height in (0.95, -0.95):  # f2 = 0 resp. f2 = 1, df2 = 0 in both
            flat = (1.3, 0.7, 0.55, height)
            assert det_curvature_su2(self.rho, self.f2, flat, self.frame) == 0

    @pytest.mark.parametrize("k", range(-2, 4))
    @CURVATURE_CHARTS
    def test_matches_the_matrix_products_and_lies_in_su2(self, chart, k):
        # The pair arithmetic against 2x2 matrix products at 40 random interior
        # points (measured: within 5.5e-15 of the largest entry); each value
        # lies in su(2), traceless with M + M^H = 0 (measured: 3.7e-15).
        rho = chart(build_example_cocycles())
        rng = np.random.default_rng(100 + k)
        for _ in range(40):
            point = (rng.uniform(0.1, 6.2), rng.uniform(0.1, 3.0),
                     rng.uniform(0.05, 0.95), rng.uniform(-0.3, 0.3))
            X, Y = rng.normal(size=4), rng.normal(size=4)
            value = curvature_local_form(rho, k, self.f2, point, X, Y)
            want = matrix_curvature_form(rho, k, self.f2, point, X, Y)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(value - want)) <= 1e-13 * scale
            assert np.max(np.abs(value + value.conj().T)) <= 1e-13 * scale
            assert abs(np.trace(value)) <= 1e-13 * scale

    @CURVATURE_CHARTS
    def test_det_matches_direct_expansion(self, chart):
        # Oracle: the honest determinant of the 2x2 matrix of curvature
        # 2-forms, wedge-expanded over the (2,2)-shuffles of the frame,
        # at 100 random interior points.  The closed form is real.  Re A
        # vanishes identically on rho1 and rho2^-1, so there both sides are 0
        # up to the oracle's rounding.
        rho = chart(build_example_cocycles())
        shuffles = [((0, 1), (2, 3), 1), ((0, 2), (1, 3), -1), ((0, 3), (1, 2), 1),
                    ((1, 2), (0, 3), 1), ((1, 3), (0, 2), -1), ((2, 3), (0, 1), 1)]
        rng = np.random.default_rng(12)
        for _ in range(100):
            point = (rng.uniform(0.1, 6.2), rng.uniform(0.1, 3.0),
                     rng.uniform(0.05, 0.95), rng.uniform(-0.3, 0.3))
            frame = [rng.normal(size=4) for _ in range(4)]
            pair_matrices = {}
            for (p, q), (s, t), _ in shuffles:
                for key in ((p, q), (s, t)):
                    if key not in pair_matrices:
                        pair_matrices[key] = curvature_local_form(
                            rho, 1, self.f2, point, frame[key[0]], frame[key[1]])

            def wedge(ia, ja, ib, jb):
                total = 0j
                for (p, q), (s, t), sign in shuffles:
                    total += sign * pair_matrices[(p, q)][ia, ja] * pair_matrices[(s, t)][ib, jb]
                return total

            direct = wedge(0, 0, 1, 1) - wedge(0, 1, 1, 0)
            formula = det_curvature_su2(rho, self.f2, point, frame)
            assert isinstance(formula, complex) and formula.imag == 0.0
            assert abs(formula - direct) <= 1e-7 * max(1.0, abs(direct))


class TestHemisphereChart:
    def test_lands_on_unit_sphere(self):
        chart = hemisphere_chart()
        a = np.linspace(0, 2 * math.pi, 7)[:, None]
        b = np.linspace(0, math.pi, 7)[None, :]
        z, w = chart(a, b, np.float64(0.6))
        assert np.max(np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1)) < 1e-14

    def test_charts_agree_on_equator(self):
        phi = ClutchingFunction(hemisphere_chart(), hemisphere_chart().mirror())
        assert phi.boundary_mismatch() < 1e-14


def lower_unit_pole_chart() -> SU2Map:
    """The hemisphere Re q <= 0 written out, sigma o ``unit_pole_chart()`` with
    sigma(q) = -qb: z = -cos(pi r/2) + i sin(pi r/2) cos(beta), w as the upper chart."""

    def jet(alpha, beta, r):
        alpha, beta, r = np.asarray(alpha), np.asarray(beta), np.asarray(r)
        s, c = np.sin(math.pi / 2 * r), np.cos(math.pi / 2 * r)
        sb, cb = np.sin(beta), np.cos(beta)
        phase = np.exp(1j * alpha)
        w = s * sb * phase
        zd = (np.zeros((), dtype=complex), -1j * s * sb, math.pi / 2 * (1j * c * cb + s))
        wd = (1j * w, s * cb * phase, math.pi / 2 * c * sb * phase)
        return -c + 1j * s * cb, w, zd, wd

    return SU2Map(jet, phases=(0, 1))


def hemisphere_power_clutching(d: int) -> ClutchingFunction:
    """q -> q^d in the charts of the hemispheres x4 >= 0 and x4 <= 0, whose
    pole is the quaternion k: a library clutching whose forms have alpha
    degree 2|d| - 2, undeclared, so it takes every alpha node."""
    upper = hemisphere_chart().power(d)
    return ClutchingFunction(upper, upper.mirror(), name=f"hemisphere:{d}")


class TestUnitPoleChart:
    """qpow:d on ``unit_pole_chart``: phase pair (0, 1), pole at q = 1, lower chart S o upper."""

    def test_lands_on_unit_sphere_with_re_q_a_function_of_r(self):
        a, b, r = axis_grids()
        z, w = unit_pole_chart()(a, b, r)
        assert np.max(np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1)) < 1e-15
        assert z.shape == (1, 6, 4)  # free of alpha
        np.testing.assert_array_equal(np.broadcast_to(z.real, (1, 6, 4)),
                                      np.broadcast_to(np.cos(math.pi / 2 * r), (1, 6, 4)))
        z0, w0 = unit_pole_chart()(a, b, np.float64(0.0))
        assert np.all(z0 == 1) and np.all(w0 == 0)  # the pole is q = 1

    @pytest.mark.parametrize("d", [*range(-12, 13), 40, 250, -250])
    def test_every_qpow_takes_one_alpha_sample(self, d):
        phi = clutching_example(f"qpow:{d}")[0]
        assert phi.mirrored
        assert (phi.upper.form_degree, phi.lower.form_degree) == (0, 0)
        grid = QuadratureGrid.make(96, 32, 64)
        assert len(grid.alpha_rule(phi.upper.form_degree)[0]) == 1
        work = hemisphere_difference(phi, grid)
        assert (work.nodes, work.chunks) == (32 * 64, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, -3, -4, 5, 20])
    def test_charts_agree_on_the_boundary_and_give_d(self, d):
        phi = quaternion_power_clutching(d)
        assert phi.boundary_mismatch() <= 5e-15  # measured: 2.5e-15 at d = 20
        integral, degree, _, _ = hemisphere_difference(phi, QuadratureGrid.make(32), degree=True)
        assert abs(integral / math.pi ** 2 - d) <= 1e-12 and abs(degree - d) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, -3, -4, 5, 20])
    def test_lower_chart_is_the_lower_hemisphere_power(self, d):
        coords = axis_grids()
        phi = quaternion_power_clutching(d)
        got = flat_jet(phi.lower.jet(*coords))
        want = flat_jet(lower_unit_pole_chart().power(d).jet(*coords))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-13
        z, w, zd, wd = phi.upper.jet(*coords)
        sign = (-1) ** d  # S(g) = (-1)^d gb: (-1)^d (zb, -w)
        for g, u in zip(got, (np.conj(z), -w, *map(np.conj, zd), *(-v for v in wd))):
            assert broadcast_equal(g, sign * u)

    @pytest.mark.parametrize("d", [2, 3, -4, 5, 10, -15])
    def test_forms_are_flat_along_alpha(self, d):
        # f(q^d) = d U_{d-1}(cos theta)^2 f(h) and f(h) is free of alpha.
        for spectrum in TestAlphaDegree.form_spectra(quaternion_power_clutching(d).upper, 20261024):
            assert np.max(spectrum[1:]) <= 1e-13 * np.max(spectrum)

    def test_mirrored_detects_s_for_odd_and_even_d(self):
        for d, flips in ((1, "x"), (-3, "x"), (0, "yuv"), (2, "yuv"), (-4, "yuv")):
            phi = quaternion_power_clutching(d)
            assert phi.mirrored and phi.lower.origin == ("mirror", phi.upper, flips)
            # The same reflection of an equal but different map is not a mirror.
            other = unit_pole_chart().power(d)
            assert not ClutchingFunction(other, phi.upper.mirror(flips)).mirrored

    def test_c2_is_d_wherever_the_hemisphere_chart_resolves_it(self):
        # On the hemisphere chart (pole k) alpha and beta carry d as well as r;
        # wherever that chart's c2 is within 1e-12 of d, this one's is too.
        resolved = 0
        for n in (16, 24, 32, 48, 64):
            grid = QuadratureGrid.make(n)
            for d in (1, 2, -2, 3, 4, 5, -6, 8, 10, 16, 20):
                if abs(chern2(hemisphere_power_clutching(d), grid) - d) <= 1e-12:
                    resolved += 1
                    assert abs(chern2(quaternion_power_clutching(d), grid) - d) <= 1e-12
        assert resolved >= 30  # 35 of the 55 jobs


def hemisphere_chart() -> SU2Map:
    """Identification of the closed upper hemisphere x4 >= 0 of S^3 with D3, a
    library chart of phase pair (-1, 0) whose pole is the quaternion k.

    The point with coordinates (alpha, beta, r) is
    (sin(pi r/2) nhat(alpha, beta), cos(pi r/2)) in R^4, read as the SU(2)
    pair z = x1 + i x2, w = x3 + i x4.  The lower hemisphere is its mirror
    image, ``hemisphere_chart().mirror()``.  The azimuth enters as
    exp(-i alpha) so that the identity clutching map has degree +1 under
    the lower-minus-upper hemisphere convention.
    """

    def jet(alpha, beta, r):
        alpha, beta, r = np.asarray(alpha), np.asarray(beta), np.asarray(r)
        s, c = np.sin(math.pi / 2 * r), np.cos(math.pi / 2 * r)
        ds = math.pi / 2 * c
        phase = np.exp(-1j * alpha)
        sb, cb = np.sin(beta), np.cos(beta)
        zd = (-1j * s * sb * phase, s * cb * phase, ds * sb * phase)
        wd = (np.zeros((), dtype=complex), -s * sb, ds * cb - 1j * math.pi / 2 * s)
        return s * sb * phase, s * cb + 1j * c, zd, wd

    return SU2Map(jet, phases=(-1, 0))


def lower_hemisphere_chart() -> SU2Map:
    """The lower hemisphere written out: (sin(pi r/2) nhat(alpha, beta), -cos(pi r/2))."""

    def jet(alpha, beta, r):
        alpha, beta, r = np.asarray(alpha), np.asarray(beta), np.asarray(r)
        s, c = np.sin(math.pi / 2 * r), np.cos(math.pi / 2 * r)
        ds = math.pi / 2 * c
        phase = np.exp(-1j * alpha)
        sb, cb = np.sin(beta), np.cos(beta)
        zd = (-1j * s * sb * phase, s * cb * phase, ds * sb * phase)
        wd = (np.zeros((), dtype=complex), -s * sb, ds * cb + 1j * math.pi / 2 * s)
        return s * sb * phase, s * cb - 1j * c, zd, wd

    return SU2Map(jet, phases=(-1, 0))


def two_chart_difference(lower: SU2Map, upper: SU2Map, grid: QuadratureGrid) -> tuple:
    """Lower-minus-upper integrals from a pass over each chart, scaled as
    ``hemisphere_difference`` scales them: Re A by 1/24, the volume by 1/(2 pi^2)."""
    (lo_a, lo_vol), _, _ = integrate_chart(lower, grid, degree=True)
    (up_a, up_vol), _, _ = integrate_chart(upper, grid, degree=True)
    return (lo_a - up_a) / 24.0, (lo_vol - up_vol) / (2.0 * math.pi ** 2)


class TestMirror:
    """SU2Map.mirror(flips) negates the coordinates flips of (x, y, u, v) after the map
    (R(z, w) = (z, wb) by default), and both forms are odd under every mirror."""

    @pytest.mark.parametrize("d", [1, 2, -3, 40])
    def test_mirrored_power_is_the_lower_hemisphere_power(self, d):
        coords = axis_grids()
        # R reverses products, R(ab) = R(b) R(a), so the two multiply in
        # opposite orders and agree to rounding (measured: 2.7e-15 of the
        # largest entry at d = 40).
        got = hemisphere_chart().power(d).mirror().jet(*coords)
        want = lower_hemisphere_chart().power(d).jet(*coords)
        assert_jets_agree(got, want, d)

    def test_records_the_map_it_mirrors(self):
        chart = hemisphere_chart()
        assert chart.mirror().mirror_of is chart and chart.mirror_of is None
        assert chart.mirror().origin == ("mirror", chart, "v")
        assert chart.mirror("yuv").mirror_of is chart
        assert quaternion_power_clutching(3).mirrored and constant_clutching().mirrored
        assert quaternion_power_clutching(2).mirrored and paper_example_clutching().mirrored
        phis = build_clutching_pair(build_example_cocycles())
        assert not phis.phi_Einv.mirrored and not phis.phi_E.mirrored

    @pytest.mark.parametrize("flips", ["v", "x", "y", "u", "yuv", "xyu"])
    def test_negates_the_named_coordinates(self, flips):
        m = SU2Map.constant(0.6, 0.8j) * hemisphere_chart()
        coords = axis_grids()
        z, w, zd, wd = m.jet(*coords)
        sx, sy, su, sv = (-1 if c in flips else 1 for c in "xyuv")
        want = [sx * v.real + 1j * sy * v.imag for v in (z, *zd)]
        want += [su * v.real + 1j * sv * v.imag for v in (w, *wd)]
        mz, mw, mzd, mwd = m.mirror(flips).jet(*coords)
        for got, expected in zip((mz, *mzd, mw, *mwd), want):
            assert broadcast_equal(got, expected)

    @pytest.mark.parametrize("flips", ["", "xy", "xyuv", "vv", "a", "xa"])
    def test_an_even_or_unknown_flip_is_rejected(self, flips):
        with pytest.raises(ValueError, match="odd number of the coordinates xyuv"):
            hemisphere_chart().mirror(flips)

    @pytest.mark.parametrize("flips", ["v", "x", "yuv"])
    @pytest.mark.parametrize("name", ["paper-upper", "rho1", "qpow:3-upper", "qpow:2-upper",
                                      "rotated"])
    def test_integrands_are_odd_under_the_mirror(self, name, flips):
        m = {"paper-upper": paper_example_clutching().upper,
             "rho1": build_example_cocycles().rho1,
             "qpow:3-upper": quaternion_power_clutching(3).upper,
             "qpow:2-upper": quaternion_power_clutching(2).upper,
             "rotated": SU2Map.constant(0.6, 0.8j) * hemisphere_chart()}[name]
        coords = axis_grids()
        z, w, zd, wd = m.jet(*coords)
        mz, mw, mzd, mwd = m.mirror(flips).jet(*coords)
        if name == "rotated":  # every coordinate varies, so the mirror moves the map
            assert np.max(np.abs(mz - z) + np.abs(mw - w)) > 0.1
        for f in (_re_A, _volume_pullback):
            assert broadcast_equal(f(mz, mw, (mzd, mwd)), -f(z, w, (zd, wd)))

    def test_paper_mirror_is_the_reversed_inverse_product(self):
        pair = build_example_cocycles()
        inv1, inv2 = pair.rho1.inverse(), pair.rho2.inverse()
        coords = axis_grids()  # beta on both sides of the pi/2 seam
        for rho in (pair.rho1, pair.rho2):
            _, w, _, wd = rho.jet(*coords)
            assert all(np.all(v.imag == 0) for v in (w, *wd))
        got = flat_jet(paper_example_clutching().upper.mirror().jet(*coords))
        want = flat_jet((inv2 * inv1).jet(*coords))
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) < 1e-13

    # Odd d flips x, even d flips y, u and v: either way the lower integrals of
    # sigma o h (the hemisphere Re q <= 0), written out and raised to d, are
    # exactly minus the upper ones.
    @pytest.mark.parametrize("example", ["qpow:1", "qpow:2", "qpow:3", "qpow:-3", "qpow:-4",
                                         "qpow:5", "qpow:20", "paper"])
    def test_one_chart_equals_the_two_chart_difference(self, example):
        phi, _ = clutching_example(example)
        grid = QuadratureGrid.make(20, 16, 12)
        if example == "paper":  # 1e-12 on the integrals before the scaling by 1/24
            lower, tol = build_clutching_pair(build_example_cocycles()).phi_Einv.lower, 1e-12 / 24
        else:
            lower, tol = lower_unit_pole_chart().power(int(example[5:])), 0.0
        two_chart = two_chart_difference(lower, phi.upper, grid)
        q = hemisphere_difference(phi, grid, degree=True)
        one_chart = (q.integral, q.degree)
        assert all(abs(a - b) <= tol for a, b in zip(one_chart, two_chart))

    @pytest.mark.parametrize("name", ["upper", "pole^3", "rho1*rho2", "paper-upper"])
    def test_inverse_lower_chart_equals_the_two_chart_difference(self, name):
        # The inverse is the mirror "yuv", so ClutchingFunction(g, g^-1) takes
        # the one-chart path: it integrates g alone, on g's alpha samples.
        # The two-chart difference integrates the inverse by its own jet, and
        # a product g by its factors (measured: at most 1.6e-16 relative apart,
        # on pole^3).
        pair = build_example_cocycles()
        g = {"upper": hemisphere_chart(), "pole^3": unit_pole_chart().power(3),
             "rho1*rho2": pair.rho1 * pair.rho2,
             "paper-upper": paper_example_clutching().upper}[name]
        phi = ClutchingFunction(g, g.inverse())
        assert phi.mirrored and phi.lower.mirror_of is g
        assert phi.lower.form_degree == g.form_degree
        grid = QuadratureGrid.make(20, 16, 12)
        two_chart = two_chart_difference(phi.lower, g, grid)
        q = hemisphere_difference(phi, grid, degree=True)
        one_chart = (q.integral, q.degree)
        assert all(abs(a - b) <= 1e-14 * abs(b) for a, b in zip(one_chart, two_chart))
        assert all(abs(b) > 1e-3 for b in two_chart)

    def test_the_pass_takes_no_integrand(self):
        # The one-chart shortcut holds for the two built-in forms only, so a
        # caller cannot pass another integrand, not even positionally.
        phi = quaternion_power_clutching(2)
        grid = QuadratureGrid.make(4)
        with pytest.raises(TypeError):
            integrate_chart(phi.upper, grid, (_re_A,))
        with pytest.raises(TypeError):
            hemisphere_difference(phi, grid, (_re_A,))
        assert hemisphere_difference(phi, grid).degree is None
        assert hemisphere_difference(phi, grid, degree=True).degree is not None

    def test_zero_difference_is_positive_zero(self):
        # JSON writes -0.0 as "-0.0": constant's c2 must read 0.0 on both paths.
        ident = SU2Map.constant(1.0, 0.0)
        grid = QuadratureGrid.make(16)
        for phi in (constant_clutching(), ClutchingFunction(ident, ident)):
            assert math.copysign(1.0, hemisphere_difference(phi, grid).integral) == 1.0

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_chart_passes_match_the_work_counters(self, mirrored):
        # A lower chart that mirrors an equal but different map is not
        # recognised as a mirror: the quadrature integrates both charts.
        # The upper chart is q^2 of the hemisphere chart, built two ways; its
        # pass evaluates its factors' or its base's jets, not its own.  The
        # lower chart is a mirror, evaluated by its own jet.  As the product
        # of two maps of pair (-1, 0), q^2 has F = 2: the upper pass takes the
        # one alpha sample of Re A's closed-form alpha mean, the lower pass 3
        # samples, each in chunks of the 113 beta rows of 3 samples, one per
        # chart.  As a power it has no F and takes all 48 alpha nodes of the
        # grid in chunks of 7 beta rows, 3 per chart.  The returned work is
        # what the jet calls of one map per pass add up to.
        grid = QuadratureGrid.make(48, 16, 48)
        for square, upper_alpha, lower_alpha, chunks in (
                (lambda: hemisphere_chart() * hemisphere_chart(),
                 grid.alpha_rule(0)[0], grid.alpha_rule(2)[0], 1),
                (lambda: hemisphere_chart().power(2), grid.alpha_nodes, grid.alpha_nodes, 3)):
            upper = square()
            lower = (upper if mirrored else square()).mirror()
            phi = ClutchingFunction(upper, lower)
            parts = [m for m in upper.origin[1:] if isinstance(m, SU2Map)]
            logs = {m: [] for m in (upper, *parts, lower)}
            for m, log in logs.items():
                m.jet = lambda *c, log=log, jet=m.jet: log.append(c) or jet(*c)
            work = hemisphere_difference(phi, grid)
            passes = 1 if mirrored else 2
            assert phi.mirrored is mirrored
            assert [len(log) for log in logs.values()] == [
                0, *[chunks] * len(parts), chunks * (passes - 1)]
            for m, alpha in (*((m, upper_alpha) for m in parts), (lower, lower_alpha)):
                assert all(np.array_equal(a.ravel(), alpha) for a, _, _ in logs[m])
            logged = logs[parts[0]] + logs[lower]
            assert (work.nodes, work.chunks) == (sum(np.broadcast(*c).size for c in logged),
                                                 len(logged))
            nodes = len(upper_alpha) + (passes - 1) * len(lower_alpha)
            assert (work.nodes, work.chunks) == (nodes * 16 * 48, chunks * passes)
        assert (hemisphere_chart() * hemisphere_chart()).form_degree == 2
        assert hemisphere_chart().power(2).form_degree is None and len(grid.alpha_rule(2)[0]) == 3


def frozen(chart: SU2Map, alpha0: float) -> SU2Map:
    """``chart`` at the fixed azimuth ``alpha0``: a map free of alpha."""

    def jet(alpha, beta, r):
        z, w, zd, wd = chart.jet(np.float64(alpha0), beta, r)
        zero = np.zeros((), dtype=complex)
        return z, w, (zero, *zd[1:]), (zero, *wd[1:])

    return SU2Map(jet)


def alpha_free_maps() -> tuple[SU2Map, SU2Map]:
    """Two maps free of alpha: the hemisphere and unit pole charts frozen at
    alpha = 0.7 and 2.0, between constant rotations, so that no twisted
    product of them has forms that vanish by accident."""
    c1, c2 = SU2Map.constant(0.6, 0.8j), SU2Map.constant(0.48, 0.64 + 0.6j)
    return (c1 * frozen(hemisphere_chart(), 0.7) * c2,
            c2 * frozen(unit_pole_chart(), 2.0) * c1)


def twisted(m0: SU2Map, a: int, b: int) -> SU2Map:
    """(z0 e^{i a alpha}, w0 e^{i b alpha}) for ``m0`` = (z0, w0) free of alpha,
    D((a - b) alpha / 2) m0 D((a + b) alpha / 2): a map of phase pair (a, b)."""

    def jet(alpha, beta, r):
        z0, w0, (_, z0_b, z0_r), (_, w0_b, w0_r) = m0.jet(alpha, beta, r)
        ea, eb = np.exp(1j * a * alpha), np.exp(1j * b * alpha)
        return (z0 * ea, w0 * eb, (1j * a * z0 * ea, z0_b * ea, z0_r * ea),
                (1j * b * w0 * eb, w0_b * eb, w0_r * eb))

    return SU2Map(jet, phases=(a, b))


def twisted_product(a1: int, b1: int, a2: int, b2: int) -> SU2Map:
    """The product of the two ``alpha_free_maps`` twisted by (a1, b1) and
    (a2, b2): by the pair rule, F = |a1 + b1 + a2 - b2|."""
    left, right = alpha_free_maps()
    return twisted(left, a1, b1) * twisted(right, a2, b2)


def twisted_clutching(f: int) -> ClutchingFunction:
    """A mirrored clutching whose upper chart is a twisted product of F = f."""
    upper = twisted_product(f - f // 2, 0, 0, -(f // 2))
    return ClutchingFunction(upper, upper.mirror(), name=f"twisted:{f}")


def assert_carries_pair(chart: SU2Map) -> None:
    """z and its partials have alpha content at the frequency a alone, w and
    its partials at b alone, for (a, b) = ``chart.phases``; and z and w have
    content there, so the pair is not vacuous."""
    n = 16  # equispaced alpha samples: frequencies up to 8 are resolved
    alpha = (2 * math.pi / n * np.arange(n))[:, None]
    rng = np.random.default_rng(20261019)
    beta, r = rng.uniform(0.05, math.pi - 0.05, 7)[None, :], rng.uniform(0.05, 1.0, 7)[None, :]
    z, w, zd, wd = chart.jet(alpha, beta, r)
    for parts, frequency in (((z, *zd), chart.phases[0] % n), ((w, *wd), chart.phases[1] % n)):
        spectra = [np.abs(np.fft.fft(np.broadcast_to(part, (n, 7)), axis=0)) / n
                   for part in parts]
        for spectrum in spectra:
            assert np.max(np.delete(spectrum, frequency, axis=0)) <= 1e-14
        assert np.max(spectra[0][frequency]) > 0.1


def leaf_maps():
    pair = build_example_cocycles()
    return {"rho1": pair.rho1, "rho2": pair.rho2,
            "upper": hemisphere_chart(), "lower": hemisphere_chart().mirror(),
            "pole": unit_pole_chart(), "pole-lower": lower_unit_pole_chart(),
            "twisted": twisted(alpha_free_maps()[0], 2, -1)}


def axis_grids(na=5, nb=6, nr=4):
    """Broadcastable (na,1,1), (1,nb,1), (1,1,nr) coordinates; beta straddles pi/2."""
    alpha = np.linspace(0.2, 6.0, na)[:, None, None]
    beta = np.concatenate([np.linspace(0.3, math.pi / 2 - 0.05, nb // 2),
                           np.linspace(math.pi / 2 + 0.05, 2.9, nb - nb // 2)])[None, :, None]
    r = np.linspace(0.1, 0.95, nr)[None, None, :]
    return alpha, beta, r


class TestChartLeaves:
    """The closed-form charts: analytic partials and broadcast shapes."""

    @pytest.mark.parametrize("name", ["rho1", "rho2", "upper", "lower", "pole", "pole-lower",
                                      "twisted"])
    def test_partials_match_central_differences(self, name):
        chart = leaf_maps()[name]
        # Points on both sides of the beta = pi/2 seam, at least 10^4 h away.
        points = (np.array([0.9, 2.2, 4.0, 5.5]),
                  np.array([0.6, math.pi / 2 - 0.02, math.pi / 2 + 0.02, 2.5]),
                  np.array([0.3, 0.6, 0.9, 0.45]))
        assert_partials_match_central_differences(chart, points, h=1e-6, tol=1e-8)

    @pytest.mark.parametrize("name", ["rho1", "rho2", "upper", "lower", "pole", "pole-lower"])
    def test_broadcast_outputs_match_full_evaluation(self, name):
        chart = leaf_maps()[name]
        coords = axis_grids()
        full = np.broadcast_arrays(*coords)
        shape = full[0].shape
        value, partials = chart(*coords), chart.partials(*coords)
        for got, want in zip(value + partials[0] + partials[1],
                             chart(*full) + chart.partials(*full)[0] + chart.partials(*full)[1]):
            assert np.broadcast_shapes(got.shape, shape) == shape
            assert np.array_equal(np.broadcast_to(got, shape), np.broadcast_to(want, shape))

    def test_leaves_skip_axes_they_do_not_depend_on(self):
        alpha, beta, r = axis_grids()
        pair = build_example_cocycles()
        z, w = pair.rho2(alpha, beta, r)
        assert z.shape == (1, 6, 4) and w.shape == (1, 1, 4)
        z, w = hemisphere_chart()(alpha, beta, r)
        assert w.shape == (1, 6, 4)
        (_, _, _), (dw_da, _, _) = pair.rho1.partials(alpha, beta, r)
        assert dw_da.shape == ()


def assert_partials_match_central_differences(chart, points, h, tol):
    zd, wd = chart.partials(*points)
    for axis in range(3):
        step = [np.zeros(()), np.zeros(()), np.zeros(())]
        step[axis] = np.float64(h)
        zp, wp = chart(*(c + s for c, s in zip(points, step)))
        zm, wm = chart(*(c - s for c, s in zip(points, step)))
        scale = max(1.0, np.max(np.abs(zd[axis])), np.max(np.abs(wd[axis])))
        assert np.max(np.abs(zd[axis] - (zp - zm) / (2 * h))) < tol * scale
        assert np.max(np.abs(wd[axis] - (wp - wm) / (2 * h))) < tol * scale


def chained_power(m: SU2Map, d: int) -> SU2Map:
    if d == 0:
        return SU2Map.constant(1.0, 0.0)
    base = m if d > 0 else m.inverse()
    result = base
    for _ in range(abs(d) - 1):
        result = result * base
    return result


class TestClosedFormPower:
    @pytest.mark.parametrize("d", range(-3, 6))
    def test_matches_product_chain(self, d):
        coords = axis_grids()
        for m in (hemisphere_chart(), build_example_cocycles().rho1):
            closed, chain = m.power(d), chained_power(m, d)
            for got, want in zip(closed(*coords), chain(*coords)):
                assert np.max(np.abs(got - want)) < 1e-13
            (gz, gw), (cz, cw) = closed.partials(*coords), chain.partials(*coords)
            for got, want in zip(gz + gw, cz + cw):
                assert np.max(np.abs(got - want)) < 1e-12

    @pytest.mark.parametrize("d", [40, 600, -600])
    def test_matches_scalar_power_oracle(self, d):
        chart = hemisphere_chart().mirror()
        coords = axis_grids()
        z, w = np.broadcast_arrays(*chart.power(d)(*coords))
        z0, w0 = np.broadcast_arrays(*chart(*coords))
        for idx in np.ndindex(z.shape):
            want = su2_power(SU2Matrix(complex(z0[idx]), complex(w0[idx])), d)
            assert abs(complex(z[idx]) - want.z) < 1e-11
            assert abs(complex(w[idx]) - want.w) < 1e-11

    @pytest.mark.parametrize("k", [2.5, -0.5, 2.0, np.float64(3.0), True])
    def test_a_non_integer_exponent_is_rejected(self, k):
        # The closed form runs a k-step recurrence, so k must be an integer,
        # rejected at construction, not on evaluation; a bool is not one.
        with pytest.raises(ValueError, match=re.escape(f"integer exponent, not {k!r}")):
            unit_pole_chart().power(k)
        coords = axis_grids()
        for got, want in zip(flat_jet(unit_pole_chart().power(np.int64(3)).jet(*coords)),
                             flat_jet(unit_pole_chart().power(3).jet(*coords))):
            assert broadcast_equal(got, want)

    def test_high_power_partials_match_central_differences(self):
        points = (np.array([1.3, 4.1]), np.array([0.7, 2.0]), np.array([0.4, 0.8]))
        assert_partials_match_central_differences(hemisphere_chart().power(40), points,
                                                  h=1e-7, tol=1e-6)


def det_oracle(z, w, partials):
    """The 4x4 determinant of rows (z, w), d_alpha, d_beta, d_r by LAPACK."""
    (zda, zdb, zdr), (wda, wdb, wdr) = partials
    rows = [np.stack([q.real, q.imag, p.real, p.imag], axis=-1)
            for q, p in ((z, w), (zda, wda), (zdb, wdb), (zdr, wdr))]
    return np.linalg.det(np.stack(rows, axis=-2))


class TestVolumePullback:
    def test_matches_linalg_det(self):
        rng = np.random.default_rng(7)
        shape = (3, 5, 4)

        def rand():
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        z, w = rand(), rand()
        partials = ((rand(), rand(), rand()), (rand(), rand(), rand()))
        assert np.max(np.abs(_volume_pullback(z, w, partials)
                             - det_oracle(z, w, partials))) < 1e-12

    def test_chart_pullback_matches_linalg_det(self):
        chart = hemisphere_chart().power(2)
        coords = np.broadcast_arrays(*axis_grids())
        z, w = chart(*coords)
        partials = chart.partials(*coords)
        assert np.max(np.abs(_volume_pullback(z, w, partials)
                             - det_oracle(z, w, partials))) < 1e-12


def broadcast_equal(got, want) -> bool:
    """Equal values after broadcasting both arrays to their common shape."""
    shape = np.broadcast_shapes(np.shape(got), np.shape(want))
    return np.array_equal(np.broadcast_to(got, shape), np.broadcast_to(want, shape))


def flat_jet(jet):
    z, w, zd, wd = jet
    return (z, w) + tuple(zd) + tuple(wd)


def jet_maps():
    """Every kind of map: the leaves, paper charts, qpow charts, constant, bare compositions."""
    paper = paper_example_clutching()
    maps = {**leaf_maps(), "paper-lower": paper.lower, "paper-upper": paper.upper,
            "constant": SU2Map.constant(1.0, 0.0)}
    for d in (-3, 2, 5):
        phi = quaternion_power_clutching(d)
        maps[f"qpow:{d}-lower"], maps[f"qpow:{d}-upper"] = phi.lower, phi.upper
    chart = hemisphere_chart()
    maps.update({"inverse": chart.inverse(), "power0": chart.power(0), "power1": chart.power(1)})
    return maps


def dense_product_jet(ja, jb):
    """The product rule with all of its terms, structural zeros included."""
    za, wa, zda, wda = ja
    zb, wb, zdb, wdb = jb
    zd = tuple(zda[i] * zb + za * zdb[i] - np.conj(wda[i]) * wb - np.conj(wa) * wdb[i]
               for i in range(3))
    wd = tuple(wda[i] * zb + wa * zdb[i] + np.conj(zda[i]) * wb + np.conj(za) * wdb[i]
               for i in range(3))
    return za * zb - np.conj(wa) * wb, wa * zb + np.conj(za) * wb, zd, wd


def chebyshev(a, k: int):
    """T_k(a), U_{k-1}(a) and U_{k-1}'(a) for k >= 1.

    Runs the three-term recurrence U_{j+1} = 2a U_j - U_{j-1} (and its
    derivative) from U_{-1} = 0, U_0 = 1; T_k = a U_{k-1} - U_{k-2}.
    """
    u_prev, u = 0.0, 1.0
    du_prev, du = 0.0, 0.0
    two_a = 2.0 * a
    for _ in range(k - 1):
        du_prev, du = du, 2.0 * u + two_a * du - du_prev
        u_prev, u = u, two_a * u - u_prev
    return a * u - u_prev, u, du


def dense_power_jet(jet, k):
    """The closed-form power q^k = T_k(a) + U_{k-1}(a) N, a = Re z, and its
    chain rule with all of its terms, T_k' = k U_{k-1}: an oracle of the
    product-rule power jet by another route."""
    z, w, zd, wd = jet
    t, u, du = chebyshev(z.real, k)
    dz = tuple(k * u * v.real + 1j * (v.imag * u + z.imag * du * v.real) for v in zd)
    dw = tuple(du * v.real * w + u * p for v, p in zip(zd, wd))
    return t + 1j * (z.imag * u), u * w, dz, dw


def assert_jets_agree(got, want, k) -> None:
    """Every entry of two jets within 1e-14 |k| of the largest |entry| of
    ``want``: the rounding of a k-th power's jet."""
    scale = max(np.max(np.abs(v)) for v in flat_jet(want))
    gap = max(np.max(np.abs(g - v)) for g, v in zip(flat_jet(got), flat_jet(want)))
    assert gap <= 1e-14 * abs(k) * scale


class TestJet:
    """SU2Map.jet: value and partials in one call, equal to the full product and chain rules."""

    @pytest.mark.parametrize("name", sorted(jet_maps()))
    def test_equals_value_and_partials(self, name):
        chart = jet_maps()[name]
        coords = axis_grids()
        zd, wd = chart.partials(*coords)
        want = (*chart(*coords), zd, wd)
        for got, expected in zip(flat_jet(chart.jet(*coords)), flat_jet(want)):
            assert broadcast_equal(got, expected)
        # Every view is coerced to complex arrays, also a leaf's real w (rho1).
        for v in flat_jet(chart.jet(*coords)) + flat_jet(want):
            assert isinstance(v, np.ndarray) and v.dtype == complex

    def test_product_jet_equals_dense_product_rule(self):
        coords = axis_grids()
        pair = build_example_cocycles()
        inv1, inv2 = pair.rho1.inverse(), pair.rho2.inverse()
        for a, b in ((inv2, inv1), (inv1, inv2), (pair.rho1, pair.rho2),
                     (SU2Map.constant(0.6, 0.8j), hemisphere_chart().mirror())):
            dense = dense_product_jet(a.jet(*coords), b.jet(*coords))
            for got, expected in zip(flat_jet((a * b).jet(*coords)), flat_jet(dense)):
                assert broadcast_equal(got, expected)

    @pytest.mark.parametrize("k", [2, 3, 5, 40, 250])
    def test_power_jet_equals_dense_chain_rule(self, k):
        # Square-and-multiply by the product rule against the closed form's
        # chain rule: they agree to rounding (measured: 2.5e-14 of the
        # largest entry at k = 40, 1.6e-13 at k = 250).
        coords = axis_grids()
        for base in (hemisphere_chart(), build_example_cocycles().rho1.inverse()):
            assert_jets_agree(base.power(k).jet(*coords), dense_power_jet(base.jet(*coords), k), k)

    def test_structural_zeros_stay_zero_dimensional(self):
        coords = axis_grids()
        (_, _, _), (dw_da, _, _) = build_example_cocycles().rho1.inverse().jet(*coords)[2:]
        assert dw_da.shape == ()
        _, _, zd, wd = SU2Map.constant(1.0, 0.0).power(-2).jet(*coords)
        assert all(v.shape == () and v == 0 for v in zd + wd)


class TestChunkedQuadrature:
    """integrate_chart: one jet per beta chunk, a result independent of the chunk size."""

    GRID = (20, 16, 12)
    # (beta rows per chunk, chunks): one row, a partial last chunk, the whole grid.
    CHUNKS = [(1, 16), (3, 6), (16, 1)]

    @pytest.mark.parametrize("rows", [rows for rows, _ in CHUNKS])
    @pytest.mark.parametrize("example", ["paper", "qpow:2", "qpow:-3", "constant"])
    def test_results_do_not_depend_on_the_chunk(self, example, rows, monkeypatch):
        phi, _ = clutching_example(example)
        grid = QuadratureGrid.make(*self.GRID)
        # Nodes in one beta row: the chart's alpha nodes (2 for paper, 1 for the
        # others) times 12 r nodes.
        row = len(grid.alpha_rule(phi.upper.form_degree)[0]) * self.GRID[2]
        results = []
        for chunk in (rows * row, chernweil.CHUNK_NODES):
            monkeypatch.setattr(chernweil, "CHUNK_NODES", chunk)
            q = hemisphere_difference(phi, grid, degree=True)
            results.append((chern2(phi, grid), mapping_degree(phi, grid), q.integral, q.degree))
        assert results[0] == results[1]

    @pytest.mark.parametrize("mirrored", [True, False])
    @pytest.mark.parametrize("rows, chunks", CHUNKS)
    def test_one_jet_per_chunk_for_all_integrands(self, rows, chunks, mirrored, monkeypatch):
        # The lower chart (a mirror) evaluates its own jet once per chunk; the
        # upper chart (a product) evaluates each factor's jet once per chunk
        # and never its own, also when the degree oracle builds the product jet.
        # The paper charts have form degree 1 and take 2 alpha samples; the
        # same charts of unknown degree take all 20 alpha nodes of the grid.
        # A mirrored pair runs the upper pass alone; a lower chart that
        # mirrors an equal but different map takes a pass of its own.  The
        # returned work is what the jet calls of one map per pass add up to.
        grid = QuadratureGrid.make(*self.GRID)
        for square, n_alpha in ((lambda: paper_example_clutching().upper, 2),
                                (lambda: unknown_degree(paper_example_clutching().upper), 20)):
            upper = square()
            phi = ClutchingFunction(upper, (upper if mirrored else square()).mirror())
            assert phi.mirrored is mirrored
            monkeypatch.setattr(chernweil, "CHUNK_NODES", rows * n_alpha * self.GRID[2])
            evaluated = [*upper.origin[1:], *([] if mirrored else [phi.lower])]
            calls = {m: [] for m in (upper, phi.lower, *evaluated)}
            for m, log in calls.items():
                m.jet = lambda *coords, log=log, jet=m.jet: log.append(coords) or jet(*coords)
            work = hemisphere_difference(phi, grid, degree=True)
            for m, log in calls.items():
                if m not in evaluated:
                    assert log == []
                    continue
                assert len(log) == chunks
                assert all(a.shape == (n_alpha, 1, 1) and r.shape == (1, 1, 12)
                           for a, _, r in log)
                assert [b.size for _, b, _ in log] == ([rows] * (chunks - 1)
                                                       + [16 - rows * (chunks - 1)])
            logged = calls[evaluated[0]] + ([] if mirrored else calls[phi.lower])
            assert (work.nodes, work.chunks) == (sum(np.broadcast(*c).size for c in logged),
                                                 len(logged))
            assert (work.nodes, work.chunks) == ((2 - mirrored) * n_alpha * 16 * 12,
                                                 (2 - mirrored) * chunks)
            # Each chart's Re A is bit-equal with and without the degree oracle.
            for chart in (phi.upper, phi.lower):
                both, _, _ = integrate_chart(chart, grid, degree=True)
                assert both[:1] == integrate_chart(chart, grid)[0]

    @pytest.mark.parametrize("example", ["paper", "constant", "qpow:2", "qpow:-3"])
    def test_re_a_is_bit_equal_with_and_without_the_degree(self, example):
        # The degree oracle shares the pass and Re A reads the same alpha
        # samples either way (one for paper, F + 1 = 2 with the oracle).
        phi, _ = clutching_example(example)
        grid = QuadratureGrid.make(24)
        plain, both = (hemisphere_difference(phi, grid, degree=d) for d in (False, True))
        assert plain.degree is None
        assert repr(plain.integral) == repr(both.integral) == repr(a_form_integral(phi, grid))
        assert repr(both.degree) == repr(mapping_degree(phi, grid))

    @pytest.mark.parametrize("n", [96, 192])
    def test_peak_memory_is_bounded(self, n):
        # The lower chart takes the jet path, the upper chart the product rule.
        phi = paper_example_clutching()
        grid = QuadratureGrid.make(n)
        for chart in (phi.lower, phi.upper):
            tracemalloc.start()
            try:
                integrate_chart(chart, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 24 * 2 ** 20


def unknown_degree(chart: SU2Map) -> SU2Map:
    """The same product with an unknown alpha degree, as its left factor has no
    phase pair: the quadrature takes the grid's whole alpha axis, the
    trapezoid rule on n_alpha points."""
    _, left, right = chart.origin
    return jet_path(left) * right


def jet_path(chart: SU2Map) -> SU2Map:
    """The same map with no recorded origin: the quadrature evaluates its jet."""
    return SU2Map(chart.jet)


def rule_charts():
    """Product and power charts, whose two forms follow from their factors or base."""
    pair = build_example_cocycles()
    chart = hemisphere_chart()
    rotated = SU2Map.constant(0.6, 0.8j) * chart
    charts = {"paper-upper": paper_example_clutching().upper,
              "phi_E": build_clutching_pair(pair).phi_E.upper,
              "rotated": rotated,
              "nested": (pair.rho1 * chart) * chart,
              "power-of-product": rotated.power(3),
              "power-of-power": chart.power(2).power(3)}
    charts.update({f"power{d}": chart.power(d) for d in (2, 3, -3, 40, 200)})
    charts.update({f"qpow:{d}": quaternion_power_clutching(d).upper for d in (2, -3, 40, 250)})
    return charts


class TestChartRules:
    """Re A = 12 det3(theta_a + rho_b) on a product and f(q^d) = d U_{d-1}(Re q)^2 f(q)
    on a power, against the jet path."""

    FORMS = (_re_A, _volume_pullback)

    @pytest.mark.parametrize("name", sorted(rule_charts()))
    def test_pointwise_values_match_the_jet_path(self, name):
        chart = rule_charts()[name]
        assert chart.origin[0] in ("product", "power")
        coords = axis_grids()
        got = chernweil._chart_values(chart, coords, degree=True)
        z, w, zd, wd = chart.jet(*coords)
        wants = [f(z, w, (zd, wd)) for f in self.FORMS]
        if chernweil._alpha_mean(chart):
            # Re A is its alpha mean, on one alpha sample: the mean of the jet
            # path's Re A over F + 1 equispaced samples, exact for degree F.
            m = chart.form_degree + 1
            alpha = coords[0][:1] + 2 * math.pi / m * np.arange(m)[:, None, None]
            z, w, zd, wd = chart.jet(alpha, *coords[1:])
            wants[0] = np.mean(_re_A(z, w, (zd, wd)), axis=0, keepdims=True)
        for values, want in zip(got, wants):
            # The floor, the rtol times the largest |entry|, takes the rounding
            # of entries where the forms vanish (near 1e-29 on qpow:-3 and
            # qpow:40) or are small beside the largest (power200: 2.9e-12
            # on an entry of 2.3).  Measured: at most 9.7e-14 of the
            # largest entry, at qpow:250.
            np.testing.assert_allclose(values, want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("name", sorted(rule_charts()))
    def test_hemisphere_difference_matches_the_jet_path(self, name):
        chart = rule_charts()[name]
        grid = QuadratureGrid.make(20, 16, 12)
        got = hemisphere_difference(ClutchingFunction(chart, chart.mirror()), grid, degree=True)
        want = hemisphere_difference(ClutchingFunction(jet_path(chart), jet_path(chart.mirror())),
                                     grid, degree=True)
        assert all(abs(g - w) <= 1e-12 * abs(w)
                   for g, w in ((got.integral, want.integral), (got.degree, want.degree)))


class TestChebyshevAccuracy:
    """U_{d-1} by the three-term recurrence, in the power scale d U_{d-1}(Re q)^2
    of ``_chart_values`` and in the ``chebyshev`` of the power jet's oracle,
    against mpmath.chebyu."""

    @pytest.mark.parametrize("d", [2, 3, 40, 200, 250, 1000])
    def test_u_matches_mpmath(self, d):
        # 300 random a = Re q in [-1, 1] and 60 within 1e-3 of +-1, where
        # |U_{d-1}| nears its maximum d, as unit pole chart coordinates with
        # Re z = cos(pi r / 2): r in [0, 1] is the chart (a >= 0), and r in
        # (1, 2] continues its formula over the hemisphere a < 0.  Measured
        # error: 4.2e-13 at d = 40, 2.0e-11 at 200, 2.8e-11 at 250 and 1.4e-10
        # at 1000.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261021)
        near = 1 - rng.uniform(0, 1e-3, 60)
        target = np.concatenate([rng.uniform(-1, 1, 300), near[:30], -near[30:]])
        r = np.arccos(target) / (math.pi / 2)
        coords = (np.zeros((1, 1, 1)), np.full((1, 1, 1), 1.0), r[None, None, :])
        chart = unit_pole_chart()
        a = chart(*coords)[0].real.ravel()
        assert np.max(np.abs(a)) > 0.999 and np.min(a) < -0.999
        with mpmath.workdps(40):
            want = np.array([float(mpmath.chebyu(d - 1, x)) for x in a])
        scale = (chernweil._chart_values(chart.power(d), coords, degree=False)[0]
                 / chernweil._chart_values(chart, coords, degree=False)[0]).ravel()
        for got, u in ((chebyshev(a, d)[1], want), (np.sqrt(scale / d), np.abs(want))):
            assert np.max(np.abs(got - u)) <= 1e-14 * d * d


def sampled_examples():
    """Every registered example, qpow:+-1..+-10, the same powers on the
    hemisphere chart (``hemisphere_power_clutching``) and the non-mirrored E
    clutching."""
    examples = {name: clutching_example(name)[0] for name in chernweil.CLUTCHING_EXAMPLES}
    for d in range(-10, 11):
        if d:
            examples[f"qpow:{d}"] = quaternion_power_clutching(d)
            examples[f"hemisphere:{d}"] = hemisphere_power_clutching(d)
    examples["phi_E"] = build_clutching_pair(build_example_cocycles()).phi_E
    return examples


ALPHA_SIZES = [16, 17, 24, 25, 32, 48, 64, 96]


@functools.cache
def converged_alpha_reference(name: str) -> tuple:
    """Both charts' integrals of ``sampled_examples()[name]``, or of
    ``twisted_clutching(f)`` for ``twisted:f``, with the degree
    oracle, on beta 16 and r 12 and a 192-node Gauss-Legendre alpha axis:
    their exact alpha integral to rounding.  The Legendre rule is set in
    place of ``alpha_rule``, so the reference does not rest on the rule
    under test."""
    t, w = np.polynomial.legendre.leggauss(192)
    legendre = (math.pi * (t + 1), math.pi * w)
    phi = (twisted_clutching(int(name[8:])) if name.startswith("twisted:")
           else sampled_examples()[name])
    grid = QuadratureGrid.make(192, 16, 12)
    with mock.patch.object(QuadratureGrid, "alpha_rule", lambda self, degree: legendre):
        return tuple(integrate_chart(chart, grid, degree=True)[0]
                     for chart in (phi.upper, phi.lower))


def alpha_rule_is_exact(form_degree: int, n_alpha: int) -> bool:
    """Whether the trapezoid rule on min(F + 1, n_alpha) points integrates a
    chart of form degree F exactly along alpha: when it takes all F + 1
    (chernweil's module docstring)."""
    return form_degree + 1 <= n_alpha


class TestAlphaDegree:
    """SU2Map.phases and form_degree, and the sampled alpha axis (module docstring)."""

    ODD_FLIPS = ["x", "y", "u", "v", "xyu", "xyv", "xuv", "yuv"]

    @pytest.mark.parametrize("name", ["rho1", "rho2", "upper", "lower", "pole", "pole-lower",
                                      "twisted", "constant"])
    def test_each_leaf_has_its_declared_phase(self, name):
        # A map of phase pair (a, b) carries e^{i a alpha} on z and e^{i b alpha}
        # on w: each entry and its partials have alpha content at that
        # frequency alone.
        chart = {**leaf_maps(), "constant": SU2Map.constant(0.6, 0.8j)}[name]
        assert_carries_pair(chart)

    @pytest.mark.parametrize("phases", [
        True, (True, 0), (0, False), (0.5, 0), (1.0, 0), (1,), (1, 0, 0), 1, "ab"],
        ids=["True", "(True,0)", "(0,False)", "(0.5,0)", "(1.0,0)", "(1,)", "(1,0,0)", "1",
             "ab"])
    def test_a_bad_phase_pair_is_rejected(self, phases):
        # z = z0 e^{i a alpha} is 2 pi-periodic in alpha only for an integer a,
        # and a bool is not a frequency.
        jet = hemisphere_chart().jet
        with pytest.raises(ValueError, match=re.escape(
                f"phases must be a pair of integers (a, b), not {phases!r}")):
            SU2Map(jet, phases=phases)
        m = SU2Map(jet, phases=(np.int64(-1), np.int64(0)))
        assert m.phases == (-1, 0) and m.form_degree == 0

    def test_a_map_declares_its_pair_alone(self):
        # F is derived from phases and origin, never declared beside them.
        jet = hemisphere_chart().jet
        for declared in (dict(form_degree=0), dict(phase=-1), dict(conjugation=True)):
            with pytest.raises(TypeError):
                SU2Map(jet, **declared)
        with pytest.raises(AttributeError):
            hemisphere_chart().form_degree = 1

    def test_form_degree_propagates_through_the_compositions(self):
        pair, chart, pole = build_example_cocycles(), hemisphere_chart(), unit_pole_chart()
        leaves = (pair.rho1, pair.rho2, chart, pole, SU2Map.constant(0.6, 0.8j))
        for m in leaves:  # a map with a pair has F = 0, as do its inverse and mirror
            assert m.form_degree == m.inverse().form_degree == m.mirror().form_degree == 0
        # A product of two maps with pairs takes |a1 + b1 + a2 - b2|, and its
        # mirrors keep it.
        assert [m.form_degree for m in (
            pair.rho1 * pair.rho2, pair.rho2 * pair.rho1, chart * chart, pair.rho1 * chart,
            chart.mirror() * pair.rho1, pair.rho1 * chart.inverse(), pole * pole,
            pole * pair.rho1, pair.rho1 * pole, chart * pole, pole.inverse() * chart,
            (pair.rho1 * pair.rho2).mirror(), paper_example_clutching().upper,
            paper_example_clutching().lower)] == [1, 1, 2, 0, 0, 2, 0, 2, 0, 2, 0, 1, 1, 1]
        # Powers of a map of pair (0, b) keep it: every qpow chart, and rho2^2.
        for m in (pole.power(2), pole.power(-3), pair.rho2.power(2), chart.power(0)):
            assert m.form_degree == 0
        # An inverse is the mirror "yuv" and keeps its base's F, also with no pair.
        assert [m.form_degree for m in (
            (pair.rho1 * pair.rho2).inverse(), (pole * pair.rho1).inverse(),
            (chart * chart).inverse().inverse())] == [1, 2, 2]
        # Any other product or power, and the inverse of a map with no F, has no F.
        unknown = SU2Map(chart.jet)
        for m in ((pair.rho1 * pair.rho2) * chart, chart.power(2) * chart, chart.power(6),
                  chart.power(3).power(2), (pair.rho1 * chart).power(3), chart.power(-2).mirror(),
                  chart.power(2).inverse(), unknown, unknown.inverse(), unknown.mirror(),
                  unknown * chart, chart * unknown, unknown.power(3), unknown.power(-2)):
            assert m.form_degree is None
        assert unknown.power(0).form_degree == 0  # the constant 1

    def test_phases_propagate_through_the_compositions(self):
        pair = build_example_cocycles()
        leaves = (pair.rho1, pair.rho2, hemisphere_chart(), unit_pole_chart(),
                  SU2Map.constant(0.6, 0.8j))
        assert [m.phases for m in leaves] == [(1, 0), (0, 0), (-1, 0), (0, 1), (0, 0)]
        for m in leaves:
            a, b = m.phases
            assert m.inverse().phases == m.power(-1).phases == (-a, b)
            for flips in self.ODD_FLIPS:
                sx, sy, su, sv = (-1 if c in flips else 1 for c in "xyuv")
                assert m.mirror(flips).phases == (a * sx * sy, b * su * sv)
            assert m.power(1) is m and m.power(0).phases == (0, 0)  # q^0 is the constant 1
            for k in (-250, -3, 2, 3, 250):
                assert m.power(k).phases == ((0, b) if a == 0 else None)
        pole = unit_pole_chart()
        assert pole.power(2).power(3).phases == pole.inverse().power(4).phases == (0, 1)
        # A product has no pair, nor has the inverse or a power of a map with none.
        upper = paper_example_clutching().upper
        for m in (pair.rho1 * pair.rho2, pole * pole, upper, upper.mirror(), upper.inverse(),
                  SU2Map(pole.jet), SU2Map(pole.jet).power(2)):
            assert m.phases is None

    @pytest.mark.parametrize("op", ["inverse", *ODD_FLIPS, "power2", "power3", "power-2"])
    def test_compositions_carry_their_declared_pair(self, op):
        # The pair that inverse, mirror and power declare is the one their
        # jets carry; power keeps the pair of a map of pair (0, b) only.
        for a, b in ((2, -1), (-1, 3), (0, 2), (0, -1)):
            if op.startswith("power") and a:
                continue
            m = twisted(alpha_free_maps()[0], a, b)
            composed = (m.inverse() if op == "inverse" else
                        m.power(int(op[5:])) if op.startswith("power") else m.mirror(op))
            assert composed.phases is not None
            assert_carries_pair(composed)

    # 17 is 2|d| - 1 for hemisphere:+-9: the true F + 1.
    @pytest.mark.parametrize("n_alpha", ALPHA_SIZES)
    @pytest.mark.parametrize("name", sorted(sampled_examples()))
    def test_sampled_axis_matches_the_converged_reference(self, name, n_alpha):
        # Each chart takes the trapezoid rule on min(F + 1, n_alpha) points,
        # and on all n_alpha when F is None, as on hemisphere:d for |d| > 1,
        # whose forms have alpha degree 2|d| - 2.  Wherever the rule takes
        # F + 1 points or more for the forms' true F it matches the 192-node
        # Gauss-Legendre reference; hemisphere:+-9 and +-10 at 16 and +-10
        # at 17 alias.
        phi = sampled_examples()[name]
        grid = QuadratureGrid.make(n_alpha, 16, 12)
        for chart, want in zip((phi.upper, phi.lower), converged_alpha_reference(name)):
            f = chart.form_degree
            true_f = 2 * abs(int(name[11:])) - 2 if name.startswith("hemisphere:") else f
            assert f in (None, true_f)
            got = integrate_chart(chart, grid, degree=True)[0]
            nodes, weights = grid.alpha_rule(f)
            m = n_alpha if f is None else min(f + 1, n_alpha)
            assert np.array_equal(nodes, np.arange(m) * (2 * math.pi / m))
            assert np.array_equal(weights, np.full(m, 2 * math.pi / m))
            if alpha_rule_is_exact(true_f, n_alpha):
                assert all(abs(g - w) <= 1e-13 * abs(w) for g, w in zip(got, want))
        nodes, weights = grid.alpha_rule(None)
        assert np.array_equal(nodes, grid.alpha_nodes) and np.array_equal(weights, grid.alpha_weights)

    @pytest.mark.parametrize("n_alpha", ALPHA_SIZES)
    def test_each_chart_takes_its_declared_samples(self, n_alpha):
        # min(F + 1, n_alpha) samples for a declared F, all n_alpha for none;
        # the work counters count them with the degree oracle.  Without it, Re A
        # of a product of two maps with pairs takes one sample.
        grid = QuadratureGrid.make(n_alpha, 16, 12)
        for phi in sampled_examples().values():
            samples, plain = [], []
            for chart in (phi.upper,) if phi.mirrored else (phi.upper, phi.lower):
                f = chart.form_degree
                samples.append(len(grid.alpha_rule(f)[0]))
                assert samples[-1] == (n_alpha if f is None else min(f + 1, n_alpha))
                plain.append(1 if chernweil._alpha_mean(chart) else samples[-1])
            assert hemisphere_difference(phi, grid, degree=True).nodes == sum(samples) * 16 * 12
            assert hemisphere_difference(phi, grid).nodes == sum(plain) * 16 * 12

    @pytest.mark.parametrize("f, n_alpha", [
        (f, n) for f in range(2, 19) for n in ALPHA_SIZES if n > f])
    def test_a_twisted_product_takes_fewer_nodes_exactly(self, f, n_alpha):
        # A twisted product of F = f, and its mirror, take f + 1 alpha samples,
        # fewer than n_alpha, through its factors' jets; the rule is exact
        # there.
        name = f"twisted:{f}"
        phi = twisted_clutching(f)
        grid = QuadratureGrid.make(n_alpha, 16, 12)
        for chart, want in zip((phi.upper, phi.lower), converged_alpha_reference(name)):
            assert len(grid.alpha_rule(chart.form_degree)[0]) == f + 1
            got = integrate_chart(chart, grid, degree=True)[0]
            assert all(abs(g - w) <= 1e-13 * abs(w) for g, w in zip(got, want))

    @pytest.mark.parametrize("form_degree", [*range(6), 20])
    def test_the_sample_count_is_sharp(self, form_degree):
        # F + 1 samples integrate e^{ij alpha} exactly for every |j| <= F,
        # the forms' degree, and no more: e^{i(F + 1) alpha} aliases to 1.
        f = form_degree
        nodes, weights = QuadratureGrid.make(21, 16, 12).alpha_rule(f)
        for j in range(-f, f + 1):
            exact = 2 * math.pi if j == 0 else 0.0
            assert abs(np.sum(weights * np.exp(1j * j * nodes)) - exact) <= 1e-13
        assert abs(np.sum(weights * np.exp(1j * (f + 1) * nodes)) - 2 * math.pi) <= 1e-13

    @staticmethod
    def form_spectra(chart: SU2Map, seed: int):
        """|FFT| along 64 equispaced alpha samples of both forms of ``chart``, as
        ``_chart_values`` evaluates them, at 7 random (beta, r) points.  A
        product of two maps with pairs, whose Re A ``_chart_values`` gives as
        its alpha mean, is evaluated as the same product with a factor of no
        pair, pointwise."""
        if chernweil._alpha_mean(chart):
            chart = unknown_degree(chart)
        n = 64  # frequencies up to 32 are resolved
        alpha = (2 * math.pi / n * np.arange(n))[:, None]
        rng = np.random.default_rng(seed)
        beta, r = rng.uniform(0.05, math.pi - 0.05, 7)[None, :], rng.uniform(0.05, 1.0, 7)[None, :]
        return [np.abs(np.fft.fft(np.broadcast_to(values, (n, 7)), axis=0))
                for values in chernweil._chart_values(chart, (alpha, beta, r), degree=True)]

    @pytest.mark.parametrize("name", ["rho1", "rho2", "upper", "lower", "rho1*rho2",
                                      "rho1*upper^-1", "upper^3", "upper^-3", "(rho1*upper)^2"])
    def test_chart_forms_have_no_alpha_content_above_the_form_degree(self, name):
        # The leaves' forms do not depend on alpha, and the product and power
        # rules of _chart_values give both forms from the factors' or base's
        # jets; their alpha degree F is what the exact alpha rule rests on.
        # The powers have no F: the forms of upper^+-3 and (rho1*upper)^2
        # have alpha degree 4.
        pair, chart = build_example_cocycles(), hemisphere_chart()
        chart = {**leaf_maps(), "rho1*rho2": pair.rho1 * pair.rho2,
                 "rho1*upper^-1": pair.rho1 * chart.inverse(),
                 "upper^3": chart.power(3), "upper^-3": chart.power(-3),
                 "(rho1*upper)^2": (pair.rho1 * chart).power(2)}[name]
        top = {"upper^3": 4, "upper^-3": 4, "(rho1*upper)^2": 4}.get(name, chart.form_degree)
        for spectrum in self.form_spectra(chart, 20261020):
            assert np.max(spectrum[top + 1:64 - top]) <= 1e-13 * np.max(spectrum)

    @pytest.mark.parametrize("d", [2, 3, -4, 5, 10, -15])
    def test_power_form_degree_is_sharp(self, d):
        # q^d on the hemisphere chart has no F; its forms have alpha
        # degree 2|d| - 2 with content at that frequency itself (measured:
        # half the largest coefficient at d = 2, 1e-4 of it at d = -15).
        chart = hemisphere_chart().power(d)
        top = 2 * abs(d) - 2
        assert chart.form_degree is None
        for spectrum in self.form_spectra(chart, 20261022):
            assert np.max(spectrum[top + 1:64 - top]) <= 1e-13 * np.max(spectrum)
            assert np.max(spectrum[[top, 64 - top]]) >= 1e-6 * np.max(spectrum)

    @pytest.mark.parametrize("name", [
        "pole", "pole-lower", "pole^2", "pole^-3", "qpow:4-lower", "rho2^2",
        *(f"twisted({a},{b})" for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0))])
    def test_pair_map_forms_have_no_alpha_content(self, name):
        # A map of pair (a, b) is D(s alpha) m0 D(t alpha): its forms do not
        # depend on alpha, F = 0.
        if name.startswith("twisted("):
            chart = twisted(alpha_free_maps()[0], *map(int, name[8:-1].split(",")))
        else:
            chart = {**leaf_maps(), "pole^2": unit_pole_chart().power(2),
                     "pole^-3": unit_pole_chart().power(-3),
                     "qpow:4-lower": quaternion_power_clutching(4).lower,
                     "rho2^2": build_example_cocycles().rho2.power(2)}[name]
        assert chart.form_degree == 0
        for spectrum in self.form_spectra(chart, 20261025):
            assert np.max(spectrum[1:]) <= 1e-13 * np.max(spectrum)

    @pytest.mark.parametrize("name, top", [
        ("rho1*rho2", 1), ("rho2*rho1", 1), ("rho1*upper^-1", 2), ("upper*upper", 2),
        ("rho1*upper", 0), ("paper-mirror", 1), ("pole*rho1", 2), ("upper*pole", 2),
        ("(rho1*rho2)^-1", 1), ("(pole*rho1)^-1", 2), ("(upper*upper)^-1", 2)])
    def test_phase_product_form_degree_is_sharp(self, name, top):
        # Both forms of a product of maps with pairs have alpha content at
        # F = |a1 + b1 + a2 - b2| itself and none above it; so have those of
        # its inverse, the mirror "yuv", which keeps F.
        pair, chart, pole = build_example_cocycles(), hemisphere_chart(), unit_pole_chart()
        chart = {"rho1*rho2": pair.rho1 * pair.rho2, "rho2*rho1": pair.rho2 * pair.rho1,
                 "rho1*upper^-1": pair.rho1 * chart.inverse(), "upper*upper": chart * chart,
                 "rho1*upper": pair.rho1 * chart,
                 "paper-mirror": paper_example_clutching().upper.mirror(),
                 "pole*rho1": pole * pair.rho1, "upper*pole": chart * pole,
                 "(rho1*rho2)^-1": (pair.rho1 * pair.rho2).inverse(),
                 "(pole*rho1)^-1": (pole * pair.rho1).inverse(),
                 "(upper*upper)^-1": (chart * chart).inverse()}[name]
        assert chart.form_degree == top
        for spectrum in self.form_spectra(chart, 20261023):
            assert np.max(spectrum[top + 1:64 - top]) <= 1e-13 * np.max(spectrum)
            assert np.max(spectrum[[top, -top]]) >= 1e-6 * np.max(spectrum)

    @pytest.mark.parametrize("name, top", [
        ("const*upper", 0), ("upper*const", 0), ("const*(rho1*rho2)", 1),
        ("const^-1*upper", 0), ("upper*mirror(const)", 0), ("(const*const)*upper", 0)])
    def test_a_constant_factor_keeps_the_other_factors_form_degree(self, name, top):
        # A constant factor is a fixed rotation of S^3, which keeps the volume
        # form: the product takes its other factor's F.  A mirror of a
        # constant, and a product of two, is a constant factor too.  The
        # forms have content at F and none above it (measured: below 1.5e-16
        # of the largest coefficient), and the F + 1 samples give the
        # integrals of the whole alpha axis (measured: 2.4e-16 relative apart).
        pair, chart = build_example_cocycles(), hemisphere_chart()
        const = SU2Map.constant(0.6, 0.8j)
        chart = {"const*upper": const * chart, "upper*const": chart * const,
                 "const*(rho1*rho2)": const * (pair.rho1 * pair.rho2),
                 "const^-1*upper": const.inverse() * chart,
                 "upper*mirror(const)": chart * const.mirror(),
                 "(const*const)*upper": (const * const) * chart}[name]
        assert chart.form_degree == top
        for spectrum in self.form_spectra(chart, 20261027):
            assert np.max(spectrum[top + 1:64 - top]) <= 1e-15 * np.max(spectrum)
            assert np.max(spectrum[[top, -top]]) >= 1e-6 * np.max(spectrum)
        grid = QuadratureGrid.make(16)
        phi = ClutchingFunction(chart, chart.mirror())
        assert hemisphere_difference(phi, grid, degree=True).nodes == (top + 1) * 16 * 16
        want = integrate_chart(unknown_degree(chart), grid, degree=True)[0]
        got = integrate_chart(chart, grid, degree=True)[0]
        assert all(abs(g - w) <= 1e-14 * abs(w) for g, w in zip(got, want))

    @pytest.mark.parametrize("pairs", list(product(range(-2, 3), repeat=4)),
                             ids=lambda p: "({},{})x({},{})".format(*p))
    def test_twisted_product_form_degree_is_sharp(self, pairs):
        # The pair rule on twisted products of two maps free of alpha: both
        # forms have content at F = |a1 + b1 + a2 - b2| and none above it.
        # Where a1 = b1 = -a2 = b2 the twists cancel, L D(a1 alpha)
        # D(-a1 alpha) R, and the product is free of alpha: its forms
        # vanish identically.
        a1, b1, a2, b2 = pairs
        chart = twisted_product(*pairs)
        top = abs(a1 + b1 + a2 - b2)
        assert chart.form_degree == top
        spectra = self.form_spectra(chart, 20261026)
        if a1 == b1 == -a2 == b2:
            assert all(np.max(spectrum) <= 1e-12 for spectrum in spectra)
            return
        for spectrum in spectra:
            assert np.max(spectrum[top + 1:64 - top]) <= 1e-13 * np.max(spectrum)
            assert np.max(spectrum[[top, -top]]) >= 1e-6 * np.max(spectrum)

    @pytest.mark.parametrize("n", [16, 32, 96])
    def test_sampled_charts_match_the_whole_alpha_axis(self, n):
        # A cross-check of F: the paper chart (F = 1) on 2 alpha samples and a
        # twisted product of F = 4 on 5 give the integrals of the trapezoid
        # rule on all n alpha nodes, exact to degree n - 1, as the same
        # products with a factor of no pair take it.
        grid = QuadratureGrid.make(n)
        for chart, samples in ((paper_example_clutching().upper, 2),
                               (twisted_clutching(4).upper, 5)):
            whole = unknown_degree(chart)
            assert [len(grid.alpha_rule(m.form_degree)[0]) for m in (chart, whole)] == [samples, n]
            want = integrate_chart(whole, grid, degree=True)[0]
            got = integrate_chart(chart, grid, degree=True)[0]
            assert all(abs(g - w) <= 1e-14 * abs(w) for g, w in zip(got, want))

    def test_non_finite_sample_on_the_sampled_axis(self, monkeypatch):
        # A twisted product of F = 4 on a 16-node grid takes 5 alpha samples:
        # the message names the sampled node, in the third three-row chunk.
        grid = QuadratureGrid.make(16)
        samples = grid.alpha_rule(4)[0]
        node = (samples[3], grid.beta_nodes[7], grid.r_nodes[11])
        assert len(samples) == 5 and samples[3] not in grid.alpha_nodes
        _, left, right = twisted_clutching(4).upper.origin

        def jet(a, b, r):
            z, w, zd, wd = left.jet(a, b, r)
            hit = (a == node[0]) & (b == node[1]) & (r == node[2])
            return np.where(hit, np.nan, z), w, zd, wd
        chart = SU2Map(jet, phases=left.phases) * right
        assert chart.form_degree == 4
        monkeypatch.setattr(chernweil, "CHUNK_NODES", 3 * 5 * 16)
        expected = f"non-finite integrand sample at (alpha, beta, r) = {tuple(map(float, node))}"
        with pytest.raises(ValueError, match=re.escape(expected)):
            integrate_chart(chart, grid, degree=True)  # Re A alone reads alpha = 0


def pair_products() -> dict:
    """The product of every ordered pair of the hemisphere chart, the unit pole
    chart, rho1, rho2, a constant and their mirrors: 100 products of two maps
    with phase pairs, whose Re A integrates along alpha in closed form."""
    pair = build_example_cocycles()
    leaves = {"upper": hemisphere_chart(), "pole": unit_pole_chart(), "rho1": pair.rho1,
              "rho2": pair.rho2, "const": SU2Map.constant(0.6, 0.8j)}
    maps = {**leaves, **{f"mirror({name})": m.mirror() for name, m in leaves.items()}}
    return {f"{a}*{b}": maps[a] * maps[b] for a in maps for b in maps}


def derived_maps(m: SU2Map) -> dict:
    """``m``, its mirrors, its inverse, its square and its cube."""
    mirrors = {f"mirror({flips})": m.mirror(flips) for flips in ("v", "x", "y", "u", "xyu")}
    return {"map": m, **mirrors, "inverse": m.inverse(), "power(2)": m.power(2),
            "power(3)": m.power(3)}


def bit_equal(got, want) -> bool:
    """The same shape, dtype and bytes (signed zeros included)."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


class TestOneDescription:
    """``origin`` is the one description of a composition: ``jet`` and
    ``__call__`` both read it, and it rebuilds the map."""

    @pytest.mark.parametrize("name", sorted(pair_products()))
    def test_value_is_the_jets_and_origin_rebuilds_the_map(self, name):
        coords = axis_grids()
        for label, m in derived_maps(pair_products()[name]).items():
            jet = flat_jet(m.jet(*coords))
            assert all(map(bit_equal, m(*coords), jet[:2])), label
            rebuilt = SU2Map(origin=m.origin, phases=m.phases)
            assert rebuilt.form_degree == m.form_degree, label
            assert all(map(bit_equal, flat_jet(rebuilt.jet(*coords)), jet)), label
            assert all(map(bit_equal, rebuilt(*coords), m(*coords))), label


class TestAlphaMean:
    """Re A of a product of two maps with pairs on one alpha sample, alpha = 0:
    the cross terms of n_a and n_b have alpha mean zero (module docstring)."""

    @pytest.mark.parametrize("name", sorted(pair_products()))
    def test_one_sample_matches_the_whole_alpha_axis(self, name):
        # The same product with a factor of no pair takes all 16 alpha nodes,
        # exact for the forms' alpha degree F <= 2.  The floor of 1e-14 takes
        # the products of degree 0, whose integral is zero up to rounding
        # (measured: 1.9e-15 apart); elsewhere measured 2.4e-16 relative.
        chart = pair_products()[name]
        assert chernweil._alpha_mean(chart)
        grid = QuadratureGrid.make(16)
        phi = ClutchingFunction(chart, chart.mirror())
        assert hemisphere_difference(phi, grid).nodes == 16 * 16
        (got,), (want,) = (integrate_chart(m, grid)[0] for m in (chart, unknown_degree(chart)))
        assert abs(got - want) <= 1e-14 * max(abs(want), 1.0)

    @pytest.mark.parametrize("name", sorted(pair_products()))
    def test_c2_does_not_depend_on_the_degree_oracle(self, name):
        # With the degree oracle the pass evaluates F + 1 alpha samples, and
        # Re A reads the first: c2 is the same bit for bit.
        chart = pair_products()[name]
        phi = ClutchingFunction(chart, chart.mirror())
        grid = QuadratureGrid.make(16)
        both = hemisphere_difference(phi, grid, degree=True)
        assert repr(chern2(phi, grid)) == repr(both.integral / math.pi ** 2)

    @pytest.mark.parametrize("name", ["paper pair", "phi_Einv", "qpow:3"])
    def test_value_only_boundary_gap_equals_the_jet_gap(self, name, monkeypatch):
        # The boundary checks evaluate values alone: a product's value from
        # its factors' values and a mirror's from its base's, with no product
        # jet but inside a power's jet.  The gap is the jet path's bit for bit.
        pair = build_example_cocycles()
        phi = {"phi_Einv": build_clutching_pair(pair).phi_Einv,
               "qpow:3": quaternion_power_clutching(3)}.get(name)
        f, g = (pair.rho1 * pair.rho2, pair.rho2 * pair.rho1) if phi is None else (phi.upper, phi.lower)
        calls = []
        monkeypatch.setattr(chernweil, "_product_jet",
                            lambda *jets, jet=chernweil._product_jet: calls.append(1) or jet(*jets))
        got = ClutchingFunction(f, g).boundary_mismatch()
        assert bool(calls) == (name == "qpow:3")
        monkeypatch.setattr(SU2Map, "__call__", lambda self, *coords: self.jet(*coords)[:2])
        assert repr(got) == repr(ClutchingFunction(f, g).boundary_mismatch())
