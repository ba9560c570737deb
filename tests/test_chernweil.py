"""SU(2) numerics: cocycles, clutching functions, curvature forms, quadrature."""

import math
import re
import tracemalloc
from itertools import permutations

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
    a_form_integral_and_degree,
    build_clutching_pair,
    build_example_cocycles,
    chern2,
    clutching_example,
    constant_clutching,
    curvature_local_form,
    det_curvature_su2,
    f2_moment,
    hemisphere_chart,
    hemisphere_difference,
    hemisphere_work,
    integrate_chart,
    mapping_degree,
    paper_example_clutching,
    quaternion_power_clutching,
    standard_profile,
)
from tcclasses.chernweil import _chebyshev, _re_A, _volume_pullback

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

    @pytest.mark.parametrize("sizes, rules", [((192,), 2), ((32, 64, 16), 2), ((64, 32, 48), 3)])
    def test_one_rule_per_distinct_size(self, sizes, rules, monkeypatch):
        leggauss = np.polynomial.legendre.leggauss
        calls = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        chernweil._legendre_rule.cache_clear()  # rules earlier tests computed
        grid = QuadratureGrid.make(*sizes)
        assert len(calls) == len(set(calls)) == rules
        QuadratureGrid.make(*sizes)  # a second grid of the same sizes computes no rule
        assert len(calls) == rules

        def mapped(n, lo, hi):  # each axis's own rule, mapped onto [lo, hi]
            t, w = leggauss(n)
            return (hi - lo) / 2 * t + (hi + lo) / 2, (hi - lo) / 2 * w

        n_alpha, n_beta, n_r = (sizes * 3)[:3]
        halves = [mapped(n_beta // 2, lo, hi)
                  for lo, hi in ((0, math.pi / 2), (math.pi / 2, math.pi))]
        for (nodes, weights), (x, w) in (
                ((grid.alpha_nodes, grid.alpha_weights), mapped(n_alpha, 0.0, 2 * math.pi)),
                ((grid.beta_nodes, grid.beta_weights),
                 tuple(np.concatenate(pair) for pair in zip(*halves))),
                ((grid.r_nodes, grid.r_weights), mapped(n_r, 0.0, 1.0))):
            assert np.array_equal(nodes, x) and np.array_equal(weights, w)

    def test_memoized_rules_are_read_only_and_unchanged(self):
        nodes, weights = chernweil._legendre_rule(48)
        assert chernweil._legendre_rule(48)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        fresh = np.polynomial.legendre.leggauss(48)
        assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
        with pytest.raises(ValueError):
            nodes[0] = 0.0


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

    def test_noncommuting_pair_rejected(self):
        # Two constant maps that do not commute anywhere.
        i_mat = SU2Map.constant(1j, 0.0)
        j_mat = SU2Map.constant(0.0, 1.0)
        with pytest.raises(ValueError, match="commute"):
            build_clutching_pair(CocyclePair(i_mat, j_mat))


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

    def test_real_part_shortcut_matches_complex_A(self):
        # Oracle: evaluate the full complex 3-form A on the coordinate frame
        # via 3x3 determinants and compare its real part with the -12(J1+J2)
        # shortcut actually used by the integrator.
        phi = paper_example_clutching()
        chart = phi.upper
        a = np.array([0.4, 1.7, 3.9])
        b = np.array([0.3, 1.2, 2.8])
        r = np.array([0.25, 0.55, 0.85])
        z, w = chart(a, b, r)
        (zd, wd) = chart.partials(a, b, r)
        rows = {"z": np.stack(zd), "zb": np.stack([np.conj(v) for v in zd]),
                "w": np.stack(wd), "wb": np.stack([np.conj(v) for v in wd])}

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
        from tcclasses.chernweil import _re_A
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
        assert ref is None and phi.name == "qpow:2"
        for name in ("qpow:0", "qpow:-10", "qpow:1000"):  # canonical spellings
            assert clutching_example(name)[0].name == name
        with pytest.raises(ValueError):
            clutching_example("qpow:x")
        with pytest.raises(ValueError, match="cap"):
            clutching_example("qpow:-1001")
        with pytest.raises(ValueError):
            clutching_example("moebius")


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

    def test_det_vanishes_where_profile_flat(self):
        for height in (0.95, -0.95):  # f2 = 0 resp. f2 = 1, df2 = 0 in both
            flat = (1.3, 0.7, 0.55, height)
            assert det_curvature_su2(self.rho, self.f2, flat, self.frame) == 0

    def test_det_matches_direct_expansion(self):
        # Oracle: the honest determinant of the 2x2 matrix of curvature
        # 2-forms, wedge-expanded over the (2,2)-shuffles of the frame,
        # at 100 random interior points.
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
                            self.rho, 1, self.f2, point, frame[key[0]], frame[key[1]])

            def wedge(ia, ja, ib, jb):
                total = 0j
                for (p, q), (s, t), sign in shuffles:
                    total += sign * pair_matrices[(p, q)][ia, ja] * pair_matrices[(s, t)][ib, jb]
                return total

            direct = wedge(0, 0, 1, 1) - wedge(0, 1, 1, 0)
            formula = det_curvature_su2(self.rho, self.f2, point, frame)
            assert abs(formula - direct) <= 1e-7 * max(1.0, abs(direct))


class TestHemisphereChart:
    def test_lands_on_unit_sphere(self):
        chart = hemisphere_chart()
        a = np.linspace(0, 2 * math.pi, 7)[:, None]
        b = np.linspace(0, math.pi, 7)[None, :]
        z, w = chart(a, b, np.float64(0.6))
        assert np.max(np.abs(np.abs(z) ** 2 + np.abs(w) ** 2 - 1)) < 1e-14

    def test_charts_agree_on_equator(self):
        phi = quaternion_power_clutching(1)
        assert phi.boundary_mismatch() < 1e-14


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

    return SU2Map(jet)


class TestMirror:
    """SU2Map.mirror is R o map with R(z, w) = (z, wb), and both forms are odd under R."""

    @pytest.mark.parametrize("d", [1, 2, -3, 40])
    def test_mirrored_power_is_the_lower_hemisphere_power(self, d):
        coords = axis_grids()
        got = hemisphere_chart().power(d).mirror().jet(*coords)
        want = lower_hemisphere_chart().power(d).jet(*coords)
        for g, w in zip(flat_jet(got), flat_jet(want)):
            assert broadcast_equal(g, w)

    def test_records_the_map_it_mirrors(self):
        chart = hemisphere_chart()
        assert chart.mirror().mirror_of is chart and chart.mirror_of is None
        assert quaternion_power_clutching(3).mirrored and constant_clutching().mirrored
        assert paper_example_clutching().mirrored
        phis = build_clutching_pair(build_example_cocycles())
        assert not phis.phi_Einv.mirrored and not phis.phi_E.mirrored

    @pytest.mark.parametrize("name", ["paper-upper", "rho1", "qpow:3-upper", "rotated"])
    def test_integrands_are_odd_under_the_mirror(self, name):
        m = {"paper-upper": paper_example_clutching().upper,
             "rho1": build_example_cocycles().rho1,
             "qpow:3-upper": quaternion_power_clutching(3).upper,
             "rotated": SU2Map.constant(0.6, 0.8j) * hemisphere_chart()}[name]
        coords = axis_grids()
        z, w, zd, wd = m.jet(*coords)
        mz, mw, mzd, mwd = m.mirror().jet(*coords)
        if name == "rotated":  # w is not real, so the mirror moves the map
            assert np.max(np.abs(mw - w)) > 0.1
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

    @pytest.mark.parametrize("example", ["qpow:2", "qpow:-3", "paper"])
    def test_one_chart_equals_the_two_chart_difference(self, example):
        phi, _ = clutching_example(example)
        grid = QuadratureGrid.make(20, 16, 12)
        if example == "paper":
            lower, tol = build_clutching_pair(build_example_cocycles()).phi_Einv.lower, 1e-12
        else:
            lower, tol = lower_hemisphere_chart().power(int(example[5:])), 0.0
        two_chart = tuple(lo - up for lo, up in zip(integrate_chart(lower, grid, degree=True),
                                                    integrate_chart(phi.upper, grid, degree=True)))
        one_chart = hemisphere_difference(phi, grid, degree=True)
        assert all(abs(a - b) <= tol for a, b in zip(one_chart, two_chart))

    def test_the_pass_takes_no_integrand(self):
        # The one-chart shortcut holds for the two built-in forms only, so a
        # caller cannot pass another integrand, not even positionally.
        phi = quaternion_power_clutching(2)
        grid = QuadratureGrid.make(4)
        with pytest.raises(TypeError):
            integrate_chart(phi.upper, grid, (_re_A,))
        with pytest.raises(TypeError):
            hemisphere_difference(phi, grid, (_re_A,))
        assert len(hemisphere_difference(phi, grid)) == 1
        assert len(hemisphere_difference(phi, grid, degree=True)) == 2

    def test_zero_difference_is_positive_zero(self):
        # JSON writes -0.0 as "-0.0": constant's c2 must read 0.0 on both paths.
        ident = SU2Map.constant(1.0, 0.0)
        grid = QuadratureGrid.make(16)
        for phi in (constant_clutching(), ClutchingFunction(ident, ident)):
            assert [math.copysign(1.0, v) for v in hemisphere_difference(phi, grid)] == [1.0]

    @pytest.mark.parametrize("mirrored", [True, False])
    def test_chart_passes_match_the_work_counters(self, mirrored):
        # A lower chart that mirrors an equal but different map is not
        # recognised as a mirror: the quadrature integrates both charts.
        # The upper chart is a power: its pass evaluates its base's jet, not
        # its own.  The lower chart is a mirror, evaluated by its own jet.
        upper = hemisphere_chart().power(2)
        lower = (upper if mirrored else hemisphere_chart().power(2)).mirror()
        phi = ClutchingFunction(upper, lower)
        grid = QuadratureGrid.make(48, 16, 48)  # chunks of 7 beta rows: 3 per chart
        calls = {"upper": [], "upper base": [], "lower": []}
        for chart, log in ((upper, calls["upper"]), (upper.origin[1], calls["upper base"]),
                           (lower, calls["lower"])):
            chart.jet = lambda *coords, log=log, jet=chart.jet: log.append(coords) or jet(*coords)
        hemisphere_difference(phi, grid)
        passes = 1 if mirrored else 2
        assert phi.mirrored is mirrored
        assert {side: len(log) for side, log in calls.items()} == {
            "upper": 0, "upper base": 3, "lower": 3 * (passes - 1)}
        assert hemisphere_work(phi, grid) == {"nodes": passes * 48 * 16 * 48,
                                              "chunks": 3 * passes}


def leaf_maps():
    pair = build_example_cocycles()
    return {"rho1": pair.rho1, "rho2": pair.rho2,
            "upper": hemisphere_chart(), "lower": hemisphere_chart().mirror()}


def axis_grids(na=5, nb=6, nr=4):
    """Broadcastable (na,1,1), (1,nb,1), (1,1,nr) coordinates; beta straddles pi/2."""
    alpha = np.linspace(0.2, 6.0, na)[:, None, None]
    beta = np.concatenate([np.linspace(0.3, math.pi / 2 - 0.05, nb // 2),
                           np.linspace(math.pi / 2 + 0.05, 2.9, nb - nb // 2)])[None, :, None]
    r = np.linspace(0.1, 0.95, nr)[None, None, :]
    return alpha, beta, r


class TestChartLeaves:
    """The closed-form charts: analytic partials and broadcast shapes."""

    @pytest.mark.parametrize("name", ["rho1", "rho2", "upper", "lower"])
    def test_partials_match_central_differences(self, name):
        chart = leaf_maps()[name]
        # Points on both sides of the beta = pi/2 seam, at least 10^4 h away.
        points = (np.array([0.9, 2.2, 4.0, 5.5]),
                  np.array([0.6, math.pi / 2 - 0.02, math.pi / 2 + 0.02, 2.5]),
                  np.array([0.3, 0.6, 0.9, 0.45]))
        assert_partials_match_central_differences(chart, points, h=1e-6, tol=1e-8)

    @pytest.mark.parametrize("name", ["rho1", "rho2", "upper", "lower"])
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


def dense_power_jet(jet, k):
    """The chain rule of the closed-form power with all of its terms."""
    z, w, zd, wd = jet
    t, u, du = _chebyshev(z.real, k)
    dz = tuple(k * u * v.real + 1j * (v.imag * u + z.imag * du * v.real) for v in zd)
    dw = tuple(du * v.real * w + u * p for v, p in zip(zd, wd))
    return t + 1j * (z.imag * u), u * w, dz, dw


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

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_power_jet_equals_dense_chain_rule(self, k):
        coords = axis_grids()
        for base in (hemisphere_chart(), build_example_cocycles().rho1.inverse()):
            dense = dense_power_jet(base.jet(*coords), k)
            for got, expected in zip(flat_jet(base.power(k).jet(*coords)), flat_jet(dense)):
                assert broadcast_equal(got, expected)

    def test_structural_zeros_stay_zero_dimensional(self):
        coords = axis_grids()
        (_, _, _), (dw_da, _, _) = build_example_cocycles().rho1.inverse().jet(*coords)[2:]
        assert dw_da.shape == ()
        _, _, zd, wd = SU2Map.constant(1.0, 0.0).power(-2).jet(*coords)
        assert all(v.shape == () and v == 0 for v in zd + wd)


class TestChunkedQuadrature:
    """integrate_chart: one jet per beta chunk, a result independent of the chunk size."""

    GRID = (20, 16, 12)
    ROW = GRID[0] * GRID[2]  # nodes in one beta row
    # (beta rows per chunk, chunks): one row, a partial last chunk, the whole grid.
    CHUNKS = [(1, 16), (3, 6), (16, 1)]

    @pytest.mark.parametrize("rows", [rows for rows, _ in CHUNKS])
    @pytest.mark.parametrize("example", ["paper", "qpow:2", "qpow:-3", "constant"])
    def test_results_do_not_depend_on_the_chunk(self, example, rows, monkeypatch):
        phi, _ = clutching_example(example)
        grid = QuadratureGrid.make(*self.GRID)
        results = []
        for chunk in (rows * self.ROW, chernweil.CHUNK_NODES):
            monkeypatch.setattr(chernweil, "CHUNK_NODES", chunk)
            results.append((chern2(phi, grid), mapping_degree(phi, grid),
                            a_form_integral_and_degree(phi, grid)))
        assert results[0] == results[1]

    @pytest.mark.parametrize("rows, chunks", CHUNKS)
    def test_one_jet_per_chunk_for_all_integrands(self, rows, chunks, monkeypatch):
        # The lower chart (a mirror) evaluates its own jet once per chunk; the
        # upper chart (a product) evaluates each factor's jet once per chunk
        # and never its own, also when the degree oracle builds the product jet.
        phi = paper_example_clutching()
        grid = QuadratureGrid.make(*self.GRID)
        monkeypatch.setattr(chernweil, "CHUNK_NODES", rows * self.ROW)
        for chart, evaluated in ((phi.lower, [phi.lower]), (phi.upper, phi.upper.origin[1:])):
            calls = {m: [] for m in (chart, *evaluated)}
            for m, log in calls.items():
                m.jet = lambda *coords, log=log, jet=m.jet: log.append(coords) or jet(*coords)
            both = integrate_chart(chart, grid, degree=True)
            for m, log in calls.items():
                if m not in evaluated:
                    assert log == []
                    continue
                # The paper example is mirrored: its hemisphere difference is one pass.
                assert len(log) == hemisphere_work(phi, grid)["chunks"] == chunks
                assert all(a.shape == (20, 1, 1) and r.shape == (1, 1, 12) for a, _, r in log)
                assert [b.size for _, b, _ in log] == ([rows] * (chunks - 1)
                                                       + [16 - rows * (chunks - 1)])
            assert both[:1] == integrate_chart(chart, grid)

    def test_shared_pass_equals_separate_passes(self):
        grid = QuadratureGrid.make(24)
        for phi in (quaternion_power_clutching(2), paper_example_clutching()):
            assert a_form_integral_and_degree(phi, grid) == (a_form_integral(phi, grid),
                                                            mapping_degree(phi, grid))

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
        for values, f in zip(got, self.FORMS):
            np.testing.assert_allclose(values, f(z, w, (zd, wd)), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name", sorted(rule_charts()))
    def test_hemisphere_difference_matches_the_jet_path(self, name):
        chart = rule_charts()[name]
        grid = QuadratureGrid.make(20, 16, 12)
        got = hemisphere_difference(ClutchingFunction(chart, chart.mirror()), grid, degree=True)
        want = hemisphere_difference(ClutchingFunction(jet_path(chart), jet_path(chart.mirror())),
                                     grid, degree=True)
        assert all(abs(g - w) <= 1e-12 * abs(w) for g, w in zip(got, want))
