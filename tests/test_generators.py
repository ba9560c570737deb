"""The power-map calculus, Vandermonde decompositions, and mu-generation."""

import random
import re
from fractions import Fraction
from itertools import product
from math import comb
from unittest import mock

import pytest

from conftest import monomial, random_polynomial
from tcclasses import generators, groebner
from tcclasses.cli import MAX_RANK
from tcclasses.generators import (
    DecompositionResult,
    FormalSum,
    GeneratorExpr,
    a_recursion,
    a_recursion_pivot,
    admissible_degrees,
    curvature_sigma_form,
    decompose,
    expand_power_symbols,
    iota,
    mu_generate,
    p_symbol,
    power_map,
    sigma_symbol,
    torus_power_map,
    vandermonde_weights,
)
from tcclasses.groebner import (equal_mod_ideal, group_ideal_generators, ideal_for_group,
                                normal_form)
from tcclasses.polyring import (Polynomial, _parse_coeff, polynomial_from_dict, power_sum,
                                substitute, two_var_power_sum)
from tcclasses.weyl import GroupSpec, parity, symmetrize

#: Every (group, a, b) that the CLI's rank caps admit: 204 targets.
CAPPED_TARGETS = [(GroupSpec(kind, n), m - b, b) for kind, cap in MAX_RANK.items()
                  for n in range(1, cap + 1) for m in admissible_degrees(GroupSpec(kind, n))
                  for b in range(m + 1)]


def var(family, i, rank):
    return Polynomial.variable(family, i, rank)


class TestIota:
    def test_linear(self):
        expected = power_sum(1, 2, "x") + power_sum(1, 2, "y")
        assert iota(power_sum(1, 2, "z")) == expected

    def test_quadratic_displayed_expansion(self):
        expected = (power_sum(2, 2, "x") + two_var_power_sum(1, 1, 2).scale(2)
                    + power_sum(2, 2, "y"))
        assert iota(power_sum(2, 2, "z")) == expected

    def test_constant(self):
        assert iota(Polynomial.one(2)) == Polynomial.one(2)

    def test_rejects_xy_input(self):
        z = power_sum(2, 2, "z")
        for p, found in ((var("x", 1, 2), "['x']"), (var("y", 2, 2), "['y']"),
                         (var("x", 2, 2) + z, "['x']"), (var("y", 1, 2) * z, "['y']"),
                         (var("x", 1, 2) * var("z", 1, 2) + var("y", 2, 2), "['x', 'y']")):
            with pytest.raises(ValueError, match=re.escape(f"z-family only, found {found}")):
                iota(p)

    def test_homomorphism(self):
        rng = random.Random(21)
        for _ in range(50):
            p = random_polynomial(rng, 2, families="z", terms=3, max_degree=3)
            q = random_polynomial(rng, 2, families="z", terms=3, max_degree=3)
            assert iota(p * q) == iota(p) * iota(q)

    def test_equals_substitute(self):
        # The generic substitution z_i -> x_i + y_i is the reference for
        # the binomial expansion.
        rng = random.Random(23)
        for n in range(1, 5):
            reps = {("z", i): var("x", i, n) + var("y", i, n) for i in range(1, n + 1)}
            for _ in range(25):
                p = random_polynomial(rng, n, families="z", terms=4, max_degree=6)
                assert iota(p) == substitute(p, reps)


class TestPowerMap:
    def test_displayed_phi_minus_one(self):
        ip2 = iota(power_sum(2, 2, "z"))
        expected = (power_sum(2, 2, "x") - two_var_power_sum(1, 1, 2).scale(2)
                    + power_sum(2, 2, "y"))
        assert power_map(-1, ip2) == expected

    def test_identity(self):
        rng = random.Random(22)
        p = random_polynomial(rng, 2, families="xy")
        assert power_map(1, p) == p

    def test_eigenvalue_law(self):
        for n in (1, 2, 3, 4):
            for a in range(0, 4):
                for b in range(0, 4):
                    if a + b < 1:
                        continue
                    for k in range(-3, 4):
                        expected = two_var_power_sum(a, b, n).scale(Fraction(k) ** b)
                        assert power_map(k, two_var_power_sum(a, b, n)) == expected

    def test_rejects_z(self):
        for i in range(1, 4):
            z = var("z", i, 3)
            for p in (z, z * var("x", 1, 3) + var("y", 2, 3),
                      Polynomial.one(3) - z.scale(Fraction(1, 3))):
                with pytest.raises(ValueError, match="z-variables are not allowed"):
                    power_map(2, p)

    @pytest.mark.parametrize("p", [Polynomial.zero(2), Polynomial.constant(2, Fraction(-5, 3))])
    def test_zero_and_constant_are_fixed(self, p):
        assert power_map(-3, p) == p
        assert iota(p) == p

    def test_homomorphism_and_composition(self):
        rng = random.Random(23)
        for _ in range(50):
            p = random_polynomial(rng, 2, families="xy", terms=3)
            q = random_polynomial(rng, 2, families="xy", terms=3)
            k = rng.choice([-3, -2, -1, 2, 3])
            l = rng.choice([-3, -2, -1, 2, 3])
            assert power_map(k, p * q) == power_map(k, p) * power_map(k, q)
            assert power_map(k, power_map(l, p)) == power_map(k * l, p)


class TestTorusPowerMap:
    def test_scales_variables(self):
        assert torus_power_map(2, var("x", 1, 1)) == var("x", 1, 1).scale(2)

    def test_multiplicative_degree(self):
        p = var("x", 1, 2) * var("x", 2, 2)
        assert torus_power_map(3, p) == p.scale(9)

    def test_collapse_to_constant(self):
        p = var("x", 1, 1) + Polynomial.one(1)
        assert torus_power_map(0, p) == Polynomial.one(1)

    def test_mixed_families_rejected(self):
        with pytest.raises(ValueError):
            torus_power_map(2, var("x", 1, 2) + var("y", 1, 2))


class TestFormalSum:
    def test_products_commute_and_merge(self):
        a, b = FormalSum.symbol(p_symbol(1, 0)), FormalSum.symbol(p_symbol(0, 1))
        assert a * b == b * a
        assert (a * b + b * a).terms == {(p_symbol(0, 1), p_symbol(1, 0)): Fraction(2)}
        assert (a * b - b * a) == FormalSum.zero()

    def test_immutable_and_hashable(self):
        fs = FormalSum.symbol(p_symbol(1, 1), Fraction(1, 2))
        with pytest.raises(AttributeError):
            fs.terms = {}
        assert hash(fs) == hash(FormalSum({(p_symbol(1, 1),): Fraction(1, 2)}))
        assert len({GeneratorExpr.single(1, 2), GeneratorExpr.single(1, 2)}) == 1

    def test_expand_is_a_ring_map(self):
        x, y = FormalSum.symbol(p_symbol(1, 0)), FormalSum.symbol(p_symbol(0, 1))
        fs = (x * x).scale(3) - x * y + FormalSum.one().scale(Fraction(1, 2))
        image = {p_symbol(1, 0): power_sum(1, 2, "x"), p_symbol(0, 1): power_sum(1, 2, "y")}
        px, py = image[p_symbol(1, 0)], image[p_symbol(0, 1)]
        expected = (px * px).scale(3) - px * py + Polynomial.constant(2, Fraction(1, 2))
        pairs = fs.expand(image.__getitem__, Polynomial.one(2))
        assert Polynomial.linear_combination(2, pairs) == expected
        assert Polynomial.linear_combination(
            2, FormalSum.zero().expand(image.__getitem__, Polynomial.one(2))).is_zero()


class TestGeneratorExpr:
    def test_single_factor_evaluation(self):
        expr = GeneratorExpr.single(1, 1)
        assert expr.evaluate(2) == power_sum(1, 2, "x") + power_sum(1, 2, "y")

    def test_single_factor_evaluation_multiplies_nothing(self, monkeypatch):
        # A one-factor term is its factor's polynomial scaled: no product
        # with a constant polynomial.
        calls = []
        multiply = Polynomial.__mul__

        def counted(self, other):
            calls.append((self, other))
            return multiply(self, other)

        monkeypatch.setattr(Polynomial, "__mul__", counted)
        for k, m, n, coeff in [(1, 1, 2, 1), (-2, 3, 3, Fraction(2, 3)), (3, 8, 4, -5)]:
            expected = power_map(k, iota(power_sum(m, n, "z"))).scale(coeff)
            assert GeneratorExpr.single(k, m, coeff).evaluate(n) == expected
        assert calls == []

    def test_symmetric_combination(self):
        expr = (GeneratorExpr.single(1, 2, Fraction(1, 2))
                + GeneratorExpr.single(-1, 2, Fraction(1, 2)))
        assert expr.evaluate(2) == power_sum(2, 2, "x") + power_sum(2, 2, "y")

    def test_empty_is_zero(self):
        assert GeneratorExpr.zero().evaluate(3).is_zero()

    def test_canonical_merge(self):
        expr = GeneratorExpr.single(2, 1) + GeneratorExpr.single(2, 1)
        assert expr.terms == {((2, 1),): Fraction(2)}
        assert (expr - expr.scale(1)).terms == {}

    def test_zero_k_rejected(self):
        with pytest.raises(ValueError):
            GeneratorExpr.single(0, 1)

    @pytest.mark.parametrize("coeff", ["1e100000000", 1.5, "0x10", "1/00"])
    def test_coefficient_format_checked(self, coeff):
        """Only a JSON integer, "int" or "int/int" with a nonzero denominator is parsed;
        "1e100000000" must not be expanded."""
        with pytest.raises(ValueError, match=re.escape(repr(coeff))):
            _parse_coeff(coeff)


class TestRepr:
    def test_eval_of_repr_gives_the_value_back(self):
        names = {"Fraction": Fraction, "FormalSum": FormalSum, "GeneratorExpr": GeneratorExpr,
                 "polynomial_from_dict": polynomial_from_dict}
        rng = random.Random(31)
        values = [Polynomial.zero(3), GeneratorExpr.zero(),
                  decompose(GroupSpec("Sp", 3), 2, 4).expr, mu_generate((2, 1, 1), (0, 1, 1), 3)]
        values += [random_polynomial(rng, rng.randint(1, 4)) for _ in range(20)]
        for value in values:
            back = eval(repr(value), names)
            assert type(back) is type(value) and back == value, repr(value)


class TestARecursion:
    def test_m1_is_p01(self):
        (a0,) = a_recursion(1, 2)
        ideal = ideal_for_group(GroupSpec("U", 2))
        assert equal_mod_ideal(a0, two_var_power_sum(0, 1, 2), ideal)

    def test_m2_matches_paper_alternative(self):
        seq = a_recursion(2, 2)
        ideal = ideal_for_group(GroupSpec("U", 2))
        extracted = seq[1].scale(Fraction(1, 2 ** 2 - 2))
        assert equal_mod_ideal(extracted, two_var_power_sum(0, 2, 2), ideal)
        ip2 = iota(power_sum(2, 2, "z"))
        alt = (ip2 + power_map(-1, ip2)).scale(Fraction(1, 2))
        assert equal_mod_ideal(extracted, alt, ideal)

    def test_m3_pivot(self):
        seq = a_recursion(3, 3)
        assert a_recursion_pivot(3) == 6 * 18
        ideal = ideal_for_group(GroupSpec("U", 3))
        assert equal_mod_ideal(seq[2].scale(Fraction(1, 108)),
                               two_var_power_sum(0, 3, 3), ideal)

    def test_band_structure(self):
        # Mod the ideal, A_k carries exactly the components with j >= k + 1,
        # with coefficients C(m, j) prod_{l<=k} ((l+1)^j - (l+1)^l).
        m, n = 4, 4
        ideal = ideal_for_group(GroupSpec("U", n))
        seq = a_recursion(m, n)
        for k, a_poly in enumerate(seq):
            expected = Polynomial.zero(n)
            for j in range(k + 1, m + 1):
                coeff = comb(m, j)
                for l in range(1, k + 1):
                    coeff *= (l + 1) ** j - (l + 1) ** l
                expected = expected + two_var_power_sum(m - j, j, n).scale(coeff)
            assert equal_mod_ideal(a_poly, expected, ideal)

    def test_rank_bound(self):
        with pytest.raises(ValueError):
            a_recursion(3, 2)


class TestDecompose:
    def test_u3_matches_paper_sixth_formula(self):
        result = decompose(GroupSpec("U", 3), 1, 2)
        assert result.expr == (GeneratorExpr.single(1, 3, Fraction(1, 6))
                               + GeneratorExpr.single(-1, 3, Fraction(1, 6)))
        ip3 = iota(power_sum(3, 3, "z"))
        paper_form = (ip3 + power_map(-1, ip3)).scale(Fraction(1, 6))
        ideal = ideal_for_group(GroupSpec("U", 3))
        assert equal_mod_ideal(result.expr.evaluate(3), paper_form, ideal)

    def test_x_power_sum_is_zero_class(self):
        result = decompose(GroupSpec("U", 2), 1, 0)
        assert result.expr == GeneratorExpr.zero()

    def test_sp_mixed_component(self):
        result = decompose(GroupSpec("Sp", 2), 1, 1)
        ideal = ideal_for_group(GroupSpec("Sp", 2))
        assert equal_mod_ideal(result.expr.evaluate(2), two_var_power_sum(1, 1, 2), ideal)

    def test_su_reuses_elimination_with_its_own_ideal(self):
        result = decompose(GroupSpec("SU", 3), 0, 1)
        ideal = ideal_for_group(GroupSpec("SU", 3))
        assert equal_mod_ideal(result.expr.evaluate(3), two_var_power_sum(0, 1, 3), ideal)
        # P_{0,1} is itself a generator of the SU ideal, so the zero
        # expression certifies as well.
        assert equal_mod_ideal(Polynomial.zero(3), two_var_power_sum(0, 1, 3), ideal)

    def test_sp_odd_degree_rejected(self):
        with pytest.raises(ValueError, match="signed-invariant"):
            decompose(GroupSpec("Sp", 2), 1, 2)

    def test_degree_caps(self):
        with pytest.raises(ValueError, match="exceeds"):
            decompose(GroupSpec("U", 2), 2, 1)
        with pytest.raises(ValueError, match="exceeds"):
            decompose(GroupSpec("Sp", 2), 3, 3)

    def test_certification_rechecked_independently(self):
        for kind, n in (("U", 3), ("SU", 3), ("Sp", 2)):
            spec = GroupSpec(kind, n)
            ideal = ideal_for_group(spec)
            degrees = range(1, n + 1) if kind != "Sp" else (2, 4)
            for m in degrees:
                for b in range(0, m + 1):
                    result = decompose(spec, m - b, b)
                    assert equal_mod_ideal(result.expr.evaluate(n),
                                           two_var_power_sum(m - b, b, n), ideal)

    def test_vandermonde_moment_equations(self):
        # sum_k c_k k^j = [j == b] / C(m, b) for j = 1..m, exactly, on m
        # distinct nonzero nodes.
        for m in range(1, 13):
            for b in range(1, m + 1):
                weights = vandermonde_weights(m, b)
                assert len(weights) == m and 0 not in weights
                for j in range(1, m + 1):
                    moment = sum(c * Fraction(k) ** j for k, c in weights.items())
                    assert moment == (Fraction(1, comb(m, b)) if j == b else 0)

    def test_result_json(self):
        result = decompose(GroupSpec("U", 2), 0, 2)
        assert result.to_dict() == {**result.expr.to_dict(), "certified": True,
                                    "target": {"group": "U", "rank": 2, "a": 0, "b": 2}}


@pytest.fixture
def fresh_certificates():
    """Empty the memoised generator combinations before and after a test."""
    generators._power_sum_in_ideal.cache_clear()
    yield
    generators._power_sum_in_ideal.cache_clear()


def perturbed_weights(index: int, delta: Fraction):
    """``vandermonde_weights`` with ``delta`` added to the weight of one node."""
    original = generators.vandermonde_weights

    def weights(m, b):
        out = dict(original(m, b))
        node = list(out)[index % len(out)]
        out[node] += delta
        return out

    return weights


class TestCertificate:
    """decompose certifies against the defining generators, not a normal form."""

    @pytest.mark.parametrize("kind", MAX_RANK)
    def test_agrees_with_the_normal_form_oracle(self, kind):
        # The normal-form certificate decompose used before, kept as an
        # oracle; the targets include all nine Sp(4) degree-8 ones.
        assert len(CAPPED_TARGETS) == 204
        for spec, a, b in CAPPED_TARGETS:
            if spec.kind == kind:
                result = decompose(spec, a, b)
                assert equal_mod_ideal(result.expr.evaluate(spec.rank),
                                       two_var_power_sum(a, b, spec.rank),
                                       ideal_for_group(spec)), (spec, a, b)

    def test_needs_no_groebner_reduction(self, monkeypatch, fresh_certificates):
        def fail(*args, **kwargs):
            raise AssertionError("decompose reached the Groebner machinery")

        monkeypatch.setattr(groebner, "normal_form", fail)
        monkeypatch.setattr(groebner, "ideal_for_group", fail)
        for spec, a, b in CAPPED_TARGETS:
            assert decompose(spec, a, b).to_dict()["certified"] is True

    @pytest.mark.parametrize("spec", [GroupSpec("U", 3), GroupSpec("SU", 3), GroupSpec("Sp", 2)],
                             ids=lambda s: f"{s.kind}{s.rank}")
    def test_perturbed_generator_rejected(self, spec, monkeypatch, fresh_certificates):
        n = spec.rank
        gens = group_ideal_generators(spec)
        top = admissible_degrees(spec)[-1]
        for i in range(n):
            wrong = list(gens)
            wrong[i] = wrong[i] + Polynomial.variable("y", 1, n) * gens[i]
            monkeypatch.setattr(generators, "group_ideal_generators", lambda _: wrong)
            generators._power_sum_in_ideal.cache_clear()
            # P_{m,0} needs the i-th generator: m = i + 1 for SU, the top degree otherwise.
            m = i + 1 if spec.kind == "SU" else top
            with pytest.raises(RuntimeError, match=rf"P_\{{{m},0\}}\({n}\) for {spec.kind}"):
                decompose(spec, m, 0)

    def test_perturbed_weight_rejected(self):
        with mock.patch.object(generators, "vandermonde_weights",
                               perturbed_weights(0, Fraction(1, 10 ** 6))):
            with pytest.raises(RuntimeError, match="failed certification"):
                decompose(GroupSpec("U", 6), 3, 3)

    def test_any_perturbed_weight_rejected(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        targets = [t for t in CAPPED_TARGETS if t[2] >= 1]

        @hypothesis.settings(max_examples=60)
        @hypothesis.given(st.sampled_from(targets), st.integers(0, 11),
                          st.fractions(-10, 10, max_denominator=1000).filter(bool))
        def rejected(target, index, delta):
            with mock.patch.object(generators, "vandermonde_weights",
                                   perturbed_weights(index, delta)):
                with pytest.raises(RuntimeError, match="failed certification"):
                    decompose(*target)

        rejected()


class TestBinomialIdentity:
    def test_principal_sum(self):
        for n in range(1, 5):
            ideal = ideal_for_group(GroupSpec("U", n))
            for m in range(1, n + 1):
                lhs = iota(power_sum(m, n, "z"))
                rhs = Polynomial.zero(n)
                for j in range(1, m + 1):
                    rhs = rhs + two_var_power_sum(m - j, j, n).scale(comb(m, j))
                assert normal_form(lhs, ideal) == normal_form(rhs, ideal)


class TestMuGenerate:
    def test_single_variable(self):
        assert mu_generate((2,), (0,), 1) == FormalSum.symbol(p_symbol(2, 0))

    def test_pair_average(self):
        assert mu_generate((1, 0), (1, 0), 2) == FormalSum.symbol(p_symbol(1, 1), Fraction(1, 2))

    def test_two_term_relation(self):
        expected = (FormalSum.symbol(p_symbol(1, 1)) * FormalSum.symbol(p_symbol(1, 1))
                    - FormalSum.symbol(p_symbol(2, 2))).scale(Fraction(1, 2))
        assert mu_generate((1, 1), (1, 1), 2) == expected

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            mu_generate((1, 0), (0, 0), 2)

    def test_support_bound(self):
        with pytest.raises(ValueError, match="support"):
            mu_generate((2, 2, 2), (0, 0, 0), 2)

    def test_exhaustive_soundness_rank2(self):
        spec = GroupSpec("Sp", 2)
        for exps in product(range(7), repeat=4):
            if not 1 <= sum(exps) <= 6:
                continue
            I, J = exps[:2], exps[2:]
            if parity(I, J) == "odd":
                continue
            fs = mu_generate(I, J, 2)
            expanded = expand_power_symbols(fs, 2)
            assert expanded == symmetrize(monomial(2, x=I, y=J), spec)

    def test_soundness_rank3_sample(self):
        spec = GroupSpec("Sp", 3)
        for I, J in (((2, 1, 1), (0, 1, 1)), ((1, 1, 0), (1, 1, 0)), ((2, 2, 2), (0, 0, 0))):
            fs = mu_generate(I, J, 3)
            assert expand_power_symbols(fs, 3) == symmetrize(monomial(3, x=I, y=J), spec)


class TestSigmaRewriting:
    def test_first_chern_class(self):
        fs = curvature_sigma_form(GeneratorExpr.single(1, 1), 3)
        assert fs == FormalSum.symbol(sigma_symbol(1, 1))

    def test_degree_two_symmetric_form(self):
        expr = (GeneratorExpr.single(1, 2, Fraction(1, 2))
                + GeneratorExpr.single(-1, 2, Fraction(1, 2)))
        expected = (FormalSum({(sigma_symbol(1, 1), sigma_symbol(1, 1)): Fraction(1, 2),
                               (sigma_symbol(1, -1), sigma_symbol(1, -1)): Fraction(1, 2),
                               (sigma_symbol(2, 1),): Fraction(-1),
                               (sigma_symbol(2, -1),): Fraction(-1)}))
        assert curvature_sigma_form(expr, 3) == expected

    def test_degree_two_antisymmetric_form(self):
        expr = (GeneratorExpr.single(1, 2, Fraction(1, 4))
                + GeneratorExpr.single(-1, 2, Fraction(-1, 4)))
        expected = (FormalSum({(sigma_symbol(1, 1), sigma_symbol(1, 1)): Fraction(1, 4),
                               (sigma_symbol(1, -1), sigma_symbol(1, -1)): Fraction(-1, 4),
                               (sigma_symbol(2, -1),): Fraction(1, 2),
                               (sigma_symbol(2, 1),): Fraction(-1, 2)}))
        assert curvature_sigma_form(expr, 3) == expected
