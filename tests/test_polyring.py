"""Exact arithmetic, symmetric-function constructions, and serialization."""

import random
from fractions import Fraction
from math import gcd

import pytest

from conftest import monomial, random_polynomial
from tcclasses.polyring import (
    Polynomial,
    decode,
    elementary_symmetric,
    encode,
    newton_convert,
    polynomial_from_dict,
    polynomial_to_dict,
    power_sum,
    substitute,
    two_var_power_sum,
)


def var(family, i, rank):
    return Polynomial.variable(family, i, rank)


def as_power_sums(expr):
    """Read the x-variables of ``expr`` as the power sums p_i(z) and expand."""
    n = expr.rank
    return substitute(expr, {("x", i): power_sum(i, n, "z") for i in range(1, n + 1)})


def as_elementary(expr):
    """Read the x-variables of ``expr`` as the elementary sigma_i(z) and expand."""
    n = expr.rank
    return substitute(expr, {("x", i): elementary_symmetric(i, n, "z") for i in range(1, n + 1)})


class TestRingOps:
    def test_cancellation(self):
        p = var("x", 1, 2) + var("y", 1, 2)
        q = var("x", 1, 2) - var("y", 1, 2)
        assert p + q == var("x", 1, 2).scale(2)

    def test_binomial_square(self):
        p = var("x", 1, 1) + var("y", 1, 1)
        expected = (monomial(1, x=[2]) + monomial(1, x=[1], y=[1], coeff=2)
                    + monomial(1, y=[2]))
        assert p * p == expected

    def test_absorbing_zero(self):
        p = var("x", 1, 2) + var("y", 1, 2)
        product = p * Polynomial.zero(2)
        assert product.is_zero()
        assert product.terms == {}

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            var("x", 1, 2) + var("x", 1, 3)

    def test_zero_coefficients_pruned(self):
        p = Polynomial(1, {(1, 0, 0): Fraction(0), (0, 1, 0): Fraction(2)})
        assert list(p.terms.values()) == [Fraction(2)]

    def test_power(self):
        p = var("x", 1, 1) + Polynomial.one(1)
        assert p ** 3 == p * p * p
        assert p ** 0 == Polynomial.one(1)

    def test_ring_laws_randomized(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_polynomial(rng, 2)
            b = random_polynomial(rng, 2)
            c = random_polynomial(rng, 2)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)


class TestTrustedResults:
    """Results built without re-validation hold what Polynomial(...) would."""

    def test_only_nonzero_fraction_coefficients(self):
        from tcclasses.generators import iota, power_map
        from tcclasses.groebner import ideal_for_group, normal_form
        from tcclasses.weyl import GroupSpec, act, enumerate_group, symmetrize
        rng = random.Random(12)
        spec = GroupSpec("Sp", 2)
        ideal = ideal_for_group(spec)
        group = enumerate_group(spec)
        for _ in range(30):
            p, q = random_polynomial(rng, 2), random_polynomial(rng, 2)
            u = random_polynomial(rng, 2, families="xy")
            results = [p + q, p - q, p + (-p), -p, p * q, p.scale(Fraction(-2, 3)), p.scale(0),
                       act(rng.choice(group), p), symmetrize(p, spec),
                       symmetrize(var("x", 1, 2), spec),  # an odd monomial: cancels to zero
                       power_map(-2, u), power_map(0, u),
                       iota(random_polynomial(rng, 2, families="z")), normal_form(p, ideal)]
            for r in results:
                assert r.rank == 2
                # Every key is a packed monomial with its guard bits clear.
                assert all(type(k) is int and encode(decode(k, 2), 2) == k for k in r.num)
                for m, c in r.terms.items():
                    assert type(m) is tuple and len(m) == 6 and min(m) >= 0
                    assert type(c) is Fraction and c != 0

    @pytest.mark.parametrize("num, den, canonical_num, canonical_den", [
        ({(1, 0, 0): 0, (0, 0, 2): 3}, 1, {(0, 0, 2): 3}, 1),
        ({(1, 0, 0): 4, (0, 0, 2): -6}, 10, {(1, 0, 0): 2, (0, 0, 2): -3}, 5),
        ({(1, 0, 0): 0, (0, 0, 2): 4}, 6, {(0, 0, 2): 2}, 3),
        ({(1, 0, 0): 0}, 7, {}, 1),
    ], ids=["zero-numerator", "common-factor", "both", "all-zero"])
    def test_trusted_results_are_canonical(self, num, den, canonical_num, canonical_den):
        def packed(terms):
            return {encode(m, 1): c for m, c in terms.items()}

        p = Polynomial._trusted(1, packed(num), den)
        assert p.den > 0 and gcd(p.den, *p.num.values()) == 1 and all(p.num.values())
        assert (p.num, p.den) == (packed(canonical_num), canonical_den)

    def test_trusted_keeps_a_canonical_dict(self):
        num = {encode((1, 0, 0), 1): 2, encode((0, 0, 2), 1): -3}
        assert Polynomial._trusted(1, num, 5).num is num

    def test_difference_with_itself_is_zero(self):
        rng = random.Random(13)
        for n in (1, 3):
            p = random_polynomial(rng, n)
            assert p - p == Polynomial.zero(n)
            assert hash(p - p) == hash(Polynomial.zero(n))

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError, match="exponents"):
            Polynomial(2, {(1, 0, 0): 1})
        with pytest.raises(ValueError, match="nonnegative"):
            Polynomial(1, {(-1, 0, 0): 1})
        with pytest.raises(ValueError, match="rank"):
            Polynomial(0, {})


class TestSubstitute:
    def test_single_variable(self):
        p = var("z", 1, 1)
        rep = {("z", 1): var("x", 1, 1) + var("y", 1, 1)}
        assert substitute(p, rep) == var("x", 1, 1) + var("y", 1, 1)

    def test_square_composes_with_ring_ops(self):
        p = var("z", 1, 1) ** 2
        rep = {("z", 1): var("x", 1, 1) + var("y", 1, 1)}
        assert substitute(p, rep) == (var("x", 1, 1) + var("y", 1, 1)) ** 2

    def test_identity_map(self):
        rng = random.Random(5)
        p = random_polynomial(rng, 2)
        reps = {(f, i): var(f, i, 2) for f in "xyz" for i in (1, 2)}
        assert substitute(p, reps) == p

    def test_missing_replacement_rejected(self):
        with pytest.raises(ValueError, match="no replacement"):
            substitute(var("z", 1, 2) + var("x", 1, 2), {("z", 1): var("x", 1, 2)})

    def test_is_ring_homomorphism(self):
        rng = random.Random(6)
        reps = {("z", i): random_polynomial(rng, 2, families="xy", terms=2)
                for i in (1, 2)}
        reps.update({("x", i): var("x", i, 2) for i in (1, 2)})
        reps.update({("y", i): var("y", i, 2) for i in (1, 2)})
        for _ in range(40):
            p = random_polynomial(rng, 2, families="z", terms=3, max_degree=3)
            q = random_polynomial(rng, 2, families="z", terms=3, max_degree=3)
            assert substitute(p * q, reps) == substitute(p, reps) * substitute(q, reps)
            assert substitute(p + q, reps) == substitute(p, reps) + substitute(q, reps)


class TestConstructions:
    def test_power_sum_rank2(self):
        assert power_sum(2, 2, "z") == monomial(2, z=[2]) + monomial(2, z=[0, 2])

    def test_power_sum_rank3_linear(self):
        expected = monomial(3, z=[1]) + monomial(3, z=[0, 1]) + monomial(3, z=[0, 0, 1])
        assert power_sum(1, 3, "z") == expected

    def test_power_sum_rank1_x(self):
        assert power_sum(1, 1, "x") == var("x", 1, 1)

    def test_power_sum_constant_rejected(self):
        with pytest.raises(ValueError):
            power_sum(0, 2, "z")

    def test_two_var_power_sums(self):
        assert two_var_power_sum(0, 1, 2) == monomial(2, y=[1]) + monomial(2, y=[0, 1])
        assert two_var_power_sum(1, 1, 2) == (monomial(2, x=[1], y=[1])
                                              + monomial(2, x=[0, 1], y=[0, 1]))
        assert two_var_power_sum(2, 0, 1) == monomial(1, x=[2])
        for n in range(1, 4):
            for a, b in [(0, 3), (4, 0), (2, 5), (127, 127)]:
                expected = sum((var("x", i, n) ** a * var("y", i, n) ** b for i in range(1, n + 1)),
                               Polynomial.zero(n))
                assert two_var_power_sum(a, b, n) == expected
        with pytest.raises(ValueError):
            two_var_power_sum(0, 0, 2)
        for a, b in [(128, 0), (3, 128)]:
            with pytest.raises(ValueError, match="degree 128 in one variable family exceeds the cap"):
                two_var_power_sum(a, b, 2)

    def test_elementary_symmetric(self):
        assert elementary_symmetric(1, 2, "x") == var("x", 1, 2) + var("x", 2, 2)
        assert elementary_symmetric(2, 2, "x") == monomial(2, x=[1, 1])
        expected = (monomial(3, y=[1, 1]) + monomial(3, y=[1, 0, 1])
                    + monomial(3, y=[0, 1, 1]))
        assert elementary_symmetric(2, 3, "y") == expected
        with pytest.raises(ValueError):
            elementary_symmetric(3, 2, "x")

    def test_constructors_keep_their_checks(self):
        assert Polynomial.constant(2, Fraction(-3, 4)) == Polynomial(2, {(0,) * 6: Fraction(-3, 4)})
        assert Polynomial.zero(2) == Polynomial(2) and Polynomial.constant(2, 0).is_zero()
        assert var("y", 2, 3) == monomial(3, y=[0, 1])
        for build in (Polynomial.zero, Polynomial.one, lambda n: var("x", 1, n)):
            with pytest.raises(ValueError):
                build(0)
        with pytest.raises(ValueError, match="family"):
            elementary_symmetric(1, 2, "w")
        with pytest.raises(ValueError, match="cap"):
            elementary_symmetric(128, 128, "z")

    def test_generating_function_identity(self):
        # prod_i (1 - t v_i) = sum_i (-t)^i e_i with t the first y-variable.
        for n in range(1, 5):
            t = var("y", 1, n)
            product = Polynomial.one(n)
            for i in range(1, n + 1):
                product = product * (Polynomial.one(n) - t * var("x", i, n))
            expansion = Polynomial.one(n)
            for i in range(1, n + 1):
                expansion = expansion + (t ** i * elementary_symmetric(i, n, "x")).scale((-1) ** i)
            assert product == expansion


class TestNewton:
    def test_p1_p2(self):
        assert newton_convert(var("x", 1, 2)) == var("x", 1, 2)
        expected = var("x", 1, 2) ** 2 - var("x", 2, 2).scale(2)
        assert newton_convert(var("x", 2, 2)) == expected

    def test_p3_frozen(self):
        # Oracle: expand both sides in z-variables at rank 3 and compare.
        sigma = newton_convert(var("x", 3, 3))
        s1, s2, s3 = (var("x", i, 3) for i in (1, 2, 3))
        assert sigma == s1 ** 3 - (s1 * s2).scale(3) + s3.scale(3)
        assert as_elementary(sigma) == power_sum(3, 3, "z")

    def test_round_trip_random(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            for _ in range(25):
                p_expr = random_polynomial(rng, n, families="x", max_degree=5, terms=3)
                sigma_expr = newton_convert(p_expr)
                assert as_power_sums(p_expr) == as_elementary(sigma_expr)

    def test_foreign_families_rejected(self):
        with pytest.raises(ValueError):
            newton_convert(var("y", 1, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_sums_equal_sympy_symmetrize(self, n):
        # Oracle: sympy writes p_k in the elementary symmetric polynomials
        # s_1..s_n itself (formal=True); it must agree term by term.
        sympy = pytest.importorskip("sympy")
        from sympy.polys.polyfuncs import symmetrize

        zs = sympy.symbols(f"z1:{n + 1}")
        for k in range(1, n + 1):
            expected, remainder, defs = symmetrize(sum(z ** k for z in zs), *zs, formal=True)
            assert remainder == 0
            s = [sym for sym, _ in defs]
            ours = sum(sympy.Rational(c.numerator, c.denominator)
                       * sympy.prod(s[i] ** e for i, e in enumerate(exps[:n]))
                       for exps, c in newton_convert(var("x", k, n)).terms.items())
            assert sympy.expand(ours - expected) == 0, (n, k)


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(25):
            p = random_polynomial(rng, 3)
            assert polynomial_from_dict(polynomial_to_dict(p)) == p

    def test_schema_shape(self):
        p = monomial(2, x=[1], coeff=Fraction(-3, 4)) + monomial(2, z=[0, 2], coeff=5)
        data = polynomial_to_dict(p)
        assert data["rank"] == 2
        coeffs = {entry["coeff"] for entry in data["terms"]}
        assert coeffs == {"-3/4", "5/1"}
        for entry in data["terms"]:
            # all-zero exponent blocks are omitted
            assert not any(set(entry.get(f, [])) == {0} for f in "xyz")

    @pytest.mark.parametrize("rank", [0, -2])
    def test_rank_below_one_rejected_by_name(self, rank):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            polynomial_from_dict({"rank": rank, "terms": [{"coeff": "1"}]})

    def test_omitted_blocks_default_zero(self):
        data = {"rank": 2, "terms": [{"coeff": "1/2", "x": [1, 0]}]}
        assert polynomial_from_dict(data) == monomial(2, x=[1], coeff=Fraction(1, 2))
