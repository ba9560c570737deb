"""Groebner bases, normal forms, and the three coinvariant ideals."""

import random
from fractions import Fraction
from itertools import combinations
from operator import itemgetter

import pytest

from conftest import monomial, random_polynomial
from dict_poly import monomial_key
from tcclasses import groebner
from tcclasses.cli import MAX_RANK
from tcclasses.groebner import (
    _divides,
    _s_polynomial,
    buchberger,
    equal_mod_ideal,
    ideal_for_group,
    group_ideal_generators,
    leading_term,
    normal_form,
)
from tcclasses.polyring import (
    Polynomial,
    elementary_symmetric,
    power_sum,
    substitute,
    two_var_power_sum,
)
from tcclasses.weyl import GroupSpec

CAPPED_SPECS = [GroupSpec(kind, rank) for kind, cap in MAX_RANK.items()
                for rank in range(1, cap + 1)]


def var(family, i, rank):
    return Polynomial.variable(family, i, rank)


class TestGroupIdeals:
    def test_u2_generators(self):
        gens = group_ideal_generators(GroupSpec("U", 2))
        assert gens == [elementary_symmetric(1, 2, "x"), elementary_symmetric(2, 2, "x")]

    def test_su2_generators(self):
        gens = group_ideal_generators(GroupSpec("SU", 2))
        assert gens == [power_sum(1, 2, "x"), power_sum(2, 2, "x"), power_sum(1, 2, "y")]

    def test_sp2_generators(self):
        gens = group_ideal_generators(GroupSpec("Sp", 2))
        assert gens == [monomial(2, x=[2]) + monomial(2, x=[0, 2]), monomial(2, x=[2, 2])]
        # The closed form is e_i(x) evaluated at the squared x-variables.
        for n in range(1, 5):
            squares = {("x", i): var("x", i, n) ** 2 for i in range(1, n + 1)}
            assert group_ideal_generators(GroupSpec("Sp", n)) == [
                substitute(elementary_symmetric(i, n, "x"), squares) for i in range(1, n + 1)]

    def test_bases_satisfy_buchberger(self):
        # Every S-polynomial and every defining generator reduces to zero.
        for kind in ("U", "SU", "Sp"):
            for rank in (1, 2, 3):
                spec = GroupSpec(kind, rank)
                basis = ideal_for_group(spec)
                for f, g in combinations(basis, 2):
                    assert normal_form(_s_polynomial(f, g), basis).is_zero()
                for g in group_ideal_generators(spec):
                    assert normal_form(g, basis).is_zero()

    @pytest.mark.parametrize("build", [ideal_for_group, group_ideal_generators])
    def test_degree_past_the_cap_is_rejected_before_any_term(self, build, monkeypatch):
        # e_n(x^2) and h_n(x_n^2) have block degree 2n = 128 at Sp(64).
        def fail(*args):
            raise AssertionError("terms built past the degree cap")

        monkeypatch.setattr(groebner, "combinations_with_replacement", fail)
        monkeypatch.setattr(groebner, "elementary_symmetric", fail)
        with pytest.raises(ValueError, match="cap"):
            build(GroupSpec("Sp", 64))

    @pytest.mark.parametrize("spec", CAPPED_SPECS, ids=lambda s: f"{s.kind}{s.rank}")
    def test_closed_form_equals_buchberger(self, spec):
        # Exact polynomials in the same order: ascending leading monomial.
        expected = tuple(buchberger(group_ideal_generators(spec)))
        assert ideal_for_group(spec) == expected

    @pytest.mark.parametrize("spec", [GroupSpec("U", n) for n in range(1, 5)]
                             + [GroupSpec("Sp", n) for n in range(1, 4)],
                             ids=lambda s: f"{s.kind}{s.rank}")
    def test_closed_form_equals_sympy(self, spec):
        sympy = pytest.importorskip("sympy")
        n = spec.rank
        xs = sympy.symbols(f"x1:{n + 1}")
        # The U generators e_i(x), or e_i(x^2) for Sp, built independently in sympy.
        vs = [x ** 2 for x in xs] if spec.kind == "Sp" else list(xs)
        gens = [sum(sympy.prod(c) for c in combinations(vs, i)) for i in range(1, n + 1)]
        basis = []
        for g in sympy.groebner(gens, *xs, order="grevlex").exprs:
            terms = {tuple(m) + (0,) * (2 * n): Fraction(int(c.p), int(c.q))
                     for m, c in sympy.Poly(g, *xs).terms()}
            basis.append(Polynomial(n, terms))
        basis.sort(key=lambda g: monomial_key(leading_term(g)[0], n))
        assert tuple(basis) == ideal_for_group(spec)


class TestBuchberger:
    def test_principal_ideal(self):
        basis = buchberger([var("x", 1, 1)])
        assert basis == [var("x", 1, 1)]

    def test_membership_via_cofactors(self):
        # Oracle first: x1^2 = (x1 + x2) x1 - x1 x2 is an exact identity,
        # so x1^2 must reduce to zero against the ideal's basis.
        e1 = var("x", 1, 2) + var("x", 2, 2)
        e2 = var("x", 1, 2) * var("x", 2, 2)
        x1sq = var("x", 1, 2) ** 2
        assert x1sq == e1 * var("x", 1, 2) - e2
        basis = buchberger([e1, e2])
        assert normal_form(x1sq, basis).is_zero()

    def test_linear_span(self):
        basis = buchberger([var("x", 1, 2) + var("x", 2, 2), var("x", 1, 2) - var("x", 2, 2)])
        assert normal_form(var("x", 1, 2), basis).is_zero()
        assert normal_form(var("x", 2, 2), basis).is_zero()
        assert not normal_form(var("y", 1, 2), basis).is_zero()

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            buchberger([])

    def test_reduced_basis_properties(self):
        # No leading monomial divides another; tails are fully reduced.
        ideal = ideal_for_group(GroupSpec("U", 3))
        leads = [leading_term(g)[0] for g in ideal]
        for i, li in enumerate(leads):
            for j, lj in enumerate(leads):
                if i != j:
                    assert not _divides(lj, li)
        for i, g in enumerate(ideal):
            others = ideal[:i] + ideal[i + 1:]
            lead, _ = leading_term(g)
            tail = g - Polynomial(g.rank, {lead: g.terms[lead]})
            assert normal_form(tail, others) == tail


class TestNormalForm:
    def test_x_power_sum_dies(self):
        ideal = ideal_for_group(GroupSpec("U", 2))
        assert normal_form(power_sum(1, 2, "x"), ideal).is_zero()

    def test_y_untouched_for_u(self):
        ideal = ideal_for_group(GroupSpec("U", 2))
        p = power_sum(1, 2, "y")
        assert normal_form(p, ideal) == p

    def test_sp_square_generator(self):
        ideal = ideal_for_group(GroupSpec("Sp", 1))
        assert normal_form(var("x", 1, 1) ** 2, ideal).is_zero()

    def test_zero_polynomial(self):
        ideal = ideal_for_group(GroupSpec("U", 2))
        assert normal_form(Polynomial.zero(2), ideal).is_zero()

    def test_idempotent_and_linear(self):
        rng = random.Random(4)
        ideal = ideal_for_group(GroupSpec("U", 3))
        for _ in range(25):
            p = random_polynomial(rng, 3, families="xy")
            q = random_polynomial(rng, 3, families="xy")
            np_ = normal_form(p, ideal)
            assert normal_form(np_, ideal) == np_
            assert normal_form(p + q, ideal) == normal_form(p, ideal) + normal_form(q, ideal)

    def test_membership_soundness(self):
        rng = random.Random(8)
        for kind in ("U", "SU", "Sp"):
            for n in (2, 3):
                spec = GroupSpec(kind, n)
                ideal = ideal_for_group(spec)
                for _ in range(10):
                    combo = Polynomial.zero(n)
                    for g in group_ideal_generators(spec):
                        combo = combo + random_polynomial(rng, n, families="xy",
                                                          max_degree=2, terms=2) * g
                    assert normal_form(combo, ideal).is_zero()

    def test_all_x_power_sums_in_u_ideal(self):
        for n in range(1, 5):
            ideal = ideal_for_group(GroupSpec("U", n))
            for a in range(1, n + 1):
                assert normal_form(two_var_power_sum(a, 0, n), ideal).is_zero()

    @pytest.mark.parametrize("spec", [GroupSpec(kind, n) for kind in ("U", "SU", "Sp")
                                      for n in (2, 3)],
                             ids=lambda s: f"{s.kind}{s.rank}")
    def test_equals_sympy_reduced(self, spec):
        sympy = pytest.importorskip("sympy")
        from sympy.polys.orderings import ProductOrder, grevlex
        n = spec.rank
        gens = sympy.symbols(f"x1:{n + 1} y1:{n + 1} z1:{n + 1}")
        order = ProductOrder(*((grevlex, itemgetter(slice(f * n, (f + 1) * n)))
                               for f in range(3)))

        def to_sympy(p):
            terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
            return sympy.Poly.from_dict(terms, *gens).as_expr()

        ideal = ideal_for_group(spec)
        basis = [to_sympy(g) for g in ideal]
        rng = random.Random(16)
        for _ in range(8):
            # x-heavy, so that most terms need several reduction steps
            p = random_polynomial(rng, n, families="xxxyz", max_degree=8, terms=5)
            _, r = sympy.reduced(to_sympy(p), basis, *gens, order=order)
            expected = Polynomial(n, {m: Fraction(int(c.p), int(c.q))
                                      for m, c in sympy.Poly(r, *gens).terms()})
            assert normal_form(p, ideal) == expected

    def test_su6_high_x_degree(self):
        # Rank 6 with x-exponents up to 5: the remainder is fully reduced
        # and differs from p by an ideal element.
        rng = random.Random(11)
        n = 6
        terms = {}
        for _ in range(6):
            exps = [rng.randint(0, 5) for _ in range(n)] + [rng.randint(0, 2) for _ in range(2 * n)]
            terms[tuple(exps)] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        p = Polynomial(n, terms)
        ideal = ideal_for_group(GroupSpec("SU", n))
        r = normal_form(p, ideal)
        leads = [leading_term(g)[0] for g in ideal]
        assert not r.is_zero()
        assert not any(_divides(lm, m) for lm in leads for m in r.terms)
        assert normal_form(p - r, ideal).is_zero()


class TestEqualModIdeal:
    def test_iota_linear_example(self):
        from tcclasses.generators import iota
        ideal = ideal_for_group(GroupSpec("U", 2))
        assert equal_mod_ideal(iota(power_sum(1, 2, "z")), power_sum(1, 2, "y"), ideal)

    def test_reflexive(self):
        rng = random.Random(14)
        ideal = ideal_for_group(GroupSpec("U", 2))
        p = random_polynomial(rng, 2)
        assert equal_mod_ideal(p, p, ideal)

    def test_distinct_classes(self):
        ideal = ideal_for_group(GroupSpec("U", 2))
        assert not equal_mod_ideal(var("x", 1, 2), var("y", 1, 2), ideal)
        assert not normal_form(var("x", 1, 2) - var("y", 1, 2), ideal).is_zero()

    def test_ring_congruence(self):
        rng = random.Random(15)
        ideal = ideal_for_group(GroupSpec("U", 2))
        gen = group_ideal_generators(GroupSpec("U", 2))[0]
        for _ in range(15):
            p = random_polynomial(rng, 2, families="xy", terms=2)
            q = random_polynomial(rng, 2, families="xy", terms=2)
            p2 = p + random_polynomial(rng, 2, families="xy", terms=2, max_degree=2) * gen
            q2 = q + random_polynomial(rng, 2, families="xy", terms=2, max_degree=2) * gen
            assert equal_mod_ideal(p * q, p2 * q2, ideal)

