"""Weyl group enumeration, the diagonal action, and the symmetrization operator."""

import argparse
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from conftest import monomial, random_polynomial
from tcclasses.cli import MAX_RANK, _group
from tcclasses.polyring import Polynomial, two_var_power_sum
from tcclasses.weyl import (
    GroupSpec,
    WeylElement,
    act,
    enumerate_group,
    parity,
    symmetrize,
)

CAPPED_SPECS = [GroupSpec(kind, n) for kind, cap in MAX_RANK.items() for n in range(1, cap + 1)]


def identity(rank: int) -> WeylElement:
    return WeylElement(tuple(range(1, rank + 1)), (1,) * rank)


def is_invariant(p: Polynomial, spec: GroupSpec) -> bool:
    return all(act(g, p) == p for g in enumerate_group(spec))


def group_average(p: Polynomial, spec: GroupSpec) -> Polynomial:
    """The Reynolds operator by its definition, one element at a time."""
    elements = enumerate_group(spec)
    acc: dict = {}
    for g in elements:
        for key, c in act(g, p).terms.items():
            acc[key] = acc.get(key, 0) + c
    return Polynomial(p.rank, acc).scale(Fraction(1, len(elements)))


class TestEnumeration:
    def test_orders(self):
        assert len(enumerate_group(GroupSpec("U", 2))) == 2
        assert len(enumerate_group(GroupSpec("Sp", 2))) == 8
        assert len(enumerate_group(GroupSpec("Sp", 3))) == 48

    def test_identity_first_and_distinct(self):
        # |W| is n! for U(n) and SU(n), and 2^n n! for Sp(n).
        for spec in CAPPED_SPECS:
            n = spec.rank
            order = factorial(n) * (2 ** n if spec.kind == "Sp" else 1)
            elements = enumerate_group(spec)
            assert elements[0] == identity(n), spec
            assert len(elements) == len(set(elements)) == order, spec

    def test_cap_enforced(self):
        # The one rank cap is the CLI's; listing has none of its own.
        with pytest.raises(ValueError, match="cap"):
            _group(argparse.Namespace(group="Sp", rank=5))
        assert len(enumerate_group(GroupSpec("Sp", 5))) == 2 ** 5 * 120

    def test_invalid_elements_rejected(self):
        with pytest.raises(ValueError):
            WeylElement((1, 1), (1, 1))
        with pytest.raises(ValueError):
            WeylElement((1, 2), (1, 2))
        with pytest.raises(ValueError):
            GroupSpec("SO", 3)


class TestAction:
    def test_transposition_relabels(self):
        g = WeylElement((2, 1), (1, 1))
        p = monomial(2, x=[1], y=[0, 1])  # x1 y2
        assert act(g, p) == monomial(2, x=[0, 1], y=[1])  # x2 y1

    def test_sign_flip_diagonal_cancels(self):
        g = WeylElement((1, 2), (-1, 1))
        p = monomial(2, x=[1], y=[1])  # x1 y1
        assert act(g, p) == p

    def test_sign_flip_single_variable(self):
        g = WeylElement((1,), (-1,))
        p = monomial(1, x=[1])
        assert act(g, p) == p.scale(-1)

    def test_z_family_permuted_without_signs(self):
        g = WeylElement((2, 1), (-1, -1))
        p = monomial(2, z=[3])
        assert act(g, p) == monomial(2, z=[0, 3])

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            act(identity(2), Polynomial.one(3))


class TestSymmetrize:
    def test_odd_monomial_vanishes(self):
        assert symmetrize(monomial(1, x=[1]), GroupSpec("Sp", 1)).is_zero()

    def test_frozen_average(self):
        # By hand: the 8 elements of W(Sp, 2) send x1 y1 to x1 y1 (4 times)
        # and x2 y2 (4 times); the signs cancel in pairs.
        expected = (monomial(2, x=[1], y=[1]) + monomial(2, x=[0, 1], y=[0, 1])).scale(Fraction(1, 2))
        assert symmetrize(monomial(2, x=[1], y=[1]), GroupSpec("Sp", 2)) == expected

    def test_invariant_fixed(self):
        p = two_var_power_sum(1, 1, 2)
        assert symmetrize(p, GroupSpec("U", 2)) == p

    def test_idempotent(self):
        rng = random.Random(9)
        for spec in (GroupSpec("U", 2), GroupSpec("Sp", 2)):
            for _ in range(10):
                p = random_polynomial(rng, 2)
                once = symmetrize(p, spec)
                assert symmetrize(once, spec) == once
                assert is_invariant(once, spec)

    def test_projection_law(self):
        rng = random.Random(10)
        for spec in (GroupSpec("U", 2), GroupSpec("Sp", 2)):
            f = two_var_power_sum(1, 1, 2) if spec.kind == "Sp" else two_var_power_sum(1, 0, 2)
            for _ in range(10):
                h = random_polynomial(rng, 2)
                assert symmetrize(f * h, spec) == f * symmetrize(h, spec)

    def test_vanishing_and_positivity_small(self):
        spec = GroupSpec("Sp", 2)
        for exps in product(range(5), repeat=4):
            if not 1 <= sum(exps) <= 4:
                continue
            I, J = exps[:2], exps[2:]
            p = monomial(2, x=I, y=J)
            sym = symmetrize(p, spec)
            if parity(I, J) == "odd":
                assert sym.is_zero()
            else:
                assert not sym.is_zero()
                assert all(c > 0 for c in sym.terms.values())


class TestOrbitForm:
    """``symmetrize`` works on orbits; the group sum over ``act`` is its oracle."""

    @pytest.mark.parametrize("spec", CAPPED_SPECS, ids=lambda s: f"{s.kind}{s.rank}")
    def test_equals_group_sum(self, spec):
        rng = random.Random(f"{spec.kind}{spec.rank}")
        for _ in range(12):
            p = random_polynomial(rng, spec.rank, max_degree=3 * spec.rank)
            assert symmetrize(p, spec) == group_average(p, spec)


class TestInvariance:
    def test_power_sums_symmetric(self):
        assert is_invariant(two_var_power_sum(2, 1, 3), GroupSpec("U", 3))

    def test_single_variable_not_invariant(self):
        assert not is_invariant(Polynomial.variable("x", 1, 2), GroupSpec("U", 2))

    def test_even_power_sum_sp_invariant(self):
        assert is_invariant(two_var_power_sum(1, 1, 2), GroupSpec("Sp", 2))


class TestParity:
    def test_examples(self):
        assert parity((1, 0), (0, 0)) == "odd"
        assert parity((1, 0), (1, 0)) == "even"
        assert parity((2, 1), (0, 1)) == "even"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            parity((1, 0), (1,))
