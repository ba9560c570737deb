"""The content-form kernel against a plain Fraction-dict reference (``dict_poly``)."""

from fractions import Fraction
from math import gcd

import pytest

import dict_poly as ref
from tcclasses.generators import iota, power_map
from tcclasses.groebner import ideal_for_group, normal_form
from tcclasses.polyring import MAX_BLOCK_DEGREE, Polynomial, substitute
from tcclasses.weyl import GroupSpec, act, enumerate_group, symmetrize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RANK = 2
SPECS = [GroupSpec(kind, RANK) for kind in ("U", "SU", "Sp")]
#: A basis with non-monic leading terms and fractional tails, for the
#: remainder's Fraction path; division by it need not be unique.
FRACTIONAL_BASIS = (
    Polynomial(RANK, {(2, 0, 0, 0, 0, 0): 2, (1, 1, 0, 0, 0, 0): Fraction(-1, 3),
                      (0, 0, 1, 0, 0, 0): 1}),
    Polynomial(RANK, {(0, 2, 0, 0, 0, 0): 3, (0, 0, 0, 1, 0, 0): Fraction(5, 2)}),
)
BASES = [ideal_for_group(spec) for spec in SPECS] + [FRACTIONAL_BASIS]

coeffs = st.fractions(-6, 6, max_denominator=6)


def terms_in(families: str, max_size: int = 4, top: int = 2):
    """Coefficient dicts whose monomials use only the given families."""
    block = st.tuples(*[st.integers(0, top)] * RANK)
    zero = st.just((0,) * RANK)
    blocks = [block if f in families else zero for f in "xyz"]
    monomials = st.tuples(*blocks).map(lambda b: b[0] + b[1] + b[2])
    return st.dictionaries(monomials, coeffs, max_size=max_size)


def near_half_cap():
    """Nonzero coefficient dicts whose block degrees lie just below half the
    degree cap, or one above it, so that products land on both sides of the cap."""
    half = MAX_BLOCK_DEGREE // 2
    block = st.integers(half - 4, half + 1).flatmap(
        lambda d: st.integers(0, d).map(lambda a: (a, d - a)))
    monomials = st.tuples(block, block, block).map(lambda b: b[0] + b[1] + b[2])
    return st.dictionaries(monomials, coeffs.filter(bool), min_size=1, max_size=3)


@hypothesis.settings(max_examples=80)
@hypothesis.given(p=near_half_cap(), q=near_half_cap())
def test_products_near_the_degree_cap_match_the_reference(p, q):
    P, Q = Polynomial(RANK, p), Polynomial(RANK, q)
    # A product term past the cap is an error even when the terms cancel.
    full = {tuple(a + b for a, b in zip(ma, mb)): 1 for ma in p for mb in q}
    if ref.max_block_degree(full, RANK) > MAX_BLOCK_DEGREE:
        with pytest.raises(ValueError, match="cap"):
            P * Q
    else:
        product = P * Q
        assert product.terms == ref.mul(p, q) and canonical(product)


def canonical(p: Polynomial) -> bool:
    """den > 0, gcd(den, *num) == 1, int numerators, and den == 1 for zero."""
    return (type(p.den) is int and p.den > 0 and gcd(p.den, *p.num.values()) == 1
            and all(type(c) is int and c for c in p.num.values())
            and (p.den == 1 or not p.is_zero()))


@hypothesis.settings(max_examples=80)
@hypothesis.given(
    p=terms_in("xyz"), q=terms_in("xyz"), z=terms_in("z"), u=terms_in("xy"),
    reps=st.lists(terms_in("xyz", max_size=2, top=1), min_size=3 * RANK, max_size=3 * RANK),
    c=coeffs, e=st.integers(0, 3), k=st.integers(-3, 3),
    g=st.sampled_from(enumerate_group(GroupSpec("Sp", RANK))),
    spec=st.sampled_from(SPECS), basis=st.sampled_from(BASES))
def test_kernel_matches_fraction_reference(p, q, z, u, reps, c, e, k, g, spec, basis):
    P, Q, Z, U = (Polynomial(RANK, d) for d in (p, q, z, u))
    p, q, z, u = map(ref.nonzero, (p, q, z, u))
    slots = {(f, i + 1): Polynomial(RANK, reps[j * RANK + i])
             for j, f in enumerate("xyz") for i in range(RANK)}
    cases = [
        (P + Q, ref.add(p, q)),
        (P - Q, ref.sub(p, q)),
        (-P, ref.scale(p, Fraction(-1))),
        (P * Q, ref.mul(p, q)),
        (P ** e, ref.power(p, e, RANK)),
        (P.scale(c), ref.scale(p, c)),
        (substitute(P, slots), ref.substitute(p, dict(enumerate(reps)), RANK)),
        (iota(Z), ref.iota(z, RANK)),
        (power_map(k, U), ref.power_map(k, u, RANK)),
        (act(g, P), ref.act(g, p, RANK)),
        (symmetrize(P, spec), ref.symmetrize(p, spec)),
        (normal_form(P, basis), ref.normal_form(p, [b.terms for b in basis], RANK)),
    ]
    for got, expected in cases:
        assert got.terms == expected
        assert canonical(got)
    # One polynomial built by two routes is one value.
    third = Fraction(1, 3)
    for left, right in [((P * Q).scale(third), P.scale(third) * Q),
                        (P + Q - Q, P),
                        ((P - P).scale(c), Polynomial.zero(RANK))]:
        assert left == right and hash(left) == hash(right)
