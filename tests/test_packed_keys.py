"""The packed monomial keys of ``polyring``: one int per monomial, one byte per field."""

import pytest

from tcclasses.polyring import (
    MAX_BLOCK_DEGREE,
    Polynomial,
    check_degrees,
    decode,
    degree_in,
    encode,
    monomial_key,
    unit_keys,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ranks = st.integers(1, 6)


@st.composite
def blocks(draw, rank, top=MAX_BLOCK_DEGREE):
    """The exponents of one family block, of degree at most ``top``: a
    degree, cut at ``rank - 1`` points."""
    degree = draw(st.integers(0, top))
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=rank - 1, max_size=rank - 1)))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))


@st.composite
def monomials(draw, rank, top=MAX_BLOCK_DEGREE):
    """A flat exponent tuple of ``rank`` whose block degrees are at most ``top``."""
    return sum((draw(blocks(rank, top)) for _ in range(3)), ())


def block_degrees(exps, rank):
    return [sum(exps[f * rank:(f + 1) * rank]) for f in range(3)]


@st.composite
def pairs(draw):
    rank = draw(ranks)
    return rank, draw(monomials(rank)), draw(monomials(rank))


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.data())
def test_decode_inverts_encode(data):
    rank = data.draw(ranks)
    exps = data.draw(monomials(rank))
    key = encode(exps, rank)
    assert decode(key, rank) == exps
    assert [degree_in(f, rank)(key) for f in "xyz"] == block_degrees(exps, rank)
    assert key == sum(e * u for e, u in zip(exps, unit_keys(rank)))


@hypothesis.settings(max_examples=300)
@hypothesis.given(pairs())
def test_integer_order_is_the_monomial_order(pair):
    rank, a, b = pair
    ka, kb = encode(a, rank), encode(b, rank)
    assert (ka < kb) == (monomial_key(a, rank) < monomial_key(b, rank))
    assert (ka == kb) == (a == b)


@hypothesis.settings(max_examples=300)
@hypothesis.given(pairs())
def test_a_product_is_one_addition_or_a_value_error(pair):
    rank, a, b = pair
    product = tuple(x + y for x, y in zip(a, b))
    P, Q = Polynomial(rank, {a: 1}), Polynomial(rank, {b: 1})
    if max(block_degrees(product, rank)) <= MAX_BLOCK_DEGREE:
        assert encode(a, rank) + encode(b, rank) == encode(product, rank)
        assert (P * Q).terms == {product: 1}
    else:
        with pytest.raises(ValueError, match="cap"):
            encode(product, rank)
        with pytest.raises(ValueError, match="cap"):
            P * Q
        with pytest.raises(ValueError, match="cap"):
            check_degrees([encode(a, rank) + encode(b, rank)], rank)


@pytest.mark.parametrize("rank", range(1, 7))
@pytest.mark.parametrize("family", range(3))
def test_one_past_the_cap_is_rejected_in_every_block(rank, family):
    top = [0] * (3 * rank)
    top[family * rank + rank - 1] = MAX_BLOCK_DEGREE
    one = [0] * (3 * rank)
    one[family * rank] = 1
    at_cap = Polynomial(rank, {tuple(top): 1})
    assert at_cap * Polynomial.one(rank) == at_cap
    with pytest.raises(ValueError, match="cap"):
        at_cap * Polynomial(rank, {tuple(one): 1})
    top[family * rank] += 1
    with pytest.raises(ValueError, match="cap"):
        Polynomial(rank, {tuple(top): 1})


@pytest.mark.parametrize("exps, message", [
    ((1, 0), "exponents; expected 3"),
    ((0, -1, 0), "nonnegative"),
    ((0, 10 ** 12, 0), "cap"),
])
def test_malformed_monomials_are_value_errors(exps, message):
    with pytest.raises(ValueError, match=message):
        encode(exps, 1)


def families_by_decode(p):
    """The oracle of ``families_used``: the families with a nonzero exponent in some decoded key."""
    n = p.rank
    return {f for i, f in enumerate("xyz") for m in p.num if any(decode(m, n)[i * n:(i + 1) * n])}


@st.composite
def one_family_monomials(draw, rank, family, degree):
    """A flat exponent tuple whose only nonzero block is ``family``'s, of block degree ``degree``."""
    cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=rank - 1, max_size=rank - 1)))
    block = tuple(b - a for a, b in zip([0, *cuts], [*cuts, degree]))
    exps = [(0,) * rank] * 3
    exps[family] = block
    return sum(exps, ())


@hypothesis.settings(max_examples=300)
@hypothesis.given(st.data())
def test_families_used_matches_the_decoded_exponents(data):
    rank = data.draw(ranks)
    terms = data.draw(st.lists(monomials(rank), max_size=4))
    p = Polynomial(rank, {exps: 1 for exps in terms})
    assert p.families_used() == families_by_decode(p)


@pytest.mark.parametrize("degree", [1, MAX_BLOCK_DEGREE])
@hypothesis.settings(max_examples=50)
@hypothesis.given(st.data())
def test_families_used_at_the_byte_boundaries(degree, data):
    """One family at block degree 1 (the lowest bit of its degree field) and at the cap
    (its highest value bit), alone and with a term in a second family."""
    rank = data.draw(ranks)
    family, other = data.draw(st.permutations(range(3)))[:2]
    mono = data.draw(one_family_monomials(rank, family, degree))
    p = Polynomial(rank, {mono: 1})
    assert p.families_used() == {"xyz"[family]} == families_by_decode(p)
    mixed = Polynomial(rank, {mono: 1, data.draw(one_family_monomials(rank, other, degree)): 1})
    assert mixed.families_used() == {"xyz"[family], "xyz"[other]} == families_by_decode(mixed)
