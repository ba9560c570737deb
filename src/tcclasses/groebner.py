"""Groebner bases and normal forms for the coinvariant ideals.

They serve ``verify`` and ``normalform``; ``decompose`` certifies against
the defining generators (``group_ideal_generators``) without a normal
form.  Equality "mod J" is decided by reducing against the reduced
Groebner basis of J under a block elimination order (x-block before
y-block before z-block, grevlex within each block).  All three group
ideals have their generators in the x-block (plus one y-generator for
SU), so reduction rewrites high x-degrees into the staircase basis of the
coinvariant algebra and leaves the y-part intact.  ``normal_form``
divides with its pending packed monomials in a max-heap, so each monomial
is pushed once and reduced in decreasing order (Monagan and Pearce, JSC
2011).

The reduced bases have a closed form (``ideal_for_group``): the complete
homogeneous polynomials h_k(x_k, ..., x_n), k = 1..n, in the squared
variables for Sp, plus y_1 + ... + y_n for SU (Sturmfels, *Algorithms in
Invariant Theory*, ch. 1).  ``buchberger`` is kept as the reference
implementation the tests check the closed form against.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from operator import le
from typing import Sequence

from .polyring import (
    Exponents,
    Polynomial,
    check_degrees,
    decode,
    elementary_symmetric,
    encode,
    monomial_key,
    power_sum,
)
from .weyl import GroupSpec


def leading_term(p: Polynomial) -> tuple[Exponents, Fraction]:
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    m = max(p.num)  # integer order of packed keys is the monomial order
    return decode(m, p.rank), Fraction(p.num[m], p.den)


def _divides(d: Exponents, m: Exponents) -> bool:
    return all(map(le, d, m))


def _mono_mul(p: Polynomial, shift: Exponents, coeff: Fraction) -> dict[Exponents, Fraction]:
    return {tuple(e + s for e, s in zip(m, shift)): c * coeff for m, c in p.terms.items()}


def normal_form(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of ``p`` by the (Groebner) basis.

    Packed monomials still to be reduced sit in a max-heap (their negated
    keys in ``heapq``'s min-heap).  Reducing the largest monomial m only
    adds monomials smaller than m, so every monomial is pushed once and
    popped in decreasing order.  The first basis element whose leading
    monomial divides m reduces it; the divisibility test decodes m.

    The work holds numerators over ``p.den``.  Each reducer's tail is made
    monic once; on the closed-form bases its coefficients are integers, so
    the division runs on integers alone.
    """
    if basis and basis[0].rank != p.rank:
        raise ValueError("rank mismatch between polynomial and ideal")
    rank = p.rank
    # (leading key, its exponents, the other terms divided by its coefficient)
    reducers = []
    for g in basis:
        lm = max(g.num)
        lc = g.num[lm]
        reducers.append((lm, decode(lm, rank),
                         [(m, c // lc if c % lc == 0 else Fraction(c, lc))
                          for m, c in g.num.items() if m != lm]))
    work = dict(p.num)
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder: dict[int, int | Fraction] = {}
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m)
        if not c:
            continue
        exps = decode(m, rank)
        for lm, lead, tail in reducers:
            if _divides(lead, exps):
                shift = m - lm  # the key of the quotient m / lm
                products = [(tm + shift, tc) for tm, tc in tail]
                check_degrees((mm for mm, _ in products), rank)
                for mm, tc in products:
                    if mm in work:
                        work[mm] -= c * tc
                    else:
                        work[mm] = -c * tc
                        heapq.heappush(heap, -mm)
                break
        else:
            remainder[m] = c
    common = lcm(*(c.denominator for c in remainder.values()))
    return Polynomial._trusted(
        rank, {m: c.numerator * (common // c.denominator) for m, c in remainder.items()},
        p.den * common)


def _s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    (lf, cf), (lg, cg) = leading_term(f), leading_term(g)
    lcm = tuple(max(a, b) for a, b in zip(lf, lg))
    tf = tuple(a - b for a, b in zip(lcm, lf))
    tg = tuple(a - b for a, b in zip(lcm, lg))
    rank = f.rank
    left = Polynomial(rank, _mono_mul(f, tf, 1 / cf))
    right = Polynomial(rank, _mono_mul(g, tg, 1 / cg))
    return left - right


def _monic(p: Polynomial) -> Polynomial:
    _, c = leading_term(p)
    return p.scale(1 / c)


def buchberger(generators: Sequence[Polynomial]) -> list[Polynomial]:
    """Compute a reduced Groebner basis with sugar-strategy pair selection."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ValueError("cannot build a Groebner basis from an empty generator list")
    rank = gens[0].rank
    if any(g.rank != rank for g in gens):
        raise ValueError("generators must share a common rank")

    basis = [_monic(g) for g in gens]
    sugars = [g.total_degree() for g in basis]

    def pair_data(i: int, j: int):
        li, _ = leading_term(basis[i])
        lj, _ = leading_term(basis[j])
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        sugar = max(sugars[i] + sum(lcm) - sum(li), sugars[j] + sum(lcm) - sum(lj))
        return sugar, lcm

    pairs: dict[tuple[int, int], tuple[int, Exponents]] = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pairs[(i, j)] = pair_data(i, j)

    while pairs:
        (i, j), (sugar, lcm) = min(
            pairs.items(), key=lambda kv: (kv[1][0], monomial_key(kv[1][1], rank), kv[0]))
        del pairs[(i, j)]
        li, _ = leading_term(basis[i])
        lj, _ = leading_term(basis[j])
        if all(a + b == c for a, b, c in zip(li, lj, lcm)):
            continue  # coprime leading monomials: S-polynomial reduces to zero
        h = normal_form(_s_polynomial(basis[i], basis[j]), basis)
        if h.is_zero():
            continue
        basis.append(_monic(h))
        sugars.append(sugar)
        k = len(basis) - 1
        for t in range(k):
            pairs[(t, k)] = pair_data(t, k)

    return _reduce_basis(basis)


def _reduce_basis(basis: list[Polynomial]) -> list[Polynomial]:
    rank = basis[0].rank
    # Minimize: drop elements whose leading monomial another one divides.
    kept: list[Polynomial] = []
    leads = [leading_term(g)[0] for g in basis]
    for i, g in enumerate(basis):
        li = leads[i]
        if any(j != i and _divides(leads[j], li)
               and not (leads[j] == li and j > i) for j in range(len(basis))):
            continue
        kept.append(g)
    # Tail-reduce every element against the others.
    reduced: list[Polynomial] = []
    for i, g in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        r = normal_form(g, others) if others else g
        if not r.is_zero():
            reduced.append(_monic(r))
    reduced.sort(key=lambda g: monomial_key(leading_term(g)[0], rank))
    return reduced


def group_ideal_generators(spec: GroupSpec) -> list[Polynomial]:
    """The defining generators of the coinvariant ideal for each group kind."""
    n = spec.rank
    if spec.kind == "U":
        return [elementary_symmetric(i, n, "x") for i in range(1, n + 1)]
    if spec.kind == "SU":
        gens = [power_sum(i, n, "x") for i in range(1, n + 1)]
        gens.append(power_sum(1, n, "y"))
        return gens
    # Sp: elementary symmetric polynomials in the squared x-variables, whose
    # monomials are those of e_i(x) with every exponent doubled.
    return [Polynomial._trusted(n, {encode([2 * e for e in decode(m, n)], n): c
                                    for m, c in elementary_symmetric(i, n, "x").num.items()})
            for i in range(1, n + 1)]


@lru_cache(maxsize=None)
def ideal_for_group(spec: GroupSpec) -> tuple[Polynomial, ...]:
    """The reduced Groebner basis of the coinvariant ideal of ``spec``, in closed form.

    h_k(x_k, ..., x_n) for k = 1..n, in the squared x-variables for Sp,
    after y_1 + ... + y_n for SU: ascending leading monomial, the order
    ``buchberger`` returns.
    """
    n = spec.rank
    step = 2 if spec.kind == "Sp" else 1
    basis = [power_sum(1, n, "y")] if spec.kind == "SU" else []
    for k in range(1, n + 1):
        num: dict[int, int] = {}
        for indices in combinations_with_replacement(range(k - 1, n), k):
            exps = [0] * (3 * n)
            for i in indices:
                exps[i] += step
            num[encode(exps, n)] = 1
        basis.append(Polynomial._trusted(n, num))
    return tuple(basis)


def equal_mod_ideal(p: Polynomial, q: Polynomial, basis: Sequence[Polynomial]) -> bool:
    """True iff p - q lies in the ideal of the Groebner ``basis`` (its normal form vanishes)."""
    if p.rank != q.rank:
        raise ValueError("rank mismatch")
    return normal_form(p - q, basis).is_zero()
