"""Groebner bases and normal forms for the coinvariant ideals.

Equality "mod J" is decided by reducing against the reduced Groebner basis
of J under a block elimination order (x-block before y-block before
z-block, grevlex within each block).  All three group ideals have their
generators in the x-block (plus one y-generator for SU), so reduction
rewrites high x-degrees into the staircase basis of the coinvariant
algebra and leaves the y-part intact.  ``normal_form`` divides with its
pending monomials in a max-heap, so each monomial is pushed once and
reduced in decreasing order (Monagan and Pearce, JSC 2011).

The reduced bases have a closed form (``coinvariant_basis``): the complete
homogeneous polynomials h_k(x_k, ..., x_n), k = 1..n, in the squared
variables for Sp, plus y_1 + ... + y_n for SU (Sturmfels, *Algorithms in
Invariant Theory*, ch. 1).  ``buchberger`` is kept as the reference
implementation the tests check the closed form against.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add, le, neg, sub
from typing import Sequence

from .polyring import (
    Exponents,
    Polynomial,
    elementary_symmetric,
    monomial_key,
    power_sum,
    substitute,
)
from .weyl import GroupSpec


def leading_term(p: Polynomial) -> tuple[Exponents, Fraction]:
    if p.is_zero():
        raise ValueError("the zero polynomial has no leading term")
    m = max(p.terms, key=lambda e: monomial_key(e, p.rank))
    return m, p.terms[m]


def _divides(d: Exponents, m: Exponents) -> bool:
    return all(map(le, d, m))


def _mono_mul(p: Polynomial, shift: Exponents, coeff: Fraction) -> dict[Exponents, Fraction]:
    return {tuple(e + s for e, s in zip(m, shift)): c * coeff for m, c in p.terms.items()}


def normal_form(p: Polynomial, ideal: "IdealSpec | Sequence[Polynomial]") -> Polynomial:
    """Remainder of multivariate division of ``p`` by the (Groebner) basis.

    Monomials still to be reduced sit in a max-heap on ``monomial_key``.
    Reducing the largest monomial m only adds monomials smaller than m, so
    every monomial is pushed once and popped in decreasing order.  The
    first basis element whose leading monomial divides m reduces it.
    """
    basis = list(ideal.basis) if isinstance(ideal, IdealSpec) else list(ideal)
    if basis and basis[0].rank != p.rank:
        raise ValueError("rank mismatch between polynomial and ideal")
    rank = p.rank
    reducers = []  # (leading monomial, its coefficient, the other terms)
    for g in basis:
        lm, lc = leading_term(g)
        reducers.append((lm, lc, [(m, c) for m, c in g.terms.items() if m != lm]))
    work = dict(p.terms)
    heap = [(_heap_key(m, rank), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Exponents, Fraction] = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m)
        if not c:
            continue
        for lm, lc, tail in reducers:
            if _divides(lm, m):
                shift = tuple(map(sub, m, lm))
                q = c / lc
                for tm, tc in tail:
                    mm = tuple(map(add, tm, shift))
                    if mm in work:
                        work[mm] -= q * tc
                    else:
                        work[mm] = -q * tc
                        heapq.heappush(heap, (_heap_key(mm, rank), mm))
                break
        else:
            remainder[m] = c
    return Polynomial._trusted(rank, remainder)


def _heap_key(exps: Exponents, rank: int) -> tuple:
    """Negated ``monomial_key``: the least heap entry is the largest monomial."""
    return tuple(map(neg, monomial_key(exps, rank)))


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


def buchberger_criterion_holds(basis: Sequence[Polynomial]) -> bool:
    """True iff every S-polynomial of basis pairs reduces to zero."""
    basis = list(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if not normal_form(_s_polynomial(basis[i], basis[j]), basis).is_zero():
                return False
    return True


@dataclass(frozen=True)
class IdealSpec:
    """A coinvariant ideal: its group, defining generators and reduced Groebner basis."""

    group: GroupSpec
    generators: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]

    def verify(self) -> bool:
        """Re-check the Buchberger criterion and generator membership."""
        if not buchberger_criterion_holds(self.basis):
            return False
        return all(normal_form(g, list(self.basis)).is_zero() for g in self.generators)


def group_ideal_generators(spec: GroupSpec) -> list[Polynomial]:
    """The defining generators of the coinvariant ideal for each group kind."""
    n = spec.rank
    if spec.kind == "U":
        return [elementary_symmetric(i, n, "x") for i in range(1, n + 1)]
    if spec.kind == "SU":
        gens = [power_sum(i, n, "x") for i in range(1, n + 1)]
        gens.append(power_sum(1, n, "y"))
        return gens
    # Sp: elementary symmetric polynomials in the squared x-variables.
    squares = {("x", i): Polynomial.variable("x", i, n) ** 2 for i in range(1, n + 1)}
    return [substitute(elementary_symmetric(i, n, "x"), squares) for i in range(1, n + 1)]


def coinvariant_basis(spec: GroupSpec) -> list[Polynomial]:
    """The reduced Groebner basis of the coinvariant ideal, in closed form.

    h_k(x_k, ..., x_n) for k = 1..n, in the squared x-variables for Sp,
    after y_1 + ... + y_n for SU: ascending leading monomial, the order
    ``buchberger`` returns.
    """
    n = spec.rank
    step = 2 if spec.kind == "Sp" else 1
    basis = [power_sum(1, n, "y")] if spec.kind == "SU" else []
    for k in range(1, n + 1):
        terms: dict[Exponents, Fraction] = {}
        for indices in combinations_with_replacement(range(k - 1, n), k):
            exps = [0] * (3 * n)
            for i in indices:
                exps[i] += step
            terms[tuple(exps)] = Fraction(1)
        basis.append(Polynomial(n, terms))
    return basis


@lru_cache(maxsize=None)
def ideal_for_group(spec: GroupSpec) -> IdealSpec:
    """The coinvariant ideal of ``spec`` with its closed-form Groebner basis."""
    return IdealSpec(spec, tuple(group_ideal_generators(spec)), tuple(coinvariant_basis(spec)))


def equal_mod_ideal(p: Polynomial, q: Polynomial, ideal: IdealSpec) -> bool:
    """True iff p - q lies in the ideal (its normal form vanishes)."""
    if p.rank != q.rank:
        raise ValueError("rank mismatch")
    return normal_form(p - q, ideal).is_zero()
