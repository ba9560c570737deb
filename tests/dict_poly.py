"""A plain reference implementation of the exact polynomial kernel.

A polynomial is a ``dict[tuple, Fraction]`` of nonzero coefficients keyed
by the flat exponent tuples of ``tcclasses.polyring`` (x-block, y-block,
z-block).  Every operation is written out directly on Fractions: there is
no content form, and ``iota`` and the Weyl action go through
``substitute`` instead of their closed forms.  The property tests compare
the library against it through ``Polynomial.terms``.
"""

from fractions import Fraction

from tcclasses.weyl import enumerate_group


def monomial_key(exps: tuple, rank: int) -> tuple:
    """Sort key realizing the block grevlex order (larger key = larger monomial).

    The reference for the integer order of the library's packed keys.
    """
    key: list[int] = []
    for f in range(3):
        block = exps[f * rank:(f + 1) * rank]
        key.append(sum(block))
        key.extend(-e for e in reversed(block))
    return tuple(key)


def nonzero(p: dict) -> dict:
    return {m: c for m, c in p.items() if c}


def unit(slot: int, rank: int) -> tuple:
    exps = [0] * (3 * rank)
    exps[slot] = 1
    return tuple(exps)


def add(p: dict, q: dict) -> dict:
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return nonzero(out)


def scale(p: dict, c: Fraction) -> dict:
    return nonzero({m: c * v for m, v in p.items()})


def linear_combination(pairs) -> dict:
    """The sum of c * p over the (c, p) pairs, one term at a time."""
    out: dict = {}
    for c, p in pairs:
        out = add(out, scale(p, Fraction(c)))
    return out


def sub(p: dict, q: dict) -> dict:
    return add(p, scale(q, Fraction(-1)))


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = tuple(a + b for a, b in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return nonzero(out)


def max_block_degree(p: dict, rank: int) -> int:
    """The largest degree of one variable family in a term of ``p`` (0 for zero)."""
    return max((sum(m[f * rank:(f + 1) * rank]) for m in p for f in range(3)), default=0)


def power(p: dict, e: int, rank: int) -> dict:
    out = {(0,) * (3 * rank): Fraction(1)}
    for _ in range(e):
        out = mul(out, p)
    return out


def substitute(p: dict, reps: dict, rank: int) -> dict:
    """Replace the variable in flat slot s by ``reps[s]`` in every term."""
    out: dict = {}
    for exps, c in p.items():
        term = {(0,) * (3 * rank): c}
        for slot, e in enumerate(exps):
            if e:
                term = mul(term, power(reps[slot], e, rank))
        out = add(out, term)
    return out


def iota(p: dict, rank: int) -> dict:
    """z_i -> x_i + y_i."""
    return substitute(p, {2 * rank + i: {unit(i, rank): 1, unit(rank + i, rank): 1}
                          for i in range(rank)}, rank)


def power_map(k: int, p: dict, rank: int) -> dict:
    return nonzero({m: c * Fraction(k) ** sum(m[rank:2 * rank]) for m, c in p.items()})


def act(g, p: dict, rank: int) -> dict:
    """x_i -> s_i x_g(i), y_i -> s_i y_g(i), z_i -> z_g(i)."""
    reps = {}
    for i, (image, sign) in enumerate(zip(g.perm, g.signs)):
        for f in range(3):
            reps[f * rank + i] = {unit(f * rank + image - 1, rank): sign if f < 2 else 1}
    return substitute(p, reps, rank)


def symmetrize(p: dict, spec) -> dict:
    """The average of g.p over the listed Weyl group."""
    group = enumerate_group(spec)
    total: dict = {}
    for g in group:
        total = add(total, act(g, p, spec.rank))
    return scale(total, Fraction(1, len(group)))


def normal_form(p: dict, basis: list, rank: int) -> dict:
    """Division by ``basis``: the largest monomial left is reduced by the
    first element whose leading monomial divides it, or kept."""
    def key(m: tuple) -> tuple:
        return monomial_key(m, rank)

    leads = [max(g, key=key) for g in basis]
    work, remainder = dict(p), {}
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for g, lm in zip(basis, leads):
            if all(a <= b for a, b in zip(lm, m)):
                shift = tuple(b - a for a, b in zip(lm, m))
                q = c / g[lm]
                for tm, tc in g.items():
                    if tm != lm:
                        mm = tuple(a + s for a, s in zip(tm, shift))
                        work[mm] = work.get(mm, 0) - q * tc
                        if not work[mm]:
                            del work[mm]
                break
        else:
            remainder[m] = c
    return remainder
