"""Weyl groups of U(n), SU(n) and Sp(n) acting on the three-family ring.

For U(n) and SU(n) the Weyl group is the symmetric group S_n; for Sp(n) it
is the hyperoctahedral group Z_2^n semidirect S_n.  An element acts
diagonally on the x- and y-families (signs multiply both x_i and y_i, the
permutation relabels indices in both), while the z-family is only permuted.

``symmetrize`` computes the Reynolds operator on orbits, without listing
the group: the average of a monomial is its multisymmetric monomial
function, the sum over the distinct permutations of its columns
(x_i, y_i, z_i) divided by their number (Sturmfels, *Algorithms in
Invariant Theory*, 2.1; Macdonald, *Symmetric Functions and Hall
Polynomials*, I.2).  ``enumerate_group`` lists the group element by
element; with ``act`` it is the oracle the orbit form is tested against.
"""

from __future__ import annotations

from itertools import chain, permutations, product
from math import lcm
from operator import itemgetter, mul
from typing import Iterable, NamedTuple, Sequence

from .polyring import Polynomial, decode, unit_keys

KINDS = ("U", "SU", "Sp")


class _Group(NamedTuple):
    kind: str
    rank: int


class GroupSpec(_Group):
    """Which compact group we work with: kind in {U, SU, Sp} plus the rank."""

    __slots__ = ()

    def __new__(cls, kind: str, rank: int) -> "GroupSpec":
        if kind not in KINDS:
            raise ValueError(f"unknown group kind {kind!r}; expected one of {KINDS}")
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        return super().__new__(cls, kind, rank)


class _SignedPermutation(NamedTuple):
    perm: tuple[int, ...]
    signs: tuple[int, ...]


class WeylElement(_SignedPermutation):
    """A signed permutation: ``perm`` holds 1-indexed images, ``signs`` entries are +-1."""

    __slots__ = ()

    def __new__(cls, perm: tuple[int, ...], signs: tuple[int, ...]) -> "WeylElement":
        n = len(perm)
        if sorted(perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a bijection of 1..n")
        if len(signs) != n or any(s not in (-1, 1) for s in signs):
            raise ValueError("signs must be a +-1 vector of the same length as perm")
        return super().__new__(cls, perm, signs)


def enumerate_group(spec: GroupSpec) -> list[WeylElement]:
    """Materialize all Weyl elements, identity first, eagerly (n!, or 2^n n! for Sp)."""
    n = spec.rank
    sign_choices: Iterable[tuple[int, ...]]
    if spec.kind == "Sp":
        sign_choices = product((1, -1), repeat=n)
    else:
        sign_choices = [(1,) * n]
    return [WeylElement(tuple(p), s)
            for s in sign_choices for p in permutations(range(1, n + 1))]


def act(g: WeylElement, p: Polynomial) -> Polynomial:
    """Apply a Weyl element: x_i -> a_i * x_{sigma(i)}, same on y_i, z_i -> z_{sigma(i)}."""
    n = p.rank
    if len(g.perm) != n:
        raise ValueError(f"rank mismatch: element acts on rank {len(g.perm)}, polynomial has rank {n}")
    source = [0] * n  # source[j] = the index i with sigma(i) = j
    for i, image in enumerate(g.perm):
        source[image - 1] = i
    permute = itemgetter(*source, *(n + i for i in source), *(2 * n + i for i in source))
    flipped = [(i, n + i) for i in range(n) if g.signs[i] == -1]
    units = unit_keys(n)
    out: dict[int, int] = {}
    for m, coeff in p.num.items():
        exps = decode(m, n)
        odd = flipped and sum(exps[i] + exps[j] for i, j in flipped) % 2
        # A permutation keeps every block degree, so the re-encoded key is valid.
        out[sum(map(mul, permute(exps), units))] = -coeff if odd else coeff
    return Polynomial._trusted(n, out, p.den)


def symmetrize(p: Polynomial, spec: GroupSpec) -> Polynomial:
    """The averaging projector onto invariants, (1/|W|) sum_g g.p, exactly, by orbit sums.

    For Sp, a monomial with an odd x_i + y_i in some column averages to
    zero, because the sign flip of that column negates it.  A monomial
    c * m that is left averages over S_n to c / |orbit| on each distinct
    permutation of its columns (x_i, y_i, z_i): its multisymmetric
    monomial function (references in the module docstring).  The shares
    are integers over one common multiple of the orbit sizes.
    """
    if spec.rank != p.rank:
        raise ValueError("rank mismatch between group and polynomial")
    n = p.rank
    orbits = []
    for m, c in p.num.items():
        exps = decode(m, n)
        columns = list(zip(exps[:n], exps[n:2 * n], exps[2 * n:]))
        if spec.kind == "Sp" and any((x + y) % 2 for x, y, _ in columns):
            continue
        orbits.append((c, set(permutations(columns))))
    common = lcm(*(len(orbit) for _, orbit in orbits))
    units = unit_keys(n)
    acc: dict[int, int] = {}
    for c, orbit in orbits:
        share = c * (common // len(orbit))
        for arrangement in orbit:
            # The packed key is linear in the exponents: sum e_slot * unit_slot.
            key = sum(map(mul, chain.from_iterable(zip(*arrangement)), units))
            acc[key] = acc[key] + share if key in acc else share
    return Polynomial._trusted(n, acc, p.den * common)


def parity(I: Sequence[int], J: Sequence[int]) -> str:
    """Classify a pair of multi-indices: "odd" iff some coordinate sum i_k + j_k is odd."""
    if len(I) != len(J):
        raise ValueError("multi-indices must have equal length")
    return "odd" if any((i + j) % 2 for i, j in zip(I, J)) else "even"
