"""Weyl groups of U(n), SU(n) and Sp(n) acting on the three-family ring.

For U(n) and SU(n) the Weyl group is the symmetric group S_n; for Sp(n) it
is the hyperoctahedral group Z_2^n semidirect S_n.  An element acts
diagonally on the x- and y-families (signs multiply both x_i and y_i, the
permutation relabels indices in both), while the z-family is only permuted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from operator import itemgetter
from typing import Iterable, Sequence

from .polyring import Polynomial

KINDS = ("U", "SU", "Sp")

#: Largest rank for which the full group is enumerated by default.
RANK_CAPS = {"U": 6, "SU": 6, "Sp": 4}


@dataclass(frozen=True)
class GroupSpec:
    """Which compact group we work with: kind in {U, SU, Sp} plus the rank."""

    kind: str
    rank: int

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown group kind {self.kind!r}; expected one of {KINDS}")
        if self.rank < 1:
            raise ValueError("rank must be a positive integer")

    def weyl_order(self) -> int:
        order = 1
        for i in range(2, self.rank + 1):
            order *= i
        if self.kind == "Sp":
            order <<= self.rank
        return order

    def to_dict(self) -> dict:
        return {"kind": self.kind, "rank": self.rank}

    @classmethod
    def from_dict(cls, data) -> "GroupSpec":
        return cls(str(data["kind"]), int(data["rank"]))


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation: ``perm`` holds 1-indexed images, ``signs`` entries are +-1."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.perm)
        if sorted(self.perm) != list(range(1, n + 1)):
            raise ValueError("perm must be a bijection of 1..n")
        if len(self.signs) != n or any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be a +-1 vector of the same length as perm")

    @classmethod
    def identity(cls, rank: int) -> "WeylElement":
        return cls(tuple(range(1, rank + 1)), (1,) * rank)

    def compose(self, other: "WeylElement") -> "WeylElement":
        """Group law matching the action: act(g.compose(h), p) == act(g, act(h, p))."""
        if len(self.perm) != len(other.perm):
            raise ValueError("rank mismatch")
        perm = tuple(self.perm[q - 1] for q in other.perm)
        signs = tuple(other.signs[i] * self.signs[other.perm[i] - 1]
                      for i in range(len(self.perm)))
        return WeylElement(perm, signs)

    def to_dict(self) -> dict:
        return {"perm": list(self.perm), "signs": list(self.signs)}

    @classmethod
    def from_dict(cls, data) -> "WeylElement":
        return cls(tuple(int(v) for v in data["perm"]), tuple(int(v) for v in data["signs"]))


def enumerate_group(spec: GroupSpec, rank_cap: int | None = None) -> list[WeylElement]:
    """Materialize all Weyl elements, identity first.

    Sizes stay tiny at the default caps (at most 2^4 * 4! = 384 for Sp),
    so the whole group is listed eagerly.
    """
    cap = RANK_CAPS[spec.kind] if rank_cap is None else rank_cap
    if spec.rank > cap:
        raise ValueError(
            f"rank {spec.rank} exceeds the enumeration cap {cap} for {spec.kind}")
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
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms.items():
        odd = flipped and sum(exps[i] + exps[j] for i, j in flipped) % 2
        out[permute(exps)] = -coeff if odd else coeff
    return Polynomial._trusted(n, out)


def symmetrize(p: Polynomial, spec: GroupSpec) -> Polynomial:
    """The averaging projector onto invariants: (1/|W|) sum_g g.p, exactly."""
    if spec.rank != p.rank:
        raise ValueError("rank mismatch between group and polynomial")
    acc: dict[tuple[int, ...], Fraction] = {}
    for g in enumerate_group(spec):
        for key, c in act(g, p).terms.items():
            acc[key] = acc[key] + c if key in acc else c
    weight = Fraction(1, spec.weyl_order())
    return Polynomial._trusted(p.rank, {m: c * weight for m, c in acc.items()})


def is_invariant(p: Polynomial, spec: GroupSpec) -> bool:
    if spec.rank != p.rank:
        raise ValueError("rank mismatch between group and polynomial")
    return all(act(g, p) == p for g in enumerate_group(spec))


def parity(I: Sequence[int], J: Sequence[int]) -> str:
    """Classify a pair of multi-indices: "odd" iff some coordinate sum i_k + j_k is odd."""
    if len(I) != len(J):
        raise ValueError("multi-indices must have equal length")
    return "odd" if any((i + j) % 2 for i, j in zip(I, J)) else "even"
