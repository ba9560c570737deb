"""Exact sparse polynomial arithmetic in three indexed variable families.

Polynomials live in Q[x_1..x_n, y_1..y_n, z_1..z_n] for a common rank n.
A monomial is stored as a flat tuple of 3n exponents (x-block, then y-block,
then z-block) and a polynomial maps monomials to nonzero Fraction
coefficients.  All arithmetic is exact; two polynomials are equal iff their
term maps are equal.

The canonical monomial order used for printing, serialization and division
is a block order: the x-block is compared first, then the y-block, then the
z-block, each block under graded reverse lexicographic order.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add
from typing import Mapping

FAMILIES = ("x", "y", "z")

Exponents = tuple[int, ...]
Coeff = Fraction


def variable_slot(family: str, index: int, rank: int) -> int:
    """Position of the variable ``family_index`` in the flat exponent tuple."""
    if family not in FAMILIES:
        raise ValueError(f"unknown variable family {family!r}; expected one of {FAMILIES}")
    if not 1 <= index <= rank:
        raise ValueError(f"variable index {index} out of range for rank {rank}")
    return FAMILIES.index(family) * rank + (index - 1)


def monomial_key(exps: Exponents, rank: int) -> tuple:
    """Sort key realizing the block grevlex order (larger key = larger monomial)."""
    key: list[int] = []
    for f in range(3):
        block = exps[f * rank:(f + 1) * rank]
        key.append(sum(block))
        key.extend(-e for e in reversed(block))
    return tuple(key)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: Mapping[Exponents, Coeff | int] | None = None):
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        clean: dict[Exponents, Coeff] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != 3 * rank:
                raise ValueError(f"monomial has {len(exps)} exponents; expected {3 * rank}")
            if any(e < 0 for e in exps):
                raise ValueError("exponents must be nonnegative")
            c = Fraction(coeff)
            if c:
                clean[exps] = clean.get(exps, Fraction(0)) + c
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "terms", {m: c for m, c in clean.items() if c})

    @classmethod
    def _trusted(cls, rank: int, terms: Mapping[Exponents, Coeff]) -> "Polynomial":
        """Wrap terms that are already valid, only dropping zero coefficients.

        For results of Fraction arithmetic on valid rank-``rank``
        polynomials: the exponent tuples have length 3 * rank and no
        negative entry, every key occurs once and every coefficient is a
        Fraction.  Input from outside goes through ``Polynomial(...)``.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "rank", rank)
        object.__setattr__(p, "terms", {m: c for m, c in terms.items() if c})
        return p

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Polynomial":
        return cls(rank, {})

    @classmethod
    def constant(cls, rank: int, value: Coeff | int) -> "Polynomial":
        return cls(rank, {(0,) * (3 * rank): Fraction(value)})

    @classmethod
    def one(cls, rank: int) -> "Polynomial":
        return cls.constant(rank, 1)

    @classmethod
    def variable(cls, family: str, index: int, rank: int) -> "Polynomial":
        exps = [0] * (3 * rank)
        exps[variable_slot(family, index, rank)] = 1
        return cls(rank, {tuple(exps): Fraction(1)})

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximal total degree of a term (0 for the zero polynomial)."""
        return max((sum(m) for m in self.terms), default=0)

    def families_used(self) -> set[str]:
        used: set[str] = set()
        n = self.rank
        for exps in self.terms:
            for f, name in enumerate(FAMILIES):
                if any(exps[f * n:(f + 1) * n]):
                    used.add(name)
        return used

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in decreasing monomial order (canonical output order)."""
        return sorted(self.terms.items(), key=lambda t: monomial_key(t[0], self.rank), reverse=True)

    # -- ring operations -----------------------------------------------

    def _require_same_rank(self, other: "Polynomial") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_rank(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return Polynomial._trusted(self.rank, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.rank, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_rank(other)
        out: dict[Exponents, Coeff] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = tuple(map(add, ma, mb))
                out[m] = out[m] + ca * cb if m in out else ca * cb
        return Polynomial._trusted(self.rank, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: Coeff | int) -> "Polynomial":
        c = Fraction(value)
        return Polynomial._trusted(self.rank, {m: c * v for m, v in self.terms.items()})

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined in the polynomial ring")
        result = Polynomial.one(self.rank)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial)
                and self.rank == other.rank and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        n = self.rank
        for exps, coeff in self.sorted_terms():
            factors = []
            for f, name in enumerate(FAMILIES):
                for i in range(n):
                    e = exps[f * n + i]
                    if e == 1:
                        factors.append(f"{name}{i + 1}")
                    elif e > 1:
                        factors.append(f"{name}{i + 1}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def substitute(p: Polynomial, replacements: Mapping[tuple[str, int], Polynomial]) -> Polynomial:
    """Apply a per-variable ring homomorphism.

    ``replacements`` maps ``(family, index)`` to the replacement polynomial.
    Every variable actually occurring in ``p`` must be covered; replacements
    must share ``p``'s rank.
    """
    rank = p.rank
    reps: dict[int, Polynomial] = {}
    for (family, index), q in replacements.items():
        if q.rank != rank:
            raise ValueError("replacement rank mismatch")
        reps[variable_slot(family, index, rank)] = q
    out = Polynomial.zero(rank)
    for exps, coeff in p.terms.items():
        term = Polynomial.constant(rank, coeff)
        for slot, e in enumerate(exps):
            if not e:
                continue
            if slot not in reps:
                f, i = divmod(slot, rank)
                raise ValueError(
                    f"no replacement given for variable {FAMILIES[f]}{i + 1} occurring in the polynomial")
            term = term * reps[slot] ** e
        out = out + term
    return out


def power_sum(m: int, n: int, family: str = "z") -> Polynomial:
    """The power polynomial v_1^m + ... + v_n^m in the chosen family."""
    if m < 1:
        raise ValueError("power-sum exponent must be at least 1 (constants are excluded)")
    if n < 1:
        raise ValueError("rank must be positive")
    terms: dict[Exponents, Coeff] = {}
    for i in range(1, n + 1):
        exps = [0] * (3 * n)
        exps[variable_slot(family, i, n)] = m
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(n, terms)


def two_var_power_sum(a: int, b: int, n: int) -> Polynomial:
    """The two-family power polynomial sum_i x_i^a y_i^b."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    if a + b < 1:
        raise ValueError("a + b must be at least 1 (constants are excluded)")
    terms: dict[Exponents, Coeff] = {}
    for i in range(1, n + 1):
        exps = [0] * (3 * n)
        exps[variable_slot("x", i, n)] = a
        exps[variable_slot("y", i, n)] = b
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(n, terms)


def elementary_symmetric(i: int, n: int, family: str = "x") -> Polynomial:
    """The i-th elementary symmetric polynomial in the chosen family."""
    if not 1 <= i <= n:
        raise ValueError(f"elementary symmetric index must satisfy 1 <= i <= {n}")
    terms: dict[Exponents, Coeff] = {}
    for subset in combinations(range(1, n + 1), i):
        exps = [0] * (3 * n)
        for j in subset:
            exps[variable_slot(family, j, n)] = 1
        terms[tuple(exps)] = Fraction(1)
    return Polynomial(n, terms)


@lru_cache(maxsize=None)
def _power_sums_in_sigma(rank: int) -> tuple[Polynomial, ...]:
    """p_1..p_rank expressed in sigma_1..sigma_rank via Newton's identities.

    The x-variables of the returned polynomials stand for the abstract
    symbols sigma_i.
    """
    sigmas = [Polynomial.variable("x", i, rank) for i in range(1, rank + 1)]
    ps: list[Polynomial] = []
    for k in range(1, rank + 1):
        acc = Polynomial.zero(rank)
        for i in range(1, k):
            acc = acc + sigmas[i - 1].scale((-1) ** (i - 1)) * ps[k - i - 1]
        acc = acc + sigmas[k - 1].scale((-1) ** (k - 1) * k)
        ps.append(acc)
    return tuple(ps)


def newton_convert(expr: Polynomial) -> Polynomial:
    """Rewrite a polynomial in abstract power sums as one in abstract sigmas.

    The x-variables of ``expr`` denote the power-sum symbols p_1..p_n; the
    x-variables of the result denote the elementary symmetric symbols
    sigma_1..sigma_n.  The rewriting is exact (Newton's identities).
    """
    foreign = expr.families_used() - {"x"}
    if foreign:
        raise ValueError(f"abstract power-sum polynomials may only use x-variables, found {sorted(foreign)}")
    table = _power_sums_in_sigma(expr.rank)
    reps = {("x", i): table[i - 1] for i in range(1, expr.rank + 1)}
    return substitute(expr, reps)


def expand_symbol_polynomial(expr: Polynomial, basis: str) -> Polynomial:
    """Expand an abstract-symbol polynomial into honest z-variables.

    ``basis`` selects what the x-variables of ``expr`` stand for:
    ``"power_sum"`` maps x_i to p_i(z) and ``"elementary"`` maps x_i to
    sigma_i(z).  Used to verify Newton rewriting by round-trip.
    """
    n = expr.rank
    if basis == "power_sum":
        reps = {("x", i): power_sum(i, n, "z") for i in range(1, n + 1)}
    elif basis == "elementary":
        reps = {("x", i): elementary_symmetric(i, n, "z") for i in range(1, n + 1)}
    else:
        raise ValueError("basis must be 'power_sum' or 'elementary'")
    return substitute(expr, reps)


# -- JSON form ----------------------------------------------------------


def _coeff_string(c: Coeff) -> str:
    return f"{c.numerator}/{c.denominator}"


def polynomial_to_dict(p: Polynomial) -> dict:
    """Serialize per the interchange schema; all-zero exponent blocks are omitted."""
    n = p.rank
    terms = []
    for exps, coeff in p.sorted_terms():
        entry: dict = {"coeff": _coeff_string(coeff)}
        for f, name in enumerate(FAMILIES):
            block = list(exps[f * n:(f + 1) * n])
            if any(block):
                entry[name] = block
        terms.append(entry)
    return {"rank": n, "terms": terms}


#: A coefficient string: "int" or "int/int", never exponent notation.
_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def polynomial_from_dict(data: Mapping) -> Polynomial:
    if not isinstance(data, Mapping):
        raise ValueError(f"a polynomial must be a JSON object, not {type(data).__name__}")
    try:
        rank = data["rank"]
        if not _is_int(rank):
            raise ValueError(f"rank must be an integer, not {rank!r}")
        if rank < 1:
            raise ValueError(f"rank must be at least 1, not {rank}")
        unknown = set(data) - {"rank", "terms"}
        if unknown:
            raise ValueError(f"unknown polynomial keys {sorted(unknown)}; expected 'rank' and 'terms'")
        entries = data["terms"]
        if not isinstance(entries, list):
            raise ValueError(f"terms must be a list, not {type(entries).__name__}")
        terms: dict[Exponents, Coeff] = {}
        for entry in entries:
            if not isinstance(entry, Mapping):
                raise ValueError(f"a term must be a JSON object, not {type(entry).__name__}")
            unknown = set(entry) - {"coeff", *FAMILIES}
            if unknown:
                raise ValueError(f"unknown term keys {sorted(unknown)}; expected 'coeff' and {list(FAMILIES)}")
            exps: list[int] = []
            for name in FAMILIES:
                block = entry.get(name, [0] * rank)
                if len(block) != rank:
                    raise ValueError(f"exponent block {name!r} has length {len(block)}; expected {rank}")
                if not all(_is_int(e) for e in block):
                    raise ValueError(f"exponent block {name!r} holds a non-integer: {block!r}")
                exps.extend(block)
            coeff = entry["coeff"]
            if not (_is_int(coeff) or isinstance(coeff, str) and _COEFF.fullmatch(coeff)):
                raise ValueError(f"coefficient {coeff!r} is not an integer, 'int' or 'int/int'")
            coeff = Fraction(coeff)
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    except (KeyError, TypeError, ZeroDivisionError) as exc:  # a missing field, a "p/0", a non-list block
        raise ValueError(f"malformed polynomial ({type(exc).__name__}: {exc})") from None
    return Polynomial(rank, terms)
