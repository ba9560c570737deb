"""Exact sparse polynomial arithmetic in three indexed variable families.

Polynomials live in Q[x_1..x_n, y_1..y_n, z_1..z_n] for a common rank n.
At the edges (the constructor, ``terms``, ``sorted_terms``, JSON) a
monomial is a flat tuple of 3n exponents (x-block, then y-block, then
z-block).  A polynomial is held in content form, as in FLINT's
``fmpq_mpoly``: nonzero integer numerators ``num`` per monomial over one
positive integer denominator ``den``, with gcd(den, *num) == 1 (the zero
polynomial has den == 1).  The form is unique, so two polynomials are equal
iff their ranks, denominators and numerator maps are equal.  Arithmetic is
exact and runs on integers; ``terms`` is the read-only view as Fractions.

The canonical monomial order used for printing, serialization and division
is a block order: the x-block is compared first, then the y-block, then the
z-block, each block under graded reverse lexicographic order.  It is the
integer order of the packed keys below; the tests check it against a
tuple sort key in ``tests/dict_poly.py``.

The keys of ``num`` are packed monomials (Monagan and Pearce, "Sparse
polynomial division using a heap", J. Symb. Comp. 2011): one ``int`` with
one byte per field.  A block with exponents e_1..e_n holds the fields
(d, d - e_n, d - e_n - e_{n-1}, ..., e_1), d = e_1 + ... + e_n, most
significant first, and the x-block sits above the y-block above the
z-block.  So integer order is the block grevlex order, and a block degree
is one field read (``degree_in``).  The fields are linear in the
exponents, so a key is the sum of each exponent times the key of its
variable (``unit_keys``), and the key of a product is the sum of the
keys.  Each field keeps its top bit as a guard: a block degree above
``MAX_BLOCK_DEGREE`` sets it, and ``check_degrees`` rejects it with a
``ValueError`` before it can carry into the next field.  Only this module
knows the layout; the others go through ``encode`` and ``decode`` and the
helpers named here.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, combinations
from math import gcd, lcm
from operator import or_, sub
from typing import Callable, Iterable, Mapping, Sequence

FAMILIES = ("x", "y", "z")

Exponents = tuple[int, ...]
Coeff = Fraction

#: The largest degree in one variable family that a packed monomial holds:
#: seven value bits under the guard bit of a field.
MAX_BLOCK_DEGREE = 0x7F
#: Largest total degree of a term in a polynomial file (JSON form).
MAX_FILE_DEGREE = 64


def variable_slot(family: str, index: int, rank: int) -> int:
    """Position of the variable ``family_index`` in the flat exponent tuple."""
    if family not in FAMILIES:
        raise ValueError(f"unknown variable family {family!r}; expected one of {FAMILIES}")
    if not 1 <= index <= rank:
        raise ValueError(f"variable index {index} out of range for rank {rank}")
    return FAMILIES.index(family) * rank + (index - 1)


def encode(exps: Sequence[int], rank: int) -> int:
    """The packed key of the monomial with the 3 * ``rank`` exponents ``exps``."""
    if len(exps) != 3 * rank:
        raise ValueError(f"monomial has {len(exps)} exponents; expected {3 * rank}")
    if min(exps) < 0:
        raise ValueError("exponents must be nonnegative")
    # Least significant byte first: the z-block, then y, then x, each from e_1 up.
    fields = [*accumulate(exps[2 * rank:]), *accumulate(exps[rank:2 * rank]),
              *accumulate(exps[:rank])]
    _check_block_degree(max(fields))
    return int.from_bytes(bytes(fields), "little")


def _check_block_degree(degree: int) -> None:
    if degree > MAX_BLOCK_DEGREE:
        raise ValueError(f"degree {degree} in one variable family exceeds the cap {MAX_BLOCK_DEGREE}")


def decode(key: int, rank: int) -> Exponents:
    """The exponent tuple of the packed key ``key`` (inverse of ``encode``)."""
    fields = key.to_bytes(3 * rank, "little")
    exps: list[int] = []
    for lo in (2 * rank, rank, 0):
        block = fields[lo:lo + rank]
        exps += map(sub, block, b"\0" + block[:-1])
    return tuple(exps)


@lru_cache(maxsize=None)
def _guards(rank: int) -> int:
    return int.from_bytes(bytes([MAX_BLOCK_DEGREE + 1]) * (3 * rank), "little")


def check_degrees(keys: Iterable[int], rank: int) -> None:
    """Reject sums of packed keys in which a block degree passed ``MAX_BLOCK_DEGREE``.

    Each summand had every guard bit clear, so a field that overflowed set
    its own guard bit and no other field changed.
    """
    if reduce(or_, keys, 0) & _guards(rank):
        raise ValueError(f"a product exceeds the degree cap {MAX_BLOCK_DEGREE} "
                         "of a variable family")


@lru_cache(maxsize=None)
def unit_keys(rank: int) -> tuple[int, ...]:
    """The packed key of each variable, in flat exponent order (x_1..x_n, y_1.., z_1..)."""
    return tuple(encode([int(i == slot) for i in range(3 * rank)], rank)
                 for slot in range(3 * rank))


def _power_key(family: str, index: int, e: int, rank: int) -> int:
    """The key of the monomial family_index^e."""
    _check_block_degree(e)
    return e * unit_keys(rank)[variable_slot(family, index, rank)]


def _degree_shift(family: str, rank: int) -> int:
    """The bit offset of the block degree field of ``family`` in a packed key."""
    return 8 * ((3 - FAMILIES.index(family)) * rank - 1)


@lru_cache(maxsize=None)
def degree_in(family: str, rank: int) -> Callable[[int], int]:
    """The degree in ``family`` of a packed monomial, as a function of its key: one field read."""
    shift = _degree_shift(family, rank)
    return lambda key: key >> shift & MAX_BLOCK_DEGREE


@lru_cache(maxsize=None)
def _degree_masks(rank: int) -> tuple[tuple[str, int], ...]:
    """Each family with the mask of its block degree field in a packed key."""
    return tuple((f, MAX_BLOCK_DEGREE << _degree_shift(f, rank)) for f in FAMILIES)


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients, in content form.

    ``num`` maps packed monomial keys (``encode``) to integer numerators.
    """

    __slots__ = ("rank", "num", "den")

    def __init__(self, rank: int, terms: Mapping[Exponents, Coeff | int] | None = None):
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        clean: dict[int, int | Fraction] = {}
        for exps, coeff in (terms or {}).items():
            m = encode(exps, rank)  # injective, so no two terms share a key
            c = coeff if type(coeff) in (int, Fraction) else Fraction(coeff)
            if c:
                clean[m] = c
        den = lcm(*(c.denominator for c in clean.values()))
        self._store(rank, {m: c.numerator * (den // c.denominator) for m, c in clean.items()}, den)

    @classmethod
    def _trusted(cls, rank: int, num: Mapping[int, int], den: int = 1) -> "Polynomial":
        """Wrap the numerators ``num`` over ``den`` without re-validating them.

        For results of integer arithmetic on valid rank-``rank``
        polynomials: every key is a packed rank-``rank`` monomial with its
        guard bits clear, every numerator is an int and ``den`` is a
        positive int.  Zero numerators are dropped and
        gcd(den, *num) is divided out.  The result takes ownership of
        ``num``: the caller must not change it afterwards.  Input from
        outside goes through ``Polynomial(...)``.
        """
        p = object.__new__(cls)
        p._store(rank, num, den)
        return p

    def _store(self, rank: int, num: Mapping[int, int], den: int) -> None:
        if not all(num.values()):
            num = {m: c for m, c in num.items() if c}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        _set_rank(self, rank)
        _set_num(self, num)
        _set_den(self, den)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "Polynomial":
        return cls.constant(rank, 0)

    @classmethod
    def constant(cls, rank: int, value: Coeff | int) -> "Polynomial":
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        c = Fraction(value)
        return cls._trusted(rank, {0: c.numerator}, c.denominator)  # 0: the key of 1

    @classmethod
    def one(cls, rank: int) -> "Polynomial":
        return cls.constant(rank, 1)

    @classmethod
    def variable(cls, family: str, index: int, rank: int) -> "Polynomial":
        return cls._trusted(rank, {_power_key(family, index, 1, rank): 1})

    # -- basic queries -------------------------------------------------

    @property
    def terms(self) -> dict[Exponents, Coeff]:
        """The coefficients as Fractions by exponent tuple, built on each read (not for inner loops)."""
        rank, den = self.rank, self.den
        return {decode(m, rank): Fraction(c, den) for m, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def total_degree(self) -> int:
        """Maximal total degree of a term (0 for the zero polynomial)."""
        degrees = [degree_in(f, self.rank) for f in FAMILIES]
        return max((sum(d(m) for d in degrees) for m in self.num), default=0)

    def families_used(self) -> set[str]:
        # A block degree of the OR of the keys is nonzero iff it is in some key.
        top = reduce(or_, self.num, 0)
        return {f for f, mask in _degree_masks(self.rank) if top & mask}

    def sorted_terms(self) -> list[tuple[Exponents, Coeff]]:
        """Terms in decreasing monomial order (canonical output order)."""
        rank, den = self.rank, self.den
        return [(decode(m, rank), Fraction(c, den))
                for m, c in sorted(self.num.items(), reverse=True)]

    # -- ring operations -----------------------------------------------

    def _require_same_rank(self, other: "Polynomial") -> None:
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_rank(other)
        da, db = self.den, other.den
        if da == db:
            out = dict(self.num)
            fb = 1
        else:
            g = gcd(da, db)
            fa, fb = db // g, da // g
            out = {m: c * fa for m, c in self.num.items()}
            da *= fa
        for m, c in other.num.items():
            c *= fb
            out[m] = out[m] + c if m in out else c
        return Polynomial._trusted(self.rank, out, da)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.rank, {m: -c for m, c in self.num.items()}, self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_rank(other)
        out: dict[int, int] = {}
        terms = other.num.items()
        for ma, ca in self.num.items():
            for mb, cb in terms:
                m = ma + mb
                out[m] = out[m] + ca * cb if m in out else ca * cb
        check_degrees(out, self.rank)
        return Polynomial._trusted(self.rank, out, self.den * other.den)

    def scale(self, value: Coeff | int) -> "Polynomial":
        c = Fraction(value)
        a = c.numerator
        return Polynomial._trusted(self.rank, {m: a * v for m, v in self.num.items()},
                                   self.den * c.denominator)

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
        return (isinstance(other, Polynomial) and self.rank == other.rank
                and self.den == other.den and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.rank, self.den, frozenset(self.num.items())))

    def __repr__(self) -> str:
        # The JSON form: eval gives the polynomial back if its degree is within MAX_FILE_DEGREE.
        return f"polynomial_from_dict({polynomial_to_dict(self)!r})"


# The slots' own stores, which pass by the immutability guard ``__setattr__``.
_set_rank, _set_num, _set_den = (Polynomial.__dict__[name].__set__
                                 for name in Polynomial.__slots__)


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
    for key, coeff in p.num.items():
        term = Polynomial._trusted(rank, {0: coeff})  # 0 is the key of the monomial 1
        for slot, e in enumerate(decode(key, rank)):
            if not e:
                continue
            if slot not in reps:
                f, i = divmod(slot, rank)
                raise ValueError(
                    f"no replacement given for variable {FAMILIES[f]}{i + 1} occurring in the polynomial")
            term = term * reps[slot] ** e
        out = out + term
    return Polynomial._trusted(rank, out.num, out.den * p.den)


def power_sum(m: int, n: int, family: str = "z") -> Polynomial:
    """The power polynomial v_1^m + ... + v_n^m in the chosen family."""
    if m < 1:
        raise ValueError("power-sum exponent must be at least 1 (constants are excluded)")
    if n < 1:
        raise ValueError("rank must be positive")
    return Polynomial._trusted(n, {_power_key(family, i, m, n): 1 for i in range(1, n + 1)})


def two_var_power_sum(a: int, b: int, n: int) -> Polynomial:
    """The two-family power polynomial sum_i x_i^a y_i^b."""
    if a < 0 or b < 0:
        raise ValueError("exponents must be nonnegative")
    if a + b < 1:
        raise ValueError("a + b must be at least 1 (constants are excluded)")
    if n < 1:
        raise ValueError("rank must be a positive integer")
    # x_i^a and y_i^b lie in different blocks, so the sum of their keys is valid.
    return Polynomial._trusted(n, {_power_key("x", i, a, n) + _power_key("y", i, b, n): 1
                                   for i in range(1, n + 1)})


def elementary_symmetric(i: int, n: int, family: str = "x") -> Polynomial:
    """The i-th elementary symmetric polynomial in the chosen family."""
    if not 1 <= i <= n:
        raise ValueError(f"elementary symmetric index must satisfy 1 <= i <= {n}")
    _check_block_degree(i)
    block = unit_keys(n)[variable_slot(family, 1, n):][:n]
    return Polynomial._trusted(n, {sum(subset): 1 for subset in combinations(block, i)})


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


def _parse_coeff(value) -> Fraction:
    """A JSON coefficient: an integer, "int" or "int/int"; anything else is a ValueError."""
    if not (_is_int(value) or isinstance(value, str) and _COEFF.fullmatch(value)):
        raise ValueError(f"coefficient {value!r} is not an integer, 'int' or 'int/int'")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"coefficient {value!r} has a zero denominator") from None


def polynomial_from_dict(data: Mapping) -> Polynomial:
    """Parse the interchange schema; a term of total degree above MAX_FILE_DEGREE is rejected."""
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
            coeff = _parse_coeff(entry["coeff"])
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    except (KeyError, TypeError) as exc:  # a missing field, a non-list block
        raise ValueError(f"malformed polynomial ({type(exc).__name__}: {exc})") from None
    degree = max(map(sum, terms), default=0)
    if degree > MAX_FILE_DEGREE:
        raise ValueError(f"polynomial total degree {degree} exceeds the cap {MAX_FILE_DEGREE}")
    return Polynomial(rank, terms)
