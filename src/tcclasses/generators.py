"""The power-map generator calculus.

This module realizes the two ring maps that generate everything:

- ``iota``:  z_i -> x_i + y_i   (restriction from the ambient classifying space)
- ``power_map(k)``:  x_i -> x_i, y_i -> k y_i   (the k-th power map)

together with the Vandermonde solve that expresses every two-family power
sum P_{a,b}(n) = sum_i x_i^a y_i^b, modulo the group's coinvariant ideal,
as a rational combination of symbols Phi^k(iota(p_m)).  A formal
combination of such symbols is a GeneratorExpr; a certified decomposition
carries the proof obligation "evaluates to the target mod the ideal".

For the symplectic group the signed symmetrization mu is generated from
the even power sums by an explicit support recursion (``mu_generate``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from operator import sub
from typing import Mapping, Sequence

from .groebner import IdealSpec, equal_mod_ideal, ideal_for_group
from .polyring import Polynomial, newton_convert, power_sum, two_var_power_sum
from .weyl import GroupSpec, parity

#: Even total degrees accepted for Sp(n) default to a + b <= 2n.
SP_DEGREE_FACTOR = 2


def iota(p: Polynomial) -> Polynomial:
    """The restriction homomorphism z_i -> x_i + y_i on a z-only polynomial.

    Each term expands by (x_i + y_i)^e = sum_j C(e, j) x_i^(e-j) y_i^j.  A
    monomial x^A y^B comes only from z^(A+B), so no two terms collide.
    """
    foreign = p.families_used() - {"z"}
    if foreign:
        raise ValueError(f"iota expects a polynomial in the z-family only, found {sorted(foreign)}")
    n = p.rank
    zeros = (0,) * n
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, coeff in p.terms.items():
        z = exps[2 * n:]
        for ys in product(*(range(e + 1) for e in z)):
            out[tuple(map(sub, z, ys)) + ys + zeros] = coeff * prod(map(comb, z, ys))
    return Polynomial._trusted(n, out)


def power_map(k: int, p: Polynomial) -> Polynomial:
    """The k-th power map on the two-family ring: scales each term by k^(y-degree)."""
    n = p.rank
    if "z" in p.families_used():
        raise ValueError("power maps act on the (x, y)-families; z-variables are not allowed")
    terms = {}
    for exps, coeff in p.terms.items():
        ydeg = sum(exps[n:2 * n])
        factor = Fraction(k) ** ydeg if ydeg else Fraction(1)
        terms[exps] = coeff * factor
    return Polynomial._trusted(n, terms)


def torus_power_map(k: int, p: Polynomial) -> Polynomial:
    """The torus power map: every variable of the (single) family scales by k."""
    used = p.families_used()
    if len(used) > 1:
        raise ValueError("the torus power map acts on a single variable family")
    n = p.rank
    terms = {}
    for exps, coeff in p.terms.items():
        deg = sum(exps)
        factor = Fraction(k) ** deg if deg else Fraction(1)
        terms[exps] = coeff * factor
    return Polynomial._trusted(n, terms)


# ---------------------------------------------------------------------------
# formal generator expressions
# ---------------------------------------------------------------------------

Factor = tuple[int, int]  # (k, m) denoting the symbol Phi^k(iota(p_m))


@lru_cache(maxsize=None)
def _factor_polynomial(k: int, m: int, n: int) -> Polynomial:
    return power_map(k, iota(power_sum(m, n, "z")))


@dataclass(frozen=True)
class GeneratorExpr:
    """A linear combination of products of symbols Phi^k(iota(p_m)).

    Terms are kept canonical: factors sorted within a term, like terms
    merged, zero coefficients dropped.
    """

    terms: tuple[tuple[Fraction, tuple[Factor, ...]], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[tuple[Factor, ...], Fraction] = {}
        for coeff, factors in self.terms:
            for k, m in factors:
                if k == 0:
                    raise ValueError("power-map exponent k must be nonzero in a generator symbol")
                if m < 1:
                    raise ValueError("power-sum index m must be positive")
            key = tuple(sorted(factors))
            merged[key] = merged.get(key, Fraction(0)) + Fraction(coeff)
        canon = tuple(sorted(((c, f) for f, c in merged.items() if c), key=lambda t: t[1]))
        object.__setattr__(self, "terms", canon)

    @classmethod
    def zero(cls) -> "GeneratorExpr":
        return cls(())

    @classmethod
    def single(cls, k: int, m: int, coeff: Fraction | int = 1) -> "GeneratorExpr":
        return cls(((Fraction(coeff), ((k, m),)),))

    def __add__(self, other: "GeneratorExpr") -> "GeneratorExpr":
        return GeneratorExpr(self.terms + other.terms)

    def __sub__(self, other: "GeneratorExpr") -> "GeneratorExpr":
        return self + other.scale(-1)

    def scale(self, value: Fraction | int) -> "GeneratorExpr":
        c = Fraction(value)
        return GeneratorExpr(tuple((coeff * c, factors) for coeff, factors in self.terms))

    def evaluate(self, n: int) -> Polynomial:
        """Expand into the rank-n polynomial sum coeff * prod Phi^k(iota(p_m)).

        Power sums p_m are defined at every rank, also for m > n (the
        symplectic decompositions use even m up to 2n).
        """
        if n < 1:
            raise ValueError("rank must be positive")
        acc = Polynomial.zero(n)
        for coeff, factors in self.terms:
            term = Polynomial.constant(n, coeff)
            for k, m in factors:
                term = term * _factor_polynomial(k, m, n)
            acc = acc + term
        return acc

    def to_dict(self) -> dict:
        return {"terms": [
            {"coeff": f"{c.numerator}/{c.denominator}",
             "factors": [{"k": k, "m": m} for k, m in factors]}
            for c, factors in self.terms]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "GeneratorExpr":
        terms = []
        for entry in data.get("terms", []):
            coeff = Fraction(str(entry["coeff"]))
            factors = tuple((int(f["k"]), int(f["m"])) for f in entry.get("factors", []))
            terms.append((coeff, factors))
        return cls(tuple(terms))


# ---------------------------------------------------------------------------
# the paper's elimination recursion and the Vandermonde solve
# ---------------------------------------------------------------------------


def a_recursion(m: int, n: int) -> list[Polynomial]:
    """The polynomials A_0 .. A_{m-1} of the paper's triangular elimination.

    A_0 = iota(p_m) and A_k = Phi^{k+1}(A_{k-1}) - (k+1)^k A_{k-1}; modulo
    the coinvariant ideal, A_k retains only the components P_{m-j,j} with
    j >= k + 1.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m = {m}, n = {n}")
    a = iota(power_sum(m, n, "z"))
    seq = [a]
    for k in range(1, m):
        a = power_map(k + 1, a) - a.scale((k + 1) ** k)
        seq.append(a)
    return seq


def a_recursion_pivot(m: int) -> int:
    """The pivot prod_{k=2}^m (k^m - k^{k-1}) dividing A_{m-1} into P_{0,m}."""
    pivot = prod(k ** m - k ** (k - 1) for k in range(2, m + 1))
    if pivot == 0:
        raise ArithmeticError("vanishing elimination pivot")
    return pivot


def vandermonde_weights(m: int, b: int) -> dict[int, Fraction]:
    """Weights c_k on the nodes k = 1, -1, 2, -2, ... (the first m of them).

    They solve sum_k c_k k^j = [j == b] / C(m, b) for j = 1..m.  With
    d_k = c_k k this is the transposed Vandermonde system
    sum_k d_k k^i = [i == b - 1] / C(m, b), i = 0..m-1, so d_k is the
    t^(b-1) coefficient of the Lagrange basis polynomial of node k.
    """
    if not 1 <= b <= m:
        raise ValueError(f"need 1 <= b <= m, got b = {b}, m = {m}")
    nodes = [(i // 2 + 1) * (-1) ** i for i in range(m)]
    weights = {}
    for k in nodes:
        numer = [1]  # coefficients of prod_{l != k} (t - l), lowest degree first
        for l in nodes:
            if l != k:
                numer = [hi - l * lo for hi, lo in zip([0] + numer, numer + [0])]
        denom = prod(k - l for l in nodes if l != k) * k * comb(m, b)
        weights[k] = Fraction(numer[b - 1], denom)
    return weights


@dataclass(frozen=True)
class DecompositionResult:
    """A certified expression of P_{a,b}(n) in the power-map generators."""

    group: GroupSpec
    a: int
    b: int
    expr: GeneratorExpr
    certified: bool

    @classmethod
    def create(cls, group: GroupSpec, a: int, b: int, expr: GeneratorExpr,
               ideal: IdealSpec | None = None) -> "DecompositionResult":
        ideal = ideal if ideal is not None else ideal_for_group(group)
        n = group.rank
        ok = equal_mod_ideal(expr.evaluate(n), two_var_power_sum(a, b, n), ideal)
        if not ok:
            raise RuntimeError(
                f"internal error: decomposition of P_{a},{b}({n}) failed certification")
        return cls(group, a, b, expr, True)

    def to_dict(self) -> dict:
        data = self.expr.to_dict()
        data["target"] = {"group": self.group.kind, "rank": self.group.rank,
                          "a": self.a, "b": self.b}
        data["certified"] = self.certified
        return data


def decompose(group: GroupSpec, a: int, b: int,
              max_degree: int | None = None) -> DecompositionResult:
    """Express P_{a,b}(n) mod the group ideal in the generators Phi^k(iota(p_m)).

    With m = a + b, iota(p_m) = sum_j C(m, j) P_{m-j,j} exactly, and Phi^k
    scales the j-th component by k^j.  So sum_k c_k Phi^k(iota(p_m)) with the
    ``vandermonde_weights`` c_k equals P_{a,b} plus a multiple of P_{m,0},
    which lies in every group ideal (m is even for Sp).  The expression has
    at most m single-factor terms.
    """
    n = group.rank
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 and a + b >= 1")
    m = a + b
    if group.kind in ("U", "SU"):
        if m > n:
            raise ValueError(f"total degree a + b = {m} exceeds the rank {n} for {group.kind}({n})")
    else:
        if m % 2:
            raise ValueError("odd total degree is not signed-invariant")
        cap = SP_DEGREE_FACTOR * n if max_degree is None else max_degree
        if m > cap:
            raise ValueError(f"total degree a + b = {m} exceeds the configured cap {cap} for Sp({n})")

    ideal = ideal_for_group(group)
    if b == 0:
        # P_{a,0} is a positive-degree invariant of the x-family alone,
        # hence lies in the ideal for every group kind.
        return DecompositionResult.create(group, a, b, GeneratorExpr.zero(), ideal)

    expr = GeneratorExpr(tuple((c, ((k, m),)) for k, c in vandermonde_weights(m, b).items()))
    return DecompositionResult.create(group, a, b, expr, ideal)


# ---------------------------------------------------------------------------
# formal sums over opaque commuting symbols
# ---------------------------------------------------------------------------


class FormalSum:
    """An exact linear combination of products of opaque commuting symbols.

    Symbols are arbitrary hashable tuples; a term's key is the sorted tuple
    of its symbols, so multiplication is commutative by construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction] | None = None):
        clean: dict[tuple, Fraction] = {}
        for key, coeff in (terms or {}).items():
            c = Fraction(coeff)
            if c:
                clean[tuple(sorted(key))] = clean.get(tuple(sorted(key)), Fraction(0)) + c
        self.terms = {k: c for k, c in clean.items() if c}

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def one(cls) -> "FormalSum":
        return cls({(): Fraction(1)})

    @classmethod
    def symbol(cls, sym: tuple, coeff: Fraction | int = 1) -> "FormalSum":
        return cls({(sym,): Fraction(coeff)})

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + c
        return FormalSum(out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        out: dict[tuple, Fraction] = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                key = tuple(sorted(ka + kb))
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return FormalSum(out)

    def scale(self, value: Fraction | int) -> "FormalSum":
        c = Fraction(value)
        return FormalSum({k: c * v for k, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items()):
            body = "*".join("_".join(str(p) for p in sym) for sym in key) or "1"
            parts.append(f"{coeff}*{body}")
        return " + ".join(parts)


def p_symbol(a: int, b: int) -> tuple:
    return ("P", a, b)


def expand_power_symbols(fs: FormalSum, n: int) -> Polynomial:
    """Expand symbols ("P", a, b) into honest rank-n power sums."""
    acc = Polynomial.zero(n)
    for key, coeff in fs.terms.items():
        term = Polynomial.constant(n, coeff)
        for sym in key:
            tag, a, b = sym
            if tag != "P":
                raise ValueError(f"cannot expand symbol {sym!r} as a power sum")
            term = term * two_var_power_sum(a, b, n)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# signed symmetrization in terms of even power sums
# ---------------------------------------------------------------------------


def mu_generate(I: Sequence[int], J: Sequence[int], n: int) -> FormalSum:
    """Express the Sp-symmetrization of x^I y^J in the even power sums.

    Requires an even index pair and support of size at most n.  The result
    expands exactly (not merely mod an ideal) to symmetrize(x^I y^J, Sp(n)).
    """
    if parity(I, J) == "odd":
        raise ValueError("odd multi-indices symmetrize to zero and have no expansion")
    pattern = tuple(sorted(((i, j) for i, j in zip(I, J) if i or j), reverse=True))
    if len(pattern) > n:
        raise ValueError(f"support size {len(pattern)} exceeds the rank {n}")
    return _mu_pattern(pattern, n)


@lru_cache(maxsize=None)
def _mu_pattern(pattern: tuple[tuple[int, int], ...], n: int) -> FormalSum:
    p = len(pattern)
    if p == 0:
        return FormalSum.one()
    head, rest = pattern[0], pattern[1:]
    a, b = head
    if p == 1:
        return FormalSum.symbol(p_symbol(a, b), Fraction(1, n))
    head_sum = FormalSum.symbol(p_symbol(a, b))
    acc = head_sum * _mu_pattern(rest, n)
    for r in range(len(rest)):
        bumped = list(rest)
        bumped[r] = (rest[r][0] + a, rest[r][1] + b)
        acc = acc - _mu_pattern(tuple(sorted(bumped, reverse=True)), n)
    return acc.scale(Fraction(1, n - p + 1))


# ---------------------------------------------------------------------------
# rewriting decompositions as polynomials in sigma_i of curvatures
# ---------------------------------------------------------------------------


def sigma_symbol(i: int, k: int) -> tuple:
    """The symbol sigma_i evaluated on the curvature of the k-th associated bundle."""
    return ("sigma", i, k)


def curvature_sigma_form(expr: GeneratorExpr, n: int) -> FormalSum:
    """Rewrite each factor Phi^k(iota(p_m)) as p_m in the sigma-basis at level k.

    The result is a formal polynomial in the symbols sigma_i^(k); on an
    actual structure these evaluate to the elementary invariant polynomials
    of the k-th associated curvature.
    """
    out = FormalSum.zero()
    for coeff, factors in expr.terms:
        term = FormalSum.one().scale(coeff)
        for k, m in factors:
            sig = newton_convert(Polynomial.variable("x", m, max(n, m)))
            fs = FormalSum.zero()
            for exps, c in sig.terms.items():
                symbols: list[tuple] = []
                for i in range(sig.rank):
                    symbols.extend([sigma_symbol(i + 1, k)] * exps[i])
                fs = fs + FormalSum({tuple(sorted(symbols)): c})
            term = term * fs
        out = out + term
    return out
