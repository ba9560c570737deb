"""The power-map generator calculus.

This module realizes the two ring maps that generate everything:

- ``iota``:  z_i -> x_i + y_i   (restriction from the ambient classifying space)
- ``power_map(k)``:  x_i -> x_i, y_i -> k y_i   (the k-th power map)

together with the Vandermonde solve that expresses every two-family power
sum P_{a,b}(n) = sum_i x_i^a y_i^b, modulo the group's coinvariant ideal,
as a rational combination of symbols Phi^k(iota(p_m)).  A formal
combination of such symbols is a GeneratorExpr.  ``DecompositionResult``
certifies each one without a Groebner basis, by exact identities in the
ideal's defining generators (Newton's identity).

For the symplectic group the signed symmetrization mu is generated from
the even power sums by an explicit support recursion (``mu_generate``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, product
from math import comb, prod
from operator import mul, or_, sub
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .groebner import group_ideal_generators
from .polyring import (Polynomial, _coeff_string, _degree_masks, decode, degree_in, newton_convert,
                       power_sum, two_var_power_sum, unit_keys)
from .weyl import GroupSpec, parity


def iota(p: Polynomial) -> Polynomial:
    """The restriction homomorphism z_i -> x_i + y_i on a z-only polynomial.

    Each term expands by (x_i + y_i)^e = sum_j C(e, j) x_i^(e-j) y_i^j.  A
    monomial x^A y^B comes only from z^(A+B), so no two terms collide.
    """
    n = p.rank
    # A block degree of the OR of the keys is nonzero iff it is in some key.
    (_, x_mask), (_, y_mask), _ = _degree_masks(n)
    if reduce(or_, p.num, 0) & (x_mask | y_mask):
        foreign = p.families_used() - {"z"}
        raise ValueError(f"iota expects a polynomial in the z-family only, found {sorted(foreign)}")
    out: dict[int, int] = {}
    for m, coeff in p.num.items():
        for key, binomial in _iota_expansion(m, n):
            out[key] = coeff * binomial
    return Polynomial._trusted(n, out, p.den)


@lru_cache(maxsize=None)
def _iota_expansion(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """iota of the rank-n z-monomial with key ``m``: (key of x^(z-j) y^j, C(z, j)) per j <= z.

    Keys are linear in the exponents, so the key of x^(z-j) y^j is that of
    x^z plus j_i times (key of y_i - key of x_i) for each i.
    """
    z = decode(m, n)[2 * n:]
    units = unit_keys(n)
    x_key = sum(map(mul, z, units[:n]))
    moves = list(map(sub, units[n:2 * n], units[:n]))
    return tuple((x_key + sum(map(mul, ys, moves)), prod(map(comb, z, ys)))
                 for ys in product(*(range(e + 1) for e in z)))


def power_map(k: int, p: Polynomial) -> Polynomial:
    """The k-th power map on the two-family ring: scales each term by k^(y-degree)."""
    n = p.rank
    _, _, (_, z_mask) = _degree_masks(n)
    if reduce(or_, p.num, 0) & z_mask:
        raise ValueError("power maps act on the (x, y)-families; z-variables are not allowed")
    y_degree = degree_in("y", n)
    num = {m: coeff * k ** y_degree(m) for m, coeff in p.num.items()}
    return Polynomial._trusted(n, num, p.den)


def torus_power_map(k: int, p: Polynomial) -> Polynomial:
    """The torus power map: every variable of the (single) family scales by k."""
    used = p.families_used()
    if len(used) > 1:
        raise ValueError("the torus power map acts on a single variable family")
    degree = degree_in(used.pop() if used else "x", p.rank)
    num = {m: coeff * k ** degree(m) for m, coeff in p.num.items()}
    return Polynomial._trusted(p.rank, num, p.den)


# ---------------------------------------------------------------------------
# formal sums over commuting symbols
# ---------------------------------------------------------------------------


class FormalSum:
    """An exact linear combination of products of opaque commuting symbols.

    Symbols are arbitrary hashable tuples; a term's key is the sorted tuple
    of its symbols, so multiplication is commutative by construction.
    Values are immutable: every operation returns a new sum.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, Fraction | int] | Iterable[tuple] = ()):
        """Sort each key, merge like terms and drop zero coefficients."""
        merged: dict[tuple, Fraction] = {}
        for key, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            key = tuple(sorted(map(self._symbol, key)))
            merged[key] = merged.get(key, 0) + Fraction(coeff)
        object.__setattr__(self, "terms", {k: c for k, c in merged.items() if c})

    @staticmethod
    def _symbol(sym: tuple) -> tuple:  # subclasses check the symbols they accept
        return sym

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def zero(cls) -> "FormalSum":
        return cls()

    @classmethod
    def one(cls) -> "FormalSum":
        return cls({(): 1})

    @classmethod
    def symbol(cls, sym: tuple, coeff: Fraction | int = 1) -> "FormalSum":
        return cls({(sym,): coeff})

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return type(self)(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def __mul__(self, other: "FormalSum") -> "FormalSum":
        return type(self)((ka + kb, ca * cb) for ka, ca in self.terms.items()
                          for kb, cb in other.terms.items())

    def scale(self, value: Fraction | int) -> "FormalSum":
        c = Fraction(value)
        return type(self)((k, c * v) for k, v in self.terms.items())

    def expand(self, image: Callable[[tuple], Any], one: Any) -> Any:
        """Sum of coeff * prod image(sym) over the terms, in the commutative ring with unit ``one``."""
        acc = one.scale(0)
        for key, coeff in self.terms.items():
            term = one.scale(coeff)
            for sym in key:
                term = term * image(sym)
            acc = acc + term
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalSum) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.terms!r})"


Factor = tuple[int, int]  # (k, m) denoting the symbol Phi^k(iota(p_m))


@lru_cache(maxsize=None)
def _factor_polynomial(k: int, m: int, n: int) -> Polynomial:
    return power_map(k, iota(power_sum(m, n, "z")))


class GeneratorExpr(FormalSum):
    """A linear combination of products of symbols Phi^k(iota(p_m)), each a factor (k, m)."""

    __slots__ = ()

    @staticmethod
    def _symbol(sym: Factor) -> Factor:
        k, m = sym
        if k == 0:
            raise ValueError("power-map exponent k must be nonzero in a generator symbol")
        if m < 1:
            raise ValueError("power-sum index m must be positive")
        return sym

    @classmethod
    def single(cls, k: int, m: int, coeff: Fraction | int = 1) -> "GeneratorExpr":
        return cls.symbol((k, m), coeff)

    def evaluate(self, n: int) -> Polynomial:
        """Expand into the rank-n polynomial sum coeff * prod Phi^k(iota(p_m)).

        Power sums p_m are defined at every rank, also for m > n (the
        symplectic decompositions use even m up to 2n).
        """
        if n < 1:
            raise ValueError("rank must be positive")
        return self.expand(lambda factor: _factor_polynomial(*factor, n), Polynomial.one(n))

    def to_dict(self) -> dict:
        return {"terms": [
            {"coeff": _coeff_string(c),
             "factors": [{"k": k, "m": m} for k, m in factors]}
            for factors, c in sorted(self.terms.items())]}


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


@lru_cache(maxsize=None)
def _power_sum_in_ideal(group: GroupSpec, m: int) -> Polynomial:
    """p_m(x) as a combination of ``group_ideal_generators(group)``, expanded.

    For SU, p_m(x) is the m-th generator.  For U (e_i(x), k = m) and Sp
    (e_i(x^2), k = m/2) Newton's identity p_k = sum_{i<k} (-1)^(i-1) e_i
    p_{k-i} + (-1)^(k-1) k e_k, with e_i = 0 for i > n, gives each cofactor
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I.2).
    """
    gens = group_ideal_generators(group)
    if group.kind == "SU":
        return gens[m - 1]
    n, step = group.rank, (2 if group.kind == "Sp" else 1)
    k = m // step
    acc = Polynomial.zero(n)
    for i in range(1, min(k, n) + 1):
        cofactor = power_sum(step * (k - i), n, "x") if i < k else Polynomial.constant(n, k)
        acc = acc + (gens[i - 1] * cofactor).scale((-1) ** (i - 1))
    return acc


class _Decomposition(NamedTuple):
    group: GroupSpec
    a: int
    b: int
    expr: GeneratorExpr


class DecompositionResult(_Decomposition):
    """A certified expression of P_{a,b}(n) in the power-map generators."""

    __slots__ = ()

    @classmethod
    def create(cls, group: GroupSpec, a: int, b: int,
               expr: GeneratorExpr) -> "DecompositionResult":
        """Certify that ``expr`` evaluates to P_{a,b} modulo the group ideal.

        The residual must be c * p_m(x) (m = a + b) term by term, and for
        c != 0 p_m(x) must equal its combination of the defining generators.
        """
        n, m = group.rank, a + b
        p_m = power_sum(m, n, "x")
        residual = expr.evaluate(n) - two_var_power_sum(a, b, n)
        c = Fraction(residual.num.get(m * unit_keys(n)[0], 0), residual.den)  # at x_1^m
        if residual != p_m.scale(c) or (c and _power_sum_in_ideal(group, m) != p_m):
            raise RuntimeError(f"internal error: decomposition of P_{{{a},{b}}}({n}) "
                               f"for {group.kind}({n}) failed certification")
        return cls(group, a, b, expr)

    def to_dict(self) -> dict:
        data = self.expr.to_dict()
        data["target"] = {"group": self.group.kind, "rank": self.group.rank,
                          "a": self.a, "b": self.b}
        data["certified"] = True
        return data


def admissible_degrees(group: GroupSpec) -> range:
    """The total degrees a + b at which P_{a,b}(n) decomposes: 1..n for U(n)
    and SU(n), the even 2..2n for Sp(n) (odd ones are not signed-invariant)."""
    n = group.rank
    return range(2, 2 * n + 1, 2) if group.kind == "Sp" else range(1, n + 1)


def decompose(group: GroupSpec, a: int, b: int) -> DecompositionResult:
    """Express P_{a,b}(n) mod the group ideal in the generators Phi^k(iota(p_m)).

    With m = a + b, iota(p_m) = sum_j C(m, j) P_{m-j,j} exactly, and Phi^k
    scales the j-th component by k^j.  So sum_k c_k Phi^k(iota(p_m)) with the
    ``vandermonde_weights`` c_k equals P_{a,b} plus a multiple of P_{m,0},
    which lies in every group ideal (m is even for Sp).  The expression has
    at most m single-factor terms.  The total degree must be one of the
    ``admissible_degrees`` of the group.
    """
    n = group.rank
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a, b >= 0 and a + b >= 1")
    m = a + b
    degrees = admissible_degrees(group)
    if m not in degrees:
        if m % degrees.step:
            raise ValueError("odd total degree is not signed-invariant")
        bound = "cap" if group.kind == "Sp" else "rank"
        raise ValueError(f"total degree a + b = {m} exceeds the {bound} {degrees[-1]} "
                         f"for {group.kind}({n})")

    # For b = 0 the target P_{m,0} = p_m(x) is itself in the ideal.
    weights = vandermonde_weights(m, b) if b else {}
    expr = GeneratorExpr({((k, m),): c for k, c in weights.items()})
    return DecompositionResult.create(group, a, b, expr)


# ---------------------------------------------------------------------------
# signed symmetrization in terms of even power sums
# ---------------------------------------------------------------------------


def p_symbol(a: int, b: int) -> tuple:
    return ("P", a, b)


def expand_power_symbols(fs: FormalSum, n: int) -> Polynomial:
    """Expand symbols ("P", a, b) into honest rank-n power sums."""

    def image(sym: tuple) -> Polynomial:
        tag, a, b = sym
        if tag != "P":
            raise ValueError(f"cannot expand symbol {sym!r} as a power sum")
        return two_var_power_sum(a, b, n)

    return fs.expand(image, Polynomial.one(n))


def _support_pattern(I: Sequence[int], J: Sequence[int], n: int) -> tuple[tuple[int, int], ...]:
    """The nonzero columns (i_k, j_k) of an even index pair, in decreasing order."""
    if parity(I, J) == "odd":
        raise ValueError("odd multi-indices symmetrize to zero and have no expansion")
    pattern = tuple(sorted(((i, j) for i, j in zip(I, J) if i or j), reverse=True))
    if len(pattern) > n:
        raise ValueError(f"support size {len(pattern)} exceeds the rank {n}")
    return pattern


def mu_generate(I: Sequence[int], J: Sequence[int], n: int) -> FormalSum:
    """Express the Sp-symmetrization of x^I y^J in the even power sums.

    Requires an even index pair and support of size at most n.  The result
    expands exactly (not merely mod an ideal) to symmetrize(x^I y^J, Sp(n)).
    """
    return _mu_pattern(_support_pattern(I, J, n), n)


def mu_expansion(I: Sequence[int], J: Sequence[int], n: int) -> Polynomial:
    """``expand_power_symbols(mu_generate(I, J, n), n)``, expanded once per support pattern."""
    return _expand_mu_pattern(_support_pattern(I, J, n), n)


@lru_cache(maxsize=None)
def _expand_mu_pattern(pattern: tuple[tuple[int, int], ...], n: int) -> Polynomial:
    return expand_power_symbols(_mu_pattern(pattern, n), n)


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

    def image(factor: Factor) -> FormalSum:
        k, m = factor
        sig = newton_convert(Polynomial.variable("x", m, max(n, m)))
        return FormalSum((tuple(sigma_symbol(i + 1, k) for i in range(sig.rank)
                                for _ in range(exps[i])), c)
                         for exps, c in sig.terms.items())

    return expr.expand(image, FormalSum.one())
