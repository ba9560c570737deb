"""Batch command-line front end with reproducible JSON job reports.

Subcommands: decompose, verify, chern2, powermap, normalform.  Each
``cmd_*`` returns ``(inputs, outputs, ok)``; ``main`` builds the one report
envelope around them.  Re-running the echoed command reproduces the report
byte-identically (``elapsed_seconds`` is informational and excluded).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from math import comb
from operator import mul
from typing import Iterable

from . import __version__, chernweil
from .generators import admissible_degrees, decompose, iota, mu_expansion, power_map
from .groebner import ideal_for_group, normal_form
from .polyring import (
    FAMILIES,
    Polynomial,
    polynomial_from_dict,
    polynomial_to_dict,
    power_sum,
    two_var_power_sum,
    unit_keys,
)
from .weyl import GroupSpec, WeylElement, act, symmetrize

MAX_RANK = {"U": 6, "SU": 6, "Sp": 4}
#: Largest rank of a polynomial file (powermap, normalform).
MAX_FILE_RANK = max(MAX_RANK.values())
MAX_DEGREE = 12
MAX_GRID = 256
#: Largest --cases of verify: 10,000 cases take 2-3 s on a 2-core VM.
MAX_CASES = 100_000
VERIFY_SEED = 20260809
#: Bound on each check of a chern2 verdict: the halved-grid error
#: estimate, the distance to the nearest integer and to the reference.
CHERN_TOL = 1e-3


def _check_out(out: str) -> None:
    """Reject an --out path that cannot become a file, before any work runs."""
    if out == "-":
        return
    if not out:
        raise ValueError("--out '' is not a file name")
    if os.path.isdir(out):
        raise ValueError(f"--out {out!r} is a directory")
    parent = os.path.dirname(out) or "."
    if not os.path.isdir(parent):
        raise ValueError(f"--out {out!r}: directory {parent!r} does not exist")


def _write_report(report: dict, out: str | None) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _group(args) -> GroupSpec:
    spec = GroupSpec(args.group, args.rank)
    if spec.rank > MAX_RANK[spec.kind]:
        raise ValueError(f"rank {spec.rank} exceeds the cap {MAX_RANK[spec.kind]} for {spec.kind}")
    return spec


def cmd_decompose(args) -> tuple[dict, dict, bool]:
    spec = _group(args)
    result = decompose(spec, args.a, args.b)
    return ({"group": spec.kind, "rank": spec.rank, "a": args.a, "b": args.b},
            result.to_dict(), True)


def _multi_indices(length: int, budget: int):
    """Tuples of ``length`` nonnegative integers with sum at most ``budget``, lexicographically."""
    if length == 0:
        yield ()
        return
    for first in range(budget + 1):
        for rest in _multi_indices(length - 1, budget - first):
            yield (first, *rest)


#: Common denominator of verify's random coefficients, whose denominators are 1-3.
_RAND_DEN = 6


def _rand_poly(rng: random.Random, rank: int, families: str = "xy") -> Polynomial:
    """A random test polynomial of ``verify``: three terms in the variables of ``families``.

    A term keeps each of three random variables with probability 0.7 and
    has the coefficient randint(-4, 4) / randint(1, 3); a repeated
    monomial keeps the last coefficient.  The draws are those of the
    calls ``choice``, ``randrange``, ``random`` and ``randint``, in that
    order.  Each integer draw below m runs the rejection loop through
    which CPython's calls draw (``Random._randbelow_with_getrandbits``):
    ``getrandbits(m.bit_length())`` again while the result is at least m.
    """
    bits, uniform = rng.getrandbits, rng.random
    units = unit_keys(rank)
    offsets = [FAMILIES.index(f) * rank for f in families]
    nf = len(offsets)
    kf, kr = nf.bit_length(), rank.bit_length()
    num: dict[int, int] = {}
    for _ in range(3):
        key = 0  # packed monomial: the key of a product is the sum of the keys
        for _ in range(3):
            f = bits(kf)
            while f >= nf:
                f = bits(kf)
            i = bits(kr)
            while i >= rank:
                i = bits(kr)
            if uniform() < 0.7:
                key += units[offsets[f] + i]
        c = bits(4)  # randint(-4, 4): 9 values
        while c >= 9:
            c = bits(4)
        d = bits(2)  # randint(1, 3): 3 values
        while d >= 3:
            d = bits(2)
        num[key] = (c - 4) * (_RAND_DEN // (d + 1))
    return Polynomial._trusted(rank, num, _RAND_DEN)


def _law(name: str, results: Iterable[bool]) -> dict:
    """One law's report entry from ``results``, one verdict per case.

    ``results`` is read only up to its first failing case, and ``cases``
    counts the cases read, so a failing law reports where it stopped.
    """
    cases = 0
    for ok in results:
        cases += 1
        if not ok:
            return {"name": name, "cases": cases, "ok": False}
    return {"name": name, "cases": cases, "ok": True}


#: The power-map degrees ``verify`` draws from.
_NONZERO_K = [c for c in range(-4, 5) if c]


def _verify_properties(spec: GroupSpec, max_degree: int, cases: int) -> list[dict]:
    rng = random.Random(VERIFY_SEED)
    n = spec.rank
    ideal = ideal_for_group(spec)

    def ring(p, q, s):
        return (p + q) * s == p * s + q * s and p * q == q * p

    def homomorphism():
        p, q = _rand_poly(rng, n, "z"), _rand_poly(rng, n, "z")
        ip, iq = iota(p), iota(q)
        if iota(p * q) != ip * iq or iota(p + q) != ip + iq:
            return False
        k = rng.choice(_NONZERO_K)
        u, v = _rand_poly(rng, n), _rand_poly(rng, n)
        return power_map(k, u * v) == power_map(k, u) * power_map(k, v)

    def composition(k, l, u):
        return power_map(k, power_map(l, u)) == power_map(k * l, u)

    def eigenvalue():
        for a in range(max_degree + 1):
            for b in range(0 if a else 1, max_degree + 1 - a):  # a + b >= 1
                p_ab = two_var_power_sum(a, b, n)
                for k in (-3, -1, 2, 3):
                    yield power_map(k, p_ab) == p_ab.scale(Fraction(k) ** b)

    # Both degree loops run over the degrees decompose admits: for Sp only even
    # power sums die in the ideal, so the binomial identity is even-degree there.
    degrees = [m for m in admissible_degrees(spec) if m <= max_degree]

    def binomial(m):
        rhs = Polynomial.linear_combination(
            n, ((comb(m, j), two_var_power_sum(m - j, j, n)) for j in range(1, m + 1)))
        return normal_form(iota(power_sum(m, n, "z")), ideal) == normal_form(rhs, ideal)

    # Each side of the law is certified without the orbit code: an odd pair
    # is negated by the sign flip of an odd column, so its Reynolds average
    # is zero; an even pair must match the paper's mu recursion exactly.
    flips = [WeylElement(tuple(range(1, n + 1)), tuple(-1 if k == j else 1 for k in range(n)))
             for j in range(n)]
    units = unit_keys(n)

    def mu(exps):
        I, J = exps[:n], exps[n:]
        # x^I y^J: cmd_verify caps its degree at MAX_DEGREE, far below MAX_BLOCK_DEGREE.
        mono = Polynomial._trusted(n, {sum(map(mul, exps, units)): 1})
        sym = symmetrize(mono, spec)
        odd = [k for k in range(n) if (I[k] + J[k]) % 2]
        if odd:
            return sym.is_zero() and act(flips[odd[0]], mono) == -mono
        return (not sym.is_zero() and all(c > 0 for c in sym.num.values())
                and sym == mu_expansion(I, J, n))

    properties = [
        _law("ring_laws", (ring(_rand_poly(rng, n), _rand_poly(rng, n), _rand_poly(rng, n))
                           for _ in range(cases))),
        _law("homomorphism_laws", (homomorphism() for _ in range(cases))),
        _law("power_map_composition",
             (composition(rng.choice(_NONZERO_K), rng.choice(_NONZERO_K), _rand_poly(rng, n))
              for _ in range(cases))),
        _law("power_map_eigenvalue", eigenvalue()),
        _law("binomial_identity", map(binomial, degrees)),
    ]
    if spec.kind == "Sp":
        properties.append(_law("mu_vanishing_and_positivity",
                               map(mu, filter(any, _multi_indices(2 * n, max_degree)))))

    # decompose raises on a failed certificate, so a sweep that returns passed.
    for m in degrees:
        for b in range(m + 1):
            decompose(spec, m - b, b)
    properties.append({"name": "certification_sweep",
                       "cases": sum(m + 1 for m in degrees), "ok": True})
    return properties


def cmd_verify(args) -> tuple[dict, dict, bool]:
    spec = _group(args)
    # The smallest degree at which every law has a case.
    low = admissible_degrees(spec)[0]
    if not low <= args.max_degree <= MAX_DEGREE:
        raise ValueError(f"max degree {args.max_degree} outside the supported range "
                         f"[{low}, {MAX_DEGREE}] for {spec.kind}")
    if args.cases < 1:
        raise ValueError(f"--cases must be at least 1, got {args.cases}")
    if args.cases > MAX_CASES:
        raise ValueError(f"--cases {args.cases} exceeds the cap {MAX_CASES}")
    properties = _verify_properties(spec, args.max_degree, args.cases)
    return ({"group": spec.kind, "rank": spec.rank, "max_degree": args.max_degree,
             "cases": args.cases},
            {"properties": properties}, all(p["ok"] for p in properties))


def cmd_chern2(args) -> tuple[dict, dict, bool]:
    sizes = {axis: args.grid if size is None else size
             for axis, size in (("alpha", args.grid_alpha), ("beta", args.grid_beta),
                                ("r", args.grid_r))}
    for axis, size in sizes.items():
        if not 16 <= size <= MAX_GRID:
            raise ValueError(f"{axis}-axis grid size {size} outside the supported range [16, {MAX_GRID}]")
    if sizes["beta"] % 2:
        raise ValueError(f"beta-axis grid size {sizes['beta']} must be even")
    phi, reference = chernweil.clutching_example(args.example)
    grid = chernweil.QuadratureGrid.make(sizes["alpha"], sizes["beta"], sizes["r"])
    fine = chernweil.hemisphere_difference(phi, grid, degree=args.degree)
    coarse = chernweil.hemisphere_difference(phi, grid.halved())
    value = fine.integral / math.pi ** 2
    error_estimate = abs(value - coarse.integral / math.pi ** 2)
    outputs = {
        "example": args.example,
        "grid": grid.counts(),
        "integral_J1_plus_J2": fine.integral,
        "c2": value,
        "reference": reference,
        "error_estimate": error_estimate,
        "converged": bool(error_estimate < CHERN_TOL),
        "quadrature": {"nodes": fine.nodes + coarse.nodes, "chunks": fine.chunks + coarse.chunks},
    }
    if args.degree:
        outputs["mapping_degree"] = fine.degree
    ok = (outputs["converged"]
          and abs(value - round(value)) < CHERN_TOL
          and (reference is None or abs(value - reference) < CHERN_TOL))
    return {"example": args.example, "grid": grid.counts()}, outputs, ok


def _read_polynomial(path: str) -> Polynomial:
    """A polynomial JSON file; a rank above MAX_FILE_RANK is rejected before any term is built.

    ``polynomial_from_dict`` rejects a term of total degree above
    ``polyring.MAX_FILE_DEGREE`` in the same way.
    """
    with open(path) as fh:
        data = json.load(fh)
    rank = data.get("rank") if isinstance(data, dict) else None
    if isinstance(rank, int) and rank > MAX_FILE_RANK:
        raise ValueError(f"polynomial rank {rank} exceeds the cap {MAX_FILE_RANK}")
    return polynomial_from_dict(data)


def cmd_powermap(args) -> tuple[dict, dict, bool]:
    result = power_map(args.k, _read_polynomial(args.infile))
    return {"k": args.k, "in": args.infile}, polynomial_to_dict(result), True


def cmd_normalform(args) -> tuple[dict, dict, bool]:
    spec = _group(args)
    reduced = normal_form(_read_polynomial(args.infile), ideal_for_group(spec))
    return ({"group": spec.kind, "rank": spec.rank, "in": args.infile},
            polynomial_to_dict(reduced), True)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and shared after.

    It holds no handler: ``main`` looks up ``cmd_<subcommand>`` in this
    module on each call, so a rebinding of a ``cmd_*`` name takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="tcclasses",
        description="Decompose transitionally commutative characteristic classes "
                    "and evaluate second Chern numbers of SU(2) clutching data.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_group_args(p):
        p.add_argument("--group", required=True, choices=["U", "SU", "Sp"])
        p.add_argument("--rank", required=True, type=int)

    p = sub.add_parser("decompose", help="certified generator decomposition of P_{a,b}(n)")
    add_group_args(p)
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", required=True, type=int)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="run the invariant property suites at a given scale")
    add_group_args(p)
    p.add_argument("--max-degree", required=True, type=int, dest="max_degree")
    p.add_argument("--cases", type=int, default=200, help="randomized cases per law")
    p.add_argument("--out", default="-")

    p = sub.add_parser("chern2", help="quadrature of the second Chern number of a clutching example")
    p.add_argument("--example", required=True,
                   help="one of: paper, constant, qpow:<d>")
    p.add_argument("--grid", type=int, default=96, help="nodes per axis")
    p.add_argument("--grid-alpha", type=int, dest="grid_alpha")
    p.add_argument("--grid-beta", type=int, dest="grid_beta")
    p.add_argument("--grid-r", type=int, dest="grid_r")
    p.add_argument("--degree", action="store_true",
                   help="also report the mapping-degree oracle")
    p.add_argument("--out", default="-")

    p = sub.add_parser("powermap", help="apply the k-th power map to a polynomial JSON file")
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", default="-")

    p = sub.add_parser("normalform", help="reduce a polynomial JSON file mod a group ideal")
    add_group_args(p)
    p.add_argument("--in", required=True, dest="infile")
    p.add_argument("--out", default="-")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one job and write its report; exit code 0 exactly when ``ok``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        _check_out(args.out)
        started = time.perf_counter()
        inputs, outputs, ok = globals()[f"cmd_{args.subcommand}"](args)
        _write_report({
            "command": args.subcommand,
            "argv": argv,
            "tool_version": __version__,
            "inputs": inputs,
            "outputs": outputs,
            "ok": ok,
            "elapsed_seconds": time.perf_counter() - started,
        }, args.out)
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
