"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Exact criteria compare term maps (zero tolerance); numeric
criteria use the tolerances quoted inline.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from tcclasses.chernweil import (
    ClutchingFunction,
    QuadratureGrid,
    build_clutching_pair,
    build_example_cocycles,
    chern2,
    f2_moment,
    hemisphere_difference,
    mapping_degree,
    quaternion_power_clutching,
    standard_profile,
)
from tcclasses.cli import main
from tcclasses.generators import (
    GeneratorExpr,
    a_recursion,
    a_recursion_pivot,
    curvature_sigma_form,
    decompose,
    expand_power_symbols,
    iota,
    mu_generate,
    power_map,
    sigma_symbol,
)
from tcclasses.generators import FormalSum
from tcclasses.groebner import equal_mod_ideal, ideal_for_group, normal_form
from tcclasses.polyring import Polynomial, power_sum, two_var_power_sum
from tcclasses.weyl import GroupSpec, parity, symmetrize
from conftest import monomial, random_polynomial


@contextmanager
def stopwatch(limit_seconds):
    start = time.perf_counter()
    box = {}
    yield box
    box["elapsed"] = time.perf_counter() - start
    assert box["elapsed"] < limit_seconds, f"runtime {box['elapsed']:.2f}s exceeds {limit_seconds}s"


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} {detail}")
    assert ok


def test_criterion_01_rank2_identities():
    """Rank-2 identities, exact, under 1 second."""
    with stopwatch(1.0) as timer:
        ideal = ideal_for_group(GroupSpec("U", 2))
        ip1 = iota(power_sum(1, 2, "z"))
        ip2 = iota(power_sum(2, 2, "z"))
        ok_i = equal_mod_ideal(ip1, two_var_power_sum(0, 1, 2), ideal)
        sym = (ip2 + power_map(-1, ip2)).scale(Fraction(1, 2))
        ok_ii = equal_mod_ideal(sym, two_var_power_sum(0, 2, 2), ideal)
        anti = (ip2 - power_map(-1, ip2)).scale(Fraction(1, 4))
        ok_iii = equal_mod_ideal(anti, two_var_power_sum(1, 1, 2), ideal)
        # form (iii) is also (iota(p2) - P_{0,2})/2 after substitution
        ok_iii_alt = equal_mod_ideal((ip2 - two_var_power_sum(0, 2, 2)).scale(Fraction(1, 2)),
                                     two_var_power_sum(1, 1, 2), ideal)
    report(1, ok_i and ok_ii and ok_iii and ok_iii_alt,
           f"({timer['elapsed']:.3f}s)")


def test_criterion_02_rank3_identities():
    """Rank-3 identities, exact, under 2 seconds.

    The displayed pivot relation for P_{0,3} carries a typo in its source
    (the printed coefficients 8 and 6 contradict the recursion that produces
    it); the relation actually implied, 6 P_{0,3} = Phi^2(B) - 2 B with
    B = iota(p_3) - 3 P_{1,2}, is asserted here and double-checked against
    the closed-form pivot route.
    """
    with stopwatch(2.0) as timer:
        n = 3
        ideal = ideal_for_group(GroupSpec("U", n))
        ip2 = iota(power_sum(2, n, "z"))
        ip3 = iota(power_sum(3, n, "z"))
        P = {(a, b): two_var_power_sum(a, b, n) for a in range(4) for b in range(4) if 1 <= a + b <= 3}

        checks = [
            equal_mod_ideal(iota(power_sum(1, n, "z")), P[(0, 1)], ideal),
            equal_mod_ideal((ip2 + power_map(-1, ip2)).scale(Fraction(1, 2)), P[(0, 2)], ideal),
            equal_mod_ideal((ip2 - P[(0, 2)]).scale(Fraction(1, 2)), P[(1, 1)], ideal),
            equal_mod_ideal((ip3 + power_map(-1, ip3)).scale(Fraction(1, 6)), P[(1, 2)], ideal),
        ]
        b_poly = ip3 - P[(1, 2)].scale(3)
        checks.append(equal_mod_ideal(power_map(2, b_poly) - b_poly.scale(2),
                                      P[(0, 3)].scale(6), ideal))
        pivot_route = a_recursion(3, 3)[-1].scale(Fraction(1, a_recursion_pivot(3)))
        checks.append(equal_mod_ideal(pivot_route, P[(0, 3)], ideal))
        checks.append(equal_mod_ideal((ip3 - P[(1, 2)].scale(3) - P[(0, 3)]).scale(Fraction(1, 3)),
                                      P[(2, 1)], ideal))
    report(2, all(checks), f"({timer['elapsed']:.3f}s)")


def test_criterion_03_decomposition_sweep(tmp_path):
    """Certified sweeps through the CLI decompose entry point, under 60 s."""
    jobs = []
    for kind in ("U", "SU"):
        for n in range(1, 5):
            for total in range(1, n + 1):
                for b in range(0, total + 1):
                    jobs.append((kind, n, total - b, b))
    for n in range(1, 4):
        for total in (2, 4):
            if total > 2 * n:
                continue
            for b in range(0, total + 1):
                jobs.append(("Sp", n, total - b, b))

    with stopwatch(60.0) as timer:
        all_ok = True
        out = tmp_path / "job.json"
        for kind, n, a, b in jobs:
            code = main(["decompose", "--group", kind, "--rank", str(n),
                         "--a", str(a), "--b", str(b), "--out", str(out)])
            payload = json.loads(out.read_text())
            if code != 0 or payload["outputs"]["certified"] is not True:
                all_ok = False
    report(3, all_ok, f"({len(jobs)} jobs, {timer['elapsed']:.2f}s)")


def test_criterion_04_pivot_formula():
    """P_{0,m}(m) equals the inverse pivot times A_{m-1}, exactly."""
    ok = True
    for m in (2, 3, 4):
        ideal = ideal_for_group(GroupSpec("U", m))
        last = a_recursion(m, m)[-1]
        pivot = a_recursion_pivot(m)
        ok &= equal_mod_ideal(last.scale(Fraction(1, pivot)),
                              two_var_power_sum(0, m, m), ideal)
    report(4, ok)


def test_criterion_05_mu_vanishing_exhaustive():
    """Signed symmetrization: odd pairs vanish, even pairs are positive and
    equal the paper's mu recursion expanded in power sums."""
    ok = True
    checked = 0
    for n in (1, 2, 3):
        spec = GroupSpec("Sp", n)
        for exps in product(range(7), repeat=2 * n):
            if not 1 <= sum(exps) <= 6:
                continue
            I, J = exps[:n], exps[n:]
            sym = symmetrize(monomial(n, x=I, y=J), spec)
            checked += 1
            if parity(I, J) == "odd":
                ok &= sym.is_zero()
            else:
                ok &= ((not sym.is_zero()) and all(c > 0 for c in sym.terms.values())
                       and sym == expand_power_symbols(mu_generate(I, J, n), n))
    report(5, ok, f"({checked} monomials)")


def test_criterion_06_property_suites():
    """Randomized law suites, 1000 exact cases each."""
    rng = random.Random(424242)
    cases = 1000

    ring_ok = True
    for _ in range(cases):
        a = random_polynomial(rng, 2, terms=3)
        b = random_polynomial(rng, 2, terms=3)
        c = random_polynomial(rng, 2, terms=3)
        ring_ok &= (a + b) + c == a + (b + c)
        ring_ok &= a * b == b * a
        ring_ok &= a * (b + c) == a * b + a * c

    hom_ok = True
    for _ in range(cases):
        p = random_polynomial(rng, 2, families="z", terms=2, max_degree=3)
        q = random_polynomial(rng, 2, families="z", terms=2, max_degree=3)
        hom_ok &= iota(p * q) == iota(p) * iota(q)
        k = rng.choice([-3, -2, -1, 2, 3])
        u = random_polynomial(rng, 2, families="xy", terms=2)
        v = random_polynomial(rng, 2, families="xy", terms=2)
        hom_ok &= power_map(k, u * v) == power_map(k, u) * power_map(k, v)

    comp_ok = True
    for _ in range(cases):
        k = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        l = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        u = random_polynomial(rng, 2, families="xy", terms=3)
        comp_ok &= power_map(k, power_map(l, u)) == power_map(k * l, u)

    eig_ok = True
    for _ in range(cases):
        n = rng.randint(1, 4)
        a = rng.randint(0, 4)
        b = rng.randint(0, 4 - min(a, 4))
        if a + b < 1:
            a = 1
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        p = two_var_power_sum(a, b, n)
        eig_ok &= power_map(k, p) == p.scale(Fraction(k) ** b)

    binom_ok = True
    for _ in range(cases):
        n = rng.randint(1, 4)
        m = rng.randint(1, n)
        ideal = ideal_for_group(GroupSpec("U", n))
        rhs = Polynomial.zero(n)
        for j in range(1, m + 1):
            rhs = rhs + two_var_power_sum(m - j, j, n).scale(comb(m, j))
        binom_ok &= normal_form(iota(power_sum(m, n, "z")), ideal) == normal_form(rhs, ideal)

    ok = ring_ok and hom_ok and comp_ok and eig_ok and binom_ok
    report(6, ok, f"(5 suites x {cases} cases)")


def test_criterion_07_newton_rewriting():
    """The rank-3 classes reproduce the displayed sigma-formulas exactly."""
    n = 3
    spec = GroupSpec("U", n)
    ideal = ideal_for_group(spec)

    # The displayed forms themselves are certified decompositions.
    first = decompose(spec, 0, 1)
    assert first.expr == GeneratorExpr.single(1, 1)
    symmetric = (GeneratorExpr.single(1, 2, Fraction(1, 2))
                 + GeneratorExpr.single(-1, 2, Fraction(1, 2)))
    antisymmetric = (GeneratorExpr.single(1, 2, Fraction(1, 4))
                     + GeneratorExpr.single(-1, 2, Fraction(-1, 4)))
    assert decompose(spec, 0, 2).expr == symmetric
    assert decompose(spec, 1, 1).expr == antisymmetric
    assert equal_mod_ideal(symmetric.evaluate(n), two_var_power_sum(0, 2, n), ideal)
    assert equal_mod_ideal(antisymmetric.evaluate(n), two_var_power_sum(1, 1, n), ideal)

    s = sigma_symbol
    expected_01 = FormalSum({(s(1, 1),): Fraction(1)})
    expected_02 = FormalSum({(s(1, 1), s(1, 1)): Fraction(1, 2),
                             (s(1, -1), s(1, -1)): Fraction(1, 2),
                             (s(2, 1),): Fraction(-1),
                             (s(2, -1),): Fraction(-1)})
    expected_11 = FormalSum({(s(1, 1), s(1, 1)): Fraction(1, 4),
                             (s(1, -1), s(1, -1)): Fraction(-1, 4),
                             (s(2, -1),): Fraction(1, 2),
                             (s(2, 1),): Fraction(-1, 2)})
    ok = (curvature_sigma_form(first.expr, n) == expected_01
          and curvature_sigma_form(symmetric, n) == expected_02
          and curvature_sigma_form(antisymmetric, n) == expected_11)
    report(7, ok)


def test_criterion_08_headline_chern_number(tmp_path):
    """The built-in example integrates to -pi^2 (1%) and c2 = -1 (0.02), converged."""
    out = tmp_path / "chern.json"
    with stopwatch(60.0) as timer:
        code = main(["chern2", "--example", "paper", "--grid", "192", "--out", str(out)])
    payload = json.loads(out.read_text())["outputs"]
    integral = payload["integral_J1_plus_J2"]
    ok = (code == 0
          and abs(integral + math.pi ** 2) <= 0.01 * math.pi ** 2
          and abs(payload["c2"] + 1.0) <= 0.02
          and payload["converged"] is True
          and payload["reference"] == -1.0)
    report(8, ok, f"(c2 = {payload['c2']:.6f}, integral = {integral:.6f}, "
                  f"{timer['elapsed']:.1f}s)")


def test_criterion_09_triviality_controls():
    """Constant and nullhomotopic clutchings vanish; the height moment is -1/6."""
    grid = QuadratureGrid.make(64)
    from tcclasses.chernweil import constant_clutching
    c_const = chern2(constant_clutching(), grid)
    phis = build_clutching_pair(build_example_cocycles())
    c_null = chern2(phis.phi_E, grid)
    moment = f2_moment(standard_profile())
    ok = (abs(c_const) <= 1e-6 and abs(c_null) <= 1e-4
          and abs(moment + 1 / 6) <= 1e-8)
    report(9, ok, f"(constant = {c_const:.2e}, nullhomotopic = {c_null:.2e}, "
                  f"moment = {moment:.10f})")


def test_criterion_10_degree_oracle_cross_check():
    """|c2(qpow:d)| = d within 2%, agreeing with the mapping-degree oracle."""
    grid = QuadratureGrid.make(64)
    ok = True
    details = []
    for d in (1, 2):
        phi = quaternion_power_clutching(d)
        c = chern2(phi, grid)
        deg = mapping_degree(phi, grid)
        ok &= abs(abs(c) - d) <= 0.02 * d
        ok &= abs(abs(deg) - d) <= 0.02 * d
        ok &= abs(abs(c) - abs(deg)) <= 0.02 * d
        details.append(f"d={d}: c2={c:+.4f} deg={deg:+.4f}")
    report(10, ok, "(" + "; ".join(details) + ")")


def test_criterion_11_associated_bundle_chern_numbers(tmp_path):
    """c2 of the k-th associated bundle E^k of the paper's example, as the
    certified SU(2) decompositions predict it from c2(E) and c2(E^-1),
    within 1e-10 of its quadrature: k = -3..3 at 32^3, k = 5 at (16, 96, 96).

    For SU(2), c2 = -p2/2, p2 the power sum of the Chern roots, and
    Phi^k iota(p_2) = sum_j C(2, j) k^j P_{2-j,j}, as iota(p_m) =
    sum_j C(m, j) P_{m-j,j} and Phi^k scales P_{m-j,j} by k^j.  decompose
    writes each P_{a,b} as a sum of coeff Phi^k iota(p_2) terms, and
    Phi^k iota(p_2) pairs with [S^4] to p2(E^k) = -2 c2(E^k): the quadratures
    of E and E^-1 (``build_clutching_pair``) fix <P_{a,b}, [S^4]>.  E^k is
    clutched by rho1^k rho2^k on the upper chart and (rho1 rho2)^k on the
    lower one, which agree at r = 1, where rho1 and rho2 commute.
    """
    pair = build_example_cocycles()
    phis = build_clutching_pair(pair)
    grid = QuadratureGrid.make(32)
    p2 = {1: -2 * chern2(phis.phi_E, grid), -1: -2 * chern2(phis.phi_Einv, grid)}
    out = tmp_path / "job.json"
    pairing = {}
    for a, b in ((2, 0), (1, 1), (0, 2)):
        assert main(["decompose", "--group", "SU", "--rank", "2", "--a", str(a), "--b", str(b),
                     "--out", str(out)]) == 0
        outputs = json.loads(out.read_text())["outputs"]
        assert outputs["certified"] is True
        pairing[a, b] = 0.0
        for term in outputs["terms"]:
            (factor,) = term["factors"]
            assert factor["m"] == 2
            pairing[a, b] += float(Fraction(term["coeff"])) * p2[factor["k"]]
    ok = True
    details = []
    for k, grid in [*((k, grid) for k in range(-3, 4)), (5, QuadratureGrid.make(16, 96, 96))]:
        phi = ClutchingFunction(pair.rho1.power(k) * pair.rho2.power(k),
                                (pair.rho1 * pair.rho2).power(k))
        # Measured: at most 8.9e-16 for |k| <= 3, 1.1e-15 at k = 5.
        ok &= phi.boundary_mismatch() <= 2e-15
        predicted = -sum(comb(2, j) * k ** j * pairing[2 - j, j] for j in range(3)) / 2
        got = hemisphere_difference(phi, grid)
        c2 = got.integral / math.pi ** 2
        ok &= abs(c2 - predicted) <= 1e-10
        if abs(k) >= 2:
            # Both charts are powers of a product, of no alpha degree F: two
            # passes over the whole grid.
            ok &= phi.upper.form_degree is None and phi.lower.form_degree is None
            ok &= got.nodes == 2 * math.prod(grid.counts().values())
        details.append(f"k={k}: c2={c2:+.3f} predicted={predicted:+.3f}")
    report(11, ok, "(" + "; ".join(details) + ")")
