"""Shared helpers for the test suite."""

import os
import random
import tempfile
from fractions import Fraction

from tcclasses.polyring import Polynomial

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Same examples on every run, and no example database written to disk.
    settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
    settings.load_profile("deterministic")
    # Hypothesis still caches the constants it reads from source files;
    # keep that cache in a directory removed when the test run exits.
    _HYPOTHESIS_STORAGE = tempfile.TemporaryDirectory(prefix="hypothesis-")
    os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_STORAGE.name)

FAMILY_OFFSET = {"x": 0, "y": 1, "z": 2}


def random_polynomial(rng: random.Random, rank: int, families: str = "xyz",
                      max_degree: int = 4, terms: int = 4) -> Polynomial:
    """A small random polynomial with rational coefficients."""
    out = {}
    for _ in range(terms):
        exps = [0] * (3 * rank)
        for _ in range(rng.randint(0, max_degree)):
            fam = rng.choice(families)
            idx = rng.randrange(rank)
            exps[FAMILY_OFFSET[fam] * rank + idx] += 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        key = tuple(exps)
        out[key] = out.get(key, Fraction(0)) + coeff
    return Polynomial(rank, out)


def monomial(rank: int, x=(), y=(), z=(), coeff=1) -> Polynomial:
    """Build a one-term polynomial from per-family exponent sequences."""
    def pad(block):
        block = list(block)
        return block + [0] * (rank - len(block))
    exps = tuple(pad(x) + pad(y) + pad(z))
    return Polynomial(rank, {exps: Fraction(coeff)})
