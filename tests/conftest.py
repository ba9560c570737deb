"""Shared helpers for the test suite."""

import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

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
SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh_python(script: str, *args: str) -> str:
    """Run ``script`` in a new interpreter that imports the package from ``src/``.

    For checks on what an import loads: the test process itself has long
    imported numpy and every module of the package.  Returns stdout.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
