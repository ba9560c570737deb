"""Characteristic classes for transitionally commutative bundle structures.

Two halves, sharing conventions:

- exact symbolic algebra: sparse rational polynomials in three indexed
  variable families, Weyl-group symmetrization, Groebner normal forms for
  the coinvariant ideals, and the Vandermonde solve decomposing the
  two-family power sums into power-map generators;
- numerical Chern-Weil: SU(2)-valued cocycles, clutching functions over
  the 4-sphere, and tensor quadrature of the second Chern form.

The exact half is pure Python.  numpy, the one runtime dependency, serves
only the Chern-Weil half: ``tcclasses.chernweil`` loads on the first use
of one of its names (``tcclasses.chern2``, ``tcclasses.chernweil.SU2Map``,
...), so exact-only runs never import numpy.
"""

import importlib.util
import sys

from .polyring import (
    Polynomial,
    elementary_symmetric,
    newton_convert,
    polynomial_from_dict,
    polynomial_to_dict,
    power_sum,
    substitute,
    two_var_power_sum,
)
from .weyl import GroupSpec, WeylElement, act, parity, symmetrize
from .groebner import ideal_for_group, normal_form
from .generators import (
    DecompositionResult,
    FormalSum,
    GeneratorExpr,
    a_recursion,
    a_recursion_pivot,
    curvature_sigma_form,
    decompose,
    iota,
    mu_generate,
    power_map,
    torus_power_map,
)

def _lazy_submodule(name: str):
    """Import ``tcclasses.<name>`` as a module that runs on first attribute access.

    The ``importlib.util.LazyLoader`` recipe: the module object sits in
    ``sys.modules`` and on the package at once, so ``from . import name``,
    ``import tcclasses.name`` and code that looks the module up in
    ``sys.modules`` all find it, yet its body (and numpy, for ``chernweil``)
    only runs when one of its names is first read.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


chernweil = _lazy_submodule("chernweil")
_CHERNWEIL_EXPORTS = frozenset({
    "ClutchingFunction", "CocyclePair", "PartitionProfile", "QuadratureGrid", "SU2Map",
    "build_clutching_pair", "build_example_cocycles", "chern2", "clutching_example",
    "f2_moment", "mapping_degree", "standard_profile",
})


def __getattr__(name: str):
    if name in _CHERNWEIL_EXPORTS:
        return getattr(chernweil, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_CHERNWEIL_EXPORTS})


__version__ = "0.1.0"
