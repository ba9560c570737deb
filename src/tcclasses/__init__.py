"""Characteristic classes for transitionally commutative bundle structures.

Two halves, sharing conventions:

- exact symbolic algebra: sparse rational polynomials in three indexed
  variable families, Weyl-group symmetrization, Groebner normal forms for
  the coinvariant ideals, and the Vandermonde solve decomposing the
  two-family power sums into power-map generators;
- numerical Chern-Weil: SU(2)-valued cocycles, clutching functions over
  the 4-sphere, and Gauss-Legendre quadrature of the second Chern form.
"""

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
from .weyl import GroupSpec, WeylElement, act, enumerate_group, is_invariant, parity, symmetrize
from .groebner import equal_mod_ideal, ideal_for_group, normal_form
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
from .chernweil import (
    ClutchingFunction,
    CocyclePair,
    PartitionProfile,
    QuadratureGrid,
    SU2Map,
    SU2Matrix,
    build_clutching_pair,
    build_example_cocycles,
    chern2,
    clutching_example,
    f2_moment,
    mapping_degree,
    standard_profile,
)

__version__ = "0.1.0"
