"""Scalar SU(2) arithmetic: the reference for the vectorized ``SU2Map``.

An element is a unit pair (z, w), the matrix [[z, -conj(w)], [w, conj(z)]].
Products renormalize once the norm drifts past ``RENORM_TRIGGER``.
``su2_power`` is repeated squaring, as ``SU2Map.power``'s jet is, so it
checks that jet's values point by point, not by a different route: the
closed form's chain rule (``dense_power_jet`` in ``test_chernweil.py``) is
the independent oracle of the power jet.
"""

import math
from dataclasses import dataclass

import numpy as np

from tcclasses.chernweil import UNIT_TOL

RENORM_TRIGGER = 1e-13


def _renormalized(z: complex, w: complex) -> tuple[complex, complex]:
    norm = abs(z) ** 2 + abs(w) ** 2
    if abs(norm - 1.0) > RENORM_TRIGGER:
        scale = 1.0 / math.sqrt(norm)
        return z * scale, w * scale
    return z, w


@dataclass(frozen=True)
class SU2Matrix:
    """An SU(2) element (z, w), i.e. the matrix [[z, -conj(w)], [w, conj(z)]]."""

    z: complex
    w: complex

    def __post_init__(self) -> None:
        norm = abs(self.z) ** 2 + abs(self.w) ** 2
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"not a unit pair: |z|^2+|w|^2 = {norm!r}")

    @classmethod
    def identity(cls) -> "SU2Matrix":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)


def su2_product(a: SU2Matrix, b: SU2Matrix) -> SU2Matrix:
    z = a.z * b.z - np.conj(a.w) * b.w
    w = a.w * b.z + np.conj(a.z) * b.w
    return SU2Matrix(*_renormalized(complex(z), complex(w)))


def su2_inverse(a: SU2Matrix) -> SU2Matrix:
    return SU2Matrix(complex(np.conj(a.z)), -a.w)


def su2_power(a: SU2Matrix, k: int) -> SU2Matrix:
    """Integer power by repeated squaring; negative powers go through the inverse."""
    if k == 0:
        return SU2Matrix.identity()
    if k < 0:
        return su2_power(su2_inverse(a), -k)
    result = SU2Matrix.identity()
    base = a
    chain = 0
    while k:
        if k & 1:
            result = su2_product(result, base)
            chain += 1
        if k > 1:
            base = su2_product(base, base)
            chain += 1
        if chain > 8:
            result = SU2Matrix(*_renormalized(result.z, result.w))
            chain = 0
        k >>= 1
    return result
