"""Numerical Chern-Weil computation for SU(2) clutching data over the 4-sphere.

Geometry conventions used throughout:

- The closed 3-disk D3 carries spherical coordinates (alpha, beta, r) in
  [0, 2pi] x [0, pi] x [0, 1]; r = 1 is the boundary sphere.
- A clutching function is a pair of smooth SU(2)-valued charts on D3, one
  per hemisphere of S^3.  Its second Chern number is the orientation-signed
  hemisphere difference of the integral of the 3-form

      A = 2(zb dz dw dwb + wb dz dzb dw - 2(z dzb dw dwb + w dz dzb dwb))

  divided by 24 pi^2.  Only the real part of A contributes; in the real
  decomposition z = x + iy, w = u + iv it collapses to
  Re A = -12 [(y dx - x dy) du dv + (v du - u dv) dx dy].  As
  y dx - x dy = -Im(zb dz) and du dv = Im(dwb dw), each term is one
  ``_det3``, of the rows (-Im(zb dz), dw) and (-Im(wb dw), dz) (``_re_A``).
- SU(2) elements are stored as pairs (z, w) denoting [[z, -wb], [w, zb]].
- A chart is one jet function: it accepts broadcastable coordinate arrays
  and returns the value (z, w), with |z|^2 + |w|^2 = 1, together with its
  coordinate partials, all as complex arrays.  Values and partials have
  the broadcast shape of the coordinates they depend on (a 0-d array for
  a constant), not necessarily the full broadcast shape.

The hemisphere difference is taken lower-chart minus upper-chart; with the
built-in hemisphere parameterization this makes the degree of the identity
map +1 and reproduces the reference value -1 for the built-in two-cocycle
example.

Every built-in clutching function is its own mirror image: its lower chart
is M o upper for a reflection M of S^3 that negates an odd number of the
real coordinates (x, y, u, v), z = x + iy and w = u + iv (``SU2Map.mirror``;
an orientation-reversing map, of degree -1).  ``paper`` and ``constant``
take R(z, w) = (z, wb), the reflection x4 -> -x4.  qpow:d takes S(g) =
(-1)^d gb, which negates x for odd d and y, u and v for even d
(``quaternion_power_clutching``).  The quadrature integrates two fixed
forms, ``_re_A`` and the degree oracle's ``_volume_pullback``, and each is
odd under the negation of any one coordinate, term by term: the volume
pullback is a determinant with one column per coordinate, and each term of
Re A is a product of (y dx - x dy) or dx dy, odd in x and in y, with du dv
or (v du - u dv), odd in u and in v.  On the jet of M o m each returns
exactly the negated value.  The lower integral is then exactly minus the
upper one, and ``hemisphere_difference`` integrates the upper chart alone.
The volume pullback keeps its 4x4 Laplace expansion for this reason: as
det3 of the left Maurer-Cartan form gb dg it was up to a quarter faster,
but not odd bit for bit, and not the determinant off the unit sphere,
which ``det_curvature_su2`` reads from it.

Both are multiples of the pulled-back volume form of S^3 (Re A = 12 vol),
and two identities give them on a product or a power chart with no jet of
the composite map:

- Product g = a b: vol(g) = det3(theta_a + rho_b), with theta_a = ab da and
  rho_b = db bb the left and right Maurer-Cartan forms (imaginary
  quaternions, so 3-vectors), and Re A = 12 det3.  Proof: gb dg =
  Ad_bb(theta_a + rho_b); left multiplication by gb takes the 4x4 rows
  (g, dg) to (1, gb dg) and is a rotation of R^4, and Ad_bb is a rotation
  of the imaginary quaternions, so neither changes the determinant.
- Power q^d: f(q^d) = d U_{d-1}(Re q)^2 f(q) for either form f.  Proof:
  q -> q^d takes q = cos theta + sin theta n (n a unit imaginary) to
  cos d theta + sin d theta n, so its Jacobian is d along theta and
  sin d theta / sin theta = U_{d-1}(cos theta) along each of the two
  directions of n.

The quadrature samples alpha by the forms' alpha degree F
(``SU2Map.form_degree``), which follows from phase pairs.  A map has the
pair (a, b) (``SU2Map.phases``) when z = z0 e^{i a alpha} and
w = w0 e^{i b alpha} with z0 and w0 free of alpha: ``rho1`` (1, 0),
``rho2`` and constants (0, 0) and the unit pole chart (0, 1).  It is then
D(s alpha) m0 D(t alpha), with s = (a - b)/2, t = (a + b)/2,
D(t) = diag(e^{it}, e^{-it}) and m0 the map at alpha = 0.  The pair rule:

- Such a map has F = 0.  As D is a one-parameter group, the jet's three
  partials at alpha are the images of those at alpha = 0 under the left
  and right multiplications by D(s alpha) and D(t alpha), which preserve
  the oriented volume form of S^3, and Re A = 12 vol.
- A product a b of maps of pairs (a1, b1) and (a2, b2) has
  F = |a1 + b1 + a2 - b2|, a bound that generic factors attain.  With e
  the quaternion i, D(t)^-1 dD(t) = e dt, and Ad(D(t)) is the rotation by
  2t about e, which fixes e.  So theta_a = Ad(D(-t1 alpha)) X and
  rho_b = Ad(D(s2 alpha)) Y with X and Y free of alpha: the left factor
  rotates at r1 = a1 + b1, the right one twists at l2 = a2 - b2.
  Rotations keep det3, so vol(a b) = det3(X + R Y), R the rotation by
  (r1 + l2) alpha; as det3(RU, RV, W) = det3(U, V, R^-1 W), each term of
  its multilinear expansion holds one net R or none.
- A mirror has the pair (a s_x s_y, b s_u s_v), s the sign it gives each
  coordinate, and keeps F, as it negates both forms.  The one mirror rule
  covers the inverse (zb, -w), the mirror "yuv": it has the pair (-a, b)
  and keeps F, with or without a pair.  A product with a constant factor,
  a fixed rotation of S^3, has the other factor's F; a mirror or a power
  of a constant, and a product of two, is constant.  The power q^k,
  k >= 2, of a map of pair (0, b) keeps the pair, as z_k is free of alpha
  and w_k = U_{k-1}(Re z) w.  Any other power or product has no pair, and
  a chart whose F does not follow from these rules has F None.

The periodic alpha axis takes the closed trapezoid rule, M samples
2 pi m / M with weights 2 pi / M, which integrates e^{i j alpha} exactly
unless j is a nonzero multiple of M (the M-th roots of unity sum to zero).
So M = F + 1 is exact: a chart takes min(F + 1, n_alpha) samples, and
every alpha node when F is None.  The qpow:d charts, powers of the unit
pole chart, take one.

Re A of a product a b of two maps with pairs needs one sample, alpha = 0
(``_alpha_mean``).  By the proof of the pair rule, on each axis
theta_a + rho_b = (m, n_a e^{i p alpha} + n_b e^{i q alpha}), as a pair
(i m, n) (``_maurer_cartan_sum``): Ad(D(t)) fixes the component m along e
and turns the complex n by e^{2it}, so m, n_a and n_b are free of alpha,
p = a1 + b1, q = b2 - a2 and |p - q| = F.  ``_det3`` is linear in m and
sesquilinear in n, each term m conj(n) n, so
det3(m, n) = det3(m, n_a) + det3(m, n_b) + cross terms, and each cross term
is e^{+-i(p - q) alpha} times a function free of alpha: for F > 0 its mean
over alpha is zero, and the integral over alpha of Re A is
2 pi 12 [det3(m, n_a) + det3(m, n_b)]; for F = 0, 2 pi 12 det3(m, n_a + n_b).
(A product with a constant factor has F = 0 by its own rule, and n = 0 on
the constant's side, so both sums agree there.)  Every term is free of
alpha, so it is read at alpha = 0.  ``paper`` (F = 1) takes one sample,
and the F + 1 = 2 samples of its volume pullback only with the degree
oracle, where Re A reads the first of them: ``c2`` is the same bit for
bit with and without it.
"""

from __future__ import annotations

import functools
import math
import numbers
import re
from typing import Callable, NamedTuple, Sequence

import numpy as np

UNIT_TOL = 1e-12
BOUNDARY_TOL = 1e-10
BOUNDARY_MESH = 64  #: samples per axis of the boundary checks' (alpha, beta) mesh


# ---------------------------------------------------------------------------
# vectorized SU(2)-valued maps on D3
# ---------------------------------------------------------------------------

PairArrays = tuple[np.ndarray, np.ndarray]
PartialArrays = tuple[tuple[np.ndarray, np.ndarray, np.ndarray],
                      tuple[np.ndarray, np.ndarray, np.ndarray]]
#: (z, w, (dz_da, dz_db, dz_dr), (dw_da, dw_db, dw_dr)): a value with its partials.
Jet = tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray],
            tuple[np.ndarray, np.ndarray, np.ndarray]]

_ZERO = np.zeros((), dtype=complex)
_ZERO.flags.writeable = False


def _is_integer(v) -> bool:
    """Whether ``v`` is an integer, numpy's included, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_zero(v) -> bool:
    """Whether ``v`` is a 0-d zero, the form of a partial that vanishes identically."""
    return v.ndim == 0 and v == 0


def _times(a, b):
    """a * b, or a 0-d zero when a factor is one: no full-size multiply by an
    identically zero partial (9% of chern2-quadrature's batch time)."""
    return _ZERO if _is_zero(a) or _is_zero(b) else a * b


class SU2Map:
    """A smooth map D3 -> SU(2) with vectorized evaluation.

    ``origin`` is the one description of a map: ``("mirror", m, flips)``,
    ``("product", a, b)``, ``("power", m, k)`` with k >= 2, ``("constant",)``
    or ``()`` for a leaf.  A leaf or a constant is given by
    ``jet_fn(alpha, beta, r)``, which returns the value with its analytic
    coordinate partials, (z, w, (dz_da, dz_db, dz_dr), (dw_da, dw_db, dw_dr)).
    ``jet`` and ``__call__`` read ``origin``, and so do the quadrature, the
    mirror test and the pair rule.  ``jet`` builds a composition's jet from
    its factors' jets (forward mode): a mirror reflects its base's jet, a
    product takes the product rule (``_product_jet``), and a power squares
    and multiplies by it (``_power_jet``).  ``__call__``, the value alone,
    reflects a mirror's base's value and multiplies a product's factors'
    values (``_product_value``), with no partials; a leaf, a constant and a
    power read their jets.  An inverse is a mirror.  ``phases`` is the pair
    (a, b) when z = z0 e^{i a alpha} and w = w0 e^{i b alpha} with z0 and
    w0 free of alpha, else None.  ``form_degree`` is the alpha degree F of both
    integrated forms, ``_re_A`` and ``_volume_pullback``, by which the
    quadrature samples alpha.  ``__init__`` derives it once from ``phases``
    and ``origin`` by the pair rule (module docstring), else it is None.
    """

    def __init__(self, jet_fn: Callable[..., Jet] | None = None, origin: tuple = (),
                 phases: tuple[int, int] | None = None):
        if not (phases is None or isinstance(phases, tuple) and len(phases) == 2
                and all(map(_is_integer, phases))):
            raise ValueError(f"phases must be a pair of integers (a, b), not {phases!r}")
        self._jet, self.origin, self.phases = jet_fn, origin, phases
        kind, *parts = origin or ("",)
        self._kind, self._parts = kind, parts
        # A mirror or a power of a constant map, and a product of two, is constant.
        self._constant = (kind == "constant"
                          or kind in ("mirror", "power") and parts[0]._constant
                          or kind == "product" and parts[0]._constant and parts[1]._constant)
        if phases is not None:
            self._form_degree = 0
        elif kind == "mirror":
            self._form_degree = parts[0].form_degree
        elif kind == "product" and (parts[0]._constant or parts[1]._constant):
            # A constant factor is a fixed rotation of S^3: the other factor's F.
            self._form_degree = (parts[1] if parts[0]._constant else parts[0]).form_degree
        elif kind == "product" and None not in (parts[0].phases, parts[1].phases):
            (a1, b1), (a2, b2) = parts[0].phases, parts[1].phases
            self._form_degree = abs(a1 + b1 + a2 - b2)
        else:
            self._form_degree = None

    @property
    def form_degree(self) -> int | None:
        return self._form_degree

    @property
    def mirror_of(self) -> "SU2Map | None":
        """The map that a ``mirror(flips)`` result mirrors, else None."""
        return self._parts[0] if self._kind == "mirror" else None

    def __call__(self, alpha, beta, r) -> PairArrays:
        """The value (z, w) alone: a mirror reflects its base's value and a
        product multiplies its factors' values (``_product_value``), with no
        partials; any other map reads its jet."""
        if self._kind == "mirror":
            base, flips = self._parts
            z, w = base(alpha, beta, r)
            return _reflection(flips, "xy")(z), _reflection(flips, "uv")(w)
        if self._kind == "product":
            a, b = self._parts
            return _product_value(*a(alpha, beta, r), *b(alpha, beta, r))
        return self.jet(alpha, beta, r)[:2]

    def partials(self, alpha, beta, r) -> PartialArrays:
        return self.jet(alpha, beta, r)[2:]

    def jet(self, alpha, beta, r) -> Jet:
        """Value and partials in one call, as complex arrays: (z, w, zd, wd)."""
        if self._kind == "mirror":
            base, flips = self._parts
            fz, fw = _reflection(flips, "xy"), _reflection(flips, "uv")
            z, w, zd, wd = base.jet(alpha, beta, r)
            z, w, zd, wd = fz(z), fw(w), map(fz, zd), map(fw, wd)
        elif self._kind == "product":
            a, b = self._parts
            z, w, zd, wd = _product_jet(a.jet(alpha, beta, r), b.jet(alpha, beta, r))
        elif self._kind == "power":
            base, k = self._parts
            z, w, zd, wd = _power_jet(base.jet(alpha, beta, r), k)
        else:
            z, w, zd, wd = self._jet(alpha, beta, r)
        return (np.asarray(z, dtype=complex), np.asarray(w, dtype=complex),
                tuple(np.asarray(v, dtype=complex) for v in zd),
                tuple(np.asarray(v, dtype=complex) for v in wd))

    # -- compositions --------------------------------------------------

    @classmethod
    def constant(cls, z: complex, w: complex) -> "SU2Map":
        norm = abs(z) ** 2 + abs(w) ** 2
        if not abs(norm - 1.0) <= UNIT_TOL:  # NaN fails too
            raise ValueError(f"not a unit pair: |z|^2+|w|^2 = {norm!r}")

        def jet(alpha, beta, r):
            return z, w, (_ZERO, _ZERO, _ZERO), (_ZERO, _ZERO, _ZERO)

        return cls(jet, ("constant",), (0, 0))

    def inverse(self) -> "SU2Map":
        """The pointwise inverse (zb, -w): the mirror "yuv", which negates y, u
        and v, so it has the pair (-a, b) and keeps F."""
        return self.mirror("yuv")

    def mirror(self, flips: str = "v") -> "SU2Map":
        """M o self, with M the reflection of S^3 that negates the coordinates
        ``flips`` of (x, y, u, v), z = x + iy and w = u + iv: an odd number of
        them, so that M reverses the orientation of S^3.

        The default is R(z, w) = (z, wb), the reflection x4 -> -x4, which
        fixes every element with real w, commutes with powers and reverses
        products, R(ab) = R(b) R(a).  ``"yuv"`` is the inverse (``inverse``),
        and the lower charts of qpow:d take S(g) = (-1)^d gb: ``"x"`` for odd
        d, ``"yuv"`` for even d.  The result keeps F and maps the pair (a, b)
        to (a s_x s_y, b s_u s_v), s the sign of each coordinate.
        """
        if set(flips) - set("xyuv") or len(set(flips)) != len(flips) or len(flips) % 2 == 0:
            raise ValueError(f"a mirror negates an odd number of the coordinates xyuv, not {flips!r}")
        sx, sy, su, sv = (-1 if c in flips else 1 for c in "xyuv")
        phases = self.phases and (self.phases[0] * sx * sy, self.phases[1] * su * sv)
        return SU2Map(origin=("mirror", self, flips), phases=phases)

    def __mul__(self, other: "SU2Map") -> "SU2Map":
        if not isinstance(other, SU2Map):
            return NotImplemented
        return SU2Map(origin=("product", self, other))

    def power(self, k: int) -> "SU2Map":
        """The pointwise k-th power; a negative k powers the inverse.

        Its jet squares and multiplies the base's jet by the product rule
        (``_power_jet``).  The quadrature evaluates no power jet: it reads
        the base and k from ``origin`` and scales the base's forms by
        k U_{k-1}(Re z)^2 (module docstring).
        """
        if not _is_integer(k):
            raise ValueError(f"a power takes an integer exponent, not {k!r}")
        if k == 0:
            return SU2Map.constant(1.0, 0.0)
        if k < 0:
            return self.inverse().power(-k)
        if k == 1:
            return self
        # z_k is free of alpha when z is, and w_k = U_{k-1}(Re z) w: the pair (0, b) stays.
        phases = self.phases if self.phases and self.phases[0] == 0 else None
        return SU2Map(origin=("power", self, k), phases=phases)


def _product_value(za, wa, zb, wb) -> PairArrays:
    """The value of the pointwise product a b from the values of a and b."""
    return za * zb - np.conj(wa) * wb, wa * zb + np.conj(za) * wb


def _product_jet(ja: Jet, jb: Jet) -> tuple:
    """The jet of the pointwise product a b from the jets of a and b."""
    za, wa, zda, wda = ja
    zb, wb, zdb, wdb = jb
    # w's partials first: conj(za), which only they read, is then freed
    # before z's are built, one full-size array less at the peak.  The value
    # comes last, from the values alone.
    cza = np.conj(za)
    wd = tuple(_times(wda[i], zb) + _times(wa, zdb[i])
               + _times(np.conj(zda[i]), wb) + _times(cza, wdb[i]) for i in range(3))
    del cza
    cwa = np.conj(wa)
    zd = tuple(_times(zda[i], zb) + _times(za, zdb[i])
               - _times(np.conj(wda[i]), wb) - _times(cwa, wdb[i]) for i in range(3))
    del cwa
    return (*_product_value(za, wa, zb, wb), zd, wd)


def _power_jet(jet: Jet, k: int) -> Jet:
    """The jet of q^k, k >= 1, from the jet of q: q^k = (q^2)^(k // 2) q^(k % 2),
    each product by the product rule."""
    if k == 1:
        return jet
    even = _power_jet(_product_jet(jet, jet), k // 2)
    return _product_jet(even, jet) if k % 2 else even


def _reflection(flips: str, axes: str) -> Callable:
    """v -> s Re v + i t Im v, s and t -1 where ``flips`` holds the real and
    the imaginary axis of ``axes`` ("xy" for z, "uv" for w), exactly: v, -v,
    vb or -vb."""
    re_flip, im_flip = (c in flips for c in axes)
    conj = np.conj if re_flip != im_flip else (lambda v: v)
    return (lambda v: -conj(v)) if re_flip else conj


# ---------------------------------------------------------------------------
# partition-of-unity profile
# ---------------------------------------------------------------------------


class _Profile(NamedTuple):
    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]


class PartitionProfile(_Profile):
    """A smooth height profile: 1 on [-1, -1/3], 0 on [1/3, 1], nonincreasing.

    ``fn`` and its analytic ``derivative`` must be vectorized over the
    height.  Construction verifies the shape constraints, and that
    ``derivative`` is the derivative of ``fn``, by finite differences.
    """

    __slots__ = ()

    def __new__(cls, fn: Callable[[np.ndarray], np.ndarray],
                derivative: Callable[[np.ndarray], np.ndarray]) -> "PartitionProfile":
        h = np.linspace(-1.0, 1.0, 1201)
        vals = np.asarray(fn(h), dtype=float)
        if not np.allclose(vals[h <= -1 / 3], 1.0, atol=1e-12):
            raise ValueError("profile must be identically 1 on [-1, -1/3]")
        if not np.allclose(vals[h >= 1 / 3], 0.0, atol=1e-12):
            raise ValueError("profile must be identically 0 on [1/3, 1]")
        # Each check is "not ... <=", which a NaN value or slope fails.
        if not np.all(np.diff(vals) <= 1e-12):
            raise ValueError("profile must be monotone nonincreasing")
        # C1 check: forward and backward difference quotients must agree.
        step = h[1] - h[0]
        fwd = (vals[2:] - vals[1:-1]) / step
        bwd = (vals[1:-1] - vals[:-2]) / step
        if not np.max(np.abs(fwd - bwd)) <= 0.1:
            raise ValueError("profile does not look continuously differentiable")
        central = (fwd + bwd) / 2.0
        slope = np.asarray(derivative(h), dtype=float)[1:-1]
        if not np.max(np.abs(slope - central)) <= 1e-3 * max(1.0, np.max(np.abs(central))):
            raise ValueError("profile derivative does not match the profile's difference quotients")
        return super().__new__(cls, fn, derivative)

    def __call__(self, h):
        return self.fn(np.asarray(h, dtype=float))

    def diff(self, h):
        return np.asarray(self.derivative(np.asarray(h, dtype=float)), dtype=float)


def standard_profile() -> PartitionProfile:
    """Quintic smoothstep transition from 1 to 0 across [-1/3, 1/3]."""

    def fn(h):
        t = np.clip((np.asarray(h, dtype=float) + 1 / 3) * 1.5, 0.0, 1.0)
        return 1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))

    def derivative(h):
        t = np.clip((np.asarray(h, dtype=float) + 1 / 3) * 1.5, 0.0, 1.0)
        return -1.5 * 30.0 * t * t * (t - 1.0) * (t - 1.0)

    return PartitionProfile(fn, derivative)


def f2_moment(profile: PartitionProfile) -> float:
    """The height integral of (1 - f2) f2 f2' over [-1, 1].

    Integration is panelwise 64-node Gauss-Legendre with panel joints at
    the profile seams +-1/3.
    """
    total = 0.0
    for lo, hi in ((-1.0, -1 / 3), (-1 / 3, 1 / 3), (1 / 3, 1.0)):
        x, w = _gauss_legendre(64, lo, hi)
        f = np.asarray(profile(x), dtype=float)
        vals = (1.0 - f) * f * profile.diff(x)
        total += float(np.sum(vals * w))
    return total


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], read-only and computed once per size.

    Newton's method on the three-term recurrence (Hale & Townsend, SIAM J.
    Sci. Comput. 2013) for the ceil(n/2) nonnegative nodes, mirrored: three
    steps from Tricomi's initial guesses, then one pass for the weights
    2 / ((1 - x^2) P_n'(x)^2).  The recurrence runs on R_j = P_j / s_j with
    s_j = prod_{i <= j} (2i - 1) / (2i), R_{j+1} = 2x R_j - e_j R_{j-1},
    e_j = 4j^2 / (4j^2 - 1), which stays O(sqrt n) in size.  No LAPACK call,
    and weights 100 times closer to a 40-digit reference than numpy's leggauss.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    theta = math.pi * (4 * k - 1) / (4 * n + 2)
    x = (1 - (n - 1) / (8 * n ** 3)
         - (39 - 28 / np.sin(theta) ** 2) / (384 * n ** 4)) * np.cos(theta)
    e = [4.0 * j * j / (4 * j * j - 1) for j in range(1, n)]
    c = 2 * n / (2 * n - 1)  # s_{n-1} / s_n

    def values(x):
        """R_n(x) and x R_n - c R_{n-1} = (x^2 - 1) P_n'(x) / (n s_n)."""
        two_x = 2.0 * x
        r0, r1, t = np.ones_like(x), two_x.copy(), np.empty_like(x)
        for ej in e:
            np.multiply(two_x, r1, out=t)
            np.multiply(r0, ej, out=r0)
            np.subtract(t, r0, out=r0)
            r0, r1 = r1, r0
        return r1, x * r1 - c * r0

    for _ in range(3):
        rn, d = values(x)
        x = x - (x * x - 1.0) * rn / (n * d)
    d = values(x)[1]
    s_n = math.prod((2 * i - 1) / (2 * i) for i in range(1, n + 1))
    w = 2.0 * (1.0 - x * x) / (s_n * n * d) ** 2
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule mapped onto [lo, hi]."""
    t, w = _legendre_rule(n)
    half = (hi - lo) / 2.0
    return half * t + (hi + lo) / 2.0, half * w


def _trapezoid_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-point trapezoid rule on the periodic [0, 2 pi): nodes 2 pi j / m, weights 2 pi / m."""
    return np.arange(m) * (2.0 * math.pi / m), np.full(m, 2.0 * math.pi / m)


class QuadratureGrid(NamedTuple):
    """Tensor nodes for (alpha, beta, r): closed trapezoid in alpha, open Gauss-Legendre in beta, r.

    The beta axis is split at pi/2 where the built-in cocycles are only
    piecewise smooth, so no node ever sits on the seam or on a coordinate
    degeneracy (r = 0, beta in {0, pi}).  Build grids with ``make``.
    """

    alpha_nodes: np.ndarray
    alpha_weights: np.ndarray
    beta_nodes: np.ndarray
    beta_weights: np.ndarray
    r_nodes: np.ndarray
    r_weights: np.ndarray

    @classmethod
    def make(cls, n_alpha: int, n_beta: int | None = None, n_r: int | None = None) -> "QuadratureGrid":
        n_beta = n_alpha if n_beta is None else n_beta
        n_r = n_alpha if n_r is None else n_r
        if min(n_alpha, n_beta, n_r) < 2 or n_beta % 2:
            raise ValueError("need at least 2 nodes per axis and an even beta count")
        a, wa = _trapezoid_rule(n_alpha)
        b1, wb1 = _gauss_legendre(n_beta // 2, 0.0, math.pi / 2)
        b2, wb2 = _gauss_legendre(n_beta // 2, math.pi / 2, math.pi)
        r, wr = _gauss_legendre(n_r, 0.0, 1.0)
        wb = np.concatenate([wb1, wb2])
        for name, weights, length in (("alpha", wa, 2.0 * math.pi), ("beta", wb, math.pi),
                                      ("r", wr, 1.0)):
            if abs(float(np.sum(weights)) - length) > 1e-12:
                raise ValueError(f"{name}-axis weights do not sum to the axis length")
        return cls(a, wa, np.concatenate([b1, b2]), wb, r, wr)

    def alpha_rule(self, form_degree: int | None) -> tuple[np.ndarray, np.ndarray]:
        """The alpha rule integrated for a chart of form degree F: the trapezoid rule
        on min(F + 1, n_alpha) points, n_alpha if None (module docstring)."""
        n = len(self.alpha_nodes)
        return _trapezoid_rule(n if form_degree is None else min(form_degree + 1, n))

    def counts(self) -> dict:
        return {"alpha": len(self.alpha_nodes), "beta": len(self.beta_nodes),
                "r": len(self.r_nodes)}

    def halved(self) -> "QuadratureGrid":
        def half_even(n: int) -> int:
            h = max(2, n // 2)
            return h + (h % 2)
        c = self.counts()
        return QuadratureGrid.make(max(2, c["alpha"] // 2), half_even(c["beta"]),
                                   max(2, c["r"] // 2))


# ---------------------------------------------------------------------------
# cocycle pairs and clutching functions
# ---------------------------------------------------------------------------


def _boundary_values(m: SU2Map) -> PairArrays:
    """The value (z, w) of ``m`` on an (alpha, beta) mesh of r = 1, with no
    partials (``SU2Map.__call__``)."""
    alpha = np.linspace(0.0, 2.0 * math.pi, BOUNDARY_MESH, endpoint=False)[:, None]
    beta = np.linspace(0.0, math.pi, BOUNDARY_MESH)[None, :]
    return m(alpha, beta, np.ones_like(beta))


def _gap(f: PairArrays, g: PairArrays) -> float:
    """The largest |(z_f - z_g, w_f - w_g)| between two values (z, w)."""
    (zf, wf), (zg, wg) = f, g
    return float(np.max(np.sqrt(np.abs(zf - zg) ** 2 + np.abs(wf - wg) ** 2)))


class CocyclePair(NamedTuple):
    """Two smooth maps D3 -> SU(2) feeding the three-set cover construction."""

    rho1: SU2Map
    rho2: SU2Map

    def max_commutator(self) -> float:
        """Largest Frobenius norm of rho1 rho2 - rho2 rho1 on the boundary sphere r = 1.

        The difference of two [[z, -wb], [w, zb]] matrices has Frobenius norm
        sqrt(2) |(dz, dw)|.  rho1 and rho2 are evaluated once each.
        """
        rho1, rho2 = _boundary_values(self.rho1), _boundary_values(self.rho2)
        return math.sqrt(2.0) * _gap(_product_value(*rho1, *rho2), _product_value(*rho2, *rho1))

    def verify_boundary(self) -> bool:
        """Commutativity on the boundary sphere r = 1 (what the clutching needs)."""
        return self.max_commutator() <= BOUNDARY_TOL


class ClutchingFunction(NamedTuple):
    """Charts for the two hemispheres of S^3, each given over D3."""

    upper: SU2Map
    lower: SU2Map
    name: str = ""

    @property
    def mirrored(self) -> bool:
        """Whether the lower chart was built as ``upper.mirror(flips)``, for any flips."""
        return self.lower.mirror_of is self.upper

    def boundary_mismatch(self) -> float:
        return _gap(_boundary_values(self.upper), _boundary_values(self.lower))

    def check_boundary(self) -> None:
        gap = self.boundary_mismatch()
        if not gap <= BOUNDARY_TOL:  # NaN fails too
            raise ValueError(f"hemisphere charts disagree at r = 1 (max gap {gap:.3e})")


class ClutchingPair(NamedTuple):
    phi_E: ClutchingFunction
    phi_Einv: ClutchingFunction


def build_clutching_pair(pair: CocyclePair) -> ClutchingPair:
    """The clutching functions of the bundle E and its (-1)-st associated bundle.

    E uses the single product formula rho1 rho2 on both hemispheres (hence
    extends over the disk and is nullhomotopic); the inverse bundle uses
    rho1^-1 rho2^-1 on the upper and rho2^-1 rho1^-1 on the lower chart,
    which agree on the boundary exactly when the cocycles commute there:
    (ab)^-1 - (ba)^-1 = (ab)^-1 (ba - ab) (ba)^-1, and unitary factors keep
    the Frobenius norm, so the charts' gap is the commutator's norm over
    sqrt(2), and ``verify_boundary`` is the one check.
    """
    if not pair.verify_boundary():
        raise ValueError("cocycles do not commute on the boundary sphere r = 1")
    product = pair.rho1 * pair.rho2
    inv1, inv2 = pair.rho1.inverse(), pair.rho2.inverse()
    return ClutchingPair(ClutchingFunction(product, product, name="E"),
                         ClutchingFunction(inv1 * inv2, inv2 * inv1, name="E^-1"))


# ---------------------------------------------------------------------------
# built-in examples
# ---------------------------------------------------------------------------


def build_example_cocycles() -> CocyclePair:
    """The explicit two-cocycle pair on D3 with the piecewise formulas.

    Both maps are given in closed form with analytic partial derivatives;
    the branch seam sits at beta = pi/2 where the formulas agree.  They
    commute exactly on the boundary sphere r = 1, which is the hypothesis
    the inverse-bundle clutching construction consumes.
    """

    # Each branch is one formula in a beta-only slope: rho1 has
    # sin(k r) e^{i alpha} and cos(k r) with k = pi/2 below the seam and beta
    # above it, so each node evaluates its own branch alone.
    def rho1(alpha, beta, r):
        alpha, beta, r = np.asarray(alpha), np.asarray(beta), np.asarray(r)
        lo = beta <= math.pi / 2
        k = np.where(lo, math.pi / 2, beta)
        phase = np.exp(1j * alpha)
        kr = k * r
        s, c = np.sin(kr), np.cos(kr)
        r_hi = np.where(lo, 0.0, r)  # d(k r)/d beta
        z = s * phase
        zd = (1j * z, r_hi * c * phase, k * c * phase)
        wd = (_ZERO, -r_hi * s, -k * s)
        return z, c, zd, wd

    def rho2(alpha, beta, r):
        beta, r = np.asarray(beta), np.asarray(r)
        lo = beta <= math.pi / 2
        cpr, spr = np.cos(math.pi * r), np.sin(math.pi * r)
        phase = np.exp(2j * beta)
        # z = cos(pi r) u(beta), with u = -e^{2 i beta} below the seam and 1 above.
        u = np.where(lo, -phase, 1.0)
        u_b = np.where(lo, -2j * phase, 0.0)
        zd = (_ZERO, cpr * u_b, -math.pi * spr * u)
        return cpr * u, spr, zd, (_ZERO, _ZERO, math.pi * cpr)

    return CocyclePair(SU2Map(rho1, phases=(1, 0)), SU2Map(rho2, phases=(0, 0)))


def unit_pole_chart() -> SU2Map:
    """Identification of the closed hemisphere Re q >= 0 of S^3 with D3, with its pole at q = 1.

    The point with coordinates (alpha, beta, r) is q = cos theta +
    sin theta (cos beta i + sin beta e^{i alpha} j), theta = pi r/2: the pair
    z = cos theta + i sin theta cos beta, w = sin theta sin beta e^{i alpha}.
    Its phase pair is (0, 1) (module docstring), and Re q = cos theta
    depends on r alone.  The azimuth enters as exp(+i alpha) so
    that the identity clutching map has degree +1 under the
    lower-minus-upper hemisphere convention.
    """

    def jet(alpha, beta, r):
        alpha, beta, r = np.asarray(alpha), np.asarray(beta), np.asarray(r)
        s, c = np.sin(math.pi / 2 * r), np.cos(math.pi / 2 * r)
        sb, cb = np.sin(beta), np.cos(beta)
        phase = np.exp(1j * alpha)
        w = s * sb * phase
        zd = (_ZERO, -1j * s * sb, math.pi / 2 * (1j * c * cb - s))
        wd = (1j * w, s * cb * phase, math.pi / 2 * c * sb * phase)
        return c + 1j * s * cb, w, zd, wd

    return SU2Map(jet, phases=(0, 1))


def quaternion_power_clutching(d: int) -> ClutchingFunction:
    """The clutching function q -> q^d on S^3, in the charts of the hemispheres Re q >= 0 and <= 0.

    The upper chart is h^d, h = ``unit_pole_chart()``.  The lower hemisphere
    is sigma o h, with sigma(q) = -qb the reflection x -> -x, so its chart
    of q^d is (-hb)^d = (-1)^d conj(h^d) = S o h^d: S(g) = (-1)^d gb flips x
    for odd d and y, u and v for even d, a mirror (module docstring).
    """
    upper = unit_pole_chart().power(d)
    return ClutchingFunction(upper, upper.mirror("x" if d % 2 else "yuv"), name=f"qpow:{d}")


def constant_clutching() -> ClutchingFunction:
    ident = SU2Map.constant(1.0, 0.0)
    return ClutchingFunction(ident, ident.mirror(), name="constant")


def paper_example_clutching() -> ClutchingFunction:
    """The inverse-bundle clutching of the example cocycles, with its lower
    chart rebuilt as the mirror of the upper one.

    rho1 and rho2 have real w on both beta branches, so R fixes them and
    R(rho1^-1 rho2^-1) = rho2^-1 rho1^-1: the mirror is the lower chart of
    ``build_clutching_pair``, to rounding.  The returned charts are checked
    to agree on the boundary.
    """
    upper = build_clutching_pair(build_example_cocycles()).phi_Einv.upper
    phi = ClutchingFunction(upper, upper.mirror(), name="E^-1")
    phi.check_boundary()
    return phi


#: Largest |d| accepted for qpow:d.  The r axis carries d: the forms of q^d
#: are d sin(d theta)^2 sin(beta) times a constant, theta = pi r / 2, and the
#: largest r axis (256 nodes) integrates that to 1e-13 up to |d| = 250 and
#: is off by 2e-4 at 300 and by 151 at 1000.
MAX_QPOW_DEGREE = 250

#: Registered examples: name -> (builder, reference c2 value or None).
CLUTCHING_EXAMPLES: dict[str, tuple[Callable[[], ClutchingFunction], float | None]] = {
    "paper": (paper_example_clutching, -1.0),
    "constant": (constant_clutching, 0.0),
}


def clutching_example(name: str) -> tuple[ClutchingFunction, float | None]:
    """Look up a registry entry; qpow:d is synthesized on demand."""
    if name in CLUTCHING_EXAMPLES:
        builder, reference = CLUTCHING_EXAMPLES[name]
        return builder(), reference
    if name.startswith("qpow:"):
        if not re.fullmatch(r"0|-?[1-9][0-9]*", name[5:]):
            raise ValueError(f"malformed quaternion power example {name!r}")
        d = int(name[5:])
        if abs(d) > MAX_QPOW_DEGREE:
            raise ValueError(f"quaternion power {d} exceeds the cap |d| <= {MAX_QPOW_DEGREE}")
        return quaternion_power_clutching(d), float(d)
    raise ValueError(f"unknown clutching example {name!r}")


# ---------------------------------------------------------------------------
# quadrature of the Chern form and the degree oracle
# ---------------------------------------------------------------------------


def _det3(forms) -> np.ndarray:
    """The determinant of the rows (m, Re n, Im n) of three pairs (a0, a), (b0, b),
    (c0, c): a0 Im(bb c) - Im(ab (b0 c - c0 b)), in complex arithmetic."""
    (a0, a), (b0, b), (c0, c) = forms
    return a0 * (np.conj(b) * c).imag - (np.conj(a) * (b0 * c - c0 * b)).imag


def _re_A(z, w, partials):
    """Real part of the A-form on the coordinate frame: -12 (J1 + J2), with
    J1 = (y dx - x dy) du dv and J2 = (v du - u dv) dx dy, each a ``_det3``:
    y dx - x dy = -Im(zb dz) and du dv = Im(dwb dw), so J1 has the rows
    (-Im(zb dz), dw) and J2 the rows (-Im(wb dw), dz)."""
    zd, wd = partials
    cz, cw = np.conj(z), np.conj(w)
    j1 = _det3([(-(cz * d).imag, e) for d, e in zip(zd, wd)])
    j2 = _det3([(-(cw * e).imag, d) for d, e in zip(zd, wd)])
    return -12.0 * (j1 + j2)


def _volume_pullback(z, w, partials):
    """Pullback of the (unnormalized) volume form of S^3 on the coordinate frame.

    The 4x4 determinant with rows (z, w), d_alpha, d_beta, d_r (each split
    into real and imaginary parts), by Laplace expansion along its first two
    rows: six products of complementary 2x2 minors.
    """
    (zda, zdb, zdr), (wda, wdb, wdr) = partials
    top = (z.real, z.imag, w.real, w.imag)
    row1 = (zda.real, zda.imag, wda.real, wda.imag)
    row2 = (zdb.real, zdb.imag, wdb.real, wdb.imag)
    row3 = (zdr.real, zdr.imag, wdr.real, wdr.imag)

    def minor(p, q, i, j):
        return p[i] * q[j] - p[j] * q[i]

    return (minor(top, row1, 0, 1) * minor(row2, row3, 2, 3)
            - minor(top, row1, 0, 2) * minor(row2, row3, 1, 3)
            + minor(top, row1, 0, 3) * minor(row2, row3, 1, 2)
            + minor(top, row1, 1, 2) * minor(row2, row3, 0, 3)
            - minor(top, row1, 1, 3) * minor(row2, row3, 0, 2)
            + minor(top, row1, 2, 3) * minor(row2, row3, 0, 1))


def _plus(a, b):
    """a + b, with no full-size add of a 0-d zero."""
    return b if _is_zero(a) else a if _is_zero(b) else a + b


def _maurer_cartan_sum(ja: Jet, jb: Jet) -> list:
    """theta_a + rho_b on each coordinate axis, as triples (m, n_a, n_b).

    theta_a = ab da and rho_b = db bb are imaginary quaternions, the pairs
    (i m, n) = [[i m, -nb], [n, -i m]]: m = Im(zb dz + wb dw), n = z dw - w dz
    for theta_a (from the jet ja), and m = Im(zb dz + w dwb), n = dw zb - dzb w
    for rho_b (from jb).  Their sum is (m, n_a + n_b), m the sum of the two m.
    """
    za, wa, zda, wda = ja
    zb, wb, zdb, wdb = jb
    cza, cwa, czb = np.conj(za), np.conj(wa), np.conj(zb)
    forms = []
    for i in range(3):
        m = _plus(_plus(_times(cza, zda[i]), _times(cwa, wda[i])).imag,
                  _plus(_times(czb, zdb[i]), _times(wb, np.conj(wdb[i]))).imag)
        forms.append((m, _times(za, wda[i]) - _times(wa, zda[i]),
                      _times(wdb[i], czb) - _times(np.conj(zdb[i]), wb)))
    return forms


def _alpha_mean(chart: SU2Map) -> bool:
    """Whether Re A of ``chart`` integrates along alpha in closed form: a
    product of two maps with phase pairs (module docstring)."""
    return chart._kind == "product" and None not in (a.phases for a in chart._parts)


def _first_alpha(jet: Jet) -> Jet:
    """The jet on the first alpha sample (axis 0) of its coordinates."""
    def first(v):
        return v[:1] if v.ndim else v
    z, w, zd, wd = jet
    return first(z), first(w), tuple(map(first, zd)), tuple(map(first, wd))


def _chart_values(chart: SU2Map, coords, degree: bool) -> list:
    """Re A for ``chart`` at ``coords``, and the volume pullback if ``degree``.

    A product or a power builds no jet of its own (module docstring): a
    product takes Re A from its factors' jets, and the volume pullback from
    the product jet built from them, so that the degree oracle stays a
    second formula; a power scales its base's jet values by d U_{d-1}^2.
    Every other chart evaluates its own jet.  On a product of two maps with
    phase pairs (``_alpha_mean``), Re A is its mean over alpha, in closed
    form on the first alpha sample alone: its alpha axis has length 1.
    """
    forms = (_re_A, _volume_pullback) if degree else (_re_A,)
    if chart._kind == "product":
        ja, jb = (factor.jet(*coords) for factor in chart._parts)
        mean = _alpha_mean(chart)
        axes = _maurer_cartan_sum(*(map(_first_alpha, (ja, jb)) if mean else (ja, jb)))
        if mean and chart.form_degree:
            # The cross terms of n_a and n_b have alpha mean zero.
            re_a = (_det3([(m, na) for m, na, _ in axes])
                    + _det3([(m, nb) for m, _, nb in axes]))
        else:
            re_a = _det3([(m, _plus(na, nb)) for m, na, nb in axes])
        values = [12.0 * re_a]
        if degree:
            z, w, zd, wd = _product_jet(ja, jb)
            values.append(_volume_pullback(z, w, (zd, wd)))
        return values
    if chart._kind == "power":
        base, k = chart._parts
        z, w, zd, wd = base.jet(*coords)
        two_a, u_prev, u = 2.0 * z.real, 0.0, 1.0
        for _ in range(k - 1):  # U_{k-1}(Re z) by U_{j+1} = 2a U_j - U_{j-1}
            u_prev, u = u, two_a * u - u_prev
        scale = k * u * u
        return [scale * f(z, w, (zd, wd)) for f in forms]
    z, w, zd, wd = chart.jet(*coords)
    return [f(z, w, (zd, wd)) for f in forms]


#: Nodes per quadrature chunk: integrate_chart evaluates about this many
#: (alpha, beta, r) nodes at a time, as whole beta rows (every evaluated
#: alpha node and every r node for a block of beta nodes).  Rows along beta
#: put the (beta, r) plane work of the chart leaves for a block into one
#: chunk, so it is done once per chart; only the 1-D alpha and r work
#: repeats.  With every alpha node of the grid evaluated, a chart pass
#: peaked near 250 bytes per node on the paper charts (370 with the degree
#: oracle's product jet, 150 on the qpow charts), and 2^14 ran the four
#: chern2-quadrature jobs 0-17% faster than 2^15 or 2^16; on the exact
#: alpha axis their passes took 0.04-0.06 s of process time in total at any
#: size from 2^13 to 2^16.  They run 13 chunks (paper at grid 192 7, qpow:2,
#: qpow:3 and constant 2 each, as a qpow chart takes one alpha sample and
#: peaks near 200 bytes per node).  The beta rows per chunk follow the F + 1
#: rule, also where Re A reads one sample (paper without the degree
#: oracle): such a chunk holds half the nodes, and paper keeps its 7.  The
#: result does not depend on the chunk size; each pass counts the chunks
#: it ran (``integrate_chart``).
CHUNK_NODES = 2 ** 14

# Each chunk builds and frees megabytes of arrays.  glibc hands the top of
# its heap back to the system once twice its mmap threshold is free there,
# and the next chunk then faults every page in again (without this block
# the paper job at grid 192, then 15 chunks, took 15,700 minor faults instead of
# 3,500, and chern2-quadrature batch_s was 0.153 s instead of 0.134 s on a
# 2-core Xeon VM).  Freeing one
# untouched mmapped block raises that threshold to the block's size (glibc's
# dynamic threshold), so chunks of up to 32 MiB keep reusing the heap's
# pages.  Elsewhere this costs one allocation and does nothing.
np.empty(2 ** 21)  # 16 MiB


def integrate_chart(chart: SU2Map, grid: QuadratureGrid, *,
                    degree: bool = False) -> tuple[tuple[float, ...], int, int]:
    """Integrate Re A, and the volume pullback if ``degree``, over D3 for one chart.

    Returns ``(integrals, nodes, chunks)``: the integrals in that order, all
    from the same pass, and the work the pass did, its evaluated alpha nodes
    times beta times r nodes and the chunks its loop ran.  Both forms take
    ``grid.alpha_rule(chart.form_degree)``, but Re A of a product of two
    maps with phase pairs takes the one sample alpha = 0 with weight 2 pi
    (``_alpha_mean``); the last form's alpha nodes are the ones evaluated,
    so Re A reads the same samples with and without ``degree``.  The beta
    axis is processed in chunks of whole beta rows of the F + 1 rule either
    way (bounded memory), with one evaluation per chunk of the chart's jet,
    or of its factors' or base's jets (``_chart_values``).  Each
    (alpha, beta) line is summed over r on its own and the lines are summed
    at the end, so the integrals depend on the grid and the chart's alpha
    rules alone: not on the chunk size, and they are byte-identical.
    """
    rule = grid.alpha_rule(chart.form_degree)
    rules = [grid.alpha_rule(0) if _alpha_mean(chart) else rule] + [rule] * degree
    alpha_nodes = rules[-1][0]
    alpha = alpha_nodes[:, None, None]
    r = grid.r_nodes[None, None, :]
    wars = [weights[:, None, None] * grid.r_weights[None, None, :] for _, weights in rules]
    lines = [np.empty((len(nodes), len(grid.beta_nodes))) for nodes, _ in rules]
    chunk = max(1, CHUNK_NODES // (len(rule[0]) * len(grid.r_nodes)))
    starts = range(0, len(grid.beta_nodes), chunk)
    for start in starts:
        stop = start + chunk
        beta = grid.beta_nodes[start:stop][None, :, None]
        for line, war, vals in zip(lines, wars, _chart_values(chart, (alpha, beta, r), degree)):
            weights = war * grid.beta_weights[start:stop][None, :, None]
            if not np.all(np.isfinite(vals)):
                bad = np.argwhere(~np.isfinite(np.broadcast_to(vals, weights.shape)))[0]
                node = (float(alpha_nodes[bad[0]]),
                        float(grid.beta_nodes[start + bad[1]]), float(grid.r_nodes[bad[2]]))
                raise ValueError(f"non-finite integrand sample at (alpha, beta, r) = {node}")
            line[:, start:stop] = np.sum(vals * weights, axis=2)
    nodes = len(alpha_nodes) * len(grid.beta_nodes) * len(grid.r_nodes)
    return tuple(float(np.sum(line)) for line in lines), nodes, len(starts)


class Quadrature(NamedTuple):
    """One hemisphere difference: Re A / 24 (c2 times pi^2), the mapping
    degree or None, and the alpha-beta-r nodes and chunks of its passes."""

    integral: float
    degree: float | None
    nodes: int
    chunks: int


def hemisphere_difference(phi: ClutchingFunction, grid: QuadratureGrid, *,
                          degree: bool = False) -> Quadrature:
    """Lower-chart minus upper-chart integrals (the S^3 orientation) of Re A
    over 24, and of the volume pullback over 2 pi^2 if ``degree``, with the
    work of the passes that ran summed.

    A mirrored ``phi`` integrates its upper chart alone, in one pass: both
    forms are odd under every mirror, so the lower integral is exactly
    minus the upper one.  Any other ``phi`` takes a pass per chart.
    """
    upper, nodes, chunks = integrate_chart(phi.upper, grid, degree=degree)
    if phi.mirrored:
        # 0.0 - 2 up: a zero integral gives +0.0, like the difference of two
        # equal zeros in the two-chart path (constant's c2 is 0.0, not -0.0).
        diff = [0.0 - 2.0 * up for up in upper]
    else:
        lower, lower_nodes, lower_chunks = integrate_chart(phi.lower, grid, degree=degree)
        diff = [lo - up for lo, up in zip(lower, upper)]
        nodes, chunks = nodes + lower_nodes, chunks + lower_chunks
    volume = diff[1] / (2.0 * math.pi ** 2) if degree else None
    return Quadrature(diff[0] / 24.0, volume, nodes, chunks)


def a_form_integral(phi: ClutchingFunction, grid: QuadratureGrid) -> float:
    """The lower-minus-upper integral of Re A over 24, c2 times pi^2: as Re A = -12 (J1 + J2),
    -1/2 times the lower-minus-upper integral of J1 + J2 (the report's ``integral_J1_plus_J2``)."""
    return hemisphere_difference(phi, grid).integral


def chern2(phi: ClutchingFunction, grid: QuadratureGrid) -> float:
    """Second Chern number of the bundle over S^4 clutched by ``phi``: ``a_form_integral`` / pi^2."""
    return a_form_integral(phi, grid) / math.pi ** 2


def mapping_degree(phi: ClutchingFunction, grid: QuadratureGrid) -> float:
    """Degree of the chart pair as a map S^3 -> SU(2) = S^3 (volume-form oracle).

    It runs the ``degree=True`` pass of ``hemisphere_difference``, which
    integrates Re A beside the volume pullback on F + 1 alpha samples (a
    product chart builds its product jet), and drops the Re A integral."""
    return hemisphere_difference(phi, grid, degree=True).degree


# ---------------------------------------------------------------------------
# curvature local forms for two-set covers
# ---------------------------------------------------------------------------

_CHART_BOUNDS = ((0.0, 2.0 * math.pi), (0.0, math.pi), (0.0, 1.0), (-1.0, 1.0))


def _check_point(point: Sequence[float]) -> tuple[float, float, float, float]:
    point = tuple(float(c) for c in point)
    if len(point) != 4:
        raise ValueError("a chart point has four coordinates (alpha, beta, r, height)")
    for value, (lo, hi) in zip(point, _CHART_BOUNDS):
        if not lo <= value <= hi:
            raise ValueError(f"point {point} lies outside the chart domain")
    return point


def _pair_matrix(z: complex, w: complex) -> np.ndarray:
    return np.array([[z, -np.conj(w)], [w, np.conj(z)]], dtype=complex)


def curvature_local_form(rho: SU2Map, k: int, f2: PartitionProfile,
                         point: Sequence[float], X: Sequence[float],
                         Y: Sequence[float]) -> np.ndarray:
    """Local curvature 2-form of the k-th associated bundle, on (X, Y).

    Implements df2 . rho^-k d(rho^k) + (f2^2 - f2) rho^-k d(rho^k) ^ rho^-k d(rho^k)
    at a point of the overlap chart, with X, Y tangent vectors in the
    (alpha, beta, r, height) coordinates.  Every term is a real-linear
    combination of quaternions, kept as pairs (z, w) and multiplied by
    ``_product_value``: rho^-k is the pair (zb, -w) of rho^k = (z, w), and
    d(rho^k)(X) the pair of the partials summed against X.  The 2x2 matrix
    [[z, -wb], [w, zb]] of the result is built at the end.
    """
    point = _check_point(point)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != (4,) or Y.shape != (4,):
        raise ValueError("tangent vectors have four components")
    a, b, r, h = point
    z, w, zd, wd = rho.power(k).jet(np.float64(a), np.float64(b), np.float64(r))

    def tau(vec: np.ndarray) -> PairArrays:
        return _product_value(np.conj(z), -w, sum(vec[i] * zd[i] for i in range(3)),
                              sum(vec[i] * wd[i] for i in range(3)))

    df = float(f2.diff(h))
    fval = float(f2(h))
    tX, tY = tau(X), tau(Y)
    xy, yx = _product_value(*tX, *tY), _product_value(*tY, *tX)
    return _pair_matrix(*((df * X[3]) * ty - (df * Y[3]) * tx + (fval * fval - fval) * (p - q)
                          for tx, ty, p, q in zip(tX, tY, xy, yx)))


def det_curvature_su2(rho: SU2Map, f2: PartitionProfile, point: Sequence[float],
                      frame: Sequence[Sequence[float]]) -> complex:
    """Determinant 4-form of the two-set-cover curvature, on a 4-vector frame.

    The form 4 (f2-1)^2 f2^2 dz dzb dw dwb - (f2-1) f2 df2 ^ A has a closed form:
    - dz dzb dw dwb vanishes, as z and w depend on (alpha, beta, r) only;
    - A is real on SU(2): Ab - A = 2 (d|z|^2 dw dwb + dz dzb d|w|^2) = 0, as
      d|z|^2 = -d|w|^2, so A = Re A dalpha dbeta dr, with Re A = ``_re_A``;
    - (df2 ^ dalpha dbeta dr)(v0, .., v3) = -f2'(h) det V, V the frame as rows.
    So the form is (f2 - 1) f2 f2'(h) Re A det V.  det V is
    ``_volume_pullback`` of the rows (a, b, c, d) of V packed as the pairs
    (a + ib, c + id).
    """
    point = _check_point(point)
    frame = [np.asarray(v, dtype=float) for v in frame]
    if len(frame) != 4 or any(v.shape != (4,) for v in frame):
        raise ValueError("the frame must consist of four 4-component vectors")
    a, b, r, h = point
    z, w, zd, wd = rho.jet(np.float64(a), np.float64(b), np.float64(r))
    fval = float(f2(h))
    re_a = float(_re_A(z, w, (zd, wd)))
    zs, ws = zip(*((complex(v[0], v[1]), complex(v[2], v[3])) for v in frame))
    volume = float(_volume_pullback(zs[0], ws[0], (zs[1:], ws[1:])))
    return complex((fval - 1.0) * fval * float(f2.diff(h)) * re_a * volume)
