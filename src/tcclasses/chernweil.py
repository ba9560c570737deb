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
  Re A = -12 [(y dx - x dy) du dv + (v du - u dv) dx dy].
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
is R o upper with R(z, w) = (z, wb), the reflection x4 -> -x4 of S^3 (an
orientation-reversing map, of degree -1).  The quadrature integrates two
fixed forms, ``_re_A`` and the degree oracle's ``_volume_pullback``, and
each is odd under R term by term (each term carries exactly one imaginary
part of w or of a w partial): on the jet (z, wb, zd, conj wd) it returns
exactly the negated value.  The lower integral is then exactly minus the
upper one, and ``hemisphere_difference`` integrates the upper chart alone.

Both are multiples of the pulled-back volume form of S^3 (Re A = 12 vol),
and two identities give them on a product or a power chart with no jet of
the composite map:

- Product F = a b: vol(F) = det3(theta_a + rho_b), with theta_a = ab da and
  rho_b = db bb the left and right Maurer-Cartan forms (imaginary
  quaternions, so 3-vectors), and Re A = 12 det3.  Proof: Fb dF =
  Ad_bb(theta_a + rho_b); left multiplication by Fb takes the 4x4 rows
  (F, dF) to (1, Fb dF) and is a rotation of R^4, and Ad_bb is a rotation
  of the imaginary quaternions, so neither changes the determinant.
- Power q^d: f(q^d) = d U_{d-1}(Re q)^2 f(q) for either form f.  Proof:
  q -> q^d takes q = cos theta + sin theta n (n a unit imaginary) to
  cos d theta + sin d theta n, so its Jacobian is d along theta and
  sin d theta / sin theta = U_{d-1}(cos theta) along each of the two
  directions of n.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
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


def _is_zero(v) -> bool:
    """Whether ``v`` is a 0-d zero, the form of a partial that vanishes identically."""
    return v.ndim == 0 and v == 0


def _times(a, b):
    """a * b, or a 0-d zero when a factor is one: no full-size multiply by an
    identically zero partial (9% of chern2-quadrature's batch time)."""
    return _ZERO if _is_zero(a) or _is_zero(b) else a * b


class SU2Map:
    """A smooth map D3 -> SU(2) with vectorized evaluation.

    ``jet_fn(alpha, beta, r)`` returns the value with its analytic
    coordinate partials, (z, w, (dz_da, dz_db, dz_dr), (dw_da, dw_db, dw_dr)).
    ``jet`` is the one evaluation path; the value and the partials are views
    of it.  Inverses, products, integer powers and mirror images build their
    jets from their factors' jets (forward mode).  ``origin`` records how a
    map was built, where the quadrature or the mirror test reads it:
    ``("mirror", m)``, ``("product", a, b)`` or ``("power", m, k)`` with
    k >= 2, else ``()``.
    """

    def __init__(self, jet_fn: Callable[..., Jet], origin: tuple = ()):
        self._jet = jet_fn
        self.origin = origin

    @property
    def mirror_of(self) -> "SU2Map | None":
        """The map that a ``mirror()`` result mirrors, else None."""
        return self.origin[1] if self.origin[:1] == ("mirror",) else None

    def __call__(self, alpha, beta, r) -> PairArrays:
        return self.jet(alpha, beta, r)[:2]

    def partials(self, alpha, beta, r) -> PartialArrays:
        return self.jet(alpha, beta, r)[2:]

    def jet(self, alpha, beta, r) -> Jet:
        """Value and partials in one call, as complex arrays: (z, w, zd, wd)."""
        z, w, zd, wd = self._jet(alpha, beta, r)
        return (np.asarray(z, dtype=complex), np.asarray(w, dtype=complex),
                tuple(np.asarray(v, dtype=complex) for v in zd),
                tuple(np.asarray(v, dtype=complex) for v in wd))

    # -- compositions --------------------------------------------------

    @classmethod
    def constant(cls, z: complex, w: complex) -> "SU2Map":
        norm = abs(z) ** 2 + abs(w) ** 2
        if abs(norm - 1.0) > UNIT_TOL:
            raise ValueError(f"not a unit pair: |z|^2+|w|^2 = {norm!r}")

        def jet(alpha, beta, r):
            return z, w, (_ZERO, _ZERO, _ZERO), (_ZERO, _ZERO, _ZERO)

        return cls(jet)

    def inverse(self) -> "SU2Map":
        def jet(alpha, beta, r):
            z, w, zd, wd = self.jet(alpha, beta, r)
            return np.conj(z), -w, tuple(np.conj(v) for v in zd), tuple(-v for v in wd)

        return SU2Map(jet)

    def mirror(self) -> "SU2Map":
        """R o self, with R(z, w) = (z, wb): the reflection x4 -> -x4 of S^3.

        R reverses the orientation of S^3, fixes every element with real w,
        commutes with powers and reverses products, R(ab) = R(b) R(a).
        """
        def jet(alpha, beta, r):
            z, w, zd, wd = self.jet(alpha, beta, r)
            return z, np.conj(w), zd, tuple(np.conj(v) for v in wd)

        return SU2Map(jet, ("mirror", self))

    def __mul__(self, other: "SU2Map") -> "SU2Map":
        if not isinstance(other, SU2Map):
            return NotImplemented

        def jet(alpha, beta, r):
            return _product_jet(self.jet(alpha, beta, r), other.jet(alpha, beta, r))

        return SU2Map(jet, ("product", self, other))

    def power(self, k: int) -> "SU2Map":
        """The pointwise k-th power, in closed form.

        Write the value as a + N with a = Re z; N is traceless with
        N^2 = -(1 - a^2), so q^k = T_k(a) + U_{k-1}(a) N in Chebyshev
        polynomials: z_k = T_k(a) + i Im(z) U_{k-1}(a), w_k = U_{k-1}(a) w.
        Partials follow by the chain rule with T_k' = k U_{k-1}.
        """
        if k == 0:
            return SU2Map.constant(1.0, 0.0)
        if k < 0:
            return self.inverse().power(-k)
        if k == 1:
            return self

        def jet(alpha, beta, r):
            z, w, zd, wd = self.jet(alpha, beta, r)
            y = z.imag
            t, u, du = _chebyshev(z.real, k)
            dz, dw = [], []
            for axis in range(3):
                da, dy = zd[axis].real, zd[axis].imag
                dz.append(k * u * da + 1j * (dy * u + y * du * da))
                dw.append(du * da * w + u * wd[axis])
            return t + 1j * (y * u), u * w, tuple(dz), tuple(dw)

        return SU2Map(jet, ("power", self, k))


def _product_jet(ja: Jet, jb: Jet) -> tuple:
    """The jet of the pointwise product a b from the jets of a and b."""
    za, wa, zda, wda = ja
    zb, wb, zdb, wdb = jb
    # w's side first: conj(za), which only it reads, is then freed before
    # z's side is built, one full-size array less at the peak.
    cza = np.conj(za)
    wd = tuple(_times(wda[i], zb) + _times(wa, zdb[i])
               + _times(np.conj(zda[i]), wb) + _times(cza, wdb[i]) for i in range(3))
    w = wa * zb + cza * wb
    del cza
    cwa = np.conj(wa)
    zd = tuple(_times(zda[i], zb) + _times(za, zdb[i])
               - _times(np.conj(wda[i]), wb) - _times(cwa, wdb[i]) for i in range(3))
    return za * zb - cwa * wb, w, zd, wd


def _chebyshev(a, k: int):
    """T_k(a), U_{k-1}(a) and U_{k-1}'(a) for k >= 1.

    Runs the three-term recurrence U_{j+1} = 2a U_j - U_{j-1} (and its
    derivative) from U_{-1} = 0, U_0 = 1; T_k = a U_{k-1} - U_{k-2}.
    """
    u_prev, u = 0.0, 1.0
    du_prev, du = 0.0, 0.0
    two_a = 2.0 * a
    for _ in range(k - 1):
        du_prev, du = du, 2.0 * u + two_a * du - du_prev
        u_prev, u = u, two_a * u - u_prev
    return a * u - u_prev, u, du


# ---------------------------------------------------------------------------
# partition-of-unity profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartitionProfile:
    """A smooth height profile: 1 on [-1, -1/3], 0 on [1/3, 1], nonincreasing.

    ``fn`` and its analytic ``derivative`` must be vectorized over the
    height.  Construction verifies the shape constraints by finite
    differences.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        h = np.linspace(-1.0, 1.0, 1201)
        vals = np.asarray(self.fn(h), dtype=float)
        if not np.allclose(vals[h <= -1 / 3], 1.0, atol=1e-12):
            raise ValueError("profile must be identically 1 on [-1, -1/3]")
        if not np.allclose(vals[h >= 1 / 3], 0.0, atol=1e-12):
            raise ValueError("profile must be identically 0 on [1/3, 1]")
        if np.any(np.diff(vals) > 1e-12):
            raise ValueError("profile must be monotone nonincreasing")
        # C1 check: forward and backward difference quotients must agree.
        step = h[1] - h[0]
        fwd = (vals[2:] - vals[1:-1]) / step
        bwd = (vals[1:-1] - vals[:-2]) / step
        if np.max(np.abs(fwd - bwd)) > 0.1:
            raise ValueError("profile does not look continuously differentiable")

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
    rule = _legendre_rule(64)
    for lo, hi in ((-1.0, -1 / 3), (-1 / 3, 1 / 3), (1 / 3, 1.0)):
        x, w = _gauss_legendre(rule, lo, hi)
        f = np.asarray(profile(x), dtype=float)
        vals = (1.0 - f) * f * profile.diff(x)
        total += float(np.sum(vals * w))
    return total


# ---------------------------------------------------------------------------
# quadrature grids
# ---------------------------------------------------------------------------


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], read-only and computed once
    per size per process (leggauss takes 8 ms at 96 nodes, 39 ms at 192)."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(rule: tuple[np.ndarray, np.ndarray], lo: float,
                    hi: float) -> tuple[np.ndarray, np.ndarray]:
    """The standard Gauss-Legendre ``rule`` on [-1, 1], mapped onto [lo, hi]."""
    t, w = rule
    half = (hi - lo) / 2.0
    return half * t + (hi + lo) / 2.0, half * w


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Tensor Gauss-Legendre nodes for (alpha, beta, r); open rules only.

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
        a, wa = _gauss_legendre(_legendre_rule(n_alpha), 0.0, 2.0 * math.pi)
        b1, wb1 = _gauss_legendre(_legendre_rule(n_beta // 2), 0.0, math.pi / 2)
        b2, wb2 = _gauss_legendre(_legendre_rule(n_beta // 2), math.pi / 2, math.pi)
        r, wr = _gauss_legendre(_legendre_rule(n_r), 0.0, 1.0)
        wb = np.concatenate([wb1, wb2])
        for name, weights, length in (("alpha", wa, 2.0 * math.pi), ("beta", wb, math.pi),
                                      ("r", wr, 1.0)):
            if abs(float(np.sum(weights)) - length) > 1e-12:
                raise ValueError(f"{name}-axis weights do not sum to the axis length")
        return cls(a, wa, np.concatenate([b1, b2]), wb, r, wr)

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


def _boundary_mesh() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (alpha, beta) sample mesh on the boundary sphere r = 1."""
    alpha = np.linspace(0.0, 2.0 * math.pi, BOUNDARY_MESH, endpoint=False)[:, None]
    beta = np.linspace(0.0, math.pi, BOUNDARY_MESH)[None, :]
    return alpha, beta, np.ones_like(beta)


@dataclass(frozen=True)
class CocyclePair:
    """Two smooth maps D3 -> SU(2) feeding the three-set cover construction."""

    rho1: SU2Map
    rho2: SU2Map

    def max_commutator(self) -> float:
        """Largest Frobenius norm of [rho1, rho2] on the boundary sphere r = 1."""
        mesh = _boundary_mesh()
        z1, w1 = (self.rho1 * self.rho2)(*mesh)
        z2, w2 = (self.rho2 * self.rho1)(*mesh)
        # Frobenius norm of the pair difference of [[z,-wb],[w,zb]] matrices.
        return float(np.max(np.sqrt(2.0 * (np.abs(z1 - z2) ** 2 + np.abs(w1 - w2) ** 2))))

    def verify_boundary(self) -> bool:
        """Commutativity on the boundary sphere r = 1 (what the clutching needs)."""
        return self.max_commutator() <= BOUNDARY_TOL


@dataclass(frozen=True)
class ClutchingFunction:
    """Charts for the two hemispheres of S^3, each given over D3."""

    upper: SU2Map
    lower: SU2Map
    name: str = ""

    @property
    def mirrored(self) -> bool:
        """Whether the lower chart was built as ``upper.mirror()``."""
        return self.lower.mirror_of is self.upper

    def boundary_mismatch(self) -> float:
        mesh = _boundary_mesh()
        zu, wu = self.upper(*mesh)
        zl, wl = self.lower(*mesh)
        return float(np.max(np.sqrt(np.abs(zu - zl) ** 2 + np.abs(wu - wl) ** 2)))

    def check_boundary(self) -> None:
        gap = self.boundary_mismatch()
        if gap > BOUNDARY_TOL:
            raise ValueError(f"hemisphere charts disagree at r = 1 (max gap {gap:.3e})")


class ClutchingPair(NamedTuple):
    phi_E: ClutchingFunction
    phi_Einv: ClutchingFunction


def build_clutching_pair(pair: CocyclePair) -> ClutchingPair:
    """The clutching functions of the bundle E and its (-1)-st associated bundle.

    E uses the single product formula rho1 rho2 on both hemispheres (hence
    extends over the disk and is nullhomotopic); the inverse bundle uses
    rho1^-1 rho2^-1 on the upper and rho2^-1 rho1^-1 on the lower chart,
    which agree on the boundary exactly when the cocycles commute there.
    """
    if not pair.verify_boundary():
        raise ValueError("cocycles do not commute on the boundary sphere r = 1")
    product = pair.rho1 * pair.rho2
    phi_e = ClutchingFunction(product, product, name="E")
    inv1, inv2 = pair.rho1.inverse(), pair.rho2.inverse()
    phi_inv = ClutchingFunction(inv1 * inv2, inv2 * inv1, name="E^-1")
    phi_inv.check_boundary()
    return ClutchingPair(phi_e, phi_inv)


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

    def rho1(alpha, beta, r):
        alpha, beta, r = np.asarray(alpha), np.asarray(beta), np.asarray(r)
        lo = beta <= math.pi / 2
        phase = np.exp(1j * alpha)
        s1, s2 = np.sin(math.pi / 2 * r), np.sin(r * beta)
        c1, c2 = np.cos(math.pi / 2 * r), np.cos(r * beta)
        s = np.where(lo, s1, s2)
        zd = (1j * s * phase, np.where(lo, 0.0, r * c2) * phase,
              np.where(lo, math.pi / 2 * c1, beta * c2) * phase)
        wd = (_ZERO, np.where(lo, 0.0, -r * s2), np.where(lo, -math.pi / 2 * s1, -beta * s2))
        return s * phase, np.where(lo, c1, c2), zd, wd

    def rho2(alpha, beta, r):
        beta, r = np.asarray(beta), np.asarray(r)
        lo = beta <= math.pi / 2
        cpr, spr = np.cos(math.pi * r), np.sin(math.pi * r)
        phase = np.exp(2j * beta)
        zd = (_ZERO, np.where(lo, -2j * cpr * phase, _ZERO),
              np.where(lo, math.pi * spr * phase, -math.pi * spr))
        return np.where(lo, -cpr * phase, cpr), spr, zd, (_ZERO, _ZERO, math.pi * cpr)

    return CocyclePair(SU2Map(rho1), SU2Map(rho2))


def hemisphere_chart() -> SU2Map:
    """Identification of the closed upper hemisphere x4 >= 0 of S^3 with D3.

    The point with coordinates (alpha, beta, r) is
    (sin(pi r/2) nhat(alpha, beta), cos(pi r/2)) in R^4, read as the SU(2)
    pair z = x1 + i x2, w = x3 + i x4.  The lower hemisphere is its mirror
    image, ``hemisphere_chart().mirror()``.  The azimuth enters as
    exp(-i alpha) so that the identity clutching map has degree +1 under
    the lower-minus-upper hemisphere convention.
    """

    def jet(alpha, beta, r):
        alpha, beta, r = np.asarray(alpha), np.asarray(beta), np.asarray(r)
        s, c = np.sin(math.pi / 2 * r), np.cos(math.pi / 2 * r)
        ds = math.pi / 2 * c
        phase = np.exp(-1j * alpha)
        sb, cb = np.sin(beta), np.cos(beta)
        zd = (-1j * s * sb * phase, s * cb * phase, ds * sb * phase)
        wd = (_ZERO, -s * sb, ds * cb - 1j * math.pi / 2 * s)
        return s * sb * phase, s * cb + 1j * c, zd, wd

    return SU2Map(jet)


def quaternion_power_clutching(d: int) -> ClutchingFunction:
    """The clutching function q -> q^d on S^3, expressed in hemisphere charts.

    The lower hemisphere chart is the mirror of the upper one and R commutes
    with powers, so the lower chart of q^d is the mirror of the upper.
    """
    upper = hemisphere_chart().power(d)
    return ClutchingFunction(upper, upper.mirror(), name=f"qpow:{d}")


def constant_clutching() -> ClutchingFunction:
    ident = SU2Map.constant(1.0, 0.0)
    return ClutchingFunction(ident, ident.mirror(), name="constant")


def paper_example_clutching() -> ClutchingFunction:
    """The inverse-bundle clutching of the example cocycles, with its lower
    chart rebuilt as the mirror of the upper one.

    rho1 and rho2 have real w on both beta branches, so R fixes them and
    R(rho1^-1 rho2^-1) = rho2^-1 rho1^-1: the mirror is the lower chart of
    ``build_clutching_pair``, which has checked the boundary, to rounding.
    """
    phi = build_clutching_pair(build_example_cocycles()).phi_Einv
    return ClutchingFunction(phi.upper, phi.upper.mirror(), name=phi.name)


#: Largest |d| accepted for qpow:d; q^d costs |d| recurrence steps per node.
MAX_QPOW_DEGREE = 1000

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
        return quaternion_power_clutching(d), None
    raise ValueError(f"unknown clutching example {name!r}")


# ---------------------------------------------------------------------------
# quadrature of the Chern form and the degree oracle
# ---------------------------------------------------------------------------


def _re_A(z, w, partials):
    """Real part of the A-form on the coordinate frame: -12 (J1 + J2)."""
    (zda, zdb, zdr), (wda, wdb, wdr) = partials
    x, y, u, v = z.real, z.imag, w.real, w.imag
    xa, ya = zda.real, zda.imag
    xb, yb = zdb.real, zdb.imag
    xr, yr = zdr.real, zdr.imag
    ua, va = wda.real, wda.imag
    ub, vb = wdb.real, wdb.imag
    ur, vr = wdr.real, wdr.imag
    j1 = ((y * xa - x * ya) * (ub * vr - vb * ur)
          - (y * xb - x * yb) * (ua * vr - va * ur)
          + (y * xr - x * yr) * (ua * vb - va * ub))
    j2 = ((v * ua - u * va) * (xb * yr - yb * xr)
          - (v * ub - u * vb) * (xa * yr - ya * xr)
          + (v * ur - u * vr) * (xa * yb - ya * xb))
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
    """theta_a + rho_b on each coordinate axis, as pairs (m, n).

    theta_a = ab da and rho_b = db bb are imaginary quaternions, the pairs
    (i m, n) = [[i m, -nb], [n, -i m]]: m = Im(zb dz + wb dw), n = z dw - w dz
    for theta_a (from the jet ja), and m = Im(zb dz + w dwb), n = dw zb - dzb w
    for rho_b (from jb).
    """
    za, wa, zda, wda = ja
    zb, wb, zdb, wdb = jb
    cza, cwa, czb = np.conj(za), np.conj(wa), np.conj(zb)
    forms = []
    for i in range(3):
        m = _plus(_plus(_times(cza, zda[i]), _times(cwa, wda[i])).imag,
                  _plus(_times(czb, zdb[i]), _times(wb, np.conj(wdb[i]))).imag)
        n = _plus(_times(za, wda[i]) - _times(wa, zda[i]),
                  _times(wdb[i], czb) - _times(np.conj(zdb[i]), wb))
        forms.append((m, n))
    return forms


def _det3(forms) -> np.ndarray:
    """The determinant of the rows (m, Re n, Im n) of three pairs (a0, a), (b0, b),
    (c0, c): a0 Im(bb c) - Im(ab (b0 c - c0 b)), in complex arithmetic."""
    (a0, a), (b0, b), (c0, c) = forms
    return a0 * (np.conj(b) * c).imag - (np.conj(a) * (b0 * c - c0 * b)).imag


def _chart_values(chart: SU2Map, coords, degree: bool) -> list:
    """Re A for ``chart`` at ``coords``, and the volume pullback if ``degree``.

    A product or a power builds no jet of its own (module docstring): a
    product takes Re A from its factors' jets, and the volume pullback from
    the product jet built from them, so that the degree oracle stays a
    second formula; a power scales its base's jet values by d U_{d-1}^2.
    Every other chart evaluates its own jet.
    """
    forms = (_re_A, _volume_pullback) if degree else (_re_A,)
    kind, *parts = chart.origin or ("",)
    if kind == "product":
        ja, jb = (factor.jet(*coords) for factor in parts)
        values = [12.0 * _det3(_maurer_cartan_sum(ja, jb))]
        if degree:
            z, w, zd, wd = _product_jet(ja, jb)
            values.append(_volume_pullback(z, w, (zd, wd)))
        return values
    if kind == "power":
        base, k = parts
        z, w, zd, wd = base.jet(*coords)
        two_a, u_prev, u = 2.0 * z.real, 0.0, 1.0
        for _ in range(k - 1):  # U_{k-1}(Re z), the recurrence of _chebyshev alone
            u_prev, u = u, two_a * u - u_prev
        scale = k * u * u
        return [scale * f(z, w, (zd, wd)) for f in forms]
    z, w, zd, wd = chart.jet(*coords)
    return [f(z, w, (zd, wd)) for f in forms]


#: Nodes per quadrature chunk: integrate_chart evaluates about this many
#: (alpha, beta, r) nodes at a time, as whole beta rows (all alpha and r
#: nodes for a block of beta nodes).  Rows along beta put the (beta, r)
#: plane work of the chart leaves for a block into one chunk, so it is done
#: once per chart; only the 1-D alpha and r work repeats.  A chart pass
#: peaks near 250 bytes per node on the paper charts (the factor or chart
#: jets and the integrand temporaries; 370 with the degree oracle's product
#: jet, 150 on the qpow charts): about 4 MiB at 2^14 nodes, or one beta row
#: where that is larger (8.5-13 MiB at grid 192).  With every chart on the
#: jet path, 2^14 ran the four chern2-quadrature jobs 0-13% faster in total
#: than 2^15 (seven alternated rounds) and 4-17% faster than 2^16.  The
#: result does not depend on the chunk size.
CHUNK_NODES = 2 ** 14

# Each chunk builds and frees megabytes of arrays.  glibc hands the top of
# its heap back to the system once twice its mmap threshold is free there,
# and the next chunk then faults every page in again (235,000 minor faults
# and 1.6-1.9x the time for the paper chart at grid 192).  Freeing one
# untouched mmapped block raises that threshold to the block's size (glibc's
# dynamic threshold), so chunks of up to 32 MiB keep reusing the heap's
# pages.  Elsewhere this costs one allocation and does nothing.
np.empty(2 ** 21)  # 16 MiB


def beta_chunk(grid: QuadratureGrid) -> int:
    """Beta nodes per integrate_chart chunk (at least one)."""
    return max(1, CHUNK_NODES // max(1, len(grid.alpha_nodes) * len(grid.r_nodes)))


def integrate_chart(chart: SU2Map, grid: QuadratureGrid, *,
                    degree: bool = False) -> tuple[float, ...]:
    """Integrate Re A, and the volume pullback if ``degree``, over D3 for one chart.

    Returns the integrals in that order, all from the same pass.  The beta
    axis is processed in chunks of ``beta_chunk(grid)`` nodes (bounded
    memory), with one evaluation per chunk of the chart's jet, or of its
    factors' or base's jets (``_chart_values``).
    Each (alpha, beta) line is summed over r on its own and the lines are
    summed at the end, so the result depends on the grid alone: not on the
    chunk size, and it is byte-identical across runs.
    """
    chunk = beta_chunk(grid)
    alpha = grid.alpha_nodes[:, None, None]
    r = grid.r_nodes[None, None, :]
    war = grid.alpha_weights[:, None, None] * grid.r_weights[None, None, :]
    lines = np.empty((1 + degree, len(grid.alpha_nodes), len(grid.beta_nodes)))
    for start in range(0, len(grid.beta_nodes), chunk):
        stop = start + chunk
        beta = grid.beta_nodes[start:stop][None, :, None]
        weights = war * grid.beta_weights[start:stop][None, :, None]
        for line, vals in zip(lines, _chart_values(chart, (alpha, beta, r), degree)):
            if not np.all(np.isfinite(vals)):
                bad = np.argwhere(~np.isfinite(np.broadcast_to(vals, weights.shape)))[0]
                node = (float(grid.alpha_nodes[bad[0]]),
                        float(grid.beta_nodes[start + bad[1]]), float(grid.r_nodes[bad[2]]))
                raise ValueError(f"non-finite integrand sample at (alpha, beta, r) = {node}")
            line[:, start:stop] = np.sum(vals * weights, axis=2)
    return tuple(float(np.sum(line)) for line in lines)


def hemisphere_difference(phi: ClutchingFunction, grid: QuadratureGrid, *,
                          degree: bool = False) -> tuple[float, ...]:
    """Lower-chart integrals minus upper-chart integrals (the S^3 orientation).

    A mirrored ``phi`` integrates its upper chart alone: both forms are odd
    under R, so the lower integral is exactly minus the upper one.
    """
    upper = integrate_chart(phi.upper, grid, degree=degree)
    if phi.mirrored:
        # 0.0 - 2 up: a zero integral gives +0.0, like the difference of two
        # equal zeros in the two-chart path (constant's c2 is 0.0, not -0.0).
        return tuple(0.0 - 2.0 * up for up in upper)
    lower = integrate_chart(phi.lower, grid, degree=degree)
    return tuple(lo - up for lo, up in zip(lower, upper))


def hemisphere_work(phi: ClutchingFunction, grid: QuadratureGrid) -> dict:
    """Nodes evaluated and chunks run by one hemisphere_difference call: one
    chart pass for a mirrored ``phi``, two otherwise."""
    passes = 1 if phi.mirrored else 2
    c = grid.counts()
    return {"nodes": passes * c["alpha"] * c["beta"] * c["r"],
            "chunks": passes * -(-c["beta"] // beta_chunk(grid))}


def a_form_integral(phi: ClutchingFunction, grid: QuadratureGrid) -> float:
    """The lower-minus-upper integral of Re A over 24, c2 times pi^2: as Re A = -12 (J1 + J2),
    -1/2 times the lower-minus-upper integral of J1 + J2 (the report's ``integral_J1_plus_J2``)."""
    return hemisphere_difference(phi, grid)[0] / 24.0


def chern2(phi: ClutchingFunction, grid: QuadratureGrid) -> float:
    """Second Chern number of the bundle over S^4 clutched by ``phi``: ``a_form_integral`` / pi^2."""
    return a_form_integral(phi, grid) / math.pi ** 2


def mapping_degree(phi: ClutchingFunction, grid: QuadratureGrid) -> float:
    """Degree of the chart pair as a map S^3 -> SU(2) = S^3 (volume-form oracle)."""
    return a_form_integral_and_degree(phi, grid)[1]


def a_form_integral_and_degree(phi: ClutchingFunction,
                               grid: QuadratureGrid) -> tuple[float, float]:
    """``a_form_integral`` and ``mapping_degree`` from one pass over each chart."""
    a_form, volume = hemisphere_difference(phi, grid, degree=True)
    return a_form / 24.0, volume / (2.0 * math.pi ** 2)


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


def _scalar(value) -> complex:
    return complex(np.asarray(value).reshape(-1)[0])


def _tau_values(rho_k: SU2Map, point) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value matrix and the three coordinate partial matrices of rho^k."""
    a, b, r, _ = point
    z, w, zd, wd = rho_k.jet(np.float64(a), np.float64(b), np.float64(r))
    value = _pair_matrix(_scalar(z), _scalar(w))
    mats = [_pair_matrix(_scalar(zd[i]), _scalar(wd[i])) for i in range(3)]
    return value, mats


def curvature_local_form(rho: SU2Map, k: int, f2: PartitionProfile,
                         point: Sequence[float], X: Sequence[float],
                         Y: Sequence[float]) -> np.ndarray:
    """Local curvature 2-form of the k-th associated bundle, on (X, Y).

    Implements df2 . rho^-k d(rho^k) + (f2^2 - f2) rho^-k d(rho^k) ^ rho^-k d(rho^k)
    at a point of the overlap chart, with X, Y tangent vectors in the
    (alpha, beta, r, height) coordinates.
    """
    point = _check_point(point)
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.shape != (4,) or Y.shape != (4,):
        raise ValueError("tangent vectors have four components")
    rho_k = rho.power(k)
    value, dmats = _tau_values(rho_k, point)
    inv = value.conj().T  # unitary inverse

    def tau(vec: np.ndarray) -> np.ndarray:
        d = sum(vec[i] * dmats[i] for i in range(3))
        return inv @ d

    h = point[3]
    df = float(f2.diff(h))
    fval = float(f2(h))
    tX, tY = tau(X), tau(Y)
    wedge = tX @ tY - tY @ tX
    return (df * X[3]) * tY - (df * Y[3]) * tX + (fval * fval - fval) * wedge


def _form_rows(zd, wd) -> dict[str, np.ndarray]:
    """The 1-forms dz, dzb, dw, dwb as coordinate coefficient vectors (length 4)."""
    dz = np.array([_scalar(zd[0]), _scalar(zd[1]), _scalar(zd[2]), 0.0])
    dw = np.array([_scalar(wd[0]), _scalar(wd[1]), _scalar(wd[2]), 0.0])
    return {"z": dz, "zb": np.conj(dz), "w": dw, "wb": np.conj(dw)}


def det_curvature_su2(rho: SU2Map, f2: PartitionProfile, point: Sequence[float],
                      frame: Sequence[Sequence[float]]) -> complex:
    """Determinant 4-form of the two-set-cover curvature, on a 4-vector frame.

    Evaluates 4 (f2-1)^2 f2^2 dz dzb dw dwb - (f2-1) f2 df2 ^ A; the first
    summand vanishes identically here because z, w depend on only three
    coordinates, exactly as in the sphere geometry.
    """
    point = _check_point(point)
    frame = [np.asarray(v, dtype=float) for v in frame]
    if len(frame) != 4 or any(v.shape != (4,) for v in frame):
        raise ValueError("the frame must consist of four 4-component vectors")
    a, b, r, h = point
    z, w, zd, wd = rho.jet(np.float64(a), np.float64(b), np.float64(r))
    forms = _form_rows(zd, wd)
    z, w = complex(z), complex(w)

    def apply(form: np.ndarray, vec: np.ndarray) -> complex:
        return complex(form @ vec)

    def det_on(names: Sequence[str], vecs: Sequence[np.ndarray]) -> complex:
        m = np.array([[apply(forms[f], v) for v in vecs] for f in names])
        return complex(np.linalg.det(m))

    def a_form(vecs: Sequence[np.ndarray]) -> complex:
        return 2.0 * (np.conj(z) * det_on(("z", "w", "wb"), vecs)
                      + np.conj(w) * det_on(("z", "zb", "w"), vecs)
                      - 2.0 * (z * det_on(("zb", "w", "wb"), vecs)
                               + w * det_on(("z", "zb", "wb"), vecs)))

    fval = float(f2(h))
    dfval = float(f2.diff(h))
    quad = det_on(("z", "zb", "w", "wb"), frame)
    wedge = 0.0 + 0.0j
    for i in range(4):
        rest = frame[:i] + frame[i + 1:]
        wedge += ((-1.0) ** i) * (dfval * frame[i][3]) * a_form(rest)
    return 4.0 * (fval - 1.0) ** 2 * fval ** 2 * quad - (fval - 1.0) * fval * wedge
