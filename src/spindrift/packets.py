"""Positive-energy Gaussian wave packets on a momentum quadrature rule.

A packet carries one 4-spinor amplitude per quadrature node.  The spinor at
momentum p is the positive-energy eigenspinor of H(p) whose Foldy-Wouthuysen
image carries a fixed 2-spinor polarization, so the rest-frame spin direction
is the same at every point.  The envelope is a product Gaussian

    g(p)  ~  exp( -sum_i (p_i - p0_i)^2 / (2 w_i^2) )

(w_i is the amplitude scale; the probability density |g|^2 then has per-axis
standard deviation w_i / sqrt(2)).  A rule is nodes x_k and weights W_k in
width units, the weights carrying |g|^2 = exp(-x^2): `uniform_rule`, a grid
over `GRID_RADIUS` widths each way, or `gauss_hermite_rule`.  A packet holds
nodes p0_i + w_i x_k with amplitudes sqrt(W_i W_j W_k) u(p), and every
expectation value is a node sum.  Quadrature and truncation errors sit far
below the physical packet-spread effects, which scale as (w/m)^2.
Packet-path operators are Clifford matrices times functions of p, summed
against the bilinears a^dagger C_A a.  A packet holds its spec, not its
nodes: building it is one pass over the first-axis slabs that adds each
slab's norm and densities to running sums and drops it.  `momenta` and
`amplitudes` regenerate the nodes from the same slabs.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import algebra
from .report import Relation

# Per row: measured residual/(w/m)^2 over the width ladder {0.04, 0.02,
# 0.01}m for the reference packet (p0 = 0.6m zhat, transverse spin, m = 1),
# times a safety factor of ~4, and the residual's mass dimension (hbar = c =
# 1: p x sigma is a momentum, the odd term a momentum squared and an offset
# a length), so that a tolerance in the row's units is that times m^dim.
# Relations that are pointwise identities for on-shell spinors (T4, the odd
# term, the c-type kernel) sit at roundoff and get an absolute floor instead.
RESIDUAL_FLOOR = 1e-11
FG_RESIDUAL_COEFF = {
    "T_from_O": (1.0, 0),
    "T4_from_O": (0.0, 0),
    "O_from_T": (1.0, 0),
    "sigma_from_T": (1.5, 0),
    "ibeta_alpha_from_T": (2.1, 0),
    "momentum_cross_sigma": (2.1, 1),
    "odd_term_null": (0.0, 2),
    "mass_center_offset_c": (0.0, -1),
    "mass_center_offset_d": (1.1, -1),
    "mass_center_offset_e": (0.7, -1),
    "offset_ratio_d_e": (1.6, 0),
}
# Packets wider than this fraction of the mass are outside the sharp-spread
# regime; verification rows for them are downgraded to WARN.
SHARP_WIDTH_FRACTION = 0.05
# Half-extent of the momentum grid, in widths.  It cuts off 1 - erf(5)^3 ~
# 4.6e-12 of the continuum Gaussian mass |g|^2 ~ exp(-r^2/w^2), so no grid
# truncates the packet.
GRID_RADIUS = 5.0
# Widest grid spacing in widths, 2 GRID_RADIUS / (grid_points - 1).  Over 82
# packets (|p0| to 5m, m 0.5-3, anisotropic widths) the worst residual over
# tolerance is ~0.45 on fine grids, 0.52 at 1.5, 0.85 at 2.0; rows fail at 2.2.
MAX_GRID_SPACING = 1.5

# sum_ab conj(a_a) a_b C_A[a, b] on (re, im)-interleaved outer products
_CLIFFORD_COLUMNS = np.stack([algebra.CLIFFORD.real, -algebra.CLIFFORD.imag],
                             axis=-1).reshape(16, 32).T
_ONE, _GAMMA5 = 0, 2
_SIGMA, _IBETA_ALPHA, _BETA_SIGMA = slice(7, 10), slice(10, 13), slice(13, 16)
# The 3-vector expectations that the packet's pass sums, one row each;
# "p_sigma" holds <p_i Sigma_i> per component, whose sum is m <T4> / i
_VECTOR_SUMS = ("T", "O", "sigma", "ibeta_alpha", "p_cross_sigma",
                "odd") + algebra.PRYCE_KINDS + ("p", "p_sigma")


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclasses.dataclass
class MomentumWavePacket:
    """Sharp positive-energy packet on a momentum quadrature rule, held as
    its spec; its construction is its one pass over the nodes, which sets
    the norm and `expectations` and refuses what floats cannot hold."""

    axes: tuple              # three 1-D node arrays p0_i + w_i x_k
    weights: tuple           # three 1-D weight arrays W_k, carrying |g|^2
    widths: np.ndarray       # (3,)
    chi: np.ndarray          # (2,) rest-frame spinor
    mass: float
    shift: tuple = (0.0, 0.0, 0.0)   # translation a in position space
    norm: float = dataclasses.field(init=False)
    expectations: dict = dataclasses.field(init=False)

    def __post_init__(self):
        self.shift = np.asarray(self.shift, dtype=float)
        for arr in (*self.axes, *self.weights, self.widths, self.chi,
                    self.shift):
            arr.flags.writeable = False
        m = self.mass
        # gamma at the node farthest from p = 0 bounds gamma_bar; the e-type
        # Pryce factors take its cube, the mass-center offsets m^3
        p_max = math.hypot(*(float(np.max(np.abs(ax))) for ax in self.axes))
        gamma = math.hypot(m, p_max) / m
        if not math.isfinite(gamma * gamma * gamma + m * m * m):
            raise ValueError(f"gamma^3 or m^3 overflows (gamma = {gamma:.3g} "
                             f"at the outermost node, m = {m:.3g})")
        for i, ax in enumerate(self.axes):
            if not np.all(np.diff(ax) > 0.0):
                raise ValueError(f"the nodes of axis {i} coincide: width "
                                 f"{self.widths[i]:.3g} below float spacing")
        # |a|^2, at most prod_i max W_i in a slab (unit spinors) and 1 in
        # the normalised `amplitudes`, bounds each bilinear of a unitary
        # Clifford element, and with q = p_max / m each density is at most
        # K |a|^2, K = 4 (1 + q)^2 max(1, m^2, 1/m) (T, O: 4 (1 + q); p x
        # Sigma, p: 2 q m; odd: sqrt(3) q^2 m^2; offsets, |f_k| <= 1: (1 +
        # q)^2 / m), so either's N-node sums are at most N K a_max.
        a_max = max(1.0, math.prod(float(np.max(w)) for w in self.weights))
        bound = (math.prod(ax.size for ax in self.axes) * 4.0 * a_max
                 * (1.0 + p_max / m) ** 2 * max(1.0, m * m, 1.0 / m))
        if not bound < math.inf:
            raise ValueError(f"density sums overflow (bound {bound:.3g})")
        # each slab's bilinears b[A] = a^dagger C_A a (C = algebra.CLIFFORD)
        # feed every density of `_VECTOR_SUMS` once, and no name holds the
        # outer product while they are formed; each adds its slab sum to
        # its row a component at a time (np.sum over two axes, keeping the
        # components, runs ~4x slower); the norm adds the slab's sum of |a|^2
        norm, sums = 0.0, np.zeros((len(_VECTOR_SUMS), 3))
        for p, a in self._slabs():
            norm += float(np.sum(a.real**2 + a.imag**2))
            b = ((a.conj()[..., :, None] * a[..., None, :]).reshape(-1, 16)
                 .view(float) @ _CLIFFORD_COLUMNS).reshape(p.shape[:-1] + (16,))
            for row, density in enumerate(_densities(p, b, m)):
                sums[row] += [np.sum(density[..., k]) for k in range(3)]
        self.norm = norm
        # a non-finite amplitude makes the norm non-finite too
        if not 0.0 < norm < math.inf:
            raise ValueError(f"packet norm {norm:.3g} is zero or not finite")
        # <T4> = i sum_i <p_i Sigma_i> / m
        vals = dict(zip(_VECTOR_SUMS, _read_only(sums / norm)))
        vals["T4"] = 1j * float(np.sum(vals.pop("p_sigma"))) / m
        self.expectations = vals

    def _slabs(self):
        """Each first-axis slab's momenta (n2, n3, 3), broadcast from the
        axes, and un-normalised amplitudes (n2, n3, 4): sqrt(W_i W_j W_k)
        times u(p), times exp(-i p.a) for a translation a."""
        ax1, ax2, ax3 = self.axes
        w1, w2, w3 = self.weights
        tail = np.stack(np.meshgrid(ax2, ax3, indexing="ij"), axis=-1)
        for p1, weight in zip(ax1, w1):
            p = np.empty(tail.shape[:2] + (3,))
            p[..., 0], p[..., 1:] = p1, tail
            envelope = np.sqrt(weight * np.outer(w2, w3))
            a = envelope[..., None] * positive_energy_spinor(p, self.chi,
                                                             self.mass)
            if self.shift.any():
                a = a * np.exp(-1j * (p @ self.shift))[..., None]
            yield p, a

    @functools.cached_property
    def momenta(self) -> np.ndarray:
        """The (n1, n2, n3, 3) grid momenta."""
        return _read_only(np.stack([p for p, _ in self._slabs()]))

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The (n1, n2, n3, 4) normalised amplitudes."""
        scale = np.sqrt(self.norm)
        return _read_only(np.stack([a / scale for _, a in self._slabs()]))

    @functools.cached_property
    def gamma_bar(self) -> float:
        """Dilation factor of the packet, E(<p>)/m."""
        return float(algebra.energy(self.expectations["p"], self.mass)
                     / self.mass)

    @functools.cached_property
    def velocity(self) -> np.ndarray:
        return _read_only(self.expectations["p"]
                          / (self.gamma_bar * self.mass))

    @property
    def is_sharp(self) -> bool:
        return float(np.max(self.widths)) <= SHARP_WIDTH_FRACTION * self.mass

    def translated(self, a) -> "MomentumWavePacket":
        """Packet shifted in position space by `a` (phase twist exp(-i p.a))."""
        return dataclasses.replace(
            self, shift=self.shift + np.asarray(a, dtype=float))


def rest_spinor(direction) -> np.ndarray:
    """2-spinor chi with <chi| sigma |chi> along the given unit direction."""
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n == 0:
        raise ValueError("spin direction must be nonzero")
    d = d / n
    if d[2] >= 0.0:
        chi = np.array([1.0 + d[2], d[0] + 1j * d[1]], dtype=complex)
    else:
        # stable near the south pole
        chi = np.array([d[0] - 1j * d[1], 1.0 - d[2]], dtype=complex)
    return chi / np.linalg.norm(chi)


def positive_energy_spinor(p, chi, m: float) -> np.ndarray:
    """u(p) = fw(-1) (chi, 0): normalized positive-energy eigenspinor of H(p).

    Closed form  u = ((E+m) chi, (sigma.p) chi) / sqrt(2E(E+m)).
    Broadcasts over momenta of shape (..., 3); returns (..., 4).
    """
    p = np.asarray(p, dtype=float)
    e = algebra.energy(p, m)
    lower = p @ (algebra.PAULI @ chi)  # (sigma.p) chi
    upper = np.multiply.outer(e + m, chi)
    u = np.concatenate([upper, lower], axis=-1)
    return u / np.sqrt(2.0 * e * (e + m))[..., None]


def _gaussian_packet(p0, widths, spin_direction, m, rule):
    """The packet with nodes p0_i + w_i x_k and weights W_k of `rule`, the
    read-only pair (x, W) in width units."""
    x, weights = rule
    if x.size < 2:
        raise ValueError("a rule needs at least 2 nodes; one has no spread")
    p0 = np.asarray(p0, dtype=float)
    w = np.broadcast_to(np.asarray(widths, dtype=float), (3,)).copy()
    if np.any(w <= 0.0):
        raise ValueError("packet widths must be positive")
    return MomentumWavePacket(tuple(p0[i] + w[i] * x for i in range(3)),
                              (weights,) * 3, w, rest_spinor(spin_direction),
                              m)


def make_gaussian_packet(p0, widths, spin_direction, m: float = 1.0,
                         grid_points: int = 32) -> MomentumWavePacket:
    """Build a normalized sharp packet centred at p0 on the uniform rule.

    `widths` sets the per-axis Gaussian amplitude scale; the grid spans
    `GRID_RADIUS` widths each way.  Non-positive widths are rejected, as are
    packets that floats cannot hold (see `MomentumWavePacket`).
    """
    return _gaussian_packet(p0, widths, spin_direction, m,
                            uniform_rule(grid_points))


@functools.cache
def uniform_rule(n: int):
    """Read-only nodes x_k and weights W_k = h exp(-x_k^2) of the n-point
    uniform rule over `GRID_RADIUS` widths each way, h = 2 GRID_RADIUS /
    (n - 1): a grid cell times |g|^2, in width units."""
    if n < 4:
        raise ValueError("grid needs at least 4 points per axis")
    x = np.linspace(-GRID_RADIUS, GRID_RADIUS, n)
    return _read_only(x), _read_only(2.0 * GRID_RADIUS / (n - 1)
                                     * np.exp(-x * x))


@functools.cache
def gauss_hermite_rule(n: int):
    """Read-only nodes x_k and weights W_k of the n-point Gauss-Hermite rule
    (Golub & Welsch, Math. Comp. 23, 221 (1969)): the eigenvalues of the
    Jacobi matrix, off-diagonal sqrt(k/2), and W_k = sqrt(pi) v_0k^2 = 1 /
    sum_j p_j(x_k)^2 from the eigenvector v_k ~ (p_0 ... p_{n-1})(x_k) of
    orthonormal Hermite polynomials, built by their recurrence so the tail
    weights keep their relative accuracy."""
    off = np.sqrt(np.arange(1, n) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    prev, cur, total = np.zeros(n), np.full(n, np.pi ** -0.25), np.zeros(n)
    for j in range(n):
        total += cur * cur
        prev, cur = cur, ((x * cur - math.sqrt(j / 2.0) * prev)
                          / math.sqrt((j + 1) / 2.0))
    return _read_only(x), _read_only(1.0 / total)


def gauss_hermite_packet(p0, widths, spin_direction, m: float = 1.0, *,
                         nodes: int) -> MomentumWavePacket:
    """The packet of `make_gaussian_packet` on the product Gauss-Hermite
    rule: `nodes` per axis at p0_i + w_i x_k, weighted by W_k."""
    return _gaussian_packet(p0, widths, spin_direction, m,
                            gauss_hermite_rule(nodes))


def expectation_position(packet: MomentumWavePacket) -> np.ndarray:
    """<x> in the momentum representation: expectation of i d/dp.

    The amplitudes are differentiated spectrally (FFT), so each axis must
    hold at least 4 evenly spaced nodes, as the uniform rule does.  The
    result picks up a spin-dependent offset away from zero for moving
    packets because the spinor itself carries momentum dependence.
    """
    out = np.empty(3)
    for axis, ax in enumerate(packet.axes):
        # p0 + w x_k (|w x_k| <= the largest |node|) sits within 4 ulp of
        # the axis' largest |node| of its exact value, so a gap strays from
        # the mean gap by under 16
        n = ax.size
        step = (ax[-1] - ax[0]) / (n - 1) if n >= 4 else 0.0
        if not (step > 0.0 and np.max(np.abs(np.diff(ax) - step))
                <= 16.0 * np.spacing(np.max(np.abs(ax)))):
            raise ValueError("expectation_position needs the uniform rule; "
                             "these nodes have no uniform spacing")
        a = packet.amplitudes
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=step)
        shape = [1, 1, 1, 1]
        shape[axis] = n
        da = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(a, axis=axis),
                         axis=axis)
        val = 1j * np.einsum("pqra,pqra->", a.conj(), da)
        if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
            raise ValueError("position expectation came out complex; "
                             "amplitudes are not smooth on this grid")
        out[axis] = val.real
    return out


def _densities(p, b, m):
    """The per-point 3-vector densities of `_VECTOR_SUMS`, in its order, at
    momenta p (..., 3) from bilinears b[X] = a^dagger X a (..., 16).

    T = b[beta Sigma] - p b[gamma5] / m, and O = fw(-1) beta Sigma fw(+1)
    expanded with A = beta alpha.p, A^2 = -p^2, [beta Sigma_i, A] =
    -2 p_i gamma5, A beta Sigma_i A = 2 p_i p.beta Sigma - p^2 beta Sigma_i:
    O_i = beta Sigma_i - p_i gamma5 / E - p_i p.beta Sigma / (E (E + m)).
    Each mass-center offset is the kernel's factor-table form
    f1 i beta alpha / 2m + f2 p x Sigma / 2m^2 + f3 i beta (alpha.p) p / 2m^3.
    <p> is p b[1], and p_i b[Sigma_i] sums to m <T4> / i.
    """
    e = algebra.energy(p, m)[..., None]
    b_sigma, b_iba = b[..., _SIGMA], b[..., _IBETA_ALPHA]
    b_bs, b_g5 = b[..., _BETA_SIGMA], b[..., _GAMMA5, None]
    cross = np.cross(p, b_sigma)
    odd = p * np.einsum("...j,...j->...", p, b_iba)[..., None]
    p_beta_sigma = np.einsum("...j,...j->...", p, b_bs)[..., None]
    yield b_bs - p * b_g5 / m
    yield b_bs - p * b_g5 / e - p * p_beta_sigma / (e * (e + m))
    yield from (b_sigma, b_iba, cross, odd)
    for kind in algebra.PRYCE_KINDS:
        f1, f2, f3 = algebra.pryce_factors(kind, e / m)[:3]
        yield (f1 * b_iba / (2.0 * m) + f2 * cross / (2.0 * m**2)
               + f3 * odd / (2.0 * m**3))
    yield p * b[..., _ONE, None]
    yield p * b_sigma


def verify_fg_relations(packet: MomentumWavePacket) -> dict[str, Relation]:
    """Residuals of the expectation-value relations tying T, T4, O, sigma.

    Relations checked (g = dilation factor, v = packet velocity):
      T_from_O:             <T>  = <O> + g^2/(g+1) (v.<O>) v
      T4_from_O:            <T4> = i g v.<O>
      O_from_T:             <O>  = <T> - g/(g+1) (v.<T>) v
      sigma_from_T:         <sigma> = <T>/g
      ibeta_alpha_from_T:   <i beta alpha> = <T> x <p> / (g m)
      momentum_cross_sigma: <p x sigma> = <p> x <T> / g
      odd_term_null:        <i beta (alpha.p) p> = 0
    All residuals scale as (width/m)^2 for sharp packets.  Returns the
    relations by name in this order; the lhs of T_from_O is <T>.
    """
    vals, m, g = packet.expectations, packet.mass, packet.gamma_bar
    v, p, tbar, obar = packet.velocity, vals["p"], vals["T"], vals["O"]
    relations = [
        Relation("T_from_O", tbar,
                 obar + g**2 / (g + 1.0) * np.dot(v, obar) * v),
        Relation("T4_from_O", vals["T4"], 1j * g * np.dot(v, obar)),
        Relation("O_from_T", obar,
                 tbar - g / (g + 1.0) * np.dot(v, tbar) * v),
        Relation("sigma_from_T", vals["sigma"], tbar / g),
        Relation("ibeta_alpha_from_T", vals["ibeta_alpha"],
                 np.cross(tbar, p) / (g * m)),
        Relation("momentum_cross_sigma", vals["p_cross_sigma"],
                 np.cross(p, tbar) / g),
        Relation("odd_term_null", vals["odd"], np.zeros(3)),
    ]
    return {rel.name: rel for rel in relations}


def mass_center_offset(packet: MomentumWavePacket, kind) -> np.ndarray:
    """<X_P> - <x> for one type, read from the packet's one pass."""
    if kind not in algebra.PRYCE_KINDS:
        raise ValueError(f"unknown Pryce kind {kind!r}")
    return packet.expectations[kind]


def verify_main_result(packet: MomentumWavePacket, kind) -> Relation:
    """Check <X_P> - <x> (the lhs) = fP(g) <T> x <p> / (2 m^2 g), one type."""
    m, g = packet.mass, packet.gamma_bar
    fp = algebra.pryce_factors(kind, g)[3]
    vals = packet.expectations
    predicted = fp * np.cross(vals["T"], vals["p"]) / (2.0 * m * m * g)
    return Relation(f"mass_center_offset_{kind}",
                    mass_center_offset(packet, kind), predicted)


def fg_tolerance(name: str, packet: MomentumWavePacket) -> float:
    """Pass threshold for one relation: coeff * (max width / m)^2, floored,
    times m^dim, the row's unit."""
    coeff, dim = FG_RESIDUAL_COEFF[name]
    scale = float(np.max(packet.widths)) / packet.mass
    return max(coeff * scale * scale, RESIDUAL_FLOOR) * packet.mass ** dim


def offset_ratio_residual(packet: MomentumWavePacket) -> float | None:
    """The offset_ratio_d_e row: |<X_d> - <x>| / |<X_e> - <x>| against
    1 + g, as a relative residual.  None where |<X_e> - <x>| is within the
    e row's own tolerance: there both offsets are spread effects (at rest,
    or with spin along p0), and so is their ratio."""
    d, e = (float(np.linalg.norm(mass_center_offset(packet, kind)))
            for kind in "de")
    if not e > fg_tolerance("mass_center_offset_e", packet):
        return None
    g = packet.gamma_bar
    return abs(d / e - (1.0 + g)) / (1.0 + g)
