"""Positive-energy Gaussian wave packets on a momentum grid.

A packet stores one 4-spinor amplitude per grid point.  The spinor at grid
momentum p is the positive-energy eigenspinor of H(p) whose Foldy-Wouthuysen
image carries a fixed 2-spinor polarization, so the rest-frame spin direction
is the same at every point.  The envelope is a product Gaussian

    g(p)  ~  exp( -sum_i (p_i - p0_i)^2 / (2 w_i^2) )

(w_i is the amplitude scale; the probability density |g|^2 then has per-axis
standard deviation w_i / sqrt(2)).  Expectation values are plain grid sums
weighted by the cell volume; with the default 5-width truncation both the
quadrature and truncation errors sit far below the physical packet-spread
effects, which scale as (w/m)^2.  Packet-path operators are Clifford
matrices times functions of p, summed against the packet's bilinear table;
`expectation`, on dense (..., 4, 4) kernels, is the oracle for that route.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import PryceKind
from .report import Relation

# Measured residual/(w/m)^2 over the width ladder {0.04, 0.02, 0.01}m for the
# reference packet (p0 = 0.6m zhat, transverse spin), times a safety factor
# of ~4.  Used to turn a packet width into a pass threshold per relation.
# Relations that are pointwise identities for on-shell spinors (T4, the odd
# term, the c-type kernel) sit at roundoff and get an absolute floor instead.
RESIDUAL_FLOOR = 1e-11
FG_RESIDUAL_COEFF = {
    "T_from_O": 1.0,
    "T4_from_O": 0.0,
    "O_from_T": 1.0,
    "sigma_from_T": 1.5,
    "ibeta_alpha_from_T": 2.1,
    "momentum_cross_sigma": 2.1,
    "odd_term_null": 0.0,
    "mass_center_offset_c": 0.0,
    "mass_center_offset_d": 1.1,
    "mass_center_offset_e": 0.7,
    "offset_ratio_d_e": 1.6,
}
# Packets wider than this fraction of the mass are outside the sharp-spread
# regime; verification rows for them are downgraded to WARN.
SHARP_WIDTH_FRACTION = 0.05
# Fraction of the continuum Gaussian mass a grid may cut off.
MAX_TRUNCATED_MASS = 1e-6
# Largest imaginary part, relative to the magnitude, that a declared-Hermitian
# expectation may carry.
IMAG_TOL = 1e-12

# sum_ab conj(a_a) a_b C_A[a, b] on (re, im)-interleaved outer products
_CLIFFORD_COLUMNS = np.stack([algebra.CLIFFORD.real, -algebra.CLIFFORD.imag],
                             axis=-1).reshape(16, 32).T
_ONE, _GAMMA5 = 0, 2
_SIGMA, _IBETA_ALPHA, _BETA_SIGMA = slice(7, 10), slice(10, 13), slice(13, 16)


@dataclass
class MomentumWavePacket:
    """Sharp positive-energy packet sampled on a regular momentum lattice."""

    momenta: np.ndarray      # (n1, n2, n3, 3)
    amplitudes: np.ndarray   # (n1, n2, n3, 4) complex
    cell_volume: float
    center: np.ndarray       # (3,)
    widths: np.ndarray       # (3,)
    spacings: np.ndarray     # (3,)
    mass: float

    def __post_init__(self):
        for arr in (self.momenta, self.amplitudes, self.center,
                    self.widths, self.spacings):
            arr.flags.writeable = False

    @functools.cached_property
    def bilinears(self) -> np.ndarray:
        """(n1, n2, n3, 16) real table a^dagger C_A a, C = algebra.CLIFFORD."""
        a = self.amplitudes
        outer = (a.conj()[..., :, None] * a[..., None, :]).reshape(-1, 16)
        table = (outer.view(float) @ _CLIFFORD_COLUMNS).reshape(
            a.shape[:3] + (16,))
        table.flags.writeable = False
        return table

    @property
    def norm_squared(self) -> float:
        return float(self.bilinears[..., _ONE].sum() * self.cell_volume)

    @property
    def mean_momentum(self) -> np.ndarray:
        return np.einsum("pqr,pqri->i", self.bilinears[..., _ONE],
                         self.momenta) * self.cell_volume

    @property
    def gamma_bar(self) -> float:
        """Dilation factor of the packet, E(<p>)/m."""
        return float(algebra.energy(self.mean_momentum, self.mass) / self.mass)

    @property
    def velocity(self) -> np.ndarray:
        return self.mean_momentum / (self.gamma_bar * self.mass)

    @property
    def is_sharp(self) -> bool:
        return float(np.max(self.widths)) <= SHARP_WIDTH_FRACTION * self.mass

    def translated(self, a) -> "MomentumWavePacket":
        """Packet shifted in position space by `a` (phase twist exp(-i p.a))."""
        a = np.asarray(a, dtype=float)
        phase = np.exp(-1j * np.einsum("...i,i->...", self.momenta, a))
        return MomentumWavePacket(self.momenta,
                                  self.amplitudes * phase[..., None],
                                  self.cell_volume, self.center.copy(),
                                  self.widths.copy(), self.spacings.copy(),
                                  self.mass)


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


def make_gaussian_packet(p0, widths, spin_direction, m: float = 1.0,
                         grid_points: int = 32,
                         grid_radius: float = 5.0) -> MomentumWavePacket:
    """Build a normalized sharp packet centred at p0.

    `widths` sets the per-axis Gaussian amplitude scale, `grid_radius` the
    half-extent of the lattice in units of the width.  Grids that cut off
    more than 1e-6 of the continuum Gaussian mass are rejected, as are
    non-positive widths.
    """
    p0 = np.asarray(p0, dtype=float)
    w = np.broadcast_to(np.asarray(widths, dtype=float), (3,)).copy()
    if np.any(w <= 0.0):
        raise ValueError("packet widths must be positive")
    if grid_points < 4:
        raise ValueError("grid needs at least 4 points per axis")
    # mass of |g|^2 ~ exp(-r^2/w^2) outside +-R per axis is erfc(R/w)
    retained = math.prod(math.erf(grid_radius) for _ in range(3))
    if 1.0 - retained > MAX_TRUNCATED_MASS:
        raise ValueError(
            f"grid radius {grid_radius} widths truncates "
            f"{1.0 - retained:.2e} of the Gaussian mass (limit "
            f"{MAX_TRUNCATED_MASS:.0e})")

    axes = [p0[i] + np.linspace(-grid_radius * w[i], grid_radius * w[i],
                                grid_points) for i in range(3)]
    spacings = np.array([ax[1] - ax[0] for ax in axes])
    grids = np.meshgrid(*axes, indexing="ij")
    momenta = np.stack(grids, axis=-1)

    delta = momenta - p0
    envelope = np.exp(-np.sum(delta**2 / (2.0 * w**2), axis=-1))
    chi = rest_spinor(spin_direction)
    spinors = positive_energy_spinor(momenta, chi, m)
    amplitudes = envelope[..., None] * spinors

    cell = float(np.prod(spacings))
    norm = np.einsum("pqra,pqra->", amplitudes.conj(),
                     amplitudes).real * cell
    amplitudes = amplitudes / np.sqrt(norm)
    return MomentumWavePacket(momenta, amplitudes, cell, p0, w, spacings, m)


def expectation(packet: MomentumWavePacket, kernel, hermitian: bool = True):
    """Grid-sum expectation value of a matrix-valued kernel.

    `kernel` is either an array evaluated on the packet grid or a callable
    applied to `packet.momenta`; shapes (..., 4, 4) give a scalar result and
    (..., 3, 4, 4) a 3-vector.  For a kernel declared Hermitian the imaginary
    part must stay below `IMAG_TOL` (relative to the magnitude), and the real
    part is returned.
    """
    k = kernel(packet.momenta) if callable(kernel) else np.asarray(kernel)
    a = packet.amplitudes
    if k.ndim == a.ndim + 1:
        density = np.einsum("pqra,pqrab,pqrb->pqr", a.conj(), k, a)
    elif k.ndim == a.ndim + 2:
        density = np.einsum("pqra,pqriab,pqrb->pqri", a.conj(), k, a)
    else:
        raise ValueError(f"kernel shape {k.shape} does not match packet grid")
    return grid_expectation(packet, density, hermitian)


def grid_expectation(packet: MomentumWavePacket, density,
                     hermitian: bool = True):
    """Grid sum of a per-point expectation density (grid or grid + (3,)).

    A declared-Hermitian result must have an imaginary part below `IMAG_TOL`
    (relative to its magnitude); its real part is returned.
    """
    val = np.sum(density, axis=(0, 1, 2)) * packet.cell_volume
    val = complex(val) if np.ndim(val) == 0 else val
    if not hermitian:
        return val
    imag = float(np.max(np.abs(np.imag(val))))
    if imag > IMAG_TOL * max(1.0, float(np.max(np.abs(np.real(val))))):
        raise ValueError(f"kernel declared Hermitian but expectation has "
                         f"imaginary part {imag:.3e}")
    return val.real


def expectation_position(packet: MomentumWavePacket) -> np.ndarray:
    """<x> in the momentum representation: expectation of i d/dp.

    The amplitudes are differentiated spectrally (FFT).  The result picks
    up a spin-dependent offset away from zero for moving packets because
    the spinor itself carries momentum dependence.
    """
    a = packet.amplitudes
    if min(a.shape[:3]) < 4:
        raise ValueError("grid too coarse for differentiation stencil")
    out = np.empty(3)
    for axis in range(3):
        n = a.shape[axis]
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=packet.spacings[axis])
        shape = [1, 1, 1, 1]
        shape[axis] = n
        da = np.fft.ifft(1j * k.reshape(shape) * np.fft.fft(a, axis=axis),
                         axis=axis)
        val = 1j * np.einsum("pqra,pqra->", a.conj(), da) * packet.cell_volume
        if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
            raise ValueError("position expectation came out complex; "
                             "amplitudes are not smooth on this grid")
        out[axis] = val.real
    return out


def _cross_and_odd_density(packet: MomentumWavePacket):
    """Per-point <(p x Sigma)_i> and <i beta (alpha.p) p_i>."""
    p, b = packet.momenta, packet.bilinears
    odd = p * np.einsum("...j,...j->...", p, b[..., _IBETA_ALPHA])[..., None]
    return np.cross(p, b[..., _SIGMA]), odd


def _t_density(packet: MomentumWavePacket) -> np.ndarray:
    """Per-point <T> = b[beta Sigma] - p b[gamma5] / m."""
    b = packet.bilinears
    return (b[..., _BETA_SIGMA]
            - packet.momenta * b[..., _GAMMA5, None] / packet.mass)


def fg_expectations(packet: MomentumWavePacket) -> dict:
    """All expectation values entering the little-group/mean-spin relations.

    Grid sums over the bilinears b[X] = a^dagger X a: T = b[beta Sigma] -
    p b[gamma5] / m, T4 = i p.b[Sigma] / m, and O = fw(-1) beta Sigma fw(+1)
    expanded with A = beta alpha.p, A^2 = -p^2, [beta Sigma_i, A] =
    -2 p_i gamma5, A beta Sigma_i A = 2 p_i p.beta Sigma - p^2 beta Sigma_i:
    O_i = beta Sigma_i - p_i gamma5 / E - p_i p.beta Sigma / (E (E + m)).
    """
    m, p, b = packet.mass, packet.momenta, packet.bilinears
    e = algebra.energy(p, m)[..., None]
    sigma, beta_sigma = b[..., _SIGMA], b[..., _BETA_SIGMA]
    cross, odd = _cross_and_odd_density(packet)
    g5 = p * b[..., _GAMMA5, None]
    p_beta_sigma = np.einsum("...j,...j->...", p, beta_sigma)[..., None]
    return {
        "T": grid_expectation(packet, _t_density(packet)),
        "T4": grid_expectation(packet, 1j * np.sum(p * sigma, axis=-1) / m,
                               hermitian=False),
        "O": grid_expectation(packet, beta_sigma - g5 / e
                              - p * p_beta_sigma / (e * (e + m))),
        "sigma": grid_expectation(packet, sigma),
        "ibeta_alpha": grid_expectation(packet, b[..., _IBETA_ALPHA]),
        "p_cross_sigma": grid_expectation(packet, cross),
        "odd": grid_expectation(packet, odd),
        "p": packet.mean_momentum,
        "gamma_bar": packet.gamma_bar,
        "v": packet.velocity,
    }


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
    m = packet.mass
    vals = fg_expectations(packet)
    g, v, p = vals["gamma_bar"], vals["v"], vals["p"]
    tbar, obar = vals["T"], vals["O"]
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
    """<X_P> - <x> for one type, from the kernel's factor-table form."""
    m = packet.mass
    f1, f2, f3 = (np.asarray(f)[..., None] for f in algebra.pryce_factors(
        kind, algebra.energy(packet.momenta, m) / m)[:3])
    cross, odd = _cross_and_odd_density(packet)
    return grid_expectation(
        packet, f1 * packet.bilinears[..., _IBETA_ALPHA] / (2.0 * m)
        + f2 * cross / (2.0 * m**2) + f3 * odd / (2.0 * m**3))


def verify_main_result(packet: MomentumWavePacket, kind,
                       tbar=None) -> Relation:
    """Check <X_P> - <x> (the lhs) = fP(g) <T> x <p> / (2 m^2 g), one type.

    `tbar` may pass in <T>, the lhs of verify_fg_relations' T_from_O.
    """
    kind = PryceKind.coerce(kind)
    m = packet.mass
    g = packet.gamma_bar
    if tbar is None:
        tbar = grid_expectation(packet, _t_density(packet))
    fp = algebra.pryce_factors(kind, g)[3]
    predicted = fp * np.cross(tbar, packet.mean_momentum) / (2.0 * m * m * g)
    return Relation(f"mass_center_offset_{kind.value}",
                    mass_center_offset(packet, kind), predicted)


def fg_tolerance(name: str, packet: MomentumWavePacket) -> float:
    """Pass threshold for one relation: coeff * (max width / m)^2, floored."""
    coeff = FG_RESIDUAL_COEFF[name]
    scale = float(np.max(packet.widths)) / packet.mass
    return max(coeff * scale * scale, RESIDUAL_FLOOR)
