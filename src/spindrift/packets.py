"""Positive-energy Gaussian wave packets on a momentum quadrature rule.

The spinor at momentum p is the positive-energy eigenspinor of H(p) whose
Foldy-Wouthuysen image is a fixed rest spinor chi: u(p) = V q, V = [(chi,
0) | (0, sigma_i chi)], q = (E + m, p) / sqrt(2E(E + m)) a real unit
4-vector.  The envelope is g(p) ~ exp(-sum_i (p_i - p0_i)^2 / (2 w_i^2)).
A rule is nodes x_k and weights W_k carrying |g|^2 = exp(-x^2)
(`uniform_rule`, a grid over `GRID_RADIUS` widths each way, or
`gauss_hermite_rule`); a packet holds nodes p0_i + w_i x_k with amplitudes
a = sqrt(W_i W_j W_k) u(p).  Packet-path operators are Clifford matrices
times functions of p, so every expectation is a node sum of scalars X(p)
times bilinears a^dagger C_A a = W q^T M q, M a table built once from chi;
a translation's phase exp(-i p.a) cancels in each, so it moves none.  A
packet holds its spec, not its nodes: building it is one pass over the
first-axis slabs, each adding X b to a small table.
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

# The monomials q_mu q_nu (mu <= nu) of the unit 4-vector q, in this order
_MU, _NU = np.triu_indices(4)
# The pass's table.  Columns: b[A] = a^dagger C_A a (C = algebra.CLIFFORD),
# p.b[i beta alpha], p.b[beta Sigma].  Rows: the per-node scalars 1, p, p/E,
# p/(E(E+m)), then per Pryce kind f1, f2 p and f3 p
_ONE, _GAMMA5, _P_IBA, _P_BS = 0, 2, 16, 17
_SIGMA, _IBETA_ALPHA, _BETA_SIGMA = slice(7, 10), slice(10, 13), slice(13, 16)
_P, _P_E, _P_EEM = slice(1, 4), slice(4, 7), slice(7, 10)
_KINDS, _SCALARS = slice(10, None), 31     # 7 rows per kind from row 10


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
        # |b[A]| <= |a|^2 <= a_max = prod_i max W_i (|q| = 1, unitary C_A),
        # and each table entry or assembled density is at most K a_max a
        # node, r = p_max / m, K = 4 (1 + r)^2 max(1, m^2, 1/m) (T, O: 4 (1
        # + r); p x Sigma, p: 2 r m; odd: sqrt(3) r^2 m^2; offsets: (1 +
        # r)^2 / m; X times b or p.b: 2 max(1, p_max^2, 1/m)).
        a_max = max(1.0, math.prod(float(np.max(w)) for w in self.weights))
        bound = (math.prod(ax.size for ax in self.axes) * 4.0 * a_max
                 * (1.0 + p_max / m) ** 2 * max(1.0, m * m, 1.0 / m))
        if not bound < math.inf:
            raise ValueError(f"density sums overflow (bound {bound:.3g})")
        # X, a workspace, takes each slab's row scalars; the table adds X b
        table = np.zeros((_SCALARS, 18))
        x = np.ones((_SCALARS, self.axes[1].size * self.axes[2].size))
        for p, b in self._slabs():
            x[_P], e = p.T, algebra.energy(p, m)
            np.divide(x[_P], e, out=x[_P_E])
            np.divide(x[_P_E], e + m, out=x[_P_EEM])
            for kind, k in zip(algebra.PRYCE_KINDS, np.split(x[_KINDS], 3)):
                f1, f2, f3 = algebra.pryce_factors(kind, e / m)[:3]
                k[0], k[1:4], k[4:] = f1, f2 * x[_P], f3 * x[_P]
            table += x @ b
        # the norm is sum |a|^2 = sum b[1], non-finite with any amplitude
        self.norm = norm = float(table[0, _ONE])
        if not 0.0 < norm < math.inf:
            raise ValueError(f"packet norm {norm:.3g} is zero or not finite")
        self.expectations = _expectations(table / norm, m)

    def _slabs(self):
        """Each first-axis slab's momenta p (N, 3), N = n2 n3, and columns b
        (N, 18) of the table: for amplitudes a = sqrt(W) u(p) exp(-i p.a),
        b[A] = a^dagger C_A a = W q^T M q (M = `_bilinear_table`), so the
        phase cancels.  p (its row 0 the slab's node), the monomials W q_mu
        q_nu and b are workspaces that each slab refills."""
        w23 = np.outer(*self.weights[1:]).reshape(-1)
        p, mono, b = (np.empty((k, w23.size)) for k in (3, 10, 18))
        p[1:] = [c.ravel() for c in np.meshgrid(*self.axes[1:], indexing="ij")]
        table = _bilinear_table(self.chi)
        for p[0], weight in zip(self.axes[0], self.weights[0]):
            q = _unit_four_vector(p.T, self.mass).T
            wq = weight * w23 * q
            for mu, row in enumerate((0, 4, 7, 9)):
                np.multiply(q[mu:], wq[mu], out=mono[row:row + 4 - mu])
            np.matmul(table, mono, out=b[:16])
            np.einsum("jn,cjn->cn", p, b[10:16].reshape(2, 3, -1), out=b[16:])
            yield p.T, b.T

    @functools.cached_property
    def momenta(self) -> np.ndarray:
        """The (n1, n2, n3, 3) node momenta."""
        return _read_only(np.stack(np.meshgrid(*self.axes, indexing="ij"), -1))

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The (n1, n2, n3, 4) amplitudes sqrt(W / norm) u(p) exp(-i p.a)."""
        p, (w1, w2, w3) = self.momenta, self.weights
        w = np.sqrt(w1[:, None, None] * np.outer(w2, w3) / self.norm)
        u = positive_energy_spinor(p, self.chi, self.mass)
        return _read_only(w[..., None] * u
                          * np.exp(-1j * (p @ self.shift))[..., None])

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


def _unit_four_vector(p, m: float) -> np.ndarray:
    """q = (E + m, p) / sqrt(2E(E + m)), a real unit 4-vector (..., 4)."""
    e = algebra.energy(p, m)
    q = np.stack([e + m, *np.moveaxis(p, -1, 0)])
    q /= np.sqrt(2.0 * e * q[0])
    return np.moveaxis(q, 0, -1)


def _spinor_frame(chi) -> np.ndarray:
    """V (4, 4) = [(chi, 0) | (0, sigma_i chi)], so that u(p) = V q."""
    v = np.zeros((4, 4), dtype=complex)
    v[:2, 0], v[2:, 1:] = chi, (algebra.PAULI @ chi).T
    return v


def _bilinear_table(chi) -> np.ndarray:
    """M (16, 10): u^dagger C_A u = q^T G_A q, G_A = Re(V^dagger C_A V)
    symmetric, = sum_k M[A, k] mono_k over monomials q_mu q_nu, mu <= nu."""
    v = _spinor_frame(chi)
    g = np.einsum("am,Aab,bn->Amn", v.conj(), algebra.CLIFFORD, v).real
    return np.where(_MU == _NU, 1.0, 2.0) * g[:, _MU, _NU]


def positive_energy_spinor(p, chi, m: float) -> np.ndarray:
    """u(p) = fw(-1) (chi, 0): normalized positive-energy eigenspinor of H(p).

    Closed form  u = ((E+m) chi, (sigma.p) chi) / sqrt(2E(E+m)) = V q.
    Broadcasts over momenta of shape (..., 3); returns (..., 4).
    """
    p = np.asarray(p, dtype=float)
    return _unit_four_vector(p, m) @ _spinor_frame(chi).T


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


def _expectations(s, m):
    """Every expectation from the table s of normalised node sums.

    T = beta Sigma - p gamma5 / m, and O = fw(-1) beta Sigma fw(+1)
    expanded with A = beta alpha.p, A^2 = -p^2, [beta Sigma_i, A] =
    -2 p_i gamma5, A beta Sigma_i A = 2 p_i p.beta Sigma - p^2 beta Sigma_i:
    O_i = beta Sigma_i - p_i gamma5 / E - p_i p.beta Sigma / (E (E + m)).
    Each mass-center offset is the kernel's factor-table form
    f1 i beta alpha / 2m + f2 p x Sigma / 2m^2 + f3 i beta (alpha.p) p / 2m^3.
    <p> is p b[1], and p_i b[Sigma_i] sums to m <T4> / i.
    """
    def curl(block):    # eps_ijk block[j, k]
        return np.einsum("ijk,jk->i", algebra._EPS, block)

    vals = {
        "T": s[0, _BETA_SIGMA] - s[_P, _GAMMA5] / m,
        "O": s[0, _BETA_SIGMA] - s[_P_E, _GAMMA5] - s[_P_EEM, _P_BS],
        "sigma": s[0, _SIGMA], "ibeta_alpha": s[0, _IBETA_ALPHA],
        "p_cross_sigma": curl(s[_P, _SIGMA]), "odd": s[_P, _P_IBA],
        "p": s[_P, _ONE],
    }
    for kind, k in zip(algebra.PRYCE_KINDS, np.split(s[_KINDS], 3)):
        vals[kind] = (k[0, _IBETA_ALPHA] / (2.0 * m)
                      + curl(k[1:4, _SIGMA]) / (2.0 * m**2)
                      + k[4:, _P_IBA] / (2.0 * m**3))
    vals = {key: _read_only(np.array(value)) for key, value in vals.items()}
    vals["T4"] = 1j * float(np.trace(s[_P, _SIGMA])) / m
    return vals


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
