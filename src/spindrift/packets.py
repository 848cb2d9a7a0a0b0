"""Positive-energy Gaussian wave packets on a Gauss-Hermite rule.

The spinor at momentum p is the positive-energy eigenspinor of H(p) whose
Foldy-Wouthuysen image is a fixed rest spinor chi: u(p) = V q, V = [(chi,
0) | (0, sigma_i chi)], q = (E + m, p) / sqrt(2E(E + m)) a real unit
4-vector.  The envelope is g(p) ~ exp(-sum_i (p_i - p0_i)^2 / (2 w_i^2)).
A rule is nodes x_k and weights W_k carrying |g|^2 = exp(-x^2)
(`gauss_hermite_rule`); a packet holds nodes p0_i + w_i x_k with amplitudes
a = sqrt(W_i W_j W_k) u(p).  Packet-path operators are Clifford matrices
times functions of p, so every expectation is a node sum of scalars X(p)
times bilinears a^dagger C_A a = W q^T M q, M a table built once from chi;
a translation's phase exp(-i p.a) cancels in each, so it moves none.  A
packet holds its spec, not its nodes: building it is one pass over the
first-axis slabs, each adding X b to a small table; X's rows for every
Pryce kind come from one `algebra.pryce_factors` table a slab.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import algebra, dynamics
from .report import Relation

# Per row: measured residual/(w/m)^2 over the width ladder {0.04, 0.02,
# 0.01}m for the reference packet (p0 = 0.6m zhat, transverse spin, m = 1),
# times a safety factor of ~4, and the residual's mass dimension (hbar = c =
# 1: p x sigma is a momentum, the odd term a momentum squared and an offset
# a length), so that a tolerance in the row's units is that times m^dim.
# offset_d_e reads 0.0998 there and at most 0.068 over 600 random sharp
# packets (|p0| <= 5m, m in [0.5, 3], any spin; numpy seed 2024).
# Relations that are pointwise identities for on-shell spinors (T4, the odd
# term, the c-type kernel) sit at roundoff and get a floor (`_floor`).
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
    "offset_d_e": (0.4, -1),
}
# Packets wider than this fraction of the mass are outside the sharp-spread
# regime; verification rows for them are downgraded to WARN.
SHARP_WIDTH_FRACTION = 0.05

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
            factors = algebra.pryce_factors(e / m).values()
            for (f1, f2, f3, _), k in zip(factors, np.split(x[_KINDS], 3)):
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
    """2-spinor chi with <chi| sigma |chi> along a nonzero `direction`."""
    d = np.asarray(direction, dtype=float)
    n = math.hypot(*d)  # scaled: no square overflows or underflows
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


def make_gaussian_packet(p0, widths, spin_direction, m: float = 1.0,
                         grid_points: int = 32) -> MomentumWavePacket:
    """Build a normalized sharp packet centred at p0 on the product
    Gauss-Hermite rule: `grid_points` nodes per axis at p0_i + w_i x_k,
    weighted by W_k.

    `widths` sets the per-axis Gaussian amplitude scale.  Non-positive
    widths are rejected, as are packets that floats cannot hold (see
    `MomentumWavePacket`).
    """
    if grid_points < 2:
        raise ValueError("a rule needs at least 2 nodes; one has no spread")
    x, weights = gauss_hermite_rule(grid_points)
    p0 = np.asarray(p0, dtype=float)
    w = np.broadcast_to(np.asarray(widths, dtype=float), (3,)).copy()
    if np.any(w <= 0.0):
        raise ValueError("packet widths must be positive")
    return MomentumWavePacket(tuple(p0[i] + w[i] * x for i in range(3)),
                              (weights,) * 3, w, rest_spinor(spin_direction),
                              m)


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
    # far in the tail of a large rule the sum overflows, and then the
    # recurrence itself (inf - inf); such a weight is below 1 / DBL_MAX,
    # so 0 is its correctly rounded normal float
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n):
            total += cur * cur
            prev, cur = cur, ((x * cur - math.sqrt(j / 2.0) * prev)
                              / math.sqrt((j + 1) / 2.0))
    weights = np.zeros(n)
    np.divide(1.0, total, out=weights, where=np.isfinite(total))
    return _read_only(x), _read_only(weights)


def expectation_position(packet: MomentumWavePacket) -> np.ndarray:
    """<x> in the momentum representation: expectation of i d/dp.

    The envelope is real, so it adds nothing, and the translation's phase
    adds a.  On shell u = V q, so i u^dagger grad u = -n.(q x grad q), n =
    <chi|sigma|chi>: the Berry connection of the positive-energy band
    (Chang & Niu, J. Phys.: Condens. Matter 20, 193202 (2008)).  Hence <x>
    = a + <p/(E(E+m))> x n / 2, read from the pass: a moving packet's <x>
    carries a spin-dependent offset.
    """
    chi = packet.chi
    n = np.einsum("a,iab,b->i", chi.conj(), algebra.PAULI, chi).real
    return packet.shift + np.cross(packet.expectations["p_eem"], n) / 2.0


def _expectations(s, m):
    """Every expectation from the table s of normalised node sums.

    T = beta Sigma - p gamma5 / m, and O = fw(-1) beta Sigma fw(+1)
    expanded with A = beta alpha.p, A^2 = -p^2, [beta Sigma_i, A] =
    -2 p_i gamma5, A beta Sigma_i A = 2 p_i p.beta Sigma - p^2 beta Sigma_i:
    O_i = beta Sigma_i - p_i gamma5 / E - p_i p.beta Sigma / (E (E + m)).
    Each mass-center offset is the kernel's factor-table form
    f1 i beta alpha / 2m + f2 p x Sigma / 2m^2 + f3 i beta (alpha.p) p / 2m^3.
    <p> is p b[1], <p/(E(E+m))> (for `expectation_position`) that
    scalar's row of b[1], and p_i b[Sigma_i] sums to m <T4> / i.
    """
    def curl(block):    # eps_ijk block[j, k]
        return np.einsum("ijk,jk->i", algebra._EPS, block)

    vals = {
        "T": s[0, _BETA_SIGMA] - s[_P, _GAMMA5] / m,
        "O": s[0, _BETA_SIGMA] - s[_P_E, _GAMMA5] - s[_P_EEM, _P_BS],
        "sigma": s[0, _SIGMA], "ibeta_alpha": s[0, _IBETA_ALPHA],
        "p_cross_sigma": curl(s[_P, _SIGMA]), "odd": s[_P, _P_IBA],
        "p": s[_P, _ONE], "p_eem": s[_P_EEM, _ONE],
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

    Relations checked (g = dilation factor, v = packet velocity), the first
    three through `dynamics.boost_spin` (S0, S) and `unboost_spin`:
      T_from_O:             <T>  = S    = <O> + g^2/(g+1) (v.<O>) v
      T4_from_O:            <T4> = i S0 = i g v.<O>
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
    S0, S = dynamics.boost_spin(obar, v, g)
    relations = [
        Relation("T_from_O", tbar, S),
        Relation("T4_from_O", vals["T4"], 1j * S0),
        Relation("O_from_T", obar, dynamics.unboost_spin(tbar, v, g)),
        Relation("sigma_from_T", vals["sigma"], tbar / g),
        Relation("ibeta_alpha_from_T", vals["ibeta_alpha"],
                 np.cross(tbar, p) / (g * m)),
        Relation("momentum_cross_sigma", vals["p_cross_sigma"],
                 np.cross(p, tbar) / g),
        Relation("odd_term_null", vals["odd"], np.zeros(3)),
    ]
    return {rel.name: rel for rel in relations}


def verify_main_results(packet: MomentumWavePacket) -> dict[str, Relation]:
    """Check <X_P> - <x> (the lhs, `expectations[kind]`) against
    `dynamics.mass_centers` at x = 0, fP(g) <T> x v / 2m, for every kind;
    then offset_d_e: <X_d> - <x> - (1 + g) (<X_e> - <x>) = 0, classically
    (fP_d - (1 + g) fP_e) deltaX.  Returns the relations by name,
    mass_center_offset_{kind} in `PRYCE_KINDS` order, then offset_d_e."""
    g, vals = packet.gamma_bar, packet.expectations
    shift = dynamics.position_shift(vals["T"], packet.velocity, packet.mass)
    centers = dynamics.mass_centers(0.0, shift, g)
    relations = [Relation(f"mass_center_offset_{kind}", vals[kind], center)
                 for kind, center in centers.items()]
    relations.append(Relation("offset_d_e", vals["d"] - (1.0 + g) * vals["e"],
                              np.zeros(3)))
    return {rel.name: rel for rel in relations}


def _floor(name: str, packet: MomentumWavePacket) -> float:
    """RESIDUAL_FLOOR, or over m^dim the rounding, in eps/2 with |p| <= gbar
    m, of a row that holds at every node.  A table entry rounds by 2 (n1 +
    n2 n3) + 101 of its terms' sizes: a slab's n2 n3-node dot product, n1
    slab adds, the norm alike, ~25 roundings of b = M mono <= 4 W.  <T4> = i
    <p>.n / m, <O> = n, reads 5 of size gbar: its own, <p>'s against |<O>| =
    1, 3 per <O>_i against p_i.  The odd term's node terms p_i p.b[i beta
    alpha] vanish; it rounds as p.b, sqrt(3) 102 of (gbar m)^2."""
    g, n1, n2, n3 = packet.gamma_bar, *(ax.size for ax in packet.axes)
    ulps = {"T4_from_O": 5.0 * (2.0 * (n1 + n2 * n3) + 101.0) * g,
            "odd_term_null": math.sqrt(3.0) * 102.0 * g * g}
    return max(RESIDUAL_FLOOR, 0.5 * np.finfo(float).eps * ulps.get(name, 0))


def fg_tolerance(name: str, packet: MomentumWavePacket) -> float:
    """Pass threshold for one relation: coeff * (max width / m)^2, floored
    (`_floor`), times m^dim, the row's unit."""
    coeff, dim = FG_RESIDUAL_COEFF[name]
    scale = float(np.max(packet.widths)) / packet.mass
    return max(coeff * scale * scale, _floor(name, packet)) * packet.mass**dim

