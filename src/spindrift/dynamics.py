"""Classical spinning-electron dynamics in uniform electromagnetic fields.

Natural units (hbar = c = 1, lengths and times in 1/mass).  The state is the
lab time, position, velocity and rest-frame polarization s of a point
electron; evolution couples the Lorentz force to spin precession

    dp/dt = e (E + v x B),       ds/dt = s x omega,
    omega = (e / m gbar) [B + gbar/(1+gbar) E x v],

with the g factor fixed at 2.  Its exact solution in uniform fields is
`exact.propagate`, the one producer of a sampled `Trajectory`.

The mass-center layer attaches the lab-frame spin (S0, S), the position
shift  deltaX = S x v / 2m, every kind's center  X = x + fP(gbar) deltaX
(`mass_centers`, all kinds from one Pryce factor table) and the anomalous
velocity  V = d(deltaX)/dt  in three equivalent analytic forms (compact,
E/B-decomposed, Thomas-precession).  The analytic forms assume the energy
is frozen (d gbar/dt = 0); evaluating them on a state with |e E.v| above a
small threshold raises a ConstantGammaWarning, and cross-form comparisons
refuse states far outside that regime.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import pryce_factors

G_FACTOR = 2.0

# |e E.v| thresholds in units of mass^2: warn when the frozen-energy
# assumption is merely violated, refuse cross-form comparisons when it is
# badly broken.
CONSTANT_GAMMA_WARN = 1e-9
CONSTANT_GAMMA_REFUSE = 1e-6
FPRIME_TOLERANCE = 1e-10
MAX_SPEED = 1.0 - 1e-12  # a state's |v| must stay below it


class ConstantGammaWarning(UserWarning):
    """The frozen-energy assumption behind the analytic anomalous velocity."""


class IntegrationError(RuntimeError):
    """A motion that leaves the floats or reaches MAX_SPEED."""


def _vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def _dot(a, b) -> np.ndarray:
    """a.b over the last axis, kept as a trailing axis of length 1."""
    return np.sum(a * b, axis=-1, keepdims=True)


def norm(a) -> np.ndarray:
    """|a| over the last axis, with no square to underflow or overflow."""
    a = np.asarray(a, dtype=float)
    return np.hypot(np.hypot(a[..., 0], a[..., 1]), a[..., 2])


def dilation(v) -> np.ndarray:
    """gbar = 1/sqrt(1 - v^2) over (..., 3); rejects NaN, |v| >= MAX_SPEED."""
    v = np.asarray(v, dtype=float)
    v2 = np.sum(v * v, axis=-1)
    if not np.all(v2 < MAX_SPEED ** 2):
        raise ValueError(f"|v| = {float(np.sqrt(np.max(v2)))!r} must be "
                         f"< {MAX_SPEED!r}")
    return 1.0 / np.sqrt(1.0 - v2)


@dataclass
class FieldConfig:
    """Uniform static fields plus particle charge and mass."""

    E: np.ndarray = field(default_factory=lambda: np.zeros(3))
    B: np.ndarray = field(default_factory=lambda: np.zeros(3))
    charge: float = -1.0
    mass: float = 1.0

    def __post_init__(self):
        self.E = _vec(self.E)
        self.B = _vec(self.B)
        if self.mass <= 0:
            raise ValueError("mass must be positive")


@dataclass
class ClassicalState:
    """Lab time, position, velocity and rest-frame spin of a point electron."""

    t: float
    x: np.ndarray
    v: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.x = _vec(self.x)
        self.v = _vec(self.v)
        self.s = _vec(self.s)
        dilation(self.v)  # validates |v| < MAX_SPEED

    @property
    def gamma(self) -> float:
        return dilation(self.v)


# The formulas below read x, v, s and gamma (never again from v) from
# `state`: one ClassicalState, or a Trajectory's (n,) / (n, 3) columns.  The
# spin conversions and the position shift take arrays, as a packet's are.

def boost_spin(s, v, gamma) -> tuple:
    """Rest-frame polarization s -> lab 4-vector spin (S0, S) at v, gamma."""
    g = np.asarray(gamma, dtype=float)[..., None]
    sv = _dot(s, v)
    return (g * sv)[..., 0], s + g * g / (g + 1.0) * sv * v


def unboost_spin(S, v, gamma) -> np.ndarray:
    """Inverse of boost_spin: s = S - g/(g+1) (v.S) v, g = gamma."""
    g = np.asarray(gamma, dtype=float)[..., None]
    return S - g / (g + 1.0) * _dot(S, v) * v


def lorentz_rhs(state, fields: FieldConfig) -> np.ndarray:
    """dp/dt = e (E + v x B)."""
    return fields.charge * (fields.E + np.cross(state.v, fields.B))


def frozen_energy_force(state, fields: FieldConfig) -> np.ndarray:
    """F = m dv/dt = (dp/dt) / gbar, exact when E.v = 0."""
    return lorentz_rhs(state, fields) / state.gamma[..., None]


def lorentz_force(state, fields: FieldConfig) -> np.ndarray:
    """F = m dv/dt, converted from dp/dt with the full (v.E) term.

    m dv/dt = [dp/dt - (v . dp/dt) v] / gbar; reduces to the frozen-energy
    force when E.v = 0.
    """
    dp = lorentz_rhs(state, fields)
    return (dp - _dot(state.v, dp) * state.v) / state.gamma[..., None]


def omega(state, fields: FieldConfig) -> np.ndarray:
    """Rotational velocity of the rest-frame polarization (g = 2)."""
    g = state.gamma[..., None]
    return (fields.charge / fields.mass) / g * (
        fields.B + g / (1.0 + g) * np.cross(fields.E, state.v))


def bmt_rhs(state, fields: FieldConfig) -> np.ndarray:
    """ds/dt = s x omega."""
    return np.cross(state.s, omega(state, fields))


def thomas_omega(state, dv_dt) -> np.ndarray:
    """Thomas precession  gbar^2/(gbar+1) (dv/dt x v)."""
    g = state.gamma[..., None]
    return g * g / (g + 1.0) * np.cross(dv_dt, state.v)


def position_shift(S, v, m: float) -> np.ndarray:
    """deltaX = S x v / 2m, the offset of a mass center from the position."""
    return np.cross(S, v) / (2.0 * m)


def mass_centers(state, m: float) -> dict:
    """Every kind's X = x + fP(gbar) deltaX, keyed in PRYCE_KINDS order."""
    shift = position_shift(boost_spin(state.s, state.v, state.gamma)[1],
                           state.v, m)
    return {kind: state.x + fp[..., None] * shift
            for kind, (*_, fp) in pryce_factors(state.gamma).items()}


def fprime(state, fields: FieldConfig) -> np.ndarray:
    """F' = (gbar g e / 2m) s x [B - gbar/(1+gbar)(v.B)v - v x E], g = 2.

    Together with the Thomas term this reproduces the precession equation:
    ds/dt = F'/gbar + omega_T x s.
    """
    g = state.gamma[..., None]
    v = state.v
    bracket = (fields.B - g / (1.0 + g) * _dot(v, fields.B) * v
               - np.cross(v, fields.E))
    coeff = g * G_FACTOR * fields.charge / (2.0 * fields.mass)
    return coeff * np.cross(state.s, bracket)


def _constant_gamma_violation(state, fields: FieldConfig) -> np.ndarray:
    """|e E.v|, the rate of change of the energy."""
    return np.abs(fields.charge * (state.v @ fields.E))


def _warn_if_not_constant_gamma(state, fields):
    viol = float(np.max(_constant_gamma_violation(state, fields)))
    if viol > CONSTANT_GAMMA_WARN * fields.mass**2:
        warnings.warn(
            f"|e E.v| = {viol:.3e} breaks the frozen-energy assumption; "
            f"the analytic anomalous velocity is approximate here",
            ConstantGammaWarning, stacklevel=3)


def anomalous_velocity(state, fields: FieldConfig) -> np.ndarray:
    """V = (1/2m) [(s.v) omega - (omega.v) s + s x F/m], F at frozen energy.

    The time derivative of the position shift.  The bare formula, with no
    zero-spin shortcut and no frozen-energy check; `Trajectory` uses it.
    """
    m = fields.mass
    s, v = state.s, state.v
    w = omega(state, fields)
    return (_dot(s, v) * w - _dot(w, v) * s
            + np.cross(s, frozen_energy_force(state, fields)) / m) / (2.0 * m)


def anomalous_velocity_compact(state, fields: FieldConfig) -> np.ndarray:
    """The compact form of V; zero spin gives 0, E.v != 0 warns."""
    if not np.any(state.s):
        return np.zeros_like(state.s)
    _warn_if_not_constant_gamma(state, fields)
    return anomalous_velocity(state, fields)


def anomalous_velocity_decomposed(state, fields: FieldConfig):
    """Split of the anomalous velocity into electric and magnetic parts.

        V(E) = (e/2m^2 gbar) [s - gbar/(1+gbar)(s.v)v] x E
        V(B) = (e/2m^2 gbar) [(s.B)v - (v.B)s]
    """
    if not np.any(state.s):
        return np.zeros_like(state.s), np.zeros_like(state.s)
    _warn_if_not_constant_gamma(state, fields)
    g = state.gamma[..., None]
    m = fields.mass
    coeff = fields.charge / (2.0 * m * m * g)
    s, v = state.s, state.v
    ve = coeff * np.cross(s - g / (1.0 + g) * _dot(s, v) * v, fields.E)
    vb = coeff * (_dot(s, fields.B) * v - _dot(v, fields.B) * s)
    return ve, vb


def anomalous_velocity_thomas_form(state, fields: FieldConfig) -> np.ndarray:
    """V = (1/2m) [-(s.v) omega_T + s x F/m]; valid only where F' = 0."""
    if not np.any(state.s):
        return np.zeros_like(state.s)
    fp = np.linalg.norm(fprime(state, fields), axis=-1)
    scale = np.maximum(fields.mass**2,
                       abs(fields.charge) * state.gamma / fields.mass
                       * np.linalg.norm(state.s, axis=-1)
                       * (np.linalg.norm(fields.B) + np.linalg.norm(fields.E)))
    if np.any(fp > FPRIME_TOLERANCE * scale):
        raise ValueError(
            f"|F'| = {np.max(fp):.3e} is not zero; the "
            f"Thomas-precession form only holds on F' = 0 states")
    _warn_if_not_constant_gamma(state, fields)
    m = fields.mass
    f = frozen_energy_force(state, fields)
    wt = thomas_omega(state, f / m)
    return (-_dot(state.s, state.v) * wt
            + np.cross(state.s, f) / m) / (2.0 * m)


# ---------------------------------------------------------------------------
# sampled motion

@dataclass
class Trajectory:
    """Samples of the state plus the quantities derived from them;
    `exact.propagate` builds one."""

    t: np.ndarray             # (n,)
    x: np.ndarray             # (n, 3)
    v: np.ndarray             # (n, 3)
    s: np.ndarray             # (n, 3)
    gamma: np.ndarray         # (n,)
    fields: FieldConfig
    # derived on construction from the formulas above, with this as the state
    S0: np.ndarray = field(init=False)           # (n,)
    S: np.ndarray = field(init=False)            # (n, 3)
    delta_x: np.ndarray = field(init=False)      # (n, 3)
    centers: dict = field(init=False)            # Pryce kind -> (n, 3)
    v_anomalous: np.ndarray = field(init=False)  # (n, 3) compact form
    max_ev: float = field(init=False)            # max |e E.v| along the run

    def __post_init__(self):
        m = self.fields.mass
        self.S0, self.S = boost_spin(self.s, self.v, self.gamma)
        self.delta_x = position_shift(self.S, self.v, m)
        self.centers = mass_centers(self, m)
        self.v_anomalous = anomalous_velocity(self, self.fields)
        self.max_ev = float(np.max(
            _constant_gamma_violation(self, self.fields)))

    @property
    def energy(self) -> np.ndarray:
        return self.gamma * self.fields.mass


def max_rotation_rate(fields: FieldConfig) -> float:
    """(|e|/m)(|B| + |E|), a bound on every rotation rate of the motion."""
    return (abs(fields.charge) / fields.mass) * (norm(fields.B)
                                                 + norm(fields.E))


def cyclotron_radius(state0: ClassicalState, fields: FieldConfig) -> float:
    """gbar m |v_perp| / (|e| B) for a pure-B orbit."""
    b_norm = float(np.linalg.norm(fields.B))
    axis = fields.B / b_norm
    v_perp = state0.v - float(state0.v @ axis) * axis
    return (state0.gamma * fields.mass * float(np.linalg.norm(v_perp))
            / (abs(fields.charge) * b_norm))


def cyclotron_period(state0: ClassicalState, fields: FieldConfig) -> float:
    """2 pi gbar m / (|e| B)."""
    return (2.0 * np.pi * state0.gamma * fields.mass
            / (abs(fields.charge) * float(np.linalg.norm(fields.B))))
