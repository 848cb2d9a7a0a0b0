"""Classical spinning-electron dynamics in uniform electromagnetic fields.

Natural units (hbar = c = 1, lengths and times in 1/mass).  The state is the
lab time, position, velocity and rest-frame polarization s of a point
electron; evolution couples the Lorentz force to spin precession

    dp/dt = e (E + v x B),       ds/dt = s x omega,
    omega = (e / m gbar) [B + gbar/(1+gbar) E x v],

with the g factor fixed at 2.  Momentum, not velocity, is integrated, so the
(v.E) dilation bookkeeping never enters the right-hand side.

The mass-center layer attaches the lab-frame spin (S0, S), the position
shift  deltaX = S x v / 2m, the per-type centers  X = x + fP(gbar) deltaX,
and the anomalous velocity  V = d(deltaX)/dt  in three equivalent analytic
forms (compact, E/B-decomposed, Thomas-precession).  The analytic forms
assume the energy is frozen (d gbar/dt = 0); evaluating them on a state with
|e E.v| above a small threshold raises a ConstantGammaWarning, and
cross-form comparisons refuse states far outside that regime.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import PryceKind, energy, pryce_factors

G_FACTOR = 2.0

# |e E.v| thresholds in units of mass^2: warn when the frozen-energy
# assumption is merely violated, refuse cross-form comparisons when it is
# badly broken.
CONSTANT_GAMMA_WARN = 1e-9
CONSTANT_GAMMA_REFUSE = 1e-6
FPRIME_TOLERANCE = 1e-10


class ConstantGammaWarning(UserWarning):
    """The frozen-energy assumption behind the analytic anomalous velocity."""


class IntegrationError(RuntimeError):
    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def _vec(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def _dot(a, b) -> np.ndarray:
    """a.b over the last axis, kept as a trailing axis of length 1."""
    return np.sum(a * b, axis=-1, keepdims=True)


def dilation(v) -> np.ndarray:
    """gbar = 1/sqrt(1 - v^2) over (..., 3); rejects |v| >= 1 - 1e-12."""
    v = np.asarray(v, dtype=float)
    v2 = np.sum(v * v, axis=-1)
    if np.any(v2 >= (1.0 - 1e-12) ** 2):
        raise ValueError(
            f"superluminal velocity |v| = {np.sqrt(np.max(v2)):.6g}")
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
        dilation(self.v)  # validates |v| < 1

    @property
    def gamma(self) -> float:
        return dilation(self.v)

    def momentum(self, m: float) -> np.ndarray:
        return self.gamma * m * self.v


@dataclass
class LabSpin:
    """Spin 4-vector components in the lab frame."""

    S0: float
    S: np.ndarray


# The formulas below read x, v, s and gamma from `state`: a ClassicalState
# is one state, a Trajectory the (n,) / (n, 3) columns of n states.  gamma
# always comes from the state, never again from v.

def boost_spin(state) -> LabSpin:
    """Rest-frame polarization -> lab 4-vector spin (S0, S)."""
    g = state.gamma[..., None]
    sv = _dot(state.s, state.v)
    return LabSpin(S0=(g * sv)[..., 0],
                   S=state.s + g * g / (g + 1.0) * sv * state.v)


def unboost_spin(lab: LabSpin, v) -> np.ndarray:
    """Inverse of boost_spin: s = S - g/(g+1) (v.S) v."""
    v = np.asarray(v, dtype=float)
    g = dilation(v)[..., None]
    return lab.S - g / (g + 1.0) * _dot(lab.S, v) * v


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


def thomas_omega(dv_dt, v) -> np.ndarray:
    """Thomas precession  gbar^2/(gbar+1) (dv/dt x v)."""
    g = dilation(v)[..., None]
    return g * g / (g + 1.0) * np.cross(dv_dt, v)


def position_shift(S, v, m: float) -> np.ndarray:
    """deltaX = S x v / 2m, the offset of a mass center from the position."""
    return np.cross(S, v) / (2.0 * m)


def mass_center(state, kind, m: float) -> np.ndarray:
    """X = x + fP(kind, gbar) * deltaX."""
    fp = pryce_factors(kind, state.gamma)[3]
    shift = position_shift(boost_spin(state).S, state.v, m)
    return state.x + np.asarray(fp)[..., None] * shift


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
    zero-spin shortcut and no frozen-energy check; `integrate` uses it.
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
    wt = thomas_omega(f / m, state.v)
    return (-_dot(state.s, state.v) * wt
            + np.cross(state.s, f) / m) / (2.0 * m)


# ---------------------------------------------------------------------------
# integration

@dataclass
class Trajectory:
    """Fixed-step samples of the integrated state plus derived quantities."""

    t: np.ndarray             # (n,)
    x: np.ndarray             # (n, 3)
    v: np.ndarray             # (n, 3)
    s: np.ndarray             # (n, 3)
    gamma: np.ndarray         # (n,)
    fields: FieldConfig
    dt: float                 # spacing between stored samples
    # derived by `integrate` from the formulas above, with this as the state
    S0: np.ndarray = field(init=False)           # (n,)
    S: np.ndarray = field(init=False)            # (n, 3)
    delta_x: np.ndarray = field(init=False)      # (n, 3)
    centers: dict = field(init=False)            # kind value -> (n, 3)
    v_anomalous: np.ndarray = field(init=False)  # (n, 3) compact form
    max_ev: float = field(init=False)            # max |e E.v| along the run

    @property
    def energy(self) -> np.ndarray:
        return self.gamma * self.fields.mass

    def interior_slice(self) -> slice:
        return slice(1, len(self.t) - 1)

    def finite_difference(self, series: np.ndarray) -> np.ndarray:
        """Central differences of a sampled series at the interior samples."""
        return (series[2:] - series[:-2]) / (2.0 * self.dt)

    def center_offset(self, kind) -> np.ndarray:
        kind = PryceKind.coerce(kind)
        return self.centers[kind.value] - self.x

    def pryce_fp(self, kind) -> np.ndarray:
        kind = PryceKind.coerce(kind)
        return pryce_factors(kind, self.gamma)[3]


def max_rotation_rate(fields: FieldConfig) -> float:
    """(|e|/m)(|B| + |E|), a bound on every rotation rate of the motion."""
    return (abs(fields.charge) / fields.mass) * (np.linalg.norm(fields.B)
                                                 + np.linalg.norm(fields.E))


def _make_deriv(fields: FieldConfig):
    """d(x, p, s)/dt from (p, s); only + - * / **, so (n,) columns work too."""
    ex, ey, ez = (float(c) for c in fields.E)
    bx, by, bz = (float(c) for c in fields.B)
    q = float(fields.charge)
    m = float(fields.mass)
    m2 = m * m

    def deriv(px, py, pz, sx, sy, sz):
        e_sh = (m2 + px * px + py * py + pz * pz) ** 0.5
        vx, vy, vz = px / e_sh, py / e_sh, pz / e_sh
        g = e_sh / m
        dpx = q * (ex + vy * bz - vz * by)
        dpy = q * (ey + vz * bx - vx * bz)
        dpz = q * (ez + vx * by - vy * bx)
        c1 = q / (m * g)
        c2 = g / (1.0 + g)
        wx = c1 * (bx + c2 * (ey * vz - ez * vy))
        wy = c1 * (by + c2 * (ez * vx - ex * vz))
        wz = c1 * (bz + c2 * (ex * vy - ey * vx))
        return (vx, vy, vz, dpx, dpy, dpz,
                sy * wz - sz * wy, sz * wx - sx * wz, sx * wy - sy * wx)

    return deriv


def integrate(state0: ClassicalState, fields: FieldConfig, dt: float,
              steps: int, sample_every: int = 1,
              kinds=tuple(PryceKind)) -> Trajectory:
    """Classic fourth-order fixed-step integration of (x, p, s).

    The momentum, not the velocity, is carried so the force equation keeps
    its canonical form; v is recovered on-shell at every stage.  Rejects
    steps that under-resolve the fastest rotation; aborts if the state goes
    non-finite.
    """
    if dt <= 0 or steps < 1 or sample_every < 1:
        raise ValueError("dt, steps and sample_every must be positive")
    m = fields.mass
    rate = max_rotation_rate(fields)
    if dt * rate >= 0.1:
        raise IntegrationError(
            f"dt * max rotation rate = {dt * rate:.3g} >= 0.1; reduce the "
            f"step or the fields")

    kinds = [PryceKind.coerce(k) for k in kinds]
    y = np.concatenate((state0.x, state0.momentum(m), state0.s))
    n_samples = steps // sample_every + 1
    ys = np.empty((n_samples, 9))
    ts = np.empty(n_samples)
    ys[0], ts[0] = y, state0.t

    # plain Python floats: numpy scalar arithmetic is ~5x slower per op
    x0, x1, x2, p0, p1, p2, s0, s1, s2 = y.tolist()
    dt = float(dt)
    deriv = _make_deriv(fields)
    half = 0.5 * dt
    sixth = dt / 6.0
    row = 1
    for k in range(1, steps + 1):
        a0, a1, a2, a3, a4, a5, a6, a7, a8 = deriv(p0, p1, p2, s0, s1, s2)
        b0, b1, b2, b3, b4, b5, b6, b7, b8 = deriv(
            p0 + half * a3, p1 + half * a4, p2 + half * a5,
            s0 + half * a6, s1 + half * a7, s2 + half * a8)
        c0, c1, c2, c3, c4, c5, c6, c7, c8 = deriv(
            p0 + half * b3, p1 + half * b4, p2 + half * b5,
            s0 + half * b6, s1 + half * b7, s2 + half * b8)
        d0, d1, d2, d3, d4, d5, d6, d7, d8 = deriv(
            p0 + dt * c3, p1 + dt * c4, p2 + dt * c5,
            s0 + dt * c6, s1 + dt * c7, s2 + dt * c8)
        x0 = x0 + sixth * (a0 + 2.0 * (b0 + c0) + d0)
        x1 = x1 + sixth * (a1 + 2.0 * (b1 + c1) + d1)
        x2 = x2 + sixth * (a2 + 2.0 * (b2 + c2) + d2)
        p0 = p0 + sixth * (a3 + 2.0 * (b3 + c3) + d3)
        p1 = p1 + sixth * (a4 + 2.0 * (b4 + c4) + d4)
        p2 = p2 + sixth * (a5 + 2.0 * (b5 + c5) + d5)
        s0 = s0 + sixth * (a6 + 2.0 * (b6 + c6) + d6)
        s1 = s1 + sixth * (a7 + 2.0 * (b7 + c7) + d7)
        s2 = s2 + sixth * (a8 + 2.0 * (b8 + c8) + d8)
        if k % sample_every == 0:
            y = (x0, x1, x2, p0, p1, p2, s0, s1, s2)
            if not all(map(math.isfinite, y)):
                raise IntegrationError(
                    f"state became non-finite at step {k}", step=k)
            ys[row] = y
            ts[row] = state0.t + k * dt
            row += 1

    p = ys[:, 3:6]
    e_on_shell = energy(p, m)
    traj = Trajectory(t=ts, x=ys[:, 0:3], v=p / e_on_shell[:, None],
                      s=ys[:, 6:9], gamma=e_on_shell / m, fields=fields,
                      dt=dt * sample_every)
    lab = boost_spin(traj)
    traj.S0, traj.S = lab.S0, lab.S
    traj.delta_x = position_shift(lab.S, traj.v, m)
    traj.centers = {kind.value: mass_center(traj, kind, m) for kind in kinds}
    traj.v_anomalous = anomalous_velocity(traj, fields)
    traj.max_ev = float(np.max(_constant_gamma_violation(traj, fields)))
    return traj


def helix_reference(state0: ClassicalState, fields: FieldConfig,
                    t: np.ndarray):
    """Closed-form trajectory in a uniform pure magnetic field.

    Returns (x, v) sampled at the given times.  Gyration vector
    w = -(e / gbar m) B; velocity rotates rigidly about B and the guiding
    center advances with the parallel velocity.
    """
    if np.any(fields.E):
        raise ValueError("closed form requires a pure magnetic field")
    b_norm = float(np.linalg.norm(fields.B))
    if b_norm == 0.0:
        xs = state0.x + np.multiply.outer(np.asarray(t) - state0.t, state0.v)
        return xs, np.broadcast_to(state0.v, xs.shape).copy()
    g = state0.gamma
    w_vec = -(fields.charge / (g * fields.mass)) * fields.B
    w_norm = float(np.linalg.norm(w_vec))
    axis = w_vec / w_norm
    v0 = state0.v
    v_par = float(v0 @ axis) * axis
    v_perp = v0 - v_par
    tau = np.asarray(t, dtype=float) - state0.t
    ang = w_norm * tau
    cos_a, sin_a = np.cos(ang), np.sin(ang)
    axv = np.cross(axis, v_perp)
    v_rot = (np.multiply.outer(cos_a, v_perp)
             + np.multiply.outer(sin_a, axv) + v_par)
    # integral of the rotating part
    x_rot = (np.multiply.outer(sin_a, v_perp)
             - np.multiply.outer(cos_a - 1.0, axv)) / w_norm
    xs = state0.x + x_rot + np.multiply.outer(tau, v_par)
    return xs, v_rot


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
