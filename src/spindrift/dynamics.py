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

import warnings
from dataclasses import dataclass, field

import numpy as np

from .algebra import PryceKind, pryce_factors

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


def dilation(v) -> float:
    """gbar = 1/sqrt(1 - v^2); rejects |v| >= 1 - 1e-12."""
    v = np.asarray(v, dtype=float)
    v2 = float(np.sum(v * v, axis=-1))
    if v2 >= (1.0 - 1e-12) ** 2:
        raise ValueError(f"superluminal velocity |v| = {np.sqrt(v2):.6g}")
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


def boost_spin(s, v) -> LabSpin:
    """Rest-frame polarization -> lab 4-vector spin (S0, S)."""
    s, v = _vec(s), _vec(v)
    g = dilation(v)
    sv = float(s @ v)
    return LabSpin(S0=g * sv, S=s + g * g / (g + 1.0) * sv * v)


def unboost_spin(lab: LabSpin, v) -> np.ndarray:
    """Inverse of boost_spin: s = S - g/(g+1) (v.S) v."""
    v = _vec(v)
    g = dilation(v)
    return lab.S - g / (g + 1.0) * float(lab.S @ v) * v


def lorentz_rhs(state: ClassicalState, fields: FieldConfig) -> np.ndarray:
    """dp/dt = e (E + v x B)."""
    return fields.charge * (fields.E + np.cross(state.v, fields.B))


def lorentz_force(state: ClassicalState, fields: FieldConfig) -> np.ndarray:
    """F = m dv/dt, converted from dp/dt with the full (v.E) term.

    m dv/dt = [dp/dt - (v . dp/dt) v] / gbar; reduces to dp/dt / gbar when
    E.v = 0 (frozen energy).
    """
    dp = lorentz_rhs(state, fields)
    v = state.v
    return (dp - float(v @ dp) * v) / state.gamma


def omega(fields: FieldConfig, v) -> np.ndarray:
    """Rotational velocity of the rest-frame polarization (g = 2)."""
    v = _vec(v)
    g = dilation(v)
    return (fields.charge / (fields.mass * g)) * (
        fields.B + g / (1.0 + g) * np.cross(fields.E, v))


def bmt_rhs(state: ClassicalState, fields: FieldConfig) -> np.ndarray:
    """ds/dt = s x omega."""
    return np.cross(state.s, omega(fields, state.v))


def thomas_omega(dv_dt, v) -> np.ndarray:
    """Thomas precession  gbar^2/(gbar+1) (dv/dt x v)."""
    v = _vec(v)
    g = dilation(v)
    return g * g / (g + 1.0) * np.cross(_vec(dv_dt), v)


def position_shift(S, v, m: float) -> np.ndarray:
    """deltaX = S x v / 2m, the offset of a mass center from the position."""
    return np.cross(_vec(S), _vec(v)) / (2.0 * m)


def mass_center(state: ClassicalState, kind, m: float = 1.0) -> np.ndarray:
    """X = x + fP(kind, gbar) * deltaX."""
    kind = PryceKind.coerce(kind)
    lab = boost_spin(state.s, state.v)
    fp = pryce_factors(kind, state.gamma)[3]
    return state.x + fp * position_shift(lab.S, state.v, m)


def fprime(state: ClassicalState, fields: FieldConfig) -> np.ndarray:
    """F' = (gbar g e / 2m) s x [B - gbar/(1+gbar)(v.B)v - v x E], g = 2.

    Together with the Thomas term this reproduces the precession equation:
    ds/dt = F'/gbar + omega_T x s.
    """
    g = state.gamma
    v, s = state.v, state.s
    bracket = (fields.B - g / (1.0 + g) * float(v @ fields.B) * v
               - np.cross(v, fields.E))
    coeff = g * G_FACTOR * fields.charge / (2.0 * fields.mass)
    return coeff * np.cross(s, bracket)


def _constant_gamma_violation(state: ClassicalState,
                              fields: FieldConfig) -> float:
    return abs(fields.charge * float(fields.E @ state.v))


def _warn_if_not_constant_gamma(state, fields):
    viol = _constant_gamma_violation(state, fields)
    if viol > CONSTANT_GAMMA_WARN * fields.mass**2:
        warnings.warn(
            f"|e E.v| = {viol:.3e} breaks the frozen-energy assumption; "
            f"the analytic anomalous velocity is approximate here",
            ConstantGammaWarning, stacklevel=3)


def anomalous_velocity_compact(state: ClassicalState,
                               fields: FieldConfig) -> np.ndarray:
    """V = (1/2m) [(s.v) omega - (omega.v) s + s x F/m].

    The time derivative of the position shift, written with the precession
    vector and the Lorentz force F = m dv/dt evaluated at frozen energy.
    """
    if not np.any(state.s):
        return np.zeros(3)
    _warn_if_not_constant_gamma(state, fields)
    m = fields.mass
    w = omega(fields, state.v)
    f = lorentz_rhs(state, fields) / state.gamma  # frozen-energy m dv/dt
    sv = float(state.s @ state.v)
    wv = float(w @ state.v)
    return (sv * w - wv * state.s + np.cross(state.s, f) / m) / (2.0 * m)


def anomalous_velocity_decomposed(state: ClassicalState,
                                  fields: FieldConfig):
    """Split of the anomalous velocity into electric and magnetic parts.

        V(E) = (e/2m^2 gbar) [s - gbar/(1+gbar)(s.v)v] x E
        V(B) = (e/2m^2 gbar) [(s.B)v - (v.B)s]
    """
    if not np.any(state.s):
        return np.zeros(3), np.zeros(3)
    _warn_if_not_constant_gamma(state, fields)
    g = state.gamma
    m = fields.mass
    coeff = fields.charge / (2.0 * m * m * g)
    s, v = state.s, state.v
    ve = coeff * np.cross(s - g / (1.0 + g) * float(s @ v) * v, fields.E)
    vb = coeff * (float(s @ fields.B) * v - float(v @ fields.B) * s)
    return ve, vb


def anomalous_velocity_thomas_form(state: ClassicalState,
                                   fields: FieldConfig) -> np.ndarray:
    """V = (1/2m) [-(s.v) omega_T + s x F/m]; valid only where F' = 0."""
    if not np.any(state.s):
        return np.zeros(3)
    fp = fprime(state, fields)
    scale = max(fields.mass**2,
                abs(fields.charge) * state.gamma / fields.mass
                * float(np.linalg.norm(state.s))
                * float(np.linalg.norm(fields.B) + np.linalg.norm(fields.E)))
    if float(np.linalg.norm(fp)) > FPRIME_TOLERANCE * scale:
        raise ValueError(
            f"|F'| = {np.linalg.norm(fp):.3e} is not zero; the "
            f"Thomas-precession form only holds on F' = 0 states")
    _warn_if_not_constant_gamma(state, fields)
    m = fields.mass
    f = lorentz_rhs(state, fields) / state.gamma
    wt = thomas_omega(f / m, state.v)
    return (-float(state.s @ state.v) * wt
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
    S0: np.ndarray            # (n,)
    S: np.ndarray             # (n, 3)
    delta_x: np.ndarray       # (n, 3)
    centers: dict             # kind value -> (n, 3)
    v_anomalous: np.ndarray   # (n, 3) compact analytic form
    fields: FieldConfig
    dt: float                 # spacing between stored samples
    max_ev: float             # max |e E.v| along the run

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
              kinds=("c", "d", "e")) -> Trajectory:
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
            if not all(np.isfinite(y)):
                raise IntegrationError(
                    f"state became non-finite at step {k}", step=k)
            ys[row] = y
            ts[row] = state0.t + k * dt
            row += 1

    x = ys[:, 0:3]
    p = ys[:, 3:6]
    s = ys[:, 6:9]
    e_on_shell = np.sqrt(m * m + np.sum(p * p, axis=1))
    v = p / e_on_shell[:, None]
    g = e_on_shell / m

    sv = np.sum(s * v, axis=1)
    S = s + (g * g / (g + 1.0) * sv)[:, None] * v
    S0 = g * sv
    delta_x = np.cross(S, v) / (2.0 * m)

    centers = {}
    for kind in kinds:
        fp = pryce_factors(kind, g)[3]
        centers[kind.value] = x + np.asarray(fp)[:, None] * delta_x

    w = (fields.charge / m) / g[:, None] * (
        fields.B + (g / (1.0 + g))[:, None] * np.cross(
            np.broadcast_to(fields.E, v.shape), v))
    f = fields.charge * (fields.E + np.cross(v, fields.B)) / g[:, None]
    wv = np.sum(w * v, axis=1)
    v_anom = (sv[:, None] * w - wv[:, None] * s
              + np.cross(s, f) / m) / (2.0 * m)

    max_ev = float(np.max(np.abs(fields.charge * (v @ fields.E))))
    return Trajectory(t=ts, x=x, v=v, s=s, gamma=g, S0=S0, S=S,
                      delta_x=delta_x, centers=centers, v_anomalous=v_anom,
                      fields=fields, dt=dt * sample_every, max_ev=max_ev)


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
