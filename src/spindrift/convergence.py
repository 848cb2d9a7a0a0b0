"""Convergence ladders and observed-order estimation.

Each converge target is one `TARGETS` entry; `run_ladder` halves any of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import algebra, dynamics, exact, packets
from .config import RUNGS, ConfigError, ScenarioConfig
from .packets import RESIDUAL_FLOOR


@dataclass
class Ladder:
    """Resolutions, errors and order estimates for one refinement study."""

    target: str
    resolutions: np.ndarray
    errors: np.ndarray

    @property
    def pairwise_orders(self) -> np.ndarray:
        h, e = self.resolutions, self.errors
        return np.array([np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1])
                         for i in range(len(e) - 1)])

    @property
    def fitted_order(self) -> float:
        """Least-squares slope of log error against log resolution."""
        return float(np.polyfit(np.log(self.resolutions),
                                np.log(self.errors), 1)[0])


def _make_deriv(fields):
    """d(x, p, s)/dt from (p, s); only + - * / **, so (n,) columns work too.
    Its omega and Lorentz force never read the generator `exact` uses."""
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


def _rk4(state0, fields, dt: float, steps: int):
    """The endpoint (x, v, s) of `steps` classic RK4 steps of (x, p, s), v
    on shell; a non-finite one raises IntegrationError.  Nine Python floats
    (~5x faster than numpy scalars) in a generic RK4 loop's order."""
    m = fields.mass
    x0, x1, x2, p0, p1, p2, s0, s1, s2 = np.concatenate(
        (state0.x, state0.momentum(m), state0.s)).tolist()
    dt = float(dt)
    deriv = _make_deriv(fields)
    half = 0.5 * dt
    sixth = dt / 6.0
    for _ in range(steps):
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
    x, p, s = y = np.array([[x0, x1, x2], [p0, p1, p2], [s0, s1, s2]])
    if not np.isfinite(y).all():
        raise dynamics.IntegrationError(
            f"the RK4 state is non-finite after {steps} steps")
    return x, p / algebra.energy(p, m), s


def _integrator_rung(cfg: ScenarioConfig, n: int):
    """RK4's endpoint error against the exact propagator at dt/n.

    The error is |dx|/T + |dv| + |ds|, with T = steps dt the duration every
    rung shares.  Uniform fields make the motion translation-invariant, so
    both start at x = 0, not initial.x.  Floor, in ulp of each quantity's
    largest value on the exact path: a step rounds the three components of
    x, p and s by half an ulp, sqrt(3)/2 per step, with |p| < m gbar, and
    an error in p moves v by at most 1/E <= 1/(m min gbar) of it.  The
    reference adds exact.reference_ulps, in ulp of x, gbar and s gbar^2.
    """
    fields = cfg.field_config()
    state0 = dynamics.ClassicalState(0.0, (0.0, 0.0, 0.0), cfg.v0, cfg.s0)
    dt, steps = cfg.dt / n, cfg.steps * n
    x_rk, v_rk, s_rk = _rk4(state0, fields, dt, steps)
    x, v, s, gamma = exact.uniform_field_reference(
        state0, fields, dt * np.arange(steps + 1))
    duration = dt * steps
    err = (np.linalg.norm(x_rk - x[-1]) / duration
           + np.linalg.norm(v_rk - v[-1])
           + np.linalg.norm(s_rk - s[-1]))

    def ulp(series):
        return np.spacing(np.max(np.linalg.norm(series, axis=-1)))

    ref = exact.reference_ulps(fields, duration)
    g_max, g_min = np.max(gamma), np.min(gamma)
    floor = ((steps + ref) * ulp(x) / duration
             + (steps / g_min + ref) * np.spacing(g_max)
             + (steps + ref * g_max ** 2) * ulp(s))
    return dt, float(err), float(floor)


def _anomalous_fd_rung(cfg: ScenarioConfig, n: int):
    """Central-difference d(deltaX)/dt of the exact motion against the
    analytic form at dt/n, so the error is the difference's h^2 alone.

    Needs frozen energy.  deltaX = S x v / 2m is cancellation noise when
    s || v, so the floor scales with its inputs: max gbar |s| |v| / 2m on
    the path, ~4 ulp per component (spin boost, p/E, two products, their
    difference), two samples over 2h and three components, 4*2*sqrt(3) < 14.
    """
    if cfg.steps < 2:
        raise ConfigError("integration.steps: the anomalous-fd target needs "
                          ">= 2, for a central difference at an interior "
                          "sample")
    fields = cfg.field_config()
    dt, steps = cfg.dt / n, cfg.steps * n
    try:
        traj = exact.propagate(cfg.initial_state(), fields, dt, steps)
    except dynamics.IntegrationError as exc:
        raise ConfigError(f"integration.steps: {exc}") from None
    if traj.max_ev > dynamics.CONSTANT_GAMMA_REFUSE * cfg.mass**2:
        raise ConfigError(f"converge: |e E.v| reaches {traj.max_ev:.3e}; the "
                          f"anomalous-velocity comparison needs a "
                          f"frozen-energy scenario")
    fd = (traj.delta_x[2:] - traj.delta_x[:-2]) / (2.0 * traj.dt)
    err = np.linalg.norm(fd - traj.v_anomalous[1:-1], axis=1)
    scale = np.max(traj.gamma * np.linalg.norm(traj.s, axis=1)
                   * np.linalg.norm(traj.v, axis=1)) / (2.0 * cfg.mass)
    return dt, float(err.max()), 14.0 * np.spacing(scale) / (2.0 * traj.dt)


def _fg_rung(cfg: ScenarioConfig, n: int):
    """Worst residual over the Fradkin-Good relations and the three
    mass-center offsets, every sum of the packet's pass, at widths / n."""
    w = np.array(cfg.packet.widths, dtype=float) / n
    pkt = cfg.wave_packet(w)
    rels = [*packets.verify_fg_relations(pkt).values(),
            *(packets.verify_main_result(pkt, kind)
              for kind in algebra.PRYCE_KINDS)]
    return float(np.max(w)), max(r.residual for r in rels), RESIDUAL_FLOOR


class Target(NamedTuple):
    rung: Callable  # (cfg, n) -> (resolution, error, roundoff floor)
    window: tuple   # the fitted order must land in center +- halfwidth
    key: str        # the input a ladder at its roundoff floor points at


TARGETS = {
    "integrator": Target(_integrator_rung, (4.0, 0.5), "initial.v"),
    "fg": Target(_fg_rung, (2.0, 0.5), "packet.widths"),
    "anomalous-fd": Target(_anomalous_fd_rung, (2.0, 0.5), "initial.s"),
}


def run_ladder(cfg: ScenarioConfig) -> Ladder:
    """Halve the resolution; an error at its floor is a ConfigError."""
    target = TARGETS[cfg.converge.target]
    rows = []
    for k in range(RUNGS):
        h, err, floor = target.rung(cfg, 2**k)
        if err <= floor:
            raise ConfigError(f"{target.key}: rung {k} error {err:.3g} is at "
                              f"its roundoff floor {floor:.3g}; nothing to "
                              f"converge")
        rows.append((h, err))
    return Ladder(cfg.converge.target, *np.array(rows).T)
