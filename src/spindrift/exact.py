"""The exact motion of a spinning electron in uniform static fields.

At g = 2 the BMT equation for the lab spin 4-vector a = (S0, S) is the
Lorentz force law for the 4-velocity u = gbar (1, v): both obey
d/dtau = A = (e/m) F.  So one Lorentz transformation exp(tau A) carries
both, and (t, x) is the integral of u over proper time.  `propagate` samples
this on the grid t0 + k dt, and builds every `Trajectory`.  The integrator
ladder's private RK4 stepper steps the same A in lab time and is checked
against its exponential; that A agrees with dynamics.omega and the Lorentz
force is simulate's anomalous_velocity_eom row.
"""
from __future__ import annotations

import math

import numpy as np

from .dynamics import (MAX_SPEED, ClassicalState, FieldConfig,
                       IntegrationError, Trajectory, boost_spin,
                       max_rotation_rate, position_shift, unboost_spin)

EPS = np.finfo(float).eps
# Fields with (alpha^2 + beta^2) tau^2 <= SERIES_LIMIT over the run take the
# series form; at the limit its last term is below 1/(2 SERIES_TERMS)! of
# the first, 1.6e-24.
SERIES_LIMIT = 1.0
SERIES_TERMS = 12
# Samples per evaluation block: the (n, 4, 2) temporaries of 5 001 samples
# at once raised peak RSS by ~1 MiB.
_BLOCK = 256
# Newton iterations per block at most: each step at least halves the one
# before or bisects the bracket, and ~60 halvings take a bracket on a
# positive root to its ulp, so a solve that reaches the cap has non-finite
# coefficients and raises IntegrationError
_NEWTON_LIMIT = 200


def _combine(c: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_i c[..., i] W[i], so A U for a matrix c = A, by broadcasting:
    the BLAS call of c @ W pages in code that raised peak RSS ~0.3 MiB."""
    return np.sum(c.reshape(c.shape + (1,) * (W.ndim - 1)) * W,
                  axis=c.ndim - 1)


def _generator(fields: FieldConfig) -> np.ndarray:
    """A = (e/m) F: du/dtau = A u for u = gbar (1, v), and at g = 2 the lab
    spin 4-vector (S0, S) obeys the same law.  The one generator: the
    propagator exponentiates it, convergence._rk4 steps it."""
    (ex, ey, ez), (bx, by, bz) = fields.E, fields.B
    return fields.charge / fields.mass * np.array(
        [[0.0, ex, ey, ez], [ex, 0.0, bz, -by],
         [ey, -bz, 0.0, bx], [ez, by, -bx, 0.0]])


def _trig(a: float, tau, cos, sin):
    """cos(a tau), sin(a tau)/a and (1 - cos(a tau))/a^2 -- or with cosh,
    sinh, (cosh(a tau) - 1)/a^2 -- and their limits 1, tau, tau^2/2 at a = 0.
    The last is 2 sin(a tau/2)^2/a^2, which does not cancel at small a tau."""
    if a == 0.0:
        return np.ones_like(tau), tau, 0.5 * tau * tau
    x = a * tau
    return cos(x), sin(x) / a, 2.0 * (sin(0.5 * x) / a) ** 2


def _spectrum(fields: FieldConfig) -> tuple:
    """(n, sigma, ab, r, norm2) of A / 2^n, whose eigenvalues are +-alpha and
    +-i beta: (e/m)^2 times E^2 - B^2, |E.B|, their hypotenuse and E^2 + B^2.
    2^n, near |e/m| times the largest field component, keeps every square in
    range however weak or strong the fields, and dividing by it is exact."""
    k, a = math.frexp(fields.charge / fields.mass)
    b = math.frexp(float(np.max(np.abs([fields.E, fields.B]))))[1]
    E, B = np.ldexp(fields.E, -b), np.ldexp(fields.B, -b)
    k2 = k ** 2
    sigma = k2 * float(E @ E - B @ B)
    ab = k2 * abs(float(E @ B))
    return (a + b, sigma, ab, math.hypot(sigma, 2.0 * ab),
            k2 * float(E @ E + B @ B))


def reference_ulps(fields: FieldConfig, duration: float) -> float:
    """A bound on the rounding of uniform_field_reference up to `duration`
    after the start, in ulp of the largest |x|, gbar and |s| gbar^2.

    Each sample sums four products f_i W_i, with t(tau) solved to its last
    bit: below 8 ulp.  The phases (alpha + beta) tau round to an ulp per
    radian, at most max_rotation_rate * duration since tau <= t.  Dividing
    by alpha^2 + beta^2 to build W magnifies its rounding by kappa = (e/m)^2
    (E^2 + B^2) / (alpha^2 + beta^2) >= 1, which the series form avoids.
    Recovering s from the lab spin 4-vector magnifies its share by gbar^2.
    """
    n, _, _, r, norm2 = _spectrum(fields)
    span = float(np.ldexp(duration, n))
    kappa = norm2 / r if r * span * span > SERIES_LIMIT else 1.0
    return (8.0 + max_rotation_rate(fields) * duration) * kappa


def _propagator(fields: FieldConfig, U: np.ndarray, tau_max: float):
    """(W, coefficients): exp(tau A) U = sum_i f_i W_i, and its integral over
    [0, tau] is sum_i g_i W_i, for (f, g) = coefficients(tau), each (n, 4).

    W holds the spectral parts P_alpha U = (A^2 + beta^2) U / (alpha^2 +
    beta^2) and P_beta U = U - P_alpha U, each also times A.  Where alpha or
    beta is 0 that part is the kernel of A, on which A vanishes:
    exp(tau A) P_0 = P_0, with integral tau P_0.  Near the null field
    (alpha = beta = 0, where A^3 = 0) the division would cancel, so there W
    holds A^i U, i = 0..3, with coefficients summed as series in tau^2.
    Both are built in _spectrum's units, A / 2^n and tau 2^n; the integral
    over tau is 2^-n times the one over tau 2^n.  With no field A = 0, so
    W = U alone, with f = 1 and g = tau: no power of tau can overflow.
    """
    n, sigma, ab, r, _ = _spectrum(fields)
    A = np.ldexp(_generator(fields), -n)
    if not np.any(A):
        return U[None], lambda tau: (np.ones_like(tau)[:, None],
                                     tau[:, None])
    span = float(np.ldexp(tau_max, n))
    if r * span * span <= SERIES_LIMIT:
        W, scaled = _series(A, U, sigma, ab, r)
    else:
        if sigma >= 0.0:
            alpha = math.sqrt(0.5 * (r + sigma))
            beta = ab / alpha
        else:
            beta = math.sqrt(0.5 * (r - sigma))
            alpha = ab / beta
        Wa = (_combine(A, _combine(A, U)) + beta * beta * U) / r
        Wb = U - Wa
        W = np.stack([Wa, _combine(A, Wa) if alpha else 0.0 * Wa,
                      Wb, _combine(A, Wb) if beta else 0.0 * Wb])

        def scaled(tau):
            ch, sh, th = _trig(alpha, tau, np.cosh, np.sinh)
            c, sn, tn = _trig(beta, tau, np.cos, np.sin)
            return (np.stack([ch, sh, c, sn], -1),
                    np.stack([sh, th, sn, tn], -1))

    def coefficients(tau):
        f, g = scaled(np.ldexp(tau, n))
        return f, np.ldexp(g, -n)

    return W, coefficients


def _series(A: np.ndarray, U: np.ndarray, sigma: float, ab: float,
            r: float):
    """The near-null form of _propagator, W = A^i U, i = 0..3, from
    _spectrum's (sigma, ab, r).

    By Cayley-Hamilton A^4 = sigma A^2 + p with p = ab^2, so exp(tau A) =
    (1 + p psi_4) + (tau + p psi_5) A + psi_2 A^2 + psi_3 A^3, where psi_j =
    sum_m h_m tau^(2m+j)/(2m+j)! and h_m = sigma h_(m-1) + p h_(m-2),
    h_0 = 1.  Integration raises each j by one.  The sums run in w = r
    tau^2 <= SERIES_LIMIT, with h_m scaled by r^-m, which stays below m + 1.
    """
    W = [U]
    for _ in range(3):
        W.append(_combine(A, W[-1]))
    scale = r or 1.0
    h = [1.0, sigma / scale]
    while len(h) < SERIES_TERMS:
        h.append(sigma / scale * h[-1] + (ab / scale) ** 2 * h[-2])
    # coefficients of w^m, highest power first, as np.polyval takes them
    poly = {j: [h[m] / math.factorial(2 * m + j)
                for m in reversed(range(SERIES_TERMS))] for j in range(2, 7)}
    p = ab * ab

    def coefficients(tau):
        w = scale * tau * tau
        psi = {j: tau ** j * np.polyval(c, w) for j, c in poly.items()}
        f = [1.0 + p * psi[4], tau + p * psi[5], psi[2], psi[3]]
        g = [tau + p * psi[5], 0.5 * tau * tau + p * psi[6], psi[3], psi[4]]
        return np.stack(f, -1), np.stack(g, -1)

    return np.stack(W), coefficients


def _lab_time_roots(coefficients, w0: np.ndarray, elapsed: np.ndarray,
                    start: tuple):
    """(tau, f, g) with g(tau) . w0 = elapsed, each lab time as the integral
    of gbar = f(tau) . w0 over proper time, from a solved point start =
    (tau_a, elapsed_a, gbar_a) below them.

    Newton's method from the tangent at start.  Since gbar >= 1 each root
    lies in [tau_a, tau_a + elapsed - elapsed_a], a bracket the iterates
    shrink; a step that leaves it, or does not halve the step before it,
    bisects it instead.  It stops at roundoff: each residual within 4 ulp
    of its largest term, or each step within 4 ulp of tau.  A solve still
    short of roundoff after _NEWTON_LIMIT steps raises IntegrationError.
    """
    tau_a, elapsed_a, gamma_a = start
    below, above = np.full(len(elapsed), tau_a), tau_a + elapsed - elapsed_a
    tau = tau_a + (elapsed - elapsed_a) / gamma_a
    step = np.full(len(tau), np.inf)
    for _ in range(_NEWTON_LIMIT):
        f, g = coefficients(tau)
        res = _combine(g, w0) - elapsed
        # the lab time rises with tau and overflows only past the root
        below, above = (np.where(res < 0.0, tau, below),
                        np.where(res < 0.0, above, tau))
        newton = res / _combine(f, w0)
        roundoff = ((np.abs(res) <= 4.0 * EPS * _combine(np.abs(g),
                                                          np.abs(w0)))
                    | (np.abs(newton) <= 4.0 * np.spacing(np.abs(tau))))
        if np.all(roundoff):
            return tau, f, g
        new = tau - newton
        bisect = ~((below <= new) & (new <= above) & (
            roundoff | (np.abs(newton) <= 0.5 * np.abs(step))))
        new[bisect] = 0.5 * (below[bisect] + above[bisect])
        step, tau = new - tau, new
    raise IntegrationError(
        f"the lab time t(tau) is unsolved after {_NEWTON_LIMIT} Newton steps "
        f"at t - t0 = {elapsed[~roundoff][0]:.6g}")


def uniform_field_reference(state0: ClassicalState, fields: FieldConfig,
                            t) -> tuple:
    """The exact (x, v, s, gbar) at lab times t >= state0.t, ascending,
    solved block by block from the last sample of the block before.

    An orbit whose |v| reaches MAX_SPEED, or whose gbar leaves the floats,
    raises IntegrationError.
    """
    elapsed = np.asarray(t, dtype=float) - state0.t
    S0, S = boost_spin(state0.s, state0.v, state0.gamma)
    U = np.stack([state0.gamma * np.array([1.0, *state0.v]),
                  np.array([S0, *S])], axis=-1)
    W, coefficients = _propagator(fields, U,
                                  float(np.max(elapsed, initial=0.0)))
    x, v, s = (np.empty((len(elapsed), 3)) for _ in range(3))
    gamma = np.empty(len(elapsed))
    start = (0.0, 0.0, state0.gamma)
    for lo in range(0, len(elapsed), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        with np.errstate(over="ignore", invalid="ignore"):
            tau, f, g = _lab_time_roots(coefficients, W[:, 0, 0],
                                        elapsed[block], start)
            u = _combine(f, W)
            vb = u[:, 1:, 0] / u[:, :1, 0]
        fast = ~(np.sum(vb * vb, axis=-1) < MAX_SPEED ** 2)
        if np.any(fast):
            raise IntegrationError(
                f"|v| reaches {MAX_SPEED!r} (gbar = {u[fast, 0, 0][0]:.6g}) "
                f"at t = {state0.t + elapsed[block][fast][0]:.6g}")
        x[block] = state0.x + _combine(g, W[:, 1:, 0])
        # at a turning point u0 may round to just below 1; gbar >= 1
        v[block], gamma[block] = vb, np.maximum(u[:, 0, 0], 1.0)
        s[block] = unboost_spin(u[:, 1:, 1], vb, u[:, 0, 0])
        start = (tau[-1], elapsed[block][-1], u[-1, 0, 0])
    return x, v, s, gamma


def propagate(state0: ClassicalState, fields: FieldConfig, dt: float,
              steps: int, sample_every: int = 1) -> Trajectory:
    """The exact motion sampled at t0 + k dt for k = 0, sample_every, ...,
    steps."""
    t = state0.t + np.arange(0, steps + 1, sample_every) * float(dt)
    return Trajectory(t, *uniform_field_reference(state0, fields, t),
                      fields=fields)


def shift_velocity(traj: Trajectory) -> np.ndarray:
    """d(deltaX)/dt at every sample, deltaX = S x v / 2m, from the equations
    of motion: u = gbar (1, v) and a = (S0, S) obey d/dtau = A, and d/dt =
    gbar^-1 d/dtau.  So dS/dt = (A a)_S / gbar and dv/dt = d(u_v/u_0)/dt =
    ((A u)_v - v (A u)_0) / gbar^2.  It reads A, not dynamics.omega or the
    Lorentz force, so it shares no formula with the V it grades.  Evaluated
    _BLOCK samples at a time, so no temporary grows with the run."""
    A = _generator(traj.fields)
    m = traj.fields.mass
    out = np.empty_like(traj.v)
    for lo in range(0, len(out), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        g, v, S = traj.gamma[block, None], traj.v[block], traj.S[block]
        du = _combine(A, np.hstack([g, g * v]).T).T
        da = _combine(A, np.hstack([traj.S0[block, None], S]).T).T
        dv_dt = (du[:, 1:] - v * du[:, :1]) / (g * g)
        out[block] = (position_shift(da[:, 1:] / g, v, m)
                      + position_shift(S, dv_dt, m))
    return out
