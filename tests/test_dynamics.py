import dataclasses
import pathlib
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import rotation_matrix
from spindrift import dynamics as dyn
from spindrift import convergence, exact, gallery
from spindrift.algebra import PRYCE_KINDS, pryce_factors
from spindrift.config import load_config
from spindrift.dynamics import (ClassicalState, ConstantGammaWarning,
                                FieldConfig, IntegrationError)

DATA = pathlib.Path(__file__).parent / "data"


def _central(series, dt):
    """Central differences of a series sampled every dt, at the interior
    samples."""
    return (series[2:] - series[:-2]) / (2.0 * dt)


def pure_b_setup(b0=0.02, v=0.6, s=(0.15, 0.0, 0.65), charge=1.0):
    fields = FieldConfig(E=(0, 0, 0), B=(0, 0, b0), charge=charge, mass=1.0)
    state = ClassicalState(0.0, (0, 0, 0), (v, 0, 0), s)
    return state, fields


class TestDilation:
    def test_rest(self):
        assert dyn.dilation((0, 0, 0)) == 1.0

    def test_hand_value(self):
        assert dyn.dilation((0.6, 0, 0)) == pytest.approx(1.25, abs=1e-15)

    def test_rejects_luminal(self):
        with pytest.raises(ValueError):
            dyn.dilation((1.0, 0, 0))
        with pytest.raises(ValueError):
            dyn.dilation((0, 1.0 - 1e-13, 0))
        dyn.dilation((0, 0.999, 0))  # fine

    def test_rejects_nan_velocity(self):
        with pytest.raises(ValueError, match="must be <"):
            dyn.dilation([(0.5, 0, 0), (np.nan, 0, 0)])
        with pytest.raises(ValueError, match="must be <"):
            ClassicalState(0, (0, 0, 0), (np.nan, 0, 0), (0, 0, 1))


class TestLorentz:
    def test_parallel_b_no_force(self):
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0.5), (0, 0, 0))
        f = FieldConfig(B=(0, 0, 2.0), charge=1.0)
        assert np.array_equal(dyn.lorentz_rhs(st, f), np.zeros(3))

    def test_electric_at_rest(self):
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0), (0, 0, 0))
        f = FieldConfig(E=(0.7, 0, 0), B=(0, 3, 1), charge=1.0)
        assert np.allclose(dyn.lorentz_rhs(st, f), [0.7, 0, 0], atol=0)

    def test_hand_cross_product(self):
        st = ClassicalState(0, (0, 0, 0), (0.5, 0, 0), (0, 0, 0))
        f = FieldConfig(B=(0, 0, 0.3), charge=1.0)
        assert np.allclose(dyn.lorentz_rhs(st, f), [0, -0.15, 0], atol=1e-16)

    def test_force_conversion_fd_oracle(self):
        # m dv/dt from the (v.E)-aware conversion must match a central
        # difference of the exact velocity
        f = FieldConfig(E=(2e-3, 1e-3, 0), B=(0, 0, 5e-3), charge=-1.0)
        st = ClassicalState(0.0, (0, 0, 0), (0.4, 0.1, 0.0), (0, 0, 0))
        dt = 1e-3
        traj = exact.propagate(st, f, dt, 2)
        fd = (traj.v[2] - traj.v[0]) / (2 * dt)
        mid = ClassicalState(traj.t[1], traj.x[1], traj.v[1], traj.s[1])
        assert np.max(np.abs(dyn.lorentz_force(mid, f) - fd)) < 1e-9


class TestOmega:
    def test_rest_is_cyclotron(self):
        f = FieldConfig(B=(0, 0, 0.4), E=(1, 2, 3), charge=1.0, mass=2.0)
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0), (0, 0, 0))
        assert np.allclose(dyn.omega(st, f), [0, 0, 0.2], atol=1e-16)

    def test_pure_b(self):
        f = FieldConfig(B=(0, 0, 0.4), charge=1.0)
        g = dyn.dilation((0.6, 0, 0))
        st = ClassicalState(0, (0, 0, 0), (0.6, 0, 0), (0, 0, 0))
        assert np.allclose(dyn.omega(st, f), [0, 0, 0.4 / g], atol=1e-16)

    def test_hand_value_crossed(self):
        e0 = 0.37
        f = FieldConfig(E=(0, e0, 0), B=(0, 0, 0), charge=1.0, mass=1.0)
        st = ClassicalState(0, (0, 0, 0), (0.6, 0, 0), (0, 0, 0))
        w = dyn.omega(st, f)
        assert np.allclose(w, [0, 0, -4.0 * e0 / 15.0], atol=1e-16)


class TestBmt:
    def test_parallel_spin_static(self):
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0), (0, 0, 0.5))
        f = FieldConfig(B=(0, 0, 1.0), charge=1.0)
        assert np.array_equal(dyn.bmt_rhs(st, f), np.zeros(3))

    def test_perpendicular_magnitude(self):
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0), (0.5, 0, 0))
        f = FieldConfig(B=(0, 0, 2e-2), charge=1.0)
        w = np.linalg.norm(dyn.omega(st, f))
        assert np.linalg.norm(dyn.bmt_rhs(st, f)) == pytest.approx(0.5 * w)

    def test_precession_period_closed_form(self):
        # at rest in pure B the spin should return after T = 2 pi m / (e B)
        b0, m = 0.05, 1.0
        f = FieldConfig(B=(0, 0, b0), charge=1.0, mass=m)
        st = ClassicalState(0.0, (0, 0, 0), (0, 0, 0), (0.5, 0, 0))
        period = 2 * np.pi * m / b0
        traj = exact.propagate(st, f, period / 400, 400)
        assert np.max(np.abs(traj.s[-1] - traj.s[0])) < 1e-8
        # halfway through, the spin is flipped in the transverse plane
        assert np.allclose(traj.s[200], [-0.5, 0, 0], atol=1e-8)


class TestSpinBoost:
    def test_rest(self):
        S0, S = dyn.boost_spin(np.array([0.1, 0.2, 0.3]), np.zeros(3), 1.0)
        assert S0 == 0.0
        assert np.array_equal(S, [0.1, 0.2, 0.3])

    def test_perpendicular_unchanged(self):
        v = np.array([0.0, 0.0, 0.9])
        _, S = dyn.boost_spin(np.array([0.5, 0.0, 0.0]), v, dyn.dilation(v))
        assert np.allclose(S, [0.5, 0, 0], atol=0)

    def test_hand_values(self):
        v = np.array([0.0, 0.0, 0.6])
        S0, S = dyn.boost_spin(np.array([0.0, 0.0, 0.5]), v, dyn.dilation(v))
        assert S0 == pytest.approx(0.375, abs=1e-15)
        assert np.allclose(S, [0, 0, 0.625], atol=1e-15)

    def test_roundtrip_1000_random(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            s = rng.normal(size=3)
            v = rng.normal(size=3)
            v *= rng.uniform(0, 0.95) / np.linalg.norm(v)
            S0, S = dyn.boost_spin(s, v, dyn.dilation(v))
            back = dyn.unboost_spin(S, v, dyn.dilation(v))
            worst = max(worst, np.max(np.abs(back - s)))
            assert S0 == pytest.approx(dyn.dilation(v) * (v @ s), abs=1e-14)
        assert worst < 1e-14


class TestThomas:
    def test_parallel_acceleration_vanishes(self):
        state = ClassicalState(0.0, (0, 0, 0), (0, 0, 0.5), (0, 0, 0))
        assert np.array_equal(dyn.thomas_omega(state, (0, 0, 2.0)),
                              np.zeros(3))

    def test_low_velocity_half_factor(self):
        a = np.array([1.0, 0, 0])
        state = ClassicalState(0.0, (0, 0, 0), (0, 1e-4, 0), (0, 0, 0))
        wt = dyn.thomas_omega(state, a)
        assert np.allclose(wt, 0.5 * np.cross(a, state.v), rtol=1e-7)

    def test_cyclotron_antiparallel_oracle(self):
        # circular orbit: omega_T = -(gbar - 1) omega_gyration
        state, fields = pure_b_setup()
        g = state.gamma
        w_gyr = -fields.charge / (g * fields.mass) * fields.B
        a = dyn.lorentz_force(state, fields) / fields.mass
        wt = dyn.thomas_omega(state, a)
        assert np.allclose(wt, -(g - 1.0) * w_gyr, rtol=1e-13)


class TestPositionShift:
    def test_parallel(self):
        assert np.array_equal(dyn.position_shift((0, 0, 1), (0, 0, 0.4), 1.0),
                              np.zeros(3))

    def test_hand_value(self):
        assert np.allclose(dyn.position_shift((0, 0, 1), (0.1, 0, 0), 1.0),
                           [0, 0.05, 0], atol=1e-17)

    def test_lab_and_rest_spin_give_same_shift(self):
        # S x v = s x v identically because the boost correction is along v
        rng = np.random.default_rng(23)
        for _ in range(50):
            s = rng.normal(size=3)
            v = rng.normal(size=3)
            v *= rng.uniform(0, 0.9) / np.linalg.norm(v)
            _, S = dyn.boost_spin(s, v, dyn.dilation(v))
            a = dyn.position_shift(S, v, 1.0)
            b = np.cross(s, v) / 2.0
            assert np.max(np.abs(a - b)) < 1e-15


class TestMassCenter:
    def test_c_is_position(self):
        st = ClassicalState(0.0, (1, 2, 3), (0.5, 0.1, 0), (0.3, 0.2, 0.1))
        assert np.array_equal(dyn.mass_centers(st, 1.0)["c"], st.x)

    def test_at_rest_all_kinds(self):
        st = ClassicalState(0.0, (1, 2, 3), (0, 0, 0), (0.3, 0.2, 0.1))
        centers = dyn.mass_centers(st, 1.0)
        assert tuple(centers) == PRYCE_KINDS
        for kind in ("c", "d", "e"):
            assert np.array_equal(centers[kind], st.x)

    def test_d_e_offset_ratio(self):
        st = ClassicalState(0.0, (0, 0, 0), (0.6, 0, 0), (0, 0, 0.5))
        g = st.gamma
        centers = dyn.mass_centers(st, 1.0)
        off_d = centers["d"] - st.x
        off_e = centers["e"] - st.x
        assert np.allclose(off_d, (1.0 + g) * off_e, rtol=1e-14)


class TestFprime:
    def test_aligned_spin_vanishes(self):
        state, fields = pure_b_setup(s=(0, 0, 0.6))  # s || B, v perp B
        assert np.array_equal(dyn.fprime(state, fields), np.zeros(3))

    def test_rest_value(self):
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0), (0.5, 0, 0))
        f = FieldConfig(B=(0, 0, 0.3), charge=1.0, mass=1.0)
        # gbar g e / 2m collapses to e/m at rest with g = 2
        assert np.allclose(dyn.fprime(st, f),
                           np.cross([0.5, 0, 0], [0, 0, 0.3]), atol=1e-16)

    def test_precession_identity_along_orbit(self):
        # ds/dt = F'/gbar + omega_T x s pointwise on a uniform-B orbit
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        traj = exact.propagate(state, fields, 2.0, 300)
        worst = 0.0
        for i in range(0, 301, 30):
            st = ClassicalState(traj.t[i], traj.x[i], traj.v[i], traj.s[i])
            lhs = dyn.bmt_rhs(st, fields)
            a = dyn.lorentz_force(st, fields) / fields.mass
            rhs = (dyn.fprime(st, fields) / st.gamma
                   + np.cross(dyn.thomas_omega(st, a), st.s))
            worst = max(worst, np.max(np.abs(lhs - rhs)))
        assert worst < 1e-10


class TestAnomalousVelocity:
    def test_zero_spin_short_circuits(self):
        st = ClassicalState(0, (0, 0, 0), (0.5, 0, 0), (0, 0, 0))
        f = FieldConfig(E=(0.1, 0, 0), B=(0, 1, 0), charge=1.0)
        assert np.array_equal(dyn.anomalous_velocity_compact(st, f),
                              np.zeros(3))
        ve, vb = dyn.anomalous_velocity_decomposed(st, f)
        assert not np.any(ve) and not np.any(vb)

    def test_hand_value_rest_electric(self):
        e0 = 0.2
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0), (0, 0, 0.5))
        f = FieldConfig(E=(e0, 0, 0), charge=1.0, mass=1.0)
        assert np.allclose(dyn.anomalous_velocity_compact(st, f),
                           [0, e0 / 4.0, 0], atol=1e-17)

    def test_low_velocity_electric_limit(self):
        st = ClassicalState(0, (0, 0, 0), (1e-5, 0, 0), (0, 0, 0.5))
        f = FieldConfig(E=(0, 3e-3, 0), charge=1.0, mass=1.0)
        ve, vb = dyn.anomalous_velocity_decomposed(st, f)
        assert not np.any(vb)
        assert np.allclose(ve, np.cross([0, 0, 0.5], f.E) / 2.0, rtol=1e-7)

    def test_magnetic_part_parallel_field(self):
        # v || B and s perp B: only -(v.B)s survives
        st = ClassicalState(0, (0, 0, 0), (0, 0, 0.4), (0.5, 0, 0))
        f = FieldConfig(B=(0, 0, 0.3), charge=1.0, mass=1.0)
        g = st.gamma
        ve, vb = dyn.anomalous_velocity_decomposed(st, f)
        assert not np.any(ve)
        assert np.allclose(vb, -0.4 * 0.3 / (2 * g) * np.array([0.5, 0, 0]),
                           rtol=1e-14)

    def test_crossed_field_sum_matches_compact(self):
        st = ClassicalState(0, (0, 0, 0), (0.3, 0, 0), (0, 0, 0.5))
        f = FieldConfig(E=(0, 0.01, 0), B=(0, 0, 0.02), charge=1.0, mass=1.0)
        ve, vb = dyn.anomalous_velocity_decomposed(st, f)
        compact = dyn.anomalous_velocity_compact(st, f)
        assert np.max(np.abs(compact - (ve + vb))) < 1e-12

    def test_pure_b_rotating_with_orbit(self):
        # s || B: V = s x F / (2 m^2), co-rotating with the velocity
        state, fields = pure_b_setup(s=(0, 0, 0.6))
        traj = exact.propagate(state, fields, 2.0, 200)
        for i in (0, 50, 199):
            st = ClassicalState(traj.t[i], traj.x[i], traj.v[i], traj.s[i])
            expect = np.cross(st.s, dyn.lorentz_force(st, fields)) / 2.0
            assert np.allclose(dyn.anomalous_velocity_compact(st, fields),
                               expect, atol=1e-15)

    def test_thomas_form_on_constructed_state(self):
        state, fields = pure_b_setup(s=(0, 0, 0.6))
        vt = dyn.anomalous_velocity_thomas_form(state, fields)
        vc = dyn.anomalous_velocity_compact(state, fields)
        assert np.max(np.abs(vt - vc)) < 1e-15

    def test_thomas_form_refuses_generic_state(self):
        state, fields = pure_b_setup(s=(0.3, 0.1, 0.2))
        with pytest.raises(ValueError, match="F'"):
            dyn.anomalous_velocity_thomas_form(state, fields)

    def test_triple_agreement_random_admissible(self):
        # random frozen-energy states: E projected perpendicular to v,
        # Thomas states built with spin along the F' bracket
        rng = np.random.default_rng(31)
        for _ in range(50):
            v = rng.normal(size=3)
            v *= rng.uniform(0.05, 0.9) / np.linalg.norm(v)
            e_field = rng.normal(size=3) * 0.01
            vhat = v / np.linalg.norm(v)
            e_field -= (e_field @ vhat) * vhat
            b_field = rng.normal(size=3) * 0.02
            f = FieldConfig(E=e_field, B=b_field,
                            charge=rng.choice([-1.0, 1.0]),
                            mass=rng.uniform(0.5, 2.0))
            s = rng.normal(size=3) * 0.5
            st = ClassicalState(0.0, np.zeros(3), v, s)
            compact = dyn.anomalous_velocity_compact(st, f)
            ve, vb = dyn.anomalous_velocity_decomposed(st, f)
            assert np.max(np.abs(compact - (ve + vb))) < 1e-10
            g = st.gamma
            bracket = (b_field - g / (1 + g) * (v @ b_field) * v
                       - np.cross(v, e_field))
            st2 = ClassicalState(0.0, np.zeros(3), v,
                                 0.5 * bracket / np.linalg.norm(bracket))
            vt = dyn.anomalous_velocity_thomas_form(st2, f)
            vc = dyn.anomalous_velocity_compact(st2, f)
            assert np.max(np.abs(vt - vc)) < 1e-10

    def test_warning_fires_off_regime(self):
        st = ClassicalState(0, (0, 0, 0), (0.5, 0, 0), (0, 0, 0.5))
        f = FieldConfig(E=(0.01, 0, 0), charge=1.0)  # E.v != 0
        with pytest.warns(ConstantGammaWarning):
            dyn.anomalous_velocity_compact(st, f)
        with pytest.warns(ConstantGammaWarning):
            dyn.anomalous_velocity_decomposed(st, f)


class TestIntegration:
    def test_free_particle_straight_line(self):
        st = ClassicalState(0.0, (1, 0, 0), (0.3, 0.2, 0.1), (0.5, 0, 0))
        f = FieldConfig()
        traj = exact.propagate(st, f, 0.5, 100)
        assert np.allclose(traj.x[-1], st.x + 50.0 * st.v, atol=1e-12)
        assert np.allclose(traj.s, st.s, atol=1e-14)

    def test_cyclotron_radius_and_period(self):
        state, fields = pure_b_setup()
        period = dyn.cyclotron_period(state, fields)
        radius = dyn.cyclotron_radius(state, fields)
        traj = exact.propagate(state, fields, period / 1000, 1000)
        w_vec = -(fields.charge / (state.gamma * fields.mass)) * fields.B
        center = state.x + np.cross(w_vec, state.v) / (w_vec @ w_vec)
        r = np.linalg.norm(traj.x - center, axis=1)
        assert np.max(np.abs(r - radius)) / radius < 1e-8
        rho = traj.x - center
        angle = np.unwrap(np.arctan2(rho[:, 1], rho[:, 0]))
        slope = np.polyfit(traj.t, angle, 1)[0]
        assert abs(2 * np.pi / abs(slope) - period) / period < 1e-8

    def test_against_helix_reference(self):
        # velocity with a component along B: helical orbit
        fields = FieldConfig(B=(0, 0, 0.02), charge=1.0, mass=1.0)
        state = ClassicalState(0.0, (0, 0, 0), (0.4, 0.0, 0.3),
                               (0.1, 0.2, 0.3))
        x, v, _ = convergence._rk4(state, fields, 0.5, 800)
        x_ref, v_ref, _, _ = exact.uniform_field_reference(state, fields,
                                                         [0.5 * 800])
        assert np.max(np.abs(x - x_ref[-1])) < 1e-8
        assert np.max(np.abs(v - v_ref[-1])) < 1e-9

    def test_rejects_superluminal_initial_state(self):
        with pytest.raises(ValueError):
            ClassicalState(0.0, (0, 0, 0), (1.01, 0, 0), (0, 0, 0))

    def test_spin_norm_drift_bound(self):
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        period = dyn.cyclotron_period(state, fields)
        n = 2000
        dt = 2 * period / n
        # RK4 shrinks |s| by (w dt)^6/144 a step, so the endpoint drifts most
        _, _, s = convergence._rk4(state, fields, dt, n)
        drift = abs(np.linalg.norm(s) - np.linalg.norm(state.s))
        theta = np.linalg.norm(dyn.omega(state, fields)) * dt
        assert drift < 5.0 * n * theta**6 / 144.0
        assert drift < 1.0 * dt**4 * n

    def test_gamma_frozen_in_pure_b(self):
        # |p| rotates rigidly; the RK4 amplitude decay (w dt)^6/144 per step
        # is the only drift channel
        state, fields = pure_b_setup()
        n, dt = 500, 2.0
        _, v, _ = convergence._rk4(state, fields, dt, n)
        theta = np.linalg.norm(dyn.omega(state, fields)) * dt
        bound = 5.0 * n * theta**6 / 144.0
        assert abs(dyn.dilation(v) - state.gamma) < bound
        assert exact.propagate(state, fields, dt, n).max_ev == 0.0

    def test_s0_matches_boost_identity(self):
        state, fields = pure_b_setup(s=(0.2, 0.1, 0.4))
        traj = exact.propagate(state, fields, 2.0, 100)
        expect = traj.gamma * np.sum(traj.v * traj.s, axis=1)
        assert np.max(np.abs(traj.S0 - expect)) < 1e-14

    def test_fd_delta_x_order_two(self):
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        period = dyn.cyclotron_period(state, fields)
        errs = []
        for k in (100, 200, 400):
            traj = exact.propagate(state, fields, period / k, k)
            err = np.max(np.linalg.norm(
                _central(traj.delta_x, period / k) - traj.v_anomalous[1:-1],
                axis=1))
            errs.append(err)
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_c_center_velocity_is_v(self):
        # d/dt X_c = v exactly: the c offset column is identically zero
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        traj = exact.propagate(state, fields, 2.0, 200)
        assert np.array_equal(traj.centers["c"], traj.x)

    def test_centers_of_every_kind(self):
        state, fields = pure_b_setup()
        traj = exact.propagate(state, fields, 2.0, 10)
        assert list(traj.centers) == ["c", "d", "e"]

    def test_d_e_offset_velocity_ratio_pointwise(self):
        # frozen gamma: fd(X_d - x) = (1 + gbar) fd(X_e - x) pointwise
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        traj = exact.propagate(state, fields, 2.0, 200)
        fd_d = _central(traj.centers["d"] - traj.x, 2.0)
        fd_e = _central(traj.centers["e"] - traj.x, 2.0)
        g = traj.gamma[1:-1]
        assert np.max(np.abs(fd_d - (1.0 + g)[:, None] * fd_e)) < 1e-12

    def test_rotational_covariance(self):
        rot = rotation_matrix([0.3, 1.0, -0.2], 1.2)
        fields = FieldConfig(E=(0, 0.004, 0.001), B=(0.001, 0, 0.02),
                             charge=1.0)
        state = ClassicalState(0.0, (0.5, 0, 0), (0.3, 0.1, 0),
                               (0.2, 0, 0.4))
        fields_r = FieldConfig(E=rot @ fields.E, B=rot @ fields.B,
                               charge=1.0)
        state_r = ClassicalState(0.0, rot @ state.x, rot @ state.v,
                                 rot @ state.s)
        t1 = exact.propagate(state, fields, 1.0, 200)
        t2 = exact.propagate(state_r, fields_r, 1.0, 200)
        assert np.max(np.abs(t1.x @ rot.T - t2.x)) < 1e-10
        assert np.max(np.abs(t1.s @ rot.T - t2.s)) < 1e-10
        assert np.max(np.abs(t1.delta_x @ rot.T - t2.delta_x)) < 1e-10

    def test_sample_every(self):
        state, fields = pure_b_setup()
        full = exact.propagate(state, fields, 1.0, 100)
        thin = exact.propagate(state, fields, 1.0, 100, sample_every=10)
        assert len(thin.t) == 11
        assert np.array_equal(thin.x, full.x[::10])
        assert np.array_equal(np.diff(thin.t), np.full(10, 10.0))
        assert np.all(np.diff(thin.t) > 0)

    def test_non_finite_state_aborts_at_first_sample(self):
        state, fields = pure_b_setup()
        state.x = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(IntegrationError, match="non-finite after 100"):
            convergence._rk4(state, fields, 1.0, 100)


def _inline_series(x, v, s, g, fields, kinds):
    """The derived series written out inline over (n, 3) columns, in the
    arithmetic order the broadcasting formulas must reproduce bit for bit."""
    m = fields.mass
    sv = np.sum(s * v, axis=1)
    S = s + (g * g / (g + 1.0) * sv)[:, None] * v
    S0 = g * sv
    delta_x = np.cross(S, v) / (2.0 * m)

    centers = {}
    for kind in kinds:
        fp = pryce_factors(g)[kind][3]
        centers[kind] = x + np.asarray(fp)[:, None] * delta_x

    w = (fields.charge / m) / g[:, None] * (
        fields.B + (g / (1.0 + g))[:, None] * np.cross(
            np.broadcast_to(fields.E, v.shape), v))
    f = fields.charge * (fields.E + np.cross(v, fields.B)) / g[:, None]
    wv = np.sum(w * v, axis=1)
    v_anom = (sv[:, None] * w - wv[:, None] * s
              + np.cross(s, f) / m) / (2.0 * m)

    max_ev = float(np.max(np.abs(fields.charge * (v @ fields.E))))
    return dict(S0=S0, S=S, delta_x=delta_x, centers=centers,
                v_anomalous=v_anom, max_ev=max_ev)


def _assert_same_bits(got, want):
    # stricter than np.array_equal: -0.0 and 0.0 print differently in a CSV
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


DERIVED_SCENARIOS = {
    **gallery.gallery_configs(),
    "orbit_crossed_seed0": load_config(DATA / "orbit_crossed_seed0.cfg"),
    "cyclotron_zero_spin": dataclasses.replace(
        gallery.gallery_configs()["cyclotron"], s0=(0.0, 0.0, 0.0)),
    # |e| and m away from 1, so that e/m, m gbar and 2m all round
    "cyclotron_heavy": dataclasses.replace(
        gallery.gallery_configs()["cyclotron"], mass=1.7, charge=-1.3),
}


@pytest.mark.parametrize("name", sorted(DERIVED_SCENARIOS))
def test_derived_series_match_inline_reference_bitwise(name):
    cfg = dataclasses.replace(DERIVED_SCENARIOS[name], steps=2000)
    fields = cfg.field_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # propagate itself never warns
        traj = exact.propagate(cfg.initial_state(), fields, cfg.dt,
                               cfg.steps, sample_every=cfg.sample_every)
    want = _inline_series(traj.x, traj.v, traj.s, traj.gamma, fields,
                          PRYCE_KINDS)
    for key in ("S0", "S", "delta_x", "v_anomalous", "max_ev"):
        _assert_same_bits(getattr(traj, key), want[key])
    assert sorted(traj.centers) == sorted(want["centers"])
    for kind, center in want["centers"].items():
        _assert_same_bits(traj.centers[kind], center)


# ---------------------------------------------------------------------------
# the exact uniform-field propagator

SPIN = (0.3, 0.2, 0.4)
# (fields, v0): the field types, m and e away from 1 on three of them
FIELD_TYPES = {
    "pure_b": (FieldConfig(B=(0.01, -0.02, 0.005), charge=-1.3, mass=1.7),
               (0.3, 0.5, -0.2)),
    "crossed_slow": (FieldConfig(E=(0, 0.006, 0), B=(0, 0, 0.02),
                                 charge=-1.3, mass=1.7), (0.25, 0.05, 0.0)),
    "crossed_fast": (FieldConfig(E=(0, 0.02, 0), B=(0, 0, 0.012),
                                 charge=-1.3, mass=1.7), (0.25, 0.05, 0.0)),
    "e_dot_b": (FieldConfig(E=(0.001, 0.006, 0.002), B=(0.003, 0, 0.02),
                            charge=1.0), (0.3, 0.0, 0.1)),
    "null": (FieldConfig(E=(0, 0.02, 0), B=(0, 0, 0.02), charge=1.0),
             (0.1, 0.0, 0.2)),
}
# |E| = |B| (1 - 1e-5): (alpha^2 + beta^2) t^2 crosses SERIES_LIMIT near
# t = 1.1e4, past which the spectral form's division magnifies rounding by
# kappa ~ 1e5
NEAR_NULL = (FieldConfig(E=(0, 0.02, 0), B=(0, 0, 0.0200002), charge=1.0),
             (0.1, 0.0, 0.2))


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _expm(m):
    """exp of a matrix of Decimals: Taylor series of m / 2^k, squared k
    times."""
    k = 0
    while max(sum(abs(c) for c in row) for row in m) / 2**k > 0.5:
        k += 1
    scaled = [[c / 2**k for c in row] for row in m]
    total = [[Decimal(int(i == j)) for j in range(len(m))]
             for i in range(len(m))]
    term = total
    for j in range(1, 40):
        term = [[c / j for c in row] for row in _matmul(term, scaled)]
        total = [[a + b for a, b in zip(r, q)] for r, q in zip(total, term)]
    for _ in range(k):
        total = _matmul(total, total)
    return total


def _decimal_motion(state0, fields, times):
    """(x, v, s, gbar) at lab times in 40-digit decimals, a route that shares
    no code with the propagator: exp(tau [[A, u0], [0, 0]]) holds exp(tau A)
    and the integral of its action on u0, and Newton on its time row finds
    tau.  s = S - S0 u/(u0 + 1) inverts the spin boost without v."""
    with localcontext() as ctx:
        ctx.prec = 40
        k = Decimal(fields.charge) / Decimal(fields.mass)
        (ex, ey, ez), (bx, by, bz) = ([Decimal(c) for c in vec]
                                      for vec in (fields.E, fields.B))
        a = [[0, ex, ey, ez], [ex, 0, bz, -by], [ey, -bz, 0, bx],
             [ez, by, -bx, 0]]
        v = [Decimal(c) for c in state0.v]
        s = [Decimal(c) for c in state0.s]
        g = 1 / (1 - sum(c * c for c in v)).sqrt()
        sv = sum(p * q for p, q in zip(s, v))
        u0 = [g] + [g * c for c in v]
        a0 = [g * sv] + [p + g * g / (g + 1) * sv * q for p, q in zip(s, v)]
        gen = ([[k * c for c in row] + [u] for row, u in zip(a, u0)]
               + [[Decimal(0)] * 5])
        out, tau = [], Decimal(0)
        for t in times:
            t = Decimal(t) - Decimal(state0.t)
            for _ in range(200):
                lam = _expm([[tau * c for c in row] for row in gen])
                step = (lam[0][4] - t) / sum(
                    lam[0][j] * u0[j] for j in range(4))
                tau -= step
                if abs(step) <= Decimal(10) ** -32 * (1 + abs(tau)):
                    break
            lam = _expm([[tau * c for c in row] for row in gen])
            u = [sum(lam[i][j] * u0[j] for j in range(4)) for i in range(4)]
            sp = [sum(lam[i][j] * a0[j] for j in range(4)) for i in range(4)]
            out.append(([Decimal(c) + lam[i + 1][4]
                         for i, c in enumerate(state0.x)],
                        [c / u[0] for c in u[1:]],
                        [sp[i + 1] - sp[0] / (u[0] + 1) * u[i + 1]
                         for i in range(3)], u[0]))
    return [np.array(col, dtype=float) for col in zip(*out)]


def _ulp_errors(state0, fields, times):
    """The propagator's error against the decimal route, in ulp of the
    largest |x| and gbar and of |s| gbar^2, over the samples."""
    x, v, s, g = exact.uniform_field_reference(state0, fields, times)
    rx, rv, rs, rg = _decimal_motion(state0, fields, times)

    def ulps(err, scale):
        return float(np.max(np.linalg.norm(err, axis=-1))
                     / np.spacing(np.max(scale)))
    return (ulps(x - rx, np.linalg.norm(rx, axis=-1)), ulps(v - rv, rg),
            ulps(s - rs, np.linalg.norm(rs, axis=-1) * rg**2),
            float(np.max(np.abs(g - rg) / rg)))


class TestUniformFieldReference:
    @pytest.mark.parametrize("name", [*FIELD_TYPES, "pure_e"])
    def test_matches_decimal_route_within_its_floor(self, name):
        fields, v0 = FIELD_TYPES.get(
            name, (FieldConfig(E=(0.003, 0, 0), charge=1.0), (0, 0.2, 0)))
        state0 = ClassicalState(0.5, (1.0, -2.0, 0.5), v0, SPIN)
        times = 0.5 + np.array([740.0, 2000.0])
        floor = exact.reference_ulps(fields, 2000.0)
        ex, ev, es, eg = _ulp_errors(state0, fields, times)
        assert max(ex, ev, es) <= floor, (ex, ev, es, floor)
        assert eg < 1e-14

    @pytest.mark.parametrize("t", [2e3, 1e4, 3e4])
    def test_near_null_field_within_its_floor(self, t):
        # series below SERIES_LIMIT, the spectral form with its kappa above
        fields, v0 = NEAR_NULL
        state0 = ClassicalState(0.0, (0, 0, 0), v0, SPIN)
        n, _, _, r, _ = exact._spectrum(fields)
        w = r * np.ldexp(t, n) ** 2  # (alpha^2 + beta^2) t^2
        floor = exact.reference_ulps(fields, t)
        ex, ev, es, _ = _ulp_errors(state0, fields, [0.4 * t, t])
        assert max(ex, ev, es) <= floor, (w, ex, ev, es, floor)
        if w <= exact.SERIES_LIMIT:
            assert max(ex, ev, es) <= 8.0  # no magnification

    def test_series_avoids_the_cancellation(self, monkeypatch):
        # the spectral form on a field the series serves misses by ~2e4 ulp
        fields, v0 = NEAR_NULL
        state0 = ClassicalState(0.0, (0, 0, 0), v0, SPIN)
        series = _ulp_errors(state0, fields, [800.0, 2000.0])
        monkeypatch.setattr(exact, "SERIES_LIMIT", 0.0)
        spectral = _ulp_errors(state0, fields, [800.0, 2000.0])
        assert max(series[:3]) <= 8.0
        assert max(spectral[:3]) > 1e4

    def test_pure_b_matches_helix(self):
        # the helix the integrator ladder used before: rigid rotation of v
        # about B at e B / gbar m, the guiding center at the parallel speed
        fields, v0 = FIELD_TYPES["pure_b"]
        state0 = ClassicalState(0.0, (1.0, 2.0, 3.0), v0, SPIN)
        t = np.linspace(0.0, 4000.0, 2001)
        x, v, _, g = exact.uniform_field_reference(state0, fields, t)
        w = -(fields.charge / (state0.gamma * fields.mass)) * fields.B
        rate = np.linalg.norm(w)
        axis = w / rate
        v_par = (state0.v @ axis) * axis
        v_perp = state0.v - v_par
        c, s = np.cos(rate * t)[:, None], np.sin(rate * t)[:, None]
        axv = np.cross(axis, v_perp)
        helix_v = c * v_perp + s * axv + v_par
        helix_x = (state0.x + (s * v_perp - (c - 1.0) * axv) / rate
                   + t[:, None] * v_par)
        ulp = np.spacing(np.max(np.linalg.norm(x, axis=1)))
        assert np.max(np.linalg.norm(x - helix_x, axis=1)) <= 8 * ulp
        assert np.max(np.linalg.norm(v - helix_v, axis=1)) < 1e-14
        assert np.max(np.abs(g - state0.gamma)) <= 2 * np.spacing(g[0])

    @pytest.mark.parametrize("name", sorted(FIELD_TYPES))
    def test_rk4_converges_at_order_four(self, name):
        fields, v0 = FIELD_TYPES[name]
        state0 = ClassicalState(0.0, (0, 0, 0), v0, SPIN)
        rate = dyn.max_rotation_rate(fields)
        errors = []
        for n in (1, 2, 4):
            dt, steps = 0.08 / rate / n, 40 * n
            rk4 = convergence._rk4(state0, fields, dt, steps)
            ref = exact.uniform_field_reference(state0, fields, [dt * steps])
            errors.append([np.linalg.norm(got - want[-1]) for got, want
                           in zip(rk4, ref)])
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 4.0) < 0.3), orders

    @pytest.mark.parametrize("k", [660, -400])
    def test_power_of_two_field_scaling_is_exact(self, k):
        # fields x 2^-k and times x 2^k: the propagator works in units of
        # max |A|, so v, s and gbar keep their bits and x scales by 2^k.
        # At k = 660, (e/m)^2 (E^2 - B^2) ~ 1e-401 would underflow
        cfg = gallery.gallery_configs()["crossed_drift"]
        fields = cfg.field_config()
        weak = FieldConfig(E=np.ldexp(fields.E, -k), B=np.ldexp(fields.B, -k),
                           charge=fields.charge, mass=fields.mass)
        state0 = ClassicalState(0.0, (0, 0, 0), cfg.v0, cfg.s0)
        want = exact.propagate(state0, fields, cfg.dt, cfg.steps)
        got = exact.propagate(state0, weak, np.ldexp(cfg.dt, k), cfg.steps)
        for key in ("v", "s", "gamma"):
            _assert_same_bits(getattr(got, key), getattr(want, key))
        _assert_same_bits(got.x, np.ldexp(want.x, k))

    @pytest.mark.parametrize("name", ["pure_e", "crossed_fast", "e_dot_b"])
    def test_speed_limit_is_integration_error(self, name):
        # where alpha > 0 gbar grows like alpha t; past 1/sqrt(1 -
        # MAX_SPEED^2) ~ 7e5 no state exists
        fields, v0 = FIELD_TYPES.get(
            name, (FieldConfig(E=(0.003, 0, 0), charge=1.0), (0, 0, 0)))
        state0 = ClassicalState(0.0, (0, 0, 0), v0, SPIN)
        t = np.array([0.0, 1e3, 1e6])
        x, _, _, g = exact.uniform_field_reference(state0, fields, t)
        assert np.isfinite(x).all() and g[-1] < 7e5
        with pytest.raises(IntegrationError, match="reaches"):
            exact.uniform_field_reference(state0, fields, [*t, 1e10])

    def test_thinned_propagate_matches_inline_reference(self):
        state0, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        closed = exact.propagate(state0, fields, 0.7, 120, sample_every=8)
        want = _inline_series(closed.x, closed.v, closed.s, closed.gamma,
                              fields, PRYCE_KINDS)
        for key in ("S0", "S", "delta_x", "v_anomalous", "max_ev"):
            _assert_same_bits(getattr(closed, key), want[key])

    @pytest.mark.parametrize("name", sorted(FIELD_TYPES))
    def test_shift_velocity_is_the_derivative_of_delta_x(self, name):
        # central differences of deltaX on exact samples close in on
        # exact.shift_velocity at order two, E.v != 0 and m != 1 included
        fields, v0 = FIELD_TYPES[name]
        state0 = ClassicalState(0.0, (0, 0, 0), v0, SPIN)
        rate = dyn.max_rotation_rate(fields)
        errors = []
        for n in (1, 2, 4):
            dt = 0.05 / rate / n
            traj = exact.propagate(state0, fields, dt, 40 * n)
            want = exact.shift_velocity(traj)[1:-1]
            err = np.linalg.norm(_central(traj.delta_x, dt) - want, axis=1)
            errors.append(np.max(err) / np.max(np.linalg.norm(want, axis=1)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(np.abs(orders - 2.0) < 0.1), orders
        assert errors[0] < 1e-3


# traced peak of exact.shift_velocity beyond its (n, 3) result: one
# _BLOCK of temporaries, ~0.15 MB.  All 10 001 samples of the cyclotron
# at once peaked 1.7 MB above it.
SHIFT_VELOCITY_EXTRA_BYTES = 300_000


def test_shift_velocity_peak_memory_is_bounded():
    cfg = gallery.gallery_configs()["cyclotron"]
    traj = exact.propagate(cfg.initial_state(), cfg.field_config(), cfg.dt,
                           cfg.steps)
    assert len(traj.t) == 10_001
    tracemalloc.start()
    try:
        shift = exact.shift_velocity(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - shift.nbytes < SHIFT_VELOCITY_EXTRA_BYTES
