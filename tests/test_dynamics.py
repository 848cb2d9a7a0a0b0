import dataclasses
import pathlib
import warnings

import numpy as np
import pytest

from conftest import rotation_matrix
from spindrift import dynamics as dyn
from spindrift import gallery
from spindrift.algebra import pryce_factors
from spindrift.config import load_config
from spindrift.dynamics import (ClassicalState, ConstantGammaWarning,
                                FieldConfig, IntegrationError)

DATA = pathlib.Path(__file__).parent / "data"


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
        # difference of the integrated velocity
        f = FieldConfig(E=(2e-3, 1e-3, 0), B=(0, 0, 5e-3), charge=-1.0)
        st = ClassicalState(0.0, (0, 0, 0), (0.4, 0.1, 0.0), (0, 0, 0))
        dt = 1e-3
        traj = dyn.integrate(st, f, dt, 2)
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
        traj = dyn.integrate(st, f, period / 400, 400)
        assert np.max(np.abs(traj.s[-1] - traj.s[0])) < 1e-8
        # halfway through, the spin is flipped in the transverse plane
        assert np.allclose(traj.s[200], [-0.5, 0, 0], atol=1e-8)


class TestSpinBoost:
    def test_rest(self):
        lab = dyn.boost_spin(ClassicalState(0, (0, 0, 0), (0, 0, 0),
                                            (0.1, 0.2, 0.3)))
        assert lab.S0 == 0.0
        assert np.array_equal(lab.S, [0.1, 0.2, 0.3])

    def test_perpendicular_unchanged(self):
        lab = dyn.boost_spin(ClassicalState(0, (0, 0, 0), (0, 0, 0.9),
                                            (0.5, 0, 0)))
        assert np.allclose(lab.S, [0.5, 0, 0], atol=0)

    def test_hand_values(self):
        lab = dyn.boost_spin(ClassicalState(0, (0, 0, 0), (0, 0, 0.6),
                                            (0, 0, 0.5)))
        assert lab.S0 == pytest.approx(0.375, abs=1e-15)
        assert np.allclose(lab.S, [0, 0, 0.625], atol=1e-15)

    def test_roundtrip_1000_random(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(1000):
            s = rng.normal(size=3)
            v = rng.normal(size=3)
            v *= rng.uniform(0, 0.95) / np.linalg.norm(v)
            lab = dyn.boost_spin(ClassicalState(0, (0, 0, 0), v, s))
            back = dyn.unboost_spin(lab, v)
            worst = max(worst, np.max(np.abs(back - s)))
            assert lab.S0 == pytest.approx(dyn.dilation(v) * (v @ s),
                                           abs=1e-14)
        assert worst < 1e-14


class TestThomas:
    def test_parallel_acceleration_vanishes(self):
        assert np.array_equal(dyn.thomas_omega((0, 0, 2.0), (0, 0, 0.5)),
                              np.zeros(3))

    def test_low_velocity_half_factor(self):
        a = np.array([1.0, 0, 0])
        v = np.array([0, 1e-4, 0])
        wt = dyn.thomas_omega(a, v)
        assert np.allclose(wt, 0.5 * np.cross(a, v), rtol=1e-7)

    def test_cyclotron_antiparallel_oracle(self):
        # circular orbit: omega_T = -(gbar - 1) omega_gyration
        state, fields = pure_b_setup()
        g = state.gamma
        w_gyr = -fields.charge / (g * fields.mass) * fields.B
        a = dyn.lorentz_force(state, fields) / fields.mass
        wt = dyn.thomas_omega(a, state.v)
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
            lab = dyn.boost_spin(ClassicalState(0, (0, 0, 0), v, s))
            a = dyn.position_shift(lab.S, v, 1.0)
            b = np.cross(s, v) / 2.0
            assert np.max(np.abs(a - b)) < 1e-15


class TestMassCenter:
    def test_c_is_position(self):
        st = ClassicalState(0.0, (1, 2, 3), (0.5, 0.1, 0), (0.3, 0.2, 0.1))
        assert np.array_equal(dyn.mass_center(st, "c", 1.0), st.x)

    def test_at_rest_all_kinds(self):
        st = ClassicalState(0.0, (1, 2, 3), (0, 0, 0), (0.3, 0.2, 0.1))
        for kind in ("c", "d", "e"):
            assert np.array_equal(dyn.mass_center(st, kind, 1.0), st.x)

    def test_d_e_offset_ratio(self):
        st = ClassicalState(0.0, (0, 0, 0), (0.6, 0, 0), (0, 0, 0.5))
        g = st.gamma
        off_d = dyn.mass_center(st, "d", 1.0) - st.x
        off_e = dyn.mass_center(st, "e", 1.0) - st.x
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
        traj = dyn.integrate(state, fields, 2.0, 300)
        worst = 0.0
        for i in range(0, 301, 30):
            st = ClassicalState(traj.t[i], traj.x[i], traj.v[i], traj.s[i])
            lhs = dyn.bmt_rhs(st, fields)
            a = dyn.lorentz_force(st, fields) / fields.mass
            rhs = (dyn.fprime(st, fields) / st.gamma
                   + np.cross(dyn.thomas_omega(a, st.v), st.s))
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
        traj = dyn.integrate(state, fields, 2.0, 200)
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
        traj = dyn.integrate(st, f, 0.5, 100)
        assert np.allclose(traj.x[-1], st.x + 50.0 * st.v, atol=1e-12)
        assert np.allclose(traj.s, st.s, atol=1e-14)

    def test_cyclotron_radius_and_period(self):
        state, fields = pure_b_setup()
        period = dyn.cyclotron_period(state, fields)
        radius = dyn.cyclotron_radius(state, fields)
        traj = dyn.integrate(state, fields, period / 1000, 1000)
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
        traj = dyn.integrate(state, fields, 0.5, 800)
        x_ref, v_ref = dyn.helix_reference(state, fields, traj.t)
        assert np.max(np.abs(traj.x - x_ref)) < 1e-8
        assert np.max(np.abs(traj.v - v_ref)) < 1e-9

    def test_step_size_guard(self):
        state, fields = pure_b_setup(b0=0.5)
        with pytest.raises(IntegrationError, match="rotation rate"):
            dyn.integrate(state, fields, 1.0, 10)

    def test_rejects_superluminal_initial_state(self):
        with pytest.raises(ValueError):
            ClassicalState(0.0, (0, 0, 0), (1.01, 0, 0), (0, 0, 0))

    def test_spin_norm_drift_bound(self):
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        period = dyn.cyclotron_period(state, fields)
        n = 2000
        dt = 2 * period / n
        traj = dyn.integrate(state, fields, dt, n)
        norms = np.linalg.norm(traj.s, axis=1)
        drift = np.max(np.abs(norms - norms[0]))
        theta = np.linalg.norm(dyn.omega(state, fields)) * dt
        assert drift < 5.0 * n * theta**6 / 144.0
        assert drift < 1.0 * dt**4 * n

    def test_gamma_frozen_in_pure_b(self):
        # |p| rotates rigidly; the RK4 amplitude decay (w dt)^6/144 per step
        # is the only drift channel
        state, fields = pure_b_setup()
        n, dt = 500, 2.0
        traj = dyn.integrate(state, fields, dt, n)
        theta = np.linalg.norm(dyn.omega(state, fields)) * dt
        bound = 5.0 * n * theta**6 / 144.0
        assert np.max(np.abs(traj.gamma - state.gamma)) < bound
        assert traj.max_ev == 0.0

    def test_s0_matches_boost_identity(self):
        state, fields = pure_b_setup(s=(0.2, 0.1, 0.4))
        traj = dyn.integrate(state, fields, 2.0, 100)
        expect = traj.gamma * np.sum(traj.v * traj.s, axis=1)
        assert np.max(np.abs(traj.S0 - expect)) < 1e-14

    def test_fd_delta_x_order_two(self):
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        period = dyn.cyclotron_period(state, fields)
        errs = []
        for k in (100, 200, 400):
            traj = dyn.integrate(state, fields, period / k, k)
            fd = traj.finite_difference(traj.delta_x)
            err = np.max(np.linalg.norm(
                fd - traj.v_anomalous[traj.interior_slice()], axis=1))
            errs.append(err)
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs[1] / errs[2] < 4.5

    def test_c_center_velocity_is_v(self):
        # d/dt X_c = v exactly: the c offset column is identically zero
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        traj = dyn.integrate(state, fields, 2.0, 200)
        assert np.array_equal(traj.centers["c"], traj.x)

    def test_d_e_offset_velocity_ratio_pointwise(self):
        # frozen gamma: fd(X_d - x) = (1 + gbar) fd(X_e - x) pointwise
        state, fields = pure_b_setup(s=(0.3, -0.2, 0.5))
        traj = dyn.integrate(state, fields, 2.0, 200)
        fd_d = traj.finite_difference(traj.center_offset("d"))
        fd_e = traj.finite_difference(traj.center_offset("e"))
        g = traj.gamma[traj.interior_slice()]
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
        t1 = dyn.integrate(state, fields, 1.0, 200)
        t2 = dyn.integrate(state_r, fields_r, 1.0, 200)
        assert np.max(np.abs(t1.x @ rot.T - t2.x)) < 1e-10
        assert np.max(np.abs(t1.s @ rot.T - t2.s)) < 1e-10
        assert np.max(np.abs(t1.delta_x @ rot.T - t2.delta_x)) < 1e-10

    def test_sample_every(self):
        state, fields = pure_b_setup()
        full = dyn.integrate(state, fields, 1.0, 100)
        thin = dyn.integrate(state, fields, 1.0, 100, sample_every=10)
        assert len(thin.t) == 11
        assert np.array_equal(thin.x, full.x[::10])
        assert thin.dt == 10.0
        assert np.all(np.diff(thin.t) > 0)

    def test_non_finite_state_aborts_at_first_sample(self):
        state, fields = pure_b_setup()
        state.x = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(IntegrationError) as err:
            dyn.integrate(state, fields, 1.0, 100, sample_every=7)
        assert err.value.step == 7


def _generic_rk4(state0, fields, dt, steps, sample_every):
    """Classic RK4 over 9-tuples of numpy scalars, stage by stage via zip."""
    deriv = dyn._make_deriv(fields)

    def rhs(y):
        return deriv(*y[3:])

    m = fields.mass
    y = tuple(np.concatenate((state0.x, state0.momentum(m), state0.s)))
    ys = [y]
    half, sixth = 0.5 * dt, dt / 6.0
    for k in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(tuple(a + half * b for a, b in zip(y, k1)))
        k3 = rhs(tuple(a + half * b for a, b in zip(y, k2)))
        k4 = rhs(tuple(a + dt * b for a, b in zip(y, k3)))
        y = tuple(a + sixth * (b + 2.0 * (c + d) + e)
                  for a, b, c, d, e in zip(y, k1, k2, k3, k4))
        if k % sample_every == 0:
            ys.append(y)
    ys = np.array(ys)
    p = ys[:, 3:6]
    v = p / np.sqrt(m * m + np.sum(p * p, axis=1))[:, None]
    return ys[:, 0:3], v, ys[:, 6:9]


ORACLE_SCENARIOS = {**gallery.gallery_configs(),
                    "orbit_crossed_seed0":
                        load_config(DATA / "orbit_crossed_seed0.cfg")}


@pytest.mark.parametrize("name", sorted(ORACLE_SCENARIOS))
def test_unrolled_rk4_matches_generic_loop_bitwise(name):
    cfg = dataclasses.replace(ORACLE_SCENARIOS[name], steps=2000)
    state, fields = cfg.initial_state(), cfg.field_config()
    traj = dyn.integrate(state, fields, cfg.dt, cfg.steps,
                         sample_every=cfg.sample_every)
    x, v, s = _generic_rk4(state, fields, cfg.dt, cfg.steps,
                           cfg.sample_every)
    assert np.array_equal(traj.x, x)
    assert np.array_equal(traj.v, v)
    assert np.array_equal(traj.s, s)


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
        fp = pryce_factors(kind, g)[3]
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
    **ORACLE_SCENARIOS,
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
        warnings.simplefilter("error")  # integrate itself never warns
        traj = dyn.integrate(cfg.initial_state(), fields, cfg.dt, cfg.steps,
                             sample_every=cfg.sample_every,
                             kinds=cfg.pryce_kinds)
    want = _inline_series(traj.x, traj.v, traj.s, traj.gamma, fields,
                          cfg.pryce_kinds)
    for key in ("S0", "S", "delta_x", "v_anomalous", "max_ev"):
        _assert_same_bits(getattr(traj, key), want[key])
    assert sorted(traj.centers) == sorted(want["centers"])
    for kind, center in want["centers"].items():
        _assert_same_bits(traj.centers[kind], center)
