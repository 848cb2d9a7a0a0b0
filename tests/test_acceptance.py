"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""
import time

import numpy as np
import pytest

from spindrift import (algebra, dynamics as dyn, exact, gallery, packets,
                       runners)
from spindrift.convergence import run_ladder
from spindrift.dynamics import ClassicalState
from spindrift.packets import RESIDUAL_FLOOR

GALLERY = gallery.gallery_configs()


def _announce(num, label, detail=""):
    print(f"\nACCEPTANCE {num} ({label}): PASS {detail}")


def test_criterion_1_algebra_suite():
    t0 = time.perf_counter()
    report = algebra.identity_report(n_momenta=100, pmax_over_m=10.0,
                                     m=1.0, seed=2024)
    elapsed = time.perf_counter() - t0
    for row in report:
        assert row.residual < 1e-12, (row.name, row.residual)
    assert elapsed < 1.0
    _announce(1, "algebra identities",
              f"max residual {max(r.residual for r in report):.2e}, "
              f"{elapsed:.2f}s")


def test_criterion_2_fg_relations(reference_packet):
    t0 = time.perf_counter()
    coarse = packets.verify_fg_relations(reference_packet)
    fine_packet = packets.make_gaussian_packet(
        (0, 0, 0.6), 0.005, (1, 0, 0), m=1.0, grid_points=32)
    fine = packets.verify_fg_relations(fine_packet)
    elapsed = time.perf_counter() - t0

    worst = 0.0
    for rel in coarse.values():
        assert rel.residual < 1e-3, (rel.name, rel.residual)
        r_fine = fine[rel.name].residual
        if rel.residual < RESIDUAL_FLOOR:
            # pointwise-exact relation: both rungs at roundoff
            assert r_fine < RESIDUAL_FLOOR, rel.name
            continue
        ratio = rel.residual / r_fine
        assert 2.2 < ratio < 6.7, (rel.name, ratio)
        worst = max(worst, rel.residual)
    assert elapsed < 60.0
    _announce(2, "FG relations",
              f"max residual {worst:.2e}, quadratic window ok, "
              f"{elapsed:.1f}s")


def test_criterion_3_main_result(reference_packet):
    pkt = reference_packet
    rels = packets.verify_main_results(pkt)
    for kind in ("d", "e"):
        rel = rels[f"mass_center_offset_{kind}"]
        assert rel.residual < 1e-3, kind
    off_c = pkt.expectations["c"]
    assert np.max(np.abs(off_c)) < 1e-10
    g = pkt.gamma_bar
    ratio = (np.linalg.norm(pkt.expectations["d"])
             / np.linalg.norm(pkt.expectations["e"]))
    rel_err = abs(ratio - (1.0 + g)) / (1.0 + g)
    assert rel_err < 1e-3
    _announce(3, "mass-center offsets",
              f"d:e ratio err {rel_err:.2e}, c offset "
              f"{np.max(np.abs(off_c)):.2e}")


def test_criterion_4_cyclotron_oracle():
    cfg = GALLERY["cyclotron"]
    fields, state = cfg.field_config(), cfg.initial_state()
    period = dyn.cyclotron_period(state, fields)
    radius = dyn.cyclotron_radius(state, fields)
    dt = period / 1000.0

    t0 = time.perf_counter()
    traj = exact.propagate(state, fields, dt, 10000)  # ten periods
    elapsed = time.perf_counter() - t0

    w_vec = -(fields.charge / (state.gamma * fields.mass)) * fields.B
    center = state.x + np.cross(w_vec, state.v) / (w_vec @ w_vec)
    r = np.linalg.norm(traj.x[:1001] - center, axis=1)
    radius_err = float(np.max(np.abs(r - radius)) / radius)
    assert radius_err < 1e-8

    rho = traj.x[:1001] - center
    angle = np.unwrap(np.arctan2(rho[:, 1], rho[:, 0]))
    slope = np.polyfit(traj.t[:1001], angle, 1)[0]
    period_err = abs(2.0 * np.pi / abs(slope) - period) / period
    assert period_err < 1e-8

    norms = np.linalg.norm(traj.s, axis=1)
    drift = float(np.max(np.abs(norms - norms[0])))
    assert drift < 1e-12
    assert elapsed < 5.0
    _announce(4, "cyclotron oracle",
              f"radius err {radius_err:.1e}, period err {period_err:.1e}, "
              f"spin drift {drift:.1e}, {elapsed:.2f}s")


def test_criterion_5_anomalous_velocity_triple_agreement():
    import warnings

    worst_pair = 0.0
    for name, cfg in GALLERY.items():
        fields, state = cfg.field_config(), cfg.initial_state()
        traj = exact.propagate(state, fields, cfg.dt, cfg.steps)
        admissible = np.abs(fields.charge * (traj.v @ fields.E)) \
            <= dyn.CONSTANT_GAMMA_REFUSE * cfg.mass**2
        idx = np.flatnonzero(admissible)[::25]
        assert idx.size > 0, name
        for i in idx:
            st = ClassicalState(traj.t[i], traj.x[i], traj.v[i], traj.s[i])
            with warnings.catch_warnings():
                # the electric-only scenario sits in the warn band between
                # the warn and refuse thresholds; that is by design
                warnings.simplefilter("ignore", dyn.ConstantGammaWarning)
                compact = dyn.anomalous_velocity_compact(st, fields)
                ve, vb = dyn.anomalous_velocity_decomposed(st, fields)
            worst_pair = max(worst_pair,
                             float(np.max(np.abs(compact - (ve + vb)))))
            if name == "fprime_zero":
                thomas = dyn.anomalous_velocity_thomas_form(st, fields)
                worst_pair = max(
                    worst_pair,
                    float(np.max(np.abs(thomas - compact))),
                    float(np.max(np.abs(thomas - (ve + vb)))))
    assert worst_pair < 1e-10
    _announce(5, "anomalous-velocity forms",
              f"worst pairwise gap {worst_pair:.2e}")


def test_criterion_6_finite_difference_oracle():
    cfg = GALLERY["cyclotron"]
    fields, state = cfg.field_config(), cfg.initial_state()
    period = dyn.cyclotron_period(state, fields)
    ladder_cfg = gallery.converge_configs()["converge_anomalous_fd"]
    assert ladder_cfg.dt == pytest.approx(period / 100.0)
    ladder = run_ladder(ladder_cfg)
    order = ladder.fitted_order
    assert 1.5 < order < 2.5
    _announce(6, "finite-difference anomalous velocity",
              f"observed order {order:.3f}")


def test_criterion_7_low_velocity_table(tmp_path):
    cfg = GALLERY["e_only_low_velocity"]
    report, _ = runners.run_simulate(cfg, tmp_path)
    row_d = report["low_velocity_table_d"]
    row_e = report["low_velocity_table_e"]
    row_c = report["low_velocity_table_c"]
    assert row_d.tolerance == 1e-6 and row_d.status == "pass"
    assert row_e.tolerance == 1e-3 and row_e.status == "pass"
    assert row_c.residual == 0.0 and row_c.status == "pass"
    # gamma stays inside the stated low-velocity regime
    fields, state = cfg.field_config(), cfg.initial_state()
    traj = exact.propagate(state, fields, cfg.dt, cfg.steps)
    assert float(np.max(traj.gamma)) - 1.0 < runners.LOW_VELOCITY_GAMMA_LIMIT
    _announce(7, "low-velocity d/e/c table",
              f"d rel err {row_d.residual:.2e}, e-vs-d/2 rel err "
              f"{row_e.residual:.2e}, c exactly {row_c.residual}")


def test_criterion_8_integrator_order():
    ladder = run_ladder(gallery.converge_configs()["converge_integrator"])
    order = ladder.fitted_order
    assert 3.5 < order < 4.5
    _announce(8, "integrator convergence order", f"observed {order:.3f}")
