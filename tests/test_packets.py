import dataclasses
import functools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rotation_matrix
from spindrift import algebra, config, convergence, dynamics, packets
from spindrift.packets import (expectation_position, make_gaussian_packet,
                               verify_fg_relations, verify_main_results)

# Largest imaginary part, relative to the magnitude, that a declared-Hermitian
# expectation may carry.
IMAG_TOL = 1e-12
RULES = ("uniform", "gauss_hermite")
# Gauss-Hermite nodes per axis of the tests' packets on that rule
GH_NODES = 12
# Half-extent of the tests' uniform grid, in widths.  It cuts off 1 -
# erf(5)^3 ~ 4.6e-12 of the continuum Gaussian mass |g|^2 ~ exp(-r^2/w^2).
GRID_RADIUS = 5.0


@functools.cache
def uniform_rule(n: int):
    """Nodes x_k and weights W_k = h exp(-x_k^2) of the n-point uniform rule
    over GRID_RADIUS widths each way, h = 2 GRID_RADIUS / (n - 1): a grid
    cell times |g|^2, in width units.  It is the tests' second route: the
    Fourier-synthesis position oracle needs evenly spaced nodes, and the
    settled Gauss-Hermite rows are checked against it."""
    x = np.linspace(-GRID_RADIUS, GRID_RADIUS, n)
    return x, 2.0 * GRID_RADIUS / (n - 1) * np.exp(-x * x)


def uniform_packet(p0, widths, spin, m=1.0, grid_points=24):
    """The packet of `make_gaussian_packet` on the uniform rule."""
    x, weights = uniform_rule(grid_points)
    p0 = np.asarray(p0, dtype=float)
    w = np.broadcast_to(np.asarray(widths, dtype=float), (3,)).copy()
    return packets.MomentumWavePacket(
        tuple(p0[i] + w[i] * x for i in range(3)), (weights,) * 3, w,
        packets.rest_spinor(spin), m)


def expectation(packet, kernel, hermitian: bool = True):
    """Dense-kernel oracle: the sum over the nodes of a^dagger K a.

    `kernel` is either an array evaluated on the packet's nodes or a
    callable applied to `packet.momenta`; shapes (..., 4, 4) give a scalar
    result and (..., 3, 4, 4) a 3-vector.  For a kernel declared Hermitian
    the imaginary part must stay below `IMAG_TOL` (relative to the
    magnitude), and the real part is returned.
    """
    k = kernel(packet.momenta) if callable(kernel) else np.asarray(kernel)
    a = packet.amplitudes
    if k.ndim == a.ndim + 1:
        density = np.einsum("pqra,pqrab,pqrb->pqr", a.conj(), k, a)
    elif k.ndim == a.ndim + 2:
        density = np.einsum("pqra,pqriab,pqrb->pqri", a.conj(), k, a)
    else:
        raise ValueError(f"kernel shape {k.shape} does not match packet grid")
    return grid_expectation(packet, density, hermitian)


def grid_expectation(packet, density, hermitian: bool = True):
    """Sum over the nodes of a per-node expectation density (nodes or
    nodes + (3,)); the normalised amplitudes carry the rule's weights.

    A declared-Hermitian result must have an imaginary part below `IMAG_TOL`
    (relative to its magnitude); its real part is returned.
    """
    val = np.sum(density, axis=(0, 1, 2))
    val = complex(val) if np.ndim(val) == 0 else val
    if not hermitian:
        return val
    imag = float(np.max(np.abs(np.imag(val))))
    if imag > IMAG_TOL * max(1.0, float(np.max(np.abs(np.real(val))))):
        raise ValueError(f"kernel declared Hermitian but expectation has "
                         f"imaginary part {imag:.3e}")
    return val.real


def _packet(rule, p0, widths, spin, m=1.0, grid_points=24):
    """The packet on the uniform grid, or on GH_NODES Gauss-Hermite nodes."""
    if rule == "uniform":
        return uniform_packet(p0, widths, spin, m=m, grid_points=grid_points)
    return make_gaussian_packet(p0, widths, spin, m=m, grid_points=GH_NODES)


@pytest.fixture(scope="module")
def rule_packets():
    """The fast packet's spec on each quadrature rule, by rule."""
    return {rule: _packet(rule, (0.0, 0.0, 0.6), 0.02, (1.0, 0.0, 0.0))
            for rule in RULES}


def brute_force_expectation(packet, kernel_at):
    """Plain triple-loop grid sum; the reference for the einsum pipeline."""
    total = 0.0 + 0.0j
    n1, n2, n3, _ = packet.amplitudes.shape
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                a = packet.amplitudes[i, j, k]
                total += a.conj() @ kernel_at(packet.momenta[i, j, k]) @ a
    return total


def dense_norm(packet):
    """<1> through the dense-kernel oracle."""
    shape = packet.momenta.shape[:3] + (4, 4)
    return expectation(packet, np.broadcast_to(algebra.IDENTITY, shape))


class TestConstruction:
    def test_normalized(self, rule_packets):
        for rule, pkt in rule_packets.items():
            assert abs(dense_norm(pkt) - 1.0) < 1e-12, rule

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            make_gaussian_packet((0, 0, 0), 0.0, (0, 0, 1))

    @pytest.mark.parametrize("p0, widths, m, match", [
        ((0, 0, 0.6), 1e-300, 1.0, "nodes of axis 2 coincide"),  # p0 + w x
        ((1e20, 0, 0), 1e-10, 1.0, "nodes of axis 0 coincide"),  # rounds to p0
        ((1e200, 0, 0), 0.01, 1.0, "gamma"),          # gamma^3 overflows
        ((0, 0, 0.6), 0.01, 1e-150, "gamma"),         # and by a tiny mass
        ((0, 0, 0.6), 0.01, 1e103, "m\\^3"),          # m^3 overflows
        ((500, 0, 0), 1, 1e-100, "density sums overflow"),  # q^2 / m
    ])
    def test_rejects_packets_floats_cannot_hold(self, p0, widths, m, match):
        with pytest.raises(ValueError, match=match):
            make_gaussian_packet(p0, widths, (1, 0, 0), m=m, grid_points=16)

    @pytest.mark.parametrize("rule", RULES)
    def test_tiny_widths_at_rest_build(self, rule):
        # the nodes w x_k are normal floats, and no cell volume underflows
        pkt = _packet(rule, (0, 0, 0), 1e-106, (1, 0, 0), grid_points=16)
        for name, residual, *_ in _rows(pkt):
            assert residual <= packets.fg_tolerance(name, pkt), name

    def test_rejects_non_finite_norm(self):
        # a NaN amplitude makes the norm NaN
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="norm nan"):
            make_gaussian_packet((0, 0, 0.6), 0.01, (np.nan, 0, 0),
                                 grid_points=8)

    def test_rejects_zero_spin(self):
        with pytest.raises(ValueError):
            make_gaussian_packet((0, 0, 0), 0.01, (0, 0, 0))

    @pytest.mark.parametrize("spin, unit", [
        ((1, 1, 0), (math.sqrt(0.5), math.sqrt(0.5), 0)),
        ((1e308, 1e308, 0), (math.sqrt(0.5), math.sqrt(0.5), 0)),
        ((3e-170, 4e-170, 0), (0.6, 0.8, 0)),
        ((1e-320, 0, 0), (1, 0, 0)),
    ], ids=["unit", "overflow", "underflow", "subnormal"])
    def test_rest_spinor_points_along_the_spin(self, spin, unit):
        # only the direction counts, whatever |s|^2 does in floats
        chi = packets.rest_spinor(spin)
        polarization = np.einsum("a,iab,b->i", chi.conj(), algebra.PAULI,
                                 chi).real
        np.testing.assert_allclose(polarization, unit, rtol=0,
                                   atol=4 * np.finfo(float).eps)

    def test_positive_energy_projection(self, fast_packet):
        # applying the negative-energy projector (E - H)/2E pointwise must
        # annihilate the packet
        m = fast_packet.mass
        e = algebra.energy(fast_packet.momenta, m)
        h = algebra.free_hamiltonian(fast_packet.momenta, m)
        proj = (e[..., None, None] * algebra.IDENTITY - h) / (2.0 * e)[..., None, None]
        rejected = np.einsum("pqrab,pqrb->pqra", proj, fast_packet.amplitudes)
        norm = np.einsum("pqra,pqra->", rejected.conj(), rejected).real
        assert norm < 1e-12

    def test_expected_momentum_matches_center(self, fast_packet):
        assert np.allclose(fast_packet.expectations["p"], (0.0, 0.0, 0.6),
                           atol=1e-12)

    def test_amplitudes_immutable(self, fast_packet):
        with pytest.raises(ValueError):
            fast_packet.amplitudes[0, 0, 0, 0] = 1.0

    def test_rest_packet_polarization(self):
        pkt = make_gaussian_packet((0, 0, 0), 0.01, (0, 0, 1),
                                   grid_points=16)
        sig = expectation(pkt, np.broadcast_to(algebra.SIGMA,
                                               (16, 16, 16, 3, 4, 4)))
        w2 = (0.01 / pkt.mass) ** 2
        assert abs(sig[2] - 1.0) < 2.0 * w2
        assert abs(sig[0]) < 1e-12 and abs(sig[1]) < 1e-12

    def test_rest_packet_energy(self):
        pkt = make_gaussian_packet((0, 0, 0), 0.02, (0, 0, 1),
                                   grid_points=16)
        h_mean = expectation(
            pkt, lambda p: algebra.free_hamiltonian(p, pkt.mass))
        # <H> - m ~ <p^2>/2m = 3 w^2 / 4m for this envelope convention
        excess = h_mean - pkt.mass
        assert 0.0 < excess < 2.0 * 3 * 0.02**2 / (4 * pkt.mass)


class TestExpectation:
    def test_identity_kernel_is_norm(self, fast_packet):
        shape = fast_packet.momenta.shape[:3] + (4, 4)
        val = expectation(fast_packet, np.broadcast_to(algebra.IDENTITY,
                                                       shape))
        assert abs(val - 1.0) < 1e-12

    def test_matches_brute_force_loop(self):
        pkt = make_gaussian_packet((0, 0, 0.3), 0.05, (0, 1, 0),
                                   grid_points=8)
        m = pkt.mass
        fast = expectation(pkt, lambda p: algebra.free_hamiltonian(p, m))
        slow = brute_force_expectation(
            pkt, lambda p: algebra.free_hamiltonian(p, m))
        assert abs(fast - slow) < 1e-13

    def test_hamiltonian_vs_gamma_m(self):
        pkt = make_gaussian_packet((0, 0, 0.75), 0.01, (1, 0, 0),
                                   grid_points=24)
        assert abs(dense_norm(pkt) - 1.0) < 1e-12
        h_mean = expectation(
            pkt, lambda p: algebra.free_hamiltonian(p, pkt.mass))
        assert abs(h_mean - pkt.gamma_bar * pkt.mass) < 2.0 * 0.01**2

    def test_odd_kernel_null(self, fast_packet):
        val = fast_packet.expectations["odd"]
        assert np.max(np.abs(val)) < 1e-14

    def test_anti_hermitian_kernel_flagged(self):
        # spin along the motion so <T4> = i gbar v.s is genuinely nonzero
        pkt = make_gaussian_packet((0, 0, 0.6), 0.02, (0, 0, 1),
                                   grid_points=16)
        _, t4 = algebra.little_group_generators(pkt.momenta, pkt.mass)
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(pkt, t4, hermitian=True)
        val = expectation(pkt, t4, hermitian=False)
        assert abs(val.real) < 1e-14  # purely imaginary
        assert abs(val.imag) > 0.1


class TestPosition:
    def test_rest_packet_at_origin(self):
        pkt = make_gaussian_packet((0, 0, 0), 0.01, (0, 0, 1),
                                   grid_points=24)
        assert np.max(np.abs(expectation_position(pkt))) < 1e-10

    def test_translation_by_phase(self):
        pkt = make_gaussian_packet((0, 0, 0), 0.01, (0, 0, 1),
                                   grid_points=24)
        a = np.array([1.0, 0.0, -0.5])
        shifted = pkt.translated(a)
        moved = expectation_position(shifted) - expectation_position(pkt)
        assert np.max(np.abs(moved - a)) < 1e-9

    def test_position_space_quadrature_oracle(self):
        # independent route: Fourier synthesis of the uniform grid's
        # amplitudes on its own spatial grid, then a plain Riemann first
        # moment of the density
        pkt = uniform_packet((0, 0, 0.5), 0.05, (1, 0, 0), grid_points=16)
        xax = np.linspace(-90.0, 90.0, 81)
        phases = [np.exp(1j * np.outer(xax, ax)) for ax in
                  (pkt.momenta[:, 0, 0, 0], pkt.momenta[0, :, 0, 1],
                   pkt.momenta[0, 0, :, 2])]
        psi = np.einsum("xp,yq,zr,pqrs->xyzs", phases[0], phases[1],
                        phases[2], pkt.amplitudes, optimize=True)
        dens = np.einsum("xyzs,xyzs->xyz", psi.conj(), psi).real
        oracle = np.array([
            float((dens.sum(axis=(1, 2)) * xax).sum()),
            float((dens.sum(axis=(0, 2)) * xax).sum()),
            float((dens.sum(axis=(0, 1)) * xax).sum())]) / dens.sum()
        position = expectation_position(pkt)
        assert np.max(np.abs(position - oracle)) < 1e-8
        # the moving packet carries a transverse spin-dependent offset
        assert abs(position[1]) > 0.05

    def test_newton_wigner_position_is_the_translation(self):
        # second route: the e kind is the Newton-Wigner position, whose
        # packet amplitude g(p) chi exp(-i p.a) puts it at a, so <x> = a -
        # (<X_e> - <x>) on a moving, oblique, translated packet
        a = np.array([0.7, -1.1, 2.3])
        pkt = make_gaussian_packet((2.0, 1.0, -1.0), (0.03, 0.01, 0.02),
                                   (0, 1, 1), m=0.7, grid_points=16)
        position = expectation_position(pkt.translated(a))
        assert np.max(np.abs(position[:2])) > 0.05
        np.testing.assert_allclose(position + pkt.expectations["e"],
                                   a, rtol=0, atol=8 * np.finfo(float).eps)


class TestRelations:
    def test_all_relations_within_calibrated_tolerance(self, fast_packet):
        report = verify_fg_relations(fast_packet)
        for rel in report.values():
            assert rel.residual < packets.fg_tolerance(rel.name, fast_packet), rel.name

    def test_quadratic_scaling_window(self):
        # halving the width cuts every live residual by 2.2x .. 6.7x
        residuals = {}
        for w in (0.04, 0.02, 0.01):
            pkt = make_gaussian_packet((0, 0, 0.6), w, (1, 0, 0),
                                       grid_points=24)
            residuals[w] = {r.name: r.residual
                            for r in verify_fg_relations(pkt).values()}
        for w_coarse, w_fine in ((0.04, 0.02), (0.02, 0.01)):
            for name in residuals[w_coarse]:
                coarse = residuals[w_coarse][name]
                fine = residuals[w_fine][name]
                if coarse < packets.RESIDUAL_FLOOR:
                    assert fine < packets.RESIDUAL_FLOOR
                    continue
                assert 0.15 < fine / coarse < 0.45, name

    def test_rest_packet_ibeta_alpha_vanishes(self):
        pkt = make_gaussian_packet((0, 0, 0), 0.02, (1, 0, 0),
                                   grid_points=16)
        rel = verify_fg_relations(pkt)["ibeta_alpha_from_T"]
        assert np.max(np.abs(np.asarray(rel.rhs))) < 1e-13
        assert rel.residual < 1e-4

    def test_sigma_relation_spot(self):
        pkt = make_gaussian_packet((0, 0, 0.6), 0.01, (0, 0, 1),
                                   grid_points=24)
        shape = pkt.momenta.shape[:3] + (3, 4, 4)
        sig = expectation(pkt, np.broadcast_to(algebra.SIGMA, shape))
        t = expectation(pkt, algebra.little_group_generators(
            pkt.momenta, pkt.mass)[0])
        assert abs(sig[2] * pkt.gamma_bar - t[2]) < 1e-3

    def test_t4_pure_imaginary_comparison(self):
        pkt = make_gaussian_packet((0, 0, 0.6), 0.02, (0, 0, 1),
                                   grid_points=16)
        vals = pkt.expectations
        assert abs(vals["T4"].real) < 1e-14
        assert vals["T4"].imag > 0.5  # ~ gbar v . s


# The relations' right-hand sides are the classical formulas, so breaking
# one of them fails a row.  The packet is oblique, m = 1.7 and its spin (0,
# 1, 1) has a component along p0: on the default packet spin is transverse,
# so (s.v) = 0 and no boost mutant shows.
OBLIQUE = dict(p0=(0.5, 0.1, 0.3), widths=0.017, spin_direction=(0, 1, 1),
               m=1.7, grid_points=16)
# p0 = 1e5 m, where gbar v.<O> is ~7e4 and one ulp of it is above
# RESIDUAL_FLOOR
FAST = dict(p0=(0, 0, 1e5), widths=0.01, spin_direction=(0, 1, 1),
            grid_points=8)


def _boost_with_gamma_over_gamma_plus_one(s, v, gamma):
    g = np.asarray(gamma)[..., None]
    sv = np.sum(s * v, axis=-1, keepdims=True)
    return (g * sv)[..., 0], s + g / (g + 1.0) * sv * v


def _boost_without_gamma_in_s0(s, v, gamma):
    g = np.asarray(gamma)[..., None]
    sv = np.sum(s * v, axis=-1, keepdims=True)
    return sv[..., 0], s + g * g / (g + 1.0) * sv * v


def _unboost_with_one_over_gamma_plus_one(S, v, gamma):
    g = np.asarray(gamma)[..., None]
    return S - 1.0 / (g + 1.0) * np.sum(S * v, axis=-1, keepdims=True) * v


def _shift_over_m(S, v, m):
    return np.cross(S, v) / m


def _failing_rows(pkt):
    rels = [*verify_fg_relations(pkt).values(),
            *verify_main_results(pkt).values()]
    return [rel.name for rel in rels
            if not rel.residual <= packets.fg_tolerance(rel.name, pkt)]


@pytest.mark.parametrize("formula, mutant, spec, failing", [
    ("boost_spin", _boost_with_gamma_over_gamma_plus_one, OBLIQUE,
     ["T_from_O"]),
    ("unboost_spin", _unboost_with_one_over_gamma_plus_one, OBLIQUE,
     ["O_from_T"]),
    ("position_shift", _shift_over_m, OBLIQUE,
     ["mass_center_offset_d", "mass_center_offset_e"]),
    ("boost_spin", _boost_without_gamma_in_s0, FAST, ["T4_from_O"]),
], ids=["boost_spin", "unboost_spin", "position_shift", "boost_spin_s0"])
def test_a_broken_classical_formula_fails_its_row(formula, mutant, spec,
                                                  failing, monkeypatch):
    pkt = make_gaussian_packet(**spec)
    assert _failing_rows(pkt) == []
    monkeypatch.setattr(dynamics, formula, mutant)
    assert _failing_rows(pkt) == failing


class TestMainResult:
    def test_kind_c_offset_vanishes(self, fast_packet):
        assert np.max(np.abs(fast_packet.expectations["c"])) < 1e-10

    def test_rest_packet_all_kinds(self):
        pkt = make_gaussian_packet((0, 0, 0), 0.02, (0, 1, 0),
                                   grid_points=16)
        rels = verify_main_results(pkt)
        for kind in ("c", "d", "e"):
            rel = rels[f"mass_center_offset_{kind}"]
            assert rel.residual < 1e-10
            assert np.max(np.abs(pkt.expectations[kind])) < 1e-10

    def test_relations_are_keyed_in_kind_order(self, fast_packet):
        rels = verify_main_results(fast_packet)
        assert list(rels) == [f"mass_center_offset_{kind}"
                              for kind in algebra.PRYCE_KINDS]
        for kind in algebra.PRYCE_KINDS:
            lhs = rels[f"mass_center_offset_{kind}"].lhs
            assert lhs is fast_packet.expectations[kind]

    def test_offsets_match_prediction(self, fast_packet):
        rels = verify_main_results(fast_packet)
        for kind in ("d", "e"):
            rel = rels[f"mass_center_offset_{kind}"]
            assert rel.residual < packets.fg_tolerance(
                f"mass_center_offset_{kind}", fast_packet)

    def test_d_to_e_ratio(self, fast_packet):
        g = fast_packet.gamma_bar
        ratio = (np.linalg.norm(fast_packet.expectations["d"])
                 / np.linalg.norm(fast_packet.expectations["e"]))
        assert abs(ratio - (1.0 + g)) / (1.0 + g) < 1e-3


class TestCovariance:
    def test_translation_leaves_offsets_invariant(self):
        # the phase exp(-i p.a) cancels in every bilinear, so the pass of a
        # translated packet is its parent's, and every expectation, the
        # offsets among them, keeps its bits
        for rule in RULES:
            pkt = _packet(rule, (0.3, -0.2, 0.4), (0.02, 0.03, 0.025),
                          (1, 0.5, -0.2), m=1.3, grid_points=16)
            shifted = pkt.translated((0.7, -1.1, 2.3))
            assert np.any(shifted.amplitudes != pkt.amplitudes)
            assert shifted.norm == pkt.norm
            assert shifted.expectations.keys() == pkt.expectations.keys()
            for key, value in pkt.expectations.items():
                moved = shifted.expectations[key]
                assert (np.asarray(moved).tobytes()
                        == np.asarray(value).tobytes()), (rule, key)

    def test_rotational_covariance(self):
        rot = rotation_matrix([1.0, 2.0, 0.5], 0.83)
        p0 = np.array([0.0, 0.0, 0.6])
        spin = np.array([1.0, 0.0, 0.0])
        for rule in RULES:
            base = _packet(rule, p0, 0.01, spin)
            turned = _packet(rule, rot @ p0, 0.01, rot @ spin)
            vals_b, vals_t = base.expectations, turned.expectations
            for key in ("T", "O", "sigma", "ibeta_alpha", "p_cross_sigma",
                        "p"):
                assert np.max(np.abs(rot @ vals_b[key] - vals_t[key])) \
                    < 1e-12, (rule, key)
            for kind in ("d", "e"):
                off_b = base.expectations[kind]
                off_t = turned.expectations[kind]
                assert np.max(np.abs(rot @ off_b - off_t)) < 1e-12, rule


class TestUniformRule:
    """The tests' uniform grid, the second route of the Gauss-Hermite
    packets."""

    def test_nodes_scale_with_the_widths(self):
        p0, w = (0.1, 0.2, 0.6), (0.01, 0.02, 0.03)
        pkt = uniform_packet(p0, w, (0, 0, 1), grid_points=12)
        x, weights = uniform_rule(12)
        for i, (ax, weight) in enumerate(zip(pkt.axes, pkt.weights)):
            assert np.array_equal(ax, p0[i] + w[i] * x)
            assert weight is weights

    @pytest.mark.parametrize("n", [4, 5, 8, 9, 16, 24, 32, 48, 64])
    def test_weights_sum_to_sqrt_pi(self, n):
        # The nodes lie on the lattice -R + k h, R = GRID_RADIUS.  By
        # Poisson summation h sum_k exp(-(s + k h)^2) = sqrt(pi) sum_j
        # exp(-pi^2 j^2 / h^2) exp(2 pi i j s / h), which strays from
        # sqrt(pi) by the aliasing terms j != 0; the grid drops the lattice
        # points beyond R, h exp(-(R + k h)^2) on each side; and the n-term
        # sum rounds by n eps of it
        x, w = uniform_rule(n)
        h, radius = x[1] - x[0], GRID_RADIUS
        aliasing = [2.0 * math.sqrt(math.pi) * math.exp(-(math.pi * j / h)**2)
                    for j in range(1, 8)]
        tail = sum(2.0 * h * math.exp(-(radius + k * h)**2)
                   for k in range(1, 64))
        error = float(np.sum(w)) - math.sqrt(math.pi)
        roundoff = n * np.finfo(float).eps * math.sqrt(math.pi)
        assert abs(error) <= sum(aliasing) + tail + roundoff
        if n == 8:   # s / h = -3.5: the j = 1 term, -0.028, is the error
            assert abs(error + aliasing[0]) <= (sum(aliasing[1:]) + tail
                                                + roundoff)


class TestGaussHermite:
    @pytest.mark.parametrize("n", range(1, convergence.FG_MAX_NODES + 1))
    def test_rule_matches_numpy(self, n):
        from numpy.polynomial.hermite import hermgauss
        x, w = packets.gauss_hermite_rule(n)
        want_x, want_w = hermgauss(n)
        # eigvalsh is backward stable: a node moves by a few ulp of |J| <=
        # sqrt(2 n), and its weight, 1 / sum_j p_j(x)^2, follows the node
        assert np.max(np.abs(x - want_x)) <= 8 * n * np.finfo(float).eps
        assert np.max(np.abs(w / want_w - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", range(1, convergence.FG_MAX_NODES + 1))
    def test_rule_integrates_even_moments_exactly(self, n):
        # int x^2j exp(-x^2) dx = Gamma(j + 1/2); the rule is exact to
        # degree 2n - 1, and each term of the sum is positive
        x, w = packets.gauss_hermite_rule(n)
        for j in range(n):
            want = math.gamma(j + 0.5)
            assert abs(np.sum(w * x**(2 * j)) - want) <= 1e-13 * want, j

    def test_rule_is_cached_and_read_only(self):
        x, w = packets.gauss_hermite_rule(8)
        assert packets.gauss_hermite_rule(8)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_rule_at_the_slab_cap(self):
        # far in the tail of the largest rule a config admits, sum_j
        # p_j(x_k)^2 overflows; that weight is 0, with no warning
        n = math.isqrt(config.MAX_SLAB_BYTES // config.SLAB_BYTES_PER_POINT)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, w = packets.gauss_hermite_rule.__wrapped__(n)
        assert x.size == n == 619
        assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
        assert np.any(w == 0.0)
        assert abs(np.sum(w) - math.sqrt(math.pi)) <= 1e-13

    def test_nodes_scale_with_the_widths(self):
        pkt = make_gaussian_packet((0.1, 0.2, 0.6), (0.01, 0.02, 0.03),
                                   (0, 0, 1), grid_points=6)
        x, _ = packets.gauss_hermite_rule(6)
        for p0, w, ax in zip((0.1, 0.2, 0.6), (0.01, 0.02, 0.03), pkt.axes):
            assert np.array_equal(ax, p0 + w * x)

    def test_rejects_a_one_node_rule(self):
        # one node puts the whole packet at p0: no relation sees a spread
        with pytest.raises(ValueError, match="at least 2 nodes"):
            make_gaussian_packet((0, 0, 0.6), 0.01, (1, 0, 0), grid_points=1)


# Gaussian mass outside GRID_RADIUS widths, which the uniform grid drops
TRUNCATION = 1.0 - math.erf(GRID_RADIUS) ** 3
AGREEMENT_GRID = 24


def _rows(pkt):
    """verify-fg's rows as (name, residual, lhs, rhs); the offset ratio's
    sides are |d| / |e| and 1 + g, graded where `runners.run_verify`
    grades it."""
    rels = [*verify_fg_relations(pkt).values(),
            *verify_main_results(pkt).values()]
    rows = [(rel.name, rel.residual, rel.lhs, rel.rhs) for rel in rels]
    ratio = packets.offset_ratio_residual(pkt)
    if ratio is not None:
        d, e = (np.linalg.norm(pkt.expectations[k]) for k in "de")
        rows.append(("offset_ratio_d_e", ratio, d / e, 1.0 + pkt.gamma_bar))
    return rows


@st.composite
def _sharp_packets(draw):
    """(p0, widths, spin, m) over |p0| <= 5m, m in [0.5, 3], anisotropic
    widths in [0.002, 0.05]m and any spin direction."""
    unit = st.floats(-1.0, 1.0)
    m = draw(st.floats(0.5, 3.0))
    direction = np.array(draw(st.tuples(unit, unit, unit)))
    norm = np.linalg.norm(direction)
    p0 = (direction / norm if norm > 1e-3 else np.zeros(3)) * draw(
        st.floats(0.0, 5.0)) * m
    widths = np.array(draw(st.tuples(*[st.floats(0.002, 0.05)] * 3))) * m
    spin = np.array(draw(st.tuples(unit, unit, unit).filter(
        lambda s: np.linalg.norm(s) > 1e-3)))
    return p0, widths, spin, m


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_sharp_packets())
def test_settled_gauss_hermite_rows_hold_and_match_the_grid(spec):
    p0, widths, spin, m = spec
    cfg = config.ScenarioConfig(
        mode="converge", mass=m, converge=config.ConvergeSpec(target="fg"),
        packet=config.PacketSpec(p0=tuple(p0), widths=tuple(widths),
                                 spin=tuple(spin)))
    pkt, _, change = convergence._settled_packet(cfg, widths)
    assert change <= packets.RESIDUAL_FLOOR
    grid = uniform_packet(p0, widths, spin, m=m, grid_points=AGREEMENT_GRID)
    rows, grid_rows = _rows(pkt), _rows(grid)
    assert [r[0] for r in rows] == [r[0] for r in grid_rows]
    for name, residual, *_ in rows:
        assert residual <= packets.fg_tolerance(name, pkt), name
    # Each side of a relation row is built from expectations that the
    # grid's truncation moves by at most TRUNCATION of the largest side,
    # and its sequential sums over AGREEMENT_GRID^3 points by that many
    # ulp; a residual, a difference of two sides, moves by twice that.  The
    # ratio d / e moves by its relative errors, those of |d| and |e|, and
    # g = E(<p>) / m by at most the move of <p> over m, twice in the row.
    scale = max(np.max(np.abs(side)) for name, _, lhs, rhs in grid_rows
                if name != "offset_ratio_d_e" for side in (lhs, rhs))
    move = (TRUNCATION + AGREEMENT_GRID**3 * np.finfo(float).eps) * scale
    d, e = (np.linalg.norm(grid.expectations[k]) for k in "de")
    for (name, residual, *_), (_, want, lhs, _) in zip(rows, grid_rows):
        bound = (2.0 * move if name != "offset_ratio_d_e"
                 else lhs * (move / d + move / e) + 2.0 * move / m)
        assert abs(residual - want) <= bound, name


def test_tolerances_follow_each_rows_mass_dimension():
    # one dimensionless packet, p0 = 0.6m zhat, w = 0.01m, spin xhat, at
    # three masses: p x sigma is a momentum, the odd term a momentum squared
    # and an offset a length, so residual / tolerance must not move.  In
    # units of m^dim every side and summand of a row is at most 4 here
    # (T, sigma <= 1, |p| = 0.6m, offsets ~ 0.3 / m, 1 + g ~ 2.2), and each
    # side's sum over the nodes rounds by at most n^3 eps of that, so a
    # ratio moves by under 2 n^3 eps 4 / tol at each mass, tol its tolerance
    # at m = 1
    n = 32
    graded = {}
    for m in (0.01, 1.0, 100.0):
        pkt = make_gaussian_packet((0, 0, 0.6 * m), 0.01 * m, (1, 0, 0), m=m,
                                   grid_points=n)
        graded[m] = {name: residual / packets.fg_tolerance(name, pkt)
                     for name, residual, *_ in _rows(pkt)}
        assert len(graded[m]) == 11
        assert all(ratio <= 1.0 for ratio in graded[m].values()), graded[m]
    unit = make_gaussian_packet((0, 0, 0.6), 0.01, (1, 0, 0), grid_points=n)
    for name, ratio in graded[1.0].items():
        bound = 16.0 * n**3 * np.finfo(float).eps / packets.fg_tolerance(
            name, unit)
        for m in (0.01, 100.0):
            assert abs(graded[m][name] - ratio) <= bound, (m, name)


@pytest.mark.parametrize("rule", RULES)
def test_offset_ratio_is_not_graded_with_spin_along_p0(rule):
    # With spin along p0, <T> x <p> is a spread effect of anisotropic
    # widths, and so are both offsets: their ratio, 0.63 (1 + g) here, need
    # not be 1 + g.  |<X_e> - <x>|, 2.2e-6, sits inside the e row's
    # tolerance, 1.5e-3, which the ratio's guard reads, though far above
    # RESIDUAL_FLOOR
    direction = np.array([1.0, 0.0, 0.03125])
    p0 = direction / np.linalg.norm(direction)
    pkt = _packet(rule, p0, (0.03125, 0.03125, 0.046875), direction,
                  grid_points=32)
    e = np.linalg.norm(pkt.expectations["e"])
    assert packets.RESIDUAL_FLOOR < e
    assert e <= packets.fg_tolerance("mass_center_offset_e", pkt)
    assert packets.offset_ratio_residual(pkt) is None
    assert [row[0] for row in _rows(pkt)][-1] == "mass_center_offset_e"


def _dense_expectations(pkt):
    """Every packet-path value through `expectation` on dense kernels."""
    m, p = pkt.mass, pkt.momenta
    grid = p.shape[:3]
    t, t4 = algebra.little_group_generators(p, m)
    cross, odd = algebra._cross_and_odd(p)
    vals = {
        "T": expectation(pkt, t),
        "T4": expectation(pkt, t4, hermitian=False),
        "O": expectation(pkt, algebra.o_operator(p, m)),
        "sigma": expectation(pkt, np.broadcast_to(algebra.SIGMA,
                                                  grid + (3, 4, 4))),
        "ibeta_alpha": expectation(pkt, np.broadcast_to(
            algebra._I_BETA_ALPHA, grid + (3, 4, 4))),
        "p_cross_sigma": expectation(pkt, cross),
        "odd": expectation(pkt, odd),
        "p": expectation(pkt, p[..., None, None] * algebra.IDENTITY),
    }
    for kind in ("c", "d", "e"):
        vals[kind] = expectation(pkt, algebra.pryce_kernel(kind, p, m))
    return vals


class TestBilinearTable:
    """The table route against the dense-kernel oracle."""

    @pytest.mark.parametrize("p0, spin, n", [
        ((0.0, 0.0, 0.6), (1.0, 0.0, 0.0), 16),       # moving, transverse
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), 16),       # rest
        ((0.9, -1.7, 0.4), (0.3, 0.8, -0.5), 24),     # moving, rotated spin
    ])
    def test_matches_dense_kernels(self, p0, spin, n):
        for rule in RULES:
            pkt = _packet(rule, p0, (0.02, 0.03, 0.025), spin, m=1.3,
                          grid_points=n)
            dense = _dense_expectations(pkt)
            table = pkt.expectations
            assert isinstance(table["T4"], complex)
            for key, want in dense.items():
                assert np.max(np.abs(table[key] - want)) <= 1e-12, (rule, key)

    def test_matches_dense_kernels_off_shell(self):
        # random spinors, not positive-energy, fed to the pass as per-slab
        # bilinears on either rule: the null terms (odd, type c) are no
        # longer null, so every coefficient function is exercised
        for rule in RULES:
            pkt = _off_shell(_packet(rule, (0.2, 0.5, -0.4), 0.03, (0, 0, 1),
                                     grid_points=16))
            dense = _dense_expectations(pkt)
            table = pkt.expectations
            assert np.max(np.abs(dense["odd"])) > 1e-4
            assert np.max(np.abs(dense["c"])) > 1e-3
            for key in table.keys() & dense.keys():
                assert np.max(np.abs(table[key] - dense[key])) <= 1e-12, \
                    (rule, key)

    @pytest.mark.parametrize("rule", RULES)
    def test_bilinears_are_the_amplitudes_outer_products(self, rule):
        # W q^T M q against a^dagger C_A a of the spinors V q, through the
        # complex outer product; each |b[A]| <= W, and either route rounds
        # it by a few ulp of W
        pkt = _packet(rule, (0.9, -1.7, 0.4), (0.02, 0.03, 0.025),
                      (0.3, 0.8, -0.5), m=1.3, grid_points=16)
        pkt = pkt.translated((0.7, -1.1, 2.3))
        got = np.concatenate([b[:, :16].copy() for _, b in pkt._slabs()])
        want = _bilinears(pkt.amplitudes * np.sqrt(pkt.norm)).reshape(-1, 16)
        weight = np.max(np.abs(got[:, 0]))
        assert np.max(np.abs(got - want)) <= 16 * np.finfo(float).eps * weight

    @pytest.mark.parametrize("translate", [False, True])
    @pytest.mark.parametrize("n", [5, 16, 17, 48])
    def test_slab_build_matches_dense_oracle(self, n, translate):
        # the full-grid expressions that the slab loop replaces
        p0, w, spin, m = (np.array([0.3, -0.2, 0.6]),
                          np.array([0.02, 0.03, 0.025]), (1, 0.5, -0.2), 1.3)
        shift = np.array([0.7, -1.1, 2.3])
        pkt = make_gaussian_packet(p0, w, spin, m=m, grid_points=n)
        if translate:   # generic phases
            pkt = pkt.translated(shift)
        p = pkt.momenta
        weight = packets.gauss_hermite_rule(n)[1]
        envelope = weight[:, None, None] * np.outer(weight, weight)
        u = packets.positive_energy_spinor(p, packets.rest_spinor(spin), m)
        amps = (np.sqrt(envelope / pkt.norm)[..., None] * u
                * np.exp(-1j * (p @ pkt.shift))[..., None])
        _assert_same_bits(pkt.amplitudes, amps, n, np.max(np.abs(amps)))
        _assert_pass_matches_full_grid_forms(pkt, n, _full_grid_bilinears(pkt))

    @pytest.mark.parametrize("n", [5, 16, 17, 48])
    def test_pass_matches_full_grid_forms_off_shell(self, n):
        pkt = _off_shell(make_gaussian_packet(
            (0.3, -0.2, 0.6), (0.02, 0.03, 0.025), (1, 0.5, -0.2), m=1.3,
            grid_points=n))
        _assert_pass_matches_full_grid_forms(pkt, n, _bilinears(pkt.grid[1]))

    def test_expectations_are_cached_and_read_only(self, rule_packets):
        for pkt in rule_packets.values():
            vals = pkt.expectations
            assert pkt.expectations is vals
            assert set(vals) == {"T", "T4", "O", "sigma", "ibeta_alpha",
                                 "p_cross_sigma", "odd", "c", "d", "e", "p",
                                 "p_eem"}
            for key, value in vals.items():
                if isinstance(value, np.ndarray):
                    assert value.shape == (3,), key
                    with pytest.raises(ValueError):
                        value[0] = 1.0
            assert isinstance(vals["T4"], complex)
            assert all(arr.shape[-1] != 16 for arr in _held_arrays(pkt))

    @pytest.mark.parametrize("name", ["velocity"])
    def test_moments_are_cached_and_read_only(self, fast_packet, name):
        value = getattr(fast_packet, name)
        assert value.shape == (3,)
        assert getattr(fast_packet, name) is value
        with pytest.raises(ValueError):
            value[0] = 1.0

    def test_mean_t_is_the_t_relations_lhs(self, fast_packet):
        assert (verify_fg_relations(fast_packet)["T_from_O"].lhs
                is fast_packet.expectations["T"])
        want = _full_grid_forms(fast_packet, _full_grid_bilinears(fast_packet))
        assert np.array_equal(fast_packet.expectations["T"], want["T"])

    def test_hermitian_rule_on_table_route(self, fast_packet):
        a = fast_packet.amplitudes
        density = 1j * np.sum(a.conj() * a, axis=-1).real   # <i> = i
        with pytest.raises(ValueError, match="Hermitian"):
            grid_expectation(fast_packet, density)
        val = grid_expectation(fast_packet, density, hermitian=False)
        assert abs(val - 1j) < 1e-12
        vector = np.stack([density] * 3, axis=-1)
        with pytest.raises(ValueError, match="Hermitian"):
            grid_expectation(fast_packet, vector)


# sum_ab conj(a_a) a_b C_A[a, b] on (re, im)-interleaved outer products
_CLIFFORD_COLUMNS = np.stack([algebra.CLIFFORD.real, -algebra.CLIFFORD.imag],
                             axis=-1).reshape(16, 32).T


def _bilinears(a):
    """b[A] = a^dagger C_A a (..., 16) of spinors a (..., 4), through the
    complex outer product."""
    outer = (a.conj()[..., :, None] * a[..., None, :]).reshape(-1, 16)
    return (outer.view(float) @ _CLIFFORD_COLUMNS).reshape(a.shape[:-1]
                                                           + (16,))


def _with_p_dots(p, b):
    """The pass's columns (N, 18) from momenta p (N, 3) and bilinears b (N,
    16): b, then p.b[i beta alpha] and p.b[beta Sigma]."""
    dots = np.einsum("nj,ncj->nc", p, b[:, 10:16].reshape(-1, 2, 3))
    return np.concatenate([b, dots], axis=1)


@dataclasses.dataclass
class _GivenSlabs(packets.MomentumWavePacket):
    """A packet whose momenta and un-normalised amplitudes are given arrays;
    its construction makes the same pass over their slabs' bilinears."""

    grid: tuple = ()    # (momenta (n1, n2, n3, 3), amplitudes (..., 4))

    def _slabs(self):
        for p, a in zip(*self.grid):
            p = p.reshape(-1, 3)
            yield p, _with_p_dots(p, _bilinears(a).reshape(-1, 16))

    @functools.cached_property
    def amplitudes(self):
        return self.grid[1] / np.sqrt(self.norm)


def _off_shell(pkt, seed=5):
    """`pkt`'s nodes with random spinors in place of positive-energy ones."""
    rng = np.random.default_rng(seed)
    shape = pkt.momenta.shape[:3] + (4,)
    raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return _GivenSlabs(pkt.axes, pkt.weights, pkt.widths, pkt.chi, pkt.mass,
                       grid=(pkt.momenta, raw))


def _full_grid_bilinears(pkt):
    """The pass's bilinears W q^T M q over the whole grid at once: the
    monomials (W q_mu) q_nu and one matrix product with M."""
    w1, w2, w3 = pkt.weights
    w = w1[:, None, None] * np.outer(w2, w3)
    q = packets._unit_four_vector(pkt.momenta, pkt.mass)
    mono = ((w[..., None] * q)[..., packets._MU] * q[..., packets._NU])
    table = packets._bilinear_table(pkt.chi)
    return (table @ mono.reshape(-1, 10).T).T.reshape(q.shape[:3] + (16,))


def _node_scalars(p, m):
    """The table's row scalars X (31, N) at momenta p (N, 3): 1, p, p/E,
    p/(E(E+m)), then per Pryce kind f1, f2 p and f3 p at gamma = E/m."""
    e, p = algebra.energy(p, m), p.T
    rows = [np.ones_like(e), *p, *(p / e), *(p / e / (e + m))]
    for f1, f2, f3, _ in algebra.pryce_factors(e / m).values():
        rows += [f1, *(f2 * p), *(f3 * p)]
    return np.array(rows)


def _full_grid_forms(pkt, b):
    """Every value of `pkt.expectations` from full-grid forms: the per-node
    scalars X over the whole grid, with the given (n1, n2, n3, 16) bilinears
    b, contracted a first-axis slab after another as the pass adds them."""
    m, n1 = pkt.mass, len(pkt.axes[0])
    p = pkt.momenta.reshape(n1, -1, 3)
    b = b.reshape(n1, -1, 16)
    x = _node_scalars(p.reshape(-1, 3), m).reshape(-1, n1, p.shape[1])
    table = np.zeros((packets._SCALARS, 18))
    for k in range(n1):
        table += x[:, k] @ _with_p_dots(p[k], b[k])
    return packets._expectations(table / table[0, 0], m)


def _assert_same_bits(got, want, n, scale):
    # on a 5^3 grid a 25-row slab may take another BLAS edge kernel than
    # the 125-row grid and move a last bit of the bilinears
    got, want = np.asarray(got), np.asarray(want)
    if n == 5:
        assert np.max(np.abs(got - want)) <= 1e-15 * scale
    else:
        assert got.tobytes() == want.tobytes()


def _assert_pass_matches_full_grid_forms(pkt, n, b):
    want = _full_grid_forms(pkt, b)
    got = pkt.expectations
    assert got.keys() == want.keys()
    # a null sum (odd, type c on shell) is roundoff; its last bits are
    # measured against the packet's largest expectation
    scale = max(np.max(np.abs(value)) for value in want.values())
    for key in want:
        _assert_same_bits(got[key], want[key], n, scale)


def _held_arrays(pkt):
    """Every array the packet holds, axes and cached expectations included."""
    values = [*vars(pkt).values(), *pkt.axes, *pkt.expectations.values()]
    return [v for v in values if isinstance(v, np.ndarray)]


def _packet_path_peak(n):
    """The default verify-fg packet at n^3, and the tracemalloc peak of
    building it (its pass included), its seven relations and three
    mass-center offsets."""
    cfg = config.override(config.ScenarioConfig(name="verify_fg",
                                                mode="verify-fg"),
                          {"packet.grid_points": str(n)})
    tracemalloc.start()
    try:
        pkt = cfg.wave_packet()
        verify_fg_relations(pkt)
        verify_main_results(pkt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return pkt, peak


# Traced peak of `_packet_path_peak(48)`, held arrays included.  It reads
# 1.58 MB: the pass's workspaces for one (48, 48) slab (the per-node
# scalars X, the table's 18 columns, the monomials, the momenta) and its
# temporaries, at ~655 B a slab point.  The bound, set at 1.1 times the
# 1.63 MB of the complex-spinor pass, is kept: a full-grid temporary of 8 B
# a point (0.88 MB at 48^3) does not fit under it.  With the held momenta and amplitudes (88 B a point) it read
# 11.7 MB, with the build's conjugate copy for the norm 16.8 MB and with a
# held (n1, n2, n3, 16) bilinear table 27.4 MB.
PACKET_PEAK_BYTES = 1_790_000


def test_packet_path_peak_memory_is_bounded():
    pkt, peak = _packet_path_peak(48)
    assert peak < PACKET_PEAK_BYTES
    # the axes and a few 3-vectors; no grid and no bilinear table
    held = _held_arrays(pkt)
    assert all(arr.size < 48**3 for arr in held)
    assert all(arr.shape[-1] != 16 for arr in held)


def test_packet_path_peak_memory_grows_as_a_slab():
    # doubling n quadruples a slab's points; a held or full-grid array
    # would grow eightfold
    assert (_packet_path_peak(64)[1]
            <= 1.25 * (64 / 32)**2 * _packet_path_peak(32)[1])
