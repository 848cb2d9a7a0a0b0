import numpy as np
import pytest

from conftest import rotation_matrix
from spindrift import algebra, packets
from spindrift.packets import (expectation, expectation_position,
                               make_gaussian_packet, mass_center_offset,
                               verify_fg_relations, verify_main_result)


def brute_force_expectation(packet, kernel_at):
    """Plain triple-loop grid sum; the reference for the einsum pipeline."""
    total = 0.0 + 0.0j
    n1, n2, n3, _ = packet.amplitudes.shape
    for i in range(n1):
        for j in range(n2):
            for k in range(n3):
                a = packet.amplitudes[i, j, k]
                total += a.conj() @ kernel_at(packet.momenta[i, j, k]) @ a
    return total * packet.cell_volume


class TestConstruction:
    def test_normalized(self, fast_packet):
        assert abs(fast_packet.norm_squared - 1.0) < 1e-12

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            make_gaussian_packet((0, 0, 0), 0.0, (0, 0, 1))

    def test_rejects_truncating_grid(self):
        with pytest.raises(ValueError, match="truncates"):
            make_gaussian_packet((0, 0, 0), 0.01, (0, 0, 1), grid_radius=3.0)

    def test_rejects_zero_spin(self):
        with pytest.raises(ValueError):
            make_gaussian_packet((0, 0, 0), 0.01, (0, 0, 0))

    def test_positive_energy_projection(self, fast_packet):
        # applying the negative-energy projector (E - H)/2E pointwise must
        # annihilate the packet
        m = fast_packet.mass
        e = algebra.energy(fast_packet.momenta, m)
        h = algebra.free_hamiltonian(fast_packet.momenta, m)
        proj = (e[..., None, None] * algebra.IDENTITY - h) / (2.0 * e)[..., None, None]
        rejected = np.einsum("pqrab,pqrb->pqra", proj, fast_packet.amplitudes)
        norm = np.einsum("pqra,pqra->", rejected.conj(), rejected).real
        assert norm * fast_packet.cell_volume < 1e-12

    def test_mean_momentum_matches_center(self, fast_packet):
        assert np.allclose(fast_packet.mean_momentum, fast_packet.center,
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
        assert abs(pkt.norm_squared - 1.0) < 1e-12
        h_mean = expectation(
            pkt, lambda p: algebra.free_hamiltonian(p, pkt.mass))
        assert abs(h_mean - pkt.gamma_bar * pkt.mass) < 2.0 * 0.01**2

    def test_odd_kernel_null(self, fast_packet):
        val = packets.fg_expectations(fast_packet)["odd"]
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
        # independent route: non-FFT Fourier synthesis on its own spatial
        # grid, then a plain Riemann first-moment of the density
        pkt = make_gaussian_packet((0, 0, 0.5), 0.05, (1, 0, 0),
                                   grid_points=16)
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
        spectral = expectation_position(pkt)
        assert np.max(np.abs(spectral - oracle)) < 1e-8
        # the moving packet carries a transverse spin-dependent offset
        assert abs(spectral[1]) > 0.05


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
        vals = packets.fg_expectations(pkt)
        assert abs(vals["T4"].real) < 1e-14
        assert vals["T4"].imag > 0.5  # ~ gbar v . s


class TestMainResult:
    def test_kind_c_offset_vanishes(self, fast_packet):
        assert np.max(np.abs(mass_center_offset(fast_packet, "c"))) < 1e-10

    def test_rest_packet_all_kinds(self):
        pkt = make_gaussian_packet((0, 0, 0), 0.02, (0, 1, 0),
                                   grid_points=16)
        for kind in ("c", "d", "e"):
            rel = verify_main_result(pkt, kind)
            assert rel.residual < 1e-10
            assert np.max(np.abs(mass_center_offset(pkt, kind))) < 1e-10

    def test_offsets_match_prediction(self, fast_packet):
        for kind in ("d", "e"):
            rel = verify_main_result(fast_packet, kind)
            assert rel.residual < packets.fg_tolerance(
                f"mass_center_offset_{kind}", fast_packet)

    def test_d_to_e_ratio(self, fast_packet):
        g = fast_packet.gamma_bar
        ratio = (np.linalg.norm(mass_center_offset(fast_packet, "d"))
                 / np.linalg.norm(mass_center_offset(fast_packet, "e")))
        assert abs(ratio - (1.0 + g)) / (1.0 + g) < 1e-3


class TestCovariance:
    def test_translation_leaves_offsets_invariant(self):
        pkt = make_gaussian_packet((0, 0, 0.4), 0.02, (1, 0, 0),
                                   grid_points=16)
        shifted = pkt.translated((0.7, -1.1, 0.4))
        for kind in ("c", "d", "e"):
            base = mass_center_offset(pkt, kind)
            moved = mass_center_offset(shifted, kind)
            assert np.max(np.abs(base - moved)) < 1e-14

    def test_rotational_covariance(self):
        rot = rotation_matrix([1.0, 2.0, 0.5], 0.83)
        p0 = np.array([0.0, 0.0, 0.6])
        spin = np.array([1.0, 0.0, 0.0])
        base = make_gaussian_packet(p0, 0.01, spin, grid_points=24,
                                    grid_radius=6.0)
        turned = make_gaussian_packet(rot @ p0, 0.01, rot @ spin,
                                      grid_points=24, grid_radius=6.0)
        vals_b = packets.fg_expectations(base)
        vals_t = packets.fg_expectations(turned)
        for key in ("T", "O", "sigma", "ibeta_alpha", "p_cross_sigma", "p"):
            assert np.max(np.abs(rot @ vals_b[key] - vals_t[key])) < 1e-12, key
        for kind in ("d", "e"):
            off_b = mass_center_offset(base, kind)
            off_t = mass_center_offset(turned, kind)
            assert np.max(np.abs(rot @ off_b - off_t)) < 1e-12


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
        "norm": expectation(pkt, np.broadcast_to(algebra.IDENTITY,
                                                 grid + (4, 4))),
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
        pkt = make_gaussian_packet(p0, (0.02, 0.03, 0.025), spin,
                                   m=1.3, grid_points=n)
        dense = _dense_expectations(pkt)
        table = packets.fg_expectations(pkt)
        table["norm"] = pkt.norm_squared
        for kind in ("c", "d", "e"):
            table[kind] = mass_center_offset(pkt, kind)
        assert isinstance(table["T4"], complex)
        for key, want in dense.items():
            assert np.max(np.abs(table[key] - want)) <= 1e-12, key

    def test_matches_dense_kernels_off_shell(self):
        # random spinors, not positive-energy: the null terms (odd, type c)
        # are no longer null, so every coefficient function is exercised
        pkt = make_gaussian_packet((0.2, 0.5, -0.4), 0.03, (0, 0, 1),
                                   grid_points=16)
        rng = np.random.default_rng(5)
        amps = (rng.normal(size=pkt.amplitudes.shape)
                + 1j * rng.normal(size=pkt.amplitudes.shape))
        amps /= np.sqrt(np.sum(np.abs(amps)**2) * pkt.cell_volume)
        pkt = packets.MomentumWavePacket(
            pkt.momenta, amps, pkt.cell_volume, pkt.center.copy(),
            pkt.widths.copy(), pkt.spacings.copy(), pkt.mass)
        dense = _dense_expectations(pkt)
        table = packets.fg_expectations(pkt)
        for kind in ("c", "d", "e"):
            table[kind] = mass_center_offset(pkt, kind)
        assert np.max(np.abs(dense["odd"])) > 1e-4
        assert np.max(np.abs(dense["c"])) > 1e-3
        for key in table.keys() & dense.keys():
            assert np.max(np.abs(table[key] - dense[key])) <= 1e-12, key

    def test_table_is_real_and_cached(self, fast_packet):
        table = fast_packet.bilinears
        assert table.shape == fast_packet.momenta.shape[:3] + (16,)
        assert table.dtype == float
        assert fast_packet.bilinears is table
        with pytest.raises(ValueError):
            table[0, 0, 0, 0] = 1.0

    def test_hermitian_rule_on_table_route(self, fast_packet):
        density = 1j * fast_packet.bilinears[..., 0]   # <i> = i
        with pytest.raises(ValueError, match="Hermitian"):
            packets.grid_expectation(fast_packet, density)
        val = packets.grid_expectation(fast_packet, density,
                                        hermitian=False)
        assert abs(val - 1j) < 1e-12
        vector = np.stack([density] * 3, axis=-1)
        with pytest.raises(ValueError, match="Hermitian"):
            packets.grid_expectation(fast_packet, vector)
