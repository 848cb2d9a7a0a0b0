import numpy as np
import pytest

from spindrift import algebra
from spindrift.algebra import (ALPHA, BETA, GAMMA, GAMMA5, IDENTITY, PAULI,
                               PRYCE_KINDS, SIGMA)

I2 = np.eye(2)
Z2 = np.zeros((2, 2))


def test_printed_representation():
    assert np.array_equal(BETA, np.diag([1, 1, -1, -1]).astype(complex))
    assert np.array_equal(GAMMA5, np.block([[Z2, -I2], [-I2, Z2]]))
    for i in range(3):
        assert np.array_equal(ALPHA[i],
                              np.block([[Z2, PAULI[i]], [PAULI[i], Z2]]))
        assert np.array_equal(SIGMA[i],
                              np.block([[PAULI[i], Z2], [Z2, PAULI[i]]]))


def test_beta_squares_to_identity():
    assert np.array_equal(BETA @ BETA, IDENTITY)


def test_alpha_anticommute():
    anti = ALPHA[0] @ ALPHA[1] + ALPHA[1] @ ALPHA[0]
    assert np.array_equal(anti, np.zeros((4, 4)))
    for i in range(3):
        assert np.array_equal(ALPHA[i] @ ALPHA[i], IDENTITY)


def test_ibeta_gamma1_is_alpha1():
    # hand block-multiplication: gamma_1 = [[0, -i s1], [i s1, 0]], so
    # i beta gamma_1 = i [[1,0],[0,-1]][[0,-i s1],[i s1,0]] = [[0,s1],[s1,0]]
    gamma1_blocks = np.block([[Z2, -1j * PAULI[0]], [1j * PAULI[0], Z2]])
    assert np.allclose(GAMMA[0], gamma1_blocks, atol=0)
    assert np.allclose(1j * BETA @ GAMMA[0], ALPHA[0], atol=0)


def test_clifford_with_factor_two():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
            assert np.allclose(anti, 2.0 * (mu == nu) * IDENTITY, atol=1e-15)


def test_auxiliary_definitions():
    assert np.allclose(GAMMA5, GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3],
                       atol=1e-15)
    assert np.array_equal(GAMMA[3], BETA)
    for i in range(3):
        assert np.allclose(SIGMA[i], 1j * GAMMA[3] @ GAMMA5 @ GAMMA[i],
                           atol=1e-15)


def test_sigma_su2_commutators():
    for i in range(3):
        for j in range(3):
            comm = SIGMA[i] @ SIGMA[j] - SIGMA[j] @ SIGMA[i]
            expect = 2j * np.einsum("k,kab->ab", algebra._EPS[i, j], SIGMA)
            assert np.allclose(comm, expect, atol=1e-15)


def test_dirac_matrices_collection():
    mats = algebra.dirac_matrices()
    assert set(mats) == {"gamma1", "gamma2", "gamma3", "gamma4", "gamma5",
                         "beta", "alpha1", "alpha2", "alpha3",
                         "sigma1", "sigma2", "sigma3"}
    assert np.array_equal(mats["gamma4"], mats["beta"])


class TestFreeHamiltonian:
    def test_at_rest(self):
        m = 1.7
        h = algebra.free_hamiltonian(np.zeros(3), m)
        assert np.allclose(h, m * BETA, atol=0)
        assert np.allclose(np.linalg.eigvalsh(h), [-m, -m, m, m], atol=1e-15)

    def test_spectrum_dense_oracle(self):
        m, q = 1.3, 0.8
        h = algebra.free_hamiltonian(np.array([0.0, 0.0, q]), m)
        e = np.sqrt(m * m + q * q)
        assert np.allclose(np.linalg.eigvalsh(h), [-e, -e, e, e], atol=1e-14)

    def test_square_is_scalar(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.normal(size=3) * 3.0
            m = rng.uniform(0.5, 2.0)
            h = algebra.free_hamiltonian(p, m)
            assert np.allclose(h @ h, (m * m + p @ p) * IDENTITY, atol=1e-12)

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            algebra.free_hamiltonian(np.zeros(3), 0.0)


class TestLittleGroup:
    def test_at_rest(self):
        t, t4 = algebra.little_group_generators(np.zeros(3), 1.0)
        assert np.allclose(t, algebra._BETA_SIGMA, atol=0)
        assert np.allclose(t4, np.zeros((4, 4)), atol=0)

    def test_explicit_along_z(self):
        q = 0.45
        t, t4 = algebra.little_group_generators(np.array([0.0, 0.0, q]), 1.0)
        assert np.allclose(t[2], BETA @ SIGMA[2] - q * GAMMA5, atol=0)
        assert np.allclose(t4, 1j * q * SIGMA[2], atol=0)

    def test_commutes_with_hamiltonian(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(100):
            p = rng.normal(size=3) * rng.uniform(0, 10)
            m = rng.uniform(0.5, 2.0)
            h = algebra.free_hamiltonian(p, m)
            t, t4 = algebra.little_group_generators(p, m)
            for ti in t:
                worst = max(worst, np.max(np.abs(ti @ h - h @ ti)))
            worst = max(worst, np.max(np.abs(t4 @ h - h @ t4)))
        assert worst < 1e-12


class TestFoldyWouthuysen:
    def test_identity_at_rest(self):
        assert np.allclose(algebra.fw_transform(np.zeros(3), 1.0), IDENTITY,
                           atol=1e-15)

    def test_unitary_spot(self):
        m = 1.0
        p = np.array([0.3, -0.2, 0.7]) * m
        u = algebra.fw_transform(p, m)
        assert np.max(np.abs(u @ u.conj().T - IDENTITY)) < 1e-15

    def test_pair_inverse_100_random(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(100):
            p = rng.normal(size=3)
            p *= rng.uniform(0, 10) / max(np.linalg.norm(p), 1e-12)
            prod = (algebra.fw_transform(p, 1.0, +1)
                    @ algebra.fw_transform(p, 1.0, -1))
            worst = max(worst, np.max(np.abs(prod - IDENTITY)))
        assert worst < 1e-12

    def test_diagonalizes_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = rng.normal(size=3) * 2.0
            m = rng.uniform(0.5, 2.0)
            e = algebra.energy(p, m)
            u = algebra.fw_transform(p, m, +1)
            h = algebra.free_hamiltonian(p, m)
            diag = u @ h @ u.conj().T
            assert np.allclose(diag, e * BETA, atol=1e-12)
            # cross-check the spectrum with a dense eigensolve
            assert np.allclose(np.sort(np.linalg.eigvalsh(h)),
                               np.sort(np.diag(diag).real), atol=1e-12)

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            algebra.fw_transform(np.zeros(3), 1.0, sign=2)


class TestMeanSpinOperator:
    def test_at_rest(self):
        assert np.allclose(algebra.o_operator(np.zeros(3), 1.0),
                           algebra._BETA_SIGMA, atol=1e-15)

    def test_hermitian_random(self):
        rng = np.random.default_rng(5)
        p = rng.normal(size=(40, 3)) * 2.0
        o = algebra.o_operator(p, 1.0)
        assert np.max(np.abs(o - np.conj(np.swapaxes(o, -1, -2)))) < 1e-14

    def test_spin_up_expectation(self):
        # positive-energy spinor moving along z with spin up: <O_3> = 1.
        # Oracle: restrict O_3 to the positive-energy eigenspace found by a
        # dense eigensolve; its eigenvalues there must be exactly +-1, and
        # the library spinor must sit on the +1 eigenvector.
        m, q = 1.0, 0.9
        p = np.array([0.0, 0.0, q])
        h = algebra.free_hamiltonian(p, m)
        o3 = algebra.o_operator(p, m)[2]
        vals, vecs = np.linalg.eigh(h)
        plus = vecs[:, vals > 0]
        restricted = plus.conj().T @ o3 @ plus
        assert np.allclose(np.sort(np.linalg.eigvalsh(restricted)), [-1, 1],
                           atol=1e-12)
        from spindrift.packets import positive_energy_spinor, rest_spinor
        u = positive_energy_spinor(p, rest_spinor((0, 0, 1)), m)
        assert abs(u.conj() @ o3 @ u - 1.0) < 1e-13


class TestPryce:
    def test_kernels_at_rest(self):
        m = 1.0
        iba = 1j * np.stack([BETA @ a for a in ALPHA])
        for kind in ("c", "d"):
            k = algebra.pryce_kernel(kind, np.zeros(3), m)
            assert np.allclose(k, iba / (2 * m), atol=1e-15)

    def test_two_assemblies_agree(self):
        rng = np.random.default_rng(13)
        p = rng.normal(size=(50, 3)) * 3.0
        for kind in PRYCE_KINDS:
            explicit = algebra.pryce_kernel(kind, p, 1.0)
            table = algebra.pryce_kernel_general_form(kind, p, 1.0)
            assert np.max(np.abs(explicit - table)) < 1e-13

    def test_factor_spot_values(self):
        for g in (1.0, 1.8, 12.0):
            assert algebra.pryce_factors(g)["d"][3] == 1.0
            assert algebra.pryce_factors(g)["c"][3] == 0.0
        assert algebra.pryce_factors(1.0)["e"][3] == pytest.approx(0.5, abs=0)
        assert algebra.pryce_factors(3.0)["e"][3] == pytest.approx(0.25,
                                                                   abs=1e-15)

    def test_factor_table_components(self):
        table = algebra.pryce_factors(2.0)
        assert table["d"][:3] == (1.0, 0.0, -0.25)
        assert table["e"][:3] == (0.5, 1.0 / 6.0, -1.0 / 12.0)
        assert table["c"][:3] == (0.25, 0.25, 0.0)

    def test_table_keys_are_the_kinds_in_order(self):
        assert tuple(algebra.pryce_factors(2.0)) == PRYCE_KINDS
        assert tuple(algebra.pryce_factors(np.ones(3))) == PRYCE_KINDS

    def test_array_gamma_matches_each_scalar_bitwise(self):
        gs = np.array([1.0, 1.0 + 2.0**-52, 1.25, 3.7, 12.0, 1e6])
        table = algebra.pryce_factors(gs)
        for kind, factors in table.items():
            for i, g in enumerate(gs):
                one = algebra.pryce_factors(g)[kind]
                for f_all, f_one in zip(factors, one):
                    assert f_all.shape == gs.shape
                    assert np.shape(f_one) == ()
                    assert (np.asarray(f_all[i]).tobytes()
                            == np.asarray(f_one).tobytes()), (kind, g)

    def test_rejects_subluminal_gamma(self):
        with pytest.raises(ValueError):
            algebra.pryce_factors(0.99)

    def test_rejects_nan_gamma(self):
        for g in (np.nan, np.array([2.0, np.nan])):
            with pytest.raises(ValueError, match="dilation factor"):
                algebra.pryce_factors(g)

    def test_e_factor_monotone_to_zero(self):
        gs = np.linspace(1.0, 50.0, 200)
        fp = algebra.pryce_factors(gs)["e"][3]
        assert np.all(np.diff(fp) < 0)
        assert algebra.pryce_factors(1e6)["e"][3] < 2e-6

    def test_rejects_unknown_kind(self):
        # kinds are the lowercase strings of PRYCE_KINDS; "D" is not one
        for kind in ("x", "D"):
            with pytest.raises(ValueError, match="unknown Pryce kind"):
                algebra.pryce_kernel(kind, np.zeros(3), 1.0)

    def test_general_form_rejects_unknown_kind_as_the_kernel_does(self):
        for kind in ("x", "D"):
            with pytest.raises(ValueError) as kernel:
                algebra.pryce_kernel(kind, np.zeros(3), 1.0)
            with pytest.raises(ValueError) as general:
                algebra.pryce_kernel_general_form(kind, np.zeros(3), 1.0)
            assert str(general.value) == str(kernel.value)


def test_identity_report_clean():
    report = algebra.identity_report(seed=42)
    assert report.all_pass()
    assert len(report) == len({r.name for r in report})


# inputs with no defect that failed on roundoff under an absolute 1e-12
@pytest.mark.parametrize("m, pmax", [(10.0, 10.0), (1e3, 10.0), (1.0, 100.0),
                                     (1e-5, 10.0)])
def test_identity_report_scales_with_its_operands(m, pmax):
    assert algebra.identity_report(pmax_over_m=pmax, m=m).all_pass()


def test_identity_tolerances_at_defaults():
    assert max(r.tolerance for r in algebra.identity_report()) <= 1e-12


@pytest.mark.parametrize("m", [1e-5, 1e-3, 0.1, 1.0, 10.0, 1e3])
def test_identity_report_catches_a_flipped_kernel_term(m, monkeypatch):
    good = algebra.pryce_kernel

    def flipped(kind, p, mass):
        # the d kernel with the sign of its i beta (alpha.p) p term flipped
        _, odd = algebra._cross_and_odd(np.asarray(p, dtype=float))
        e = algebra.energy(p, mass)[..., None, None, None]
        return good(kind, p, mass) + (kind == "d") * odd / (mass * e**2)

    monkeypatch.setattr(algebra, "pryce_kernel", flipped)
    report = algebra.identity_report(n_momenta=20, m=m)
    assert report["pryce_kernel_two_routes"].status == "fail"


def test_clifford_basis_hermitian_orthogonal():
    basis = algebra.CLIFFORD
    assert basis.shape == (16, 4, 4)
    assert np.array_equal(basis, np.conj(np.swapaxes(basis, -1, -2)))
    gram = np.einsum("Aab,Bba->AB", basis, basis)
    assert np.allclose(gram, 4.0 * np.eye(16), atol=0)
