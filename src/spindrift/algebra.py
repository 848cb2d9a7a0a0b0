"""Dirac matrices and momentum-dependent operator kernels.

Everything lives in one fixed 4x4 representation (natural units, hbar = c = 1):

    alpha_i = [[0, sigma_i], [sigma_i, 0]]     beta   = diag(1, 1, -1, -1)
    gamma5  = [[0, -1], [-1, 0]]               gamma_i = -i beta alpha_i
    gamma4  = beta                             Sigma_i = diag(sigma_i, sigma_i)

with Euclidean index conventions, {gamma_mu, gamma_nu} = 2 delta_mu_nu.
Momentum-dependent kernels (Hamiltonian, little-group generators, the
Foldy-Wouthuysen rotation, Pryce mass-center kernels) treat the momentum as
a number; they are meant to act on sharp positive-energy packets where the
canonical momentum is effectively classical.  A Pryce kind is one of the
strings in `PRYCE_KINDS`; any other value is a ValueError.

All kernel builders broadcast over momenta: `p` may be shape (3,) or
(..., 3) and matrix results gain the matching leading axes.
"""
from __future__ import annotations

import numpy as np

from .report import RunReport

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

_I2 = np.eye(2, dtype=complex)
_Z2 = np.zeros((2, 2), dtype=complex)
IDENTITY = np.eye(4, dtype=complex)

BETA = np.block([[_I2, _Z2], [_Z2, -_I2]])
ALPHA = np.stack([np.block([[_Z2, s], [s, _Z2]]) for s in PAULI])
SIGMA = np.stack([np.block([[s, _Z2], [_Z2, s]]) for s in PAULI])
GAMMA5 = np.block([[_Z2, -_I2], [-_I2, _Z2]])
# alpha_i = i beta gamma_i  =>  gamma_i = -i beta alpha_i
GAMMA = np.concatenate([np.stack([-1j * BETA @ a for a in ALPHA]), BETA[None]])

# frequently needed products
_BETA_ALPHA = np.stack([BETA @ a for a in ALPHA])
_BETA_SIGMA = np.stack([BETA @ s for s in SIGMA])
_I_BETA_ALPHA = 1j * _BETA_ALPHA

# Hermitian basis of the 4x4 matrices, tr(C_A C_B) = 4 delta_AB: 1, beta,
# gamma5, i beta gamma5, alpha_i, Sigma_i, i beta alpha_i, beta Sigma_i.
CLIFFORD = np.concatenate([
    np.stack([IDENTITY, BETA, GAMMA5, 1j * BETA @ GAMMA5]), ALPHA, SIGMA,
    _I_BETA_ALPHA, _BETA_SIGMA])

_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_i, _k, _j] = -1.0

for _m in (PAULI, BETA, ALPHA, SIGMA, GAMMA5, GAMMA, _BETA_ALPHA, _BETA_SIGMA,
           _I_BETA_ALPHA, CLIFFORD, _EPS, IDENTITY):
    _m.flags.writeable = False


# The three mass-center operator types, by the names every layer uses.
PRYCE_KINDS = ("c", "d", "e")


def dirac_matrices() -> dict:
    """Named collection of the representation matrices.

    Keys: 'gamma1'..'gamma4', 'gamma5', 'beta', 'alpha1'..'alpha3',
    'sigma1'..'sigma3'.
    """
    out = {f"gamma{i + 1}": GAMMA[i] for i in range(4)}
    out["gamma5"] = GAMMA5
    out["beta"] = BETA
    for i in range(3):
        out[f"alpha{i + 1}"] = ALPHA[i]
        out[f"sigma{i + 1}"] = SIGMA[i]
    return out


def energy(p, m: float):
    """On-shell energy sqrt(m^2 + |p|^2); broadcasts over (..., 3)."""
    p = np.asarray(p, dtype=float)
    return np.sqrt(m * m + np.sum(p * p, axis=-1))


def free_hamiltonian(p, m: float):
    """H(p) = alpha.p + beta m, the free Dirac Hamiltonian at momentum p."""
    if m <= 0:
        raise ValueError("mass must be positive")
    p = np.asarray(p, dtype=float)
    return np.einsum("...i,iab->...ab", p, ALPHA) + m * BETA


def little_group_generators(p, m: float = 1.0):
    """Generators (T, T4) of rotations that fix a plane wave's 4-momentum.

    T_i = beta sigma_i - gamma5 p_i / m and T4 = i sigma.p / m; the 1/m makes
    the generators dimensionless so that they stay the boost image of the
    rest-frame spin for any mass (T reduces to beta sigma - gamma5 p at m=1).
    Both commute with H(p).
    """
    p = np.asarray(p, dtype=float)
    t = _BETA_SIGMA - np.einsum("...i,ab->...iab", p, GAMMA5) / m
    t4 = 1j * np.einsum("...i,iab->...ab", p, SIGMA) / m
    return t, t4


def fw_transform(p, m: float, sign: int = +1):
    """Foldy-Wouthuysen rotation (E + sign * beta alpha.p + m) / sqrt(2E(E+m)).

    Unitary; the two signs are mutual inverses.  sign=+1 is the orientation
    that diagonalizes the Hamiltonian:  fw(+1) H(p) fw(-1) = beta E(p).
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    p = np.asarray(p, dtype=float)
    e = energy(p, m)
    a = np.einsum("...i,iab->...ab", p, _BETA_ALPHA)
    num = np.multiply.outer(e + m, IDENTITY) + sign * a
    return num / np.sqrt(2.0 * e * (e + m))[..., None, None]


def o_operator(p, m: float):
    """Mean-spin operator: beta sigma conjugated back from the diagonal picture.

    O = fw(-1) . beta sigma . fw(+1).  On a positive-energy spinor its
    expectation is the rest-frame polarization vector.
    """
    minus = fw_transform(p, m, -1)
    plus = fw_transform(p, m, +1)
    return np.einsum("...ab,ibc,...cd->...iad", minus, _BETA_SIGMA, plus)


def pryce_factors(gamma_bar) -> dict:
    """The Pryce factor table: every kind's (f1, f2, f3, fP) at the dilation
    factor, keyed in `PRYCE_KINDS` order, each of gamma_bar's shape.

    fP = f1 - f2 controls the expectation-level offset between the mass
    center and the canonical position.  Rejects gamma_bar < 1 and NaN.
    """
    g = np.asarray(gamma_bar, dtype=float)
    if not np.all(g >= 1.0):
        raise ValueError("dilation factor must be >= 1")
    one, zero, inv_g2 = np.ones_like(g), np.zeros_like(g), 1.0 / g**2
    factors = {"c": (inv_g2, inv_g2, zero),
               "d": (one, zero, -inv_g2),
               "e": (1.0 / g, 1.0 / (g * (1.0 + g)),
                     -1.0 / (g**2 * (g + 1.0)))}
    return {kind: (f1, f2, f3, f1 - f2)
            for kind, (f1, f2, f3) in factors.items()}


def _cross_and_odd(p):
    """The kernels (p x Sigma)_i and i beta (alpha.p) p_i, (..., 3, 4, 4)."""
    cross = np.einsum("ijk,...j,kab->...iab", _EPS, p, SIGMA)
    ba = np.einsum("...j,jab->...ab", p, _BETA_ALPHA)
    return cross, 1j * np.einsum("...ab,...i->...iab", ba, p)


def pryce_kernel(kind, p, m: float):
    """Matrix part of the mass-center operator (its offset from the position).

    Returns the 3-vector of 4x4 kernels for the requested type at numeric
    momentum p:

        d:  i beta alpha / 2m - i beta (alpha.p) p / 2mE^2
        e:  i beta alpha / 2E + (p x sigma) / 2E(E+m)
              - i beta (alpha.p) p / 2E^2(E+m)
        c:  i m beta alpha / 2E^2 + (p x sigma) / 2E^2
    """
    if m <= 0:
        raise ValueError("mass must be positive")
    p = np.asarray(p, dtype=float)
    e = energy(p, m)[..., None, None, None]
    cross, odd = _cross_and_odd(p)
    if kind == "d":
        return _I_BETA_ALPHA / (2.0 * m) - odd / (2.0 * m * e**2)
    if kind == "e":
        return (_I_BETA_ALPHA / (2.0 * e)
                + cross / (2.0 * e * (e + m))
                - odd / (2.0 * e**2 * (e + m)))
    if kind == "c":
        return m * _I_BETA_ALPHA / (2.0 * e**2) + cross / (2.0 * e**2)
    raise ValueError(f"unknown Pryce kind {kind!r}")


def pryce_kernel_general_form(kind, p, m: float):
    """Same kernel assembled from the factor table; cross-check route."""
    if kind not in PRYCE_KINDS:
        raise ValueError(f"unknown Pryce kind {kind!r}")
    p = np.asarray(p, dtype=float)
    f1, f2, f3 = (f[..., None, None, None]
                  for f in pryce_factors(energy(p, m) / m)[kind][:3])
    cross, odd = _cross_and_odd(p)
    return (f1 * _I_BETA_ALPHA / (2.0 * m)
            + f2 * cross / (2.0 * m**2)
            + f3 * odd / (2.0 * m**3))


# Identity-suite tolerance in units of eps times the size of a row's
# operands: the largest E^2 for H^2, E for the spectrum and the FW
# diagonalization, |T| E and |T4| E for the generators, |O| for O, the
# largest kernel entry for the two Pryce routes, and 1 for the constant and
# unitary matrices.
# Measured: the worst residual / (eps * size) over masses 1e-5 .. 1e3,
# pmax 1e-3 .. 100 and seeds 0 .. 4 is 7.8 (hamiltonian_spectrum, eigvalsh);
# the coefficient is about four times that.  At m = 1, pmax = 10 no row's
# tolerance exceeds 1e-12.
IDENTITY_COEFF = 32.0


def _maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def _dagger(a):
    return np.conj(np.swapaxes(a, -1, -2))


def identity_report(n_momenta: int = 100, pmax_over_m: float = 10.0,
                    m: float = 1.0, seed: int = 0) -> RunReport:
    """Numeric identity suite over random momenta |p| <= pmax_over_m * m.

    Checks the Clifford algebra, the auxiliary-matrix definitions, spectrum
    and square of the free Hamiltonian, unitarity/diagonalization of the FW
    rotation, commutation of the little-group generators with H, Hermiticity
    of the mean-spin operator, and the two independent assemblies of the
    Pryce kernels.  Each row reports the worst-case entrywise residual
    and the time since the row before it.
    """
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(n_momenta, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    momenta = dirs * (rng.uniform(0.0, pmax_over_m * m, size=(n_momenta, 1)))

    report = RunReport()

    def add(name, residual, size=1.0):
        report.add(name, residual,
                   IDENTITY_COEFF * np.finfo(float).eps * size)

    add("clifford_anticommutator", max(
        _maxabs(GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                - 2.0 * (mu == nu) * IDENTITY)
        for mu in range(4) for nu in range(4)))
    add("gamma5_product",
        _maxabs(GAMMA5 - GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]))
    add("alpha_definition",
        max(_maxabs(ALPHA[i] - 1j * BETA @ GAMMA[i]) for i in range(3)))
    add("sigma_definition",
        max(_maxabs(SIGMA[i] - 1j * GAMMA[3] @ GAMMA5 @ GAMMA[i])
            for i in range(3)))
    add("alpha_anticommutator", max(
        _maxabs(ALPHA[i] @ ALPHA[j] + ALPHA[j] @ ALPHA[i]
                - 2.0 * (i == j) * IDENTITY)
        for i in range(3) for j in range(3)))
    add("sigma_commutator", max(
        _maxabs(SIGMA[i] @ SIGMA[j] - SIGMA[j] @ SIGMA[i]
                - 2j * np.einsum("k,kab->ab", _EPS[i, j], SIGMA))
        for i in range(3) for j in range(3)))

    # each row below also counts the set-up it needs (H, the FW pair,
    # the generators, O)
    h = free_hamiltonian(momenta, m)
    e = energy(momenta, m)
    emax = _maxabs(e)
    add("hamiltonian_square",
        _maxabs(np.einsum("nab,nbc->nac", h, h)
                - (e**2)[:, None, None] * IDENTITY), emax * emax)
    add("hamiltonian_spectrum",
        _maxabs(np.linalg.eigvalsh(h) - np.stack([-e, -e, e, e], axis=1)),
        emax)

    up = fw_transform(momenta, m, +1)
    um = fw_transform(momenta, m, -1)
    add("fw_unitary",
        _maxabs(np.einsum("nab,nbc->nac", up, _dagger(up)) - IDENTITY))
    add("fw_inverse_pair",
        _maxabs(np.einsum("nab,nbc->nac", up, um) - IDENTITY))
    add("fw_diagonalizes",
        _maxabs(np.einsum("nab,nbc,ncd->nad", up, h, um)
                - e[:, None, None] * BETA), emax)

    t, t4 = little_group_generators(momenta, m)
    add("little_group_commutes",
        _maxabs(np.einsum("niab,nbc->niac", t, h)
                - np.einsum("nab,nibc->niac", h, t)), _maxabs(t) * emax)
    add("little_group_t4_commutes",
        _maxabs(np.einsum("nab,nbc->nac", t4, h)
                - np.einsum("nab,nbc->nac", h, t4)), _maxabs(t4) * emax)

    o = o_operator(momenta, m)
    add("mean_spin_hermitian", _maxabs(o - _dagger(o)), _maxabs(o))
    add("mean_spin_at_rest",
        _maxabs(o_operator(np.zeros(3), m) - _BETA_SIGMA))

    routes = [(pryce_kernel(k, momenta, m),
               pryce_kernel_general_form(k, momenta, m)) for k in PRYCE_KINDS]
    add("pryce_kernel_two_routes", max(_maxabs(a - b) for a, b in routes),
        max(_maxabs(a) for a, _ in routes))

    # fP = f1 - f2 against its closed forms at every sampled gamma
    g = e / m
    closed = {"c": 0.0, "d": 1.0, "e": 1.0 / (1.0 + g)}
    add("pryce_factor_table", max(_maxabs(fp - closed[k])
                                  for k, (*_, fp) in pryce_factors(g).items()))

    return report
