"""Dirac matrices and momentum-dependent operator kernels.

Everything lives in one fixed 4x4 representation (natural units, hbar = c = 1):

    alpha_i = [[0, sigma_i], [sigma_i, 0]]     beta   = diag(1, 1, -1, -1)
    gamma5  = [[0, -1], [-1, 0]]               gamma_i = -i beta alpha_i
    gamma4  = beta                             Sigma_i = diag(sigma_i, sigma_i)

with Euclidean index conventions, {gamma_mu, gamma_nu} = 2 delta_mu_nu.
Momentum-dependent kernels (Hamiltonian, little-group generators, the
Foldy-Wouthuysen rotation, Pryce mass-center kernels) treat the momentum as
a number; they are meant to act on sharp positive-energy packets where the
canonical momentum is effectively classical.

All kernel builders broadcast over momenta: `p` may be shape (3,) or
(..., 3) and matrix results gain the matching leading axes.
"""
from __future__ import annotations

import enum

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


class PryceKind(enum.Enum):
    """The three mass-center operator types."""

    C = "c"
    D = "d"
    E = "e"

    @classmethod
    def coerce(cls, value) -> "PryceKind":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


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


def pryce_factors(kind, gamma_bar):
    """Type-dependent factors (f1, f2, f3, fP) as functions of the dilation factor.

    fP = f1 - f2 controls the expectation-level offset between the mass
    center and the canonical position.  Rejects gamma_bar < 1.
    """
    kind = PryceKind.coerce(kind)
    g = np.asarray(gamma_bar, dtype=float)
    if np.any(g < 1.0):
        raise ValueError("dilation factor must be >= 1")
    one = np.ones_like(g)
    if kind is PryceKind.D:
        f1, f2, f3 = one, 0.0 * one, -1.0 / g**2
    elif kind is PryceKind.E:
        f1, f2, f3 = 1.0 / g, 1.0 / (g * (1.0 + g)), -1.0 / (g**2 * (g + 1.0))
    else:
        f1, f2, f3 = 1.0 / g**2, 1.0 / g**2, 0.0 * one
    if np.ndim(gamma_bar) == 0:
        return float(f1), float(f2), float(f3), float(f1 - f2)
    return f1, f2, f3, f1 - f2


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
    kind = PryceKind.coerce(kind)
    if m <= 0:
        raise ValueError("mass must be positive")
    p = np.asarray(p, dtype=float)
    e = energy(p, m)[..., None, None, None]
    cross, odd = _cross_and_odd(p)
    if kind is PryceKind.D:
        return _I_BETA_ALPHA / (2.0 * m) - odd / (2.0 * m * e**2)
    if kind is PryceKind.E:
        return (_I_BETA_ALPHA / (2.0 * e)
                + cross / (2.0 * e * (e + m))
                - odd / (2.0 * e**2 * (e + m)))
    return m * _I_BETA_ALPHA / (2.0 * e**2) + cross / (2.0 * e**2)


def pryce_kernel_general_form(kind, p, m: float):
    """Same kernel assembled from the factor table; cross-check route."""
    p = np.asarray(p, dtype=float)
    g = energy(p, m) / m
    f1, f2, f3 = pryce_factors(kind, g)[:3]
    f1 = np.asarray(f1)[..., None, None, None]
    f2 = np.asarray(f2)[..., None, None, None]
    f3 = np.asarray(f3)[..., None, None, None]
    cross, odd = _cross_and_odd(p)
    return (f1 * _I_BETA_ALPHA / (2.0 * m)
            + f2 * cross / (2.0 * m**2)
            + f3 * odd / (2.0 * m**3))


# Largest entrywise residual at which an identity-suite row passes.
IDENTITY_TOL = 1e-12


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
    report.add("clifford_anticommutator", max(
        _maxabs(GAMMA[mu] @ GAMMA[nu] + GAMMA[nu] @ GAMMA[mu]
                - 2.0 * (mu == nu) * IDENTITY)
        for mu in range(4) for nu in range(4)), IDENTITY_TOL)
    report.add("gamma5_product",
               _maxabs(GAMMA5 - GAMMA[0] @ GAMMA[1] @ GAMMA[2] @ GAMMA[3]),
               IDENTITY_TOL)
    report.add("alpha_definition",
               max(_maxabs(ALPHA[i] - 1j * BETA @ GAMMA[i]) for i in range(3)),
               IDENTITY_TOL)
    report.add("sigma_definition",
               max(_maxabs(SIGMA[i] - 1j * GAMMA[3] @ GAMMA5 @ GAMMA[i])
                   for i in range(3)), IDENTITY_TOL)
    report.add("alpha_anticommutator", max(
        _maxabs(ALPHA[i] @ ALPHA[j] + ALPHA[j] @ ALPHA[i]
                - 2.0 * (i == j) * IDENTITY)
        for i in range(3) for j in range(3)), IDENTITY_TOL)
    report.add("sigma_commutator", max(
        _maxabs(SIGMA[i] @ SIGMA[j] - SIGMA[j] @ SIGMA[i]
                - 2j * np.einsum("k,kab->ab", _EPS[i, j], SIGMA))
        for i in range(3) for j in range(3)), IDENTITY_TOL)

    # each row below also counts the set-up it needs (H, the FW pair,
    # the generators, O)
    h = free_hamiltonian(momenta, m)
    e = energy(momenta, m)
    report.add("hamiltonian_square",
               _maxabs(np.einsum("nab,nbc->nac", h, h)
                       - (e**2)[:, None, None] * IDENTITY), IDENTITY_TOL)
    report.add("hamiltonian_spectrum",
               _maxabs(np.linalg.eigvalsh(h)
                       - np.stack([-e, -e, e, e], axis=1)), IDENTITY_TOL)

    up = fw_transform(momenta, m, +1)
    um = fw_transform(momenta, m, -1)
    report.add("fw_unitary",
               _maxabs(np.einsum("nab,nbc->nac", up, _dagger(up)) - IDENTITY),
               IDENTITY_TOL)
    report.add("fw_inverse_pair",
               _maxabs(np.einsum("nab,nbc->nac", up, um) - IDENTITY),
               IDENTITY_TOL)
    report.add("fw_diagonalizes",
               _maxabs(np.einsum("nab,nbc,ncd->nad", up, h, um)
                       - e[:, None, None] * BETA), IDENTITY_TOL)

    t, t4 = little_group_generators(momenta, m)
    report.add("little_group_commutes",
               _maxabs(np.einsum("niab,nbc->niac", t, h)
                       - np.einsum("nab,nibc->niac", h, t)), IDENTITY_TOL)
    report.add("little_group_t4_commutes",
               _maxabs(np.einsum("nab,nbc->nac", t4, h)
                       - np.einsum("nab,nbc->nac", h, t4)), IDENTITY_TOL)

    o = o_operator(momenta, m)
    report.add("mean_spin_hermitian", _maxabs(o - _dagger(o)), IDENTITY_TOL)
    report.add("mean_spin_at_rest",
               _maxabs(o_operator(np.zeros(3), m) - _BETA_SIGMA), IDENTITY_TOL)

    report.add("pryce_kernel_two_routes", max(
        _maxabs(pryce_kernel(k, momenta, m)
                - pryce_kernel_general_form(k, momenta, m))
        for k in PryceKind), IDENTITY_TOL)

    # fP = f1 - f2 at every sampled gamma, plus three spot values
    residual = max(abs(pryce_factors("d", 2.5)[3] - 1.0),
                   abs(pryce_factors("e", 1.0)[3] - 0.5),
                   abs(pryce_factors("c", 3.0)[3]))
    for k in PryceKind:
        f1, f2, _f3, fp = pryce_factors(k, e / m)
        residual = max(residual,
                       _maxabs(fp - (np.asarray(f1) - np.asarray(f2))))
    report.add("pryce_factor_table", residual, IDENTITY_TOL)

    return report
