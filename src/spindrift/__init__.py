"""Relativistic spinning-electron mass centers and anomalous velocity.

Four modules:

* `algebra`  -- the Dirac matrix representation and momentum-dependent
  operator kernels (Hamiltonian, little-group generators, Foldy-Wouthuysen
  rotation, Pryce mass-center kernels).
* `packets`  -- sharp positive-energy Gaussian wave packets and the
  expectation-value relations linking spin, little-group and mass-center
  operators.
* `dynamics` -- the classical Lorentz + spin-precession equations of
  motion, spin boosts, position shift, Thomas precession, and the
  anomalous velocity of the mass center in its equivalent analytic forms.
* `exact`    -- the exact classical motion in uniform fields, the one
  source of sampled trajectories, and the one generator A = (e/m) F; the
  integrator ladder's private RK4 stepper steps that A and is checked
  against its exponential.

The `spindrift` command line front end runs simulations, verification
suites and convergence studies from plain-text scenario configs.
"""

from .algebra import (
    PRYCE_KINDS,
    dirac_matrices,
    energy,
    free_hamiltonian,
    fw_transform,
    little_group_generators,
    o_operator,
    pryce_factors,
    pryce_kernel,
)
from .packets import (
    MomentumWavePacket,
    expectation_position,
    make_gaussian_packet,
    verify_fg_relations,
    verify_main_results,
)

__version__ = "0.1.0"
