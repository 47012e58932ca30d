"""Exactly solvable flux-coupled ring models.

A quantized LC mode couples to the orbital motion (and optionally spins) of
fermions on a ring.  Total angular momentum commutes with the mode, so every
fermion sector reduces to a single displaced, squeezed (or anharmonic)
oscillator and the full spectrum is available in closed form or by cheap
one-mode diagonalization.  The package provides those closed forms, the
phase-transition detectors built on them, tight-binding and linear-dispersion
ring variants, and a brute-force Fock-space oracle used to verify everything.
"""

from .core import FermionConfig, LCParams, ModelParams, derive_ring
from .diracring import (
    ChiralSector,
    DiracParams,
    critical_flux_dirac,
    diamagnetic_stiffness,
    effective_energy,
    flux_displacement,
    induced_coupling_dirac,
    optimal_chirality,
)
from .errors import ConvergenceError, GridDomainError, NoTransitionError
from .kerr import QuarticSector, anharmonic_spectrum, displacement_root, full_levels, gaussian_frequency
from .linearmode import (
    AnalyticSolution,
    dressed_frequency,
    induced_coupling,
    mode_displacement,
    sector_energy,
    squeeze_solution,
)
from .oracle import (
    GroundStateMoments,
    OracleReport,
    SpectrumComparison,
    compare_spectra,
    ground_state_moments,
    oracle_spectrum,
)
from .phases import GroundState, balanced_config, boosted_config, critical_chi, critical_flux, ground_state_search
from .spinorbit import HessianReport, critical_eta, critical_flux_spin, hessian, locking_ratio
from .tbring import (
    RfSquidParams,
    TBSector,
    displacement_matrix_element,
    displacement_operator,
    rf_squid_map,
    rf_squid_spectrum,
    sector_constants,
    sector_spectrum_fock,
    sector_spectrum_xrep,
)

__version__ = "0.1.0"
