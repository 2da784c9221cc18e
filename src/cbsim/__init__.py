"""Coherent backscattering of intense light from a driven two-atom pair.

Numerically exact master-equation treatment of two dipole-coupled atoms in
a strong drive: steady states, quantum-regression emission spectra, and the
disorder-averaged backscattering enhancement factor across the full
elastic-to-inelastic crossover, validated against closed-form dressed-state
predictions.
"""

__version__ = "0.1.0"

from .atoms import (FULL_J0_J1, TWO_LEVEL, V_TYPE, LevelScheme, build_scheme,
                    embed, lowering_operator, raising_operator)
from .cbs import (CbsComponents, CbsSpectrumResult, cbs_components,
                  cbs_components_isotropic, cbs_spectrum, detected_intensity,
                  sweep_alpha_collect)
from .dressed import generalized_rabi, peak_positions, validate_spectrum
from .liouvillian import (GeneratorStack, PhysicalParams, assemble,
                          assemble_single, decay_dissipator, drive_hamiltonian,
                          rabi_for_saturation, saturation)
from .solver import steady_state
from .spectra import SpectrumSeries, default_omega_grid, elastic_weight, single_atom_spectrum

__all__ = [
    "__version__",
    "FULL_J0_J1", "TWO_LEVEL", "V_TYPE", "LevelScheme", "build_scheme",
    "embed", "lowering_operator", "raising_operator",
    "CbsComponents", "CbsSpectrumResult", "cbs_components",
    "cbs_components_isotropic", "cbs_spectrum", "detected_intensity",
    "sweep_alpha_collect",
    "generalized_rabi", "peak_positions", "validate_spectrum",
    "GeneratorStack", "PhysicalParams", "assemble", "assemble_single",
    "decay_dissipator", "drive_hamiltonian", "rabi_for_saturation", "saturation",
    "steady_state",
    "SpectrumSeries", "default_omega_grid", "elastic_weight", "single_atom_spectrum",
]
