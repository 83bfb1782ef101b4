"""Spin-pair simulator for default-off two-qubit NMR gates under MAS."""

from .hamiltonian import (DipolarConstants, EffectiveField, bq_factors,
                          dipolar_constants, effective_field)
from .operators import SpinSystem, basis_state, expectation, spin_operator
from .propagator import (CWSegment, Delay, IdealRotation, RFDrive, Trajectory,
                         extract_gate, run_sequence)
from .readout import Spectrum, classify_state, simulate_fid, stick_spectrum
from .recoupling import (RecouplingPlan, condition_residual, solve_amplitude,
                         solve_plans, theta_from_period)
from .gates import (cns, cns_circuit, iswap, locally_equivalent,
                    makhlin_invariants, u_flip, universality_class,
                    weyl_coordinates)

__version__ = "0.1.0"

__all__ = [
    "CWSegment", "Delay", "DipolarConstants", "EffectiveField",
    "IdealRotation", "RFDrive", "RecouplingPlan", "SpinSystem", "Spectrum",
    "Trajectory", "basis_state", "bq_factors", "classify_state", "cns",
    "cns_circuit", "condition_residual", "dipolar_constants",
    "effective_field", "expectation", "extract_gate", "iswap",
    "locally_equivalent", "makhlin_invariants", "run_sequence",
    "simulate_fid", "solve_amplitude", "solve_plans", "spin_operator",
    "stick_spectrum", "theta_from_period", "u_flip", "universality_class",
    "weyl_coordinates",
]
