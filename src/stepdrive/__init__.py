"""Exact dynamics of two-level systems under periodic N-step driving."""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# OpenBLAS starts one thread per core when numpy loads, and its idle threads
# spin; no stepdrive product is large enough to gain from them, and the CLI
# pays for the pool on every call that loads numpy.  The package __init__ is
# the first code both `python -m stepdrive.cli` and the `stepdrive` script
# run, so the request goes here, before any numpy import in the package.
# The submodules below all load here, but none of them loads numpy: each
# imports it inside the functions that build arrays, so `import stepdrive`,
# `heff` and rejected input never pay for it.  The request is made only
# when numpy is not loaded yet (its pool would already exist) and no
# OpenBLAS thread variable is set, so a caller's choice is kept.
if "numpy" not in _sys.modules and not any(
    _os.environ.get(name)
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .core import (
    BeatPrediction,
    BranchAmbiguityError,
    DriveStep,
    EffectiveHamiltonian,
    EmptySequenceError,
    MicromotionParams,
    PropagatorCoeffs,
    PulseSequence,
    SpectralComponent,
    SpectralModel,
    validate,
)
from .propagator import (
    compose,
    evolve,
    evolve_many,
    intra_period,
    period_propagator,
    step_propagator,
    transition_probabilities,
    transition_probability,
)
from .effective import (
    effective_hamiltonian,
    effective_with_jump,
    jump_sequence,
    micromotion,
)
from .spectrum import (
    ModelError,
    dominant_model,
    fourier_closed_form_two_step,
    fourier_numeric,
    model_error,
    piecewise_coefficients,
    two_step_empirical_model,
    write_csv,
)
from .phenomena import (
    PhenomenaReport,
    PhenomenonFlag,
    beat_prediction,
    classify,
    complete_transition_time,
    design_manipulation,
    phase_from_beat,
)

__all__ = [
    "BeatPrediction",
    "BranchAmbiguityError",
    "DriveStep",
    "EffectiveHamiltonian",
    "EmptySequenceError",
    "MicromotionParams",
    "ModelError",
    "PhenomenaReport",
    "PhenomenonFlag",
    "PropagatorCoeffs",
    "PulseSequence",
    "SpectralComponent",
    "SpectralModel",
    "beat_prediction",
    "classify",
    "complete_transition_time",
    "compose",
    "design_manipulation",
    "dominant_model",
    "effective_hamiltonian",
    "effective_with_jump",
    "evolve",
    "evolve_many",
    "fourier_closed_form_two_step",
    "fourier_numeric",
    "intra_period",
    "jump_sequence",
    "micromotion",
    "model_error",
    "period_propagator",
    "phase_from_beat",
    "piecewise_coefficients",
    "step_propagator",
    "transition_probabilities",
    "transition_probability",
    "two_step_empirical_model",
    "validate",
    "write_csv",
]
