"""Seeded Monte Carlo simulator of a trapped-ion ensemble microwave clock.

The package models an ion cloud probed by Ramsey sequences where only a
fraction of the ensemble is projected per measurement, so the
collective phase survives across cycles and can be tracked coherently
over many free-precession periods. Modules:

* ensemble: batches of Bloch-vector ensembles, rotations, partial projection
* oscillator: local oscillator with h0 / h-1 / h-2 noise
* sequences: Rabi and Ramsey protocols, phase/frequency estimators
* diffusion: axial Brownian transport and beam overlap statistics
* stability: Allan deviation and instability limit lines
* config, cli: flat key-value run configs and the command harness
"""

import os as _os
import sys as _sys

# numpy's OpenBLAS starts worker threads at load that busy-wait, and the
# only BLAS calls here are on matrices of a few rows. Load numpy with
# one BLAS thread unless the user set a count or loaded numpy first,
# then leave the environment as the user had it, so subprocesses are
# unaffected.
if "OPENBLAS_NUM_THREADS" not in _os.environ and "numpy" not in _sys.modules:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as _numpy  # noqa: F401
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from .ensemble import (
    DetectionConfig,
    EmptySampleError,
    EnsembleState,
    MeasurementResult,
    excited_population,
    free_precession,
    initialize_ensemble,
    partial_projection,
    place_ions,
    reset_to_ground,
    rotate,
)
from .oscillator import (
    PRESETS,
    LocalOscillatorState,
    NoiseSpec,
    advance,
    generate_y_series,
    make_local_oscillator,
    phase_increments,
)
from .sequences import (
    CycleTable,
    DecoherenceFit,
    DecoherenceModel,
    FitFailureError,
    RamseyConfig,
    SaturationWarning,
    estimate_frequency,
    estimate_phase,
    fit_decoherence,
    predicted_projected_fraction,
    run_apl_block,
    run_rabi_ppm,
    run_standard_ramsey,
)
from .diffusion import (
    BEAM_HALF_WIDTH,
    DiffusionConfig,
    diffusion_constant,
    fraction_struck,
    step_brownian,
    struck_during,
)
from .stability import (
    AllanPoint,
    BoundViolationWarning,
    FractionalFrequencySeries,
    InsufficientDataError,
    StabilityParams,
    allan_deviation,
    confidence_interval,
    default_taus,
    limit_apl,
    limit_apl_repetition,
    limit_technical,
    qpn_snr,
)
from .config import ConfigError, RunConfig, config_hash, parse_config_file, resolve
from .rng import substream

__version__ = "0.1.0"
