"""Seeded Monte Carlo simulator of a trapped-ion ensemble microwave clock.

The package models an ion cloud probed by Ramsey sequences where only a
fraction of the ensemble is projected per measurement, so the
collective phase survives across cycles and can be tracked coherently
over many free-precession periods. Modules:

* ensemble: Bloch-vector ensemble state, rotations, partial projection
* oscillator: local oscillator with h0 / h-1 / h-2 noise
* sequences: Rabi and Ramsey protocols, phase/frequency estimators
* diffusion: axial Brownian transport and beam overlap statistics
* stability: Allan deviation and instability limit lines
* config, cli: flat key-value run configs and the command harness
"""

from .ensemble import (
    DetectionConfig,
    EmptySampleError,
    EnsembleState,
    MeasurementResult,
    excited_population,
    free_precession,
    initialize_ensemble,
    partial_projection,
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
)
from .sequences import (
    CycleRecord,
    DecoherenceFit,
    DecoherenceModel,
    FitFailureError,
    RabiRecord,
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
