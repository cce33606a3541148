"""Ion ensemble as independent semiclassical Bloch vectors.

Each ion is a unit 3-vector (pure state). z = -1 is the ground state and
z = +1 the excited state. Rotations follow the right-hand rule about the
equatorial axis (cos phi_mw, sin phi_mw, 0), which reproduces the unitary
exp(-i theta sigma_phi / 2) acting on the corresponding spinor: a pi
pulse at phase 0 takes z = -1 to z = +1.

Projection noise emerges from per-ion binomial collapse; aggregate
detection noise is additive Gaussian on the population estimate. Raw
estimates are deliberately not clamped to [0, 1] (clamping would bias
the downstream frequency estimator); use ``estimate_clamped`` where a
valid arcsine argument is required.

All operations are functional: they return a new state and treat the
array fields of existing states as immutable. The random stream handle
is shared between input and output states so draws stay sequential.
"""

from dataclasses import dataclass, replace

import numpy as np

from .rng import as_generator

__all__ = [
    "EnsembleState",
    "DetectionConfig",
    "MeasurementResult",
    "EmptySampleError",
    "initialize_ensemble",
    "reset_to_ground",
    "rotate",
    "free_precession",
    "partial_projection",
    "excited_population",
]

_TWO_PI = 2.0 * np.pi


class EmptySampleError(RuntimeError):
    """Raised when a projection samples zero ions; the estimate is undefined."""


@dataclass(eq=False)
class EnsembleState:
    """Ordered ion collection stored as arrays for vectorized evolution.

    ``bloch`` has shape (n, 3); ``z_pos`` is the axial position in meters,
    confined to [-cloud_length/2, +cloud_length/2]. The ion count is
    constant across all operations (no loss is modeled).
    """

    bloch: np.ndarray
    z_pos: np.ndarray
    ever_projected: np.ndarray
    cloud_length: float
    rng_stream: np.random.Generator

    def __len__(self):
        return self.bloch.shape[0]


@dataclass(frozen=True)
class DetectionConfig:
    """How a population measurement samples the ensemble.

    mode
        "fixed_fraction": each ion is sampled independently with
        probability ``p`` per measurement.
        "beam_overlap": the sampled set is supplied externally from
        diffusion trajectories through the detection beam.
    sigma_tech
        Additive Gaussian noise on the population estimate, in
        population-fraction units. The default 0.1 corresponds to a
        phase readout noise of roughly 0.2 rad at the equator.
    measurement_duration
        Length of the detection window in seconds (beam_overlap mode).
    """

    mode: str = "fixed_fraction"
    p: float = 0.18
    sigma_tech: float = 0.1
    measurement_duration: float = 1e-3

    def __post_init__(self):
        if self.mode not in ("fixed_fraction", "beam_overlap"):
            raise ValueError(f"unknown detection mode {self.mode!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("sampling fraction p must lie in (0, 1]")
        if self.sigma_tech < 0.0:
            raise ValueError("sigma_tech must be non-negative")
        if self.measurement_duration < 0.0:
            raise ValueError("measurement_duration must be non-negative")


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Outcome of one (partial) projection.

    ``estimate`` may exit [0, 1] because of the additive technical noise;
    ``true_fraction`` is the noiseless excited fraction among the sampled
    ions and ``sampled_indices`` records which ions collapsed.
    """

    estimate: float
    n_sampled: int
    true_fraction: float
    sampled_indices: np.ndarray

    @property
    def estimate_clamped(self):
        """Estimate clamped to [0, 1], safe as an arcsine argument."""
        return min(max(self.estimate, 0.0), 1.0)


def initialize_ensemble(n, cloud_length, seed) -> EnsembleState:
    """Fresh ensemble: every ion in the ground state (0, 0, -1).

    Positions are drawn uniformly over [-cloud_length/2, +cloud_length/2].
    ``seed`` may be an integer or an existing Generator; identical seeds
    give bit-identical states.
    """
    n = int(n)
    if n < 1:
        raise ValueError("ensemble size must be at least 1")
    if cloud_length <= 0:
        raise ValueError("cloud_length must be positive")
    rng = as_generator(seed)
    bloch = np.zeros((n, 3))
    bloch[:, 2] = -1.0
    half = cloud_length / 2.0
    return EnsembleState(
        bloch=bloch,
        z_pos=rng.uniform(-half, half, n),
        ever_projected=np.zeros(n, dtype=bool),
        cloud_length=float(cloud_length),
        rng_stream=rng,
    )


def reset_to_ground(state: EnsembleState) -> EnsembleState:
    """Re-prepare every ion in the ground state; positions are kept."""
    bloch = np.zeros_like(state.bloch)
    bloch[:, 2] = -1.0
    return replace(
        state,
        bloch=bloch,
        ever_projected=np.zeros(len(state), dtype=bool),
    )


def rotate(state: EnsembleState, microwave_phase, angle) -> EnsembleState:
    """Rotate every ion about the equatorial axis (cos phi, sin phi, 0).

    Right-hand rule; the angle is taken mod 2*pi. The sign convention is
    fixed so that rotate(phase=0, pi) maps z = -1 to z = +1 and
    rotate(phase=0, pi/2) maps (0, 0, -1) to (0, +1, 0).
    """
    angle = float(angle) % _TWO_PI
    ux = np.cos(microwave_phase)
    uy = np.sin(microwave_phase)
    c = np.cos(angle)
    s = np.sin(angle)
    b = state.bloch
    # Rodrigues: v' = v c + (u x v) s + u (u . v)(1 - c) with u = (ux, uy, 0)
    dot = b[:, 0] * ux + b[:, 1] * uy
    out = np.empty_like(b)
    out[:, 0] = b[:, 0] * c + uy * b[:, 2] * s + ux * dot * (1.0 - c)
    out[:, 1] = b[:, 1] * c - ux * b[:, 2] * s + uy * dot * (1.0 - c)
    out[:, 2] = b[:, 2] * c + (ux * b[:, 1] - uy * b[:, 0]) * s
    return replace(state, bloch=out)


def free_precession(state: EnsembleState, phase_increment) -> EnsembleState:
    """Rotate every ion about z by the accumulated phase increment.

    z components are untouched; the increment normally comes from
    ``oscillator.advance`` and is common to all ions.
    """
    c = np.cos(phase_increment)
    s = np.sin(phase_increment)
    b = state.bloch
    out = np.empty_like(b)
    out[:, 0] = b[:, 0] * c - b[:, 1] * s
    out[:, 1] = b[:, 0] * s + b[:, 1] * c
    out[:, 2] = b[:, 2]
    return replace(state, bloch=out)


def partial_projection(state, det: DetectionConfig, sampled=None):
    """Collapse a subset of ions and read out their excited fraction.

    In fixed_fraction mode the subset is drawn here, each ion picked
    independently with probability ``det.p``. An explicit ``sampled``
    index list overrides the draw and is mandatory in beam_overlap mode,
    where it comes from diffusion trajectories.

    Each sampled ion collapses to z = +1 with probability (1 + z)/2 and
    to z = -1 otherwise, losing its transverse components. Unsampled
    ions are untouched.

    Returns (new_state, MeasurementResult). Raises EmptySampleError when
    zero ions are sampled; the caller decides the retry policy.
    """
    rng = state.rng_stream
    if sampled is None:
        if det.mode == "beam_overlap":
            raise ValueError(
                "beam_overlap mode needs the struck index set from the "
                "diffusion model; none was supplied"
            )
        mask = rng.random(len(state)) < det.p
        idx = np.flatnonzero(mask)
    else:
        idx = np.asarray(sampled, dtype=np.intp)
    if idx.size == 0:
        raise EmptySampleError("no ions sampled; population estimate undefined")

    z = state.bloch[idx, 2]
    excited = rng.random(idx.size) < (1.0 + z) / 2.0
    bloch = state.bloch.copy()
    bloch[idx, 0] = 0.0
    bloch[idx, 1] = 0.0
    bloch[idx, 2] = np.where(excited, 1.0, -1.0)
    flags = state.ever_projected.copy()
    flags[idx] = True

    true_fraction = float(excited.mean())
    estimate = true_fraction
    if det.sigma_tech > 0.0:
        estimate += rng.normal(0.0, det.sigma_tech)

    new_state = replace(state, bloch=bloch, ever_projected=flags)
    result = MeasurementResult(
        estimate=float(estimate),
        n_sampled=int(idx.size),
        true_fraction=true_fraction,
        sampled_indices=idx,
    )
    return new_state, result


def excited_population(state: EnsembleState) -> float:
    """Mean excited fraction (1 + z)/2 over the whole ensemble."""
    return float(np.mean((1.0 + state.bloch[:, 2]) / 2.0))
