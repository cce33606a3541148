"""Ion ensemble as semiclassical Bloch vectors, stored by class.

Each ion is a unit 3-vector (pure state). z = -1 is the ground state and
z = +1 the excited state. Rotations follow the right-hand rule about the
equatorial axis (cos phi_mw, sin phi_mw, 0), which reproduces the unitary
exp(-i theta sigma_phi / 2) acting on the corresponding spinor: a pi
pulse at phase 0 takes z = -1 to z = +1.

Every operation except projection is global, so ions that share a
state keep sharing it: ``EnsembleState`` stores one row per distinct
Bloch vector, and pulses and free precession touch only those rows.
Both are one Rodrigues rotation: a pulse turns the rows about an
equatorial axis, free precession about z.

Projection noise emerges from per-ion binomial collapse; aggregate
detection noise is additive Gaussian on the population estimate. Raw
estimates are deliberately not clamped to [0, 1] (clamping would bias
the downstream frequency estimator); use ``estimate_clamped`` where a
valid arcsine argument is required.

All operations are functional: they return a new state and treat the
array fields of existing states as immutable. The random stream handle
is shared between input and output states so draws stay sequential.
"""

import math
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

_TWO_PI = 2.0 * math.pi
_GROUND = np.array([[0.0, 0.0, -1.0]])


class EmptySampleError(RuntimeError):
    """Raised when a projection samples zero ions; the estimate is undefined."""


@dataclass(eq=False)
class EnsembleState:
    """Ordered ion collection: a table of distinct Bloch vectors and a row per ion.

    Ion i is in state ``classes[label[i]]``. Row 0 is the class not
    projected since the last reset; each projection appends the collapsed
    rows (0, 0, +1) and (0, 0, -1), and once the table outgrows the ion
    count the rows no ion holds are dropped. ``z_pos`` is the axial
    position in meters, confined to [-cloud_length/2, +cloud_length/2].
    The ion count is constant across all operations (no loss is modeled).
    """

    classes: np.ndarray
    label: np.ndarray
    z_pos: np.ndarray
    cloud_length: float
    rng_stream: np.random.Generator

    def __len__(self):
        return self.label.shape[0]

    @property
    def bloch(self):
        """Per-ion Bloch vectors, shape (n, 3), derived from the table."""
        return self.classes[self.label]

    @property
    def ever_projected(self):
        """Per-ion flag: projected at least once since the last reset."""
        return self.label != 0


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
    ``sampled_indices`` records which ions collapsed.
    """

    estimate: float
    n_sampled: int
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
    half = cloud_length / 2.0
    return EnsembleState(
        classes=_GROUND,
        label=np.zeros(n, dtype=np.intp),
        z_pos=rng.uniform(-half, half, n),
        cloud_length=float(cloud_length),
        rng_stream=rng,
    )


def reset_to_ground(state: EnsembleState) -> EnsembleState:
    """Re-prepare every ion in the ground state; positions are kept."""
    return replace(state, classes=_GROUND, label=np.zeros(len(state), dtype=np.intp))


def _turn(state: EnsembleState, ux, uy, uz, angle) -> EnsembleState:
    """Rotate every class row by ``angle`` about the unit axis (ux, uy, uz).

    Rodrigues matrix u u^T + c (I - u u^T) + s [u]x, right-hand rule;
    the diagonal u_i^2 + c (1 - u_i^2) is exactly 1 on the axis, so a
    turn about z leaves z untouched.
    """
    c, s = math.cos(angle), math.sin(angle)
    t = 1.0 - c
    r = np.array(
        [
            [ux * ux + c * (1.0 - ux * ux), t * ux * uy - s * uz, t * ux * uz + s * uy],
            [t * uy * ux + s * uz, uy * uy + c * (1.0 - uy * uy), t * uy * uz - s * ux],
            [t * uz * ux - s * uy, t * uz * uy + s * ux, uz * uz + c * (1.0 - uz * uz)],
        ]
    )
    # elementwise products and a sum, not a matrix product: BLAS may round a
    # row differently depending on how many rows the array holds, and the
    # bits of an ion's vector must not depend on the size of the table
    return replace(state, classes=(state.classes[:, None, :] * r).sum(axis=2))


def rotate(state: EnsembleState, microwave_phase, angle) -> EnsembleState:
    """Rotate every ion about the equatorial axis (cos phi, sin phi, 0).

    Right-hand rule; the angle is taken mod 2*pi. The sign convention is
    fixed so that rotate(phase=0, pi) maps z = -1 to z = +1 and
    rotate(phase=0, pi/2) maps (0, 0, -1) to (0, +1, 0).
    """
    phi = float(microwave_phase)
    return _turn(state, math.cos(phi), math.sin(phi), 0.0, float(angle) % _TWO_PI)


def free_precession(state: EnsembleState, phase_increment) -> EnsembleState:
    """Rotate every ion about z by the accumulated phase increment.

    z components are untouched; the increment normally comes from
    ``oscillator.advance`` and is common to all ions.
    """
    return _turn(state, 0.0, 0.0, 1.0, float(phase_increment))


def partial_projection(state, det: DetectionConfig, sampled=None):
    """Collapse a subset of ions and read out their excited fraction.

    In fixed_fraction mode the subset is drawn here, each ion picked
    independently with probability ``det.p``; at p = 1 every ion is
    taken without a draw. An explicit ``sampled`` index list overrides
    the draw and is mandatory in beam_overlap mode, where it comes from
    diffusion trajectories.

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
        if det.p == 1.0:
            idx = np.arange(len(state))  # every draw would lie below 1
        else:
            idx = np.flatnonzero(rng.random(len(state)) < det.p)
    else:
        idx = np.asarray(sampled, dtype=np.intp)
    if idx.size == 0:
        raise EmptySampleError("no ions sampled; population estimate undefined")

    z = state.classes[state.label[idx], 2]
    excited = rng.random(idx.size) < (1.0 + z) / 2.0
    k = len(state.classes)
    classes = np.concatenate((state.classes, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    label = state.label.copy()
    label[idx] = np.where(excited, k, k + 1)
    if len(classes) > len(label):
        keep = np.union1d([0], label)  # drop the rows no ion holds; row 0 always stays
        classes, label = classes[keep], np.searchsorted(keep, label)

    estimate = float(excited.mean())
    if det.sigma_tech > 0.0:
        estimate += rng.normal(0.0, det.sigma_tech)

    result = MeasurementResult(estimate=float(estimate), n_sampled=int(idx.size), sampled_indices=idx)
    return replace(state, classes=classes, label=label), result


def excited_population(state: EnsembleState) -> float:
    """Mean excited fraction (1 + z)/2 over the whole ensemble."""
    return float(np.mean((1.0 + state.classes[state.label, 2]) / 2.0))
