"""Batches of ion ensembles as semiclassical Bloch vectors, stored by class.

Each ion is a unit 3-vector (pure state). z = -1 is the ground state and
z = +1 the excited state. Rotations follow the right-hand rule about the
equatorial axis (cos phi_mw, sin phi_mw, 0), which reproduces the unitary
exp(-i theta sigma_phi / 2) acting on the corresponding spinor: a pi
pulse at phase 0 takes z = -1 to z = +1.

An ``EnsembleState`` is a batch of B independent ensembles (blocks) of
N ions each. Every operation except projection is global, so ions that
share a state keep sharing it: a block stores one row per class of
ions that share a Bloch vector, with the number of ions in each class.
Pulses and free precession touch only those rows; both are one
Rodrigues rotation of the whole batch, a pulse about an equatorial
axis, free precession about z by a per-block increment.

Without per-ion data the ions of a class are exchangeable, so a
fixed-fraction readout draws how many of each class are sampled and how
many of those collapse to the excited state, two binomial draws for the
whole batch. A beam readout samples the ions the beam strikes, so a
batch that ``place_ions`` gave axial positions also keeps a class label
per ion, and its projection draws one collapse per sampled ion.
Aggregate detection noise is additive Gaussian on each block's
population estimate. Raw estimates are deliberately not clamped to
[0, 1] (clamping would bias the downstream frequency estimator);
``sequences.estimate_phase`` clamps where a valid arcsine argument is
required.

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
    "place_ions",
    "reset_to_ground",
    "rotate",
    "free_precession",
    "partial_projection",
    "excited_population",
]

_TWO_PI = 2.0 * math.pi
_GROUND = (0.0, 0.0, -1.0)
_COLLAPSED = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])


class EmptySampleError(RuntimeError):
    """Raised when a projection samples zero ions of a block; its estimate is undefined."""


@dataclass(eq=False)
class EnsembleState:
    """B blocks of N ions: a class table per block and the ion count of each class.

    Block b holds ``counts[b, c]`` ions in the state ``classes[b, c]``.
    Column 0 holds the ions not projected since the last reset; each
    projection appends two columns, the collapsed rows (0, 0, +1) and
    (0, 0, -1). Only a batch that ``place_ions`` gave positions carries
    per-ion data: ``z_pos`` (B, N), the axial position in meters, and
    ``label`` (B, N), the class of each ion. The ion count is constant
    across all operations (no loss is modeled).
    """

    classes: np.ndarray
    counts: np.ndarray
    rng_stream: np.random.Generator
    z_pos: "np.ndarray | None" = None
    label: "np.ndarray | None" = None

    def __len__(self):
        """Ions in the whole batch."""
        return int(self.counts.sum())


@dataclass(frozen=True)
class DetectionConfig:
    """How a population measurement samples the ensemble.

    p
        Probability that each ion is sampled, independently, when no
        sample is given to ``partial_projection``.
    sigma_tech
        Additive Gaussian noise on the population estimate, in
        population-fraction units. The default 0.1 corresponds to a
        phase readout noise of roughly 0.2 rad at the equator.
    measurement_duration
        Length of the detection window in seconds; it also sets the
        cycle timing.
    """

    p: float = 0.18
    sigma_tech: float = 0.1
    measurement_duration: float = 1e-3

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("sampling fraction p must lie in (0, 1]")
        if self.sigma_tech < 0.0:
            raise ValueError("sigma_tech must be non-negative")
        if self.measurement_duration < 0.0:
            raise ValueError("measurement_duration must be non-negative")


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    """Outcome of one (partial) projection of every block of a batch.

    ``estimate`` (B,) is each block's excited fraction of its sample plus
    technical noise, so it may exit [0, 1]; ``sample_sizes`` (B,) counts
    each block's sampled ions. ``sampled_indices`` holds the flat
    (block-major) indices of the ions of a given sample, and is empty
    for a fixed-fraction readout, which draws counts, not ions.
    """

    estimate: np.ndarray
    sample_sizes: np.ndarray
    sampled_indices: np.ndarray

    @property
    def n_sampled(self) -> int:
        """Sampled ions over the whole batch."""
        return int(self.sample_sizes.sum())


def initialize_ensemble(n, seed, blocks=1) -> EnsembleState:
    """``blocks`` fresh ensembles of n ions each, every ion in the ground state (0, 0, -1).

    ``seed`` may be an integer or an existing Generator; it becomes the
    stream of every later draw on the batch, so identical seeds give
    identical runs. No positions are drawn: only a beam run needs them
    (``place_ions``).
    """
    n, blocks = int(n), int(blocks)
    if n < 1:
        raise ValueError("ensemble size must be at least 1")
    if blocks < 1:
        raise ValueError("a batch holds at least one block")
    return EnsembleState(
        classes=np.tile(_GROUND, (blocks, 1, 1)),
        counts=np.full((blocks, 1), n, dtype=np.int64),
        rng_stream=as_generator(seed),
    )


def place_ions(state: EnsembleState, cloud_length) -> EnsembleState:
    """Give every ion of a freshly prepared batch a position and a class label.

    Positions are drawn uniformly over [-cloud_length/2, +cloud_length/2]
    from the batch's stream; every label is 0, the one class of a fresh
    batch.
    """
    if cloud_length <= 0:
        raise ValueError("cloud_length must be positive")
    if state.classes.shape[1] != 1:
        raise ValueError("only a freshly prepared batch (one class) can be placed")
    shape = (len(state.counts), int(state.counts[0, 0]))
    half = cloud_length / 2.0
    return replace(
        state,
        z_pos=state.rng_stream.uniform(-half, half, shape),
        label=np.zeros(shape, dtype=np.intp),
    )


def reset_to_ground(state: EnsembleState) -> EnsembleState:
    """Re-prepare every ion in the ground state; positions are kept."""
    blocks = len(state.counts)
    return replace(
        state,
        classes=np.tile(_GROUND, (blocks, 1, 1)),
        counts=state.counts.sum(axis=1, keepdims=True),
        label=None if state.label is None else np.zeros_like(state.label),
    )


def _turn(state: EnsembleState, ux, uy, uz, angle) -> EnsembleState:
    """Rotate every class row about the unit axis (ux, uy, uz).

    ``angle`` is one angle for the whole batch or one per block.
    Rodrigues matrix u u^T + c (I - u u^T) + s [u]x, right-hand rule;
    the diagonal u_i^2 + c (1 - u_i^2) is exactly 1 on the axis, so a
    turn about z leaves z untouched.
    """
    angle = np.asarray(angle, dtype=float).reshape(-1, 1)
    c, s = np.cos(angle), np.sin(angle)
    t = 1.0 - c
    r = (
        (ux * ux + c * (1.0 - ux * ux), t * ux * uy - s * uz, t * ux * uz + s * uy),
        (t * uy * ux + s * uz, uy * uy + c * (1.0 - uy * uy), t * uy * uz - s * ux),
        (t * uz * ux - s * uy, t * uz * uy + s * ux, uz * uz + c * (1.0 - uz * uz)),
    )
    x, y, z = np.moveaxis(state.classes, 2, 0)
    # elementwise products and sums, not a matrix product: BLAS may round a
    # row differently depending on how many rows the array holds, and the
    # bits of a class row must not depend on the size of the batch
    return replace(state, classes=np.stack([x * rx + y * ry + z * rz for rx, ry, rz in r], axis=2))


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

    z components are untouched. The increment is one value for the whole
    batch or one per block, as ``oscillator.phase_increments`` returns
    them.
    """
    return _turn(state, 0.0, 0.0, 1.0, phase_increment)


def partial_projection(state, det: DetectionConfig, sampled=None):
    """Collapse a sample of each block's ions and read out its excited fraction.

    Without ``sampled``, each ion is sampled independently with
    probability ``det.p``: per class, s ~ Binomial(count, p) ions are
    sampled (all of them, without a draw, at p = 1) and
    e ~ Binomial(s, (1 + z)/2) of those collapse to z = +1, the rest to
    z = -1. ``sampled`` is a (B, N) boolean mask of the ions to read (the
    ions a detection beam struck, say) and needs a batch with per-ion
    labels; each of those ions then collapses on its own draw. Sampled
    ions move to the two appended collapsed rows and lose their
    transverse components; the others are untouched.

    Returns (new_state, MeasurementResult). Raises EmptySampleError when
    a block samples zero ions; the caller decides the retry policy.
    """
    if (sampled is None) != (state.label is None):
        raise ValueError("ions with labels are read by a sample mask, a count table by det.p")
    rng = state.rng_stream
    blocks, k = state.counts.shape
    label = state.label
    if sampled is None:
        s = state.counts if det.p == 1.0 else rng.binomial(state.counts, det.p)
        q = np.clip((1.0 + state.classes[:, :, 2]) / 2.0, 0.0, 1.0)
        excited = rng.binomial(s, q).sum(axis=1)
        indices = np.empty(0, dtype=np.intp)
    else:
        mask = np.asarray(sampled, dtype=bool)
        if mask.shape != label.shape:
            raise ValueError(f"sample mask of shape {mask.shape} for {label.shape} ions")
        block, ion = np.nonzero(mask)
        cls = label[block, ion]
        hit = rng.random(block.size) < (1.0 + state.classes[block, cls, 2]) / 2.0
        s = np.bincount(block * k + cls, minlength=blocks * k).reshape(blocks, k)
        excited = np.bincount(block[hit], minlength=blocks)
        label = label.copy()
        label[block, ion] = np.where(hit, k, k + 1)
        indices = np.flatnonzero(mask)
    sizes = s.sum(axis=1)
    if not sizes.all():
        raise EmptySampleError("no ions sampled; population estimate undefined")

    estimate = excited / sizes
    if det.sigma_tech > 0.0:
        estimate = estimate + rng.normal(0.0, det.sigma_tech, blocks)
    new = replace(
        state,
        classes=np.concatenate((state.classes, np.broadcast_to(_COLLAPSED, (blocks, 2, 3))), axis=1),
        counts=np.column_stack((state.counts - s, excited, sizes - excited)),
        label=label,
    )
    return new, MeasurementResult(estimate=estimate, sample_sizes=sizes, sampled_indices=indices)


def excited_population(state: EnsembleState) -> np.ndarray:
    """Mean excited fraction (1 + z)/2 over each block, shape (B,)."""
    return np.average((1.0 + state.classes[:, :, 2]) / 2.0, axis=1, weights=state.counts)
