"""Measurement protocols and estimators.

Three protocols are implemented on top of the ensemble primitives:

* ``run_rabi_ppm``: Rabi probing on every block of a batch, either
  re-prepared each point (standard) or accumulated rotations with a
  partial projection after every step.
* ``run_apl_block``: phase tracking on every block of a batch. Each
  ensemble is prepared once; each cycle runs free precession, a pi/2
  readout pulse at 90 degrees, a partial projection, and a 3 pi/2 pulse
  that reverts the unprojected ions, so the accumulated phase survives
  across cycles and the n-th estimate divides its phase by n.
* ``run_standard_ramsey``: the limiting case, a batch of one-cycle
  blocks that read every ion.

The blocks of a batch run back to back on one LO, whose phase
increments for all of them are drawn as one record. The tracking
protocols return a ``CycleTable`` of (blocks, n_cp) arrays, Rabi
probing a (blocks, n_steps + 1) array of estimates: no Python object
per cycle or point.

Phase convention: the tracked angle is the LO phase relative to the
atomic transition, so a positive frequency offset gives a positive
accumulated phase and raises the excited fraction at the 90-degree
readout, estimate = (1 + sin phi)/2. Pulses and readout windows are
treated as instantaneous for the spin dynamics (ideal rotations, no
detuning during the pulse); their wall-clock durations only enter the
cycle timestamps.
"""

import math
import warnings
from dataclasses import dataclass, field, fields, make_dataclass, replace

import numpy as np

from . import diffusion as _diffusion
from .ensemble import (
    DetectionConfig,
    EnsembleState,
    excited_population,
    free_precession,
    partial_projection,
    place_ions,
    reset_to_ground,
    rotate,
)
from .oscillator import LocalOscillatorState, phase_increments

__all__ = [
    "RamseyConfig",
    "CycleTable",
    "DecoherenceModel",
    "DecoherenceFit",
    "SaturationWarning",
    "FitFailureError",
    "run_apl_block",
    "run_standard_ramsey",
    "run_rabi_ppm",
    "estimate_phase",
    "estimate_frequency",
    "predicted_projected_fraction",
    "fit_decoherence",
    "cycle_duration",
]

_HALF_PI = math.pi / 2.0
# The t quantile's series is O(nu); at 1000 dof t_0.975 is within 0.13% of its normal limit
_T_DOF_CAP = 1000


class SaturationWarning(UserWarning):
    """Population estimate near the readout rails; phase inversion degrades."""


class FitFailureError(RuntimeError):
    """Least-squares fit did not converge; carries solver diagnostics."""


def cycle_duration(t_fp, pi2_duration, measurement_duration, dead_time, pi2_pulses=4):
    """Wall-clock length of one cycle.

    Dead time, free precession, ``pi2_pulses`` pi/2-pulse durations and
    the readout window. A tracking cycle spends 4 (the pi/2 readout
    pulse and the 3 pi/2 revert), a standard Ramsey cycle 2.
    """
    return dead_time + t_fp + pi2_pulses * pi2_duration + measurement_duration


@dataclass(frozen=True)
class RamseyConfig:
    """Timing and detection for Ramsey-type sequences.

    n_cp is the number of consecutive partial projections executed on
    one preparation before the ensemble is re-initialized. dead_time is
    extra free evolution per cycle (the relative phase keeps
    accumulating through it). A ``diffusion`` model moves the ions
    between its walls, and each readout then samples the ions that
    cross its detection beam instead of a fraction ``detection.p``.
    """

    t_fp: float = 0.1
    pi2_duration: float = 7.5e-4
    n_cp: int = 3
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    dead_time: float = 0.0
    diffusion: "_diffusion.DiffusionConfig | None" = None

    def __post_init__(self):
        if self.t_fp <= 0:
            raise ValueError("t_fp must be positive")
        if self.n_cp < 1:
            raise ValueError("n_cp must be at least 1")
        if self.pi2_duration < 0 or self.dead_time < 0:
            raise ValueError("durations must be non-negative")

    @property
    def cycle_time(self):
        """Wall-clock length of one phase-tracking cycle."""
        return cycle_duration(
            self.t_fp, self.pi2_duration, self.detection.measurement_duration, self.dead_time
        )

    @property
    def standard_cycle_time(self):
        """Wall-clock length of one standard (two-pulse) Ramsey cycle."""
        return cycle_duration(
            self.t_fp,
            self.pi2_duration,
            self.detection.measurement_duration,
            self.dead_time,
            pi2_pulses=2,
        )

    @property
    def block_time(self):
        """Wall-clock length of one tracking block: opening pi/2 and n_cp cycles."""
        return self.pi2_duration + self.n_cp * self.cycle_time


@dataclass(frozen=True, eq=False, slots=True)
class CycleTable:
    """Every cycle of a phase-tracking batch, one (blocks, n_cp) array per field.

    Element [b, n - 1] is cycle n of block b: its raw ``estimate`` over
    ``n_sampled`` ions, the phase and frequency (1/n divisor) from it,
    and the block's ever-projected fraction just before it. Iterating
    builds the cycles, block by block, as rows of these attributes.
    """

    block: np.ndarray
    n: np.ndarray
    timestamp: np.ndarray
    estimate: np.ndarray
    n_sampled: np.ndarray
    phi_n: np.ndarray
    delta_f_hz: np.ndarray
    projected_before: np.ndarray

    def __len__(self):
        return self.block.size

    def __iter__(self):
        return map(_Cycle, *(getattr(self, f.name).ravel().tolist() for f in fields(self)))


_Cycle = make_dataclass("Cycle", [f.name for f in fields(CycleTable)], eq=False, slots=True)


def _growth(n, p, amplitude):
    """Projected-fraction growth amplitude * (1 - (1-p)^(n-1))."""
    return amplitude * (1.0 - (1.0 - p) ** (n - 1.0))


@dataclass(frozen=True)
class DecoherenceModel:
    """Projected-fraction growth: amplitude * (1 - (1-p)^(n-1))."""

    p: float
    amplitude: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")


@dataclass(frozen=True)
class DecoherenceFit:
    """A decoherence fit; p_stderr and p_ci95 are None for a single block."""

    model: DecoherenceModel
    p_stderr: "float | None"
    p_ci95: "tuple | None"
    residual_norm: float


def estimate_phase(estimate):
    """Invert 90-degree readout estimates into the accumulated phase.

    arcsin(2 * clamp(estimate, 0, 1) - 1), principal branch [-pi/2, +pi/2];
    estimate 0.5 maps to 0 and small positive phases raise the excited
    fraction. No unwrapping is attempted; a SaturationWarning counts
    the raw estimates that sit within 0.05 of either rail.
    """
    est = np.asarray(estimate, dtype=float)
    saturated = np.count_nonzero(np.abs(est - 0.5) > 0.45)
    if saturated:
        msg = f"{saturated} of {est.size} population estimates within 0.05 of a rail"
        warnings.warn(f"{msg}; phase readout unreliable", SaturationWarning, stacklevel=2)
    return np.arcsin(2.0 * np.clip(est, 0.0, 1.0) - 1.0)


def estimate_frequency(phi_n, n, t_fp):
    """Frequency offset in Hz from the phase after n tracked cycles; arrays broadcast."""
    if np.any(np.asarray(n) < 1):
        raise ValueError("n must be at least 1")
    if t_fp <= 0:
        raise ValueError("t_fp must be positive")
    return np.asarray(phi_n) / (2.0 * math.pi * np.asarray(n) * t_fp)


def _transport(state, cfg, duration):
    """Move ion positions by Brownian transport when a model is attached.

    One folded Gaussian step over the whole duration is exact: folding
    onto the cloud sums the free propagator over the wall images, which
    is the transition law of Brownian motion reflected at both ends.
    Only the endpoint is needed, since nothing reads the path before the
    readout.
    """
    if cfg.diffusion is None or duration <= 0:
        return state
    z = _diffusion.step_brownian(
        state.z_pos,
        cfg.diffusion.effective_d(),
        duration,
        state.rng_stream,
        half_length=cfg.diffusion.cloud_length / 2.0,
    )
    return replace(state, z_pos=z)


def _measure(state, cfg):
    """One partial projection; with a diffusion model, of the ions the beam strikes."""
    det = cfg.detection
    if cfg.diffusion is None:
        return partial_projection(state, det)
    z, struck = _diffusion.struck_during(
        state.z_pos, cfg.diffusion, det.measurement_duration, state.rng_stream
    )
    return partial_projection(replace(state, z_pos=z), det, sampled=struck)


def _run_blocks(ensemble: EnsembleState, lo: LocalOscillatorState, cfg: RamseyConfig, period):
    """The CycleTable of cfg.n_cp cycles of each block b of a fresh batch, from b * period."""
    blocks, n_cp = len(ensemble.counts), cfg.n_cp
    n_ions = ensemble.counts.sum(axis=1)
    dt_free = cfg.dead_time + cfg.t_fp
    increments = phase_increments(lo, dt_free, blocks * n_cp).reshape(blocks, n_cp)
    est = np.empty((blocks, n_cp))
    sizes = np.empty((blocks, n_cp), dtype=np.int64)
    proj = np.empty((blocks, n_cp))

    state = ensemble
    if cfg.diffusion is not None:
        state = place_ions(state, cfg.diffusion.cloud_length)
    state = rotate(state, 0.0, _HALF_PI)
    for i in range(n_cp):
        state = _transport(free_precession(state, increments[:, i]), cfg, dt_free)
        state = rotate(state, _HALF_PI, _HALF_PI)
        proj[:, i] = (n_ions - state.counts[:, 0]) / n_ions
        state, m = _measure(state, cfg)
        est[:, i], sizes[:, i] = m.estimate, m.sample_sizes
        if i + 1 < n_cp:
            state = rotate(state, _HALF_PI, 3.0 * _HALF_PI)

    block, n = np.indices(est.shape)
    n += 1  # cycles count from 1
    phi = estimate_phase(est)
    return CycleTable(
        block=block,
        n=n,
        # readout n ends after the opening pi/2 and n cycles, less the
        # 3 pi/2 revert that closes cycle n
        timestamp=block * period + n * cfg.cycle_time - 2.0 * cfg.pi2_duration,
        estimate=est,
        n_sampled=sizes,
        phi_n=phi,
        delta_f_hz=estimate_frequency(phi, n, cfg.t_fp),
        projected_before=proj,
    )


def run_apl_block(ensemble: EnsembleState, lo: LocalOscillatorState, cfg: RamseyConfig):
    """A phase-tracking block of cfg.n_cp cycles on every ensemble of a batch.

    The ensemble batch must be freshly prepared (all ions ground); with
    a diffusion model its ions get their positions here. The blocks run
    back to back on the LO, block b from b * cfg.block_time, and
    the LO's phase increments for all of them are drawn as one record.
    Sequence per block: one pi/2 at phase 0, then per cycle free
    precession over t_fp (plus any dead time), pi/2 at 90 degrees,
    partial projection, 3 pi/2 at 90 degrees to revert the unprojected
    ions. The revert after the last cycle is not applied, since nothing
    reads the state after it, but its duration still counts towards the
    block time.

    Returns a CycleTable whose arrays are (blocks, cfg.n_cp): row b
    holds the cycles of block b, and column n - 1 the n-th cycle, whose
    delta_f_hz uses the 1/n phase divisor. Empty-sample errors from the
    projection propagate to the caller.
    """
    return _run_blocks(ensemble, lo, cfg, cfg.block_time)


def run_standard_ramsey(ensemble: EnsembleState, lo: LocalOscillatorState, cfg: RamseyConfig):
    """One independent Ramsey cycle with destructive readout per block of a batch.

    Each cycle is a one-cycle block on its re-prepared ensemble that
    reads every ion (sampling fraction 1, no transport), started every
    cfg.standard_cycle_time; the table's arrays are (blocks, 1), each
    an n=1 estimate. Technical noise follows cfg.detection.sigma_tech.
    """
    whole = replace(cfg, n_cp=1, detection=replace(cfg.detection, p=1.0), diffusion=None)
    return _run_blocks(reset_to_ground(ensemble), lo, whole, cfg.standard_cycle_time)


def run_rabi_ppm(batch, lo, rotation_step, n_steps, reinitialize, det: DetectionConfig):
    """Rabi probing of every block of a batch, with or without state reuse.

    reinitialize=True re-prepares the ground state before every point k
    and probes with the cumulative pulse area k * rotation_step; the
    readout is the full-cloud mean plus technical noise (the state is
    discarded afterwards, so no collapse is needed and the noiseless
    trace is exact), and the LO is not read. reinitialize=False applies
    one rotation_step per point to the same ensembles and partially
    projects after each step, accumulating measurement back-action; the
    LO keeps precessing during each readout window. The blocks run back
    to back on the LO, and the drift over the n_steps + 1 readout
    windows of all of them is drawn as one record.

    Returns the (blocks, n_steps + 1) array of estimates: row b is block
    b, column k point k, where k = 0 is the unrotated baseline.
    """
    if rotation_step <= 0:
        raise ValueError("rotation_step must be positive")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    state = reset_to_ground(batch)
    shape = (len(state.counts), n_steps + 1)
    est = np.empty(shape)

    if reinitialize:
        for k in range(n_steps + 1):
            est[:, k] = excited_population(rotate(state, 0.0, k * rotation_step))
        if det.sigma_tech > 0:
            est += state.rng_stream.normal(0.0, det.sigma_tech, shape)
        return est

    # LO-atom phase drift across each readout window, zero on resonance and
    # when it has no length; the last window's advances the LO, unread
    drift = np.zeros(shape)
    if det.measurement_duration > 0:
        drift = phase_increments(lo, det.measurement_duration, est.size).reshape(shape)
    for k in range(n_steps + 1):
        if k:
            state = rotate(free_precession(state, drift[:, k - 1]), 0.0, rotation_step)
        state, m = partial_projection(state, det)
        est[:, k] = m.estimate
    return est


def predicted_projected_fraction(model: DecoherenceModel, n):
    """Expected ever-projected fraction before the n-th measurement."""
    n_arr = np.asarray(n)
    if np.any(n_arr < 1):
        raise ValueError("cycle index must be at least 1")
    return _growth(n_arr, model.p, model.amplitude)


def _argmin_1d(f, lo, hi):
    """Minimize the scalar function f on [lo, hi].

    The best point of a 101-point uniform grid brackets the minimum
    between its two neighbours; golden-section search narrows that
    bracket to 1e-13, or stops after 200 steps: above 512, adjacent
    floats lie more than 1e-13 apart.
    """
    grid = np.linspace(lo, hi, 101)
    i = int(np.argmin([f(x) for x in grid]))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(200):
        if b - a <= 1e-13:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = f(d)
    return float(0.5 * (a + b))


def _t_quantile(q, nu):
    """Quantile q > 1/2 of Student's t with integer nu degrees of freedom.

    Bisects theta = atan(t / sqrt(nu)) on the closed-form two-sided
    probability A(t | nu) = 2 F(t) - 1 (Abramowitz & Stegun 26.7.3-4).
    """
    target = 2.0 * q - 1.0

    def two_sided(theta):
        c2 = math.cos(theta) ** 2
        j = nu % 2
        term, total = (math.cos(theta) if j else 1.0), 0.0
        while j <= nu - 2:
            total += term
            term *= (j + 1.0) / (j + 2.0) * c2
            j += 2
        if nu % 2:
            return 2.0 / math.pi * (theta + math.sin(theta) * total)
        return math.sin(theta) * total

    lo, hi = 0.0, _HALF_PI
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return math.sqrt(nu) * math.tan(mid)
        if two_sided(mid) < target:
            lo = mid
        else:
            hi = mid


def fit_decoherence(projected) -> DecoherenceFit:
    """Least-squares fit of amplitude * (1 - (1-p)^(n-1)) to a block table.

    Parameters
    ----------
    projected : (blocks, n_cp) array of the ever-projected fraction
        before cycle n = 1 .. n_cp of each block; n_cp >= 3

    The model is fitted to the column means d. It is linear in the
    amplitude, so for each p the amplitude is the least-squares
    projection max(g.d / g.g, 0) of d on g = 1 - (1-p)^(n-1), and p
    itself is a bounded 1-D search on [0, 1] (variable projection).
    The B blocks are independent, so the variance of p is the sandwich
    (J^T J)^-1 J^T (Cov_rows / B) J (J^T J)^-1 (Huber 1967; White
    1980), J the model Jacobian at the fit: the p row w of
    (J^T J)^-1 J^T gives var(rows . w) / B. The 95% interval takes the
    t quantile on B - 1 degrees of freedom, at most _T_DOF_CAP.
    p_stderr and p_ci95 are None with one block, and where J^T J is
    singular (p = 0 or amplitude 0): there p and the amplitude are not
    separately identified. An all-zero table short-circuits to p = 0.
    A non-finite result raises FitFailureError.
    """
    table = np.asarray(projected, dtype=float)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 3:
        raise ValueError(f"need a (blocks >= 1, n_cp >= 3) table, got shape {table.shape}")
    blocks, n_cp = table.shape
    n = np.arange(1.0, n_cp + 1.0)
    d = table.mean(axis=0)
    if np.allclose(d, 0.0, atol=1e-15):
        return DecoherenceFit(
            model=DecoherenceModel(p=0.0, amplitude=0.0),
            p_stderr=0.0,
            p_ci95=(0.0, 0.0),
            residual_norm=0.0,
        )

    def amplitude(p):
        g = _growth(n, p, 1.0)
        gg = float(g @ g)
        return max(float(g @ d) / gg, 0.0) if gg > 0 else 0.0

    def cost(p):
        resid = d - _growth(n, p, amplitude(p))
        return float(resid @ resid)

    p_hat = _argmin_1d(cost, 0.0, 1.0)
    a_hat = amplitude(p_hat)
    resid = d - _growth(n, p_hat, a_hat)
    if not np.all(np.isfinite(resid)):
        raise FitFailureError(f"decoherence fit gave a non-finite result (p={p_hat}, a={a_hat})")

    # Jacobian columns d/dp and d/da of the model at the optimum; the
    # exponent is clipped at 0 where the factor n - 1 is 0 anyway
    jac = np.column_stack(
        [
            a_hat * (n - 1.0) * (1.0 - p_hat) ** np.maximum(n - 2.0, 0.0),
            _growth(n, p_hat, 1.0),
        ]
    )
    jtj = jac.T @ jac
    det = jtj[0, 0] * jtj[1, 1] - jtj[0, 1] ** 2
    stderr = ci = None
    if blocks > 1 and det > 0:
        w = (jtj[1, 1] * jac[:, 0] - jtj[0, 1] * jac[:, 1]) / det
        stderr = math.sqrt(float(np.var(table @ w, ddof=1)) / blocks)
        tq = _t_quantile(0.975, min(blocks - 1, _T_DOF_CAP))
        ci = (p_hat - tq * stderr, p_hat + tq * stderr)
    return DecoherenceFit(
        model=DecoherenceModel(p=p_hat, amplitude=a_hat),
        p_stderr=stderr,
        p_ci95=ci,
        residual_norm=float(np.linalg.norm(resid)),
    )
