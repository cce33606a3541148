"""Measurement protocols and estimators.

Three protocols are implemented on top of the ensemble primitives:

* ``run_rabi_ppm``: Rabi probing, either re-prepared each point
  (standard) or accumulated rotations with a partial projection after
  every step.
* ``run_apl_block``: phase tracking. The ensemble is prepared once;
  each cycle runs free precession, a pi/2 readout pulse at 90 degrees,
  a partial projection, and a 3 pi/2 pulse that reverts the unprojected
  ions, so the accumulated phase survives across cycles and the n-th
  estimate divides its phase by n.
* ``run_standard_ramsey``: the limiting case, a one-cycle block that
  reads every ion, re-initialized once per cycle.

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
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffusion as _diffusion
from .ensemble import (
    DetectionConfig,
    EnsembleState,
    MeasurementResult,
    excited_population,
    free_precession,
    partial_projection,
    reset_to_ground,
    rotate,
)
from .oscillator import LocalOscillatorState, advance

__all__ = [
    "RamseyConfig",
    "CycleRecord",
    "RabiRecord",
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
    one preparation before the ensemble is re-initialized; n_cycles is
    the total cycle budget of a run. dead_time is extra free evolution
    per cycle (the relative phase keeps accumulating through it).
    """

    t_fp: float = 0.1
    pi2_duration: float = 7.5e-4
    n_cp: int = 3
    detection: DetectionConfig = field(default_factory=DetectionConfig)
    n_cycles: int = 100
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


@dataclass(frozen=True, eq=False)
class CycleRecord:
    """Per-cycle outcome inside one phase-tracking block.

    ``estimate`` is the raw readout of this cycle's measurement over its
    ``n_sampled`` ions; ``projected_before`` is the ever-projected
    fraction of the ensemble just before it (diagnostic, not emitted in
    the cycle CSV).
    """

    n: int
    timestamp: float
    estimate: float
    n_sampled: int
    phi_n: float
    delta_f_hz: float
    projected_before: float


@dataclass(frozen=True)
class RabiRecord:
    step: int
    estimate: float
    n_sampled: int = 0


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
    """A decoherence fit; p_stderr and p_ci95 are None when no residual dof is left."""

    model: DecoherenceModel
    p_stderr: "float | None"
    p_ci95: "tuple | None"
    residual_norm: float


def estimate_phase(m: MeasurementResult) -> float:
    """Invert a 90-degree readout into the accumulated phase.

    arcsin(2 * clamp(estimate) - 1), principal branch [-pi/2, +pi/2];
    estimate 0.5 maps to 0 and small positive phases raise the excited
    fraction. No unwrapping is attempted; a SaturationWarning is issued
    when the raw estimate sits within 0.05 of either rail.
    """
    if abs(m.estimate - 0.5) > 0.45:
        warnings.warn(
            "population estimate near saturation, phase readout unreliable",
            SaturationWarning,
            stacklevel=2,
        )
    return float(math.asin(2.0 * m.estimate_clamped - 1.0))


def estimate_frequency(phi_n, n, t_fp) -> float:
    """Frequency offset in Hz from the phase after n tracked cycles."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if t_fp <= 0:
        raise ValueError("t_fp must be positive")
    return float(phi_n / (2.0 * math.pi * n * t_fp))


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
        half_length=state.cloud_length / 2.0,
    )
    return replace(state, z_pos=z)


def _measure(state, cfg):
    """One partial projection, resolving the sampled set per mode."""
    det = cfg.detection
    if det.mode == "beam_overlap":
        if cfg.diffusion is None:
            raise ValueError("beam_overlap detection needs a diffusion config")
        z, struck = _diffusion.struck_during(
            state.z_pos, cfg.diffusion, det.measurement_duration, state.rng_stream
        )
        state = replace(state, z_pos=z)
        return partial_projection(state, det, sampled=np.flatnonzero(struck))
    return partial_projection(state, det)


def run_apl_block(ensemble: EnsembleState, lo: LocalOscillatorState, cfg: RamseyConfig, t0=0.0):
    """One phase-tracking block of cfg.n_cp cycles on a fresh ensemble.

    The ensemble must be initialized (all ions ground). Sequence: one
    pi/2 at phase 0, then per cycle free precession over t_fp (plus any
    dead time), pi/2 at 90 degrees, partial projection, 3 pi/2 at 90
    degrees to revert the unprojected ions. The revert after the last
    cycle is not applied, since nothing reads the state after it, but
    its duration still counts towards the block time.

    Returns the list of CycleRecord, one per cycle; the n-th record's
    delta_f_hz uses the 1/n phase divisor. Empty-sample errors from the
    projection propagate to the caller.
    """
    state = rotate(ensemble, 0.0, _HALF_PI)
    t = t0 + cfg.pi2_duration
    records = []
    for n in range(1, cfg.n_cp + 1):
        dt_free = cfg.dead_time + cfg.t_fp
        state = free_precession(state, advance(lo, dt_free))
        state = _transport(state, cfg, dt_free)
        t += dt_free
        state = rotate(state, _HALF_PI, _HALF_PI)
        t += cfg.pi2_duration
        projected_before = float(state.ever_projected.mean())
        state, m = _measure(state, cfg)
        t += cfg.detection.measurement_duration
        phi = estimate_phase(m)
        records.append(
            CycleRecord(
                n=n,
                timestamp=t,
                estimate=m.estimate,
                n_sampled=m.n_sampled,
                phi_n=phi,
                delta_f_hz=estimate_frequency(phi, n, cfg.t_fp),
                projected_before=projected_before,
            )
        )
        if n < cfg.n_cp:
            state = rotate(state, _HALF_PI, 3.0 * _HALF_PI)
        t += 3.0 * cfg.pi2_duration
    return records


def run_standard_ramsey(ensemble: EnsembleState, lo: LocalOscillatorState, cfg: RamseyConfig):
    """cfg.n_cycles independent Ramsey cycles with destructive readout.

    Each cycle is a one-cycle block on a re-initialized ensemble that
    reads every ion (sampling fraction 1, no transport), started every
    cfg.standard_cycle_time; each record is an n=1 estimate. Technical
    noise follows cfg.detection.sigma_tech.
    """
    det = replace(cfg.detection, mode="fixed_fraction", p=1.0)
    whole = replace(cfg, n_cp=1, detection=det, diffusion=None)
    return [
        run_apl_block(reset_to_ground(ensemble), lo, whole, t0=i * cfg.standard_cycle_time)[0]
        for i in range(cfg.n_cycles)
    ]


def run_rabi_ppm(ensemble, lo, rotation_step, n_steps, reinitialize, det: DetectionConfig):
    """Rabi probing with or without state reuse.

    reinitialize=True re-prepares the ground state before every point k
    and probes with the cumulative pulse area k * rotation_step; the
    readout is the full-cloud mean plus technical noise (the state is
    discarded afterwards, so no per-ion collapse is needed and the
    noiseless trace is exact). reinitialize=False applies one
    rotation_step per point to the same ensemble and partially projects
    after each step, accumulating measurement back-action; the LO keeps
    precessing during each readout window.

    Records run k = 0 .. n_steps, where k = 0 is the unrotated baseline.
    """
    if rotation_step <= 0:
        raise ValueError("rotation_step must be positive")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")

    records = []
    state = reset_to_ground(ensemble)
    rng = state.rng_stream

    if reinitialize:
        for k in range(n_steps + 1):
            state = reset_to_ground(state)
            if k:
                state = rotate(state, 0.0, k * rotation_step)
            est = excited_population(state)
            if det.sigma_tech > 0:
                est += rng.normal(0.0, det.sigma_tech)
            records.append(RabiRecord(step=k, estimate=float(est), n_sampled=len(state)))
        return records

    for k in range(n_steps + 1):
        if k:
            state = rotate(state, 0.0, rotation_step)
        state, m = partial_projection(state, det)
        records.append(RabiRecord(step=k, estimate=m.estimate, n_sampled=m.n_sampled))
        # LO-atom phase drift across the readout window; zero on resonance
        state = free_precession(state, advance(lo, det.measurement_duration))
    return records


def predicted_projected_fraction(model: DecoherenceModel, n):
    """Expected ever-projected fraction before the n-th measurement."""
    n_arr = np.asarray(n)
    if np.any(n_arr < 1):
        raise ValueError("cycle index must be at least 1")
    out = _growth(n_arr, model.p, model.amplitude)
    if np.isscalar(n) or n_arr.ndim == 0:
        return float(out)
    return out


def _argmin_1d(f, lo, hi):
    """Minimize the scalar function f on [lo, hi].

    The best point of a 101-point uniform grid brackets the minimum
    between its two neighbours; golden-section search narrows that
    bracket to 1e-13.
    """
    grid = np.linspace(lo, hi, 101)
    i = int(np.argmin([f(x) for x in grid]))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-13:
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


def fit_decoherence(cycles, deviations) -> DecoherenceFit:
    """Least-squares fit of amplitude * (1 - (1-p)^(n-1)).

    Parameters
    ----------
    cycles : array-like of cycle indices (n >= 1)
    deviations : array-like of per-cycle deviations to fit

    The model is linear in the amplitude, so for each p the amplitude
    is the least-squares projection max(g.d / g.g, 0) of the data on
    g = 1 - (1-p)^(n-1), and p itself is a bounded 1-D search on [0, 1]
    (variable projection). Returns the fitted model with the standard
    error of p from s^2 (J^T J)^-1 and its 95% confidence interval (t
    quantile), and the residual norm. The n = 1 point is 0 for every
    model, so s^2 and the residual dof count only the n > 1 points
    (dof = their number minus 2);
    with no dof left (3 cycles) p_stderr and p_ci95 are None. An
    all-zero series short-circuits to p = 0. A non-finite result raises
    FitFailureError.
    """
    n = np.asarray(cycles, dtype=float)
    d = np.asarray(deviations, dtype=float)
    if n.size < 3:
        raise ValueError("need at least 3 points to fit")
    if n.size != d.size:
        raise ValueError("cycles and deviations must have equal length")
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

    stderr = ci = None
    dof = int(np.count_nonzero(n > 1)) - 2
    if dof >= 1:
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
        r = resid[n > 1]
        p_var = float(r @ r) / dof * jtj[1, 1] / det if det > 0 else math.inf
        stderr = math.sqrt(p_var)
        tq = _t_quantile(0.975, dof)
        ci = (p_hat - tq * stderr, p_hat + tq * stderr)
    return DecoherenceFit(
        model=DecoherenceModel(p=p_hat, amplitude=a_hat),
        p_stderr=stderr,
        p_ci95=ci,
        residual_norm=float(np.linalg.norm(resid)),
    )
