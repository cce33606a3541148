"""Measurement protocols, estimators and curve fits.

Each protocol is a list of steps that one loop runs on a batch of
ensembles, one block per ensemble, the blocks back to back on one LO.
A step is a pulse (microwave phase, angle), a free precession by the
next column of the caller's (blocks, free steps) LO record, or a
readout (a partial projection). Steps after the last readout are not
applied, since nothing reads the state after them.

* ``run_apl_block``, phase tracking: [pi/2 at 0] + [free, pi/2 at 90
  degrees, read, 3 pi/2 at 90 degrees] x n_cp. The 3 pi/2 pulse reverts
  the unprojected ions, so the accumulated phase survives across
  cycles and the n-th estimate divides its phase by n.
* ``run_standard_ramsey``: the same list with n_cp = 1, on one-cycle
  blocks that read every ion.
* ``run_rabi_ppm``, accumulated mode: [read] + [free, rotation_step at
  0, read] x n_steps + [free]. Its re-initialized mode is analytic.

Phase convention: the tracked angle is the LO phase relative to the
atomic transition, so a positive frequency offset gives a positive
accumulated phase and raises the excited fraction at the 90-degree
readout, estimate = (1 + sin phi)/2. Pulses and readout windows are
treated as instantaneous for the spin dynamics (ideal rotations, no
detuning during the pulse); their wall-clock durations only enter the
cycle timestamps.

Both curve fits, ``fit_decoherence`` and ``fit_probe_curve``, are
variable projections (Golub & Pereyra 1973): ``_profile_fit`` searches
the one nonlinear parameter, solving the linear ones exactly at each.
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

__all__ = [
    "RamseyConfig",
    "CycleTable",
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
    "fit_probe_curve",
]

_HALF_PI = math.pi / 2.0
_FREE, _READ = "free", "read"  # the step-list markers of a free precession and a readout
# The t quantile's series is O(nu); at 1000 dof t_0.975 is within 0.13% of its normal limit
_T_DOF_CAP = 1000


class SaturationWarning(UserWarning):
    """Population estimate near the readout rails; phase inversion degrades."""


class FitFailureError(RuntimeError):
    """Least-squares fit did not converge; carries solver diagnostics."""


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
    def free_time(self):
        """Free evolution per cycle, dead time and free precession: the interval of each LO increment."""
        return self.dead_time + self.t_fp

    @property
    def cycle_time(self):
        """Wall-clock length of one phase-tracking cycle.

        Dead time, free precession, four pi/2-pulse durations (the pi/2
        readout pulse and the 3 pi/2 revert) and the readout window.
        """
        return self.free_time + 4 * self.pi2_duration + self.detection.measurement_duration

    @property
    def standard_cycle_time(self):
        """Wall-clock length of one standard Ramsey cycle: as a tracking cycle, with two pi/2 pulses."""
        return self.free_time + 2 * self.pi2_duration + self.detection.measurement_duration

    @property
    def block_time(self):
        """Wall-clock length of one tracking block: opening pi/2 and n_cp cycles."""
        return self.pi2_duration + self.n_cp * self.cycle_time


@dataclass(frozen=True, eq=False, slots=True)
class CycleTable:
    """Every cycle of a phase-tracking batch, one (blocks, n_cp) array per field.

    Element [b, n - 1] is cycle n of block b: its raw ``estimate``, the
    phase and frequency (1/n divisor) from it, and the block's
    ever-projected fraction just before it. Iterating builds the
    cycles, block by block, as rows of these attributes.
    """

    block: np.ndarray
    n: np.ndarray
    timestamp: np.ndarray
    estimate: np.ndarray
    phi_n: np.ndarray
    delta_f_hz: np.ndarray
    projected_before: np.ndarray

    def __iter__(self):
        return map(_Cycle, *(getattr(self, f.name).ravel().tolist() for f in fields(self)))


_Cycle = make_dataclass("Cycle", [f.name for f in fields(CycleTable)], eq=False, slots=True)


def _growth(n, p, amplitude):
    """Projected-fraction growth amplitude * (1 - (1-p)^(n-1))."""
    return amplitude * (1.0 - (1.0 - p) ** (n - 1.0))


@dataclass(frozen=True)
class DecoherenceFit:
    """A fit of amplitude * (1 - (1-p)^(n-1)); p_stderr and p_ci95 are None where it gives no interval."""

    p: float
    amplitude: float
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


def _measure(state, cfg):
    """One partial projection after cfg.free_time of free precession.

    With a diffusion model the ions first move over the free time, then
    the readout projects the ions the beam strikes during its window.
    One folded Gaussian step over the whole free time is exact: folding
    onto the cloud sums the free propagator over the wall images, which
    is the transition law of Brownian motion reflected at both ends.
    Only the endpoint is needed, since nothing reads the path before the
    readout.
    """
    det, dcfg = cfg.detection, cfg.diffusion
    if dcfg is None:
        return partial_projection(state, det)
    half = dcfg.cloud_length / 2.0
    z = _diffusion.step_brownian(state.z_pos, dcfg.effective_d(), cfg.free_time, state.rng_stream, half_length=half)
    z, struck = _diffusion.struck_during(z, dcfg, det.measurement_duration, state.rng_stream)
    return partial_projection(replace(state, z_pos=z), det, sampled=struck)


def _run_steps(state: EnsembleState, steps, increments, cfg: RamseyConfig):
    """The (blocks, readouts) estimates and ever-projected fractions of a step list run on a batch."""
    blocks = len(state.counts)
    shape = (blocks, steps.count(_FREE))
    if np.shape(increments) != shape:
        raise ValueError(f"need a {shape} LO record, got shape {np.shape(increments)}")
    n_ions = state.counts.sum(axis=1)
    est = np.empty((blocks, steps.count(_READ)))
    proj = np.empty_like(est)
    free = read = 0
    for step in steps:
        if read == est.shape[1]:
            break
        if step is _FREE:
            state = free_precession(state, increments[:, free])
            free += 1
        elif step is _READ:
            proj[:, read] = (n_ions - state.counts[:, 0]) / n_ions
            state, m = _measure(state, cfg)
            est[:, read] = m.estimate
            read += 1
        else:
            state = rotate(state, *step)
    return est, proj


def _run_blocks(ensemble: EnsembleState, increments, cfg: RamseyConfig, period):
    """The CycleTable of cfg.n_cp tracking cycles of each block b of a fresh batch, from b * period."""
    state = ensemble
    if cfg.diffusion is not None:
        state = place_ions(state, cfg.diffusion.cloud_length)
    cycle = [_FREE, (_HALF_PI, _HALF_PI), _READ, (_HALF_PI, 3.0 * _HALF_PI)]
    est, proj = _run_steps(state, [(0.0, _HALF_PI)] + cycle * cfg.n_cp, increments, cfg)

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
        phi_n=phi,
        delta_f_hz=estimate_frequency(phi, n, cfg.t_fp),
        projected_before=proj,
    )


def run_apl_block(ensemble: EnsembleState, increments, cfg: RamseyConfig):
    """A phase-tracking block of cfg.n_cp cycles on every ensemble of a batch.

    The ensemble batch must be freshly prepared (all ions ground); with
    a diffusion model its ions get their positions here. The blocks run
    back to back on the LO, block b from b * cfg.block_time; the array
    ``increments`` is their (blocks, cfg.n_cp) LO phase over each cfg.free_time.

    Returns a CycleTable whose arrays are (blocks, cfg.n_cp): row b
    holds the cycles of block b, and column n - 1 the n-th cycle, whose
    delta_f_hz uses the 1/n phase divisor. Empty-sample errors from the
    projection propagate to the caller.
    """
    return _run_blocks(ensemble, increments, cfg, cfg.block_time)


def run_standard_ramsey(ensemble: EnsembleState, increments, cfg: RamseyConfig):
    """One independent Ramsey cycle with destructive readout per block of a batch.

    Each cycle is a one-cycle block on its re-prepared ensemble that
    reads every ion (sampling fraction 1, no transport, technical noise
    cfg.detection.sigma_tech), started every cfg.standard_cycle_time.
    ``increments`` and the table's arrays are (blocks, 1): n=1 each.
    """
    whole = replace(cfg, n_cp=1, detection=replace(cfg.detection, p=1.0), diffusion=None)
    return _run_blocks(reset_to_ground(ensemble), increments, whole, cfg.standard_cycle_time)


def run_rabi_ppm(batch, increments, rotation_step, n_steps, reinitialize, det: DetectionConfig):
    """Rabi probing of every block of a batch, with or without state reuse.

    reinitialize=True re-prepares the ground state before every point k
    and probes with the cumulative pulse area k * rotation_step; the
    readout is the full-cloud mean plus technical noise (the state is
    discarded afterwards, so no collapse is needed and the noiseless
    trace is exact), and ``increments`` is not read (pass None).
    reinitialize=False runs the accumulated step list on the same
    ensembles, so measurement back-action accumulates; the array
    ``increments`` is the (blocks, n_steps + 1) LO drift over each
    readout window, the blocks back to back.

    Returns the (blocks, n_steps + 1) array of estimates: row b is block
    b, column k point k, where k = 0 is the unrotated baseline.
    """
    if rotation_step <= 0:
        raise ValueError("rotation_step must be positive")
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    state = reset_to_ground(batch)

    if reinitialize:
        shape = (len(state.counts), n_steps + 1)
        est = np.empty(shape)
        for k in range(n_steps + 1):
            est[:, k] = excited_population(rotate(state, 0.0, k * rotation_step))
        if det.sigma_tech > 0:
            est += state.rng_stream.normal(0.0, det.sigma_tech, shape)
        return est

    steps = [_READ] + [_FREE, (0.0, rotation_step), _READ] * n_steps + [_FREE]
    return _run_steps(state, steps, increments, RamseyConfig(detection=det))[0]


def predicted_projected_fraction(p, amplitude, n):
    """Expected ever-projected fraction amplitude * (1 - (1-p)^(n-1)) before the n-th measurement."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    n_arr = np.asarray(n)
    if np.any(n_arr < 1):
        raise ValueError("cycle index must be at least 1")
    return _growth(n_arr, p, amplitude)


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


def _profile_fit(name, solve, lo, hi):
    """The x in [lo, hi] minimizing the squared residual of solve(x) -> (coefficients, residual), and solve(x)."""

    def cost(x):
        resid = solve(x)[1]
        return float(resid @ resid)

    with np.errstate(all="ignore"):  # non-finite data make non-finite costs; the check below rejects them
        x = _argmin_1d(cost, lo, hi)
        coef, resid = solve(x)
    if not np.all(np.isfinite(resid)):
        raise FitFailureError(f"{name} fit gave a non-finite result (x={x}, coefficients={coef})")
    return x, coef, resid


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

    The model is fitted to the column means d: for each p the amplitude
    is max(g.d / g.g, 0), g = 1 - (1-p)^(n-1), and p is searched on [0, 1].
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
        return DecoherenceFit(p=0.0, amplitude=0.0, p_stderr=None, p_ci95=None, residual_norm=0.0)

    def solve(p):
        g = _growth(n, p, 1.0)
        gg = float(g @ g)
        a = max(float(g @ d) / gg, 0.0) if gg > 0 else 0.0
        return a, d - _growth(n, p, a)

    p_hat, a_hat, resid = _profile_fit("decoherence", solve, 0.0, 1.0)

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
        p=p_hat,
        amplitude=a_hat,
        p_stderr=stderr,
        p_ci95=ci,
        residual_norm=float(np.linalg.norm(resid)),
    )


def fit_probe_curve(angles, means):
    """Fit offset + amplitude (1 - cos(k w)) / 2 to probe means, w in [w0/2, 3 w0/2] with w0 = angles[1]."""
    ks = np.arange(len(means), dtype=float)
    step0 = angles[1]

    def solve(w):
        basis = np.column_stack([np.ones_like(ks), (1.0 - np.cos(ks * w)) / 2.0])
        coef = np.linalg.lstsq(basis, means, rcond=None)[0]
        return coef, means - basis @ coef

    step, (offset, amplitude), resid = _profile_fit("probe-curve", solve, 0.5 * step0, 1.5 * step0)
    return dict(offset=offset, amplitude=amplitude, step_rad=step, residual_norm=np.linalg.norm(resid))
