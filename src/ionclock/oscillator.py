"""Local oscillator noise synthesis and phase accumulation.

Fractional frequency noise is parametrized by one-sided power-law PSD
levels S_y(f) = h0 + h_minus1/f + h_minus2/f^2. White FM samples at
resolution dt are iid Gaussian with variance h0/(2 dt); random-walk FM
is the cumulative sum of iid increments; flicker FM is synthesized by a
bank of octave-spaced first-order low-pass (Ornstein-Uhlenbeck)
relaxators, which approximates 1/f well within +/-1 dB over the design
band (equal weights w^2 = h_minus1 * ln 2 make S(f) * f = h_minus1 in
the octave-grid limit).

``advance`` converts elapsed time into accumulated phase of the LO
relative to the atomic transition: increment = 2 pi (delta_f0 + y f0) dt.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .rng import as_generator

__all__ = [
    "NoiseSpec",
    "LocalOscillatorState",
    "make_local_oscillator",
    "generate_y_series",
    "advance",
    "PRESETS",
]

# Corner band for the relaxator bank inside a stateful LO. Wide enough
# to cover averaging times from sub-ms pulses to multi-hour runs.
_FLICKER_BAND = (1e-4, 1e4)


@dataclass(frozen=True)
class NoiseSpec:
    """One-sided power-law PSD levels; all-zero means a noiseless LO."""

    h0: float = 0.0
    h_minus1: float = 0.0
    h_minus2: float = 0.0

    def __post_init__(self):
        if self.h0 < 0 or self.h_minus1 < 0 or self.h_minus2 < 0:
            raise ValueError("noise levels must be non-negative")


# Named level sets for the ``lo.preset`` config key. Levels are
# calibration choices, not measured values.
PRESETS = {
    # Hydrogen-maser class reference, tuned so the accumulated phase
    # error over 0.1 s stays below 0.02 rad in well over 99% of trials
    # at f0 = 12.6 GHz (white part alone leaves an 11 sigma margin).
    "maser": NoiseSpec(h0=1e-26, h_minus1=8e-31, h_minus2=1e-36),
    # A deliberately poor quartz-like LO whose 0.1 s phase wander is of
    # order radians, for exploring the regime where a single Ramsey
    # cycle can no longer track the phase.
    "noisy": NoiseSpec(h0=2e-20, h_minus1=1e-21, h_minus2=1e-23),
}


def _octave_corners(f_lo, f_hi, max_corners=60):
    """Octave-spaced corner frequencies from f_hi down to below f_lo."""
    n_oct = int(math.ceil(math.log2(f_hi / f_lo))) + 1
    n_oct = min(max(n_oct, 1), max_corners)
    return f_hi / 2.0 ** np.arange(n_oct)


def flicker_psd(f, h_minus1, corners):
    """Analytic one-sided PSD of the relaxator bank (design check)."""
    f = np.asarray(f, dtype=float)
    lam = 2.0 * np.pi * corners
    w2 = h_minus1 * math.log(2.0)
    return (
        w2 * 4.0 * lam[:, None] / (lam[:, None] ** 2 + (2.0 * np.pi * f[None, :]) ** 2)
    ).sum(axis=0)


@dataclass(eq=False)
class LocalOscillatorState:
    """Carrier, deterministic offset, noise spec and accumulated phase.

    ``advance`` mutates this state in place. The relaxator bank for
    flicker noise lives in ``_flicker_state`` and is created lazily at
    construction when h_minus1 > 0.
    """

    f0: float = 12.6e9
    delta_f0: float = 0.0
    spec: NoiseSpec = field(default_factory=NoiseSpec)
    accumulated_phase: float = 0.0
    elapsed: float = 0.0
    rng_stream: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    def __post_init__(self):
        if self.f0 <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.spec.h_minus1 > 0:
            self._flicker_corners = _octave_corners(*_FLICKER_BAND)
            # stationary start for each relaxator
            self._flicker_state = self.rng_stream.standard_normal(
                self._flicker_corners.size
            )
        else:
            self._flicker_corners = None
            self._flicker_state = None
        self._rw_level = 0.0


def make_local_oscillator(f0=12.6e9, delta_f0=0.0, spec=None, seed=0):
    """Convenience constructor accepting a seed or Generator."""
    return LocalOscillatorState(
        f0=f0,
        delta_f0=delta_f0,
        spec=spec if spec is not None else NoiseSpec(),
        rng_stream=as_generator(seed),
    )


def advance(lo: LocalOscillatorState, dt) -> float:
    """Advance the LO by dt seconds; return the phase increment in rad.

    increment = 2 pi (delta_f0 + y f0) dt with y drawn from the noise
    spec at resolution dt. The deterministic part is exactly additive
    over consecutive calls.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    spec = lo.spec
    rng = lo.rng_stream
    y = 0.0
    if spec.h0 > 0:
        y += rng.normal(0.0, math.sqrt(spec.h0 / (2.0 * dt)))
    if spec.h_minus1 > 0:
        rho = np.exp(-2.0 * np.pi * lo._flicker_corners * dt)
        lo._flicker_state = rho * lo._flicker_state + np.sqrt(
            1.0 - rho ** 2
        ) * rng.standard_normal(lo._flicker_corners.size)
        y += math.sqrt(spec.h_minus1 * math.log(2.0)) * float(
            lo._flicker_state.sum()
        )
    if spec.h_minus2 > 0:
        lo._rw_level += rng.normal(
            0.0, math.sqrt(2.0 * np.pi ** 2 * spec.h_minus2 * dt)
        )
        y += lo._rw_level
    increment = 2.0 * np.pi * (lo.delta_f0 + y * lo.f0) * dt
    lo.accumulated_phase += increment
    lo.elapsed += dt
    return float(increment)


def generate_y_series(spec: NoiseSpec, dt, n, seed):
    """n samples of fractional frequency y(t) on a grid of spacing dt.

    Parameters
    ----------
    spec : NoiseSpec
        Power-law levels; validated at construction.
    dt : float
        Sample spacing in seconds, > 0.
    n : int
        Number of samples, >= 1.
    seed : int or Generator
        Source stream.

    Returns
    -------
    y : (n,) ndarray
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = as_generator(seed)
    y = np.zeros(n)
    if spec.h0 > 0:
        y += rng.normal(0.0, math.sqrt(spec.h0 / (2.0 * dt)), n)
    if spec.h_minus1 > 0:
        y += _flicker_series(spec.h_minus1, dt, n, rng)
    if spec.h_minus2 > 0:
        y += np.cumsum(
            rng.normal(0.0, math.sqrt(2.0 * np.pi ** 2 * spec.h_minus2 * dt), n)
        )
    return y


def _flicker_series(h_minus1, dt, n, rng):
    """Sum of octave-spaced AR(1) relaxators approximating 1/f noise."""
    f_hi = 1.0 / (2.0 * dt)
    f_lo = 1.0 / (4.0 * n * dt)  # one guard octave below the series span
    corners = _octave_corners(f_lo, f_hi)
    weight = math.sqrt(h_minus1 * math.log(2.0))
    acc = np.zeros(n)
    for fc in corners:
        rho = math.exp(-2.0 * np.pi * fc * dt)
        g = math.sqrt(1.0 - rho ** 2)
        x0 = rng.standard_normal()  # stationary initial condition
        driven = rng.standard_normal(n)
        x, _ = lfilter([g], [1.0, -rho], driven, zi=np.array([rho * x0]))
        acc += x
    return weight * acc
