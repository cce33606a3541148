"""Local oscillator noise synthesis and phase accumulation.

Fractional frequency noise is parametrized by one-sided power-law PSD
levels S_y(f) = h0 + h_minus1/f + h_minus2/f^2. One noise core yields
the mean of y over each interval dt, integrated exactly: white FM
means are iid with variance h0/(2 dt); flicker FM is a bank of
octave-spaced Ornstein-Uhlenbeck relaxators over the fixed band
``_FLICKER_BAND`` with weights w^2 = h_minus1 ln 2, whose Allan
deviation is within 1% of sqrt(2 ln2 h_minus1) for tau from 1 ms to
100 s (8% at 0.1 ms and 1000 s); random-walk FM is a Brownian level.
Each relaxator and the level draw endpoint and interval mean from their
joint Gaussian (Gillespie, Phys. Rev. E 54, 2084, 1996).

``phase_increments`` returns the LO phase accumulated over each of n
consecutive intervals dt relative to the atomic transition,
increment = 2 pi (delta_f0 + y f0) dt; ``advance`` is its one-interval
case.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import as_generator
from .stability import StabilityParams

__all__ = [
    "NoiseSpec",
    "LocalOscillatorState",
    "make_local_oscillator",
    "generate_y_series",
    "phase_increments",
    "advance",
    "PRESETS",
]

# Corner band for the relaxator bank; sets the tau range of the flicker floor.
_FLICKER_BAND = (1e-4, 1e4)
_CHUNK = 512  # rows per draw of the noise core; bounds the memory of a long record


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


def _octave_corners(f_lo, f_hi):
    """Octave-spaced corner frequencies from f_hi down to below f_lo."""
    return f_hi / 2.0 ** np.arange(math.ceil(math.log2(f_hi / f_lo)) + 1)


_CORNERS = _octave_corners(*_FLICKER_BAND)


def _coefficients(spec, dt):
    """Exact per-interval law of each AR(1) process: decay mu, endpoint sd s,
    mean c * start + b * (endpoint normal) + r * (interval normal)."""
    cols = []
    if spec.h_minus1 > 0:
        w = math.sqrt(spec.h_minus1 * math.log(2.0))
        a = 2.0 * np.pi * _CORNERS * dt
        u, s = -np.expm1(-a), np.sqrt(-np.expm1(-2.0 * a))
        # variance of the mean given both endpoints: its Taylor series
        # below a = 0.1, where the closed form cancels
        series = a * (1 / 6 - a**2 * (1 / 60 - a**2 * (17 / 10080 - a**2 * 31 / 181440)))
        bridge = np.where(a < 0.1, series, 2.0 * (a - 2.0 * np.tanh(a / 2.0)) / a**2)
        cols.append((np.exp(-a), s, w * u / a, w * u * u / (a * s), w * np.sqrt(bridge)))
    if spec.h_minus2 > 0:
        step = math.sqrt(2.0 * np.pi**2 * spec.h_minus2 * dt)
        cols.append(([1.0], [step], [1.0], [step / 2.0], [step / math.sqrt(12.0)]))
    return tuple(map(np.concatenate, zip(*cols)))


@dataclass(eq=False)
class LocalOscillatorState:
    """Carrier, deterministic offset, noise spec and noise bank.

    ``phase_increments`` and ``advance`` mutate this state in place.
    The noise bank is the state vector ``_x`` of its AR(1) processes:
    the flicker relaxators, drawn from their stationary law at
    construction when h_minus1 > 0, then the random-walk level,
    starting at 0, when h_minus2 > 0.
    """

    f0: float
    delta_f0: float
    spec: NoiseSpec
    rng_stream: np.random.Generator

    def __post_init__(self):
        if self.f0 <= 0:
            raise ValueError("carrier frequency must be positive")
        n_flicker = len(_CORNERS) if self.spec.h_minus1 > 0 else 0
        # stationary start for each relaxator; the random-walk level starts at 0
        level = [0.0] * (self.spec.h_minus2 > 0)
        self._x = np.append(self.rng_stream.standard_normal(n_flicker), level)

    def _means(self, dt, n, coef):
        """Mean y over n consecutive intervals of length dt; advances the bank.

        ``coef`` is ``_coefficients(self.spec, dt)``. Each interval draws one
        row of standard normals: the white normal, then an (endpoint, interval)
        pair per flicker relaxator, then the pair of the random-walk level. So n
        calls with n = 1 draw the same numbers as one call with n rows.
        """
        n_white = int(self.spec.h0 > 0)
        z = self.rng_stream.standard_normal((n, n_white + 2 * self._x.size))
        y = math.sqrt(self.spec.h0 / (2.0 * dt)) * z[:, 0] if n_white else np.zeros(n)
        if self._x.size:
            mu, s, c, b, r = coef
            pairs = z[:, n_white:].reshape(n, -1, 2)
            x = s * pairs[..., 0]  # endpoints x_t = mu x_{t-1} + s z_t, by prefix scan
            x[0] += mu * self._x
            for shift in (2**k for k in range((n - 1).bit_length())):
                x[shift:] += mu**shift * x[:-shift]
            start = np.concatenate((self._x[None], x[:-1]))
            y = y + start @ c + pairs[..., 0] @ b + pairs[..., 1] @ r
            self._x = x[-1]
        return y


def make_local_oscillator(f0=StabilityParams.f0, delta_f0=0.0, spec=NoiseSpec(), seed=0):
    """Convenience constructor accepting a seed or Generator."""
    return LocalOscillatorState(f0=f0, delta_f0=delta_f0, spec=spec, rng_stream=as_generator(seed))


def _record(lo: LocalOscillatorState, dt, n):
    """Mean y over n consecutive intervals of length dt, drawn ``_CHUNK`` rows at a time."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    coef = _coefficients(lo.spec, dt)
    return np.concatenate([lo._means(dt, min(_CHUNK, n - i), coef) for i in range(0, n, _CHUNK)])


def phase_increments(lo: LocalOscillatorState, dt, n):
    """Advance the LO over n consecutive intervals of dt seconds; return their phase increments.

    increment = 2 pi (delta_f0 + y f0) dt, in rad, with y the mean
    fractional frequency over each interval. One record draws the same normals as n
    ``advance`` calls, and its increments equal theirs to rounding.
    """
    return 2.0 * np.pi * (lo.delta_f0 + _record(lo, dt, n) * lo.f0) * dt


def advance(lo: LocalOscillatorState, dt) -> float:
    """Advance the LO by dt seconds; return the phase increment in rad.

    The one-interval case of ``phase_increments``. The deterministic part
    is exactly additive over consecutive calls.
    """
    return float(phase_increments(lo, dt, 1)[0])


def generate_y_series(spec: NoiseSpec, dt, n, seed):
    """Mean fractional frequency y over each of n consecutive intervals of length dt.

    The y that n ``advance`` calls on ``make_local_oscillator(f0, 0.0,
    spec, seed)`` imply; the flicker band is fixed, whatever dt and n.

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
    return _record(make_local_oscillator(spec=spec, seed=seed), dt, n)
