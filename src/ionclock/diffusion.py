"""Brownian transport of ions along the trap axis.

An overdamped 1D random walk with reflecting walls at the cloud ends
decides which ions wander into the detection beam during a measurement
window, turning the sampling fraction of a partial projection into a
physical quantity.

Note on the default diffusion constant: the Einstein relation with the
default mobility gives D = mu k_B T ~ 5.95e-6 m^2/s at 50 mK, while the
calibrated transport value used throughout is the explicit override
D = 3.5e-6 m^2/s. The two differ by about 1.7x; the override wins by
default and the discrepancy is deliberately left visible rather than
hidden in a fudged mobility.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import as_generator

__all__ = [
    "DiffusionConfig",
    "diffusion_constant",
    "step_brownian",
    "struck_during",
    "fraction_struck",
    "BEAM_HALF_WIDTH",
]

# Half-width of the detection interval on the trap axis. Calibrated by
# Monte Carlo with 100 sub-steps per window, so that with
# D = 3.5e-6 m^2/s a 1 ms window strikes 17% of a uniform 3 mm cloud;
# struck_during follows the continuous path, which strikes 0.1735.
# Of the same order as, but not derived from, the nominal 200 um beam
# waist crossing the cloud.
BEAM_HALF_WIDTH = 1.935e-4

K_BOLTZMANN = 1.380649e-23  # J/K, exact by the 2019 SI definition


@dataclass(frozen=True)
class DiffusionConfig:
    """Transport parameters; ``d_override = None`` falls back to Einstein.

    The D the walks use, ``effective_d()``, must be at most 1 m^2/s however
    it is set; past that the walks overflow (the calibrated D is 3.5e-6).
    ``beam_interval`` must lie inside [-cloud_length/2, +cloud_length/2].
    Transport takes no sub-steps, so there is no time step: one folded
    step of the whole duration is exact (see ``_reflect``), and
    ``struck_during`` decides beam entries in a readout window from the
    two endpoints alone.
    """

    temperature: float = 0.05
    mobility: float = 8.62e18
    d_override: float | None = 3.5e-6
    cloud_length: float = 3e-3
    beam_interval: tuple = (-BEAM_HALF_WIDTH, BEAM_HALF_WIDTH)

    def __post_init__(self):
        diffusion_constant(self.temperature, self.mobility)  # checks both, even under an override
        if self.d_override is not None and self.d_override < 0:
            raise ValueError("d_override must be non-negative")
        if not self.effective_d() <= 1.0:
            raise ValueError(f"the diffusion constant must be at most 1 m^2/s, got {self.effective_d()!r}")
        if self.cloud_length <= 0:
            raise ValueError("cloud_length must be positive")
        lo, hi = self.beam_interval
        half = self.cloud_length / 2.0
        if not (lo < hi):
            raise ValueError("beam_interval must have positive width")
        if lo < -half or hi > half:
            raise ValueError("beam_interval must lie inside the cloud")

    def effective_d(self):
        if self.d_override is not None:
            return float(self.d_override)
        return diffusion_constant(self.temperature, self.mobility)


def diffusion_constant(temperature, mobility):
    """Einstein relation D = mu k_B T."""
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    if mobility <= 0:
        raise ValueError("mobility must be positive")
    return mobility * K_BOLTZMANN * temperature


def _reflect(z, half):
    # Fold onto [-half, half]; the triangle wave of period 4*half handles
    # displacements that overshoot the walls several times over.
    t = np.mod(z + half, 4.0 * half)
    return np.where(t <= 2.0 * half, t - half, 3.0 * half - t)


def step_brownian(positions, d, dt, rng, half_length=None):
    """One Gaussian displacement of variance 2 D dt per walker.

    ``half_length = None`` disables the walls (free space); otherwise
    positions are reflected back into [-half_length, +half_length].
    """
    if d < 0:
        raise ValueError("diffusion constant must be non-negative")
    if dt <= 0:
        raise ValueError("dt must be positive")
    positions = np.asarray(positions, dtype=float)
    z = positions + rng.normal(0.0, math.sqrt(2.0 * d * dt), positions.shape)
    if half_length is None:
        return z
    return _reflect(z, float(half_length))


def struck_during(positions, cfg: DiffusionConfig, duration, rng):
    """Propagate walkers for ``duration`` and flag beam entries.

    A walker counts as struck if its continuous path touches
    ``cfg.beam_interval`` during the window. One reflected step over the
    whole window gives the endpoint; a walker that starts outside the
    beam and ends on the same side of it touched the nearer edge with
    the Brownian-bridge probability exp(-2 d0 d1 / (2 D duration)), d0
    and d1 being its distances to that edge at the two ends (Glasserman,
    Monte Carlo Methods in Financial Engineering, 2003). One normal and
    one uniform per walker, however long the window.

    Returns (final_positions, struck_mask).
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    lo, hi = cfg.beam_interval
    z = np.asarray(positions, dtype=float)
    struck = (z >= lo) & (z <= hi)
    d = cfg.effective_d()
    if duration == 0 or d == 0:
        return z, struck
    end = step_brownian(z, d, duration, rng, half_length=cfg.cloud_length / 2.0)
    # distance past the beam edge on the starting side, 0 at or beyond
    # it: a walker that ends in the beam or past it has probability 1
    below = z < lo
    d0 = np.maximum(np.where(below, lo - z, z - hi), 0.0)
    d1 = np.maximum(np.where(below, lo - end, end - hi), 0.0)
    struck |= rng.random(z.shape) < np.exp(-2.0 * d0 * d1 / (2.0 * d * duration))
    return end, struck


def fraction_struck(cfg: DiffusionConfig, duration, n_ions, seed):
    """Fraction of a uniform cloud entering the beam within ``duration``.

    At duration 0 this reduces to the fraction initially inside the
    interval, in expectation interval_width / cloud_length.
    """
    n_ions = int(n_ions)
    if n_ions < 1:
        raise ValueError("n_ions must be at least 1")
    rng = as_generator(seed)
    half = cfg.cloud_length / 2.0
    z0 = rng.uniform(-half, half, n_ions)
    _, struck = struck_during(z0, cfg, duration, rng)
    return float(struck.mean())
