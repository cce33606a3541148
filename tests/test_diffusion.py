"""Axial Brownian transport and beam overlap."""

import math

import numpy as np
import pytest
from scipy import special, stats

from ionclock.diffusion import (
    BEAM_HALF_WIDTH,
    DiffusionConfig,
    diffusion_constant,
    fraction_struck,
    step_brownian,
    struck_during,
)
from ionclock.rng import substream


def test_einstein_relation_frozen_value():
    # 50 mK at the configured mobility
    assert diffusion_constant(0.05, 8.62e18) == pytest.approx(5.95059719e-6, rel=1e-9)


def test_einstein_relation_is_linear_in_temperature():
    d1 = diffusion_constant(0.02, 1e18)
    d2 = diffusion_constant(0.04, 1e18)
    assert d2 == pytest.approx(2 * d1, rel=1e-12)


def test_config_override_and_derived():
    cfg = DiffusionConfig(d_override=None)
    assert cfg.effective_d() == pytest.approx(diffusion_constant(0.05, 8.62e18))
    assert DiffusionConfig(d_override=3.5e-6).effective_d() == 3.5e-6


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusionConfig(mobility=-1.0)
    with pytest.raises(ValueError, match="d_override"):
        DiffusionConfig(d_override=-1.0)
    assert DiffusionConfig(d_override=0.0).effective_d() == 0.0
    with pytest.raises(ValueError):
        DiffusionConfig(beam_interval=(1e-4, -1e-4))
    with pytest.raises(ValueError):
        # beam wider than the cloud
        DiffusionConfig(cloud_length=1e-4, beam_interval=(-1e-4, 1e-4))


def test_config_bounds_the_diffusion_constant_however_it_is_set():
    # past 1 m^2/s the walks overflow, whether the override sets D or Einstein derives it
    too_large = [
        {"d_override": 1.5},
        {"d_override": None, "temperature": 1e308},
        {"d_override": None, "mobility": 1e300},
    ]
    for kwargs in too_large:
        with pytest.raises(ValueError, match=r"^the diffusion constant must be at most 1 m\^2/s, got "):
            DiffusionConfig(**kwargs)
    assert DiffusionConfig(d_override=1.0).effective_d() == 1.0
    # the override alone sets D: a temperature that would derive too large a D is accepted
    assert DiffusionConfig(temperature=1e308).effective_d() == 3.5e-6


def test_free_step_variance():
    rng = substream(3, "steps")
    d, dt = 3.5e-6, 1e-5
    z = step_brownian(np.zeros(200_000), d, dt, rng)
    assert z.mean() == pytest.approx(0.0, abs=5 * math.sqrt(2 * d * dt / 200_000))
    assert z.var() == pytest.approx(2 * d * dt, rel=0.03)


def test_step_validation():
    rng = substream(1, "x")
    with pytest.raises(ValueError):
        step_brownian(np.zeros(3), -1e-6, 1e-5, rng)
    with pytest.raises(ValueError):
        step_brownian(np.zeros(3), 1e-6, 0.0, rng)


def test_walls_confine_walkers():
    rng = substream(5, "walls")
    half = 2e-4
    z = rng.uniform(-half, half, 5000)
    for _ in range(300):
        z = step_brownian(z, 3.5e-6, 1e-5, rng, half_length=half)
        assert np.all(np.abs(z) <= half + 1e-18)


def _reflected_cdf(z, z0, sigma, half, n_images=5):
    # Brownian motion reflected at +-half, started at z0: a free Gaussian
    # from every image source z0 + 4kh and 2h - z0 + 4kh, cut to the cloud
    k = np.arange(-n_images, n_images + 1)[:, None]
    sources = np.concatenate([z0 + 4 * k * half, 2 * half - z0 + 4 * k * half])
    upper = special.ndtr((np.asarray(z)[None, :] - sources) / sigma)
    lower = special.ndtr((-half - sources) / sigma)
    return np.sum(upper - lower, axis=0)


@pytest.mark.parametrize("duration", [0.1, 1.0])
def test_one_folded_step_is_reflected_brownian_motion(duration):
    # one step of the whole duration, sigma comparable to (0.1 s) or
    # larger than (1 s, several wall crossings) the cloud half-length
    d, half, z0, n = 3.5e-6, 1.5e-3, 1.2e-3, 100_000
    sigma = math.sqrt(2 * d * duration)
    z = step_brownian(np.full(n, z0), d, duration, substream(13, "image"), half_length=half)
    ks = stats.kstest(z, lambda x: _reflected_cdf(x, z0, sigma, half)).statistic
    # sqrt(n) * KS exceeds 2 with probability ~7e-4 under the exact law
    assert ks < 2 / math.sqrt(n)


def test_reflected_spread_saturates_at_uniform():
    # from uniform start, mean-square displacement levels at L^2/6
    rng = substream(6, "plateau")
    half = 1e-4
    z0 = rng.uniform(-half, half, 4000)
    z = z0.copy()
    for _ in range(500):  # 5 ms >> half^2 / 2D ~ 1.4 ms
        z = step_brownian(z, 3.5e-6, 1e-5, rng, half_length=half)
    msd = np.mean((z - z0) ** 2)
    plateau = (2 * half) ** 2 / 6
    assert msd == pytest.approx(plateau, rel=0.1)


def test_free_msd_grows_linearly():
    rng = substream(7, "msd")
    d, dt = 3.5e-6, 1e-5
    z = np.zeros(50_000)
    ts, msds = [], []
    for k in range(1, 51):
        z = step_brownian(z, d, dt, rng)
        ts.append(k * dt)
        msds.append(np.mean(z * z))
    fit = stats.linregress(ts, msds)
    assert fit.slope == pytest.approx(2 * d, rel=0.03)
    assert fit.rvalue**2 > 0.99


class TestStruck:
    def test_initial_overlap_counts(self):
        cfg = DiffusionConfig()
        pos = np.array([0.0, 1.0e-3, -1.2e-3])
        _, struck = struck_during(pos, cfg, 0.0, substream(8, "s"))
        assert struck.tolist() == [True, False, False]

    def test_distant_walker_not_struck_quickly(self):
        cfg = DiffusionConfig()
        pos = np.full(200, 1.4e-3)  # ~1.2 mm from the beam edge
        _, struck = struck_during(pos, cfg, 1e-4, substream(9, "s"))
        assert not struck.any()

    def test_fraction_increases_with_duration(self):
        cfg = DiffusionConfig()
        f_short = fraction_struck(cfg, 2e-4, 20_000, substream(10, "s"))
        f_long = fraction_struck(cfg, 2e-3, 20_000, substream(10, "s"))
        assert f_long > f_short > BEAM_HALF_WIDTH / cfg.cloud_length

    def test_calibrated_value_at_one_ms(self):
        frac = fraction_struck(DiffusionConfig(), 1e-3, 20_000, substream(11, "s"))
        assert frac == pytest.approx(0.17, abs=0.02)

    def test_reproducible(self):
        cfg = DiffusionConfig()
        f1 = fraction_struck(cfg, 5e-4, 3000, substream(12, "s"))
        f2 = fraction_struck(cfg, 5e-4, 3000, substream(12, "s"))
        assert f1 == f2

    def test_zero_ions_rejected(self):
        with pytest.raises(ValueError):
            fraction_struck(DiffusionConfig(), 1e-3, 0, 1)


class TestBridge:
    """struck_during against the first-passage law of free Brownian motion.

    Each tolerance is 4 binomial standard deviations of the sampled
    fraction, fixed before the run.
    """

    @pytest.mark.parametrize("duration", [2e-4, 1e-3, 5e-3])
    def test_uniform_cloud_fraction(self, duration):
        # inside w/L, plus from each side the integral of the hit
        # probability erfc(x / sqrt(4 D T)) over the distance x to the edge
        cfg = DiffusionConfig()
        d, length, n = cfg.effective_d(), cfg.cloud_length, 1_000_000
        lo, hi = cfg.beam_interval
        expected = (hi - lo) / length + 2 * math.sqrt(4 * d * duration / math.pi) / length
        frac = fraction_struck(cfg, duration, n, substream(40, "bridge", round(duration * 1e4)))
        assert abs(frac - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_fixed_start_hit_fraction(self, side):
        # first passage to a level d0 away: P = 2 P(B_T > d0) = erfc(d0 / sqrt(4 D T))
        cfg = DiffusionConfig()
        d, duration, d0, n = cfg.effective_d(), 1e-3, 1e-4, 200_000
        edge = cfg.beam_interval[side > 0]
        z0 = np.full(n, edge + side * d0)
        _, struck = struck_during(z0, cfg, duration, substream(41, "bridge", side + 1))
        expected = math.erfc(d0 / math.sqrt(4 * d * duration))
        assert abs(struck.mean() - expected) <= 4 * math.sqrt(expected * (1 - expected) / n)

    def test_no_diffusion_keeps_the_initial_overlap(self):
        cfg = DiffusionConfig(d_override=0.0)
        pos = np.array([0.0, BEAM_HALF_WIDTH, 1.0e-3, -1.2e-3])
        z, struck = struck_during(pos, cfg, 1e-3, substream(43, "s"))
        assert np.array_equal(z, pos)
        assert struck.tolist() == [True, True, False, False]
