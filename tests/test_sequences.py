"""Measurement protocols and estimators."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats

from ionclock import diffusion
from ionclock.ensemble import DetectionConfig, initialize_ensemble
from ionclock.oscillator import NoiseSpec, make_local_oscillator
from ionclock.rng import substream
from ionclock.sequences import (
    DecoherenceModel,
    _growth,
    _t_quantile,
    RamseyConfig,
    SaturationWarning,
    estimate_frequency,
    estimate_phase,
    fit_decoherence,
    predicted_projected_fraction,
    run_apl_block,
    run_rabi_ppm,
    run_standard_ramsey,
)

TWO_PI = 2 * math.pi


def quiet_lo(delta_f0=0.0, seed=1):
    return make_local_oscillator(12.6e9, delta_f0, NoiseSpec(), substream(seed, "lo"))


@pytest.fixture
def readout_starts(monkeypatch):
    """Ion positions at the start of each beam readout, as struck_during sees them."""
    starts = []
    struck_during = diffusion.struck_during

    def spy(positions, *args):
        starts.append(np.array(positions))
        return struck_during(positions, *args)

    monkeypatch.setattr(diffusion, "struck_during", spy)
    return starts


@pytest.fixture
def first_steps(monkeypatch):
    """Positions handed to each step_brownian call; a beam run's first is the start."""
    steps = []
    step_brownian = diffusion.step_brownian

    def spy(positions, *args, **kwargs):
        steps.append(np.array(positions))
        return step_brownian(positions, *args, **kwargs)

    monkeypatch.setattr(diffusion, "step_brownian", spy)
    return steps


class TestEstimators:
    def test_phase_at_midpoint_is_zero(self):
        assert estimate_phase(0.5) == 0.0

    def test_phase_inversion_frozen_value(self):
        # arcsin(2*0.6 - 1) = arcsin(0.2)
        assert estimate_phase(0.6) == pytest.approx(0.2013579207903308, rel=1e-12)

    def test_phase_clamps_out_of_range_estimates(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            assert estimate_phase(1.3) == pytest.approx(math.pi / 2)
            assert estimate_phase(-0.2) == pytest.approx(-math.pi / 2)

    def test_saturation_warning(self):
        with pytest.warns(SaturationWarning):
            estimate_phase(0.97)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            estimate_phase(0.9)  # inside the safe band, no warning

    def test_frequency_conversion(self):
        phi = TWO_PI * 0.25 * 0.1
        assert estimate_frequency(phi, 1, 0.1) == pytest.approx(0.25, rel=1e-12)

    def test_frequency_linearity_in_inverse_n(self):
        phi = 0.4
        f1 = estimate_frequency(phi, 3, 0.1)
        f2 = estimate_frequency(phi, 6, 0.1)
        assert f2 == pytest.approx(f1 / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_frequency(0.1, 0, 0.1)
        with pytest.raises(ValueError):
            estimate_frequency(0.1, 1, 0.0)


class TestAplBlock:
    def test_tracks_static_offset(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(4000, substream(21, "ens"))
        recs = run_apl_block(ens, quiet_lo(delta_f0=0.25, seed=21), cfg)
        assert [r.n for r in recs] == [1, 2, 3]
        # QPN on ~720 sampled ions gives phase sd ~ 0.037 rad
        for r in recs:
            assert r.phi_n == pytest.approx(TWO_PI * 0.25 * 0.1 * r.n, abs=0.2)
            assert r.delta_f_hz == pytest.approx(0.25, abs=0.35 / r.n)

    def test_phase_accumulates_across_cycles(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=4, detection=det)
        ens = initialize_ensemble(8000, substream(22, "ens"))
        recs = run_apl_block(ens, quiet_lo(delta_f0=0.2, seed=22), cfg)
        phis = np.array([r.phi_n for r in recs])
        assert np.all(np.diff(phis) > 0)

    def test_projected_fraction_grows_geometrically(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=5, detection=det)
        ens = initialize_ensemble(6000, substream(23, "ens"))
        recs = run_apl_block(ens, quiet_lo(seed=23), cfg)
        for r in recs:
            expected = 1.0 - 0.82 ** (r.n - 1)
            sd = math.sqrt(max(expected * (1 - expected), 1e-9) / 6000)
            assert r.projected_before == pytest.approx(expected, abs=max(4 * sd, 1e-9))

    def test_timestamps_account_for_all_stages(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0, measurement_duration=1e-3)
        cfg = RamseyConfig(
            t_fp=0.1, pi2_duration=7.5e-4, n_cp=2, detection=det, dead_time=0.01
        )
        ens = initialize_ensemble(500, substream(24, "ens"))
        recs = run_apl_block(ens, quiet_lo(seed=24), cfg, t0=5.0)
        first = 5.0 + 7.5e-4 + 0.11 + 7.5e-4 + 1e-3
        assert recs[0].timestamp == pytest.approx(first, rel=1e-12)
        assert recs[1].timestamp == pytest.approx(first + cfg.cycle_time, rel=1e-12)

    def test_beam_overlap_block(self, readout_starts, first_steps):
        dcfg = diffusion.DiffusionConfig()
        det = DetectionConfig(sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det, diffusion=dcfg)
        n_ions, n_blocks = 400, 2
        ens = initialize_ensemble(n_ions, substream(26, "ens"), n_blocks)
        recs = run_apl_block(ens, quiet_lo(seed=26), cfg)
        assert [r.block for r in recs] == [0, 0, 0, 1, 1, 1]
        assert [r.projected_before for r in recs[:: cfg.n_cp]] == [0.0] * n_blocks
        second = [r.projected_before for r in recs[1 :: cfg.n_cp]]
        # the first transport starts from the positions drawn at block start
        start = first_steps[0]
        assert start.shape == (n_blocks, n_ions)
        assert np.all(np.abs(start) <= dcfg.cloud_length / 2)
        moved = [readout_starts[0] - start]
        assert len(readout_starts) == cfg.n_cp
        for z in readout_starts:
            assert z.shape == (n_blocks, n_ions)
            assert np.all(np.abs(z) <= dcfg.cloud_length / 2)
        # n = 2 has seen one 1 ms readout: the calibrated 17% struck fraction
        sd = math.sqrt(0.17 * 0.83 / (n_ions * n_blocks))
        assert np.mean(second) == pytest.approx(0.17, abs=0.02 + 4 * sd)
        # first free precession from a uniform start, reflected at both ends:
        # MSD(t) = L^2/6 - (16 L^2 / pi^4) sum_{odd k} exp(-D k^2 pi^2 t / L^2) / k^4
        length, d_eff = dcfg.cloud_length, dcfg.effective_d()
        k = np.arange(1, 40, 2)
        msd = length**2 / 6 - 16 * length**2 / math.pi**4 * np.sum(
            np.exp(-d_eff * k**2 * math.pi**2 * cfg.t_fp / length**2) / k**4
        )
        sq = np.concatenate(moved).ravel() ** 2
        assert sq.mean() == pytest.approx(msd, abs=4 * sq.std() / math.sqrt(sq.size))

    def test_diffusion_model_picks_the_sample_at_any_p(self):
        # p = 1 would read every ion; with a diffusion model the beam decides
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        cfg = RamseyConfig(
            t_fp=0.1, n_cp=2, detection=det, diffusion=diffusion.DiffusionConfig()
        )
        n_ions, n_blocks = 400, 2
        ens = initialize_ensemble(n_ions, substream(27, "ens"), n_blocks)
        recs = run_apl_block(ens, quiet_lo(seed=27), cfg)
        assert all(r.n_sampled < n_ions for r in recs[:: cfg.n_cp])
        second = [r.projected_before for r in recs[1 :: cfg.n_cp]]
        sd = math.sqrt(0.17 * 0.83 / (n_ions * n_blocks))
        assert np.mean(second) == pytest.approx(0.17, abs=0.02 + 4 * sd)

    def test_transport_walls_come_from_the_diffusion_config(self, readout_starts):
        dcfg = diffusion.DiffusionConfig(cloud_length=1e-3, beam_interval=(-1e-4, 1e-4))
        det = DetectionConfig(sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det, diffusion=dcfg)
        ens = initialize_ensemble(400, substream(28, "ens"), 2)
        run_apl_block(ens, quiet_lo(seed=28), cfg)
        assert len(readout_starts) == cfg.n_cp
        for z in readout_starts:
            assert np.all(np.abs(z) <= 0.5e-3)

    def test_same_seed_reproduces_block(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.1)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)

        def run():
            ens = initialize_ensemble(1000, substream(25, "ens"))
            return run_apl_block(ens, quiet_lo(delta_f0=0.1, seed=25), cfg)

        a, b = run(), run()
        assert [r.estimate for r in a] == [r.estimate for r in b]
        assert [r.delta_f_hz for r in a] == [r.delta_f_hz for r in b]


class TestStandardRamsey:
    def test_zero_offset_reads_half_on_average(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(2000, substream(31, "ens"), 60)
        recs = run_standard_ramsey(ens, quiet_lo(seed=31), cfg)
        assert len(recs) == 60
        assert all(r.n == 1 for r in recs)
        ests = np.array([r.estimate for r in recs])
        # full projection of 2000 ions at the equator: sd ~ 0.011
        assert np.all(np.abs(ests - 0.5) < 6 * 0.0112)
        assert abs(ests.mean() - 0.5) < 5 * 0.0112 / math.sqrt(60)

    def test_full_ensemble_projected_each_cycle(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(300, substream(32, "ens"), 2)
        recs = run_standard_ramsey(ens, quiet_lo(seed=32), cfg)
        assert all(r.n_sampled == 300 for r in recs)

    def test_recovers_static_offset(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(2000, substream(33, "ens"), 200)
        recs = run_standard_ramsey(ens, quiet_lo(delta_f0=0.3, seed=33), cfg)
        dfs = np.array([r.delta_f_hz for r in recs])
        assert dfs.mean() == pytest.approx(0.3, abs=0.02)

    def test_timestamps_increase_uniformly(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        for dead_time in (0.0, 0.01):
            cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det, dead_time=dead_time)
            ens = initialize_ensemble(200, substream(34, "ens"), 5)
            recs = run_standard_ramsey(ens, quiet_lo(seed=34), cfg)
            gaps = np.diff([r.timestamp for r in recs])
            # the spacing is the tau0 of the standard series in allan_standard.csv
            assert cfg.standard_cycle_time == pytest.approx(0.1 + dead_time + 2 * 7.5e-4 + 1e-3)
            assert np.allclose(gaps, cfg.standard_cycle_time, rtol=1e-9)


class TestRabi:
    def test_reinitialized_noiseless_traces_ideal_curve(self):
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        ens = initialize_ensemble(100, substream(41, "ens"))
        recs = run_rabi_ppm(ens, quiet_lo(seed=41), math.pi / 5, 10, True, det)
        for r in recs:
            ideal = (1 - math.cos(r.step * math.pi / 5)) / 2
            assert r.estimate == pytest.approx(ideal, abs=1e-12)

    def test_zero_rotation_baseline_reads_zero(self):
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        ens = initialize_ensemble(50, substream(42, "ens"))
        recs = run_rabi_ppm(ens, quiet_lo(seed=42), 0.3, 2, True, det)
        assert recs[0].step == 0 and recs[0].estimate == 0.0

    def test_ppm_mode_shrinks_contrast(self):
        # back-action pulls the accumulated-rotation curve toward 1/2
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        reps = 200
        k = 5
        acc = np.zeros(k + 1)
        for r in range(reps):
            ens = initialize_ensemble(2000, substream(43, "ens", r))
            lo = make_local_oscillator(12.6e9, 0.0, NoiseSpec(), substream(43, "lo", r))
            recs = run_rabi_ppm(ens, lo, math.pi / 6, k, False, det)
            acc += [x.estimate for x in recs]
        mean = acc / reps
        frozen = [0.0669872981, 0.2275, 0.4255651165, 0.60612825, 0.7283123687]
        for i, expect in enumerate(frozen, start=1):
            assert mean[i] == pytest.approx(expect, abs=0.01)

    def test_ppm_mode_counts_sampled_subset(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        ens = initialize_ensemble(3000, substream(44, "ens"))
        recs = run_rabi_ppm(ens, quiet_lo(seed=44), 0.5, 3, False, det)
        for r in recs:
            assert 0 < r.n_sampled < 3000

    def test_rotation_step_must_be_positive(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        ens = initialize_ensemble(10, substream(45, "ens"))
        with pytest.raises(ValueError):
            run_rabi_ppm(ens, quiet_lo(seed=45), 0.0, 3, True, det)
        with pytest.raises(ValueError):
            run_rabi_ppm(ens, quiet_lo(seed=45), 0.5, 0, True, det)


class TestDecoherenceModel:
    def test_first_cycle_has_no_prior_projection(self):
        assert predicted_projected_fraction(DecoherenceModel(p=0.37, amplitude=1.0), 1) == 0.0

    def test_slow_growth_frozen_value(self):
        model = DecoherenceModel(p=0.01, amplitude=1.0)
        assert predicted_projected_fraction(model, 11) == pytest.approx(
            0.09561792499119559, rel=1e-12
        )

    def test_fitted_rate_frozen_value(self):
        model = DecoherenceModel(p=0.18, amplitude=1.0)
        assert predicted_projected_fraction(model, 4) == pytest.approx(0.448632, rel=1e-9)

    def test_vectorized(self):
        model = DecoherenceModel(p=0.5, amplitude=2.0)
        out = predicted_projected_fraction(model, np.array([1, 2, 3]))
        assert np.allclose(out, [0.0, 1.0, 1.5])

    def test_index_validation(self):
        with pytest.raises(ValueError):
            predicted_projected_fraction(DecoherenceModel(p=0.1, amplitude=1.0), 0)
        with pytest.raises(ValueError):
            DecoherenceModel(p=1.5, amplitude=1.0)

    def test_fit_round_trip_noiseless(self):
        n = np.arange(1, 9)
        data = 0.9 * (1 - 0.82 ** (n - 1.0))
        fit = fit_decoherence(n, data)
        assert fit.model.p == pytest.approx(0.18, abs=1e-6)
        assert fit.model.amplitude == pytest.approx(0.9, abs=1e-6)
        assert fit.residual_norm < 1e-7

    def test_fit_all_zero_series(self):
        fit = fit_decoherence([1, 2, 3, 4], [0.0, 0.0, 0.0, 0.0])
        assert fit.model.p == 0.0
        assert fit.model.amplitude == 0.0

    def test_fit_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_decoherence([1, 2], [0.0, 0.1])

    def test_fit_ci_brackets_estimate(self):
        rng = np.random.default_rng(7)
        n = np.arange(1, 9)
        data = 0.95 * (1 - 0.82 ** (n - 1.0)) + rng.normal(0, 0.003, 8)
        fit = fit_decoherence(n, data)
        lo, hi = fit.p_ci95
        assert lo < fit.model.p < hi
        assert fit.p_stderr > 0

    def test_t_quantile_matches_scipy(self):
        for nu in range(1, 99):
            assert _t_quantile(0.975, nu) == pytest.approx(stats.t.ppf(0.975, nu), rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_matches_curve_fit(self, seed):
        # reference: curve_fit on the same bounded problem, run to
        # convergence (its default xtol stops up to 2e-7 short in p). The
        # n = 1 point is 0 for every model, so it moves neither the
        # optimum nor J^T J; the fit leaves it out of s^2 and the dof, and
        # so does the reference, which sees only the n > 1 points.
        rng = np.random.default_rng(seed)
        n = np.arange(1, 9)
        data = 0.95 * (1 - 0.82 ** (n - 1.0)) + rng.normal(0, 0.003, 8)
        popt, pcov = optimize.curve_fit(
            _growth, n[1:], data[1:], p0=(0.2, data.max()), bounds=([0.0, 0.0], [1.0, np.inf]),
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
        )
        fit = fit_decoherence(n, data)
        assert fit.model.p == pytest.approx(popt[0], rel=1e-7)
        assert fit.model.amplitude == pytest.approx(popt[1], rel=1e-7)
        ref_stderr = math.sqrt(pcov[0, 0])
        assert fit.p_stderr == pytest.approx(ref_stderr, rel=1e-6)
        tq = stats.t.ppf(0.975, 5)
        assert fit.p_ci95 == pytest.approx((popt[0] - tq * ref_stderr, popt[0] + tq * ref_stderr))

    @pytest.mark.parametrize("m2, m3", [(0.17, 0.31), (0.5, 0.75), (0.02, 0.039), (0.3, 0.3)])
    def test_three_cycle_fit_is_exact_without_ci(self, m2, m3):
        # two informative points, two parameters: m2 = a p and
        # m3 = a p (2 - p), so p = 2 - m3 / m2 and no residual dof is left
        fit = fit_decoherence([1, 2, 3], [0.0, m2, m3])
        p = 2.0 - m3 / m2
        assert fit.model.p == pytest.approx(p, rel=1e-10)
        assert fit.model.amplitude == pytest.approx(m2 / p, rel=1e-10)
        assert fit.residual_norm < 1e-12
        assert fit.p_stderr is None and fit.p_ci95 is None


def test_ramsey_config_validation():
    det = DetectionConfig(p=0.18, sigma_tech=0.0)
    with pytest.raises(ValueError):
        RamseyConfig(t_fp=0.0, detection=det)
    with pytest.raises(ValueError):
        RamseyConfig(n_cp=0, detection=det)
    with pytest.raises(ValueError):
        RamseyConfig(dead_time=-1.0, detection=det)
    cfg = RamseyConfig(detection=det)
    assert cfg.cycle_time == pytest.approx(0.1 + 4 * 7.5e-4 + 1e-3)


def test_dead_time_lengthens_cycles_and_phase():
    det = DetectionConfig(p=0.18, sigma_tech=0.0)
    base = RamseyConfig(t_fp=0.1, n_cp=1, detection=det)
    slow = replace(base, dead_time=0.1)
    ens = initialize_ensemble(6000, substream(51, "ens"))
    r_fast = run_apl_block(ens, quiet_lo(delta_f0=0.2, seed=51), base)[0]
    ens = initialize_ensemble(6000, substream(51, "ens"))
    r_slow = run_apl_block(ens, quiet_lo(delta_f0=0.2, seed=51), slow)[0]
    # twice the free evolution, same estimator divisor t_fp
    assert r_slow.phi_n == pytest.approx(2 * r_fast.phi_n, abs=0.12)
    assert r_slow.timestamp - r_fast.timestamp == pytest.approx(0.1, rel=1e-9)


def test_tracked_estimates_under_read_by_the_response():
    # An ion first projected at readout k carries, to first order, the
    # phase of readout k into every later readout, so the mean estimate
    # of cycle n is R_n times the true offset. Tolerance, fixed before the
    # run: each readout averages +-1 over about p N sampled ions, so one
    # block's phase has sd 1/sqrt(p N) and the mean over B blocks of
    # estimate / offset a standard error 1/(n theta sqrt(p N B)); allow 4.
    # At theta = 0.01 rad per cycle the third-order terms of the arcsine
    # and of the collapsed ions' cos(phi_n - phi_k) move the exact mean by
    # less than 0.08 of that tolerance (n = 5, less below).
    p, n_cp, n_ions, blocks, theta, t_fp = 0.18, 5, 10**6, 10**4, 0.01, 0.1
    offset = theta / (TWO_PI * t_fp)
    cfg = RamseyConfig(t_fp=t_fp, n_cp=n_cp, detection=DetectionConfig(p=p, sigma_tech=0.0))
    ens = initialize_ensemble(n_ions, substream(61, "ens"), blocks)
    recs = run_apl_block(ens, quiet_lo(delta_f0=offset, seed=61), cfg)
    ratio = np.array([r.delta_f_hz for r in recs]).reshape(blocks, n_cp).mean(axis=0) / offset
    for n in range(1, n_cp + 1):
        r_n = (1 - p) ** (n - 1) + sum(k * p * (1 - p) ** (k - 1) for k in range(1, n)) / n
        se = 1.0 / (n * theta * math.sqrt(p * n_ions * blocks))
        assert abs(ratio[n - 1] - r_n) <= 4 * se, f"n={n}: {ratio[n - 1]:.5f} vs R_n {r_n:.5f}"
