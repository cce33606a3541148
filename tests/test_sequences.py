"""Measurement protocols and estimators."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats

from ionclock import diffusion
from ionclock.ensemble import DetectionConfig, initialize_ensemble
from ionclock.oscillator import NoiseSpec, advance, make_local_oscillator, phase_increments
from ionclock.rng import substream
from ionclock.sequences import (
    DecoherenceModel,
    _T_DOF_CAP,
    _argmin_1d,
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
        # the message counts the saturated estimates of the call
        match = r"^2 of 3 population estimates within 0\.05 of a rail; phase readout unreliable$"
        with pytest.warns(SaturationWarning, match=match):
            estimate_phase(np.array([0.97, 0.5, 0.01]))
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
        recs = run_apl_block(ens, quiet_lo(seed=24), cfg)
        first = 7.5e-4 + 0.11 + 7.5e-4 + 1e-3
        assert recs.timestamp[0, 0] == pytest.approx(first, rel=1e-12)
        assert recs.timestamp[0, 1] == pytest.approx(first + cfg.cycle_time, rel=1e-12)

    def test_table_columns_and_rows_agree(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.1)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(300, substream(29, "ens"), 4)
        recs = run_apl_block(ens, quiet_lo(delta_f0=0.1, seed=29), cfg)
        assert len(recs) == 12
        assert recs.block.tolist() == [[b] * 3 for b in range(4)]
        assert recs.n.tolist() == [[1, 2, 3]] * 4
        rows = list(recs)
        assert len(rows) == len(recs)
        assert not hasattr(rows[0], "measurement")
        names = "block n timestamp estimate n_sampled phi_n delta_f_hz projected_before"
        for name in names.split():
            column = getattr(recs, name)
            assert column.shape == (4, cfg.n_cp)
            values = [getattr(r, name) for r in rows]
            assert values == column.ravel().tolist()
            assert all(type(v) is type(values[0]) for v in values)
        assert type(rows[0].n_sampled) is int and type(rows[0].estimate) is float

    def test_beam_overlap_block(self, readout_starts, first_steps):
        dcfg = diffusion.DiffusionConfig()
        det = DetectionConfig(sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det, diffusion=dcfg)
        n_ions, n_blocks = 400, 2
        ens = initialize_ensemble(n_ions, substream(26, "ens"), n_blocks)
        recs = run_apl_block(ens, quiet_lo(seed=26), cfg)
        assert [r.block for r in recs] == [0, 0, 0, 1, 1, 1]
        assert recs.projected_before[:, 0].tolist() == [0.0] * n_blocks
        second = recs.projected_before[:, 1]
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
        assert np.all(recs.n_sampled[:, 0] < n_ions)
        second = recs.projected_before[:, 1]
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
        batch = initialize_ensemble(100, substream(41, "ens"))
        est = run_rabi_ppm(batch, quiet_lo(seed=41), math.pi / 5, 10, True, det)
        ideal = (1 - np.cos(np.arange(11) * math.pi / 5)) / 2
        assert est.shape == (1, 11)
        assert est[0] == pytest.approx(ideal, abs=1e-12)

    def test_reinitialized_blocks_trace_one_curve(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        batch = initialize_ensemble(100, substream(46, "ens"), 3)
        est = run_rabi_ppm(batch, quiet_lo(seed=46), 0.4, 7, True, det)
        ideal = (1 - np.cos(np.arange(8) * 0.4)) / 2
        assert est.shape == (3, 8)
        assert np.array_equal(est[0], est[1]) and np.array_equal(est[0], est[2])
        assert est[0] == pytest.approx(ideal, abs=1e-12)

    def test_zero_rotation_baseline_reads_zero(self):
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        batch = initialize_ensemble(50, substream(42, "ens"))
        est = run_rabi_ppm(batch, quiet_lo(seed=42), 0.3, 2, True, det)
        assert est[0, 0] == 0.0

    def test_ppm_mode_shrinks_contrast(self):
        # back-action pulls the accumulated-rotation curve toward 1/2
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        reps = 200
        k = 5
        batch = initialize_ensemble(2000, substream(43, "ens"), reps)
        lo = make_local_oscillator(12.6e9, 0.0, NoiseSpec(), substream(43, "lo"))
        mean = run_rabi_ppm(batch, lo, math.pi / 6, k, False, det).mean(axis=0)
        frozen = [0.0669872981, 0.2275, 0.4255651165, 0.60612825, 0.7283123687]
        for i, expect in enumerate(frozen, start=1):
            assert mean[i] == pytest.approx(expect, abs=0.01)

    def test_ppm_batch_draws_one_lo_record(self):
        # the blocks run back to back: B (n_steps + 1) readout windows of one record
        det = DetectionConfig(p=0.18, sigma_tech=0.1, measurement_duration=2e-3)
        blocks, n_steps = 4, 6
        spec = NoiseSpec(h0=1e-22, h_minus1=1e-23, h_minus2=1e-24)
        lo = make_local_oscillator(12.6e9, 0.3, spec, substream(47, "lo"))
        twin = make_local_oscillator(12.6e9, 0.3, spec, substream(47, "lo"))
        batch = initialize_ensemble(500, substream(47, "ens"), blocks)
        est = run_rabi_ppm(batch, lo, 0.5, n_steps, False, det)
        assert est.shape == (blocks, n_steps + 1)
        phase_increments(twin, det.measurement_duration, blocks * (n_steps + 1))
        assert advance(lo, 0.1) == advance(twin, 0.1)

    def test_zero_readout_window_drifts_by_nothing(self):
        # a zero-length window draws no LO record: the same estimates as a
        # quiet, zero-offset LO over a positive window
        spec = NoiseSpec(h0=1e-22, h_minus1=1e-23, h_minus2=1e-24)
        est = {}
        for duration, lo in (
            (0.0, make_local_oscillator(12.6e9, 0.3, spec, substream(48, "lo"))),
            (1e-3, quiet_lo(seed=48)),
        ):
            det = DetectionConfig(p=0.18, sigma_tech=0.1, measurement_duration=duration)
            batch = initialize_ensemble(500, substream(48, "ens"), 3)
            est[duration] = run_rabi_ppm(batch, lo, 0.5, 6, False, det)
        assert np.array_equal(est[0.0], est[1e-3])

    def test_rotation_step_must_be_positive(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        batch = initialize_ensemble(10, substream(45, "ens"))
        with pytest.raises(ValueError):
            run_rabi_ppm(batch, quiet_lo(seed=45), 0.0, 3, True, det)
        with pytest.raises(ValueError):
            run_rabi_ppm(batch, quiet_lo(seed=45), 0.5, 0, True, det)


def test_argmin_ends_where_floats_are_coarser_than_its_tolerance():
    # above 512 adjacent floats lie more than 1e-13 apart, so the bracket
    # cannot shrink to 1e-13; the search stops after its step cap
    x = _argmin_1d(lambda w: (w - 1000.3) ** 2, 950.0, 1050.0)
    assert x == pytest.approx(1000.3, abs=1e-9)


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
        fit = fit_decoherence(data[None, :])
        assert fit.model.p == pytest.approx(0.18, abs=1e-6)
        assert fit.model.amplitude == pytest.approx(0.9, abs=1e-6)
        assert fit.residual_norm < 1e-7

    def test_fit_all_zero_series(self):
        fit = fit_decoherence(np.zeros((2, 4)))
        assert fit.model.p == 0.0
        assert fit.model.amplitude == 0.0

    def test_fit_needs_three_points(self):
        for bad in ([[0.0, 0.1]], [0.0, 0.1, 0.2], np.zeros((0, 4))):
            with pytest.raises(ValueError):
                fit_decoherence(bad)

    def test_fit_ci_brackets_estimate(self):
        rng = np.random.default_rng(7)
        n = np.arange(1, 9)
        table = 0.95 * (1 - 0.82 ** (n - 1.0)) + rng.normal(0, 0.003, (20, 8))
        fit = fit_decoherence(table)
        lo, hi = fit.p_ci95
        assert lo < fit.model.p < hi
        assert fit.p_stderr > 0

    def test_t_quantile_matches_scipy(self):
        for nu in (*range(1, 99), *range(100, _T_DOF_CAP + 1, 100)):
            assert _t_quantile(0.975, nu) == pytest.approx(stats.t.ppf(0.975, nu), rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_fit_matches_curve_fit(self, seed):
        # reference: curve_fit on the same bounded problem, run to
        # convergence (its default xtol stops up to 2e-7 short in p). The
        # n = 1 point is 0 for every model, so it moves neither the
        # optimum nor J^T J; the reference sees only the n > 1 points.
        rng = np.random.default_rng(seed)
        n = np.arange(1, 9)
        data = 0.95 * (1 - 0.82 ** (n - 1.0)) + rng.normal(0, 0.003, 8)
        popt, _ = optimize.curve_fit(
            _growth, n[1:], data[1:], p0=(0.2, data.max()), bounds=([0.0, 0.0], [1.0, np.inf]),
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
        )
        fit = fit_decoherence(data[None, :])
        assert fit.model.p == pytest.approx(popt[0], rel=1e-7)
        assert fit.model.amplitude == pytest.approx(popt[1], rel=1e-7)

    @pytest.mark.parametrize("blocks", [2, 40, 1500])
    def test_stderr_is_the_block_sandwich(self, blocks):
        # reference: the sandwich (J^T J)^-1 J^T (Cov_rows / B) J (J^T J)^-1
        # with a central-difference Jacobian and numpy's row covariance;
        # the t quantile takes B - 1 degrees of freedom up to the cap
        rng = np.random.default_rng(blocks)
        n = np.arange(1, 9)
        table = 0.95 * (1 - 0.82 ** (n - 1.0)) + rng.normal(0, 0.01, (blocks, 8))
        fit = fit_decoherence(table)
        p, a, h = fit.model.p, fit.model.amplitude, 1e-6
        jac = np.column_stack(
            [
                (_growth(n, p + h, a) - _growth(n, p - h, a)) / (2 * h),
                (_growth(n, p, a + h) - _growth(n, p, a - h)) / (2 * h),
            ]
        )
        bread = np.linalg.inv(jac.T @ jac) @ jac.T
        cov = bread @ (np.cov(table, rowvar=False) / blocks) @ bread.T
        ref = math.sqrt(cov[0, 0])
        assert fit.p_stderr == pytest.approx(ref, rel=1e-6)
        tq = stats.t.ppf(0.975, min(blocks - 1, _T_DOF_CAP))
        assert fit.p_ci95 == pytest.approx((p - tq * ref, p + tq * ref), rel=1e-6)

    def test_interval_covers_p_at_the_fig5_setting(self):
        # 400 batches of 32 eight-cycle blocks (2000 ions, p = 0.18,
        # sigma_tech = 0.1, quiet LO), cut from one 12,800-block run. The
        # 95% interval must cover p in 380 +- 3 sigma of Binomial(400,
        # 0.95) batches: [367, 393], fixed before the run.
        batches, per_batch, p = 400, 32, 0.18
        cfg = RamseyConfig(t_fp=0.1, n_cp=8, detection=DetectionConfig(p=p, sigma_tech=0.1))
        ens = initialize_ensemble(2000, substream(2026, "ens"), batches * per_batch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            proj = run_apl_block(ens, quiet_lo(seed=2026), cfg).projected_before
        covered = 0
        for table in proj.reshape(batches, per_batch, 8):
            lo, hi = fit_decoherence(table).p_ci95
            covered += lo <= p <= hi
        assert 367 <= covered <= 393, f"{covered} of {batches} intervals cover p"

    @pytest.mark.parametrize("m2, m3", [(0.17, 0.31), (0.5, 0.75), (0.02, 0.039), (0.3, 0.3)])
    def test_three_cycle_fit_is_exact_without_ci(self, m2, m3):
        # two informative points, two parameters: m2 = a p and
        # m3 = a p (2 - p), so p = 2 - m3 / m2; one block has no spread
        # over blocks, so no interval
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            fit = fit_decoherence([[0.0, m2, m3]])
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
    (r_fast,) = run_apl_block(ens, quiet_lo(delta_f0=0.2, seed=51), base)
    ens = initialize_ensemble(6000, substream(51, "ens"))
    (r_slow,) = run_apl_block(ens, quiet_lo(delta_f0=0.2, seed=51), slow)
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
    ratio = recs.delta_f_hz.mean(axis=0) / offset
    for n in range(1, n_cp + 1):
        r_n = (1 - p) ** (n - 1) + sum(k * p * (1 - p) ** (k - 1) for k in range(1, n)) / n
        se = 1.0 / (n * theta * math.sqrt(p * n_ions * blocks))
        assert abs(ratio[n - 1] - r_n) <= 4 * se, f"n={n}: {ratio[n - 1]:.5f} vs R_n {r_n:.5f}"
