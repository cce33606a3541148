"""Measurement protocols and estimators."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize, stats

from ionclock import diffusion, sequences
from ionclock.ensemble import DetectionConfig, initialize_ensemble, partial_projection
from ionclock.oscillator import PRESETS, NoiseSpec, make_local_oscillator, phase_increments
from ionclock.rng import substream
from ionclock.sequences import (
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


def lo_record(shape, dt, delta_f0=0.0, spec=NoiseSpec(), seed=1):
    """The block-major phase increments of an LO over consecutive intervals of dt."""
    lo = make_local_oscillator(12.6e9, delta_f0, spec, substream(seed, "lo"))
    return phase_increments(lo, dt, math.prod(shape)).reshape(shape)


def quiet_record(cfg, blocks, delta_f0=0.0, cycles=None):
    """The (blocks, cycles or cfg.n_cp) record of a noiseless LO over each cfg.free_time."""
    return lo_record((blocks, cycles or cfg.n_cp), cfg.free_time, delta_f0)


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
        recs = run_apl_block(ens, quiet_record(cfg, 1, 0.25), cfg)
        assert recs.n.tolist() == [[1, 2, 3]]
        # QPN on ~720 sampled ions gives phase sd ~ 0.037 rad
        assert np.all(np.abs(recs.phi_n - TWO_PI * 0.25 * 0.1 * recs.n) <= 0.2)
        assert np.all(np.abs(recs.delta_f_hz - 0.25) <= 0.35 / recs.n)

    def test_phase_accumulates_across_cycles(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=4, detection=det)
        ens = initialize_ensemble(8000, substream(22, "ens"))
        recs = run_apl_block(ens, quiet_record(cfg, 1, 0.2), cfg)
        assert np.all(np.diff(recs.phi_n[0]) > 0)

    def test_projected_fraction_grows_geometrically(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=5, detection=det)
        ens = initialize_ensemble(6000, substream(23, "ens"))
        recs = run_apl_block(ens, quiet_record(cfg, 1), cfg)
        expected = 1.0 - 0.82 ** (recs.n - 1)
        sd = np.sqrt(np.maximum(expected * (1 - expected), 1e-9) / 6000)
        assert np.all(np.abs(recs.projected_before - expected) <= np.maximum(4 * sd, 1e-9))

    def test_timestamps_account_for_all_stages(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0, measurement_duration=1e-3)
        cfg = RamseyConfig(
            t_fp=0.1, pi2_duration=7.5e-4, n_cp=2, detection=det, dead_time=0.01
        )
        ens = initialize_ensemble(500, substream(24, "ens"))
        recs = run_apl_block(ens, quiet_record(cfg, 1), cfg)
        first = 7.5e-4 + 0.11 + 7.5e-4 + 1e-3
        assert recs.timestamp[0, 0] == pytest.approx(first, rel=1e-12)
        assert recs.timestamp[0, 1] == pytest.approx(first + cfg.cycle_time, rel=1e-12)

    def test_table_columns_and_rows_agree(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.1)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(300, substream(29, "ens"), 4)
        recs = run_apl_block(ens, quiet_record(cfg, 4, 0.1), cfg)
        assert recs.block.tolist() == [[b] * 3 for b in range(4)]
        assert recs.n.tolist() == [[1, 2, 3]] * 4
        rows = list(recs)
        assert len(rows) == 12
        assert not hasattr(rows[0], "measurement")
        names = "block n timestamp estimate phi_n delta_f_hz projected_before"
        for name in names.split():
            column = getattr(recs, name)
            assert column.shape == (4, cfg.n_cp)
            values = [getattr(r, name) for r in rows]
            assert values == column.ravel().tolist()
            assert all(type(v) is type(values[0]) for v in values)
        assert type(rows[0].n) is int and type(rows[0].estimate) is float

    def test_beam_overlap_block(self, readout_starts, first_steps):
        dcfg = diffusion.DiffusionConfig()
        det = DetectionConfig(sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det, diffusion=dcfg)
        n_ions, n_blocks = 400, 2
        ens = initialize_ensemble(n_ions, substream(26, "ens"), n_blocks)
        recs = run_apl_block(ens, quiet_record(cfg, n_blocks), cfg)
        assert recs.block.ravel().tolist() == [0, 0, 0, 1, 1, 1]
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
        recs = run_apl_block(ens, quiet_record(cfg, n_blocks), cfg)
        second = recs.projected_before[:, 1]
        assert np.all(second < 1)
        sd = math.sqrt(0.17 * 0.83 / (n_ions * n_blocks))
        assert np.mean(second) == pytest.approx(0.17, abs=0.02 + 4 * sd)

    def test_transport_walls_come_from_the_diffusion_config(self, readout_starts):
        dcfg = diffusion.DiffusionConfig(cloud_length=1e-3, beam_interval=(-1e-4, 1e-4))
        det = DetectionConfig(sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det, diffusion=dcfg)
        ens = initialize_ensemble(400, substream(28, "ens"), 2)
        run_apl_block(ens, quiet_record(cfg, 2), cfg)
        assert len(readout_starts) == cfg.n_cp
        for z in readout_starts:
            assert np.all(np.abs(z) <= 0.5e-3)

    def test_same_seed_reproduces_block(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.1)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)

        def run():
            ens = initialize_ensemble(1000, substream(25, "ens"))
            return run_apl_block(ens, quiet_record(cfg, 1, 0.1), cfg)

        a, b = run(), run()
        assert np.array_equal(a.estimate, b.estimate)
        assert np.array_equal(a.delta_f_hz, b.delta_f_hz)


class TestStandardRamsey:
    def test_zero_offset_reads_half_on_average(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(2000, substream(31, "ens"), 60)
        recs = run_standard_ramsey(ens, quiet_record(cfg, 60, cycles=1), cfg)
        assert recs.estimate.shape == (60, 1)
        assert np.all(recs.n == 1)
        ests = recs.estimate[:, 0]
        # full projection of 2000 ions at the equator: sd ~ 0.011
        assert np.all(np.abs(ests - 0.5) < 6 * 0.0112)
        assert abs(ests.mean() - 0.5) < 5 * 0.0112 / math.sqrt(60)

    def test_full_ensemble_projected_each_cycle(self, monkeypatch):
        sizes = []

        def spy(*args, **kwargs):
            state, m = partial_projection(*args, **kwargs)
            sizes.append(m.sample_sizes)
            return state, m

        monkeypatch.setattr(sequences, "partial_projection", spy)
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(300, substream(32, "ens"), 2)
        run_standard_ramsey(ens, quiet_record(cfg, 2, cycles=1), cfg)
        assert [s.tolist() for s in sizes] == [[300, 300]]

    def test_recovers_static_offset(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
        ens = initialize_ensemble(2000, substream(33, "ens"), 200)
        recs = run_standard_ramsey(ens, quiet_record(cfg, 200, 0.3, cycles=1), cfg)
        dfs = recs.delta_f_hz[:, 0]
        assert dfs.mean() == pytest.approx(0.3, abs=0.02)

    def test_timestamps_increase_uniformly(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        for dead_time in (0.0, 0.01):
            cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det, dead_time=dead_time)
            ens = initialize_ensemble(200, substream(34, "ens"), 5)
            recs = run_standard_ramsey(ens, quiet_record(cfg, 5, cycles=1), cfg)
            gaps = np.diff(recs.timestamp[:, 0])
            # the spacing is the tau0 of the standard series in allan_standard.csv
            assert cfg.standard_cycle_time == pytest.approx(0.1 + dead_time + 2 * 7.5e-4 + 1e-3)
            assert np.allclose(gaps, cfg.standard_cycle_time, rtol=1e-9)


class TestRabi:
    def test_reinitialized_noiseless_traces_ideal_curve(self):
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        batch = initialize_ensemble(100, substream(41, "ens"))
        est = run_rabi_ppm(batch, None, math.pi / 5, 10, True, det)
        ideal = (1 - np.cos(np.arange(11) * math.pi / 5)) / 2
        assert est.shape == (1, 11)
        assert est[0] == pytest.approx(ideal, abs=1e-12)

    def test_reinitialized_blocks_trace_one_curve(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        batch = initialize_ensemble(100, substream(46, "ens"), 3)
        est = run_rabi_ppm(batch, None, 0.4, 7, True, det)
        ideal = (1 - np.cos(np.arange(8) * 0.4)) / 2
        assert est.shape == (3, 8)
        assert np.array_equal(est[0], est[1]) and np.array_equal(est[0], est[2])
        assert est[0] == pytest.approx(ideal, abs=1e-12)

    def test_zero_rotation_baseline_reads_zero(self):
        det = DetectionConfig(p=1.0, sigma_tech=0.0)
        batch = initialize_ensemble(50, substream(42, "ens"))
        est = run_rabi_ppm(batch, None, 0.3, 2, True, det)
        assert est[0, 0] == 0.0

    def test_ppm_mode_shrinks_contrast(self):
        # back-action pulls the accumulated-rotation curve toward 1/2
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        reps = 200
        k = 5
        batch = initialize_ensemble(2000, substream(43, "ens"), reps)
        drift = lo_record((reps, k + 1), det.measurement_duration)
        mean = run_rabi_ppm(batch, drift, math.pi / 6, k, False, det).mean(axis=0)
        frozen = [0.0669872981, 0.2275, 0.4255651165, 0.60612825, 0.7283123687]
        for i, expect in enumerate(frozen, start=1):
            assert mean[i] == pytest.approx(expect, abs=0.01)

    def test_ppm_step_k_turns_by_readout_window_k_minus_1(self):
        # the blocks run back to back: row b of the (B, n_steps + 1) record is
        # block b; step k reads window k - 1, and the last window is unread
        det = DetectionConfig(p=0.18, sigma_tech=0.1, measurement_duration=2e-3)
        blocks, n_steps = 4, 6
        spec = NoiseSpec(h0=1e-22, h_minus1=1e-23, h_minus2=1e-24)
        drift = lo_record((blocks, n_steps + 1), det.measurement_duration, 30.0, spec, seed=47)
        last_changed = drift.copy()
        last_changed[:, -1] += 1.0

        def run(record):
            batch = initialize_ensemble(500, substream(47, "ens"), blocks)
            return run_rabi_ppm(batch, record, 0.5, n_steps, False, det)

        est = run(drift)
        assert est.shape == (blocks, n_steps + 1)
        assert np.array_equal(run(last_changed), est)
        assert not np.array_equal(run(np.zeros_like(drift)), est)

    def test_rotation_step_must_be_positive(self):
        det = DetectionConfig(p=0.18, sigma_tech=0.0)
        batch = initialize_ensemble(10, substream(45, "ens"))
        with pytest.raises(ValueError):
            run_rabi_ppm(batch, None, 0.0, 3, True, det)
        with pytest.raises(ValueError):
            run_rabi_ppm(batch, None, 0.5, 0, True, det)


def test_a_record_of_the_wrong_shape_is_a_value_error():
    # each protocol takes one LO increment per entry of the table it returns
    det = DetectionConfig(p=0.18, sigma_tech=0.0)
    cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=det)
    batch = initialize_ensemble(100, substream(71, "ens"), 2)
    for shape in ((2, 2), (2, 4), (3, 3), (6,), (2, 3, 1)):
        with pytest.raises(ValueError, match=r"need a \(2, 3\) LO record"):
            run_apl_block(batch, np.zeros(shape), cfg)
    for shape in ((2,), (1, 1), (2, 3)):
        with pytest.raises(ValueError, match=r"need a \(2, 1\) LO record"):
            run_standard_ramsey(batch, np.zeros(shape), cfg)
    for record in (np.zeros((2, 6)), np.zeros((2, 8)), np.zeros(14), None):
        with pytest.raises(ValueError, match=r"need a \(2, 7\) LO record"):
            run_rabi_ppm(batch, record, 0.5, 6, False, det)
    # the re-initialized mode never reads the LO
    assert run_rabi_ppm(batch, None, 0.5, 6, True, det).shape == (2, 7)


_TRACKING = RamseyConfig(t_fp=1e-3, n_cp=3, detection=DetectionConfig(p=0.18, sigma_tech=0.1))
_BEAM = replace(_TRACKING, detection=DetectionConfig(sigma_tech=0.1), diffusion=diffusion.DiffusionConfig())
_PROBE = DetectionConfig(p=0.18, sigma_tech=0.1)


def _noisy(shape):
    """A record of the noisy preset, whose phase stays inside the arcsine branch over 1 ms steps."""
    return lo_record(shape, 1e-3, 0.0, PRESETS["noisy"], seed=81)


# protocol -> (its run on a fresh (3 blocks, 300 ions) batch, its first, middle and last estimate)
FROZEN_DRAWS = {
    "tracking": (
        lambda b: run_apl_block(b, _noisy((3, 3)), _TRACKING),
        [0.32855448119988206, 0.4771141223771512, 0.7989924653720984],
    ),
    "beam": (
        lambda b: run_apl_block(b, quiet_record(_BEAM, 3, 0.2), _BEAM),
        [0.45468661928800863, 0.33669134900098463, 0.24378945826135573],
    ),
    "standard": (
        lambda b: run_standard_ramsey(b, _noisy((3, 1)), _TRACKING),
        [0.2629981801457559, 0.4608024559127233, 0.884410936794475],
    ),
    "rabi-reinitialized": (
        lambda b: run_rabi_ppm(b, None, 0.4, 4, True, _PROBE),
        [0.017119516111287283, 0.034515318264808234, 0.3945004969380685],
    ),
    "rabi-accumulated": (
        lambda b: run_rabi_ppm(b, _noisy((3, 5)), 0.4, 4, False, _PROBE),
        [-0.09000327482848651, 0.21118221478890248, 0.4886792768955336],
    ),
}


@pytest.mark.parametrize("protocol", FROZEN_DRAWS)
def test_draws_are_frozen(protocol):
    # every draw of a protocol stays where it was: a change to the step loop
    # that reorders, adds or drops one moves these entries
    run, frozen = FROZEN_DRAWS[protocol]
    result = run(initialize_ensemble(300, substream(81, protocol), 3))
    est = getattr(result, "estimate", result)
    assert est.ravel()[[0, est.size // 2, -1]].tolist() == pytest.approx(frozen, rel=1e-9)


def test_argmin_ends_where_floats_are_coarser_than_its_tolerance():
    # above 512 adjacent floats lie more than 1e-13 apart, so the bracket
    # cannot shrink to 1e-13; the search stops after its step cap
    x = _argmin_1d(lambda w: (w - 1000.3) ** 2, 950.0, 1050.0)
    assert x == pytest.approx(1000.3, abs=1e-9)


class TestDecoherenceModel:
    def test_first_cycle_has_no_prior_projection(self):
        assert predicted_projected_fraction(0.37, 1.0, 1) == 0.0

    def test_slow_growth_frozen_value(self):
        assert predicted_projected_fraction(0.01, 1.0, 11) == pytest.approx(
            0.09561792499119559, rel=1e-12
        )

    def test_fitted_rate_frozen_value(self):
        assert predicted_projected_fraction(0.18, 1.0, 4) == pytest.approx(0.448632, rel=1e-9)

    def test_vectorized(self):
        out = predicted_projected_fraction(0.5, 2.0, np.array([1, 2, 3]))
        assert np.allclose(out, [0.0, 1.0, 1.5])

    def test_index_validation(self):
        with pytest.raises(ValueError):
            predicted_projected_fraction(0.1, 1.0, 0)
        with pytest.raises(ValueError):
            predicted_projected_fraction(1.5, 1.0, 1)

    def test_fit_round_trip_noiseless(self):
        n = np.arange(1, 9)
        data = 0.9 * (1 - 0.82 ** (n - 1.0))
        fit = fit_decoherence(data[None, :])
        assert fit.p == pytest.approx(0.18, abs=1e-6)
        assert fit.amplitude == pytest.approx(0.9, abs=1e-6)
        assert fit.residual_norm < 1e-7

    def test_fit_all_zero_series(self):
        fit = fit_decoherence(np.zeros((2, 4)))
        assert fit.p == 0.0
        assert fit.amplitude == 0.0
        # p and the amplitude are not separately identified: no interval
        assert fit.p_stderr is None
        assert fit.p_ci95 is None

    def test_fit_needs_three_points(self):
        for bad in ([[0.0, 0.1]], [0.0, 0.1, 0.2], np.zeros((0, 4))):
            with pytest.raises(ValueError):
                fit_decoherence(bad)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_fits_of_non_finite_data_raise_fit_failure(self, bad):
        # the profile search meets inf * 0 and the like; it must not warn
        # first, which the RuntimeWarning filter would raise instead
        n = np.arange(1, 5)
        data = 0.9 * (1 - 0.82 ** (n - 1.0))
        data[2] = bad
        with pytest.raises(sequences.FitFailureError, match="^decoherence fit gave a non-finite result"):
            fit_decoherence(data[None, :])
        ks = np.arange(6)
        means = 0.1 + 0.8 * (1 - np.cos(ks * 0.5)) / 2
        means[3] = bad
        with pytest.raises(sequences.FitFailureError, match="^probe-curve fit gave a non-finite result"):
            sequences.fit_probe_curve(ks * 0.5, means)

    def test_fit_ci_brackets_estimate(self):
        rng = np.random.default_rng(7)
        n = np.arange(1, 9)
        table = 0.95 * (1 - 0.82 ** (n - 1.0)) + rng.normal(0, 0.003, (20, 8))
        fit = fit_decoherence(table)
        lo, hi = fit.p_ci95
        assert lo < fit.p < hi
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
        assert fit.p == pytest.approx(popt[0], rel=1e-7)
        assert fit.amplitude == pytest.approx(popt[1], rel=1e-7)

    @pytest.mark.parametrize("blocks", [2, 40, 1500])
    def test_stderr_is_the_block_sandwich(self, blocks):
        # reference: the sandwich (J^T J)^-1 J^T (Cov_rows / B) J (J^T J)^-1
        # with a central-difference Jacobian and numpy's row covariance;
        # the t quantile takes B - 1 degrees of freedom up to the cap
        rng = np.random.default_rng(blocks)
        n = np.arange(1, 9)
        table = 0.95 * (1 - 0.82 ** (n - 1.0)) + rng.normal(0, 0.01, (blocks, 8))
        fit = fit_decoherence(table)
        p, a, h = fit.p, fit.amplitude, 1e-6
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
            proj = run_apl_block(ens, quiet_record(cfg, batches * per_batch), cfg).projected_before
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
        assert fit.p == pytest.approx(p, rel=1e-10)
        assert fit.amplitude == pytest.approx(m2 / p, rel=1e-10)
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
    fast_recs = run_apl_block(ens, quiet_record(base, 1, 0.2), base)
    ens = initialize_ensemble(6000, substream(51, "ens"))
    slow_recs = run_apl_block(ens, quiet_record(slow, 1, 0.2), slow)
    # twice the free evolution, same estimator divisor t_fp
    assert slow_recs.phi_n[0, 0] == pytest.approx(2 * fast_recs.phi_n[0, 0], abs=0.12)
    assert slow_recs.timestamp[0, 0] - fast_recs.timestamp[0, 0] == pytest.approx(0.1, rel=1e-9)


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
    recs = run_apl_block(ens, quiet_record(cfg, blocks, offset), cfg)
    ratio = recs.delta_f_hz.mean(axis=0) / offset
    for n in range(1, n_cp + 1):
        r_n = (1 - p) ** (n - 1) + sum(k * p * (1 - p) ** (k - 1) for k in range(1, n)) / n
        se = 1.0 / (n * theta * math.sqrt(p * n_ions * blocks))
        assert abs(ratio[n - 1] - r_n) <= 4 * se, f"n={n}: {ratio[n - 1]:.5f} vs R_n {r_n:.5f}"
