"""End-to-end acceptance checks.

One test per claim, each printable as a single pass/fail line by
``pytest -v``. Statistical checks run on frozen seeds so every run of
the suite sees the same draw; tolerances are the contractual ones, not
tuned to the seed.
"""

import math
import shutil
import subprocess
import sys
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ionclock.diffusion import DiffusionConfig, fraction_struck, step_brownian
from ionclock.ensemble import DetectionConfig, initialize_ensemble
from ionclock.oscillator import NoiseSpec, generate_y_series, make_local_oscillator
from ionclock.rng import substream
from ionclock.sequences import (
    RamseyConfig,
    SaturationWarning,
    fit_decoherence,
    run_apl_block,
    run_rabi_ppm,
    run_standard_ramsey,
)
from ionclock.stability import (
    FractionalFrequencySeries,
    StabilityParams,
    allan_deviation,
    limit_apl_repetition,
    limit_technical,
    qpn_snr,
)

N_IONS = 2000
DET = DetectionConfig(p=0.18, sigma_tech=0.1)
TRACK_SEED = 20260822
N_BLOCKS = 10_000
N_STD_CYCLES = 12_000


def quiet_lo(seed_path, delta_f0=0.0):
    return make_local_oscillator(12.6e9, delta_f0, NoiseSpec(), substream(*seed_path))


@pytest.fixture(scope="module")
def tracked_blocks():
    """10^4 three-cycle tracking blocks, noiseless LO, frozen seed."""
    cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=DET)
    lo = quiet_lo((TRACK_SEED, "lo"))
    ens = initialize_ensemble(N_IONS, substream(TRACK_SEED, "ens"), N_BLOCKS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        recs = run_apl_block(ens, lo, cfg)
    df = np.array([r.delta_f_hz for r in recs]).reshape(N_BLOCKS, 3)
    return cfg, df


@pytest.fixture(scope="module")
def standard_cycles():
    """12000 independent full-projection cycles on the same noise level."""
    cfg = RamseyConfig(t_fp=0.1, n_cp=3, detection=DET)
    lo = quiet_lo((TRACK_SEED, "lo"))
    ens = initialize_ensemble(N_IONS, substream(TRACK_SEED, "std-ens"), N_STD_CYCLES)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        recs = run_standard_ramsey(ens, lo, cfg)
    y = np.array([r.delta_f_hz for r in recs]) / 12.6e9
    return cfg, FractionalFrequencySeries(y, cfg.standard_cycle_time)


def test_projected_fraction_matches_prediction_and_fit_recovers_p():
    # 32 blocks of 8 cycles; per-point binomial 3-sigma agreement with
    # 1 - (1-p)^(n-1), then the saturation fit recovers p = 0.18
    t_start = time.monotonic()
    seed = 1
    cfg = RamseyConfig(t_fp=0.1, n_cp=8, detection=DET)
    lo = quiet_lo((seed, "lo"))
    ens = initialize_ensemble(N_IONS, substream(seed, "ens"), 32)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SaturationWarning)
        recs = run_apl_block(ens, lo, cfg)
    proj = np.array([r.projected_before for r in recs]).reshape(32, 8)
    mean = proj.mean(axis=0)
    n = np.arange(1, 9)
    expected = 1.0 - 0.82 ** (n - 1.0)
    sigma = np.sqrt(expected * (1 - expected) / (32 * N_IONS))
    assert mean[0] == 0.0
    assert np.all(np.abs(mean[1:] - expected[1:]) <= 3 * sigma[1:])

    fit = fit_decoherence(proj)
    lo_ci, hi_ci = fit.p_ci95
    assert lo_ci <= 0.18 <= hi_ci, f"p={fit.model.p:.5f}, ci=({lo_ci:.5f}, {hi_ci:.5f})"
    assert time.monotonic() - t_start < 60.0


def test_tracked_estimate_noise_averages_down_as_one_over_n(tracked_blocks):
    _, df = tracked_blocks
    sd = df.std(axis=0, ddof=1)
    ratios = sd / sd[0]
    assert abs(ratios[1] / 0.5 - 1) < 0.10
    assert abs(ratios[2] / (1.0 / 3.0) - 1) < 0.10


def test_block_tracking_beats_standard_averaging_by_sqrt3(tracked_blocks, standard_cycles):
    cfg, df = tracked_blocks
    _, std_series = standard_cycles
    apl_series = FractionalFrequencySeries(df[:, 2] / 12.6e9, cfg.block_time)
    # equal cycle counts: three averaged independent cycles against one
    # three-cycle tracked block
    a_std = allan_deviation(std_series, [3 * std_series.tau0])[0].adev
    a_apl = allan_deviation(apl_series, [cfg.block_time])[0].adev
    ratio = a_std / a_apl
    assert abs(ratio / math.sqrt(3) - 1) < 0.10, f"ratio={ratio:.4f}"


def test_allan_slopes_half_for_standard_and_one_for_tracked(tracked_blocks, standard_cycles):
    _, std_series = standard_cycles
    taus = std_series.tau0 * np.arange(1, 11)
    pts = allan_deviation(std_series, taus)
    fit = stats.linregress(np.log([p.tau for p in pts]), np.log([p.adev for p in pts]))
    assert abs(fit.slope - (-0.5)) < 0.05, f"standard slope {fit.slope:.3f}"

    _, df = tracked_blocks
    sd = df.std(axis=0, ddof=1)
    fit2 = stats.linregress(np.log([1.0, 2.0, 3.0]), np.log(sd))
    assert abs(fit2.slope - (-1.0)) < 0.10, f"tracked slope {fit2.slope:.3f}"


def test_partial_projection_rabi_true_to_three_points_then_deviates():
    seed = 31415
    step = math.pi / 6
    n_steps = 6
    reps = 600
    batch = initialize_ensemble(N_IONS, substream(seed, "rabi"), reps)
    est = run_rabi_ppm(batch, quiet_lo((seed, "rabi-lo")), step, n_steps, False, DET)
    mean = est.mean(axis=0)
    per_trial_sd = est.std(axis=0, ddof=1)
    ideal = (1 - np.cos(np.arange(n_steps + 1) * step)) / 2
    dev = np.abs(mean - ideal)
    # indistinguishable from the ideal curve for the first three steps
    assert np.all(dev[1:4] <= per_trial_sd[1:4]), f"dev={dev[1:4]}"
    # geometric growth of the projected fraction pulls later points off
    assert np.all(np.diff(dev[2:]) > 0), f"dev tail={dev[2:]}"
    # and the simulated curve agrees with the independent expectation
    # recursion for the sampled-fraction back-action model
    frozen = np.array(
        [0.0669872981, 0.2275, 0.4255651165, 0.60612825, 0.7283123687, 0.7728330815]
    )
    se = per_trial_sd[1:] / math.sqrt(reps)
    assert np.all(np.abs(mean[1:] - frozen) < 4 * se)


def test_free_msd_linear_and_beam_fraction_calibrated():
    d, dt = 3.5e-6, 1e-5
    rng = substream(7, "msd")
    z = np.zeros(100_000)
    ts, msds = [], []
    for k in range(1, 101):
        z = step_brownian(z, d, dt, rng)
        if k % 10 == 0:
            ts.append(k * dt)
            msds.append(np.mean(z * z))
    fit = stats.linregress(ts, msds)
    assert abs(fit.slope / (2 * d) - 1) < 0.03, f"slope ratio {fit.slope / (2 * d):.4f}"
    assert fit.rvalue**2 > 0.99

    frac = fraction_struck(DiffusionConfig(), 1e-3, 50_000, substream(3, "beam"))
    assert abs(frac - 0.17) <= 0.02, f"struck fraction {frac:.4f}"


def test_allan_estimator_exact_on_toy_and_white_fm():
    t_start = time.monotonic()
    toy = FractionalFrequencySeries(np.array([1.0, -1.0] * 10), 1.0)
    for mode in ("overlapping", "non_overlapping"):
        assert allan_deviation(toy, [1.0], mode)[0].adev == pytest.approx(
            math.sqrt(2), rel=1e-15
        )

    h0 = 1e-2
    y = generate_y_series(NoiseSpec(h0=h0), 1.0, 1_000_000, substream(3, "white"))
    series = FractionalFrequencySeries(y, 1.0)
    for tau in (1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
        adev = allan_deviation(series, [tau])[0].adev
        assert abs(adev / math.sqrt(h0 / (2 * tau)) - 1) < 0.10
    assert time.monotonic() - t_start < 10.0


def test_limit_line_identities():
    taus = np.logspace(-1, 4, 40)
    base = StabilityParams(q=2.52e9, snr=10.0, t_c=0.1045, f0=12.6e9, n_cp=1, n_atom=1_000_000)
    assert np.allclose(
        limit_apl_repetition(base, taus), limit_technical(base, taus), rtol=1e-12
    )
    # at the information bound the repetition line meets the projection
    # noise line of the full ensemble
    n_atom = 1_000_000
    at_bound = replace(base, n_cp=int(n_atom / base.snr**2))
    qpn = StabilityParams(
        q=base.q, snr=qpn_snr(n_atom), t_c=base.t_c, f0=base.f0, n_cp=1, n_atom=n_atom
    )
    assert np.allclose(
        limit_apl_repetition(at_bound, taus), limit_technical(qpn, taus), rtol=1e-12
    )


def test_cli_reruns_are_byte_identical(tmp_path):
    small = tmp_path / "small.cfg"
    small.write_text(
        "ens.n_ions = 80\nseq.n_cycles = 12\nseq.rabi_n_steps = 5\n"
        "seq.rabi_repeats_standard = 2\nseq.rabi_repeats_ppm = 2\n"
        "diff.n_walkers = 500\ndiff.n_durations = 3\nlo.preset = maser\n"
    )
    series = tmp_path / "series.csv"
    rng = np.random.default_rng(5)
    series.write_text(
        "\n".join(f"{0.5 * i},{v:.15e}" for i, v in enumerate(rng.normal(0, 1e-12, 600)))
        + "\n"
    )
    jobs = [
        ("rabi", "--config", small),
        ("apl", "--config", small),
        ("diffusion", "--config", small),
        ("allan", series, "--config", small),
        ("reproduce", "fig5", "--config", small, "--trials", "3"),
    ]
    out = tmp_path / "out"
    for job in jobs:
        snapshots = []
        for _ in range(2):
            shutil.rmtree(out, ignore_errors=True)
            r = subprocess.run(
                [
                    sys.executable, "-W", "error::RuntimeWarning", "-m", "ionclock",
                    *map(str, job), "--out", str(out), "--seed", "9",
                ],
                capture_output=True,
                text=True,
            )
            assert r.returncode == 0, f"{job[0]}: {r.stderr}"
            snapshots.append(
                {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            )
        assert snapshots[0].keys() == snapshots[1].keys()
        for name in snapshots[0]:
            assert snapshots[0][name] == snapshots[1][name], f"{job[0]}/{name} differs"
