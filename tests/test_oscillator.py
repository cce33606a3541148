"""Local oscillator noise model."""

import math
import subprocess
import sys

import numpy as np
import pytest

from ionclock.oscillator import (
    PRESETS,
    NoiseSpec,
    advance,
    flicker_psd,
    generate_y_series,
    make_local_oscillator,
)
from ionclock.rng import substream
from ionclock.stability import FractionalFrequencySeries, allan_deviation


def test_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(h0=-1e-20)
    with pytest.raises(ValueError):
        NoiseSpec(h_minus1=-1.0)


def test_quiet_lo_is_deterministic():
    lo = make_local_oscillator(12.6e9, 0.25, NoiseSpec(), substream(1, "q"))
    inc = advance(lo, 0.1)
    assert inc == pytest.approx(2 * math.pi * 0.25 * 0.1, rel=1e-15)
    assert advance(lo, 0.1) == inc


def test_zero_offset_quiet_lo_never_drifts():
    lo = make_local_oscillator(seed=substream(2, "q0"))
    for _ in range(10):
        assert advance(lo, 0.05) == 0.0


def test_white_series_level():
    dt = 1e-2
    h0 = 4e-4
    y = generate_y_series(NoiseSpec(h0=h0), dt, 100_000, substream(3, "w"))
    assert y.mean() == pytest.approx(0.0, abs=5 * math.sqrt(h0 / (2 * dt) / 100_000))
    assert y.var() == pytest.approx(h0 / (2 * dt), rel=0.05)


def test_white_allan_scaling():
    h0 = 1e-4
    y = generate_y_series(NoiseSpec(h0=h0), 1.0, 200_000, substream(4, "w2"))
    s = FractionalFrequencySeries(y, 1.0)
    for tau in (1.0, 10.0, 100.0):
        adev = allan_deviation(s, [tau])[0].adev
        assert adev == pytest.approx(math.sqrt(h0 / (2 * tau)), rel=0.1)


def test_random_walk_allan_scaling():
    # samples are interval means, so (2 pi^2 / 3) h tau holds from tau = dt up
    h2 = 1e-6
    y = generate_y_series(NoiseSpec(h_minus2=h2), 1.0, 200_000, substream(5, "rw"))
    s = FractionalFrequencySeries(y, 1.0)
    for tau in (1.0, 10.0, 100.0):
        adev = allan_deviation(s, [tau])[0].adev
        assert adev == pytest.approx(math.sqrt(2 * math.pi**2 / 3 * h2 * tau), rel=0.1)


def test_flicker_floor_is_flat():
    h1 = 1e-6
    y = generate_y_series(NoiseSpec(h_minus1=h1), 1e-2, 200_000, substream(5, "fl"))
    s = FractionalFrequencySeries(y, 1e-2)
    floor = math.sqrt(2 * math.log(2) * h1)
    for tau in (1e-2, 0.1, 1.0):
        adev = allan_deviation(s, [tau])[0].adev
        assert adev == pytest.approx(floor, rel=0.1)


@pytest.mark.parametrize(
    "spec",
    [
        NoiseSpec(h0=1e-20),
        NoiseSpec(h_minus1=1e-22),
        NoiseSpec(h_minus2=1e-24),
        NoiseSpec(h0=1e-20, h_minus1=1e-22, h_minus2=1e-24),
    ],
)
def test_series_is_what_advance_accumulates(spec):
    # one noise core: the series is the y implied by n advance calls,
    # also across the series' internal block boundaries
    f0, dt, n = 12.6e9, 0.1, 5000
    lo = make_local_oscillator(f0, 0.0, spec, substream(11, "core"))
    stepped = np.array([advance(lo, dt) for _ in range(n)]) / (2 * math.pi * f0 * dt)
    series = generate_y_series(spec, dt, n, substream(11, "core"))
    np.testing.assert_allclose(series, stepped, rtol=1e-9)


def test_flicker_bank_psd_tracks_one_over_f():
    # analytic PSD of the relaxator bank vs the target h/f law
    from ionclock.oscillator import _octave_corners

    corners = _octave_corners(1e-4, 1e4)
    f = np.logspace(-3, 3, 200)
    psd = flicker_psd(f, 1.0, corners)
    ripple_db = 10 * np.log10(psd * f / 1.0)
    assert np.all(np.abs(ripple_db) < 0.5)


def test_maser_preset_phase_wander_small():
    # 0.1 s of free precession against a maser-grade reference stays
    # well below the invertible readout range
    lo = make_local_oscillator(12.6e9, 0.0, PRESETS["maser"], substream(9, "lo"))
    incs = np.array([advance(lo, 0.1) for _ in range(2000)])
    sd = incs.std()
    assert 5e-4 < sd < 5e-3
    assert sd < 0.02


def test_noisy_preset_breaks_single_cycle_tracking():
    lo = make_local_oscillator(12.6e9, 0.0, PRESETS["noisy"], substream(9, "lo2"))
    incs = np.array([advance(lo, 0.1) for _ in range(500)])
    assert incs.std() > 1.0


def test_series_reproducible_and_stream_separated():
    spec = NoiseSpec(h0=1e-6, h_minus1=1e-8, h_minus2=1e-10)
    a = generate_y_series(spec, 1e-3, 5000, substream(10, "a"))
    b = generate_y_series(spec, 1e-3, 5000, substream(10, "a"))
    c = generate_y_series(spec, 1e-3, 5000, substream(10, "b"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_advance_validates_dt():
    lo = make_local_oscillator(seed=1)
    with pytest.raises(ValueError):
        advance(lo, 0.0)
    with pytest.raises(ValueError):
        advance(lo, -1.0)


_NO_SCIPY = """
import sys
from pathlib import Path

from ionclock import cli

tmp = Path(sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert not scipy_modules(), ("import", scipy_modules()[:5])
for name, argv in (
    ("apl", ["apl", "--trials", "2"]),
    ("beam", ["apl", "--config", str(tmp / "beam.cfg"), "--trials", "2"]),
    ("rabi", ["rabi", "--config", str(tmp / "small.cfg")]),
    ("fig5", ["reproduce", "fig5", "--trials", "4"]),
):
    assert cli.main(argv + ["--out", str(tmp / name)]) == 0, name
    assert not scipy_modules(), (name, scipy_modules()[:5])
"""


def test_cli_import_leaves_out_scipy_signal(tmp_path):
    # the CLI runs on numpy alone: no scipy module is loaded by the import,
    # nor by runs that fit, track phase or move ions through the beam
    (tmp_path / "beam.cfg").write_text("det.mode = beam_overlap\n")
    (tmp_path / "small.cfg").write_text(
        "ens.n_ions = 60\nseq.rabi_n_steps = 4\n"
        "seq.rabi_repeats_standard = 2\nseq.rabi_repeats_ppm = 2\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(tmp_path)], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr


def test_carrier_must_be_positive():
    with pytest.raises(ValueError):
        make_local_oscillator(f0=0.0, seed=1)
