"""Config parsing, resolution, and the command-line harness."""

import io
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ionclock
from ionclock import cli, diffusion, sequences
from ionclock.config import DEFAULTS, ConfigError, config_hash, parse_config_file, resolve
from ionclock.oscillator import PRESETS
from ionclock.stability import limit_apl, limit_apl_repetition, limit_technical, qpn_snr


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "ionclock", *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
    )


# every number key at 0 and -1, and every float key and the two integer
# keys that size a loop (cycles, Rabi steps) at 1e300
_EDGE_VALUES = sorted(
    {(k, v) for k, d in DEFAULTS.items() if type(d) in (int, float) for v in ("0", "-1")}
    | {(k, "1e300") for k, d in DEFAULTS.items() if type(d) is float}
    | {("seq.n_cp", "1e300"), ("seq.rabi_n_steps", "1e300")}
)


class TestConfigFile:
    def test_parse_with_comments_and_blanks(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "# comment\n\nrun.seed = 7\nens.n_ions = 100  # inline\nlo.preset = maser\n"
        )
        raw = parse_config_file(f)
        assert raw == {"run.seed": "7", "ens.n_ions": "100", "lo.preset": "maser"}

    def test_unknown_key_reports_line(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("run.seed = 1\nno.such.key = 2\n")
        with pytest.raises(ConfigError, match="run.cfg:2"):
            parse_config_file(f)

    def test_duplicate_key_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("run.seed = 1\nrun.seed = 2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(f)

    def test_line_without_equals_rejected(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("run.seed 1\n")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            parse_config_file(f)


class TestResolve:
    def test_defaults(self):
        cfg = resolve({})
        assert cfg["run.seed"] == 12345
        assert cfg["det.p"] == 0.18
        assert cfg["seq.t_fp_s"] == 0.1
        with pytest.raises(TypeError):
            cfg["seq.n_cp"] = 99
        assert cfg["seq.n_cp"] == DEFAULTS["seq.n_cp"]

    def test_derived_quality_factor_and_cycle_time(self):
        cfg = resolve({})
        assert cfg["stab.q"] == pytest.approx(2.52e9)
        assert cfg["stab.t_c_s"] == pytest.approx(0.1 + 4 * 7.5e-4 + 1e-3)
        assert cfg["stab.n_atom"] == 2000

    def test_derived_snr_from_noise_budget(self):
        cfg = resolve({})
        var = 0.1**2 + 0.25 / (0.18 * 2000)
        assert cfg["stab.snr"] == pytest.approx(0.5 / math.sqrt(var), rel=1e-12)

    def test_explicit_values_win_over_derivation(self):
        cfg = resolve({"stab.q": "1e9", "stab.snr": "5"})
        assert cfg["stab.q"] == 1e9
        assert cfg["stab.snr"] == 5.0

    def test_preset_sets_noise_levels(self):
        cfg = resolve({"lo.preset": "maser"})
        assert cfg["lo.h0"] == 1e-26
        assert cfg["lo.h_minus1"] == 8e-31
        assert cfg["lo.h_minus2"] == 1e-36
        for name, spec in PRESETS.items():
            cfg = resolve({"lo.preset": name, "lo.h0": "5"})
            assert (cfg["lo.h0"], cfg["lo.h_minus1"], cfg["lo.h_minus2"]) == (
                spec.h0, spec.h_minus1, spec.h_minus2
            )
        assert set(PRESETS) == {"maser", "noisy"}

    def test_d_override_none_spelling(self):
        cfg = resolve({"diff.d_override": "none"})
        assert cfg["diff.d_override"] is None

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            resolve({"ens.n_ions": "zero"})
        with pytest.raises(ConfigError):
            resolve({"ens.n_ions": "0"})
        with pytest.raises(ConfigError):
            resolve({"lo.preset": "quartz"})
        with pytest.raises(ConfigError):
            resolve({"nope": "1"})

    def test_snr_derivation_that_overflows_is_a_config_error(self):
        with pytest.raises(ConfigError, match="det.sigma_tech"):
            resolve({"det.sigma_tech": "1e300"})
        assert resolve({"det.sigma_tech": "1e300", "stab.snr": "2"})["stab.snr"] == 2.0

    def test_hash_ignores_output_dir_but_not_seed(self):
        a = resolve({"run.output_dir": "x"})
        b = resolve({"run.output_dir": "y"})
        c = resolve({"run.seed": "777"})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestCli:
    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("does.not.exist = 1\n")
        r = run_cli("apl", "--config", cfg)
        assert r.returncode == 2
        assert "unknown config key" in r.stderr

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("apl", "det.p", "1.5"),
            ("rabi", "det.p", "1.5"),
            ("apl", "seq.t_fp_s", "0"),
            ("apl", "stab.k", "0"),
            ("diffusion", "diff.beam_lo_m", "-0.01"),
            ("reproduce fig5", "seq.n_cp", "2"),
            ("rabi", "ens.cloud_length_m", "0"),
            ("rabi", "seq.rabi_step_rad", "0"),
            ("rabi", "seq.rabi_n_steps", "0"),
            ("rabi", "seq.rabi_n_steps", "1"),
            ("rabi", "seq.rabi_repeats_ppm", "0"),
            ("diffusion", "diff.duration_max_s", "-0.001"),
            ("apl", "run.n_trials", "-1"),
            ("diffusion", "diff.n_durations", "-1"),
            ("diffusion", "diff.n_durations", "0"),
            ("apl", "allan.points_per_decade", "0"),
            ("apl", "seq.t_fp_s", "nan"),
            ("apl", "seq.dead_time_s", "nan"),
            ("apl", "seq.pi2_duration_s", "inf"),
            ("apl", "lo.delta_f0_hz", "nan"),
            ("rabi", "det.mode", "beam_overlap"),
            ("reproduce fig4", "det.mode", "beam_overlap"),
            ("rabi", "lo.f0_hz", "0"),
            ("reproduce fig4", "lo.f0_hz", "0"),
            # the derived stab.snr would square an overflowing sigma_tech
            ("apl", "det.sigma_tech", "1e300"),
            ("diffusion", "det.sigma_tech", "1e300"),
            ("rabi", "det.sigma_tech", "1e300"),
            # max_n_cp divides by snr^2
            ("apl", "stab.snr", "1e300"),
            ("diffusion", "diff.d_override", "-1"),
            # no cycle stage lasts over a day, no cloud over a metre
            ("apl", "seq.dead_time_s", "1e300"),
            ("apl", "det.measurement_duration_s", "86401"),
            ("diffusion", "ens.cloud_length_m", "1.5"),
        ],
    )
    def test_bad_value_exits_2_before_simulating(
        self, tmp_path, monkeypatch, capsys, command, key, value
    ):
        def simulated(*args, **kwargs):
            raise AssertionError("simulation ran before the config was checked")

        # the first draw of each simulation: the ensemble batch, the LO
        # record of a protocol and a Brownian step
        monkeypatch.setattr(cli, "initialize_ensemble", simulated)
        monkeypatch.setattr(sequences, "phase_increments", simulated)
        monkeypatch.setattr(diffusion, "step_brownian", simulated)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        assert cli.main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, lines, code",
        [
            # the probe-curve fit searches a bracket where floats are coarser than its tolerance
            ("rabi", ["seq.rabi_step_rad = 1000"], 0),
            ("rabi", ["seq.rabi_step_rad = 1e300"], 0),
            # rabi does not read stab.snr, which apl rejects
            ("rabi", ["stab.snr = 1e300"], 0),
            ("apl", ["diff.d_override = -1", "det.mode = beam_overlap"], 2),
            ("rabi", ["det.measurement_duration_s = 0"], 0),
            ("reproduce fig4", ["det.measurement_duration_s = 0"], 0),
            # a limit line that leaves the float range: in its prefactor
            # 1/(k f0 snr) or 1/(k q snr), or only once tau multiplies in
            ("apl", ["lo.f0_hz = 1e300", "stab.snr = 1e100"], 2),
            ("apl", ["stab.k = 1e-300", "lo.f0_hz = 1e-10"], 2),
            ("apl", ["lo.f0_hz = 1e300", "stab.snr = 1e8", "stab.q = 1", "seq.t_fp_s = 10"], 2),
        ],
    )
    def test_extreme_value_exits_without_traceback(self, tmp_path, command, lines, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(["ens.n_ions = 50", *lines]) + "\n")
        out = tmp_path / "o"
        r = run_cli(*command.split(), "--config", cfg, "--out", out, "--trials", 2, timeout=60)
        assert (r.returncode, "Traceback" in r.stderr) == (code, False), r.stderr
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize(
        "bundle",
        [["apl"], ["apl", "beam"], ["rabi"], ["diffusion"], ["reproduce", "fig5"]],
        ids=" ".join,
    )
    @pytest.mark.parametrize("key, value", _EDGE_VALUES)
    def test_every_key_at_its_edges_keeps_the_exit_contract(self, tmp_path, bundle, key, value):
        raw = {"ens.n_ions": "50", "diff.n_walkers": "50", key: value}
        if bundle[-1] == "beam":
            bundle, raw["det.mode"] = ["apl"], "beam_overlap"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            # as in a CLI child run with -W error::RuntimeWarning; a saturated
            # readout or a bound past its limit only warns there
            warnings.simplefilter("ignore")
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([*bundle, "--config", str(cfg), "--out", str(out), "--trials", "2"])
        assert code in (0, 2, 3)
        assert out.exists() == (code == 0)

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"\xff\xferun.seed = 1\n")
        out = tmp_path / "o"
        assert cli.main(["apl", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read")
        assert not out.exists()

    def test_non_utf8_allan_input_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "series.csv"
        bad.write_bytes(b"\xff\xfe0.0,0.1\n1.0,0.2\n")
        out = tmp_path / "o"
        assert cli.main(["allan", str(bad), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: cannot read")
        assert not out.exists()

    def test_allan_input_with_byte_order_mark(self, tmp_path):
        # a BOM must not turn the first sample into a header
        rng = np.random.default_rng(13)
        text = "".join(f"{i}.0,{v:.15e}\n" for i, v in enumerate(rng.normal(0, 1e-12, 50)))
        tables = []
        for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            path = tmp_path / f"{name}.csv"
            path.write_text(text, encoding=encoding)
            assert cli.main(["allan", str(path), "--out", str(tmp_path / name)]) == 0
            tables.append((tmp_path / name / "allan.csv").read_bytes())
        assert tables[0] == tables[1]
        assert tables[1].splitlines()[3].endswith(b",49")  # tau0 from all 50 samples
        bad = tmp_path / "bad.csv"
        bad.write_text("0.0,0.1\n1.0,x\n2.0,0.3\n", encoding="utf-8-sig")
        with pytest.raises(cli.DataError, match=r"bad.csv:2: non-numeric sample"):
            cli._read_series(bad)

    def test_missing_allan_input_exits_3(self, tmp_path):
        r = run_cli("allan", tmp_path / "nope.csv", "--out", tmp_path / "o")
        assert r.returncode == 3
        assert not (tmp_path / "o").exists()

    def test_malformed_allan_input_reports_line(self, tmp_path):
        bad = tmp_path / "series.csv"
        bad.write_text("t,y\n0.0,0.1\n1.0,0.2\n2.0,oops\n")
        r = run_cli("allan", bad, "--out", tmp_path / "o")
        assert r.returncode == 3
        assert "series.csv:4" in r.stderr

    def test_nonuniform_spacing_rejected(self, tmp_path):
        bad = tmp_path / "gap.csv"
        bad.write_text("0.0 0.1\n1.0 0.2\n2.5 0.0\n3.5 0.1\n")
        r = run_cli("allan", bad, "--out", tmp_path / "o")
        assert r.returncode == 3
        assert "spacing" in r.stderr

    @pytest.mark.parametrize(
        "times, message",
        [
            ((0, 1, "nan", 3, 4), "strictly increasing"),
            ((0, 1, 2, 3, "nan"), r"nan\.csv:5: non-uniform sample spacing \(gap nan"),
        ],
    )
    def test_nan_timestamp_exits_3(self, tmp_path, capsys, times, message):
        bad = tmp_path / "nan.csv"
        bad.write_text("".join(f"{t},1e-12\n" for t in times))
        assert cli.main(["allan", str(bad), "--out", str(tmp_path / "o")]) == 3
        assert re.search(message, capsys.readouterr().err)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_exits_3(self, tmp_path, capsys, value):
        bad = tmp_path / "y.csv"
        bad.write_text(f"t,y\n0,1e-12\n1,2e-12\n\n2,{value}\n3,1e-12\n")
        out = tmp_path / "o"
        assert cli.main(["allan", str(bad), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}:5: non-finite sample {value}")
        assert not out.exists()

    def test_allan_on_white_noise(self, tmp_path):
        rng = np.random.default_rng(11)
        y = rng.normal(0, 1e-12, 4000)
        lines = ["# synthetic"] + [f"{i * 0.5},{v:.15e}" for i, v in enumerate(y)]
        (tmp_path / "w.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        r = run_cli("allan", tmp_path / "w.csv", "--out", out)
        assert r.returncode == 0, r.stderr
        rows = [
            ln.split(",")
            for ln in (out / "allan.csv").read_text().splitlines()
            if not ln.startswith("#") and not ln.startswith("tau_s")
        ]
        taus = np.array([float(r[0]) for r in rows])
        adevs = np.array([float(r[1]) for r in rows])
        pairs = np.array([int(r[2]) for r in rows])
        assert taus[0] == 0.5
        # judge only the well-averaged points; the grid tail has few pairs
        good = pairs >= 200
        assert good.sum() >= 6
        expected = 1e-12 / np.sqrt(taus / 0.5)
        assert np.all(np.abs(adevs[good] / expected[good] - 1) < 0.2)
        assert (out / "limits.csv").exists()

    def test_allan_reader_delimiter_and_header(self, tmp_path):
        spaced = tmp_path / "spaced.txt"
        spaced.write_text("# probe\ntime  y\n\n0.0\t1e-12  # first\n0.5 -2e-12\n1.0 3e-12\n")
        commas = tmp_path / "commas.csv"
        commas.write_text("0.0, 1e-12\n0.5,-2e-12\n1.0,3e-12\n")
        a, b = cli._read_series(spaced), cli._read_series(commas)
        assert a.tau0 == b.tau0 == 0.5
        assert np.array_equal(a.y, [1e-12, -2e-12, 3e-12])
        assert np.array_equal(a.y, b.y)
        # the first data line picks the delimiter for the whole file
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("t,y\n0.0,0.1\n1.0 0.2\n")
        with pytest.raises(cli.DataError, match=r"mixed.csv:3: expected two columns, got 1"):
            cli._read_series(mixed)
        wide = tmp_path / "wide.csv"
        wide.write_text("0.0 0.1 7\n1.0 0.2 7\n")
        with pytest.raises(cli.DataError, match=r"wide.csv:1: expected two columns, got 3"):
            cli._read_series(wide)
        # every comma separates a field: a trailing or doubled comma
        # makes a third, empty column
        for name, row in (("trailing", "0.5,0.2,"), ("doubled", "0.5,,0.2")):
            path = tmp_path / f"{name}.csv"
            path.write_text(f"0.0,0.1\n{row}\n1.0,0.3\n")
            with pytest.raises(cli.DataError, match=rf"{name}.csv:2: expected two columns, got 3"):
                cli._read_series(path)

    @pytest.mark.parametrize(
        "times", [(0.0, 1.0, 2.0000004, 3.0000012, 4.0000014), (0.0, 1.0, 2.0000004, 3.0000012)]
    )
    def test_tau0_is_the_median_gap(self, tmp_path, times):
        # jitter inside the 1e-6 spacing tolerance; with an even gap count
        # tau0 is the mean of the two middle gaps
        path = tmp_path / "jitter.csv"
        path.write_text("".join(f"{t!r},1e-12\n" for t in times))
        assert cli._read_series(path).tau0 == float(np.median(np.diff(times)))

    def test_rabi_fit_matches_curve_fit(self, tmp_path):
        # reference: curve_fit from the nominal step, run to convergence
        from scipy.optimize import curve_fit

        out = tmp_path / "out"
        assert cli.main(["reproduce", "fig4", "--out", str(out), "--seed", "3"]) == 0
        rows = [
            ln.split(",")
            for ln in (out / "rabi_curve.csv").read_text().splitlines()[3:]
        ]
        for mode in ("standard", "ppm"):
            angles = np.array([float(r[2]) for r in rows if r[0] == mode])
            means = np.array([float(r[3]) for r in rows if r[0] == mode])
            ks = np.arange(len(means), dtype=float)

            def model(k, c, a, w):
                return c + a * (1.0 - np.cos(k * w)) / 2.0

            (c, a, w), _ = curve_fit(
                model, ks, means, p0=(0.0, 1.0, angles[1]), ftol=1e-15, xtol=1e-15, gtol=1e-15
            )
            fit = cli._rabi_fit(angles, means)
            assert fit["step_rad"] == pytest.approx(w, rel=1e-7)
            assert fit["amplitude"] == pytest.approx(a, rel=1e-7)
            # the offset is judged on the scale of the curve it shifts
            assert fit["offset"] == pytest.approx(c, abs=1e-7 * a)
            resid = np.linalg.norm(means - model(ks, c, a, w))
            assert fit["residual_norm"] == pytest.approx(resid, rel=1e-9)

    def test_headers_carry_hash_and_seed(self, tmp_path):
        out = tmp_path / "out"
        r = run_cli("diffusion", "--out", out, "--seed", 77, "--trials", 1)
        assert r.returncode == 0, r.stderr
        for name in ("msd.csv", "d_of_t.csv", "struck.csv"):
            head = (out / name).read_text().splitlines()[:2]
            assert head[0].startswith("# config_hash=")
            assert head[1] == "# seed=77"
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["seed"] == 77
        assert meta["versions"]["ionclock"] == ionclock.__version__
        assert meta["versions"]["numpy"] == np.__version__
        assert platform.python_version().startswith(meta["versions"]["python"])
        assert meta["versions"].keys() == {"ionclock", "numpy", "python"}
        assert meta["command"] == "diffusion"
        assert "struck.csv" in meta["outputs"]

    def test_seed_changes_data(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(
            "ens.n_ions = 60\nseq.n_cycles = 6\nseq.rabi_n_steps = 4\n"
            "seq.rabi_repeats_standard = 2\nseq.rabi_repeats_ppm = 2\n"
        )
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("rabi", "--config", cfg, "--out", a, "--seed", 1).returncode == 0
        assert run_cli("rabi", "--config", cfg, "--out", b, "--seed", 2).returncode == 0
        da = (a / "rabi_curve.csv").read_text().splitlines()[3:]
        db = (b / "rabi_curve.csv").read_text().splitlines()[3:]
        assert da != db

    def test_apl_bundle_files(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("ens.n_ions = 80\nseq.n_cycles = 12\nlo.preset = maser\n")
        out = tmp_path / "out"
        r = run_cli("apl", "--config", cfg, "--out", out)
        assert r.returncode == 0, r.stderr
        for name in (
            "apl_cycles.csv",
            "ramsey_cycles.csv",
            "apl_sd.csv",
            "decoherence_fit.json",
            "allan_standard.csv",
            "allan_apl.csv",
            "limits.csv",
            "run_meta.json",
        ):
            assert (out / name).exists(), name
        header = (out / "apl_cycles.csv").read_text().splitlines()[2]
        assert header == "block_id,n,timestamp_s,estimate,phi_rad,delta_f_hz"
        # at 80 ions these four blocks' means put the fit on the p = 0
        # edge, where p and the amplitude are not separately identified:
        # no interval
        fit = json.loads((out / "decoherence_fit.json").read_text())
        assert fit["p"] < 1e-6
        assert fit["p_stderr"] is None and fit["p_ci95"] is None

    def test_apl_three_cycle_interval_comes_from_the_blocks(self, tmp_path):
        # 2000 ions keep the n = 3 mean below twice the n = 2 mean by some
        # 5 binomial sigma, so p lies inside (0, 1] and the spread over the
        # four blocks gives a finite interval
        cfg = tmp_path / "small.cfg"
        cfg.write_text("ens.n_ions = 2000\nseq.n_cycles = 12\nlo.preset = maser\n")
        out = tmp_path / "out"
        r = run_cli("apl", "--config", cfg, "--out", out)
        assert r.returncode == 0, r.stderr
        fit = json.loads((out / "decoherence_fit.json").read_text())
        lo, hi = fit["p_ci95"]
        assert math.isfinite(lo) and math.isfinite(hi) and lo < fit["p"] < hi
        assert fit["p_stderr"] > 0

    def test_apl_with_one_standard_cycle_writes_no_allan_rows(self, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("ens.n_ions = 200\nseq.n_cp = 1\n")
        out = tmp_path / "out"
        assert cli.main(["apl", "--config", str(cfg), "--out", str(out), "--trials", "1"]) == 0
        for name in ("allan_standard.csv", "allan_apl.csv"):
            lines = (out / name).read_text().splitlines()
            assert len(lines) == 3 and lines[2] == "tau_s,adev,n_pairs", name
        assert len((out / "ramsey_cycles.csv").read_text().splitlines()) == 3 + 1

    def test_limit_rows_equal_the_scalar_lines(self):
        params = cli._stab_params(resolve({}))
        qpn = replace(params, snr=qpn_snr(params.n_atom))
        taus = np.logspace(-1, 3, 9)
        rows = list(zip(*cli._limit_table(params, taus)[1]))
        assert len(rows) == taus.size
        for tau, row in zip(taus, rows):
            assert row == (
                tau,
                limit_technical(params, tau),
                limit_apl(params, tau),
                limit_apl_repetition(params, tau),
                limit_technical(qpn, tau),
            )

    def test_limit_lines_off_the_float_range_are_a_config_error(self):
        # k f0 snr = 1e308 is finite, but times tau > 1.8 s it is not
        params = replace(cli._stab_params(resolve({})), f0=1e307, snr=10.0)
        cli._limit_table(params, [0.1, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="limit line"):
                cli._limit_table(params, [0.1, 1.0, 10.0])

    def test_reproduce_projection_bundle(self, tmp_path):
        out = tmp_path / "out"
        r = run_cli(
            "reproduce", "fig5", "--out", out, "--seed", 11, "--trials", 4
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads((out / "decoherence_fit.json").read_text())
        assert 0.1 < doc["p"] < 0.3
        lines = (out / "fig5_projection.csv").read_text().splitlines()
        assert lines[2] == "n,mean_projected,sd,predicted"
        assert len(lines) == 3 + 8  # header block plus one row per cycle index

    @staticmethod
    def _csv(header, columns):
        fh = io.StringIO()
        cli._write_csv(fh, "h", 3, header, columns)
        return fh.getvalue()

    def test_csv_rows_and_header_only_table(self):
        columns = (["a", "b"], [1, 20], [0.1 + 0.2, 2.0], np.array([1e-300, float("nan")]))
        text = self._csv(("s", "i", "x", "y"), columns)
        assert text == "# config_hash=h\n# seed=3\ns,i,x,y\na,1,0.3,1e-300\nb,20,2,nan\n"
        assert self._csv(("s",), ([],)) == "# config_hash=h\n# seed=3\ns\n"
        # rows written chunk by chunk join up like one pass over all rows
        n = 2 * cli._CSV_CHUNK_ROWS + 3
        ints, floats = np.arange(n).reshape(-1, 1), np.linspace(0.0, 1.0, n).reshape(-1, 1)
        body = self._csv(("i", "x"), (ints, floats)).split("\n", 3)[3]
        rows = zip(range(n), floats.ravel().tolist())
        assert body == "".join("%s,%.12g\n" % row for row in rows)

    def test_no_write_carries_more_than_one_chunk_of_rows(self):
        lines = []  # per write

        class Recorder(io.StringIO):
            def write(self, text):
                lines.append(text.count("\n"))
                return super().write(text)

        chunk = cli._CSV_CHUNK_ROWS
        cli._write_csv(Recorder(), "h", 3, ("i",), (np.arange(2 * chunk + 3),))
        assert lines == [3, chunk, chunk, 3]  # the header block, then the rows

    def test_chunk_size_does_not_change_the_files(self, tmp_path, monkeypatch):
        out = tmp_path / "o"

        def files():
            assert cli.main(["apl", "--trials", "400", "--seed", "3", "--out", str(out)]) == 0
            return {f.name: f.read_bytes() for f in out.iterdir()}

        whole = files()
        # 400 blocks of 3 cycles: each cycle CSV spans more than two chunks
        assert whole["apl_cycles.csv"].count(b"\n") > 3 + 2 * cli._CSV_CHUNK_ROWS
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 1)
        assert files() == whole

    def test_heap_per_cycle_is_bounded(self, tmp_path):
        # The tracemalloc peak of fig6 grows with the cycle count; per
        # cycle (6 per block over both protocols) it must stay at or below
        # 300 B, a bound fixed before measuring. Keeping a Python object
        # per cycle (a record or a row tuple) costs about 400 B.
        def peak(trials):
            argv = ["reproduce", "fig6", "--trials", str(trials), "--out", str(tmp_path / "o")]
            tracemalloc.start()
            try:
                assert cli.main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with warnings.catch_warnings():
            # a rare rail readout among 60,000 standard cycles is physics, not the subject here
            warnings.simplefilter("ignore", sequences.SaturationWarning)
            peak(10)  # first-call costs (lazy imports, caches) fall on neither size
            small, large = peak(2000), peak(20000)
        per_cycle = (large - small) / ((20000 - 2000) * 6)
        assert per_cycle <= 300, f"{per_cycle:.0f} B per cycle"

    def test_console_entry_point(self):
        r = subprocess.run(
            ["ionclock", "--help"], capture_output=True, text=True
        )
        assert r.returncode == 0
        assert "rabi" in r.stdout and "reproduce" in r.stdout


_THREADS = (
    "import os, ionclock.cli; "
    "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))"
)


def _threads_and_blas_variable(env):
    r = subprocess.run([sys.executable, "-c", _THREADS], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")


@needs_proc
def test_numpy_loads_with_one_blas_thread():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    # one thread, and the variable unset again for subprocesses
    assert _threads_and_blas_variable(env) == ["1", "None"]


@needs_proc
def test_user_blas_thread_count_is_kept():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    assert _threads_and_blas_variable(env)[1] == "2"
