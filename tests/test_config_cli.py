"""Config parsing, resolution, and the command-line harness."""

import errno
import functools
import io
import itertools
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ionclock
from ionclock import cli, config, diffusion, sequences
from ionclock.config import DEFAULTS, KEYS, ConfigError, config_hash, parse_config_file, resolve
from ionclock.oscillator import PRESETS
from ionclock.stability import (
    BoundViolationWarning,
    limit_apl,
    limit_apl_repetition,
    limit_technical,
    qpn_snr,
)


def run_cli(*args, cwd=None, timeout=None, entry=("-m", "ionclock"), preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *entry, *map(str, args)],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=timeout,
        preexec_fn=preexec_fn,
    )


# every number key at 0 and -1, every float key and the two integer keys
# that size a loop (cycles, Rabi steps) at 1e300, every float key at both
# ends of the float range, and every integer key just past int64 and far
# past it
_EDGE_VALUES = sorted(
    {(k, v) for k, d in DEFAULTS.items() if type(d) in (int, float) for v in ("0", "-1")}
    | {(k, v) for k, d in DEFAULTS.items() if type(d) is float for v in ("1e300", "1e308", "-1e308")}
    | {("seq.n_cp", "1e300"), ("seq.rabi_n_steps", "1e300")}
    | {(k, v) for k, d in DEFAULTS.items() if type(d) is int for v in (str(2**63), "1" + "0" * 400)}
)


def _bound_edges(key):
    """(edge, past, bound) for each finite bound that `key`'s registry entry declares.

    The value at the edge is accepted, and the next float or integer past it
    rejected with a message that prints `bound`. A strict bound's edge is the
    next value inside it, and a range that also takes 0 has an edge at 0.
    """
    conv = KEYS[key].convert
    if not isinstance(conv, config._Bounded):
        return []

    def step(v, direction):  # the next integer, or the next float
        return v + direction if conv.conv is config._as_int else float(np.nextafter(v, direction * math.inf))

    edges = []
    if math.isfinite(conv.low):
        edge = step(conv.low, 1) if conv.strict else conv.low
        edges.append((edge, step(edge, -1), conv.low))
    if conv.or_zero:
        edges.append((0.0, step(0.0, -1), conv.low))
    if math.isfinite(conv.high):
        edges.append((conv.high, step(conv.high, 1), conv.high))
    return edges


# The limit-line inputs are derived, so their edges are reached through the
# keys they derive from: q = 2 f0 t_fp and the cycle time with the free
# precession (and the other stages) at their least and at a day; the snr at
# its least (det.sigma_tech at its bound of 1), at the projection limit and at
# 1 (under one ion sampled); n_atom = ens.n_ions at 1. Each is run at the
# default carrier and with lo.f0_hz at either end of its registry range.
_DAY = "86400"
_T_FP_LEAST = "1e-9"
_STAGES = ("seq.t_fp_s", "seq.dead_time_s", "seq.pi2_duration_s", "det.measurement_duration_s")
_LINE_INPUT_EDGES = {
    "t_fp-least": {"seq.t_fp_s": _T_FP_LEAST},
    "t_fp-day": {"seq.t_fp_s": _DAY},
    "cycle-least": {"seq.t_fp_s": _T_FP_LEAST, **{k: "0" for k in _STAGES[1:]}},
    "cycle-longest": {k: _DAY for k in _STAGES},
    "snr-least": {"det.sigma_tech": "1"},
    "snr-projection": {"det.sigma_tech": "0", "det.p": "1"},
    "snr-one": {"det.sigma_tech": "0", "det.p": "1e-300"},
    "n_atom-one": {"ens.n_ions": "1"},
    "n_atom-one-snr-projection": {"ens.n_ions": "1", "det.sigma_tech": "0", "det.p": "1"},
}
_LINE_INPUT_CASES = [
    pytest.param({**keys, **f0}, id=name + "".join(f"-f0={v}" for v in f0.values()))
    for f0 in ({}, {"lo.f0_hz": "1"}, {"lo.f0_hz": "1e16"})
    for name, keys in _LINE_INPUT_EDGES.items()
]

_BUNDLES = [["apl"], ["apl", "beam"], ["rabi"], ["diffusion"], ["reproduce", "fig5"]]

# Every float key that feeds a frequency estimate, its sd, y = delta_f / f0
# or the limit lines' snr at the end of its registry range that makes them
# largest: the most technical noise, the shortest free precession with no
# other stage, the least carrier and a Rabi step of one full turn; with a
# large static detuning or the noisy LO preset
_CORNER = {
    **_LINE_INPUT_EDGES["snr-least"],
    **_LINE_INPUT_EDGES["cycle-least"],
    "lo.f0_hz": "1",
    "seq.rabi_step_rad": repr(2.0 * math.pi),
}
# and at the far ends of the LO keys' ranges, where the LO phase record is
# largest: the largest carrier, either largest detuning and every noise level
# at 1 (no preset, so fig6 takes the levels too), once with every stage a day
# and once with rabi's LO record over the least readout window
_LO_MAX = {"lo.f0_hz": "1e16", "lo.preset": "none", "lo.h0": "1", "lo.h_minus1": "1", "lo.h_minus2": "1"}
_CORNER_LOS = [
    {"lo.delta_f0_hz": "1e8"},
    {"lo.preset": "noisy"},
    pytest.param({**_LO_MAX, "lo.delta_f0_hz": "1e16"}, id="lo-max"),
    pytest.param({**_LO_MAX, "lo.delta_f0_hz": "-1e16"}, id="lo-max-negative-detuning"),
    pytest.param({**_LO_MAX, "lo.delta_f0_hz": "1e16", **_LINE_INPUT_EDGES["cycle-longest"]}, id="lo-max-day-stages"),
    pytest.param({**_LO_MAX, "lo.delta_f0_hz": "1e16", "det.measurement_duration_s": "1e-9"}, id="lo-max-least-readout"),
]


def _run_bundle(tmp_path, bundle, settings):
    """The exit code of `bundle` on a small config with `settings`, as a CLI child run with -W error::RuntimeWarning."""
    raw = {"ens.n_ions": "50", "diff.n_walkers": "50", **settings}
    if bundle[-1] == "beam":
        bundle, raw["det.mode"] = ["apl"], "beam_overlap"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in raw.items()))
    with warnings.catch_warnings():
        # a saturated readout or a bound past its limit only warns there
        warnings.simplefilter("ignore")
        warnings.simplefilter("error", RuntimeWarning)
        return cli.main([*bundle, "--config", str(cfg), "--out", str(tmp_path / "o"), "--trials", "2"])


class TestConfigFile:
    def test_parse_with_comments_and_blanks(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "# comment\n\nrun.seed = 7\nens.n_ions = 100  # inline\nlo.preset = maser\n"
        )
        raw = parse_config_file(f)
        assert raw == {"run.seed": "7", "ens.n_ions": "100", "lo.preset": "maser"}

    def test_byte_order_mark_is_dropped(self, tmp_path):
        cfg = tmp_path / "bom.cfg"
        cfg.write_text("run.seed = 7\nens.n_ions = 100\n", encoding="utf-8-sig")
        assert parse_config_file(cfg) == {"run.seed": "7", "ens.n_ions": "100"}

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
        params = cli._stab_params(resolve({}))
        assert params.q == pytest.approx(2.52e9)
        assert params.t_c == pytest.approx(0.1 + 4 * 7.5e-4 + 1e-3)
        assert params.t_c == sequences.RamseyConfig().cycle_time
        assert params.n_atom == 2000
        assert (params.f0, params.n_cp) == (12.6e9, 3)

    def test_derived_snr_from_noise_budget(self):
        params = cli._stab_params(resolve({}))
        var = 0.1**2 + 0.25 / (0.18 * 2000)
        assert params.snr == pytest.approx(0.5 / math.sqrt(var), rel=1e-12)

    def test_limit_line_inputs_follow_the_keys_they_derive_from(self):
        cfg = resolve({"lo.f0_hz": "1e9", "seq.t_fp_s": "0.2", "ens.n_ions": "500", "det.sigma_tech": "0"})
        params = cli._stab_params(cfg)
        assert params.q == pytest.approx(4e8)
        assert params.t_c == cli._ramsey_config(cfg).cycle_time == pytest.approx(0.2 + 4 * 7.5e-4 + 1e-3)
        assert params.n_atom == 500
        assert params.snr == pytest.approx(math.sqrt(0.18 * 500), rel=1e-12)  # projection noise alone
        assert set(cfg) == set(DEFAULTS)  # nothing derived is stored in the run config

    def test_preset_sets_noise_levels(self):
        cfg = resolve({"lo.preset": "maser"})
        assert cfg["lo.h0"] == 1e-26
        assert cfg["lo.h_minus1"] == 8e-31
        assert cfg["lo.h_minus2"] == 1e-36
        for name, spec in PRESETS.items():
            cfg = resolve({"lo.preset": name, "lo.h0": "0.5"})
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
            resolve({"lo.preset": "quartz"})
        with pytest.raises(ConfigError):
            resolve({"nope": "1"})
        # a beam outside the cloud, a rule of several keys that the diffusion config holds
        with pytest.raises(ConfigError, match="^diff.beam_lo_m: beam_interval must lie inside the cloud$"):
            resolve({"diff.beam_lo_m": "-0.01"})

    @pytest.mark.parametrize("key", [k for k in KEYS if _bound_edges(k)])
    def test_every_declared_bound_is_accepted_and_the_next_value_past_it_rejected(self, key):
        # the registry is the one spec of a key's range; a rejection prints the
        # bound exactly, an int64 ceiling too, whether or not a command reads the key
        for edge, past, bound in _bound_edges(key):
            assert KEYS[key].convert(repr(edge)) == edge
            message = rf"^{re.escape(key)}: expected (0 or )?a value [<>]=? {re.escape(str(bound))}, got {re.escape(repr(past))}$"
            with pytest.raises(ConfigError, match=message):
                resolve({key: repr(past)})

    def test_diffusion_rejection_names_every_key_off_its_default(self):
        # a diffusion constant that temperature and mobility derive, and a cloud
        # narrower than the beam: each rule involves several keys
        with pytest.raises(ConfigError, match=r"^diff.temperature_k, diff.d_override: the diffusion constant must be at most 1 m\^2/s"):
            resolve({"diff.temperature_k": "1e308", "diff.d_override": "none"})
        with pytest.raises(ConfigError, match="^diff.temperature_k, ens.cloud_length_m: beam_interval must lie inside the cloud$"):
            resolve({"ens.cloud_length_m": "1e-4", "diff.temperature_k": "0.06"})

    def test_typed_configs_accept_every_resolved_config(self):
        # resolve builds only the diffusion config: the registry's single-key ranges
        # hold every rule of RamseyConfig, DetectionConfig and StabilityParams,
        # swept here over the product of the edges the registry declares for the
        # keys they read, in either detection mode (1,536 configs)
        keys = ("det.p", "seq.t_fp_s", "seq.pi2_duration_s", "seq.dead_time_s", "det.measurement_duration_s",
                "det.sigma_tech", "ens.n_ions", "seq.n_cp", "lo.f0_hz")
        edges = {k: [repr(edge) for edge, _, _ in _bound_edges(k)] for k in keys}
        edges["det.mode"] = ["fixed_fraction", "beam_overlap"]
        configs = [resolve(dict(zip(edges, values))) for values in itertools.product(*edges.values())]
        assert len(configs) == 1536
        for cfg in configs:
            cli._ramsey_config(cfg)
            cli._stab_params(cfg)

    def test_integers_fit_in_int64(self):
        # a library caller's integer is checked as its text would be
        for key in (k for k, d in DEFAULTS.items() if type(d) is int and k not in ("run.seed", "allan.points_per_decade")):
            with pytest.raises(ConfigError, match=f"^{key}: expected a value <= 9223372036854775807, got "):
                resolve({key: 10**400})
        # substream masks the seed to 64 bits
        assert resolve({"run.seed": 10**400})["run.seed"] == 10**400

    def test_integer_keys_take_no_float_or_bool(self):
        # a library caller's value is read as a config file's text would be:
        # "2.5" is no integer there, so 2.5 is none here, nor is True 1
        for value in (math.inf, -math.inf, math.nan, 2.5, 1999.9, 2.0, True, False, None):
            for key in ("seq.n_cp", "ens.n_ions", "run.seed"):
                with pytest.raises(ConfigError, match=f"^{key}: expected an integer, got {re.escape(repr(value))}$"):
                    resolve({key: value})
        assert resolve({"seq.n_cp": np.int64(5)})["seq.n_cp"] == 5

    def test_snr_derivation_that_overflows_is_a_config_error(self):
        with pytest.raises(ConfigError, match="det.sigma_tech"):
            resolve({"det.sigma_tech": "1e300"})
        # the registry bounds sigma_tech by the whole population range, whose
        # upper end derives the least snr
        var = 1.0 + 0.25 / (0.18 * 2000)
        assert cli._stab_params(resolve({"det.sigma_tech": "1"})).snr == pytest.approx(0.5 / math.sqrt(var), rel=1e-12)

    def test_float_keys_take_no_bool_or_non_number(self):
        # as for the integer keys: True is no number in a config file, and
        # a value float() cannot read is a ConfigError naming the key
        for value in (True, False, np.True_, None, [1.0], {}):
            for key in ("det.p", "lo.h0", "seq.t_fp_s"):
                with pytest.raises(ConfigError, match=f"^{key}: expected a finite number, got {re.escape(repr(value))}$"):
                    resolve({key: value})
        assert resolve({"det.p": np.float64(0.5), "lo.h0": 0})["det.p"] == 0.5
        for value in (None, "none", "null", " None "):
            assert resolve({"diff.d_override": value})["diff.d_override"] is None
        with pytest.raises(ConfigError, match="^diff.d_override: expected a finite number, got True$"):
            resolve({"diff.d_override": True})

    def test_hash_ignores_output_dir_but_not_seed(self):
        a = resolve({"run.output_dir": "x"})
        b = resolve({"run.output_dir": "y"})
        c = resolve({"run.seed": "777"})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestCli:
    # the limit-line inputs are derived, not keys
    @pytest.mark.parametrize("line", ["does.not.exist = 1", "stab.snr = 1e4"])
    def test_unknown_config_key_exits_2(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{line}\n")
        out = tmp_path / "o"
        r = run_cli("apl", "--config", cfg, "--out", out)
        assert r.returncode == 2
        assert "unknown config key" in r.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, key, value",
        [
            # a rule of several keys that the diffusion config holds, or one
            # that depends on the command
            ("diffusion", "diff.beam_lo_m", "-0.01"),
            ("reproduce fig5", "seq.n_cp", "2"),
            ("rabi", "det.mode", "beam_overlap"),
            ("reproduce fig4", "det.mode", "beam_overlap"),
            # a value that is no finite number
            ("apl", "seq.t_fp_s", "nan"),
            ("apl", "seq.dead_time_s", "nan"),
            ("apl", "seq.pi2_duration_s", "inf"),
            ("apl", "lo.delta_f0_hz", "nan"),
            # one key past its registry range on a command that reads it: main
            # resolves before the first draw of every bundle
            *[
                (command, key, value)
                for command, rows in (
                    ("apl", "det.p 1.5|det.p 0|run.n_trials -1|seq.t_fp_s 0|lo.f0_hz -1|lo.f0_hz 1e-308|"
                     "seq.dead_time_s -1|seq.dead_time_s 1e300|det.sigma_tech 1e300|det.measurement_duration_s 86401|"
                     f"allan.points_per_decade 0|allan.points_per_decade 101|allan.points_per_decade {2**62}"),
                    ("rabi", "det.p 1.5|seq.rabi_step_rad 0|seq.rabi_n_steps 0|seq.rabi_n_steps 1|"
                     "seq.rabi_repeats_ppm 0|lo.f0_hz 0|det.sigma_tech 1e300"),
                    ("reproduce fig4", "lo.f0_hz 0"),
                    ("reproduce fig5", "seq.pi2_duration_s -0.001"),
                    ("reproduce fig6", f"allan.points_per_decade {2**62}"),
                    ("diffusion", "diff.duration_max_s -0.001|diff.n_durations -1|diff.n_durations 0|"
                     "diff.temperature_k -1|diff.d_override -1|ens.cloud_length_m 1.5"),
                    *[(c, "lo.f0_hz 1e17|lo.delta_f0_hz -1e17|lo.h0 2|lo.h_minus1 1e308|lo.h_minus2 2")
                      for c in ("apl", "reproduce fig5", "rabi")],
                )
                for key, value in (row.split(" ") for row in rows.split("|"))
            ],
            # with a second line: a tiny carrier with a detuning, the beam mode,
            # and a readout window over which rabi's LO white-noise sd overflows
            ("apl", "lo.f0_hz", "1e-320\nlo.delta_f0_hz = 0.3"),
            ("apl", "lo.f0_hz", "1e-300\nlo.delta_f0_hz = 0.3"),
            ("apl", "diff.d_override", "2\ndet.mode = beam_overlap"),
            ("rabi", "det.measurement_duration_s", "5e-324\nlo.h0 = 1"),
            ("reproduce fig4", "det.measurement_duration_s", "5e-324\nlo.h0 = 1"),
            # a run config is valid or invalid whichever command runs it: each
            # of these bundles reads none of these values, which the registry
            # rejects; allan exits 2 before it would find that its input is missing
            ("rabi", "ens.cloud_length_m", "0"),
            ("diffusion", "det.p", "1.5"),
            ("rabi", "diff.mobility", "0"),
            ("diffusion", "det.sigma_tech", "1e300"),
            ("apl", "diff.dt_s", "0"),
            ("diffusion", "lo.h0", "-1"),
            ("allan missing.csv", "det.p", "1.5"),
            ("allan missing.csv", "lo.f0_hz", "1e308"),
            ("allan missing.csv", "allan.points_per_decade", "101"),
            # the default beam no longer fits inside the cloud
            ("apl", "ens.cloud_length_m", "1e-4"),
            ("reproduce fig5", "diff.beam_lo_m", "-0.01"),
            # work past the ceiling: an LO record of 2^62 intervals, 10^8 beam
            # ion positions per block, 10^8 Rabi points or walkers per duration
            ("apl", "seq.n_cp", str(2**62)),
            ("reproduce fig6", "seq.n_cp", str(2**62)),
            ("reproduce fig5", "seq.n_cp", str(2**62)),
            ("apl", "ens.n_ions", "100000000\ndet.mode = beam_overlap"),
            ("rabi", "seq.rabi_n_steps", "100000000"),
            ("reproduce fig4", "seq.rabi_repeats_standard", "100000000"),
            ("rabi", "seq.rabi_repeats_ppm", "100000000"),
            ("diffusion", "diff.n_walkers", "100000000"),
            # a derived diffusion constant past 1 m^2/s, on a command that
            # walks and on one that does not
            ("diffusion", "diff.temperature_k", "1e308\ndiff.d_override = none"),
            ("rabi", "diff.temperature_k", "1e308\ndiff.d_override = none"),
            ("apl", "diff.mobility", "1e300\ndiff.d_override = none\ndet.mode = beam_overlap"),
        ],
    )
    def test_bad_value_exits_2_before_simulating(
        self, tmp_path, monkeypatch, capsys, command, key, value
    ):
        def simulated(*args, **kwargs):
            raise AssertionError("simulation ran before the config was checked")

        # the first draw of each simulation: the ensemble batch, the LO
        # record of a bundle and a Brownian step
        monkeypatch.setattr(cli, "initialize_ensemble", simulated)
        monkeypatch.setattr(cli, "phase_increments", simulated)
        monkeypatch.setattr(diffusion, "step_brownian", simulated)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "o"
        assert cli.main([*command.split(), "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err, err
        assert not out.exists()

    def test_work_ceiling(self):
        # a product of keys is checked against one fixed ceiling, the keys named
        cli._check_work(cli.WORK_CEILING, "a x b")
        with pytest.raises(ConfigError, match=r"^a x b = 100000001 exceeds the work ceiling of 100000000$"):
            cli._check_work(cli.WORK_CEILING + 1, "a x b")

    def test_lo_record_past_the_ceiling_exits_2_at_once(self, tmp_path):
        # 2^62 cycles per block pass the int64 ceiling; drawn 512 at a time,
        # their LO record would run for ever
        cfg = tmp_path / "ncp.cfg"
        cfg.write_text(f"seq.n_cp = {2**62}\n")
        out = tmp_path / "o"
        r = run_cli("apl", "--config", cfg, "--trials", 2, "--out", out, timeout=60)
        assert r.returncode == 2, r.stderr
        assert r.stderr == (
            "config error: run.n_trials (or seq.n_cycles // seq.n_cp) blocks x seq.n_cp cycles"
            f" = {2 * 2**62} exceeds the work ceiling of 100000000\n"
        )
        assert not out.exists()

    def test_allan_tau_grid_past_the_ceiling_exits_2(self, tmp_path, monkeypatch, capsys):
        # the registry bounds the grid's density, whatever the series;
        # np.logspace cannot allocate 2^62 points a decade
        monkeypatch.chdir(tmp_path)
        (tmp_path / "series.csv").write_text("0,1e-12\n1,-2e-12\n2,3e-12\n3,1e-12\n4,0\n")
        for value in (101, 2**62):
            (tmp_path / "ppd.cfg").write_text(f"allan.points_per_decade = {value}\n")
            assert cli.main(["allan", "series.csv", "--config", "ppd.cfg", "--out", "o"]) == 2
            assert capsys.readouterr().err == (
                f"config error: allan.points_per_decade: expected a value <= 100, got {value}\n"
            )
            assert not (tmp_path / "o").exists()
        (tmp_path / "ppd.cfg").write_text("allan.points_per_decade = 100\n")
        assert cli.main(["allan", "series.csv", "--config", "ppd.cfg", "--out", "o"]) == 0

    def test_empty_output_dir_exits_2_before_simulating(self, tmp_path, monkeypatch, capsys):
        def simulated(*args, **kwargs):
            raise AssertionError("simulation ran before the config was checked")

        monkeypatch.setattr(cli, "initialize_ensemble", simulated)
        monkeypatch.setattr(cli, "phase_increments", simulated)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out.cfg").write_text("run.output_dir =\n")
        for flags in (["--out", ""], ["--config", "out.cfg"]):
            assert cli.main(["apl", "--trials", "2", *flags]) == 2
            assert capsys.readouterr().err == "config error: run.output_dir: expected a directory path, got ''\n"
        assert os.listdir(tmp_path) == ["out.cfg"]

    def test_output_path_under_a_file_exits_3_before_simulating(self, tmp_path, monkeypatch, capsys):
        def simulated(*args, **kwargs):
            raise AssertionError("simulation ran before the output path was checked")

        monkeypatch.setattr(cli, "initialize_ensemble", simulated)
        monkeypatch.setattr(cli, "phase_increments", simulated)
        monkeypatch.setattr(diffusion, "step_brownian", simulated)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        for command in (["apl", "--trials", "2"], ["diffusion"], ["allan", "missing.csv"]):
            for out in ("afile", "afile/x"):
                assert cli.main([*command, "--out", out]) == 3
                assert capsys.readouterr().err == f"error: cannot write outputs: {os.path.abspath('afile')} is not a directory\n"
        # an invalid run config still exits 2 first
        assert cli.main(["apl", "--trials", "-1", "--out", "afile/x"]) == 2
        assert capsys.readouterr().err.startswith("config error: run.n_trials: ")
        assert os.listdir(tmp_path) == ["afile"] and (tmp_path / "afile").read_text() == "kept\n"

    def test_allan_limit_line_off_the_float_range_exits_3(self, tmp_path, monkeypatch, capsys):
        # allan's tau grid comes from its series, so its limit lines are checked
        # once the input is read: taus near either end of the float range are a data error
        monkeypatch.chdir(tmp_path)
        for tau0 in (1e-320, 1e300):
            (tmp_path / "far.csv").write_text("".join(f"{i * tau0!r},1e-12\n" for i in range(4)))
            assert cli.main(["allan", "far.csv", "--out", "o"]) == 3
            assert capsys.readouterr().err == (
                "error: a limit line is 0 or not finite: an allan tau lies near an end of the float range\n"
            )
            assert not (tmp_path / "o").exists()

    def test_rejected_limit_lines_issue_no_warning(self, tmp_path, monkeypatch, capsys):
        # n_cp = 6 is past n_atom / snr^2 = 5.56 with no technical noise, but the
        # lines of a series spaced 1e300 s are rejected before the one that warns
        monkeypatch.chdir(tmp_path)
        (tmp_path / "far.csv").write_text("".join(f"{i * 1e300!r},1e-12\n" for i in range(4)))
        (tmp_path / "c.cfg").write_text("det.sigma_tech = 0\nseq.n_cp = 6\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", BoundViolationWarning)
            assert cli.main(["allan", "far.csv", "--config", "c.cfg", "--out", "o"]) == 3
        assert capsys.readouterr().err.startswith("error: a limit line is 0 or not finite")
        assert not (tmp_path / "o").exists()

    def test_limit_line_warning_is_issued_once_the_lines_are_accepted(self, tmp_path):
        # with no technical noise snr^2 = p N, so n_cp = 6 is past n_atom / snr^2 = 1/p = 5.56:
        # it warns, but the lines stay finite and the run succeeds
        cfg = tmp_path / "c.cfg"
        cfg.write_text("det.sigma_tech = 0\nseq.n_cp = 6\n")
        with pytest.warns(BoundViolationWarning, match="information bound") as record:
            assert cli.main(["apl", "--trials", "2", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert len(record) == 1
        assert record[0].filename == cli.__file__  # still points at the limit-line call

    @pytest.mark.parametrize(
        "command, lines, code",
        [
            # a Rabi step past one full turn, rejected by the registry
            ("rabi", ["seq.rabi_step_rad = 1000"], 2),
            ("rabi", ["seq.rabi_step_rad = 1e300"], 2),
            ("rabi", ["seq.rabi_step_rad = 1e308"], 2),
            # rabi does not read diff.d_override, but the run config is invalid whatever command runs it
            ("rabi", ["diff.d_override = -1"], 2),
            ("apl", ["diff.d_override = -1", "det.mode = beam_overlap"], 2),
            ("rabi", ["det.measurement_duration_s = 0"], 0),
            ("reproduce fig4", ["det.measurement_duration_s = 0"], 0),
            # a carrier past 1e16 Hz or below 1 Hz, which the registry rejects
            # before a limit line could leave the float range
            ("apl", ["lo.f0_hz = 1e308"], 2),
            ("apl", ["lo.f0_hz = 1e-308"], 2),
            ("apl", ["lo.f0_hz = 1e307"], 2),
            # technical noise past the population range or a free precession
            # under a nanosecond, rejected by the registry
            ("apl", ["lo.f0_hz = 1e-308", "det.sigma_tech = 1e154"], 2),
            ("rabi", ["det.sigma_tech = 1e154"], 2),
            ("apl", ["seq.t_fp_s = 1e-300"], 2),
            ("reproduce fig5", ["seq.t_fp_s = 5e-324"], 2),
        ],
    )
    def test_extreme_value_exits_without_traceback(self, tmp_path, command, lines, code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\n".join(["ens.n_ions = 50", *lines]) + "\n")
        out = tmp_path / "o"
        r = run_cli(*command.split(), "--config", cfg, "--out", out, "--trials", 2, timeout=60)
        assert (r.returncode, "Traceback" in r.stderr, r.stdout) == (code, False, ""), r.stderr
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("bundle", _BUNDLES, ids=" ".join)
    @pytest.mark.parametrize("key, value", _EDGE_VALUES)
    def test_every_key_at_its_edges_keeps_the_exit_contract(self, tmp_path, capsys, bundle, key, value):
        code = _run_bundle(tmp_path, bundle, {key: value})
        assert code in (0, 2, 3)
        assert (tmp_path / "o").exists() == (code == 0)
        if code == 2:  # a rejection names the key
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("bundle", [*_BUNDLES, ["reproduce", "fig6"]], ids=" ".join)
    @pytest.mark.parametrize("lo", _CORNER_LOS, ids=lambda lo: "-".join(lo))
    def test_bundles_at_the_registry_corners_write_finite_outputs(self, tmp_path, bundle, lo):
        # no sd, Allan point or limit line leaves the float range inside the registry's bounds
        assert _run_bundle(tmp_path, bundle, {**_CORNER, **lo}) == 0
        for path in (tmp_path / "o").glob("*.csv"):
            rows = [line.split(",") for line in path.read_text().splitlines()[3:]]
            assert rows and all(math.isfinite(float(f)) for row in rows for f in row if f not in ("standard", "ppm")), path

    @pytest.mark.parametrize("bundle", _BUNDLES, ids=" ".join)
    @pytest.mark.parametrize("settings", _LINE_INPUT_CASES)
    def test_limit_line_inputs_at_their_edges_keep_the_exit_contract(self, tmp_path, bundle, settings):
        # every edge lies inside the registry, so no bundle rejects it
        code = _run_bundle(tmp_path, bundle, settings)
        assert code in (0, 3)
        assert (tmp_path / "o").exists() == (code == 0)

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

    @pytest.mark.parametrize(
        "text, got",
        [("", 0), ("t,y\n# no samples\n", 0), ("0.0,1e-12\n", 1), ("t,y\n0.0,1e-12\n", 1)],
        ids=["empty", "header_and_comment", "one_row", "header_and_one_row"],
    )
    def test_allan_input_too_short_exits_3(self, tmp_path, capsys, text, got):
        short = tmp_path / "short.csv"
        short.write_text(text)
        out = tmp_path / "o"
        assert cli.main(["allan", str(short), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {short}: need at least 2 samples, got {got}\n"
        assert not out.exists()

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_allan_point_that_overflows_exits_3(self, tmp_path, capsys):
        # an allan input near the float range, whose squared differences overflow
        # (apl's y = delta_f / f0 cannot: lo.f0_hz is at least 1 Hz, so a tiny
        # carrier exits 2 before the simulation: test_bad_value_exits_2_before_simulating)
        big = tmp_path / "big.csv"
        big.write_text("0,1e200\n1,-1e200\n2,1e200\n3,1e200\n")
        out = tmp_path / "o"
        assert cli.main(["allan", str(big), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: the Allan deviation at tau=1 s is not finite: |y| is too large\n"
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
        "text, delimiter, skip, line",
        [
            # a line of blanks, with or without a comment, is a row of one
            # field with commas and no row with whitespace delimiters
            ("0.0,1e-12\n1.0,2e-12\n   \n2.0,3e-12\n3.0,1e-12\n", ",", 0, 3),
            ("   \n0.0,1e-12\n1.0,2e-12\n2.0,3e-12\n", ",", 0, 1),
            ("0.0,1e-12\n\t\n1.0,2e-12\n2.0,3e-12\n", ",", 0, 2),
            ("0.0,1e-12\n1.0,2e-12\n   # note\n2.0,3e-12\n", ",", 0, 3),
            ("0.0 1e-12\n1.0 2e-12\n   \n2.0 3e-12\n", None, 0, None),
            # float() reads `_` separators and non-ASCII digits, np.loadtxt neither
            ("0.0,1e-12\n1.0,2e-12\n2.0,1_0\n3.0,1e-12\n", ",", 0, 3),
            ("t,y\n0.0,1e-12\n1.0,2e-12\n2.0,\u0663\n3.0,1e-12\n", ",", 1, 4),
            ("0.0,\xa01e-12\xa0\n1.0,2e-12\n2.0,3e-12\n", ",", 0, None),
            # so a first line that only float() reads as numbers is a header
            ("1_0,1e-12\n0.0,1e-12\n1.0,2e-12\n2.0,3e-12\n", ",", 1, None),
        ],
        ids=["spaces", "spaces_first", "tab", "spaces_comment", "spaces_whitespace", "underscore",
             "arabic_digit", "nbsp", "underscore_header"],
    )
    def test_allan_reader_reads_rows_and_numbers_as_numpy(self, tmp_path, text, delimiter, skip, line):
        path = tmp_path / "f.csv"
        path.write_text(text, encoding="utf-8")
        try:
            ref = np.loadtxt(path, delimiter=delimiter, skiprows=skip, comments="#", encoding="utf-8")
        except ValueError:
            ref = None
        assert (ref is None) == (line is not None)
        if line is None:
            series = cli._read_series(path)
            assert np.array_equal(series.y, ref[:, 1])
            assert series.tau0 == 1.0
        else:
            with pytest.raises(cli.DataError) as err:
                cli._read_series(path)
            assert str(err.value).startswith(f"{path}:{line}: ")
            assert "at row" not in str(err.value)

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
            fit = sequences.fit_probe_curve(angles, means)
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

    @pytest.mark.parametrize("argv", [["apl"], ["reproduce", "fig6"]], ids=" ".join)
    def test_both_protocols_of_apl_share_one_lo_record(self, tmp_path, monkeypatch, argv):
        # the tracked blocks and the standard cycles see one noise realization:
        # one LO, one record of n_blocks * n_cp intervals, drawn once
        made, drawn, read = [], [], {}
        make_local_oscillator, phase_increments = cli.make_local_oscillator, cli.phase_increments

        def make(*args):
            made.append(args)
            return make_local_oscillator(*args)

        def draw(lo, dt, n):
            drawn.append((dt, n))
            return phase_increments(lo, dt, n)

        def spy(name, run):
            def wrapped(ensemble, increments, cfg):
                read[name] = np.array(increments)
                return run(ensemble, increments, cfg)

            monkeypatch.setattr(cli, name, wrapped)

        monkeypatch.setattr(cli, "make_local_oscillator", make)
        monkeypatch.setattr(cli, "phase_increments", draw)
        spy("run_apl_block", cli.run_apl_block)
        spy("run_standard_ramsey", cli.run_standard_ramsey)
        cfg = tmp_path / "noisy.cfg"
        cfg.write_text("lo.preset = maser\nseq.dead_time_s = 0.01\n")
        out = tmp_path / "o"
        assert cli.main([*argv, "--config", str(cfg), "--trials", "5", "--out", str(out)]) == 0
        rcfg = cli._ramsey_config(resolve({"seq.dead_time_s": "0.01"}))
        assert len(made) == 1 and drawn == [(rcfg.free_time, 5 * 3)]
        assert read["run_apl_block"].shape == (5, 3) and read["run_standard_ramsey"].shape == (15, 1)
        assert np.array_equal(read["run_apl_block"].ravel(), read["run_standard_ramsey"].ravel())
        assert np.unique(read["run_apl_block"]).size == 15  # a noisy LO: no two intervals alike

    def test_zero_readout_window_drifts_by_nothing(self, monkeypatch):
        # a zero-length window draws no LO record, whatever the LO's noise
        def drawn(*args):
            raise AssertionError("an LO record was drawn")

        monkeypatch.setattr(cli, "make_local_oscillator", drawn)
        monkeypatch.setattr(cli, "phase_increments", drawn)
        cfg = resolve({"lo.preset": "noisy", "lo.delta_f0_hz": "0.3", "det.measurement_duration_s": "0"})
        assert np.array_equal(cli._lo_record(cfg, "rabi-lo", 0.0, (3, 7)), np.zeros((3, 7)))

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

    def test_limit_lines_off_the_float_range_are_a_data_error(self):
        # at the default carrier the tau^(-1) line 1/(f0 snr tau) is inf at a
        # subnormal tau and 0 at a tau near the top of the float range
        params = cli._stab_params(resolve({}))
        cli._limit_table(params, [0.1, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for far in (1e-320, 1e308):
                with pytest.raises(cli.DataError, match="limit line"):
                    cli._limit_table(params, [0.1, 1.0, far])

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

    def test_failed_write_leaves_the_output_directory_as_it_was(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        argv = ["apl", "--trials", "2", "--out", str(out)]
        assert cli.main([*argv, "--seed", "1"]) == 0
        (out / "notes.txt").write_text("no run writes this file\n")
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        write_csv, calls = cli._write_csv, []

        def full_disk(fh, *args):
            calls.append(fh)
            if len(calls) == 3:
                fh.write("# config_hash=")  # a partial file, then the disk is full
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_csv(fh, *args)

        monkeypatch.setattr(cli, "_write_csv", full_disk)
        assert cli.main([*argv, "--seed", "2"]) == 3
        assert "cannot write outputs" in capsys.readouterr().err
        # the same names and bytes: no file of the failed run, and no hidden .ionclock-* directory
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before

    def test_failed_write_removes_the_directories_it_created(self, tmp_path, monkeypatch, capsys):
        write_csv, calls = cli._write_csv, []

        def full_disk(fh, *args):
            calls.append(fh)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_csv(fh, *args)

        monkeypatch.setattr(cli, "_write_csv", full_disk)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["apl", "--trials", "2", "--out", "fresh/a/b"]) == 3
        assert "cannot write outputs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # a directory that was there before the run stays, though empty
        (tmp_path / "kept").mkdir()
        calls.clear()
        assert cli.main(["apl", "--trials", "2", "--out", "kept/a"]) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

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


# -- the two-process reader of large allan inputs --

needs_memfd = pytest.mark.skipif(
    not hasattr(os, "memfd_create") or not os.path.isdir("/proc/self/fd"), reason="needs memfd and /proc"
)
needs_two_cpus = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and hasattr(os, "memfd_create"))
    or not os.path.isdir("/proc/self/task")
    or len(os.sched_getaffinity(0)) < 2,
    reason="needs fork, memfd, two CPUs and /proc",
)

# `python -m ionclock` that prints "fork" to stdout for each fork; the CLI itself prints nothing there
_COUNTING_FORKS = (
    "-c",
    "import runpy, sys; "
    "sys.addaudithook(lambda event, args: event == 'os.fork' and print('fork')); "
    "sys.argv[0] = 'ionclock'; runpy.run_module('ionclock', run_name='__main__')",
)

_N = 42_000  # rows of padding: about 1.1 MB, past the split size


@functools.cache
def _rows(start, n, delimiter=",", extra=""):
    y = np.random.default_rng(start).normal(0.0, 1e-12, n)
    return "".join(f"{start + i}.0{delimiter}{v:.12e}{extra}\n" for i, v in enumerate(y))


def _insert(text, line, what):
    """text with `what` put before its line number `line` (from 1)."""
    at = 0
    for _ in range(line - 1):
        at = text.index("\n", at) + 1
    return text[:at] + what + text[at:]


def _split_text(head, tail):
    """head + tail + a comment line: the reader cuts the file between head and tail."""
    pad = len(head.encode("utf-8")) - len(tail.encode("utf-8")) - 3
    assert pad >= 0
    return head + tail + "#" * pad + "\n"


# case -> (file text, exit code, a pattern of stderr). Every fault sits
# in the second half, which the child parses.
_SPLIT_CASES = {
    "header_whitespace_delimiter": (lambda: "time  y\n" + _rows(0, _N, "  "), 0, ""),
    "no_trailing_newline": (lambda: _rows(0, _N)[:-1], 0, ""),
    "comment_line": (lambda: _insert(_rows(0, _N), 10, "# note\n"), 0, ""),
    "blank_line": (lambda: _insert(_rows(0, _N), 10, "\n"), 0, ""),
    "crlf": (lambda: _rows(0, _N).replace("\n", "\r\n"), 0, ""),
    "lone_cr": (lambda: _rows(0, 10)[:-1] + "\r" + _rows(10, _N - 10), 0, ""),
    # the first half holds no data row, so np.loadtxt warns on it
    "comment_block_head": (lambda: "# a note on the run\n" * _N + _rows(0, _N // 2), 0, ""),
    # each half parses, and their column counts differ
    "wide_tail": (
        lambda: _split_text(_rows(0, _N), _rows(_N, _N // 2, extra=",7")), 3,
        rf":{_N + 1}: expected two columns, got 3",
    ),
    "one_column_head": (
        lambda: _split_text("".join(f"{i}.0\n" for i in range(2 * _N)), _rows(2 * _N, _N // 2, " ")), 3,
        r"series.csv:1: expected two columns, got 1",
    ),
    "blank_spaces_line": (
        lambda: _rows(0, _N) + f"   \n{_N}.0,1e-12\n", 3, rf":{_N + 1}: expected two columns, got 1"
    ),
    "underscore_sample": (lambda: _rows(0, _N) + f"{_N}.0,1_0\n", 3, rf":{_N + 1}: non-numeric sample"),
    "malformed_after_bom_header": (
        lambda: "\ufefft,y\n" + _rows(0, _N) + f"{_N}.0,oops\n", 3, rf":{_N + 2}: non-numeric sample"
    ),
    # U+FEFF inside the file is not a byte-order mark: that line does not parse
    "bom_at_cut": (
        lambda: _split_text(_rows(0, _N), "\ufeff" + _rows(_N, _N // 2)), 3, rf":{_N + 1}: non-numeric sample"
    ),
    "non_finite": (
        lambda: "t,y\n" + _rows(0, _N) + f"\n{_N}.0,nan\n{_N + 1}.0,1e-12\n", 3,
        rf":{_N + 3}: non-finite sample nan",
    ),
    "nan_timestamp": (
        lambda: _rows(0, _N) + f"nan,1e-12\n{_N + 1}.0,1e-12\n", 3,
        rf":{_N + 1}: non-uniform sample spacing \(gap nan",
    ),
    "nonuniform": (
        lambda: _rows(0, _N, " ") + f"{_N + 0.5} 0.0\n", 3, rf":{_N + 1}: non-uniform sample spacing"
    ),
}


@needs_two_cpus
@pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
def test_split_and_single_parse_agree(tmp_path, case):
    text, code, message = _SPLIT_CASES[case]
    path = tmp_path / "series.csv"
    path.write_bytes(text().encode("utf-8"))
    assert path.stat().st_size >= cli._SPLIT_BYTES
    out = tmp_path / "o"  # both runs on one path: run_meta.json records it
    cpu = min(os.sched_getaffinity(0))
    runs = []
    for pin in (None, lambda: os.sched_setaffinity(0, {cpu})):
        r = run_cli("allan", path, "--out", out, entry=_COUNTING_FORKS, preexec_fn=pin, timeout=60)
        files = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        runs.append((r.returncode, r.stderr, files, r.stdout.count("fork")))
    (split_code, split_err, split_files, forks), pinned = runs
    # the reader forks once, and never when pinned to one CPU
    assert pinned == (split_code, split_err, split_files, 0)
    assert (split_code, forks) == (code, 1), split_err
    assert re.search(message, split_err)
    assert bool(split_files) == (code == 0)


@needs_memfd
def test_halves_cut_at_a_line_end_parse_as_the_whole(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_can_fork", lambda: True)
    path = tmp_path / "series.csv"
    path.write_text("t,y\n" + _rows(0, _N))
    raw = path.read_bytes()
    cut = cli._cut(path)
    assert cut == raw.index(b"\n", len(raw) // 2) + 1
    head = cli._loadtxt_part(path, 0, cut, 1, ",", "utf-8-sig")
    tail = cli._loadtxt_part(path, cut, len(raw), 0, ",", "utf-8")
    assert np.array_equal(np.concatenate((head, tail)), cli._loadtxt(path, 1, ","))


@needs_memfd
def test_child_rows_that_do_not_load_fall_back_to_the_single_parse(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_can_fork", lambda: True)
    # the forked child saves junk in place of its rows
    monkeypatch.setattr(np, "save", lambda file, arr: file.write(b"not an array"))
    path = tmp_path / "series.csv"
    path.write_text("t,y\n" + _rows(0, _N))
    assert cli._loadtxt_in_two(path, 1, ",", cli._cut(path)) is None
    assert np.array_equal(cli._read_series(path).y, cli._loadtxt(path, 1, ",")[:, 1])
    with pytest.raises(ChildProcessError):  # both children were reaped
        os.waitpid(-1, os.WNOHANG)


@needs_proc
def test_reader_forks_only_for_a_large_file_in_a_one_thread_process(tmp_path, monkeypatch):
    def fork():
        pytest.fail("the reader forked")

    monkeypatch.setattr(os, "fork", fork)
    small = tmp_path / "small.csv"
    small.write_text(_rows(0, 100))
    assert small.stat().st_size < cli._SPLIT_BYTES
    assert len(cli._read_series(small).y) == 100
    large = tmp_path / "large.csv"
    large.write_text(_rows(0, _N))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(os.listdir("/proc/self/task")) > 1
        assert len(cli._read_series(large).y) == _N
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
