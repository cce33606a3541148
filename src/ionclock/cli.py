"""Command-line harness.

Subcommands run complete simulation bundles and write CSV/JSON into an
output directory. Every CSV starts with two comment lines carrying the
resolved config hash and the seed, so any output file can be traced to
the exact run that produced it. Nothing records wall-clock time and
all floats are printed with a fixed %.12g format, so re-running a
command with the same config and seed reproduces every file byte for
byte.

Exit codes: 0 success; 2 configuration problem (bad flag, unreadable
or malformed config file, unknown key, a value its typed config
rejects), raised before any simulation runs; 3 runtime or data problem
(fit failure, empty sample, malformed input series, unwritable output
directory). Results are built fully in memory before anything is
written, so a run that fails before writing writes nothing. Files an
earlier run left in the output directory are not removed.
"""

import argparse
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import diffusion as diff_mod
from .config import ConfigError, RunConfig, config_hash, parse_config_file, resolve
from .ensemble import DetectionConfig, EmptySampleError, initialize_ensemble
from .oscillator import NoiseSpec, make_local_oscillator
from .rng import substream
from .sequences import (
    FitFailureError,
    RamseyConfig,
    _argmin_1d,
    fit_decoherence,
    predicted_projected_fraction,
    run_apl_block,
    run_rabi_ppm,
    run_standard_ramsey,
)
from .stability import (
    FractionalFrequencySeries,
    InsufficientDataError,
    StabilityParams,
    allan_deviation,
    default_taus,
    limit_apl,
    limit_apl_repetition,
    limit_technical,
    qpn_snr,
)

__all__ = ["main"]


class DataError(RuntimeError):
    """Malformed or unusable input data file."""


def _fmt(v):
    if isinstance(v, float):
        return "%.12g" % v
    return str(v)


def _csv(h, seed, header, rows):
    lines = [f"# config_hash={h}", f"# seed={seed}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _allan_csv(h, seed, points):
    rows = [(p.tau, p.adev, p.n_pairs) for p in points]
    return _csv(h, seed, ("tau_s", "adev", "n_pairs"), rows)


def _json_doc(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _meta(command, cfg: RunConfig, h, outputs):
    return _json_doc(
        {
            "command": command,
            "config_hash": h,
            "seed": int(cfg["run.seed"]),
            "config": cfg.values,
            "outputs": sorted(outputs),
        }
    )


def _builds_config(build):
    """Report the ValueError of a typed config's own checks as a ConfigError."""

    @functools.wraps(build)
    def checked(*args, **kwargs):
        try:
            return build(*args, **kwargs)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    return checked


@_builds_config
def _detection(cfg) -> DetectionConfig:
    return DetectionConfig(
        p=cfg["det.p"],
        sigma_tech=cfg["det.sigma_tech"],
        measurement_duration=cfg["det.measurement_duration_s"],
    )


@_builds_config
def _local_oscillator(cfg, rng):
    spec = NoiseSpec(h0=cfg["lo.h0"], h_minus1=cfg["lo.h_minus1"], h_minus2=cfg["lo.h_minus2"])
    return make_local_oscillator(cfg["lo.f0_hz"], cfg["lo.delta_f0_hz"], spec, rng)


@_builds_config
def _stab_params(cfg) -> StabilityParams:
    return StabilityParams(
        q=cfg["stab.q"],
        snr=cfg["stab.snr"],
        t_c=cfg["stab.t_c_s"],
        k=cfg["stab.k"],
        f0=cfg["lo.f0_hz"],
        n_cp=cfg["seq.n_cp"],
        n_atom=cfg["stab.n_atom"],
    )


@_builds_config
def _diffusion_config(cfg) -> diff_mod.DiffusionConfig:
    return diff_mod.DiffusionConfig(
        temperature=cfg["diff.temperature_k"],
        mobility=cfg["diff.mobility"],
        d_override=cfg["diff.d_override"],
        dt=cfg["diff.dt_s"],
        cloud_length=cfg["ens.cloud_length_m"],
        beam_interval=(cfg["diff.beam_lo_m"], cfg["diff.beam_hi_m"]),
    )


@_builds_config
def _ramsey_config(cfg) -> RamseyConfig:
    beam = cfg["det.mode"] == "beam_overlap"
    return RamseyConfig(
        t_fp=cfg["seq.t_fp_s"],
        pi2_duration=cfg["seq.pi2_duration_s"],
        n_cp=cfg["seq.n_cp"],
        detection=_detection(cfg),
        dead_time=cfg["seq.dead_time_s"],
        diffusion=_diffusion_config(cfg) if beam else None,
    )


def _tracking_blocks(cfg, rcfg: RamseyConfig, lo, n_blocks):
    """The records of n_blocks consecutive tracking blocks, block by block.

    Every block starts from a fresh ensemble of one batch drawn from
    one stream; the LO runs on across blocks.
    """
    ens = initialize_ensemble(cfg["ens.n_ions"], substream(cfg["run.seed"], "apl-ens"), n_blocks)
    return run_apl_block(ens, lo, rcfg)


def _cycle_columns(recs):
    """CSV rows of cycle records, and their delta_f_hz and projected_before as arrays."""
    rows = [(r.block, r.n, r.timestamp, r.estimate, r.phi_n, r.delta_f_hz) for r in recs]
    return rows, np.array([r.delta_f_hz for r in recs]), np.array([r.projected_before for r in recs])


def _fit_doc(fit):
    return {
        "p": fit.model.p,
        "amplitude": fit.model.amplitude,
        "p_stderr": fit.p_stderr,
        "p_ci95": None if fit.p_ci95 is None else list(fit.p_ci95),
        "residual_norm": fit.residual_norm,
    }


def _limit_rows(params: StabilityParams, taus):
    taus = np.asarray(taus, dtype=float)
    columns = (
        taus,
        limit_technical(params, taus),
        limit_apl(params, taus),
        limit_apl_repetition(params, taus),
        limit_technical(replace(params, snr=qpn_snr(params.n_atom)), taus),
    )
    return [tuple(float(v) for v in row) for row in zip(*columns)]


_LIMIT_HEADER = ("tau_s", "limit_technical", "limit_apl", "limit_apl_repetition", "limit_qpn")


def _allan_points(cfg, y, tau0):
    """Allan deviation of y on the configured grid; no points below two samples."""
    if len(y) < 2:
        return []
    series = FractionalFrequencySeries(y, tau0)
    return allan_deviation(
        series, default_taus(series, cfg["allan.points_per_decade"]), cfg["allan.mode"]
    )


def _rabi_fit(angles, means):
    # contrast/offset/step fit of the probe response c + a (1 - cos(k w)) / 2;
    # linear in (c, a) for fixed w, which is searched around the nominal step
    ks = np.arange(len(means), dtype=float)
    step0 = angles[1]

    def solve(w):
        basis = np.column_stack([np.ones_like(ks), (1.0 - np.cos(ks * w)) / 2.0])
        coef = np.linalg.lstsq(basis, means, rcond=None)[0]
        return coef, means - basis @ coef

    def cost(w):
        resid = solve(w)[1]
        return float(resid @ resid)

    step = _argmin_1d(cost, 0.5 * step0, 1.5 * step0)
    (offset, amplitude), resid = solve(step)
    if not np.all(np.isfinite(resid)):
        raise FitFailureError(f"probe-curve fit gave a non-finite result (c={offset}, a={amplitude})")
    return {
        "offset": float(offset),
        "amplitude": float(amplitude),
        "step_rad": step,
        "residual_norm": float(np.linalg.norm(resid)),
    }


def cmd_rabi(cfg: RunConfig, h):
    seed = cfg["run.seed"]
    n_steps = cfg["seq.rabi_n_steps"]
    step = cfg["seq.rabi_step_rad"]
    det = _detection(cfg)
    if cfg["det.mode"] != "fixed_fraction":
        raise ConfigError(f"the probe bundle needs det.mode = fixed_fraction, got {cfg['det.mode']}")
    trials = cfg["run.n_trials"]

    rows = []
    curves = {}
    for mode, reps, reinit in (
        ("standard", trials or cfg["seq.rabi_repeats_standard"], True),
        ("ppm", trials or cfg["seq.rabi_repeats_ppm"], False),
    ):
        est = np.empty((reps, n_steps + 1))
        for r in range(reps):
            lo = _local_oscillator(cfg, substream(seed, f"rabi-lo-{mode}", r))
            ens = initialize_ensemble(cfg["ens.n_ions"], substream(seed, f"rabi-{mode}", r))
            recs = run_rabi_ppm(ens, lo, step, n_steps, reinit, det)
            est[r] = [rec.estimate for rec in recs]
        mean = est.mean(axis=0)
        sd = est.std(axis=0, ddof=1) if reps > 1 else np.zeros(n_steps + 1)
        curves[mode] = mean
        for k in range(n_steps + 1):
            rows.append((mode, k, k * step, float(mean[k]), float(sd[k]), reps))

    deviation = np.abs(curves["ppm"] - curves["standard"])
    fits = {m: _rabi_fit(np.arange(n_steps + 1) * step, c) for m, c in curves.items()}
    files = {
        "rabi_curve.csv": _csv(
            h, seed,
            ("mode", "step", "angle_rad", "mean_estimate", "sd_estimate", "n_trials"),
            rows,
        ),
        "rabi_fit.json": _json_doc(
            {
                "fits": fits,
                "deviation_by_step": [float(d) for d in deviation],
                "max_abs_deviation": float(deviation.max()),
            }
        ),
    }
    return files


def cmd_apl(cfg: RunConfig, h):
    seed = cfg["run.seed"]
    n_cp = cfg["seq.n_cp"]
    n_blocks = cfg["run.n_trials"] or max(1, cfg["seq.n_cycles"] // n_cp)
    rcfg = _ramsey_config(cfg)
    params = _stab_params(cfg)
    f0 = cfg["lo.f0_hz"]

    # same substream for both oscillators: the two protocols see the
    # identical noise realization, so the comparison is apples to apples
    lo_apl = _local_oscillator(cfg, substream(seed, "lo"))
    lo_std = _local_oscillator(cfg, substream(seed, "lo"))

    # (block, n) tables; reduced one column at a time, so each sum runs
    # in the same order as over a list of that column
    apl_rows, df, proj = _cycle_columns(_tracking_blocks(cfg, rcfg, lo_apl, n_blocks))
    df, proj = df.reshape(n_blocks, n_cp), proj.reshape(n_blocks, n_cp)

    std_ens = initialize_ensemble(cfg["ens.n_ions"], substream(seed, "std-ens"), n_blocks * n_cp)
    std_rows, std_df, _ = _cycle_columns(run_standard_ramsey(std_ens, lo_std, rcfg))

    sd_rows = [
        (n, float(df[:, n - 1].std(ddof=1)) if n_blocks > 1 else 0.0, n_blocks)
        for n in range(1, n_cp + 1)
    ]

    cycle_header = ("block_id", "n", "timestamp_s", "estimate", "phi_rad", "delta_f_hz")
    files = {
        "apl_cycles.csv": _csv(h, seed, cycle_header, apl_rows),
        "ramsey_cycles.csv": _csv(h, seed, cycle_header, std_rows),
        "apl_sd.csv": _csv(h, seed, ("n", "sd_delta_f_hz", "n_blocks"), sd_rows),
    }

    ns = np.arange(1, n_cp + 1)
    mean_proj = np.array([proj[:, n - 1].mean() for n in ns])
    fit_doc = {"mean_projected_by_n": [float(v) for v in mean_proj]}
    if n_cp >= 3:
        fit_doc.update(_fit_doc(fit_decoherence(ns, mean_proj)))
    files["decoherence_fit.json"] = _json_doc(fit_doc)

    std_pts = _allan_points(cfg, std_df / f0, rcfg.standard_cycle_time)
    files["allan_standard.csv"] = _allan_csv(h, seed, std_pts)
    apl_pts = _allan_points(cfg, df[:, -1] / f0, rcfg.block_time)
    files["allan_apl.csv"] = _allan_csv(h, seed, apl_pts)
    taus = np.logspace(
        math.log10(rcfg.standard_cycle_time), math.log10(max(n_blocks, 2) * rcfg.block_time), 25
    )
    files["limits.csv"] = _csv(h, seed, _LIMIT_HEADER, _limit_rows(params, taus))
    return files


def cmd_diffusion(cfg: RunConfig, h):
    seed = cfg["run.seed"]
    dcfg = _diffusion_config(cfg)
    n_walkers = cfg["diff.n_walkers"]
    d_eff = dcfg.effective_d()

    rng = substream(seed, "diff-msd")
    z = np.zeros(n_walkers)
    msd_rows = []
    for k in range(1, 101):
        z = diff_mod.step_brownian(z, d_eff, dcfg.dt, rng)  # free space
        if k % 10 == 0:
            t = k * dcfg.dt
            msd_rows.append((t, float(np.mean(z * z)), 2.0 * d_eff * t))

    temps = np.linspace(0.01, 0.10, 10)
    d_rows = [
        (float(t), diff_mod.diffusion_constant(float(t), dcfg.mobility)) for t in temps
    ]

    durations = np.linspace(0.0, cfg["diff.duration_max_s"], cfg["diff.n_durations"])
    struck_rows = []
    for i, dur in enumerate(durations):
        frac, _ = diff_mod.fraction_struck(dcfg, float(dur), n_walkers, substream(seed, "diff", i))
        struck_rows.append((float(dur), frac, n_walkers))

    return {
        "msd.csv": _csv(h, seed, ("t_s", "msd_m2", "predicted_m2"), msd_rows),
        "d_of_t.csv": _csv(h, seed, ("temperature_k", "d_m2_per_s"), d_rows),
        "struck.csv": _csv(h, seed, ("duration_s", "fraction", "n_ions"), struck_rows),
    }


def _data_lines(fh, skip=0):
    """Yield (line number, text) of each line past `skip` that holds data."""
    for lineno, line in enumerate(fh, start=1):
        text = line.split("#", 1)[0].strip()
        if lineno > skip and text:
            yield lineno, text


def _numeric(fields):
    try:
        for f in fields:
            float(f)
    except ValueError:
        return False
    return True


def _sniff(path, fh):
    """Lines to skip (through an optional header) and the column delimiter.

    A first line that is not all numbers is a header. The first data
    line picks the delimiter: a comma if it has one, otherwise
    whitespace (None).
    """
    skip = 0
    for lineno, text in _data_lines(fh):
        if skip or _numeric(text.replace(",", " ").split()):
            return skip, ("," if "," in text else None)
        skip = lineno
    raise DataError(f"{path}: need at least 2 samples, got 0")


def _bad_line(path, skip, delimiter, why):
    """A DataError naming the first file line that is not two numbers."""
    with open(path, encoding="utf-8") as fh:
        for lineno, text in _data_lines(fh, skip):
            fields = text.split(delimiter)
            if len(fields) != 2:
                return DataError(f"{path}:{lineno}: expected two columns, got {len(fields)}")
            if not _numeric(fields):
                return DataError(f"{path}:{lineno}: non-numeric sample {text!r}")
    return DataError(f"{path}: {why}")


def _read_series(path):
    try:
        with open(path, encoding="utf-8") as fh:
            skip, delimiter = _sniff(path, fh)
        try:
            data = np.loadtxt(
                path, delimiter=delimiter, comments="#", skiprows=skip, ndmin=2, encoding="utf-8"
            )
        except ValueError as exc:  # numpy names the data row, not the file line
            raise _bad_line(path, skip, delimiter, exc) from None
        if data.shape[1] != 2:
            raise _bad_line(path, skip, delimiter, f"expected two columns, got {data.shape[1]}")
        if len(data) < 2:
            raise DataError(f"{path}: need at least 2 samples, got {len(data)}")
        gaps = np.diff(data[:, 0])
        tau0 = float(np.median(gaps))
        if tau0 <= 0:
            raise DataError(f"{path}: timestamps must be strictly increasing")
        bad = np.flatnonzero(np.abs(gaps - tau0) > 1e-6 * tau0)
        if bad.size:
            with open(path, encoding="utf-8") as fh:
                lineno = next(itertools.islice(_data_lines(fh, skip), bad[0] + 1, None))[0]
            raise DataError(
                f"{path}:{lineno}: non-uniform sample spacing "
                f"(gap {gaps[bad[0]]:.12g}, expected {tau0:.12g})"
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return FractionalFrequencySeries(data[:, 1], tau0)


def cmd_allan(cfg: RunConfig, h, input_path):
    seed = cfg["run.seed"]
    params = _stab_params(cfg)
    series = _read_series(input_path)
    pts = _allan_points(cfg, series.y, series.tau0)
    return {
        "allan.csv": _allan_csv(h, seed, pts),
        "limits.csv": _csv(h, seed, _LIMIT_HEADER, _limit_rows(params, [p.tau for p in pts])),
    }


def _projection_bundle(cfg: RunConfig, h):
    seed = cfg["run.seed"]
    n_cp = cfg["seq.n_cp"]
    if n_cp < 3:
        raise ConfigError(f"the projected-fraction fit needs seq.n_cp >= 3, got {n_cp}")
    n_blocks = cfg["run.n_trials"] or 32
    rcfg = _ramsey_config(cfg)
    lo = _local_oscillator(cfg, substream(seed, "lo"))
    recs = _tracking_blocks(cfg, rcfg, lo, n_blocks)
    proj = np.array([r.projected_before for r in recs]).reshape(n_blocks, n_cp)

    ns = np.arange(1, n_cp + 1)
    mean = proj.mean(axis=0)
    sd = proj.std(axis=0, ddof=1) if n_blocks > 1 else np.zeros(n_cp)
    fit = fit_decoherence(ns, mean)
    predicted = predicted_projected_fraction(fit.model, ns)
    rows = [
        (int(n), float(mean[i]), float(sd[i]), float(predicted[i]))
        for i, n in enumerate(ns)
    ]
    return {
        "fig5_projection.csv": _csv(h, seed, ("n", "mean_projected", "sd", "predicted"), rows),
        "decoherence_fit.json": _json_doc(_fit_doc(fit)),
    }


# command -> bundle(cfg, h); allan also takes its input path
_COMMANDS = {"rabi": cmd_rabi, "apl": cmd_apl, "diffusion": cmd_diffusion, "allan": cmd_allan}

# reproduce target -> (bundle, config preset); config-file values win
# over the preset, command-line flags over both
_REPRODUCE = {
    # probe-curve comparison: re-initialized vs accumulated back-action
    "fig4": (cmd_rabi, {"seq.rabi_step_rad": math.pi / 6.0, "seq.rabi_n_steps": 12}),
    # projected-fraction growth over an 8-cycle block
    "fig5": (_projection_bundle, {"seq.n_cp": 8, "run.n_trials": 32}),
    # stability comparison: tracked blocks vs independent cycles
    "fig6": (
        cmd_apl,
        {
            "seq.n_cp": 3,
            "run.n_trials": 800,
            "seq.n_cycles": 2400,
            "lo.preset": "maser",
        },
    ),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ionclock",
        description="Seeded Monte Carlo runs of a trapped-ion ensemble clock",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--out", help="override run.output_dir")
        p.add_argument("--trials", type=int, help="override run.n_trials")

    common(sub.add_parser("rabi", help="probe-curve bundle, with and without state reuse"))
    common(sub.add_parser("apl", help="phase-tracking blocks vs independent cycles"))
    common(sub.add_parser("diffusion", help="transport statistics and beam strike fractions"))
    p_allan = sub.add_parser("allan", help="two-sample deviation of a (t, y) series")
    p_allan.add_argument("input", help="CSV/whitespace file of time, fractional frequency")
    common(p_allan)
    p_rep = sub.add_parser("reproduce", help="canned demonstration bundles")
    p_rep.add_argument("target", choices=sorted(_REPRODUCE))
    common(p_rep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "reproduce":
        bundle, preset = _REPRODUCE[args.target]
    else:
        bundle, preset = _COMMANDS[args.command], {}
    if args.command == "allan":
        bundle = functools.partial(bundle, input_path=args.input)
    try:
        raw = parse_config_file(args.config) if args.config else {}
        for key, val in preset.items():
            raw.setdefault(key, val)
        for key, val in (
            ("run.seed", args.seed),
            ("run.output_dir", args.out),
            ("run.n_trials", args.trials),
        ):
            if val is not None:
                raw[key] = val
        cfg = resolve(raw)
        h = config_hash(cfg)
        files = bundle(cfg, h)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EmptySampleError, FitFailureError, DataError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    files["run_meta.json"] = _meta(args.command, cfg, h, list(files) + ["run_meta.json"])
    out_dir = cfg["run.output_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                fh.write(content)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
