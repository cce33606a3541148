"""Command-line harness.

Subcommands run complete simulation bundles and write CSV/JSON into an
output directory. A bundle returns data, not text: each CSV as its
header and columns, each JSON file as a dict; only ``main`` renders and
writes them. Every CSV starts with two comment lines carrying the
resolved config hash and the seed, so any output file can be traced to
the exact run that produced it. Nothing records wall-clock time and
all floats are printed with a fixed %.12g format, so re-running a
command with the same config and seed reproduces every file byte for
byte.

Exit codes: 0 success; 2 configuration problem (bad flag, unreadable
or malformed config file, unknown key, a value its typed config
rejects), raised before any simulation runs; 3 runtime or data problem
(fit failure, empty sample, malformed input series, unwritable output
directory). Every result is computed before the first file is opened,
so a run that fails before writing writes nothing; each file is then
rendered and written 512 rows at a time. Files an earlier run left in
the output directory are not removed.
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
from .config import ConfigError, config_hash, parse_config_file, resolve
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


_CSV_CHUNK_ROWS = 512  # rows formatted and written at a time: one chunk of text is alive


def _write_csv(fh, h, seed, header, columns):
    """Write equal-length columns as CSV; float columns print as %.12g, others as %s."""
    columns = [np.ravel(c) for c in columns]
    fmt = ",".join("%.12g" if c.dtype.kind == "f" else "%s" for c in columns) + "\n"
    fh.write(f"# config_hash={h}\n# seed={seed}\n{','.join(header)}\n")
    for i in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        rows = zip(*(c[i : i + _CSV_CHUNK_ROWS].tolist() for c in columns))
        fh.write("".join(map(fmt.__mod__, rows)))


def _json_doc(payload):
    # numpy scalars and arrays print as the Python floats and lists they hold
    return json.dumps(payload, indent=2, sort_keys=True, default=lambda v: v.tolist()) + "\n"


def _allan_table(points):
    columns = ([p.tau for p in points], [p.adev for p in points], [p.n_pairs for p in points])
    return ("tau_s", "adev", "n_pairs"), columns


def _meta(command, cfg, h, outputs):
    from . import __version__

    python = "%d.%d.%d" % sys.version_info[:3]
    return {
        "command": command,
        "config_hash": h,
        "seed": cfg["run.seed"],
        "config": dict(cfg),
        "outputs": sorted(outputs),
        "versions": {"ionclock": __version__, "numpy": np.__version__, "python": python},
    }


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
    """The CycleTable of n_blocks consecutive tracking blocks: (n_blocks, n_cp) arrays.

    Every block starts from a fresh ensemble of one batch drawn from
    one stream; the LO runs on across blocks.
    """
    ens = initialize_ensemble(cfg["ens.n_ions"], substream(cfg["run.seed"], "apl-ens"), n_blocks)
    return run_apl_block(ens, lo, rcfg)


def _cycle_table(t):
    header = ("block_id", "n", "timestamp_s", "estimate", "phi_rad", "delta_f_hz")
    return header, (t.block, t.n, t.timestamp, t.estimate, t.phi_n, t.delta_f_hz)


def _fit_doc(fit):
    return {
        "p": fit.model.p,
        "amplitude": fit.model.amplitude,
        "p_stderr": fit.p_stderr,
        "p_ci95": fit.p_ci95,
        "residual_norm": fit.residual_norm,
    }


def _limit_table(params: StabilityParams, taus):
    taus = np.asarray(taus, dtype=float)
    header = ("tau_s", "limit_technical", "limit_apl", "limit_apl_repetition", "limit_qpn")
    # a product such as k * f0 * snr * tau past the float range makes a line 0 or inf
    with np.errstate(over="ignore", divide="ignore"):
        lines = (
            limit_technical(params, taus),
            limit_apl(params, taus),
            limit_apl_repetition(params, taus),
            limit_technical(replace(params, snr=qpn_snr(params.n_atom)), taus),
        )
    if not all(np.all((line > 0.0) & (line < math.inf)) for line in lines):
        raise ConfigError("a limit line is 0 or not finite: k, q, f0 or snr times tau leaves the float range")
    return header, (taus, *lines)


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
        "offset": offset,
        "amplitude": amplitude,
        "step_rad": step,
        "residual_norm": np.linalg.norm(resid),
    }


def cmd_rabi(cfg):
    seed = cfg["run.seed"]
    n_steps = cfg["seq.rabi_n_steps"]
    step = cfg["seq.rabi_step_rad"]
    det = _detection(cfg)
    if cfg["det.mode"] != "fixed_fraction":
        raise ConfigError(f"the probe bundle needs det.mode = fixed_fraction, got {cfg['det.mode']}")
    trials = cfg["run.n_trials"]
    # built before either batch, so a bad lo.* value exits 2 before any
    # draw; only the accumulated batch reads it
    lo = _local_oscillator(cfg, substream(seed, "rabi-lo"))

    ks = np.arange(n_steps + 1)
    tables = []  # the CSV columns of each mode
    curves = {}
    for mode, reps, reinit in (
        ("standard", trials or cfg["seq.rabi_repeats_standard"], True),
        ("ppm", trials or cfg["seq.rabi_repeats_ppm"], False),
    ):
        # one block per repeat: row r of the estimates is repeat r
        batch = initialize_ensemble(cfg["ens.n_ions"], substream(seed, f"rabi-{mode}"), reps)
        est = run_rabi_ppm(batch, lo, step, n_steps, reinit, det)
        mean = est.mean(axis=0)
        sd = est.std(axis=0, ddof=1) if reps > 1 else np.zeros(n_steps + 1)
        curves[mode] = mean
        tables.append(([mode] * ks.size, ks, ks * step, mean, sd, [reps] * ks.size))

    deviation = np.abs(curves["ppm"] - curves["standard"])
    return {
        "rabi_curve.csv": (
            ("mode", "step", "angle_rad", "mean_estimate", "sd_estimate", "n_trials"),
            [np.concatenate(c) for c in zip(*tables)],
        ),
        "rabi_fit.json": {
            "fits": {m: _rabi_fit(ks * step, c) for m, c in curves.items()},
            "deviation_by_step": deviation,
            "max_abs_deviation": deviation.max(),
        },
    }


def cmd_apl(cfg):
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

    apl = _tracking_blocks(cfg, rcfg, lo_apl, n_blocks)
    std_ens = initialize_ensemble(cfg["ens.n_ions"], substream(seed, "std-ens"), n_blocks * n_cp)
    std = run_standard_ramsey(std_ens, lo_std, rcfg)
    df = apl.delta_f_hz

    ns = np.arange(1, n_cp + 1)
    # per column: std(axis=0) sums in another order and moves the last bits
    sds = [df[:, n - 1].std(ddof=1) if n_blocks > 1 else 0.0 for n in ns]
    fit_doc = {"mean_projected_by_n": apl.projected_before.mean(axis=0)}
    if n_cp >= 3:
        fit_doc.update(_fit_doc(fit_decoherence(apl.projected_before)))

    std_pts = _allan_points(cfg, std.delta_f_hz[:, 0] / f0, rcfg.standard_cycle_time)
    apl_pts = _allan_points(cfg, df[:, -1] / f0, rcfg.block_time)
    taus = np.logspace(
        math.log10(rcfg.standard_cycle_time), math.log10(max(n_blocks, 2) * rcfg.block_time), 25
    )
    return {
        "apl_cycles.csv": _cycle_table(apl),
        "ramsey_cycles.csv": _cycle_table(std),
        "apl_sd.csv": (("n", "sd_delta_f_hz", "n_blocks"), (ns, sds, [n_blocks] * n_cp)),
        "decoherence_fit.json": fit_doc,
        "allan_standard.csv": _allan_table(std_pts),
        "allan_apl.csv": _allan_table(apl_pts),
        "limits.csv": _limit_table(params, taus),
    }


def cmd_diffusion(cfg):
    seed = cfg["run.seed"]
    dcfg = _diffusion_config(cfg)
    n_walkers = cfg["diff.n_walkers"]
    d_eff = dcfg.effective_d()

    rng = substream(seed, "diff-msd")
    z = np.zeros(n_walkers)
    msd = []
    for k in range(1, 101):
        z = diff_mod.step_brownian(z, d_eff, dcfg.dt, rng)  # free space
        if k % 10 == 0:
            msd.append(np.mean(z * z))
    t = np.arange(10, 101, 10) * dcfg.dt

    temps = np.linspace(0.01, 0.10, 10)
    d = [diff_mod.diffusion_constant(float(temp), dcfg.mobility) for temp in temps]

    durations = np.linspace(0.0, cfg["diff.duration_max_s"], cfg["diff.n_durations"])
    fractions = [
        diff_mod.fraction_struck(dcfg, float(dur), n_walkers, substream(seed, "diff", i))
        for i, dur in enumerate(durations)
    ]

    return {
        "msd.csv": (("t_s", "msd_m2", "predicted_m2"), (t, msd, 2.0 * d_eff * t)),
        "d_of_t.csv": (("temperature_k", "d_m2_per_s"), (temps, d)),
        "struck.csv": (
            ("duration_s", "fraction", "n_ions"),
            (durations, fractions, [n_walkers] * durations.size),
        ),
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
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, text in _data_lines(fh, skip):
            fields = text.split(delimiter)
            if len(fields) != 2:
                return DataError(f"{path}:{lineno}: expected two columns, got {len(fields)}")
            if not _numeric(fields):
                return DataError(f"{path}:{lineno}: non-numeric sample {text!r}")
    return DataError(f"{path}: {why}")


def _line_of(path, skip, row):
    """The file line number of data row `row` (from 0) past `skip`."""
    with open(path, encoding="utf-8-sig") as fh:
        return next(itertools.islice(_data_lines(fh, skip), row, None))[0]


def _read_series(path):
    try:
        # utf-8-sig drops a byte-order mark, or the first sample would read as a header
        with open(path, encoding="utf-8-sig") as fh:
            skip, delimiter = _sniff(path, fh)
        try:
            data = np.loadtxt(
                path, delimiter=delimiter, comments="#", skiprows=skip, ndmin=2,
                encoding="utf-8-sig",
            )
        except ValueError as exc:  # numpy names the data row, not the file line
            raise _bad_line(path, skip, delimiter, exc) from None
        if data.shape[1] != 2:
            raise _bad_line(path, skip, delimiter, f"expected two columns, got {data.shape[1]}")
        if len(data) < 2:
            raise DataError(f"{path}: need at least 2 samples, got {len(data)}")
        bad = np.flatnonzero(~np.isfinite(data[:, 1]))
        if bad.size:
            lineno = _line_of(path, skip, bad[0])
            raise DataError(f"{path}:{lineno}: non-finite sample {data[bad[0], 1]}")
        gaps = np.diff(data[:, 0])
        # the median gap; np.median would import numpy.ma on its first call
        mid = ((gaps.size - 1) // 2, gaps.size // 2)
        part = np.partition(gaps, mid)
        tau0 = float((part[mid[0]] + part[mid[1]]) / 2.0)
        if not tau0 > 0:
            raise DataError(f"{path}: timestamps must be strictly increasing")
        bad = np.flatnonzero(~(np.abs(gaps - tau0) <= 1e-6 * tau0))  # nan gaps too
        if bad.size:
            lineno = _line_of(path, skip, bad[0] + 1)
            raise DataError(
                f"{path}:{lineno}: non-uniform sample spacing "
                f"(gap {gaps[bad[0]]:.12g}, expected {tau0:.12g})"
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return FractionalFrequencySeries(data[:, 1], tau0)


def cmd_allan(cfg, input_path):
    params = _stab_params(cfg)
    series = _read_series(input_path)
    pts = _allan_points(cfg, series.y, series.tau0)
    return {"allan.csv": _allan_table(pts), "limits.csv": _limit_table(params, [p.tau for p in pts])}


def _projection_bundle(cfg):
    seed = cfg["run.seed"]
    n_cp = cfg["seq.n_cp"]
    if n_cp < 3:
        raise ConfigError(f"the projected-fraction fit needs seq.n_cp >= 3, got {n_cp}")
    n_blocks = cfg["run.n_trials"] or 32
    rcfg = _ramsey_config(cfg)
    lo = _local_oscillator(cfg, substream(seed, "lo"))
    proj = _tracking_blocks(cfg, rcfg, lo, n_blocks).projected_before

    ns = np.arange(1, n_cp + 1)
    mean = proj.mean(axis=0)
    sd = proj.std(axis=0, ddof=1) if n_blocks > 1 else np.zeros(n_cp)
    fit = fit_decoherence(proj)
    columns = (ns, mean, sd, predicted_projected_fraction(fit.model, ns))
    return {
        "fig5_projection.csv": (("n", "mean_projected", "sd", "predicted"), columns),
        "decoherence_fit.json": _fit_doc(fit),
    }


# command -> bundle(cfg), which returns {file name: (CSV header, columns)
# or JSON dict}; allan also takes its input path
_COMMANDS = {"rabi": cmd_rabi, "apl": cmd_apl, "diffusion": cmd_diffusion, "allan": cmd_allan}

# reproduce target -> (bundle, config preset); config-file values win
# over the preset, command-line flags over both
_REPRODUCE = {
    # probe-curve comparison: re-initialized vs accumulated back-action
    "fig4": (cmd_rabi, {}),
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
        files = bundle(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EmptySampleError, FitFailureError, DataError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    h = config_hash(cfg)
    files["run_meta.json"] = _meta(args.command, cfg, h, list(files) + ["run_meta.json"])
    out_dir = cfg["run.output_dir"]
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, content in files.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                if isinstance(content, dict):
                    fh.write(_json_doc(content))
                else:
                    _write_csv(fh, h, cfg["run.seed"], *content)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
