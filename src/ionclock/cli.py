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

Exit codes: 0 success; 2 configuration problem (bad flag, unreadable or
malformed config file, unknown key, a value that ``resolve`` rejects,
work past WORK_CEILING), raised before any input is read or anything
drawn; 3 runtime or data problem (fit failure, empty sample, malformed
input series, non-finite Allan point or limit line, unwritable output
directory; one under a regular file is found before anything is drawn).
Every result is computed before the first file is opened, so a run that
fails before writing writes nothing. Each file is then rendered and
written 512 rows at a time into a fresh hidden directory inside the
output directory, and only once all are written does each replace its
namesake, so a run that fails while writing leaves the earlier files as
they were and removes the directories it created. One caveat: the
replace step is one rename per file, not atomic as a whole, so a failure
between two renames leaves old and new files side by side. A rename
swaps out an output that is a symlink or a read-only file rather than
writing through it. Files an earlier run left there and this run does
not write are not removed.
"""

import argparse
import functools
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, replace

import numpy as np

from . import diffusion as diff_mod
from .config import ConfigError, config_hash, parse_config_file, resolve
from .config import _detection, _diffusion_config, _ramsey_config, _stab_params
from .ensemble import EmptySampleError, initialize_ensemble
from .oscillator import NoiseSpec, make_local_oscillator, phase_increments
from .rng import substream
from .sequences import (
    FitFailureError,
    RamseyConfig,
    fit_decoherence,
    fit_probe_curve,
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
    """Malformed or unusable data: an input file, a series whose Allan deviation or limit lines are not finite, or an output path under a file."""


_CSV_CHUNK_ROWS = 512  # rows formatted and written at a time: one chunk of text is alive

# The most units of work a bundle may ask for: LO intervals, ion positions
# of beam detection, Rabi readout points, or walker-durations of the
# struck-fraction grid. Fixed, so that an exit code never depends on the
# host; at 8 bytes a unit, an array of that many is 800 MB.
WORK_CEILING = 10**8


def _check_work(n, what):
    """A ConfigError naming the keys in ``what`` if their product n exceeds WORK_CEILING."""
    if n > WORK_CEILING:
        raise ConfigError(f"{what} = {n} exceeds the work ceiling of {WORK_CEILING}")


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


def _lo_record(cfg, label, dt, shape):
    """The block-major phase record of the run's `label` LO over intervals of dt; at dt = 0, zeros and no draw."""
    if dt == 0:
        return np.zeros(shape)
    spec = NoiseSpec(cfg["lo.h0"], cfg["lo.h_minus1"], cfg["lo.h_minus2"])
    lo = make_local_oscillator(cfg["lo.f0_hz"], cfg["lo.delta_f0_hz"], spec, substream(cfg["run.seed"], label))
    return phase_increments(lo, dt, math.prod(shape)).reshape(shape)


def _check_blocks(cfg, n_blocks, blocks_from):
    """Bound the LO record of n_blocks tracking blocks and, with beam detection, their ion positions."""
    _check_work(n_blocks * cfg["seq.n_cp"], f"{blocks_from} blocks x seq.n_cp cycles")
    if cfg["det.mode"] == "beam_overlap":
        _check_work(n_blocks * cfg["ens.n_ions"], f"{blocks_from} blocks x ens.n_ions ions")


def _tracking_blocks(cfg, rcfg: RamseyConfig, n_blocks):
    """The (n_blocks, n_cp) LO record of n_blocks consecutive tracking blocks, and their CycleTable.

    Every block starts from a fresh ensemble of one batch drawn from
    one stream; the LO runs on across blocks.
    """
    record = _lo_record(cfg, "lo", rcfg.free_time, (n_blocks, rcfg.n_cp))
    ens = initialize_ensemble(cfg["ens.n_ions"], substream(cfg["run.seed"], "apl-ens"), n_blocks)
    return record, run_apl_block(ens, record, rcfg)


def _cycle_table(t):
    header = ("block_id", "n", "timestamp_s", "estimate", "phi_rad", "delta_f_hz")
    return header, (t.block, t.n, t.timestamp, t.estimate, t.phi_n, t.delta_f_hz)


def _limit_table(params: StabilityParams, taus):
    taus = np.asarray(taus, dtype=float)
    header = ("tau_s", "limit_technical", "limit_apl", "limit_apl_repetition", "limit_qpn")
    # an allan tau near either end of the float range makes a line 0 or inf (the
    # registry keeps apl's inside it)
    with np.errstate(over="ignore", divide="ignore"):
        technical, apl, qpn = (
            limit_technical(params, taus),
            limit_apl(params, taus),
            limit_technical(replace(params, snr=qpn_snr(params.n_atom)), taus),
        )
    if not all(np.all((line > 0.0) & (line < math.inf)) for line in (technical, apl, qpn)):
        raise DataError("a limit line is 0 or not finite: an allan tau lies near an end of the float range")
    # technical / sqrt(n_cp), so inside the float range too; it may warn (n_cp past its bound)
    return header, (taus, technical, apl, limit_apl_repetition(params, taus), qpn)


def _allan_table(cfg, y, tau0):
    """The Allan deviation of y on the configured grid, as a CSV table; no rows below two samples."""
    pts = []
    if len(y) >= 2:
        series = FractionalFrequencySeries(y, tau0)
        taus = default_taus(series, cfg["allan.points_per_decade"])
        with np.errstate(over="ignore", invalid="ignore"):  # samples near the float range overflow
            pts = allan_deviation(series, taus, cfg["allan.mode"])
    for p in pts:
        if not math.isfinite(p.adev):
            raise DataError(f"the Allan deviation at tau={p.tau:.12g} s is not finite: |y| is too large")
    columns = ([p.tau for p in pts], [p.adev for p in pts], [p.n_pairs for p in pts])
    return ("tau_s", "adev", "n_pairs"), columns


def cmd_rabi(cfg):
    seed = cfg["run.seed"]
    n_steps = cfg["seq.rabi_n_steps"]
    step = cfg["seq.rabi_step_rad"]
    det = _detection(cfg)
    if cfg["det.mode"] != "fixed_fraction":
        raise ConfigError(f"the probe bundle needs det.mode = fixed_fraction, got {cfg['det.mode']}")
    repeats = {mode: cfg["run.n_trials"] or cfg[f"seq.rabi_repeats_{mode}"] for mode in ("standard", "ppm")}
    for mode, reps in repeats.items():
        _check_work(reps * (n_steps + 1), f"run.n_trials (or seq.rabi_repeats_{mode}) x seq.rabi_n_steps + 1")
    drift = _lo_record(cfg, "rabi-lo", det.measurement_duration, (repeats["ppm"], n_steps + 1))

    ks = np.arange(n_steps + 1)
    tables = []  # the CSV columns of each mode
    curves = {}
    for mode, reps in repeats.items():
        reinit = mode == "standard"
        # one block per repeat: row r of the estimates is repeat r
        batch = initialize_ensemble(cfg["ens.n_ions"], substream(seed, f"rabi-{mode}"), reps)
        est = run_rabi_ppm(batch, None if reinit else drift, step, n_steps, reinit, det)
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
            "fits": {m: fit_probe_curve(ks * step, c) for m, c in curves.items()},
            "deviation_by_step": deviation,
            "max_abs_deviation": deviation.max(),
        },
    }


def cmd_apl(cfg):
    seed = cfg["run.seed"]
    n_cp = cfg["seq.n_cp"]
    n_blocks = cfg["run.n_trials"] or max(1, cfg["seq.n_cycles"] // n_cp)
    _check_blocks(cfg, n_blocks, "run.n_trials (or seq.n_cycles // seq.n_cp)")
    rcfg = _ramsey_config(cfg)
    f0 = cfg["lo.f0_hz"]
    taus = np.logspace(
        math.log10(rcfg.standard_cycle_time), math.log10(max(n_blocks, 2) * rcfg.block_time), 25
    )
    limits = _limit_table(_stab_params(cfg), taus)

    # one record for both protocols: one noise realization, so the comparison is apples to apples
    record, apl = _tracking_blocks(cfg, rcfg, n_blocks)
    std_ens = initialize_ensemble(cfg["ens.n_ions"], substream(seed, "std-ens"), n_blocks * n_cp)
    std = run_standard_ramsey(std_ens, record.reshape(-1, 1), rcfg)
    df = apl.delta_f_hz

    ns = np.arange(1, n_cp + 1)
    # per column: std(axis=0) sums in another order and moves the last bits
    sds = [df[:, n - 1].std(ddof=1) if n_blocks > 1 else 0.0 for n in ns]
    fit_doc = {"mean_projected_by_n": apl.projected_before.mean(axis=0)}
    if n_cp >= 3:
        fit_doc.update(asdict(fit_decoherence(apl.projected_before)))

    allan_std = _allan_table(cfg, std.delta_f_hz[:, 0] / f0, rcfg.standard_cycle_time)
    allan_apl = _allan_table(cfg, df[:, -1] / f0, rcfg.block_time)
    return {
        "apl_cycles.csv": _cycle_table(apl),
        "ramsey_cycles.csv": _cycle_table(std),
        "apl_sd.csv": (("n", "sd_delta_f_hz", "n_blocks"), (ns, sds, [n_blocks] * n_cp)),
        "decoherence_fit.json": fit_doc,
        "allan_standard.csv": allan_std,
        "allan_apl.csv": allan_apl,
        "limits.csv": limits,
    }


def cmd_diffusion(cfg):
    seed = cfg["run.seed"]
    dcfg = _diffusion_config(cfg)
    n_walkers = cfg["diff.n_walkers"]
    _check_work(n_walkers * cfg["diff.n_durations"], "diff.n_walkers x diff.n_durations")
    d_eff = dcfg.effective_d()

    rng = substream(seed, "diff-msd")
    z = np.zeros(n_walkers)
    msd = []
    for k in range(1, 101):
        z = diff_mod.step_brownian(z, d_eff, cfg["diff.dt_s"], rng)  # free space
        if k % 10 == 0:
            msd.append(np.mean(z * z))
    t = np.arange(10, 101, 10) * cfg["diff.dt_s"]

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


def _data_lines(fh, delimiter=None, skip=0):
    """Yield (line number, text before any `#`) of each data row past line `skip`.

    As in np.loadtxt, an empty text is no row; a text of blanks is no row
    with whitespace delimiters (None) and a row of one field with commas.
    """
    for lineno, line in enumerate(fh, start=1):
        text = line.rstrip("\n").split("#", 1)[0]
        if lineno > skip and (text if delimiter else text.strip()):
            yield lineno, text


def _numeric(fields):
    """Whether np.loadtxt reads each field as a number: float() does, less `_` and non-ASCII digits."""
    try:
        for f in fields:
            if "_" in f or not f.strip().isascii():
                return False
            float(f)
    except ValueError:
        return False
    return True


def _sniff(path, fh):
    """Lines to skip (through an optional header) and the column delimiter.

    A first line that is not all numbers is a header. The first data
    line picks the delimiter: a comma if it has one, otherwise
    whitespace (None). Lines of blanks before any `#` are passed over.
    """
    skip = 0
    for lineno, text in _data_lines(fh):
        if skip or _numeric(text.replace(",", " ").split()):
            return skip, ("," if "," in text else None)
        skip = lineno
    raise DataError(f"{path}: need at least 2 samples, got 0")


def _bad_line(path, skip, delimiter, why, row=None):
    """A DataError naming the line of data row `row` (from 0) with `why`, else the first line not two numbers."""
    with open(path, encoding="utf-8-sig") as fh:
        for i, (lineno, text) in enumerate(_data_lines(fh, delimiter, skip)):
            fields = text.split(delimiter)
            if i == row:
                return DataError(f"{path}:{lineno}: {why}")
            if len(fields) != 2:
                return DataError(f"{path}:{lineno}: expected two columns, got {len(fields)}")
            if not _numeric(fields):
                return DataError(f"{path}:{lineno}: non-numeric sample {text!r}")
    return DataError(f"{path}: {why}")


def _loadtxt(path, skip, delimiter, encoding="utf-8-sig"):
    return np.loadtxt(
        path, delimiter=delimiter, comments="#", skiprows=skip, ndmin=2, encoding=encoding
    )


# files smaller than this parse sooner in one process than in two: below it
# the fork and the copies into and out of memory files cost more than half
# the parse saves
_SPLIT_BYTES = 1 << 20


def _can_fork():
    """Whether a forked parser is safe (this process runs one thread) and has a CPU of its own."""
    try:
        return (
            hasattr(os, "fork")
            and hasattr(os, "memfd_create")
            and len(os.sched_getaffinity(0)) > 1
            and len(os.listdir("/proc/self/task")) == 1
        )
    except (AttributeError, OSError):  # no sched_getaffinity, or no /proc
        return False


def _cut(path):
    """The offset just past the line end nearest the middle of the file; 0 to parse it whole."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _SPLIT_BYTES or not _can_fork():
            return 0
        fh.seek(size // 2)
        cut = size // 2 + len(fh.readline())
    return cut if cut < size else 0


def _loadtxt_part(path, start, end, skip, delimiter, encoding):
    """np.loadtxt of bytes [start, end) of a file, copied into a memory file.

    np.loadtxt parses fastest from a path, and a part that starts and
    ends at line boundaries parses as those lines do in the whole file.
    """
    fd = os.memfd_create("ionclock-part")
    try:
        with open(path, "rb") as src:
            while start < end:
                sent = os.sendfile(fd, src.fileno(), start, end - start)
                if not sent:
                    raise OSError(f"{path} shrank while it was read")
                start += sent
        return _loadtxt(f"/proc/self/fd/{fd}", skip, delimiter, encoding)
    finally:
        os.close(fd)


def _loadtxt_in_two(path, skip, delimiter, cut):
    """The data rows parsed by this process (bytes before `cut`) and a forked child (the rest).

    The child saves its rows to a memory file made before the fork and
    exits; this process parses its half, waits for the child and loads
    them. None on any mismatch: a half that does not parse or warns, a
    child that fails, rows that do not load, or halves whose column
    counts differ. No process outlives the call.
    """
    try:
        # unbuffered: what the child writes is in the file when it exits
        rows = open(os.memfd_create("ionclock-rows"), "r+b", buffering=0)
    except OSError:
        return None
    with rows:
        try:
            pid = os.fork()
        except OSError:
            return None
        with warnings.catch_warnings():
            # a half without data rows warns where the single parse does not
            warnings.simplefilter("error")
            if pid == 0:
                # the child leaves without running the parent's exit handlers;
                # an exception or a warning leaves it before anything is printed
                status = 1
                try:
                    # no utf-8-sig: a byte-order mark is dropped only at the start of the file
                    np.save(rows, _loadtxt_part(path, cut, os.path.getsize(path), 0, delimiter, "utf-8"))
                    status = 0
                finally:
                    os._exit(status)
            try:
                head = _loadtxt_part(path, 0, cut, skip, delimiter, "utf-8-sig")
            except (ValueError, OSError, Warning):
                head = None  # the single parse gives the rows or names the faulty line
            finally:
                status = os.waitpid(pid, 0)[1]
        if status or head is None:
            return None
        rows.seek(0)
        try:
            tail = np.load(rows)
        except (ValueError, OSError, EOFError):
            return None
    return np.concatenate((head, tail)) if tail.shape[1:] == head.shape[1:] else None


def _read_series(path):
    """The fractional-frequency series of a (t, y) file; a DataError names a faulty line.

    Rows (_data_lines) and numbers (_numeric) are as np.loadtxt reads
    them, so each error numpy raises maps to the file line at fault.
    A file of at least _SPLIT_BYTES is parsed in two processes when
    this process runs one thread and may use two CPUs: a forked child
    parses the lines past the line end nearest the middle of the file
    and saves its rows to a memory file, which this process loads once
    the child has exited. Any mismatch parses the file again in one
    piece, so the result and every error message are those of the
    single parse.
    """
    try:
        # utf-8-sig drops a byte-order mark, or the first sample would read as a header
        with open(path, encoding="utf-8-sig") as fh:
            skip, delimiter = _sniff(path, fh)
        try:
            cut = _cut(path)
            data = _loadtxt_in_two(path, skip, delimiter, cut) if cut else None
            if data is None:
                data = _loadtxt(path, skip, delimiter)
        except ValueError as exc:  # numpy names the data row, not the file line
            raise _bad_line(path, skip, delimiter, exc) from None
        if data.shape[1] != 2:
            raise _bad_line(path, skip, delimiter, f"expected two columns, got {data.shape[1]}")
        if len(data) < 2:
            raise DataError(f"{path}: need at least 2 samples, got {len(data)}")
        bad = np.flatnonzero(~np.isfinite(data[:, 1]))
        if bad.size:
            raise _bad_line(path, skip, delimiter, f"non-finite sample {data[bad[0], 1]}", bad[0])
        gaps = np.diff(data[:, 0])
        # the median gap; np.median would import numpy.ma on its first call
        mid = ((gaps.size - 1) // 2, gaps.size // 2)
        part = np.partition(gaps, mid)
        tau0 = float((part[mid[0]] + part[mid[1]]) / 2.0)
        if not tau0 > 0:
            raise DataError(f"{path}: timestamps must be strictly increasing")
        bad = np.flatnonzero(~(np.abs(gaps - tau0) <= 1e-6 * tau0))  # nan gaps too
        if bad.size:
            why = f"non-uniform sample spacing (gap {gaps[bad[0]]:.12g}, expected {tau0:.12g})"
            raise _bad_line(path, skip, delimiter, why, bad[0] + 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return FractionalFrequencySeries(data[:, 1], tau0)


def cmd_allan(cfg, input_path):
    series = _read_series(input_path)
    table = _allan_table(cfg, series.y, series.tau0)
    return {"allan.csv": table, "limits.csv": _limit_table(_stab_params(cfg), table[1][0])}


def _projection_bundle(cfg):
    n_cp = cfg["seq.n_cp"]
    if n_cp < 3:
        raise ConfigError(f"the projected-fraction fit needs seq.n_cp >= 3, got {n_cp}")
    n_blocks = cfg["run.n_trials"] or 32
    _check_blocks(cfg, n_blocks, "run.n_trials (or 32)")
    rcfg = _ramsey_config(cfg)
    proj = _tracking_blocks(cfg, rcfg, n_blocks)[1].projected_before

    ns = np.arange(1, n_cp + 1)
    mean = proj.mean(axis=0)
    sd = proj.std(axis=0, ddof=1) if n_blocks > 1 else np.zeros(n_cp)
    fit = fit_decoherence(proj)
    columns = (ns, mean, sd, predicted_projected_fraction(fit.p, fit.amplitude, ns))
    return {
        "fig5_projection.csv": (("n", "mean_projected", "sd", "predicted"), columns),
        "decoherence_fit.json": asdict(fit),
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
        out_dir = cfg["run.output_dir"]
        created = []  # the directories this run makes, deepest first
        path = os.path.abspath(out_dir)
        while not os.path.lexists(path):
            created.append(path)
            path = os.path.dirname(path)
        if not os.path.isdir(path):  # found before anything is drawn, not once every result is computed
            raise DataError(f"cannot write outputs: {path} is not a directory")
        files = bundle(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (EmptySampleError, FitFailureError, DataError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    h = config_hash(cfg)
    files["run_meta.json"] = _meta(args.command, cfg, h, list(files) + ["run_meta.json"])
    try:
        os.makedirs(out_dir, exist_ok=True)
        # every file is complete before the first one replaces its namesake
        with tempfile.TemporaryDirectory(prefix=".ionclock-", dir=out_dir, ignore_cleanup_errors=True) as staging:
            for name, content in files.items():
                with open(os.path.join(staging, name), "w", encoding="utf-8") as fh:
                    if isinstance(content, dict):
                        fh.write(_json_doc(content))
                    else:
                        _write_csv(fh, h, cfg["run.seed"], *content)
            for name in files:
                os.replace(os.path.join(staging, name), os.path.join(out_dir, name))
    except OSError as exc:
        for path in created:
            try:
                os.rmdir(path)  # only while empty: nothing another process put there goes
            except OSError:
                break
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
