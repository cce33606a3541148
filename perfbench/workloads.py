"""The three benchmark workloads: CLI arguments, generated inputs, checks.

Each workload is one ``ionclock`` CLI invocation. Its inputs are made
from the benchmark seed alone; the program sees only the arguments and
the files written here. ``check`` raises CheckError when an output
bundle is missing a file or fails a validity test.

Why these three: each of the program's heavy layers does most of the
work in one workload and almost none in the others, so a speed-up in
one layer has a workload that shows it and two that should not move.

* ``track``: the reference scenario (``reproduce fig6``), sized up by
  block count. The ensemble layer does most of the work; there is no
  transport.
* ``beam``: ``apl`` with beam-overlap detection. Brownian transport in
  the diffusion layer does nearly all of the work.
* ``allan_file``: ``allan`` on a 10^6-sample white-FM file. No
  simulation; parsing in the CLI and the Allan estimator do the work.
"""

import json
import math
import os

import numpy as np

# track: 2400 three-cycle blocks of 2000 ions, plus 7200 standard cycles
TRACK_BLOCKS = 2400
TRACK_IONS = 2000
TRACK_P = 0.18
# beam: three blocks; each costs about 30,300 step_brownian calls
BEAM_BLOCKS = 3
# allan_file: white FM at a known level, unit sample spacing
ALLAN_SAMPLES = 10**6
ALLAN_H0 = 2e-22
ALLAN_TAU0 = 1.0

_APL_FILES = {
    "allan_apl.csv",
    "allan_standard.csv",
    "apl_cycles.csv",
    "apl_sd.csv",
    "decoherence_fit.json",
    "limits.csv",
    "ramsey_cycles.csv",
    "run_meta.json",
}
_ALLAN_FILES = {"allan.csv", "limits.csv", "run_meta.json"}


class CheckError(Exception):
    """An output bundle failed a validity check."""


def _rows(path):
    """Data rows of an ionclock CSV: comment lines and header dropped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _require(cond, message):
    if not cond:
        raise CheckError(message)


def _check_files(out_dir, expected):
    present = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    missing = sorted(expected - present)
    _require(not missing, f"missing outputs: {', '.join(missing)}")


def _mean_projected_n2(out_dir):
    with open(os.path.join(out_dir, "decoherence_fit.json"), encoding="utf-8") as fh:
        return float(json.load(fh)["mean_projected_by_n"][1])


def _check_track(out_dir):
    _check_files(out_dir, _APL_FILES)
    sd = {int(r[0]): float(r[1]) for r in _rows(os.path.join(out_dir, "apl_sd.csv"))}
    for n in (2, 3):
        ratio = sd[n] / sd[1]
        _require(
            abs(ratio * n - 1.0) <= 0.10,
            f"SD ratio n={n}/n=1 is {ratio:.4f}, not within 10% of 1/{n}",
        )
    # ever-projected fraction after one readout: Binomial(N * blocks, p).
    # 4 sigma, not 3: the check runs on every seed the benchmark is given,
    # and a 3 sigma gate would fail one seed in 370 on a correct program.
    frac = _mean_projected_n2(out_dir)
    sigma = math.sqrt(TRACK_P * (1.0 - TRACK_P) / (TRACK_IONS * TRACK_BLOCKS))
    _require(
        abs(frac - TRACK_P) <= 4.0 * sigma,
        f"projected fraction {frac:.5f} is more than 4 sigma from {TRACK_P}",
    )


def _check_beam(out_dir):
    _check_files(out_dir, _APL_FILES)
    frac = _mean_projected_n2(out_dir)
    _require(abs(frac - 0.17) <= 0.02, f"beam-struck fraction {frac:.4f} not in 0.17 +/- 0.02")


def _check_allan(out_dir):
    _check_files(out_dir, _ALLAN_FILES)
    tau, adev = (float(v) for v in _rows(os.path.join(out_dir, "allan.csv"))[0][:2])
    expected = math.sqrt(ALLAN_H0 / (2.0 * tau))
    _require(
        abs(tau - ALLAN_TAU0) < 1e-9 and abs(adev / expected - 1.0) <= 0.10,
        f"first Allan point ({tau}, {adev:.4e}) not within 10% of {expected:.4e}",
    )


def _write_series(path, seed):
    """(t, y) white-FM series at ALLAN_H0, drawn with plain numpy."""
    rng = np.random.default_rng([seed, 0xA11A])
    y = rng.normal(0.0, math.sqrt(ALLAN_H0 / (2.0 * ALLAN_TAU0)), ALLAN_SAMPLES)
    t = np.arange(ALLAN_SAMPLES) * ALLAN_TAU0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join("%.1f,%.12e\n" % p for p in zip(t.tolist(), y.tolist())))
        fh.flush()
        os.fsync(fh.fileno())  # no writeback of 28 MB while invocations are timed


def prepare(name, work_dir, seed):
    """Write the workload's inputs under work_dir.

    Returns (argv, input_paths): the CLI arguments without ``--out``,
    and the input files the program reads.
    """
    os.makedirs(work_dir, exist_ok=True)
    common = ["--seed", str(seed)]
    if name == "track":
        return ["reproduce", "fig6", "--trials", str(TRACK_BLOCKS)] + common, []
    if name == "beam":
        cfg = os.path.join(work_dir, "beam.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write("det.mode = beam_overlap\n")
        return ["apl", "--config", cfg, "--trials", str(BEAM_BLOCKS)] + common, [cfg]
    if name == "allan_file":
        series = os.path.join(work_dir, "series.csv")
        _write_series(series, seed)
        return ["allan", series] + common, [series]
    raise KeyError(name)


CHECKS = {"track": _check_track, "beam": _check_beam, "allan_file": _check_allan}
NAMES = tuple(CHECKS)
