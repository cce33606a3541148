"""ionclock benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload track --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is ``src/ionclock``
of that checkout, imported through PYTHONPATH (nothing is installed).

--trace 0 measures the end-to-end metrics. Operations are CLI
invocations in fresh interpreters, one child at a time, each timed from
spawn to exit with its rusage from ``os.wait4``:

  wall_s       median wall time of one invocation
  cpu_s        median user + sys time of the child
  setup_s      median time of a fresh ``python -c 'import ionclock.cli'``
  peak_rss_mb  median ``ru_maxrss`` of the child

Import samples are interleaved with invocations. An operation fails on
a nonzero exit, a missing output, a failed validity check, or output
bytes that differ from an earlier repeat on the same seed (every repeat
writes to one reused directory, so run_meta.json compares too).

--trace 1 runs the same invocation in-process through ``cli.main`` with
wrappers around each module's public functions (see layers.py), and
reports the per-layer metrics, the import breakdown from
``-X importtime`` and the tracing overhead (traced minus untraced
in-process time).

Before the result, ``#``-prefixed lines give the environment (cores,
CPU, versions, commit, load average before and after, and a fixed
reference loop timed before and after as a drift diagnostic; no metric
is normalised by it), the per-operation samples and the error rate.
The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = ".perfbench_work"  # relative to ROOT, the working directory of a run
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 2
MIN_SETUP = 5
RUN_LIMIT_S = 150.0  # children are killed past this, so a run ends within 180 s


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv, env, stderr_path, deadline):
    """Run one child to completion or the deadline; (wall_s, cpu_s, rss_mb, exit_code)."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(max(deadline - t0, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, code


def _digest(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Validator:
    """Per-operation checks, including byte identity across repeats."""

    def __init__(self, workload):
        self.check = workloads.CHECKS[workload]
        self.reference = None
        self.attempted = 0
        self.failures = []

    def __call__(self, exit_code, out_dir):
        self.attempted += 1
        try:
            if exit_code != 0:
                raise workloads.CheckError(f"exit code {exit_code}")
            self.check(out_dir)
            digest = _digest(out_dir)
            if self.reference is None:
                self.reference = digest
            elif digest != self.reference:
                changed = sorted(k for k in set(digest) | set(self.reference)
                                 if digest.get(k) != self.reference.get(k))
                raise workloads.CheckError(f"outputs differ from first repeat: {changed}")
        except (workloads.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            self.failures.append(f"op {self.attempted}: {exc}")
            print(f"FAILED op {self.attempted}: {exc}", file=sys.stderr)
            return False
        return True


def _reference_loop():
    """Fixed pure-Python loop; its time tracks machine speed only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def _environment():
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure_end_to_end(argv, inputs, out_dir, seconds, validator, env, work):
    python = sys.executable
    import_argv = [python, "-c", "import ionclock.cli"]
    err = os.path.join(work, "stderr.txt")
    deadline = time.perf_counter() + RUN_LIMIT_S
    _spawn(import_argv, env, err, deadline)  # untimed: fills the bytecode and file caches
    setup, ops = [], []
    t0 = time.perf_counter()

    def more(*next_cost):
        now = time.perf_counter()
        return now < deadline and now - t0 + sum(next_cost) <= seconds

    # an import sample, then an invocation, while the next pair fits in
    # the budget; then import samples for the rest of it
    while len(ops) < MIN_OPS and time.perf_counter() < deadline or ops and more(setup[-1], ops[-1][0]):
        setup.append(_spawn(import_argv, env, err, deadline)[0])
        shutil.rmtree(out_dir, ignore_errors=True)
        wall, cpu, rss, code = _spawn([python, "-m", "ionclock", *argv, "--out", out_dir], env, err, deadline)
        if not validator(code, out_dir):
            with open(err, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-2000:])
        ops.append((wall, cpu, rss, code))
    while len(setup) < MIN_SETUP and time.perf_counter() < deadline or more(setup[-1]):
        setup.append(_spawn(import_argv, env, err, deadline)[0])
    ran = [op for op in ops if op[3] == 0]
    metrics = {
        "wall_s": (_median([op[0] for op in ran]), "s"),
        "cpu_s": (_median([op[1] for op in ran]), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (_median([op[2] for op in ran]), "MB"),
    }
    samples = {"wall_s": [op[0] for op in ops], "cpu_s": [op[1] for op in ops],
               "peak_rss_mb": [op[2] for op in ops], "setup_s": setup}
    return metrics, samples, bool(ran)


def measure_layers(argv, inputs, out_dir, seconds, validator, env, work):
    import_metrics = layers.import_breakdown(env)
    sys.path.insert(0, SRC)
    import ionclock.cli as cli

    full_argv = [*argv, "--out", out_dir]
    plain, traced, per_run = [], [], []

    def run_plain():
        shutil.rmtree(out_dir, ignore_errors=True)
        t = time.perf_counter()
        code = cli.main(full_argv)
        plain.append(time.perf_counter() - t)
        validator(code, out_dir)

    def run_traced():
        shutil.rmtree(out_dir, ignore_errors=True)
        tracer = layers.Tracer()
        tracer.install()
        try:
            main = tracer.wrap("cli", "main", cli.main)
            t = time.perf_counter()
            code = main(full_argv)
            traced.append(time.perf_counter() - t)
        finally:
            tracer.uninstall()
        if validator(code, out_dir):
            per_run.append({**tracer.layer_metrics(), **layers.output_stats(out_dir)})

    t0 = time.perf_counter()
    # one untimed call first, so that first-call costs (cold code paths and
    # caches) fall on neither side of a pair; it is validated like the others
    shutil.rmtree(out_dir, ignore_errors=True)
    validator(cli.main(full_argv), out_dir)
    # pairs in ABBA order, so that drift during the run does not bias the overhead
    while not traced or time.perf_counter() - t0 + plain[-1] + traced[-1] <= seconds:
        first, second = (run_plain, run_traced) if len(traced) % 2 == 0 else (run_traced, run_plain)
        first()
        second()

    values = dict(import_metrics)
    for key in per_run[0] if per_run else ():
        values[key] = _median([m[key] for m in per_run])
    values["cli.bytes_in"] = sum(os.path.getsize(p) for p in inputs)
    values["trace.untraced_s"] = _median(plain)
    values["trace.overhead_s"] = _median(traced) - _median(plain)
    metrics = {k: (values[k], unit) for k, unit in layers.METRICS.items() if k in values}
    samples = {"untraced_s": plain, "traced_s": traced}
    return metrics, samples, bool(per_run)


def _declared_metrics(trace):
    """Metric names and units that BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(SRC, "ionclock", "cli.py")):
        print(f"error: no ionclock sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload)
    out_dir = os.path.join(work, "out")
    env = _child_env()
    load_before = os.getloadavg()
    ref_before = _reference_loop()
    cli_argv, inputs = workloads.prepare(args.workload, work, args.seed)
    validator = Validator(args.workload)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, samples, ok = measure(cli_argv, inputs, out_dir, args.seconds, validator, env, work)
    environment = {
        **_environment(),
        "workload": args.workload,
        "seed": args.seed,
        "argv": cli_argv,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "ref_loop_s_before": ref_before,
        "ref_loop_s_after": _reference_loop(),
    }
    if not ok:
        print(f"error: no operation of {args.workload} succeeded", file=sys.stderr)
        return 1

    declared = _declared_metrics(args.trace)
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if emitted != declared:
        print(f"error: metrics {sorted(emitted.items())} do not match BENCHMARK.json "
              f"{sorted(declared.items())}", file=sys.stderr)
        return 1

    failed = len(validator.failures)
    print("# env " + json.dumps(environment, sort_keys=True))
    print("# samples " + json.dumps(samples))
    for name, (value, unit) in metrics.items():
        print(f"# {name:36s} {value:14.6g} {unit}")
    print(f"# error_rate {failed}/{validator.attempted} = {failed / validator.attempted:.3g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": validator.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
