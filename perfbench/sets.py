"""Run the benchmark over seeds and workloads, interleaved, and summarise.

    python3 perfbench/sets.py --seeds 0-9 --sets 2 --trace

Each set runs every workload once per seed, rotating the workload order
from one seed to the next, so that slow drift of the machine falls on
all workloads alike. For each set, workload and end-to-end metric it
prints the median, the quartiles and the spread (quartile distance over
median) next to the metric's bound from BENCHMARK.json, the lowest and
highest single run relative to the median, and how many runs lie
further from the median than the bound; with two sets it also prints
how far the second median moved from the first. The reference-loop
times and load averages are printed as drift diagnostics only.
``--trace`` adds one traced run per workload and prints every per-layer
metric side by side, with the layer of largest self time. Everything
is also written as JSON to ``--out``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    """One benchmark run; returns (result, environment, samples) from its stdout."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    tagged = {ln.split(" ", 2)[1]: json.loads(ln.split(" ", 2)[2])
              for ln in lines if ln.startswith(("# env ", "# samples "))}
    return json.loads(lines[-1]), tagged["env"], tagged["samples"]


def spread(values):
    """Median, quartiles (statistics.quantiles, n=4) and quartile distance over median."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def _save(record, path):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="0-9", help="a range such as '0-9', or one seed")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench_work", f"sets-{int(time.time())}.json"))
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    e2e = spec["end_to_end"]

    record = {"seeds": seeds, "seconds": seconds, "sets": []}
    for s in range(args.sets):
        runs = []
        for i, seed in enumerate(seeds):
            for w in names[i % len(names):] + names[: i % len(names)]:
                result, env, samples = run_once(w, seed, seconds, trace=False)
                runs.append({"workload": w, "seed": seed, "result": result, "env": env,
                             "samples": samples})
                m = result["metrics"]
                print(f"set {s + 1} seed {seed:3d} {w:11s} "
                      + " ".join(f"{k}={m[k]['value']:.4g}" for k in m)
                      + f" failed={result['failed']}/{result['attempted']}", flush=True)
        record["sets"].append(runs)
        _save(record, args.out)

    print(f"\n{'set':3s} {'workload':11s} {'metric':12s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'bound':>6s} {'min':>7s} {'max':>7s} {'out':>5s}  drift")
    for w in names:
        for metric in e2e:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(record["sets"]):
                values = [r["result"]["metrics"][name]["value"] for r in runs if r["workload"] == w]
                med, q1, q3, spr = spread(values)
                medians.append(med)
                # single runs: extremes relative to the set median, and how
                # many runs lie further from it than the bound
                lo, hi = min(values) / med - 1, max(values) / med - 1
                out = sum(abs(v / med - 1) > bound for v in values)
                drift = f"{medians[-1] / medians[0] - 1:+.3f}" if s else ""
                flag = "" if spr < bound / 3 else "  WIDE"
                print(f"{s + 1:3d} {w:11s} {name:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{spr:7.3f} {bound:6.2f} {lo:+7.3f} {hi:+7.3f} {out:2d}/{len(values):<2d}  "
                      f"{drift}{flag}  [{metric['unit']}]")
    for s, runs in enumerate(record["sets"]):
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        ref = statistics.median(r["env"]["ref_loop_s_before"] for r in runs)
        load = max(max(r["env"]["load_before"][0], r["env"]["load_after"][0]) for r in runs)
        print(f"set {s + 1}: error_rate {failed}/{attempted}, "
              f"reference loop median {ref:.4f} s, highest 1-min load {load:.2f}")

    if args.trace:
        record["trace"] = {w: run_once(w, seeds[0], seconds, trace=True) for w in names}
        print(f"\n{'per-layer metric':36s} " + " ".join(f"{w:>14s}" for w in names))
        for metric in spec["per_layer"]:
            cells = [record["trace"][w][0]["metrics"][metric["name"]]["value"] for w in names]
            print(f"{metric['name']:36s} " + " ".join(f"{v:14.6g}" for v in cells)
                  + f"  [{metric['unit']}]")
        for w in names:
            m = record["trace"][w][0]["metrics"]
            self_s = {k: v["value"] for k, v in m.items() if k.endswith(".self_s") and not k.startswith("import.")}
            top = max(self_s, key=self_s.get)
            total = sum(self_s.values())  # the traced cli.main call
            print(f"{w}: largest self time {top} = {self_s[top]:.3f} s, "
                  f"{self_s[top] / total:.1%} of the traced run")

    _save(record, args.out)
    print(f"\nwritten to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
