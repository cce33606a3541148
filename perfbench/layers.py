"""Per-layer tracing of one in-process ``cli.main`` call.

Wrappers are installed around the public functions of each ionclock
module, in every namespace a caller looks the name up in: the defining
module, and each module that bound it with ``from .x import y``
(sequences and cli do). Diffusion is reached through module
attributes (``_diffusion.step_brownian``, ``diff_mod.struck_during``),
which the defining module's namespace covers.

Each wrapper records a span (name, layer, parent, start, end) in memory
and adds its duration to its parent's child time, so a layer's self
time is the sum over its spans of duration minus child time. Work
counts are derived from arguments and results, never from inside the
program. The layer of a function is the module that defines it; ``cli``
is the root span.
"""

import functools
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

SATURATION = 0.45  # |estimate - 1/2| beyond which sequences warns


def _ions(counts, args, result, exc):
    counts["ensemble.ion_updates"] += len(args[0])


def _projection(counts, args, result, exc):
    counts["ensemble.ion_updates"] += len(args[0])
    if exc is not None:
        if type(exc).__name__ == "EmptySampleError":
            counts["ensemble.empty_samples"] += 1
        return
    m = result[1]
    counts["ensemble.projected_ions"] += m.n_sampled
    counts["ensemble.sampled_index_bytes"] += m.sampled_indices.nbytes


def _readouts(counts, args, result, exc):
    if exc is not None:
        return
    for rec in result:
        est = rec.measurement.estimate if hasattr(rec, "measurement") else rec.estimate
        counts["sequences.readouts"] += 1
        counts["sequences.saturated"] += abs(est - 0.5) > SATURATION


def _walkers(counts, args, result, exc):
    if exc is None:
        counts["diffusion.walker_steps"] += result.size


def _struck(counts, args, result, exc):
    if exc is None:
        counts["diffusion.struck"] += int(result[1].sum())
        counts["diffusion.struck_walkers"] += result[1].size


def _allan(counts, args, result, exc):
    if exc is None:
        counts["stability.allan_samples"] += len(args[0])
        counts["stability.taus"] += len(result)


# module -> {public function: count hook}; the module is the layer
TARGETS = {
    "ensemble": {
        "initialize_ensemble": None,
        "reset_to_ground": None,
        "rotate": _ions,
        "free_precession": _ions,
        "partial_projection": _projection,
        "excited_population": None,
    },
    "oscillator": {"make_local_oscillator": None, "advance": None, "generate_y_series": None},
    "rng": {"substream": None, "as_generator": None},
    "sequences": {
        "run_apl_block": _readouts,
        "run_standard_ramsey": _readouts,
        "run_rabi_ppm": _readouts,
        "fit_decoherence": None,
        "predicted_projected_fraction": None,
    },
    "diffusion": {
        "step_brownian": _walkers,
        "struck_during": _struck,
        "fraction_struck": None,
        "diffusion_constant": None,
    },
    "stability": {
        "allan_deviation": _allan,
        "default_taus": None,
        "confidence_interval": None,
        "limit_technical": None,
        "limit_apl": None,
        "limit_apl_repetition": None,
        "qpn_snr": None,
    },
    "config": {"resolve": None, "parse_config_file": None, "config_hash": None},
}
LAYERS = ("cli",) + tuple(TARGETS)

# per-layer metric -> unit, in the order they are reported
METRICS = {
    "import.total_s": "s",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.ionclock_self_s": "s",
    "ensemble.self_s": "s",
    "ensemble.rotate.calls": "count",
    "ensemble.rotate.busy_s": "s",
    "ensemble.free_precession.calls": "count",
    "ensemble.free_precession.busy_s": "s",
    "ensemble.partial_projection.calls": "count",
    "ensemble.partial_projection.busy_s": "s",
    "ensemble.ion_updates": "count",
    "ensemble.ns_per_ion_update": "ns",
    "ensemble.projected_ions": "count",
    "ensemble.sampled_index_bytes": "B",
    "ensemble.empty_samples": "count",
    "oscillator.self_s": "s",
    "oscillator.advance.calls": "count",
    "oscillator.advance.busy_s": "s",
    "rng.self_s": "s",
    "rng.substream.calls": "count",
    "sequences.self_s": "s",
    "sequences.readouts": "count",
    "sequences.saturated_frac": "fraction",
    "diffusion.self_s": "s",
    "diffusion.step_brownian.calls": "count",
    "diffusion.walker_steps": "count",
    "diffusion.ns_per_walker_step": "ns",
    "diffusion.struck_during.busy_s": "s",
    "diffusion.struck_frac": "fraction",
    "stability.self_s": "s",
    "stability.allan_deviation.busy_s": "s",
    "stability.allan_samples": "count",
    "stability.taus": "count",
    "config.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_in": "B",
    "cli.bytes_out": "B",
    "cli.files_out": "count",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """In-memory span recorder with wrappers installed by identity."""

    def __init__(self):
        # span: [name, layer, parent index or -1, start, end, child time]
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def wrap(self, layer, name, fn, hook=None):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, clock(), 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span[4] = clock()
                stack.pop()
                if span[2] >= 0:
                    spans[span[2]][5] += span[4] - span[3]
                if hook is not None:
                    hook(counts, args, result, exc)

        return traced

    def install(self):
        """Replace every binding of a target function in ionclock modules."""
        wrappers = {}
        for layer, funcs in TARGETS.items():
            mod = sys.modules[f"ionclock.{layer}"]
            for name, hook in funcs.items():
                fn = getattr(mod, name)
                wrappers[id(fn)] = self.wrap(layer, name, fn, hook)
        for modname, mod in list(sys.modules.items()):
            if modname != "ionclock" and not modname.startswith("ionclock."):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, w)

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def layer_metrics(self):
        """Self and busy times per layer and function, plus work counts."""
        busy = defaultdict(float)
        calls = Counter()
        self_s = dict.fromkeys(LAYERS, 0.0)
        for name, layer, _parent, start, end, child in self.spans:
            busy[f"{layer}.{name}"] += end - start
            calls[f"{layer}.{name}"] += 1
            self_s[layer] += end - start - child
        c = self.counts
        ens_busy = sum(busy[f"ensemble.{f}"] for f in ("rotate", "free_precession", "partial_projection"))
        out = {f"{layer}.self_s": v for layer, v in self_s.items()}
        for key in ("ensemble.rotate", "ensemble.free_precession", "ensemble.partial_projection"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.busy_s"] = busy[key]
        out.update(
            {
                "ensemble.ion_updates": c["ensemble.ion_updates"],
                "ensemble.ns_per_ion_update": _ratio(ens_busy * 1e9, c["ensemble.ion_updates"]),
                "ensemble.projected_ions": c["ensemble.projected_ions"],
                "ensemble.sampled_index_bytes": c["ensemble.sampled_index_bytes"],
                "ensemble.empty_samples": c["ensemble.empty_samples"],
                "oscillator.advance.calls": calls["oscillator.advance"],
                "oscillator.advance.busy_s": busy["oscillator.advance"],
                "rng.substream.calls": calls["rng.substream"],
                "sequences.readouts": c["sequences.readouts"],
                "sequences.saturated_frac": _ratio(c["sequences.saturated"], c["sequences.readouts"]),
                "diffusion.step_brownian.calls": calls["diffusion.step_brownian"],
                "diffusion.walker_steps": c["diffusion.walker_steps"],
                "diffusion.ns_per_walker_step": _ratio(
                    busy["diffusion.step_brownian"] * 1e9, c["diffusion.walker_steps"]
                ),
                "diffusion.struck_during.busy_s": busy["diffusion.struck_during"],
                "diffusion.struck_frac": _ratio(c["diffusion.struck"], c["diffusion.struck_walkers"]),
                "stability.allan_deviation.busy_s": busy["stability.allan_deviation"],
                "stability.allan_samples": c["stability.allan_samples"],
                "stability.taus": c["stability.taus"],
                "trace.spans": len(self.spans),
            }
        )
        return out

def _ratio(num, den):
    return num / den if den else 0.0


def import_breakdown(env, samples=3):
    """import.* metrics from ``python -X importtime -c 'import ionclock.cli'``.

    total_s is the cumulative time of the top-level ionclock imports;
    the scipy, numpy and ionclock figures sum the self time of every
    module under that package. Medians over ``samples`` fresh
    interpreters.
    """
    runs = defaultdict(list)
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ionclock.cli"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=60, check=True,
        )
        sums = Counter()
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, cum_us, raw = line[len("import time:"):].split("|")
            name = raw.strip()
            top = name.split(".")[0]
            if top == "ionclock" and raw[: len(raw) - len(raw.lstrip())] == " ":
                sums["import.total_s"] += int(cum_us) / 1e6
            key = {"scipy": "import.scipy_s", "numpy": "import.numpy_s",
                   "ionclock": "import.ionclock_self_s"}.get(top)
            if key:
                sums[key] += int(self_us) / 1e6
        for key in ("import.total_s", "import.scipy_s", "import.numpy_s", "import.ionclock_self_s"):
            runs[key].append(sums[key])
    return {k: statistics.median(v) for k, v in runs.items()}


def output_stats(out_dir):
    names = sorted(os.listdir(out_dir))
    return {
        "cli.bytes_out": sum(os.path.getsize(os.path.join(out_dir, n)) for n in names),
        "cli.files_out": len(names),
    }
