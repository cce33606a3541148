"""Flat key-value run configuration.

Config files are plain text, one ``key = value`` per line, ``#``
comments and blank lines ignored. Keys are namespaced with dots and
validated against a closed registry; an unknown key is an error, not a
warning, so typos cannot silently fall back to defaults.

Several keys accept 0 (or "none") as "derive from the rest of the
config": stab.q from f0 and t_fp, stab.snr from the detection noise
budget, stab.t_c_s from the cycle timing, stab.n_atom from the
ensemble size. Resolution happens once, in resolve(); the hash covers
the resolved values plus the seed so identical hashes imply identical
runs.

resolve() checks each value's type and the bounds its registry entry
declares (counts at least 1, lengths positive, ...); other domains are
checked by the typed config (DetectionConfig, RamseyConfig, ...) that a
command builds from the value.
"""

import hashlib
import math
from types import MappingProxyType

from .diffusion import DiffusionConfig
from .ensemble import DetectionConfig
from .oscillator import PRESETS
from .sequences import RamseyConfig, cycle_duration
from .stability import StabilityParams

__all__ = ["ConfigError", "resolve", "parse_config_file", "config_hash", "DEFAULTS"]


class ConfigError(ValueError):
    """Bad key, bad value, or unparseable config line."""


def _as_float(raw):
    try:
        if math.isfinite(val := float(raw)):
            return val
    except ValueError:
        pass
    raise ConfigError(f"expected a finite number, got {raw!r}")


def _as_int(raw):
    try:
        return int(raw, 0) if isinstance(raw, str) else int(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"expected an integer, got {raw!r}") from exc


def _as_float_or_none(raw):
    if isinstance(raw, str) and raw.strip().lower() in ("none", "null"):
        return None
    if raw is None:
        return None
    return _as_float(raw)


def _bounded(conv, low=-math.inf, strict=False, high=math.inf):
    """Converter ``conv`` that also rejects values below ``low`` (or at it, if strict) or above ``high``."""

    def check(raw):
        val = conv(raw)
        if not (val > low if strict else val >= low):
            raise ConfigError(f"expected a value {'>' if strict else '>='} {low}, got {val!r}")
        if not val <= high:
            raise ConfigError(f"expected a value <= {high}, got {val!r}")
        return val

    return check


_count = _bounded(_as_int, 1)
_positive = _bounded(_as_float, 0.0, strict=True)
# No stage of a clock cycle lasts a day, and no trapped cloud is a metre
# long; past these the limit lines and the beam-hit probabilities overflow.
_duration = _bounded(_as_float, high=86400.0)


def _as_choice(*options):
    def conv(raw):
        val = str(raw).strip()
        if val not in options:
            raise ConfigError(f"expected one of {options}, got {raw!r}")
        return val

    return conv


# key -> (converter, default, help); a key that sets a typed config field takes its default
_REGISTRY = {
    "run.seed": (_as_int, 12345, "master seed for every derived stream"),
    "run.n_trials": (_bounded(_as_int, 0), 0, "trial count override; 0 keeps the per-command default"),
    "run.output_dir": (str, "runs", "directory for emitted CSV/JSON"),
    "ens.n_ions": (_count, 2000, "ions in the ensemble"),
    "ens.cloud_length_m": (_bounded(_as_float, 0.0, strict=True, high=1.0), DiffusionConfig.cloud_length, "axial cloud extent"),
    "lo.f0_hz": (_as_float, StabilityParams.f0, "nominal transition frequency"),
    "lo.delta_f0_hz": (_as_float, 0.0, "static LO detuning"),
    "lo.h0": (_as_float, 0.0, "white frequency noise level"),
    "lo.h_minus1": (_as_float, 0.0, "flicker frequency noise level"),
    "lo.h_minus2": (_as_float, 0.0, "random-walk frequency noise level"),
    "lo.preset": (_as_choice("none", *PRESETS), "none", "named noise level set; overrides the h, coefficients"),
    "det.mode": (_as_choice("fixed_fraction", "beam_overlap"), "fixed_fraction", "how the sampled subset is chosen"),
    "det.p": (_as_float, DetectionConfig.p, "sampling fraction per measurement"),
    "det.sigma_tech": (_as_float, DetectionConfig.sigma_tech, "technical noise sd added to the population estimate"),
    "det.measurement_duration_s": (_duration, DetectionConfig.measurement_duration, "readout window length"),
    "seq.t_fp_s": (_duration, RamseyConfig.t_fp, "free precession time per cycle"),
    "seq.pi2_duration_s": (_duration, RamseyConfig.pi2_duration, "pi/2 pulse length"),
    "seq.n_cp": (_count, RamseyConfig.n_cp, "cycles per tracking block"),
    "seq.n_cycles": (_count, 300, "cycles per protocol in apl when run.n_trials is 0; blocks = n_cycles // n_cp"),
    "seq.dead_time_s": (_duration, RamseyConfig.dead_time, "extra free evolution per cycle"),
    "seq.rabi_step_rad": (_positive, math.pi / 6.0, "rotation per Rabi step"),
    "seq.rabi_n_steps": (_bounded(_as_int, 2), 12, "Rabi steps after the baseline point"),
    "seq.rabi_repeats_standard": (_count, 10, "re-initialized Rabi repeats"),
    "seq.rabi_repeats_ppm": (_count, 8, "partial-projection Rabi repeats"),
    "diff.temperature_k": (_as_float, DiffusionConfig.temperature, "ion temperature"),
    "diff.mobility": (_as_float, DiffusionConfig.mobility, "ion mobility for the Einstein relation"),
    "diff.d_override": (_as_float_or_none, DiffusionConfig.d_override, "diffusion constant override; 'none' derives from T and mobility"),
    "diff.dt_s": (_as_float, DiffusionConfig.dt, "time step of the diffusion MSD curve; transport takes no sub-steps"),
    "diff.n_walkers": (_count, 20000, "walkers for diffusion statistics"),
    "diff.beam_lo_m": (_as_float, DiffusionConfig.beam_interval[0], "detection beam lower edge"),
    "diff.beam_hi_m": (_as_float, DiffusionConfig.beam_interval[1], "detection beam upper edge"),
    "diff.duration_max_s": (_bounded(_as_float, 0.0), 2e-3, "longest struck-fraction window"),
    "diff.n_durations": (_count, 11, "points on the struck-fraction duration grid"),
    "stab.k": (_as_float, StabilityParams.k, "limit-line prefactor"),
    "stab.q": (_as_float, 0.0, "line quality factor; 0 derives f0 * 2 * t_fp"),
    "stab.snr": (_as_float, 0.0, "single-cycle SNR; 0 derives from the detection noise budget"),
    "stab.t_c_s": (_as_float, 0.0, "cycle time; 0 derives from the sequence timing"),
    "stab.n_atom": (_as_int, 0, "atom number for the information bound; 0 uses ens.n_ions"),
    "allan.mode": (_as_choice("overlapping", "non_overlapping"), "overlapping", "Allan estimator variant"),
    "allan.points_per_decade": (_count, 4, "tau grid density"),
}

DEFAULTS = {k: v[1] for k, v in _REGISTRY.items()}


def resolve(values: dict) -> MappingProxyType:
    """Fill derived defaults; return a read-only mapping keyed by registry name."""
    merged = dict(DEFAULTS)
    for key, raw in values.items():
        if key not in _REGISTRY:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            merged[key] = _REGISTRY[key][0](raw)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    if merged["lo.preset"] != "none":
        spec = PRESETS[merged["lo.preset"]]
        merged["lo.h0"], merged["lo.h_minus1"], merged["lo.h_minus2"] = (
            spec.h0, spec.h_minus1, spec.h_minus2
        )

    if merged["stab.q"] == 0.0:
        merged["stab.q"] = merged["lo.f0_hz"] * 2.0 * merged["seq.t_fp_s"]
    if merged["stab.snr"] == 0.0:
        p = merged["det.p"]
        n = merged["ens.n_ions"]
        sigma = merged["det.sigma_tech"]
        try:
            var = sigma**2 + 0.25 / max(p * n, 1.0)
        except OverflowError:
            raise ConfigError(f"det.sigma_tech = {sigma!r} is too large to derive stab.snr") from None
        merged["stab.snr"] = 0.5 / math.sqrt(var)
    if merged["stab.t_c_s"] == 0.0:
        merged["stab.t_c_s"] = cycle_duration(
            merged["seq.t_fp_s"],
            merged["seq.pi2_duration_s"],
            merged["det.measurement_duration_s"],
            merged["seq.dead_time_s"],
        )
    if merged["stab.n_atom"] == 0:
        merged["stab.n_atom"] = merged["ens.n_ions"]

    return MappingProxyType(merged)


def parse_config_file(path) -> dict:
    """Read raw key=value pairs; no defaults applied here."""
    raw = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}"
                    )
                key, _, value = stripped.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in _REGISTRY:
                    raise ConfigError(f"{path}:{lineno}: unknown config key: {key!r}")
                if key in raw:
                    raise ConfigError(f"{path}:{lineno}: duplicate key: {key!r}")
                raw[key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return raw


def _canonical(value):
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return "none"
    return str(value)


def config_hash(cfg) -> str:
    """Stable digest of the resolved config, seed included.

    run.output_dir is excluded: where results land does not change
    what they are, and the hash identifies the data.
    """
    lines = [f"{k}={_canonical(cfg[k])}" for k in sorted(cfg) if k != "run.output_dir"]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
