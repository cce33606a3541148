"""Flat key-value run configuration.

Config files are plain text, one ``key = value`` per line, ``#``
comments and blank lines ignored. Keys are namespaced with dots and
validated against a closed registry; an unknown key is an error, not a
warning, so typos cannot silently fall back to defaults.

Resolution happens once, in resolve(); the hash covers the resolved
values plus the seed so identical hashes imply identical runs.

resolve() checks each value against its entry in KEYS, which holds every
rule of a single key and says in words what the key accepts. It then
builds the DiffusionConfig, whose two remaining rules each involve
several keys: a derived diffusion constant of at most 1 m^2/s, and a
beam of positive width inside the cloud. So a run config is valid or
invalid as a whole, whichever command runs it, and every typed config a
command builds from a resolved config accepts it. Every ConfigError of
resolve() names the key or keys at fault.
"""

import hashlib
import math
import operator
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .diffusion import DiffusionConfig
from .ensemble import DetectionConfig
from .oscillator import PRESETS
from .sequences import RamseyConfig
from .stability import StabilityParams

__all__ = ["ConfigError", "resolve", "parse_config_file", "config_hash", "Key", "KEYS", "DEFAULTS"]


class ConfigError(ValueError):
    """Bad key, bad value, or unparseable config line."""


def _as_float(raw):
    """a finite number"""
    try:
        if not isinstance(raw, (bool, np.bool_)) and math.isfinite(val := float(raw)):  # as in _as_int, True is not 1
            return val
    except (ValueError, TypeError):
        pass
    raise ConfigError(f"expected a finite number, got {raw!r}")


def _as_int(raw):
    """an integer"""
    try:
        if not isinstance(raw, bool):  # nor a float: int(2.5) truncates where "2.5" is rejected
            return int(raw, 0) if isinstance(raw, str) else operator.index(raw)
    except (ValueError, TypeError):
        pass
    raise ConfigError(f"expected an integer, got {raw!r}")


class _Bounded(NamedTuple):
    """Converter ``conv`` that also rejects values below ``low`` (or at it, if strict) unless 0 and ``or_zero``, or above ``high``; ``or_none`` takes none or null."""

    conv: Callable
    low: float = -math.inf
    strict: bool = False
    high: float = math.inf
    or_zero: bool = False
    or_none: bool = False

    def __call__(self, raw):
        if self.or_none and (raw is None or isinstance(raw, str) and raw.strip().lower() in ("none", "null")):
            return None
        val = self.conv(raw)
        if not (val > self.low if self.strict else val >= self.low) and not (self.or_zero and val == 0.0):
            raise ConfigError(f"expected {'0 or ' * self.or_zero}a value {'>' if self.strict else '>='} {self.low}, got {val!r}")
        if not val <= self.high:
            raise ConfigError(f"expected a value <= {self.high}, got {val!r}")
        return val

    def __str__(self):  # each bound prints as in the messages, an int64 ceiling exactly
        left, right = "(["[not self.strict and self.low > -math.inf], ")]"[self.high < math.inf]
        return f"{'none or ' * self.or_none}{'0 or ' * self.or_zero}{self.conv.__doc__} in {left}{self.low}, {self.high}{right}"


_INT64 = 2**63 - 1  # numpy sizes and counts are int64; run.seed alone takes any integer
_count = _Bounded(_as_int, 1, high=_INT64)
# No stage of a clock cycle lasts a day and no trapped cloud is a metre long;
# past these the limit lines, the beam-hit probabilities and the walks overflow.
_DAY = 86400.0
_duration = _Bounded(_as_float, 0.0, high=_DAY)
_unit = _Bounded(_as_float, 0.0, high=1.0)


def _as_path(raw):
    """a non-empty path"""
    if not (val := str(raw)):  # open('') fails only once every result is computed
        raise ConfigError(f"expected a directory path, got {raw!r}")
    return val


class _Choice(NamedTuple):
    """Converter to one of ``options``."""

    options: tuple

    def __call__(self, raw):
        val = str(raw).strip()
        if val not in self.options:
            raise ConfigError(f"expected one of {self.options}, got {raw!r}")
        return val

    def __str__(self):
        return f"one of {', '.join(self.options)}"


class Key(NamedTuple):
    """A registry entry: ``convert`` checks a raw value, and ``accepts`` says in words what it takes (a record's text, else the docstring)."""

    convert: Callable
    default: object
    help: str

    @property
    def accepts(self) -> str:
        return str(self.convert) if isinstance(self.convert, tuple) else self.convert.__doc__


# a key that sets a typed config field takes its default
KEYS = MappingProxyType({key: Key(*entry) for key, entry in {
    "run.seed": (_as_int, 12345, "master seed for every derived stream"),
    "run.n_trials": (_Bounded(_as_int, 0, high=_INT64), 0, "trial count override; 0 keeps the per-command default"),
    "run.output_dir": (_as_path, "runs", "directory for emitted CSV/JSON"),
    "ens.n_ions": (_count, 2000, "ions in the ensemble"),
    "ens.cloud_length_m": (_Bounded(_as_float, 0.0, strict=True, high=1.0), DiffusionConfig.cloud_length, "axial cloud extent"),
    # a carrier and a detuning up to 1e16 Hz, above every optical transition, and
    # levels up to 1: no LO phase record or limit line of a bundle leaves the float range
    "lo.f0_hz": (_Bounded(_as_float, 1.0, high=1e16), StabilityParams.f0, "nominal transition frequency"),
    "lo.delta_f0_hz": (_Bounded(_as_float, -1e16, high=1e16), 0.0, "static LO detuning"),
    "lo.h0": (_unit, 0.0, "white frequency noise level"),
    "lo.h_minus1": (_unit, 0.0, "flicker frequency noise level"),
    "lo.h_minus2": (_unit, 0.0, "random-walk frequency noise level"),
    "lo.preset": (_Choice(("none", *PRESETS)), "none", "named noise level set; overrides lo.h0, lo.h_minus1 and lo.h_minus2"),
    "det.mode": (_Choice(("fixed_fraction", "beam_overlap")), "fixed_fraction", "how the sampled subset is chosen"),
    "det.p": (_Bounded(_as_float, 0.0, strict=True, high=1.0), DetectionConfig.p, "sampling fraction per measurement"),
    # at most the whole population range, so the limit lines' snr^2 stays finite
    "det.sigma_tech": (_unit, DetectionConfig.sigma_tech, "technical noise sd added to the population estimate"),
    # none, or from a nanosecond, so the white-noise sd sqrt(h0 / 2 dt) of rabi's LO record stays finite
    "det.measurement_duration_s": (_Bounded(_as_float, 1e-9, high=_DAY, or_zero=True), DetectionConfig.measurement_duration, "readout window length"),
    # from a nanosecond, so the frequency estimates 1/(2 pi n t_fp) and their squares stay finite
    "seq.t_fp_s": (_Bounded(_as_float, 1e-9, high=_DAY), RamseyConfig.t_fp, "free precession time per cycle"),
    "seq.pi2_duration_s": (_duration, RamseyConfig.pi2_duration, "pi/2 pulse length"),
    "seq.n_cp": (_count, RamseyConfig.n_cp, "cycles per tracking block"),
    "seq.n_cycles": (_count, 300, "cycles per protocol in apl when run.n_trials is 0; blocks = n_cycles // n_cp"),
    "seq.dead_time_s": (_duration, RamseyConfig.dead_time, "extra free evolution per cycle"),
    # at most one full turn: a larger step is the same rotation, on a coarser float grid
    "seq.rabi_step_rad": (_Bounded(_as_float, 0.0, strict=True, high=2.0 * math.pi), math.pi / 6.0, "rotation per Rabi step"),
    # the probe-curve fit has three parameters, so it needs the baseline and two steps
    "seq.rabi_n_steps": (_Bounded(_as_int, 2, high=_INT64), 12, "Rabi steps after the baseline point"),
    "seq.rabi_repeats_standard": (_count, 10, "re-initialized Rabi repeats"),
    "seq.rabi_repeats_ppm": (_count, 8, "partial-projection Rabi repeats"),
    "diff.temperature_k": (_Bounded(_as_float, 0.0), DiffusionConfig.temperature, "ion temperature"),
    "diff.mobility": (_Bounded(_as_float, 0.0, strict=True), DiffusionConfig.mobility, "ion mobility for the Einstein relation"),
    # at most 1 m^2/s, past which the walks overflow; a derived D is bounded by DiffusionConfig
    "diff.d_override": (_unit._replace(or_none=True), DiffusionConfig.d_override, "diffusion constant override; 'none' derives from T and mobility"),
    "diff.dt_s": (_Bounded(_as_float, 0.0, strict=True, high=_DAY), 1e-5, "time step of the diffusion MSD curve; transport takes no sub-steps"),
    "diff.n_walkers": (_count, 20000, "walkers for diffusion statistics"),
    "diff.beam_lo_m": (_as_float, DiffusionConfig.beam_interval[0], "detection beam lower edge"),
    "diff.beam_hi_m": (_as_float, DiffusionConfig.beam_interval[1], "detection beam upper edge"),
    "diff.duration_max_s": (_duration, 2e-3, "longest struck-fraction window"),
    "diff.n_durations": (_count, 11, "points on the struck-fraction duration grid"),
    "allan.mode": (_Choice(("overlapping", "non_overlapping")), "overlapping", "Allan estimator variant"),
    # Allan work grows as the grid's points times the series length; at 100 a
    # decade adjacent taus lie 2.3% apart, and the work is about 25x the default's
    "allan.points_per_decade": (_Bounded(_as_int, 1, high=100), 4, "tau grid density"),
}.items()})

DEFAULTS = {key: spec.default for key, spec in KEYS.items()}


def resolve(values: dict) -> MappingProxyType:
    """Fill defaults and presets; return a read-only mapping keyed by registry name."""
    merged = dict(DEFAULTS)
    for key, raw in values.items():
        if key not in KEYS:
            raise ConfigError(f"unknown config key: {key!r}")
        try:
            merged[key] = KEYS[key].convert(raw)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    if merged["lo.preset"] != "none":
        spec = PRESETS[merged["lo.preset"]]
        merged["lo.h0"], merged["lo.h_minus1"], merged["lo.h_minus2"] = (
            spec.h0, spec.h_minus1, spec.h_minus2
        )

    try:
        _diffusion_config(merged)
    except ValueError as exc:  # each of its rules involves several keys: name those not at their default
        changed = [k for k in _DIFFUSION_KEYS if merged[k] != DEFAULTS[k]]
        raise ConfigError(f"{', '.join(changed)}: {exc}") from exc
    return MappingProxyType(merged)


def _detection(cfg) -> DetectionConfig:
    return DetectionConfig(
        p=cfg["det.p"],
        sigma_tech=cfg["det.sigma_tech"],
        measurement_duration=cfg["det.measurement_duration_s"],
    )


_DIFFUSION_KEYS = (
    "diff.temperature_k", "diff.mobility", "diff.d_override", "ens.cloud_length_m", "diff.beam_lo_m", "diff.beam_hi_m"
)


def _diffusion_config(cfg) -> DiffusionConfig:
    temp, mobility, d, length, lo, hi = (cfg[k] for k in _DIFFUSION_KEYS)
    return DiffusionConfig(temperature=temp, mobility=mobility, d_override=d, cloud_length=length, beam_interval=(lo, hi))


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


def _stab_params(cfg) -> StabilityParams:
    """The limit-line inputs, each derived from the run config.

    q is f0 * 2 * t_fp, the SNR that of the readout noise budget, t_c the
    tracking cycle time and n_atom the ensemble size.
    """
    var = cfg["det.sigma_tech"] ** 2 + 0.25 / max(cfg["det.p"] * cfg["ens.n_ions"], 1.0)
    return StabilityParams(
        q=cfg["lo.f0_hz"] * 2.0 * cfg["seq.t_fp_s"],
        snr=0.5 / math.sqrt(var),
        t_c=_ramsey_config(cfg).cycle_time,
        f0=cfg["lo.f0_hz"],
        n_cp=cfg["seq.n_cp"],
        n_atom=cfg["ens.n_ions"],
    )


def parse_config_file(path) -> dict:
    """Read raw key=value pairs; no defaults applied here."""
    raw = {}
    try:
        # utf-8-sig drops a byte-order mark, or the first key would carry it
        with open(path, "r", encoding="utf-8-sig") as fh:
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
                if key not in KEYS:
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
