"""Allan-deviation analysis and instability limit lines.

Works on fractional frequency samples y = delta_f / f0 on a uniform
grid. Both the non-overlapping (classic two-sample) and overlapping
estimators are provided, as one second difference of prefix sums: the
overlapping form takes it from every start index, the non-overlapping
form from every m-th, so large series stay cheap.

Limit lines: the technical/QPN floor falls as tau^(-1/2); coherent
multi-cycle phase tracking within a block turns that into a tau^(-1)
line down to the block length, and re-entering the averaging regime
with blocks of n_cp cycles divides the tau^(-1/2) floor by sqrt(n_cp).
The sqrt(n_cp) gain saturates once n_cp exceeds n_atom / snr^2, where
the per-cycle information is exhausted; callers get a
BoundViolationWarning rather than an error because the formula still
evaluates.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FractionalFrequencySeries",
    "StabilityParams",
    "AllanPoint",
    "InsufficientDataError",
    "BoundViolationWarning",
    "allan_deviation",
    "default_taus",
    "confidence_interval",
    "limit_technical",
    "limit_apl",
    "limit_apl_repetition",
    "qpn_snr",
]


class InsufficientDataError(ValueError):
    """Requested tau needs more samples than the series holds."""


class BoundViolationWarning(UserWarning):
    """n_cp exceeds the information bound n_atom / snr^2."""


@dataclass(frozen=True, eq=False)
class FractionalFrequencySeries:
    """Uniformly sampled fractional frequency offsets.

    tau0 is the sample spacing in seconds. At least two samples are
    required (one Allan pair).
    """

    y: np.ndarray
    tau0: float

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if y.ndim != 1 or y.size < 2:
            raise ValueError("need a 1-d series with at least 2 samples")
        if self.tau0 <= 0:
            raise ValueError("tau0 must be positive")

    def __len__(self):
        return self.y.size


@dataclass(frozen=True)
class StabilityParams:
    """Inputs to the limit lines.

    q is the line quality factor f0 * 2 * t_fp, snr the single-cycle
    signal-to-noise, t_c the full cycle time, n_cp the cycles per
    tracking block, n_atom the ensemble size.
    """

    q: float
    snr: float
    t_c: float
    n_atom: int
    f0: float = 12.6e9
    n_cp: int = 1

    def __post_init__(self):
        for name in ("q", "snr", "t_c", "f0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.n_cp < 1:
            raise ValueError("n_cp must be at least 1")
        if self.n_atom < 1:
            raise ValueError("n_atom must be at least 1")
        if not 0.0 < self.snr * self.snr < math.inf:
            raise ValueError("snr^2 must be positive and finite: max_n_cp divides by it")

    @property
    def max_n_cp(self):
        """Largest useful block length before the information bound."""
        return self.n_atom / (self.snr**2)


@dataclass(frozen=True)
class AllanPoint:
    tau: float
    adev: float
    n_pairs: int


def _to_m(series, tau):
    ratio = tau / series.tau0
    m = int(round(ratio))
    if m < 1 or abs(ratio - m) > 1e-9 * max(1.0, abs(ratio)):
        raise ValueError(f"tau={tau} is not a positive integer multiple of tau0={series.tau0}")
    return m


def allan_deviation(series: FractionalFrequencySeries, taus, mode="overlapping"):
    """Two-sample (Allan) deviation at the requested averaging times.

    taus must be integer multiples of series.tau0 (``default_taus``
    gives a log-spaced grid). mode is "overlapping" or
    "non_overlapping". Returns a list of AllanPoint. A tau too long for
    even one pair raises InsufficientDataError naming the largest
    usable tau.
    """
    if mode not in ("overlapping", "non_overlapping"):
        raise ValueError(f"unknown mode: {mode!r}")

    y = series.y
    n = y.size
    # prefix sums give any block mean in O(1)
    s = np.empty(n + 1)
    s[0] = 0.0
    np.cumsum(y, out=s[1:])
    buf = np.empty(n - 1)  # the differences of every tau, in place
    out = []
    for tau in np.atleast_1d(taus):
        m = _to_m(series, float(tau))
        if n < 2 * m:
            raise InsufficientDataError(
                f"tau={float(tau)} needs >= 2m samples; max usable tau is {(n // 2) * series.tau0}"
            )
        # block-mean difference (s[i+2m] - 2 s[i+m] + s[i]) / m from every start i, or every m-th
        step = 1 if mode == "overlapping" else m
        n_pairs = (n - 2 * m) // step + 1
        d = np.multiply(s[m : n - m + 1 : step], 2.0, out=buf[:n_pairs])
        np.subtract(s[2 * m :: step], d, out=d)
        np.add(d, s[: n - 2 * m + 1 : step], out=d)
        np.divide(d, m, out=d)
        np.square(d, out=d)
        adev = math.sqrt(float(np.mean(d)) / 2.0)
        out.append(AllanPoint(tau=m * series.tau0, adev=adev, n_pairs=n_pairs))
    return out


def default_taus(series: FractionalFrequencySeries, points_per_decade=4):
    """Log-spaced tau grid from tau0 up to the longest tau with a pair."""
    m_max = len(series) // 2  # at least 1: a series holds two samples
    decades = math.log10(m_max)
    n_pts = int(decades * points_per_decade) + 1
    ms = np.round(np.logspace(0.0, decades, n_pts)).astype(int)
    ms = ms[np.diff(ms, prepend=0) > 0]  # non-decreasing: drop the repeats
    return ms * series.tau0


def confidence_interval(point: AllanPoint, level=0.68):
    """Chi-squared interval for the Allan deviation at one point.

    Uses the pair count as the equivalent degrees of freedom; good
    enough for error bars, not a substitute for a noise-identified edf.
    Needs scipy, which the package installs only with its ``test`` extra.
    """
    from scipy import stats  # loaded here only, so no CLI run imports scipy

    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    edf = max(point.n_pairs, 1)
    alpha = 1.0 - level
    lo_q = stats.chi2.ppf(1.0 - alpha / 2.0, edf)
    hi_q = stats.chi2.ppf(alpha / 2.0, edf)
    var = point.adev**2
    return (
        math.sqrt(edf * var / lo_q),
        math.sqrt(edf * var / hi_q),
    )


def limit_technical(params: StabilityParams, tau):
    """Detection-noise floor, falling as tau^(-1/2)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    return (1.0 / (params.q * params.snr)) * np.sqrt(params.t_c / tau)


def limit_apl(params: StabilityParams, tau):
    """Coherent phase-tracking line, falling as tau^(-1)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0):
        raise ValueError("tau must be positive")
    return 1.0 / (params.f0 * params.snr * tau)


def limit_apl_repetition(params: StabilityParams, tau):
    """Averaging floor for repeated n_cp-cycle tracking blocks.

    limit_technical / sqrt(n_cp). Warns (BoundViolationWarning) when
    n_cp exceeds the n_atom / snr^2 information bound; at that bound
    the line coincides with the ensemble QPN floor.
    """
    bound = params.max_n_cp
    if params.n_cp > bound:
        warnings.warn(
            f"n_cp={params.n_cp} exceeds the information bound "
            f"n_atom/snr^2={bound:.6g}; the sqrt(n_cp) gain is not physical past it",
            BoundViolationWarning,
            stacklevel=2,
        )
    return limit_technical(params, tau) / math.sqrt(params.n_cp)


def qpn_snr(n_atom):
    """Projection-noise-limited SNR of an n_atom ensemble."""
    if n_atom < 1:
        raise ValueError("n_atom must be at least 1")
    return math.sqrt(n_atom)

