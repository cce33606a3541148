"""Allan deviation and limit lines."""

import math
import warnings

import numpy as np
import pytest

from ionclock.rng import substream
from ionclock.stability import (
    AllanPoint,
    BoundViolationWarning,
    FractionalFrequencySeries,
    InsufficientDataError,
    StabilityParams,
    allan_deviation,
    confidence_interval,
    default_taus,
    limit_apl,
    limit_apl_repetition,
    limit_technical,
    qpn_snr,
)


def series(y, tau0=1.0):
    return FractionalFrequencySeries(np.asarray(y, dtype=float), tau0)


PARAMS = StabilityParams(q=2.52e9, snr=10.0, t_c=0.1045, f0=12.6e9, n_cp=3, n_atom=2000)


class TestAllan:
    def test_alternating_toy_series_exact(self):
        s = series([1.0, -1.0] * 8)
        for mode in ("overlapping", "non_overlapping"):
            pt = allan_deviation(s, [1.0], mode)[0]
            assert pt.adev == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_constant_series_is_zero(self):
        # prefix-sum evaluation leaves only rounding dust
        pts = allan_deviation(series([0.37] * 64), [1.0, 2.0, 4.0])
        assert all(p.adev < 1e-12 for p in pts)

    def test_pair_counts(self):
        s = series(np.arange(10.0))
        non = allan_deviation(s, [2.0], "non_overlapping")[0]
        ovl = allan_deviation(s, [2.0], "overlapping")[0]
        assert non.n_pairs == 4  # 5 bins
        assert ovl.n_pairs == 10 - 2 * 2 + 1

    def test_estimators_agree_on_white_noise(self):
        y = substream(1, "wn").normal(0, 1, 40_000)
        s = series(y)
        a = allan_deviation(s, [8.0], "overlapping")[0].adev
        b = allan_deviation(s, [8.0], "non_overlapping")[0].adev
        assert a == pytest.approx(b, rel=0.05)

    def test_white_fm_scaling(self):
        y = substream(2, "wn").normal(0, 0.5, 100_000)
        s = series(y)
        for m in (1, 4, 16):
            pt = allan_deviation(s, [float(m)])[0]
            assert pt.adev == pytest.approx(0.5 / math.sqrt(m), rel=0.1)

    def test_scale_invariance(self):
        y = substream(3, "wn").normal(0, 1, 2000)
        a = allan_deviation(series(y), [4.0])[0].adev
        b = allan_deviation(series(3.5 * y), [4.0])[0].adev
        assert b == pytest.approx(3.5 * a, rel=1e-12)

    def test_tau_must_be_integer_multiple(self):
        with pytest.raises(ValueError):
            allan_deviation(series(np.zeros(100)), [1.5])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            allan_deviation(series(np.zeros(10)), [1.0], "sideways")

    def test_insufficient_data_names_max_tau(self):
        # both estimators need 2m samples and say so in one message
        s = series(np.zeros(10))
        messages = set()
        for mode in ("overlapping", "non_overlapping"):
            with pytest.raises(InsufficientDataError, match="max usable tau is 5") as exc:
                allan_deviation(s, [6.0], mode)
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_default_taus_usable(self):
        s = series(substream(4, "wn").normal(0, 1, 3000), tau0=0.5)
        taus = default_taus(s, points_per_decade=4)
        assert taus[0] == 0.5
        assert taus[-1] <= (3000 // 2) * 0.5 + 1e-9
        pts = allan_deviation(s, taus)
        assert len(pts) == len(taus)

    def test_overlapping_matches_the_array_formula_bit_for_bit(self):
        y = substream(5, "wn").normal(0, 1, 1001)
        s = np.concatenate(([0.0], np.cumsum(y)))
        n = y.size
        pts = allan_deviation(series(y), default_taus(series(y), 8))
        assert len(pts) > 10
        for pt in pts:
            m = int(pt.tau)
            d = (s[2 * m :] - 2.0 * s[m:-m] + s[: n - 2 * m + 1]) / m
            assert pt.adev == math.sqrt(float(np.mean(d * d)) / 2.0)

    @pytest.mark.parametrize("m", [1, 2, 7, 50, 501])
    def test_non_overlapping_matches_block_means(self, m):
        # 1003 samples leave a partial last bin at every m but 1, and it is dropped
        y = substream(6, "wn").normal(0, 1, 1003)
        nb = y.size // m
        means = y[: nb * m].reshape(nb, m).mean(axis=1)
        pt = allan_deviation(series(y), [float(m)], "non_overlapping")[0]
        assert pt.n_pairs == nb - 1
        assert pt.adev == pytest.approx(math.sqrt(np.mean(np.diff(means) ** 2) / 2.0), rel=1e-13)

    @pytest.mark.parametrize("n, per_decade", [(2, 4), (3, 4), (1000, 4), (54_321, 10), (10**6, 20)])
    def test_default_taus_are_the_distinct_rounded_grid(self, n, per_decade):
        decades = math.log10(n // 2)
        grid = np.round(np.logspace(0.0, decades, int(decades * per_decade) + 1)).astype(int)
        taus = default_taus(series(np.zeros(n), tau0=0.5), per_decade)
        assert np.array_equal(taus, np.unique(grid) * 0.5)

    def test_series_validation(self):
        with pytest.raises(ValueError):
            series([1.0])
        with pytest.raises(ValueError):
            FractionalFrequencySeries(np.zeros((3, 3)), 1.0)
        with pytest.raises(ValueError):
            series([1.0, 2.0], tau0=0.0)

    def test_confidence_interval_brackets_point(self):
        pt = AllanPoint(tau=1.0, adev=2e-13, n_pairs=50)
        lo, hi = confidence_interval(pt, level=0.68)
        assert lo < pt.adev < hi
        with pytest.raises(ValueError):
            confidence_interval(pt, level=1.5)


class TestLimits:
    def test_apl_line_frozen_value(self):
        p = StabilityParams(q=2.52e9, snr=10.0, t_c=0.1, n_atom=2000, f0=12.6e9)
        assert limit_apl(p, 1.0) == pytest.approx(7.936507936507937e-12, rel=1e-15)

    def test_technical_line_scales_as_root_tau(self):
        v1 = limit_technical(PARAMS, 1.0)
        v4 = limit_technical(PARAMS, 4.0)
        assert v1 / v4 == pytest.approx(2.0, rel=1e-12)

    def test_apl_line_scales_as_tau(self):
        assert limit_apl(PARAMS, 1.0) / limit_apl(PARAMS, 10.0) == pytest.approx(10.0, rel=1e-12)

    def test_repetition_line_divides_by_root_blocks(self):
        v = limit_apl_repetition(PARAMS, 2.0)
        assert v == pytest.approx(limit_technical(PARAMS, 2.0) / math.sqrt(3), rel=1e-12)

    def test_vectorized_taus(self):
        taus = np.array([0.5, 1.0, 2.0])
        out = limit_technical(PARAMS, taus)
        assert out.shape == (3,)
        assert np.all(np.diff(out) < 0)

    def test_bound_warning_past_information_limit(self):
        p = StabilityParams(q=2.52e9, snr=10.0, t_c=0.1, n_cp=21, n_atom=2000)
        assert p.max_n_cp == pytest.approx(20.0)
        with pytest.warns(BoundViolationWarning):
            limit_apl_repetition(p, 1.0)

    def test_no_warning_at_or_below_bound(self):
        p = StabilityParams(q=2.52e9, snr=10.0, t_c=0.1, n_cp=20, n_atom=2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            limit_apl_repetition(p, 1.0)

    def test_tau_validation(self):
        with pytest.raises(ValueError):
            limit_technical(PARAMS, 0.0)
        with pytest.raises(ValueError):
            limit_apl(PARAMS, -1.0)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            StabilityParams(q=0.0, snr=1.0, t_c=0.1, n_atom=1)
        with pytest.raises(ValueError):
            StabilityParams(q=1.0, snr=1.0, t_c=0.1, n_atom=1, n_cp=0)
        with pytest.raises(ValueError):
            StabilityParams(q=1.0, snr=1.0, t_c=0.1, n_atom=0)
        # max_n_cp divides by snr^2, which must neither overflow nor underflow
        for snr in (1e300, 1e-300):
            with pytest.raises(ValueError, match="snr"):
                StabilityParams(q=1.0, snr=snr, t_c=0.1, n_atom=1)


def test_qpn_snr():
    assert qpn_snr(100) == 10.0
    assert qpn_snr(10_000) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        qpn_snr(0)
