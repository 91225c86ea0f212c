"""Unit tests for the bench result objects' logic (no simulation runs)."""

import pytest

from repro.bench.figures import (
    BaselineComparison,
    CpsVsBpsResult,
    Figure6Result,
    Figure7Result,
    Figure8Result,
    HeterogeneityAblation,
    ReplicationAblation,
    SelectionAblation,
    Table2Result,
    Table2Row,
    ThinkTimeAblation,
)


class TestFigure6Result:
    RESULT = Figure6Result(dataset="lod", rows=[
        (2, 16, 700.0, 2e6), (2, 48, 1700.0, 5e6),
        (4, 16, 750.0, 2e6), (4, 48, 3300.0, 9e6),
    ])

    def test_series_for(self):
        assert self.RESULT.series_for(2) == [(16, 700.0, 2e6),
                                             (48, 1700.0, 5e6)]

    def test_peaks(self):
        assert self.RESULT.peak_cps(2) == 1700.0
        assert self.RESULT.peak_bps(4) == 9e6
        assert self.RESULT.peak_cps(16) == 0.0

    def test_format_mentions_dataset(self):
        assert "LOD" in self.RESULT.format()


class TestFigure7Result:
    RESULT = Figure7Result(rows=[
        ("lod", 2, 2000.0, 5e6), ("lod", 8, 7600.0, 20e6),
        ("sblog", 2, 1100.0, 22e6), ("sblog", 8, 2800.0, 58e6),
    ])

    def test_scaling_ratio(self):
        assert self.RESULT.scaling_ratio("lod", 2, 8) == pytest.approx(3.8)
        assert self.RESULT.scaling_ratio("sblog", 2, 8) == \
            pytest.approx(2800.0 / 1100.0)

    def test_scaling_ratio_bps(self):
        assert self.RESULT.scaling_ratio("lod", 2, 8, metric="bps") == \
            pytest.approx(4.0)

    def test_zero_base_is_infinite(self):
        result = Figure7Result(rows=[("x", 1, 0.0, 0.0), ("x", 2, 5.0, 1.0)])
        assert result.scaling_ratio("x", 1, 2) == float("inf")


class TestFigure8Result:
    def make(self, cps):
        return Figure8Result(dataset="lod", servers=4,
                             times=[float(i) for i in range(len(cps))],
                             cps=cps, bps=[c * 1000 for c in cps],
                             migrations=10)

    def test_accelerating_curve_detected(self):
        exponential = self.make([100, 110, 125, 150, 200, 300, 500, 800])
        assert exponential.is_accelerating()

    def test_decelerating_curve_rejected(self):
        logarithmic = self.make([100, 400, 600, 700, 750, 775, 790, 795])
        assert not logarithmic.is_accelerating()

    def test_short_series_not_accelerating(self):
        assert not self.make([1, 2]).is_accelerating()

    def test_warmup_gain(self):
        assert self.make([100, 400]).warmup_gain() == 4.0
        assert self.make([0.0, 100]).warmup_gain() == float("inf")

    def test_growth_profile(self):
        assert self.make([1, 3, 6]).cps_growth() == [2, 3]


class TestTable2:
    def test_higher_with_low_expectation(self):
        row = Table2Row("T_pi", 10, 40, "pings", 20.0, 5.0,
                        expectation="higher_with_low")
        assert row.matches_expectation
        bad = Table2Row("T_pi", 10, 40, "pings", 5.0, 20.0,
                        expectation="higher_with_low")
        assert not bad.matches_expectation

    def test_higher_with_high_expectation(self):
        row = Table2Row("X", 1, 2, "m", 1.0, 2.0,
                        expectation="higher_with_high")
        assert row.matches_expectation

    def test_result_lookup(self):
        result = Table2Result(rows=[Table2Row("T_st", 1, 2, "m", 3.0, 1.0,
                                              "higher_with_low")])
        assert result.row("T_st").metric == "m"
        with pytest.raises(KeyError):
            result.row("T_zz")
        assert "T_st" in result.format()


class TestSmallResults:
    def test_cps_vs_bps_orders(self):
        result = CpsVsBpsResult(rows=[
            ("lod", 3000.0, 9e6, 3000.0),
            ("sequoia", 300.0, 40e6, 130000.0),
        ])
        assert result.cps_order() == ["lod", "sequoia"]
        assert result.bps_order() == ["sequoia", "lod"]

    def test_baseline_lookup(self):
        result = BaselineComparison(rows=[
            ("lod", "dcws", 8, 6000.0, 1e7, 7e5)])
        assert result.steady_cps_of("lod", "dcws", 8) == 6000.0
        with pytest.raises(KeyError):
            result.steady_cps_of("lod", "dcws", 2)

    def test_replication_gain(self):
        result = ReplicationAblation("sblog", 8, cps_without=2000.0,
                                     cps_with=2500.0, repairs=3)
        assert result.gain == 1.25
        zero = ReplicationAblation("sblog", 8, 0.0, 1.0, 0)
        assert zero.gain == float("inf")

    def test_selection_lookup(self):
        result = SelectionAblation(rows=[("paper", 100.0, 5, 50)])
        assert result.row("paper")[2] == 5
        with pytest.raises(KeyError):
            result.row("nope")

    def test_heterogeneity_lookup(self):
        result = HeterogeneityAblation(rows=[
            ("homogeneous", "dcws", 3000.0, 0.0)])
        assert result.cps_of("homogeneous", "dcws") == 3000.0
        with pytest.raises(KeyError):
            result.cps_of("heterogeneous", "dcws")

    def test_think_time_format(self):
        result = ThinkTimeAblation(rows=[(0.0, 3000.0, 30.0)])
        assert "think time" in result.format()
