"""Slack histograms and cross-corner metric tables."""

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover
    pytest.skip("hypothesis not installed", allow_module_level=True)

from oracles import make_path, make_report, make_stage, oracle_bin, oracle_metric_rows, oracle_worst, random_report
from marco.errors import ReportError
from marco.eda.metrics import slack_bin, timing_distribution, timing_metric_compare


def report_with_slacks(slacks, corner="c0", mode="func"):
    paths = tuple(make_path(f"p{i}", (make_stage(0),), slack=s) for i, s in enumerate(slacks))
    return make_report(paths, corner=corner, mode=mode)


class TestSlackBin:
    def test_examples(self):
        assert slack_bin(-0.15, 0.1) == -2
        assert slack_bin(-0.05, 0.1) == -1
        assert slack_bin(0.02, 0.1) == 0

    def test_boundary_lands_in_upper_bin(self):
        assert slack_bin(0.1, 0.1) == 1
        assert slack_bin(-0.1, 0.1) == -1
        assert slack_bin(0.0, 0.1) == 0
        assert slack_bin(0.2, 0.1) == 2
        # exact rationals: float 0.3 sits just below 3 * float(0.1)
        assert slack_bin(0.3, 0.1) == 2

    @settings(max_examples=120, deadline=None)
    @given(
        slack=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        width=st.sampled_from([0.1, 0.05, 0.25, 0.001, 1.0, 3.0]),
    )
    def test_matches_exact_oracle(self, slack, width):
        k = slack_bin(slack, width)
        assert k == oracle_bin(slack, width)

    @settings(max_examples=120, deadline=None)
    @given(
        slack=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        width=st.sampled_from([0.1, 0.05, 0.25, 1.0]),
    )
    def test_half_open_interval_property(self, slack, width):
        from fractions import Fraction

        k = slack_bin(slack, width)
        s, w = Fraction(slack), Fraction(width)
        assert Fraction(k) * w <= s < Fraction(k + 1) * w

    @pytest.mark.parametrize("slack, width", [(float("nan"), 0.1), (float("inf"), 0.1), (float("-inf"), 0.1),
                                              (0.1, float("inf")), (0.1, float("-inf")), (0.1, 0.0)])
    def test_nan_infinity_and_zero_width_raise_as_fractions_do(self, slack, width):
        from fractions import Fraction

        with pytest.raises(ArithmeticError if width == 0.0 else (ValueError, OverflowError)) as expected:
            Fraction(slack) // Fraction(width)
        with pytest.raises(expected.type):
            slack_bin(slack, width)


class TestDistribution:
    def test_three_slack_example(self):
        result = timing_distribution([report_with_slacks([-0.15, -0.05, 0.02])], bin_width=0.1)
        assert result["per_report"][0]["counts"] == {"-2": 1, "-1": 1, "0": 1}
        assert result["pooled"]["counts"] == {"-2": 1, "-1": 1, "0": 1}
        assert result["pooled"]["count"] == 3

    def test_summary_fields(self):
        result = timing_distribution([report_with_slacks([-0.2, 0.1, 0.4])], bin_width=0.1)
        row = result["per_report"][0]
        assert (row["corner"], row["mode"], row["check"]) == ("c0", "func", "max")
        assert row["count"] == 3
        assert row["min"] == -0.2
        assert row["max"] == 0.4
        assert row["mean"] == round((-0.2 + 0.1 + 0.4) / 3, 9)

    def test_pooled_counts_are_additive(self):
        a = report_with_slacks([-0.15, 0.02], corner="ca")
        b = report_with_slacks([-0.05, 0.02], corner="cb")
        together = timing_distribution([a, b], bin_width=0.1)
        only_a = timing_distribution([a], bin_width=0.1)
        only_b = timing_distribution([b], bin_width=0.1)
        expected: dict[str, int] = {}
        for part in (only_a, only_b):
            for key, count in part["pooled"]["counts"].items():
                expected[key] = expected.get(key, 0) + count
        assert together["pooled"]["counts"] == {k: expected[k] for k in sorted(expected, key=int)}
        assert together["pooled"]["count"] == only_a["pooled"]["count"] + only_b["pooled"]["count"]

    def test_counts_keys_sorted_numerically(self):
        result = timing_distribution([report_with_slacks([1.05, -1.05, 0.0])], bin_width=0.1)
        keys = list(result["per_report"][0]["counts"])
        assert keys == [str(k) for k in sorted(int(k) for k in keys)]

    def test_bad_bin_width(self):
        with pytest.raises(ReportError) as exc:
            timing_distribution([report_with_slacks([0.1])], bin_width=0.0)
        assert exc.value.code == "BAD_BIN_WIDTH"

    @pytest.mark.parametrize("seed", range(10))
    def test_histogram_totals_match_path_count(self, seed):
        report = random_report(random.Random(seed + 7000))
        result = timing_distribution([report], bin_width=0.05)
        row = result["per_report"][0]
        assert sum(row["counts"].values()) == row["count"] == len(report.paths)


class TestMetricCompare:
    def test_wns_tns_failing_example(self):
        report = report_with_slacks([-0.1, -0.2, 0.3])
        for metric, expected in (("wns", -0.2), ("tns", -0.1 + -0.2), ("failing_path_count", 2)):
            result = timing_metric_compare([report], metric)
            row = result["rows"][0]
            assert row["value"] == expected
        result = timing_metric_compare([report], "tns")
        assert result["rows"][0]["tns"] == pytest.approx(-0.3)

    def test_rows_sorted_and_pooled_by_corner_mode(self):
        reports = [
            report_with_slacks([-0.1], corner="cb", mode="func"),
            report_with_slacks([0.2], corner="ca", mode="func"),
            report_with_slacks([-0.3], corner="cb", mode="func"),
        ]
        result = timing_metric_compare(reports, "wns")
        assert [(r["corner"], r["mode"]) for r in result["rows"]] == [("ca", "func"), ("cb", "func")]
        pooled_cb = next(r for r in result["rows"] if r["corner"] == "cb")
        assert pooled_cb["wns"] == -0.3
        assert pooled_cb["failing_path_count"] == 2

    def test_worst_picks_min_for_wns(self):
        reports = [
            report_with_slacks([-0.1], corner="ca"),
            report_with_slacks([-0.4], corner="cb"),
        ]
        result = timing_metric_compare(reports, "wns")
        assert result["worst"] == {"corner": "cb", "mode": "func", "value": -0.4}

    def test_worst_picks_max_for_failing_count(self):
        reports = [
            report_with_slacks([-0.1, -0.2], corner="ca"),
            report_with_slacks([-0.4], corner="cb"),
        ]
        result = timing_metric_compare(reports, "failing_path_count")
        assert result["worst"] == {"corner": "ca", "mode": "func", "value": 2}

    def test_worst_ties_break_by_key(self):
        reports = [
            report_with_slacks([-0.25], corner="cb"),
            report_with_slacks([-0.25], corner="ca"),
        ]
        result = timing_metric_compare(reports, "wns")
        assert result["worst"]["corner"] == "ca"

    def test_checks_recorded(self):
        setup = report_with_slacks([-0.1])
        hold = make_report((make_path("p0", (make_stage(0),), slack=-0.1),), check="min")
        result = timing_metric_compare([setup, hold], "wns")
        assert result["rows"][0]["checks"] == ["max", "min"]

    def test_empty_and_bad_metric(self):
        with pytest.raises(ValueError):
            timing_metric_compare([], "wns")
        with pytest.raises(ValueError):
            timing_metric_compare([report_with_slacks([0.1])], "slack_area")

    @pytest.mark.parametrize("seed", range(15))
    @pytest.mark.parametrize("metric", ["wns", "tns", "failing_path_count"])
    def test_matches_oracle(self, seed, metric):
        rng = random.Random(seed * 31 + 11)
        reports = [
            random_report(rng, corner=rng.choice(["ca", "cb", "cc"]))
            for _ in range(rng.randint(1, 4))
        ]
        result = timing_metric_compare(reports, metric)
        expected_rows = oracle_metric_rows(reports, metric)
        got_rows = {(r["corner"], r["mode"]): r["value"] for r in result["rows"]}
        assert got_rows == expected_rows
        worst_key = oracle_worst(expected_rows, metric)
        assert (result["worst"]["corner"], result["worst"]["mode"]) == worst_key
