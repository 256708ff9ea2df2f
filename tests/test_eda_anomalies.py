"""Anomaly detectors against brute-force oracles and frozen examples."""

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

from oracles import (
    anomaly_key,
    make_path,
    make_report,
    make_stage,
    oracle_aggressor_rc,
    oracle_missing_clock,
    oracle_rc_mismatch_list,
    oracle_rc_pairs,
    oracle_slowest,
    oracle_table_mismatch,
    oracle_xtalk_constraint,
    random_report,
)
from marco.errors import ReportError
from marco.eda.anomalies import (
    Anomaly,
    aggressor_anomalies,
    anomaly_identity,
    compare_timing_tables,
    missing_clock_edges,
    rc_mismatch_pairs,
    slowest_stage_constraints,
)
from marco.eda.report import Aggressor


def one_path_report(*stages, **path_kwargs):
    return make_report((make_path("p0", tuple(stages), **path_kwargs),))


class TestAnomalyModel:
    def test_identity_formats(self):
        plain = Anomaly(kind="missing_clock_edge", path_id="p1", subjects=("clk",), explanation="x")
        assert anomaly_identity(plain) == "missing_clock_edge|p1|-"
        pair = Anomaly(kind="rc_mismatch", path_id="p1", stage_pair=(0, 2), explanation="x")
        assert anomaly_identity(pair) == "rc_mismatch|p1|0-2"
        faceted = Anomaly(kind="table_mismatch", facet="slack", path_id="p1", explanation="x")
        assert anomaly_identity(faceted) == "table_mismatch.slack|p1|-"
        indexed = Anomaly(kind="xtalk_constraint", path_id="p1", stage_index=3, explanation="x")
        assert anomaly_identity(indexed) == "xtalk_constraint|p1|3"

    def test_model_guards(self):
        with pytest.raises(ValueError):
            Anomaly(kind="novel", path_id="p", explanation="x")
        with pytest.raises(ValueError):
            Anomaly(kind="rc_mismatch", path_id="p", explanation="")
        with pytest.raises(ValueError):
            Anomaly(kind="rc_mismatch", path_id="p", measure=float("inf"), explanation="x")

    def test_to_dict_carries_identity(self):
        anomaly = Anomaly(kind="rc_mismatch", path_id="p1", stage_pair=(0, 1), explanation="x")
        assert anomaly.to_dict()["identity"] == "rc_mismatch|p1|0-1"


class TestMissingClockEdges:
    def test_unannotated_clock_flagged(self):
        report = make_report(
            (
                make_path("p0", (make_stage(0),), clock_edges=frozenset(), slack=-0.2),
                make_path("p1", (make_stage(0),), clock_edges=frozenset({"rise"})),
            )
        )
        found = missing_clock_edges(report)
        assert [a.path_id for a in found] == ["p0"]
        assert found[0].subjects == ("clk",)
        assert found[0].measure == -0.2

    def test_partial_annotation_passes(self):
        report = one_path_report(make_stage(0), clock_edges=frozenset({"fall"}))
        assert missing_clock_edges(report) == []

    def test_min_report_rejected(self):
        report = make_report((make_path("p0", (make_stage(0),)),), check="min")
        with pytest.raises(ReportError) as exc:
            missing_clock_edges(report)
        assert exc.value.code == "WRONG_CHECK"


class TestRcMismatchPairs:
    def test_ratio_example(self):
        report = one_path_report(make_stage(0, resistance=10.0), make_stage(1, resistance=100.0))
        found = rc_mismatch_pairs(report, ratio_threshold=5.0)
        assert len(found) == 1
        assert found[0].stage_pair == (0, 1)
        assert found[0].subjects == ("n", "n")
        assert found[0].measure == 10.0
        assert found[0].explanation.startswith("R mismatch between stages 0 and 1")

    def test_threshold_boundary_inclusive(self):
        report = one_path_report(make_stage(0, resistance=20.0), make_stage(1, resistance=100.0))
        assert len(rc_mismatch_pairs(report, ratio_threshold=5.0)) == 1
        assert rc_mismatch_pairs(report, ratio_threshold=5.0001) == []

    def test_both_facets_combined(self):
        report = one_path_report(
            make_stage(0, resistance=10.0, capacitance=1.0),
            make_stage(1, resistance=100.0, capacitance=10.0),
        )
        found = rc_mismatch_pairs(report, ratio_threshold=5.0)
        assert found[0].explanation.startswith("R+C mismatch")
        assert found[0].measure == 10.0

    def test_zero_against_positive(self):
        report = one_path_report(
            make_stage(0, resistance=0.0, capacitance=2.0),
            make_stage(1, resistance=50.0, capacitance=2.0),
        )
        found = rc_mismatch_pairs(report, ratio_threshold=5.0)
        assert len(found) == 1
        assert found[0].measure == 50.0

    def test_zero_against_zero_quiet(self):
        report = one_path_report(
            make_stage(0, resistance=0.0, capacitance=2.0),
            make_stage(1, resistance=0.0, capacitance=2.0),
        )
        assert rc_mismatch_pairs(report, ratio_threshold=5.0) == []

    def test_stage_filter_limits_pairs(self):
        report = one_path_report(
            make_stage(0, resistance=1.0),
            make_stage(1, resistance=100.0),
            make_stage(2, resistance=10.0),
            make_stage(3, resistance=100.0),
        )
        found = rc_mismatch_pairs(report, ratio_threshold=5.0, stage_filter=[2, 3])
        assert [a.stage_pair for a in found] == [(2, 3)]

    def test_path_filter(self):
        report = make_report(
            (
                make_path("p0", (make_stage(0, resistance=1.0), make_stage(1, resistance=100.0))),
                make_path("p1", (make_stage(0, resistance=1.0), make_stage(1, resistance=100.0))),
            )
        )
        found = rc_mismatch_pairs(report, ratio_threshold=5.0, path_filter=["p1"])
        assert [a.path_id for a in found] == ["p1"]

    def test_bad_threshold(self):
        report = one_path_report(make_stage(0))
        with pytest.raises(ReportError) as exc:
            rc_mismatch_pairs(report, ratio_threshold=1.0)
        assert exc.value.code == "BAD_THRESHOLD"


if st is not None:
    RC_VALUES = st.sampled_from([0.0, 1.0, 2.0, 5.0, 10.0]) | st.floats(0.001, 1000.0)
    RC_PATHS = st.lists(st.lists(st.tuples(RC_VALUES, RC_VALUES), max_size=6), min_size=1, max_size=4)

    class TestRcMismatchPairsProperty:
        @settings(max_examples=300, deadline=None)
        @given(
            paths=RC_PATHS,
            threshold=st.sampled_from([2.0, 3.0, 5.0]) | st.floats(1.0, 20.0, exclude_min=True),
            stage_filter=st.none() | st.lists(st.integers(0, 6), max_size=4),
            path_filter=st.none() | st.lists(st.sampled_from(["p0", "p1", "p2", "p3", "px"]), max_size=3),
        )
        def test_matches_the_earlier_formulation(self, paths, threshold, stage_filter, path_filter):
            """Zero and equal R and C values, both filters: the same anomalies in
            the same order, with the same measures and explanations."""
            report = make_report(
                tuple(
                    make_path(
                        f"p{i}",
                        tuple(make_stage(j, net=f"n{i}_{j}", resistance=r, capacitance=c) for j, (r, c) in enumerate(rcs)),
                    )
                    for i, rcs in enumerate(paths)
                )
            )
            got = rc_mismatch_pairs(report, threshold, stage_filter=stage_filter, path_filter=path_filter)
            assert got == oracle_rc_mismatch_list(report, threshold, stage_filter=stage_filter, path_filter=path_filter)


class TestXtalkConstraint:
    def test_ratio_example(self):
        report = one_path_report(make_stage(0, xtalk_delta=0.05, constraint=0.02))
        found = aggressor_anomalies(report, kind="constraint", threshold=2.0)
        assert len(found) == 1
        assert found[0].kind == "xtalk_constraint"
        assert found[0].measure == 2.5
        assert found[0].subjects == ("n",)

    def test_below_threshold_quiet(self):
        report = one_path_report(make_stage(0, xtalk_delta=0.03, constraint=0.02))
        assert aggressor_anomalies(report, kind="constraint", threshold=2.0) == []

    def test_zero_constraint_flags_any_positive_delta(self):
        report = one_path_report(make_stage(0, xtalk_delta=0.01, constraint=0.0))
        found = aggressor_anomalies(report, kind="constraint", threshold=2.0)
        assert len(found) == 1
        assert found[0].measure == 0.01

    def test_zero_constraint_zero_delta_quiet(self):
        report = one_path_report(make_stage(0, xtalk_delta=0.0, constraint=0.0))
        assert aggressor_anomalies(report, kind="constraint", threshold=2.0) == []

    def test_bad_kind_and_threshold(self):
        report = one_path_report(make_stage(0))
        with pytest.raises(ReportError) as exc:
            aggressor_anomalies(report, kind="weird", threshold=2.0)
        assert exc.value.code == "BAD_KIND"
        with pytest.raises(ReportError) as exc:
            aggressor_anomalies(report, kind="constraint", threshold=0.0)
        assert exc.value.code == "BAD_THRESHOLD"


class TestAggressorRc:
    def test_no_aggressors_quiet(self):
        report = one_path_report(make_stage(0))
        assert aggressor_anomalies(report, kind="rc", threshold=3.0) == []

    def test_triggering_nets_listed(self):
        stage = make_stage(
            0,
            capacitance=2.0,
            aggressors=(Aggressor("agg_hot", 8.0), Aggressor("agg_cool", 1.0), Aggressor("agg_edge", 6.0)),
        )
        found = aggressor_anomalies(one_path_report(stage), kind="rc", threshold=3.0)
        assert len(found) == 1
        assert found[0].kind == "aggressor_rc"
        assert found[0].subjects == ("n", "agg_hot", "agg_edge")
        assert found[0].measure == 4.0

    def test_threshold_boundary_inclusive(self):
        stage = make_stage(0, capacitance=2.0, aggressors=(Aggressor("a", 6.0),))
        assert len(aggressor_anomalies(one_path_report(stage), kind="rc", threshold=3.0)) == 1
        stage = make_stage(0, capacitance=2.0, aggressors=(Aggressor("a", 5.999),))
        assert aggressor_anomalies(one_path_report(stage), kind="rc", threshold=3.0) == []

    def test_zero_capacitance_flags_any_positive_coupling(self):
        stage = make_stage(0, capacitance=0.0, aggressors=(Aggressor("a", 0.4), Aggressor("b", 0.0)))
        found = aggressor_anomalies(one_path_report(stage), kind="rc", threshold=3.0)
        assert len(found) == 1
        assert found[0].subjects == ("n", "a")
        assert found[0].measure == 0.4


class TestSlowestStages:
    def test_single_stage(self):
        report = one_path_report(make_stage(0, delay=0.3, constraint=0.07))
        found = slowest_stage_constraints(report, top_k=1)
        assert len(found) == 1
        assert found[0].kind == "slow_stage_constraint"
        assert found[0].measure == 0.07

    def test_top_two_sorted_by_delay(self):
        report = one_path_report(
            make_stage(0, delay=0.3), make_stage(1, delay=0.5), make_stage(2, delay=0.1)
        )
        found = slowest_stage_constraints(report, top_k=2)
        assert [a.stage_index for a in found] == [1, 0]

    def test_rc_product_breaks_delay_ties(self):
        report = one_path_report(
            make_stage(0, delay=0.3, resistance=10.0, capacitance=1.0),
            make_stage(1, delay=0.3, resistance=100.0, capacitance=1.0),
        )
        found = slowest_stage_constraints(report, top_k=1)
        assert found[0].stage_index == 1

    def test_position_breaks_full_ties(self):
        report = make_report(
            (
                make_path("pb", (make_stage(0),)),
                make_path("pa", (make_stage(0),)),
            )
        )
        found = slowest_stage_constraints(report, top_k=1)
        assert found[0].path_id == "pa"

    def test_k_larger_than_population(self):
        report = one_path_report(make_stage(0))
        assert len(slowest_stage_constraints(report, top_k=10)) == 1

    def test_bad_k(self):
        with pytest.raises(ValueError):
            slowest_stage_constraints(one_path_report(make_stage(0)), top_k=0)


def shifted_copy(report, delay_shift=0.0, slack_shift=0.0, corner="other"):
    paths = []
    for path in report.paths:
        stages = tuple(
            make_stage(
                s.index, net=s.net, cell=s.cell, resistance=s.resistance, capacitance=s.capacitance,
                delay=s.delay + (delay_shift if s.index == 1 else 0.0),
                constraint=s.constraint, xtalk_delta=s.xtalk_delta, aggressors=s.aggressors,
            )
            for s in path.stages
        )
        paths.append(
            make_path(path.path_id, stages, clock_edges=path.clock_edges, slack=path.slack + slack_shift)
        )
    return make_report(tuple(paths), corner=corner, mode=report.mode, check=report.check)


class TestCompareTables:
    def base(self):
        return one_path_report(make_stage(0, delay=0.05), make_stage(1, delay=0.07))

    def test_self_comparison_clean(self):
        report = self.base()
        assert compare_timing_tables(report, report) == []

    def test_delay_shift_gives_exactly_two_anomalies(self):
        report = self.base()
        drifted = shifted_copy(report, delay_shift=0.01, slack_shift=-0.01)
        found = compare_timing_tables(report, drifted)
        assert len(found) == 2
        by_facet = {a.facet: a for a in found}
        assert set(by_facet) == {"point_delay", "slack"}
        assert by_facet["point_delay"].stage_index == 1
        assert by_facet["point_delay"].measure == pytest.approx(0.01)
        assert by_facet["slack"].measure == pytest.approx(0.01)

    def test_orphan_path(self):
        report = self.base()
        extra = make_report(
            report.paths + (make_path("p_extra", (make_stage(0),)),),
            corner="other", mode=report.mode, check=report.check,
        )
        found = compare_timing_tables(report, extra)
        assert len(found) == 1
        assert found[0].facet == "orphan"
        assert found[0].path_id == "p_extra"
        assert found[0].subjects == ("in_p_extra", "out_p_extra")

    def test_stage_count_drift(self):
        report = self.base()
        shorter = make_report(
            (make_path("p0", report.paths[0].stages[:1], slack=report.paths[0].slack),),
            corner="other", mode=report.mode, check=report.check,
        )
        found = compare_timing_tables(report, shorter)
        assert [a.facet for a in found] == ["stage_count"]
        assert found[0].measure == 1.0

    def test_tolerance_boundary(self):
        def with_slack(slack, corner):
            return make_report(
                (make_path("p0", (make_stage(0),), slack=slack),), corner=corner
            )

        base = with_slack(0.0, "ca")
        at_tolerance = with_slack(1e-6, "cb")
        assert compare_timing_tables(base, at_tolerance) == []
        past_tolerance = with_slack(2e-6, "cb")
        found = compare_timing_tables(base, past_tolerance)
        assert [a.facet for a in found] == ["slack"]

    def test_incomparable_reports(self):
        report = self.base()
        other = make_report(report.paths, mode="test", check=report.check)
        with pytest.raises(ReportError) as exc:
            compare_timing_tables(report, other)
        assert exc.value.code == "INCOMPARABLE"


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(30))
    def test_missing_clock_matches_oracle(self, seed):
        report = random_report(random.Random(seed))
        got = {anomaly_key(a) for a in missing_clock_edges(report)}
        assert got == oracle_missing_clock(report)

    @pytest.mark.parametrize("seed", range(30))
    def test_rc_pairs_match_oracle(self, seed):
        report = random_report(random.Random(seed + 1000))
        stage_filter = [0, 1, 2] if seed % 2 else None
        path_filter = ["p0", "p2", "p4"] if seed % 3 == 0 else None
        got = rc_mismatch_pairs(report, 3.0, stage_filter=stage_filter, path_filter=path_filter)
        assert {anomaly_key(a) for a in got} == oracle_rc_pairs(
            report, 3.0, stage_filter=stage_filter, path_filter=path_filter
        )

    @pytest.mark.parametrize("seed", range(30))
    def test_xtalk_matches_oracle(self, seed):
        report = random_report(random.Random(seed + 2000))
        stage_filter = [1, 3, 5] if seed % 2 else None
        got = aggressor_anomalies(report, kind="constraint", threshold=2.0, stage_filter=stage_filter)
        assert {anomaly_key(a) for a in got} == oracle_xtalk_constraint(report, 2.0, stage_filter=stage_filter)

    @pytest.mark.parametrize("seed", range(30))
    def test_aggressor_rc_matches_oracle(self, seed):
        report = random_report(random.Random(seed + 3000))
        path_filter = ["p1", "p3"] if seed % 2 else None
        got = aggressor_anomalies(report, kind="rc", threshold=3.0, path_filter=path_filter)
        assert {anomaly_key(a) for a in got} == oracle_aggressor_rc(report, 3.0, path_filter=path_filter)

    @pytest.mark.parametrize("seed", range(20))
    def test_slowest_matches_oracle_ordered(self, seed):
        report = random_report(random.Random(seed + 4000))
        for top_k in (1, 3, 5):
            got = [anomaly_key(a) for a in slowest_stage_constraints(report, top_k)]
            assert got == oracle_slowest(report, top_k)

    @pytest.mark.parametrize("seed", range(20))
    def test_table_compare_matches_oracle(self, seed):
        rng = random.Random(seed + 5000)
        report_a = random_report(rng, corner="ca")
        report_b = random_report(rng, corner="cb")
        got = {anomaly_key(a) for a in compare_timing_tables(report_a, report_b)}
        assert got == oracle_table_mismatch(report_a, report_b)
