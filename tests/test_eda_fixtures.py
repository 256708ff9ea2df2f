"""Seeded fixture generation, planted manifests, trace scoring."""

import pytest

from marco.eda.anomalies import (
    aggressor_anomalies,
    anomaly_identity,
    compare_timing_tables,
    missing_clock_edges,
    rc_mismatch_pairs,
    slowest_stage_constraints,
)
from marco.eda.fixtures import (
    AGGRESSOR_RC_THRESHOLD,
    DEFAULT_PATHS,
    DEFAULT_SEED,
    FOCUS_PATHS,
    FOCUS_STAGES,
    RC_RATIO_THRESHOLD,
    SLOWEST_TOP_K,
    XTALK_THRESHOLD,
    FixtureSet,
    ManifestEntry,
    ScoreResult,
    TaskScore,
    generate_fixture_set,
    parse_manifest,
    render_manifest,
    render_score_report,
    report_doc_id,
    score_trace,
    write_fixture_set,
)
from marco.eda.report import parse_timing_report, render_timing_report

SEEDS = (0, 1, 7, 2024, 31337)


def planted_identities(fixture_set: FixtureSet, task_id: str) -> set[str]:
    return {e.identity() for e in fixture_set.manifest if e.task_id == task_id}


class TestGeneration:
    def test_seed_determinism_byte_identical(self):
        first = generate_fixture_set(7)
        second = generate_fixture_set(7)
        for a, b in zip(first.all_reports(), second.all_reports()):
            assert render_timing_report(a) == render_timing_report(b)
        assert render_manifest(first.manifest) == render_manifest(second.manifest)
        assert first.required_times == second.required_times

    def test_seeds_differ(self):
        a = generate_fixture_set(1)
        b = generate_fixture_set(2)
        assert render_timing_report(a.primary()) != render_timing_report(b.primary())

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_fixture_set(1, corners=0)
        with pytest.raises(ValueError):
            generate_fixture_set(1, paths=7)
        with pytest.raises(ValueError, match="corners must be from 1 to 32"):
            generate_fixture_set(1, corners=33)
        with pytest.raises(ValueError, match="to 10000"):
            generate_fixture_set(1, paths=10_001)

    def test_shape(self):
        fixture_set = generate_fixture_set(DEFAULT_SEED)
        assert len(fixture_set.reports) == 3
        assert len(fixture_set.all_reports()) == 4
        assert fixture_set.primary() is fixture_set.reports[0]
        assert len(fixture_set.primary().paths) == DEFAULT_PATHS
        assert len(fixture_set.companion.paths) == DEFAULT_PATHS - 1
        corners = [r.corner for r in fixture_set.reports]
        assert corners == ["ss_0p72v_125c", "tt_0p80v_25c", "ff_0p88v_m40c"]
        assert fixture_set.companion.corner == "ss_0p72v_125c_ref"

    def test_extra_corners_get_synthetic_names(self):
        fixture_set = generate_fixture_set(3, corners=5)
        corners = [r.corner for r in fixture_set.reports]
        assert corners[3:] == ["pvt3_1p00v_25c", "pvt4_1p00v_25c"]

    def test_primary_slacks_sit_in_failing_range(self):
        fixture_set = generate_fixture_set(11)
        for path in fixture_set.primary().paths:
            assert -0.41 < path.slack < -0.09

    def test_required_times_consistent_with_slacks(self):
        fixture_set = generate_fixture_set(5)
        for report in fixture_set.all_reports():
            for path in report.paths:
                required = fixture_set.required_times[(report.corner, path.path_id)]
                assert path.slack == required - path.arrival()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reports_round_trip_through_text(self, seed):
        fixture_set = generate_fixture_set(seed)
        for report in fixture_set.all_reports():
            assert parse_timing_report(render_timing_report(report)) == report


class TestManifest:
    def test_sixteen_entries_seven_tasks(self):
        manifest = generate_fixture_set(1).manifest
        assert len(manifest) == 16
        assert {e.task_id for e in manifest} == {"M1", "M2", "M3", "M4", "M5", "M6", "M7"}
        # M7 re-plants one M2 and one M3 finding inside the focus window
        assert len({e.identity() for e in manifest}) == 14

    def test_render_parse_round_trip(self):
        manifest = generate_fixture_set(1).manifest
        text = render_manifest(manifest)
        assert tuple(parse_manifest(text)) == manifest

    def test_parse_skips_comments_and_blanks(self):
        text = "# planted anomalies\n\nM1\tp0\t-\tmissing_clock_edge\n"
        assert parse_manifest(text) == [ManifestEntry("M1", "p0", "-", "missing_clock_edge")]

    def test_parse_rejects_wrong_field_count(self):
        with pytest.raises(ValueError):
            parse_manifest("M1\tp0\t-\n")

    def test_identity_format(self):
        entry = ManifestEntry("M6", "p2", "3", "table_mismatch.point_delay")
        assert entry.identity() == "table_mismatch.point_delay|p2|3"
        assert entry.line() == "M6\tp2\t3\ttable_mismatch.point_delay"


class TestPlantedDetection:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_task_recovers_exactly_its_planted_set(self, seed):
        fixture_set = generate_fixture_set(seed)
        primary = fixture_set.primary()

        recovered = {
            "M1": missing_clock_edges(primary),
            "M2": rc_mismatch_pairs(primary, RC_RATIO_THRESHOLD),
            "M3": aggressor_anomalies(primary, kind="constraint", threshold=XTALK_THRESHOLD),
            "M4": aggressor_anomalies(primary, kind="rc", threshold=AGGRESSOR_RC_THRESHOLD),
            "M5": slowest_stage_constraints(primary, SLOWEST_TOP_K),
            "M6": compare_timing_tables(primary, fixture_set.companion),
            "M7": (
                rc_mismatch_pairs(
                    primary, RC_RATIO_THRESHOLD, stage_filter=FOCUS_STAGES, path_filter=FOCUS_PATHS
                )
                + aggressor_anomalies(
                    primary, kind="constraint", threshold=XTALK_THRESHOLD,
                    stage_filter=FOCUS_STAGES, path_filter=FOCUS_PATHS,
                )
            ),
        }
        for task_id, anomalies in recovered.items():
            got = {anomaly_identity(a) for a in anomalies}
            assert got == planted_identities(fixture_set, task_id), task_id

    @pytest.mark.parametrize("seed", SEEDS)
    def test_clean_corners_have_zero_findings(self, seed):
        fixture_set = generate_fixture_set(seed)
        for report in fixture_set.reports[1:]:
            assert missing_clock_edges(report) == []
            assert rc_mismatch_pairs(report, RC_RATIO_THRESHOLD) == []
            assert aggressor_anomalies(report, kind="constraint", threshold=XTALK_THRESHOLD) == []
            assert aggressor_anomalies(report, kind="rc", threshold=AGGRESSOR_RC_THRESHOLD) == []

    def test_slow_stages_are_the_planted_trio(self):
        primary = generate_fixture_set(13).primary()
        found = slowest_stage_constraints(primary, SLOWEST_TOP_K)
        assert [(a.path_id, a.stage_index) for a in found] == [("p4", 0), ("p4", 1), ("p4", 2)]


class TestWriteFixtures:
    def test_layout_and_round_trip(self, tmp_path):
        fixture_set = generate_fixture_set(3)
        written = write_fixture_set(fixture_set, tmp_path)
        names = sorted(p.name for p in written)
        assert names == sorted(
            [
                "ss_0p72v_125c__func__max.txt",
                "tt_0p80v_25c__func__max.txt",
                "ff_0p88v_m40c__func__max.txt",
                "ss_0p72v_125c_ref__func__max.txt",
                "manifest.tsv",
            ]
        )
        primary_text = (tmp_path / "ss_0p72v_125c__func__max.txt").read_text(encoding="utf-8")
        assert parse_timing_report(primary_text) == fixture_set.primary()
        manifest_text = (tmp_path / "manifest.tsv").read_text(encoding="utf-8")
        assert tuple(parse_manifest(manifest_text)) == fixture_set.manifest

    def test_doc_id_format(self):
        report = generate_fixture_set(3).primary()
        assert report_doc_id(report) == "ss_0p72v_125c__func__max"

    def test_rewrites_are_byte_identical(self, tmp_path):
        write_fixture_set(generate_fixture_set(9), tmp_path / "a")
        write_fixture_set(generate_fixture_set(9), tmp_path / "b")
        for path_a in sorted((tmp_path / "a").iterdir()):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()


def cell(identities):
    return {"value": {"identities": list(identities)}, "producer": "n", "version": 1}


def full_trace(fixture_set: FixtureSet, break_task: str | None = None) -> dict:
    blackboard = {}
    for task_id in ("M1", "M2", "M3", "M4", "M5", "M6", "M7"):
        identities = planted_identities(fixture_set, task_id)
        if task_id == break_task:
            identities = set(list(identities)[:1]) if len(identities) > 1 else {"bogus|p9|-"}
        blackboard[f"{task_id.lower()}_findings"] = cell(sorted(identities))
    return {"blackboard": blackboard}


class TestScoring:
    def test_all_tasks_pass_on_exact_sets(self):
        fixture_set = generate_fixture_set(1)
        result = score_trace(full_trace(fixture_set), fixture_set.manifest)
        assert result.passed_count() == 7
        assert result.pass_rate_line() == "pass-rate: 7/7 (100%)"

    def test_six_of_seven_line(self):
        fixture_set = generate_fixture_set(1)
        result = score_trace(full_trace(fixture_set, break_task="M6"), fixture_set.manifest)
        assert result.passed_count() == 6
        assert result.pass_rate_line() == "pass-rate: 6/7 (86%)"
        failed = [t for t in result.tasks if not t.passed]
        assert [t.task_id for t in failed] == ["M6"]

    def test_superset_fails(self):
        fixture_set = generate_fixture_set(1)
        trace = full_trace(fixture_set)
        trace["blackboard"]["m1_findings"]["value"]["identities"].append("extra|p1|-")
        result = score_trace(trace, fixture_set.manifest)
        assert [t.passed for t in result.tasks if t.task_id == "M1"] == [False]

    def test_union_across_multiple_keys(self):
        fixture_set = generate_fixture_set(1)
        planted = sorted(planted_identities(fixture_set, "M2"))
        trace = {
            "blackboard": {
                "m2_pairs_findings": cell(planted[:1]),
                "m2_window_findings": cell(planted[1:]),
            }
        }
        result = score_trace(trace, fixture_set.manifest)
        assert [t.passed for t in result.tasks if t.task_id == "M2"] == [True]

    def test_key_matching_rules(self):
        fixture_set = generate_fixture_set(1)
        planted = sorted(planted_identities(fixture_set, "M1"))
        near_misses = {
            "m1x_findings": cell(planted),  # prefix must be exactly 'm1_'
            "m1_findings_extra": cell(planted),  # must end with 'findings'
            "m10_findings": cell(planted),  # different task
        }
        result = score_trace({"blackboard": near_misses}, fixture_set.manifest)
        m1 = next(t for t in result.tasks if t.task_id == "M1")
        assert m1.recovered == frozenset()
        assert not m1.passed

    def test_malformed_cells_ignored(self):
        fixture_set = generate_fixture_set(1)
        trace = {
            "blackboard": {
                "m1_findings": "not a mapping",
                "m2_findings": {"value": "not a mapping either"},
                "m3_findings": {"value": {"identities": "not a list"}},
            }
        }
        result = score_trace(trace, fixture_set.manifest)
        assert result.passed_count() == 0

    def test_empty_trace(self):
        fixture_set = generate_fixture_set(1)
        result = score_trace({}, fixture_set.manifest)
        assert result.passed_count() == 0
        assert len(result.tasks) == 7

    def test_render_score_report_format(self):
        result = ScoreResult(
            tasks=(
                TaskScore("M1", True, frozenset({"a"}), frozenset({"a"})),
                TaskScore("M2", False, frozenset(), frozenset({"b", "c"})),
            )
        )
        assert render_score_report(result) == (
            "M1: PASS (recovered 1, planted 1)\n"
            "M2: FAIL (recovered 0, planted 2)\n"
            "pass-rate: 1/2 (50%)\n"
        )

    def test_pass_rate_empty(self):
        assert ScoreResult(tasks=()).pass_rate_line() == "pass-rate: 0/0 (0%)"
