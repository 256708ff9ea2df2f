"""Timing-report text format: strict parsing, canonical rendering."""

import random

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    st = None

from oracles import make_path, make_report, make_stage, random_report
from marco.errors import ReportError
from marco.eda.report import (
    Aggressor,
    Stage,
    TimingPath,
    TimingReport,
    parse_timing_report,
    render_timing_report,
)

MINIMAL = (
    "corner: ss_0p72v_125c mode: func check: max\n"
    "PATH p0 start=ff_a/Q end=ff_b/D clk=clk_core edges=rise slack=-0.12\n"
    "  STAGE 0 net=n_launch cell=BUF_X2 R=120.5 C=3.2 delay=0.045 lc=0.1 xtd=0.003 aggr=n_far:1.5;n_near:0.2\n"
    "  STAGE 1 net=n_mid cell=INV_X1 R=80.0 C=1.1 delay=0.02 lc=0.1 xtd=0.0 aggr=none\n"
)


class TestParse:
    def test_minimal_report_fields(self):
        report = parse_timing_report(MINIMAL)
        assert (report.corner, report.mode, report.check) == ("ss_0p72v_125c", "func", "max")
        assert len(report.paths) == 1
        path = report.paths[0]
        assert path.path_id == "p0"
        assert path.startpoint == "ff_a/Q"
        assert path.endpoint == "ff_b/D"
        assert path.clock_net == "clk_core"
        assert path.clock_edges == frozenset({"rise"})
        assert path.slack == -0.12
        assert len(path.stages) == 2
        first = path.stages[0]
        assert (first.net, first.cell) == ("n_launch", "BUF_X2")
        assert (first.resistance, first.capacitance) == (120.5, 3.2)
        assert (first.delay, first.constraint, first.xtalk_delta) == (0.045, 0.1, 0.003)
        assert first.aggressors == (Aggressor("n_far", 1.5), Aggressor("n_near", 0.2))
        assert path.stages[1].aggressors == ()

    def test_edges_variants(self):
        for text, expected in (
            ("rise", {"rise"}),
            ("fall", {"fall"}),
            ("rise,fall", {"rise", "fall"}),
            ("none", set()),
        ):
            report = parse_timing_report(
                "corner: c mode: m check: max\n"
                f"PATH p start=a end=b clk=c edges={text} slack=0.1\n"
                "  STAGE 0 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=none\n"
            )
            assert report.paths[0].clock_edges == frozenset(expected)

    def test_arrival_sums_delay_and_xtalk(self):
        report = parse_timing_report(MINIMAL)
        assert report.paths[0].arrival() == pytest.approx(0.045 + 0.003 + 0.02)

    def test_bad_header_names_line_one(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report("this is not a header\n")
        assert exc.value.code == "PARSE_ERROR"
        assert exc.value.details["line"] == 1

    def test_empty_text(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report("")
        assert exc.value.details["line"] == 1

    def test_header_only(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report("corner: c mode: m check: max\n")
        assert exc.value.code == "PARSE_ERROR"

    def test_stage_before_path(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report(
                "corner: c mode: m check: max\n"
                "  STAGE 0 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=none\n"
            )
        assert exc.value.details["line"] == 2

    def test_stage_indices_must_be_gapless(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report(
                "corner: c mode: m check: max\n"
                "PATH p start=a end=b clk=c edges=rise slack=0.1\n"
                "  STAGE 1 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=none\n"
            )
        assert "gapless" in str(exc.value)

    def test_overlong_stage_index(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report(
                "corner: c mode: m check: max\n"
                "PATH p start=a end=b clk=c edges=rise slack=0.1\n"
                f"  STAGE {'9' * 5000} net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=none\n"
            )
        assert exc.value.code == "PARSE_ERROR"
        assert exc.value.details["line"] == 3

    def test_leading_zeros_in_stage_index(self):
        text = MINIMAL.replace("STAGE 1 ", "STAGE 0001 ")
        assert [stage.index for stage in parse_timing_report(text).paths[0].stages] == [0, 1]

    def test_path_without_stages(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report(
                "corner: c mode: m check: max\n"
                "PATH p start=a end=b clk=c edges=rise slack=0.1\n"
                "PATH q start=a end=b clk=c edges=rise slack=0.1\n"
                "  STAGE 0 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=none\n"
            )
        assert "at least one STAGE" in str(exc.value)

    def test_duplicate_path_id(self):
        body = (
            "PATH p start=a end=b clk=c edges=rise slack=0.1\n"
            "  STAGE 0 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=none\n"
        )
        with pytest.raises(ReportError) as exc:
            parse_timing_report("corner: c mode: m check: max\n" + body + body)
        assert "fresh path id" in str(exc.value)

    @pytest.mark.parametrize("field", ["R=-1.0", "C=-0.5", "delay=-0.1"])
    def test_negative_physicals_rejected(self, field):
        line = "  STAGE 0 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=none"
        key = field.split("=")[0]
        line = line.replace(f"{key}={'0.1' if key == 'delay' else '1.0'}", field)
        with pytest.raises(ReportError) as exc:
            parse_timing_report(
                "corner: c mode: m check: max\nPATH p start=a end=b clk=c edges=rise slack=0.1\n" + line + "\n"
            )
        assert f"non-negative {key}" in str(exc.value)

    def test_negative_slack_lc_xtd_allowed(self):
        report = parse_timing_report(
            "corner: c mode: m check: max\n"
            "PATH p start=a end=b clk=c edges=rise slack=-0.3\n"
            "  STAGE 0 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=-0.05 xtd=-0.01 aggr=none\n"
        )
        stage = report.paths[0].stages[0]
        assert (report.paths[0].slack, stage.constraint, stage.xtalk_delta) == (-0.3, -0.05, -0.01)

    def test_bad_aggressor_item(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report(
                "corner: c mode: m check: max\n"
                "PATH p start=a end=b clk=c edges=rise slack=0.1\n"
                "  STAGE 0 net=n cell=U R=1.0 C=1.0 delay=0.1 lc=0.1 xtd=0.0 aggr=n1-2.0\n"
            )
        assert "aggr item" in str(exc.value)

    def test_unrecognized_line(self):
        with pytest.raises(ReportError) as exc:
            parse_timing_report("corner: c mode: m check: max\ngarbage\n")
        assert exc.value.details["line"] == 2
        assert "a PATH or STAGE line" in str(exc.value)

    def test_bad_check_value(self):
        with pytest.raises(ReportError):
            parse_timing_report("corner: c mode: m check: both\n")

    def test_numbers_parsed_exactly(self):
        report = parse_timing_report(
            "corner: c mode: m check: max\n"
            "PATH p start=a end=b clk=c edges=rise slack=1e-3\n"
            "  STAGE 0 net=n cell=U R=.5 C=2. delay=0.1 lc=0.1 xtd=0.0 aggr=a:1.5e1\n"
        )
        path = report.paths[0]
        assert path.slack == 1e-3
        assert path.stages[0].resistance == 0.5
        assert path.stages[0].capacitance == 2.0
        assert path.stages[0].aggressors[0].coupling_cap == 15.0


class TestRender:
    def test_round_trip_is_fixed_point(self):
        report = parse_timing_report(MINIMAL)
        rendered = render_timing_report(report)
        assert parse_timing_report(rendered) == report
        assert render_timing_report(parse_timing_report(rendered)) == rendered

    def test_ends_with_newline(self):
        assert render_timing_report(parse_timing_report(MINIMAL)).endswith("\n")

    def test_edge_render_order_fixed(self):
        path = make_path("p", (make_stage(0),), clock_edges=frozenset({"fall", "rise"}))
        rendered = render_timing_report(make_report((path,)))
        assert "edges=rise,fall" in rendered

    def test_none_markers(self):
        path = make_path("p", (make_stage(0),), clock_edges=frozenset())
        rendered = render_timing_report(make_report((path,)))
        assert "edges=none" in rendered
        assert "aggr=none" in rendered

    @pytest.mark.parametrize("seed", range(20))
    def test_random_reports_round_trip(self, seed):
        report = random_report(random.Random(seed))
        rendered = render_timing_report(report)
        parsed = parse_timing_report(rendered)
        assert parsed == report
        assert render_timing_report(parsed) == rendered

    def test_distinct_reports_render_distinct(self):
        a = make_report((make_path("p", (make_stage(0),)),))
        b = make_report((make_path("p", (make_stage(0, delay=0.06),)),))
        assert render_timing_report(a) != render_timing_report(b)


class TestValueSemantics:
    def test_path_map(self):
        report = parse_timing_report(MINIMAL)
        assert set(report.path_map()) == {"p0"}

    def test_rc_product(self):
        assert Stage(0, "n", "U", 3.0, 2.0, 0.1, 0.1, 0.0).rc_product() == 6.0

    def test_frozen_normalization(self):
        path = TimingPath("p", "a", "b", "c", {"rise"}, 0.1, [make_stage(0)])
        assert isinstance(path.clock_edges, frozenset)
        assert isinstance(path.stages, tuple)
        report = TimingReport("c", "m", "max", [path])
        assert isinstance(report.paths, tuple)


if st is not None:
    NUMBER = st.sampled_from(["0", "1.5", "-0.1", ".5", "1e999", "-1e-3", "7" * 400])
    NUMBER |= st.from_regex(r"-?\d{1,4}", fullmatch=True)
    STAGE_INDEX = st.sampled_from(["0", "1", "00", "9" * 5000, "0" * 5000]) | st.from_regex(r"\d{1,6}", fullmatch=True)
    PATH_LINE = st.builds(
        "PATH {} start=a end=b clk=c edges=rise slack={}".format, st.sampled_from(["p0", "p1"]), NUMBER
    )
    STAGE_LINE = st.builds(
        "  STAGE {} net=n cell=U R={} C=1 delay=0.1 lc={} xtd=0 aggr={}".format,
        STAGE_INDEX,
        NUMBER,
        NUMBER,
        st.sampled_from(["none", "x:1", "x:1;y:-2", "x:", ";", "x:1;"]),
    )
    PATH_BLOCK = st.builds(lambda path, stages: [path, *stages], PATH_LINE, st.lists(STAGE_LINE, min_size=1, max_size=3))
    REPORT_TEXT = st.text() | st.lists(PATH_BLOCK | st.lists(st.text(max_size=30), max_size=1), max_size=4).map(
        lambda blocks: "\n".join(["corner: c mode: m check: max", *(line for block in blocks for line in block)])
    )

    class TestAnyText:
        @settings(max_examples=400, deadline=None)
        @given(text=REPORT_TEXT)
        def test_report_or_parse_error(self, text):
            try:
                report = parse_timing_report(text)
            except ReportError as exc:
                assert exc.code == "PARSE_ERROR"
            else:
                assert isinstance(report, TimingReport)
                assert all(s.index == i for p in report.paths for i, s in enumerate(p.stages))
