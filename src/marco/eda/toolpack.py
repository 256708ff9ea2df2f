"""Tool pack exposing the timing analyses to agents.

Handlers resolve report arguments as document ids in the knowledge bases
bound to the calling role, run the pure analysis, and optionally persist the
structured payload on the blackboard under ``save_as``. Payloads carry an
``identities`` list so runs can be scored against a planted manifest.
"""

from __future__ import annotations

from typing import Sequence

from ..tools import Param, ParamSchema, ToolContext, ToolResult, ToolSpec, error_result
from .anomalies import (
    Anomaly,
    anomaly_identity,
    aggressor_anomalies,
    compare_timing_tables,
    missing_clock_edges,
    rc_mismatch_pairs,
    slowest_stage_constraints,
)
from .metrics import timing_distribution, timing_metric_compare
from .report import TimingReport, parse_timing_report


def _load_report(context: ToolContext, doc_id: str) -> TimingReport:
    """Parse a report document once per knowledge base that holds it; a parse
    failure raises and is not kept."""
    kb, _ = context.find_document(doc_id)
    return kb.parse_once(doc_id, parse_timing_report)


def _parse_index_list(text: str | None) -> list[int] | None:
    if text is None:
        return None
    return [int(chunk) for chunk in text.split(",") if chunk.strip()]


def _parse_id_list(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [chunk.strip() for chunk in text.split(",") if chunk.strip()]


def _tool_result(payload: dict, lines: list[str], context: ToolContext, save_as: str | None) -> ToolResult:
    """Store the payload under ``save_as`` when given, and wrap it with its text."""
    if save_as:
        context.write(save_as, payload)
        lines.append(f"saved to '{save_as}'")
    return ToolResult(ok=True, content="\n".join(lines), data=payload)


def _anomaly_result(
    op: str,
    report_ids: Sequence[str],
    params: dict,
    anomalies: list[Anomaly],
    context: ToolContext,
    save_as: str | None,
) -> ToolResult:
    payload = {
        "op": op,
        "reports": list(report_ids),
        "params": params,
        "count": len(anomalies),
        "anomalies": [a.to_dict() for a in anomalies],
        "identities": [anomaly_identity(a) for a in anomalies],
    }
    lines = [f"{op}: {len(anomalies)} finding(s)"]
    lines.extend(f"  {anomaly_identity(a)} measure={a.measure:.6g}" for a in anomalies)
    return _tool_result(payload, lines, context, save_as)


def _save_as_param() -> Param:
    return Param("save_as", "string", required=False, doc="Blackboard key to store the structured payload under.")


def _h_missing_clock_edges(args: dict, context: ToolContext) -> ToolResult:
    report = _load_report(context, args["report"])
    anomalies = missing_clock_edges(report)
    return _anomaly_result("find_missing_clock_edges", [args["report"]], {}, anomalies, context, args.get("save_as"))


def _h_rc_mismatch_pairs(args: dict, context: ToolContext) -> ToolResult:
    report = _load_report(context, args["report"])
    stages = _parse_index_list(args.get("stages"))
    paths = _parse_id_list(args.get("paths"))
    anomalies = rc_mismatch_pairs(report, args["ratio_threshold"], stage_filter=stages, path_filter=paths)
    params = {"ratio_threshold": args["ratio_threshold"], "stages": stages, "paths": paths}
    return _anomaly_result("find_rc_mismatch_pairs", [args["report"]], params, anomalies, context, args.get("save_as"))


def _h_aggressor_anomalies(args: dict, context: ToolContext) -> ToolResult:
    report = _load_report(context, args["report"])
    stages = _parse_index_list(args.get("stages"))
    paths = _parse_id_list(args.get("paths"))
    anomalies = aggressor_anomalies(report, args["kind"], args["threshold"], stage_filter=stages, path_filter=paths)
    params = {"kind": args["kind"], "threshold": args["threshold"], "stages": stages, "paths": paths}
    return _anomaly_result("find_aggressor_anomalies", [args["report"]], params, anomalies, context, args.get("save_as"))


def _h_slowest_stages(args: dict, context: ToolContext) -> ToolResult:
    report = _load_report(context, args["report"])
    anomalies = slowest_stage_constraints(report, args["top_k"])
    params = {"top_k": args["top_k"]}
    return _anomaly_result("find_slowest_stages", [args["report"]], params, anomalies, context, args.get("save_as"))


def _h_compare_tables(args: dict, context: ToolContext) -> ToolResult:
    report_a = _load_report(context, args["report_a"])
    report_b = _load_report(context, args["report_b"])
    anomalies = compare_timing_tables(report_a, report_b)
    return _anomaly_result(
        "compare_timing_tables",
        [args["report_a"], args["report_b"]],
        {},
        anomalies,
        context,
        args.get("save_as"),
    )


def _h_timing_distribution(args: dict, context: ToolContext) -> ToolResult:
    reports = [_load_report(context, doc_id) for doc_id in args["reports"]]
    payload = timing_distribution(reports, args["bin_width"])
    payload = {"op": "timing_distribution", "reports": list(args["reports"]), **payload}
    lines = [f"timing_distribution over {len(reports)} report(s), bin width {args['bin_width']:.6g}"]
    for row in payload["per_report"]:
        lines.append(
            f"  {row['corner']} {row['mode']}: n={row['count']}"
            f" min={row['min']:.6g} max={row['max']:.6g} mean={row['mean']:.6g}"
        )
    lines.append(f"  pooled n={payload['pooled']['count']}")
    return _tool_result(payload, lines, context, args.get("save_as"))


def _h_timing_metric_compare(args: dict, context: ToolContext) -> ToolResult:
    reports = [_load_report(context, doc_id) for doc_id in args["reports"]]
    payload = timing_metric_compare(reports, args["metric"])
    payload = {"op": "timing_metric_compare", "reports": list(args["reports"]), **payload}
    lines = [f"timing_metric_compare metric={args['metric']}"]
    for row in payload["rows"]:
        lines.append(
            f"  {row['corner']} {row['mode']}: wns={row['wns']:.6g} tns={row['tns']:.6g}"
            f" failing={row['failing_path_count']}"
        )
    worst = payload["worst"]
    lines.append(f"worst {args['metric']}: {worst['corner']} {worst['mode']} value={worst['value']:.6g}")
    return _tool_result(payload, lines, context, args.get("save_as"))


def _spec(name: str, description: str, params: tuple[Param, ...]) -> ToolSpec:
    return ToolSpec(name=name, description=description, params=ParamSchema(params), handler_ref=f"eda.{name}")


HANDLER_CATALOG = {
    "eda.find_missing_clock_edges": (
        _spec(
            "find_missing_clock_edges",
            "List paths in a setup report whose clock has no rise/fall annotation.",
            (
                Param("report", "string", doc="Document id of the timing report."),
                _save_as_param(),
            ),
        ),
        _h_missing_clock_edges,
    ),
    "eda.find_rc_mismatch_pairs": (
        _spec(
            "find_rc_mismatch_pairs",
            "Flag stage pairs within each path whose R or C ratio reaches the threshold.",
            (
                Param("report", "string", doc="Document id of the timing report."),
                Param("ratio_threshold", "number", doc="Minimum max/min ratio that counts as a mismatch (> 1)."),
                Param("stages", "string", required=False, doc="Comma-separated stage indices to restrict to."),
                Param("paths", "string", required=False, doc="Comma-separated path ids to restrict to."),
                _save_as_param(),
            ),
        ),
        _h_rc_mismatch_pairs,
    ),
    "eda.find_aggressor_anomalies": (
        _spec(
            "find_aggressor_anomalies",
            "Flag crosstalk trouble per stage: delta vs constraint, or coupling vs wire C.",
            (
                Param("report", "string", doc="Document id of the timing report."),
                Param("kind", "string", doc="'constraint' or 'rc'."),
                Param("threshold", "number", doc="Trigger ratio (> 0)."),
                Param("stages", "string", required=False, doc="Comma-separated stage indices to restrict to."),
                Param("paths", "string", required=False, doc="Comma-separated path ids to restrict to."),
                _save_as_param(),
            ),
        ),
        _h_aggressor_anomalies,
    ),
    "eda.find_slowest_stages": (
        _spec(
            "find_slowest_stages",
            "Report the constraints of the top-k slowest stages across all paths.",
            (
                Param("report", "string", doc="Document id of the timing report."),
                Param("top_k", "integer", doc="How many stages to rank (>= 1)."),
                _save_as_param(),
            ),
        ),
        _h_slowest_stages,
    ),
    "eda.compare_timing_tables": (
        _spec(
            "compare_timing_tables",
            "Diff two comparable reports: stage counts, per-stage delays, slacks, orphans.",
            (
                Param("report_a", "string", doc="Document id of the first report."),
                Param("report_b", "string", doc="Document id of the second report."),
                _save_as_param(),
            ),
        ),
        _h_compare_tables,
    ),
    "eda.timing_distribution": (
        _spec(
            "timing_distribution",
            "Histogram path slacks per report and pooled, with min/max/mean.",
            (
                Param("reports", "string_list", doc="Document ids of the timing reports."),
                Param("bin_width", "number", doc="Bin width in ns (> 0)."),
                _save_as_param(),
            ),
        ),
        _h_timing_distribution,
    ),
    "eda.timing_metric_compare": (
        _spec(
            "timing_metric_compare",
            "Tabulate wns/tns/failing-path-count per (corner, mode) and name the worst.",
            (
                Param("reports", "string_list", doc="Document ids of the timing reports."),
                Param("metric", "string", doc="'wns', 'tns', or 'failing_path_count'."),
                _save_as_param(),
            ),
        ),
        _h_timing_metric_compare,
    ),
}
