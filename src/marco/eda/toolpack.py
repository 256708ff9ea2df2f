"""Tool pack exposing the timing analyses to agents.

Handlers resolve report arguments as document ids in the knowledge bases
bound to the calling role, run the pure analysis, and optionally persist the
structured payload on the blackboard under ``save_as``. Payloads carry an
``identities`` list so runs can be scored against a planted manifest.
"""

from __future__ import annotations

from ..tools import Handler, Param, ToolContext, ToolResult, ToolSpec
from .anomalies import (  # detectors are called through globals(), see _anomaly_tool
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
    """The parsed report document; ``parse_timing_report``'s memo keeps the parse."""
    return parse_timing_report(context.find_document(doc_id).text)


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


REPORT = Param("report", "string", doc="Document id of the timing report.")
REPORTS = Param("reports", "string_list", doc="Document ids of the timing reports.")
STAGES = Param("stages", "string", required=False, doc="Comma-separated stage indices to restrict to.")
PATHS = Param("paths", "string", required=False, doc="Comma-separated path ids to restrict to.")
SAVE_AS = Param("save_as", "string", required=False, doc="Blackboard key to store the structured payload under.")


def _anomaly_tool(
    name: str,
    detector: str,
    description: str,
    reports: tuple[Param, ...],
    params: tuple[Param, ...] = (),
    filtered: bool = False,
) -> tuple[ToolSpec, Handler]:
    """Catalog entry for one detector: load the report arguments, pass the
    parameters (and the stage/path filters when ``filtered``), and render the
    anomalies. The detector is looked up in this module at call time, so a
    wrapper installed here sees every call."""
    report_names = [p.name for p in reports]
    param_names = [p.name for p in params]

    def handler(args: dict, context: ToolContext) -> ToolResult:
        loaded = [_load_report(context, args[arg]) for arg in report_names]
        used = {arg: args[arg] for arg in param_names}
        if filtered:
            used["stages"] = _parse_index_list(args.get("stages"))
            used["paths"] = _parse_id_list(args.get("paths"))
        # the payload's params are, in order, the detector's arguments after the reports
        anomalies = globals()[detector](*loaded, *used.values())
        payload = {
            "op": name,
            "reports": [args[arg] for arg in report_names],
            "params": used,
            "count": len(anomalies),
            "anomalies": [a.to_dict() for a in anomalies],
            "identities": [anomaly_identity(a) for a in anomalies],
        }
        lines = [f"{name}: {len(anomalies)} finding(s)"]
        lines.extend(f"  {anomaly_identity(a)} measure={a.measure:.6g}" for a in anomalies)
        return _tool_result(payload, lines, context, args.get("save_as"))

    spec_params = (*reports, *params, *((STAGES, PATHS) if filtered else ()), SAVE_AS)
    return ToolSpec(name, description, spec_params), handler


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


HANDLER_CATALOG = {
    "eda.find_missing_clock_edges": _anomaly_tool(
        "find_missing_clock_edges",
        "missing_clock_edges",
        "List paths in a setup report whose clock has no rise/fall annotation.",
        (REPORT,),
    ),
    "eda.find_rc_mismatch_pairs": _anomaly_tool(
        "find_rc_mismatch_pairs",
        "rc_mismatch_pairs",
        "Flag stage pairs within each path whose R or C ratio reaches the threshold.",
        (REPORT,),
        (Param("ratio_threshold", "number", doc="Minimum max/min ratio that counts as a mismatch (> 1)."),),
        filtered=True,
    ),
    "eda.find_aggressor_anomalies": _anomaly_tool(
        "find_aggressor_anomalies",
        "aggressor_anomalies",
        "Flag crosstalk trouble per stage: delta vs constraint, or coupling vs wire C.",
        (REPORT,),
        (Param("kind", "string", doc="'constraint' or 'rc'."), Param("threshold", "number", doc="Trigger ratio (> 0).")),
        filtered=True,
    ),
    "eda.find_slowest_stages": _anomaly_tool(
        "find_slowest_stages",
        "slowest_stage_constraints",
        "Report the constraints of the top-k slowest stages across all paths.",
        (REPORT,),
        (Param("top_k", "integer", doc="How many stages to rank (>= 1)."),),
    ),
    "eda.compare_timing_tables": _anomaly_tool(
        "compare_timing_tables",
        "compare_timing_tables",
        "Diff two comparable reports: stage counts, per-stage delays, slacks, orphans.",
        (
            Param("report_a", "string", doc="Document id of the first report."),
            Param("report_b", "string", doc="Document id of the second report."),
        ),
    ),
    "eda.timing_distribution": (
        ToolSpec(
            "timing_distribution",
            "Histogram path slacks per report and pooled, with min/max/mean.",
            (REPORTS, Param("bin_width", "number", doc="Bin width in ns (> 0)."), SAVE_AS),
        ),
        _h_timing_distribution,
    ),
    "eda.timing_metric_compare": (
        ToolSpec(
            "timing_metric_compare",
            "Tabulate wns/tns/failing-path-count per (corner, mode) and name the worst.",
            (REPORTS, Param("metric", "string", doc="'wns', 'tns', or 'failing_path_count'."), SAVE_AS),
        ),
        _h_timing_metric_compare,
    ),
}
