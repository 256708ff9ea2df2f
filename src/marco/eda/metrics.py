"""Slack distribution and cross-corner metric comparison.

Binning is exact: bin k covers [k*w, (k+1)*w) and k is computed from the
floats' exact integer ratios, so a slack sitting exactly on a boundary always
lands in the upper bin regardless of float rounding. Sums of floats add left
to right, as ``sum`` did before Python 3.12 compensated it, so every supported
Python gives the same bytes.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Sequence

from ..errors import ReportError
from .report import TimingReport

METRICS = ("wns", "tns", "failing_path_count")


def slack_bin(slack: float, bin_width: float) -> int:
    """Index k of the half-open bin [k*w, (k+1)*w) containing the slack:
    floor((n1/d1) / (n2/d2)) over the exact ratios, whose denominators are
    positive. NaN raises ValueError and an infinity OverflowError."""
    n1, d1 = slack.as_integer_ratio()
    n2, d2 = bin_width.as_integer_ratio()
    return (n1 * d2) // (d1 * n2)


def timing_distribution(reports: Sequence[TimingReport], bin_width: float) -> dict:
    """Histogram of path slacks per report plus the pooled histogram.

    Bin counts are keyed by the stringified bin index k; the bin's range is
    [k*bin_width, (k+1)*bin_width). Mean slack is rounded to 1e-9.
    """
    if not bin_width > 0:
        raise ReportError("BAD_BIN_WIDTH", f"bin_width must be > 0, got {bin_width}")
    per_report = []
    pooled: dict[int, int] = {}
    pooled_total = 0
    for report in reports:
        counts: dict[int, int] = {}
        slacks = [path.slack for path in report.paths]
        for slack in slacks:
            k = slack_bin(slack, bin_width)
            counts[k] = counts.get(k, 0) + 1
            pooled[k] = pooled.get(k, 0) + 1
        pooled_total += len(slacks)
        per_report.append(
            {
                "corner": report.corner,
                "mode": report.mode,
                "check": report.check,
                "count": len(slacks),
                "counts": {str(k): counts[k] for k in sorted(counts)},
                "min": min(slacks),
                "max": max(slacks),
                "mean": round(reduce(add, slacks, 0) / len(slacks), 9),
            }
        )
    return {
        "bin_width": bin_width,
        "per_report": per_report,
        "pooled": {
            "count": pooled_total,
            "counts": {str(k): pooled[k] for k in sorted(pooled)},
        },
    }


def timing_metric_compare(reports: Sequence[TimingReport], metric: str) -> dict:
    """Per-(corner, mode) table of wns / tns / failing path count.

    Rows pool every report sharing (corner, mode) and are sorted by that key;
    ``worst`` names the row with the minimum wns/tns or the maximum failing
    count for the requested metric, ties broken by (corner, mode) ascending.
    """
    if not reports:
        raise ValueError("at least one report is required")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")

    groups: dict[tuple[str, str], dict] = {}
    for report in reports:
        key = (report.corner, report.mode)
        group = groups.setdefault(key, {"slacks": [], "checks": set()})
        group["slacks"].extend(path.slack for path in report.paths)
        group["checks"].add(report.check)

    rows = []
    for corner, mode in sorted(groups):
        group = groups[(corner, mode)]
        slacks = group["slacks"]
        negatives = [s for s in slacks if s < 0]
        values = {
            "wns": min(slacks),
            "tns": float(reduce(add, negatives, 0)),
            "failing_path_count": len(negatives),
        }
        rows.append(
            {
                "corner": corner,
                "mode": mode,
                "checks": sorted(group["checks"]),
                "wns": values["wns"],
                "tns": values["tns"],
                "failing_path_count": values["failing_path_count"],
                "value": values[metric],
            }
        )

    if metric == "failing_path_count":
        worst_row = min(rows, key=lambda r: (-r["value"], r["corner"], r["mode"]))
    else:
        worst_row = min(rows, key=lambda r: (r["value"], r["corner"], r["mode"]))
    return {
        "metric": metric,
        "rows": rows,
        "worst": {"corner": worst_row["corner"], "mode": worst_row["mode"], "value": worst_row["value"]},
    }
