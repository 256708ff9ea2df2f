"""Timing-analysis domain layer: report format, anomaly checks, metrics,
fixture generation, and the tool pack that exposes them to agents."""
