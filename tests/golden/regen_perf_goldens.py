"""Regenerate the perf-equivalence goldens (metrics, resilience, serving).

Run after an *intentional* change to the simulated model, then review
the diff::

    PYTHONPATH=src python tests/golden/regen_perf_goldens.py

The trace golden has its own script (``regen_tpch_q6_trace.py``).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent.parent))

from test_telemetry_export import record_q6  # noqa: E402

from repro.chaos.runner import run_chaos_suite  # noqa: E402
from repro.serve import default_tenant_mix, run_serving_workload  # noqa: E402
from repro.telemetry import canonical_json, metrics_snapshot  # noqa: E402

GOLDEN_DIR = Path(__file__).parent


def main() -> None:
    _, recorder = record_q6()
    metrics = GOLDEN_DIR / "tpch_q6_metrics.json"
    metrics.write_text(canonical_json(metrics_snapshot(recorder)) + "\n")
    print(f"wrote {metrics} ({metrics.stat().st_size} bytes)")

    report = run_chaos_suite("smoke", queries=("tpch-q6",), repeats=2,
                             seed=0, baseline=False)
    resilience = GOLDEN_DIR / "smoke_resilience.json"
    resilience.write_text(report.to_json() + "\n")
    print(f"wrote {resilience} ({resilience.stat().st_size} bytes)")

    outcome = run_serving_workload(
        default_tenant_mix(rate_scale=6.0), policy="fair", window_s=180.0,
        seed=1, max_concurrent_queries=1)
    serving = GOLDEN_DIR / "serving_fair_180s.json"
    serving.write_text(outcome.to_json() + "\n")
    print(f"wrote {serving} ({serving.stat().st_size} bytes)")
    report_text = GOLDEN_DIR / "serving_fair_180s.txt"
    report_text.write_text(outcome.format_report() + "\n")
    print(f"wrote {report_text} ({report_text.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
