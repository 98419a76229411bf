"""Perf-refactor equivalence: optimized hot paths change no simulated outcome.

PR 5 rewires the simulator's hot paths (kernel fast path, incremental
max-min fabric, columnar chunk cache). These tests pin the *simulated*
results to goldens generated before the optimization: byte-identical
canonical JSON for the Q6 telemetry artifacts, the chaos resilience
report, and a serving-window outcome. Only real (wall-clock) time is
allowed to change.

Regenerate after an *intentional* model change::

    PYTHONPATH=src python tests/golden/regen_perf_goldens.py

The literal pins at the bottom are the four small-input outcomes no
golden file and no ledger pin covers: Q12 under an outage (the only pin
on the shuffle + retry/hedge path), the futures wordcount, a 64-worker
Q6 burst, and a 120 s serving window under both policies.
"""

import hashlib
from pathlib import Path

import pytest
from tests.test_telemetry_export import record_q6

from repro.chaos.runner import run_chaos_suite
from repro.core import CloudSim
from repro.datagen import load_table, scaled_spec
from repro.engine import SkyriseEngine
from repro.engine.queries import tpch_q6
from repro.futures.workloads import run_wordcount
from repro.serve import default_tenant_mix, run_serving_workload
from repro.telemetry import canonical_json, metrics_snapshot
from repro.workloads.suite import SuiteSetup

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN_HINT = ("golden file missing; generate with "
              "PYTHONPATH=src python tests/golden/regen_perf_goldens.py")


def _golden(name: str) -> str:
    path = GOLDEN_DIR / name
    assert path.exists(), REGEN_HINT
    return path.read_text()


def test_q6_metrics_snapshot_matches_golden():
    _, recorder = record_q6()
    snapshot = canonical_json(metrics_snapshot(recorder)) + "\n"
    assert snapshot == _golden("tpch_q6_metrics.json")


def test_smoke_resilience_report_matches_golden():
    report = run_chaos_suite("smoke", queries=("tpch-q6",), repeats=2,
                             seed=0, baseline=False)
    assert report.to_json() + "\n" == _golden("smoke_resilience.json")


def test_serving_outcome_matches_golden():
    outcome = run_serving_workload(
        default_tenant_mix(rate_scale=6.0), policy="fair", window_s=180.0,
        seed=1, max_concurrent_queries=1)
    assert outcome.to_json() + "\n" == _golden("serving_fair_180s.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_chaos_q12_outage_outcome_is_pinned():
    report = run_chaos_suite(
        "demo-outage", queries=("tpch-q12",), repeats=2, seed=0,
        plan_kwargs={"lineitem_fragments": 12, "orders_fragments": 6,
                     "join_fragments": 8},
        setup=SuiteSetup(lineitem_partitions=12, orders_partitions=6,
                         rows_per_partition=96, queries=("tpch-q12",)))
    assert report.goodput == 1.0
    assert report.unrecovered == 0
    assert _digest(report.to_json()) == "9b4adb869d5cc44a"


def test_futures_wordcount_outcome_is_pinned():
    outcome = run_wordcount(seed=7, objects=16, chunks_per_object=4)
    pinned = {"chunks": 64, "records": 4096, "cost_check": "ok",
              "runtime_s": 3.239559874, "total_cost_usd": 0.000166603,
              "digest": "dd50c434ca670857"}
    assert {name: outcome[name] for name in pinned} == pinned


def test_q6_burst_at_64_workers_is_pinned():
    sim = CloudSim(seed=14)
    s3 = sim.s3()
    metadata = sim.run(load_table(
        sim.env, s3, scaled_spec("lineitem", 64, rows_per_partition=16)))
    engine = SkyriseEngine(sim.env, sim.platform, storage={"s3-standard": s3})
    engine.register_table(metadata)
    engine.deploy()
    events_before = sim.env.scheduled_events
    result = sim.run(engine.run_query(tpch_q6(scan_fragments=64)))
    assert sim.env.scheduled_events - events_before == 2205
    assert result.requests == 193
    assert round(result.runtime, 9) == 3.45129652
    assert round(result.cost_cents, 9) == 0.404902673
    assert len(result.batch) == 1


@pytest.mark.parametrize("policy, completed, shed, cost_usd, digest", [
    ("fifo", 86, 13, 0.025475421, "ea8adb1f9b1ae0ba"),
    ("fair", 75, 24, 0.022823874, "c3821ce6828ca860"),
], ids=("fifo", "fair"))
def test_serving_window_120s_is_pinned(policy, completed, shed, cost_usd,
                                       digest):
    outcome = run_serving_workload(
        default_tenant_mix(rate_scale=6.0), policy=policy, window_s=120.0,
        seed=1, max_concurrent_queries=1)
    assert outcome.total_completed == completed
    assert outcome.total_shed == shed
    assert round(outcome.total_cost_usd, 9) == cost_usd
    assert _digest(outcome.to_json()) == digest
