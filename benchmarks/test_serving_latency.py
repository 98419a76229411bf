"""Benchmark: serving latency and cost for a Poisson tenant mix.

The serving-layer counterpart of the paper's economics: the 3-tenant
mix (interactive / analytics / batch) runs at three arrival-rate scales
against a concurrency-governed platform, under weighted fair share.
Reported per tenant and rate: p50/p95/p99 end-to-end latency, mean
queue wait, shed count, SLO attainment, and cost per query — the SLO
numbers an operator of a multi-tenant Skyrise deployment would watch.
"""

import math

from conftest import save_artifact
from repro.core import format_table
from repro.serve import default_tenant_mix, run_serving_workload

WINDOW_S = 300.0
SEED = 2
#: One query admitted at a time: saturation sets in as rates scale.
MAX_QUERIES = 1
RATE_SCALES = (1.0, 4.0, 8.0)


def run_experiment():
    outcomes = {}
    for scale in RATE_SCALES:
        outcomes[scale] = run_serving_workload(
            default_tenant_mix(rate_scale=scale), policy="fair",
            window_s=WINDOW_S, seed=SEED,
            max_concurrent_queries=MAX_QUERIES)
    return outcomes


def test_serving_latency(benchmark):
    outcomes = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for scale, outcome in outcomes.items():
        for name, report in outcome.reports.items():
            cpq = report.cost_per_query
            rows.append([
                f"{scale:.0f}x", name, report.offered, report.completed,
                report.shed, f"{report.latency_p50:.2f}",
                f"{report.latency_p95:.2f}", f"{report.latency_p99:.2f}",
                f"{report.mean_queue_wait:.2f}",
                f"{report.slo_attainment * 100:.0f}%",
                "inf" if math.isinf(cpq) else f"{cpq * 100:.3f}"])
    table = format_table(
        ["Rate", "Tenant", "Offered", "Done", "Shed", "p50 [s]",
         "p95 [s]", "p99 [s]", "Wait [s]", "SLO", "¢/query"], rows,
        title=(f"Multi-tenant serving latency (fair share, window "
               f"{WINDOW_S:.0f}s, {MAX_QUERIES} concurrent quer"
               f"{'y' if MAX_QUERIES == 1 else 'ies'})"))
    save_artifact("serving_latency", table)
    # Canonical JSON companion artifact (shared writer, byte-stable).
    save_artifact("serving_latency_high_rate",
                  outcomes[RATE_SCALES[-1]].to_json())

    low, high = outcomes[RATE_SCALES[0]], outcomes[RATE_SCALES[-1]]
    # Offered load actually scales with the rate knob.
    assert high.total_offered > 4 * low.total_offered
    # Saturation: the batch tenant's p95 latency degrades with load...
    assert (high.reports["batch"].latency_p95
            > low.reports["batch"].latency_p95)
    # ...and overload sheds traffic that an idle system would serve.
    assert low.total_shed == 0
    assert high.total_shed > 0
    # Fair share shields the interactive tenant: its SLO holds at every
    # rate even as the batch tenant's collapses at the highest one.
    for outcome in outcomes.values():
        assert outcome.reports["interactive"].slo_attainment >= 0.95
    assert high.reports["batch"].slo_attainment < 0.8
    # Cost per served query stays finite and positive wherever traffic
    # was served.
    for outcome in outcomes.values():
        for report in outcome.reports.values():
            if report.completed:
                assert 0.0 < report.cost_per_query < math.inf
    # The governor never exceeds its cap.
    assert all(o.peak_concurrent_queries <= MAX_QUERIES
               for o in outcomes.values())


def test_serving_is_deterministic(benchmark):
    """Fixed seed -> identical serving metrics, per the acceptance bar."""

    def run_twice():
        mix = default_tenant_mix(rate_scale=2.0)
        return [run_serving_workload(mix, policy="fair", window_s=120.0,
                                     seed=SEED,
                                     max_concurrent_queries=2).summary()
                for _ in range(2)]

    first, second = benchmark.pedantic(run_twice, rounds=1, iterations=1)
    assert first == second


def test_priority_tenant_prefers_fair_share(benchmark):
    """Same overload trace: fair share beats FIFO for the premium tenant."""

    def run_pair():
        results = {}
        for policy in ("fifo", "fair"):
            results[policy] = run_serving_workload(
                default_tenant_mix(rate_scale=8.0), policy=policy,
                window_s=WINDOW_S, seed=SEED,
                max_concurrent_queries=MAX_QUERIES)
        return results

    results = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    fifo = results["fifo"].reports["interactive"]
    fair = results["fair"].reports["interactive"]
    assert fair.latency_p99 < fifo.latency_p99
    assert fair.slo_attainment >= fifo.slo_attainment
