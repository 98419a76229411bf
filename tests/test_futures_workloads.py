"""End-to-end determinism tests for the futures workloads."""

import pytest

from repro.chaos import get_plan
from repro.futures.workloads import _Sim, run_wordcount
from repro.telemetry.export import round_floats

#: Loss-curve minimum of the sweep scenario below.
SWEEP_TARGET = 2.37


def run_sweep(seed=7, points=24, span=4.0):
    """A parallel parameter sweep over the executor's public API.

    One call per grid point, each drawing noise from its own RNG stream
    (so a result does not depend on completion order), then a
    one-call ``map`` selection step.
    """
    sim = _Sim(seed, speculate=False)
    grid = [{"index": index, "x": round(index * span / (points - 1), 9)}
            for index in range(points)]

    def evaluate(context, point):
        yield context.compute(0.05 + 0.01 * (point["index"] % 5))
        stream = sim.rng.stream(f"futures.sweep.{point['index']}")
        loss = (point["x"] - SWEEP_TARGET) ** 2 \
            + float(stream.normal(0.0, 0.05))
        return {"index": point["index"], "x": point["x"],
                "loss": round(loss, 9)}

    def select_best(context, results):
        yield context.compute(0.001 * len(results))
        return min(results, key=lambda entry: (entry["loss"],
                                               entry["index"]))

    def scenario():
        results = yield from sim.executor.get_result(
            sim.executor.map(evaluate, grid))
        best = yield from sim.executor.get_result(
            sim.executor.map(select_best, [results])[0])
        return {"results": results, "best": best}

    value = sim.run(scenario())
    outcome = {
        "points": points,
        "best": value["best"],
        "losses": [entry["loss"] for entry in value["results"]],
        "states": sim.executor.summary()["states"],
        "runtime_s": sim.env.now,
    }
    outcome.update(sim.costs())
    return round_floats(outcome)


class TestWordcount:
    def test_acceptance_scale_is_deterministic(self):
        # The acceptance criterion: >= 64 chunks, byte-identical outcome
        # across two same-seed runs, per-future costs reconciling with
        # the pricing-catalog total.
        first = run_wordcount(seed=7)
        second = run_wordcount(seed=7)
        assert first == second
        assert first["chunks"] >= 64
        assert first["map_calls"] == first["chunks"]
        assert first["cost_check"] == "ok"
        assert first["states"] == {"pending": 0, "running": 0,
                                   "success": first["chunks"] + 1,
                                   "error": 0}
        assert first["records"] == 16 * 256  # every record counted once

    @pytest.mark.parametrize("chunks", [0, -4, 3])
    def test_chunks_must_split_each_object_evenly(self, chunks):
        with pytest.raises(ValueError, match="chunks_per_object"):
            run_wordcount(chunks_per_object=chunks)

    @pytest.mark.parametrize("objects", [0, -3])
    def test_the_corpus_must_have_an_object(self, objects):
        with pytest.raises(ValueError, match="objects must be positive"):
            run_wordcount(objects=objects)

    def test_different_seed_changes_outcome(self):
        assert run_wordcount(seed=7, objects=4)["digest"] \
            != run_wordcount(seed=8, objects=4)["digest"]

    def test_chaos_plan_is_absorbed_and_deterministic(self):
        plan = get_plan("futures-chaos")
        first = run_wordcount(seed=7, objects=8, plan=plan)
        second = run_wordcount(seed=7, objects=8, plan=plan)
        assert first == second
        assert sum(first["faults"].values()) > 0
        # Injected faults were recovered: every call still succeeded,
        # and the cost audit still reconciles (retries billed on both
        # sides).
        assert first["states"]["error"] == 0
        assert first["states"]["success"] == first["chunks"] + 1
        assert first["cost_check"] == "ok"

    def test_chaos_costs_more_than_fault_free(self):
        plan = get_plan("futures-chaos")
        clean = run_wordcount(seed=7, objects=8)
        chaotic = run_wordcount(seed=7, objects=8, plan=plan)
        if chaotic["retries"] > 0:
            assert chaotic["total_cost_usd"] > clean["total_cost_usd"]

    def test_speculation_under_chaos_is_deterministic(self):
        plan = get_plan("futures-chaos")
        first = run_wordcount(seed=7, objects=8, plan=plan,
                              speculate=True)
        second = run_wordcount(seed=7, objects=8, plan=plan,
                               speculate=True)
        assert first == second
        # Every speculative duplicate either won (the original became
        # the zombie) or lost (the duplicate did); both sides were
        # billed and drained before the cost audit, so it reconciles.
        assert first["cost_check"] == "ok"


class TestSweep:
    def test_sweep_is_deterministic(self):
        first = run_sweep(seed=7, points=12)
        second = run_sweep(seed=7, points=12)
        assert first == second
        assert first["states"]["error"] == 0
        assert first["cost_check"] == "ok"

    def test_best_is_argmin_of_losses(self):
        outcome = run_sweep(seed=7, points=12)
        assert outcome["best"]["loss"] == min(outcome["losses"])

    def test_sweep_losses_bracket_the_target_minimum(self):
        # The loss curve is a noisy quadratic around SWEEP_TARGET; the
        # best grid point should land near it.
        outcome = run_sweep(seed=7, points=24, span=4.0)
        assert abs(outcome["best"]["x"] - SWEEP_TARGET) < 0.5
