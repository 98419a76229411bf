"""End-to-end futures workloads, runnable as deterministic scenarios.

:func:`run_wordcount` exercises the subsystem the way the paper's
evaluation drives Lambda over S3 (and the way Lambada-style systems
drive serverless scans): a **map-reduce aggregation** over a
partitioned S3 prefix. A seeded corpus of fixed-width records is
written to object storage, split into byte-range chunks by the
partitioner, counted per chunk by mapper functions (ranged GETs
through the retrying client plus CPU work), and merged by one reducer.

It returns a JSON-ready outcome dict plus a short digest of its
canonical serialization — two runs with the same seed (and fault plan)
are byte-identical, which is what the acceptance criterion, the pinned
tier-1 outcome, and the CI smoke job all check. Per-future costs are
audited against the pricing-catalog total on every run (``cost_check``).
"""

from __future__ import annotations

import hashlib
import math

from repro import units
from repro.chaos.injector import FaultInjector
from repro.faas.platform import LambdaPlatform
from repro.faas.supervisor import RecoveryPolicy
from repro.futures.executor import FunctionExecutor
from repro.futures.partitioner import partition_prefix
from repro.network import Fabric
from repro.pricing.calculator import CostCalculator
from repro.sim import Environment, RandomStreams
from repro.storage import RetryingClient, S3Standard
from repro.telemetry.export import canonical_json, round_floats

#: Fixed record width of the wordcount corpus: a word padded with dots
#: plus a newline, so byte-range chunks align on record boundaries.
RECORD_BYTES = 16

#: Records in each corpus object.
RECORDS_PER_OBJECT = 256

#: Wordcount vocabulary (longest entry must fit RECORD_BYTES - 1).
VOCAB = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
         "golf", "hotel", "india", "juliet", "kilo", "lima")

#: CPU seconds a mapper spends per MiB scanned (counting is cheap).
CPU_S_PER_MIB = 0.02

def _digest(outcome: dict) -> str:
    """Short content digest of an outcome's canonical serialization."""
    return hashlib.sha256(
        canonical_json(outcome).encode("utf-8")).hexdigest()[:16]


def _cost_check(compute_usd: float, catalog_usd: float) -> str:
    """Audit the per-future cost sum against the catalog total.

    Both sides apply the identical pricing formula per attempt, so they
    differ only by float summation order — compared with a tight
    relative tolerance, never exact equality.
    """
    ok = math.isclose(compute_usd, catalog_usd, rel_tol=1e-9, abs_tol=1e-15)
    return "ok" if ok else "mismatch"


class _Sim:
    """One simulation stack: env, fabric, platform, S3, executor."""

    def __init__(self, seed: int, speculate: bool, plan=None) -> None:
        self.env = Environment()
        self.fabric = Fabric(self.env)
        self.rng = RandomStreams(seed=seed)
        self.platform = LambdaPlatform(self.env, self.fabric, self.rng)
        self.s3 = S3Standard(self.env, self.fabric, self.rng)
        self.executor = FunctionExecutor(
            self.env, self.platform, self.rng,
            recovery=RecoveryPolicy(hedge=speculate))
        self.injector = None
        if plan is not None:
            self.injector = FaultInjector(plan, self.rng)
            self.injector.install(platform=self.platform,
                                  services=(self.s3,))

    def run(self, scenario):
        """Drive ``scenario`` (a generator) to completion; returns its value."""
        process = self.env.process(scenario, name="workload")
        self.env.run(until=process)
        return process.value

    def costs(self) -> dict:
        """Itemized workload cost: compute (two views) plus storage."""
        compute = self.executor.compute_cost_usd()
        catalog = self.executor.catalog_cost_usd()
        storage = CostCalculator()
        storage.add_storage_requests(self.s3.name, self.s3.stats)
        storage_usd = storage.cost.total
        return {
            "compute_cost_usd": compute,
            "catalog_cost_usd": catalog,
            "storage_cost_usd": storage_usd,
            "total_cost_usd": catalog + storage_usd,
            "cost_check": _cost_check(compute, catalog),
        }


# -- map-reduce wordcount ------------------------------------------------------


def _record(word: str) -> str:
    return word + "." * (RECORD_BYTES - 1 - len(word)) + "\n"


def _seed_corpus(sim: _Sim, prefix: str, objects: int):
    """Process: write the seeded fixed-width corpus under ``prefix``."""
    stream = sim.rng.stream("futures.corpus")
    for index in range(objects):
        draws = stream.integers(0, len(VOCAB), size=RECORDS_PER_OBJECT)
        payload = "".join(_record(VOCAB[int(draw)]) for draw in draws)
        yield from sim.s3.put(f"{prefix}part-{index:05d}", payload)


def make_word_counter(env, service):
    """Build the mapper: ranged read of one chunk, then count words."""

    def count_words(context, chunk):
        client = RetryingClient(env, service, endpoint=context.endpoint)
        obj = yield from client.get_range(chunk.key, chunk.offset,
                                          chunk.length)
        yield context.compute(CPU_S_PER_MIB * obj.size / units.MiB)
        counts: dict[str, int] = {}
        for record in obj.payload.splitlines():
            word = record.rstrip(".")
            counts[word] = counts.get(word, 0) + 1
        return counts

    return count_words


def merge_counts(context, results):
    """The reducer: merge per-chunk counts (submission order), rank words."""
    yield context.compute(0.001 * max(1, len(results)))
    total: dict[str, int] = {}
    for counts in results:
        for word, count in counts.items():
            total[word] = total.get(word, 0) + count
    top = sorted(total.items(), key=lambda item: (-item[1], item[0]))[:10]
    return {
        "top": [[word, int(count)] for word, count in top],
        "records": int(sum(total.values())),
        "distinct_words": len(total),
    }


def run_wordcount(seed: int = 7, objects: int = 16,
                  chunks_per_object: int = 4,
                  plan=None, speculate: bool = False) -> dict:
    """Map-reduce wordcount over a partitioned S3 prefix.

    The default sizing partitions ``16`` objects x ``4`` byte-range
    chunks = 64 mapper calls — the acceptance-criterion scale. Returns
    the outcome dict (with ``digest``).
    """
    if objects < 1:
        raise ValueError(f"objects must be positive, got {objects}")
    if chunks_per_object < 1 or RECORDS_PER_OBJECT % chunks_per_object:
        raise ValueError(
            "chunks_per_object must be a positive divisor of "
            f"{RECORDS_PER_OBJECT}, got {chunks_per_object}")
    sim = _Sim(seed, speculate, plan=plan)
    prefix = "corpus/"
    chunk_bytes = RECORDS_PER_OBJECT // chunks_per_object * RECORD_BYTES

    def scenario():
        yield from _seed_corpus(sim, prefix, objects)
        chunks = partition_prefix(sim.s3, prefix, chunk_bytes=chunk_bytes,
                                  align_bytes=RECORD_BYTES)
        started_at = sim.env.now
        reduce_future = sim.executor.map_reduce(
            make_word_counter(sim.env, sim.s3), chunks, merge_counts)
        result = yield from sim.executor.get_result(reduce_future)
        yield from sim.executor.drain()
        return {"chunks": len(chunks), "started_at": started_at,
                "result": result, "reduce_future": reduce_future}

    value = sim.run(scenario())
    summary = sim.executor.summary()
    outcome = {
        "workload": "wordcount",
        "seed": seed,
        "objects": objects,
        "chunks": value["chunks"],
        "records": value["result"]["records"],
        "distinct_words": value["result"]["distinct_words"],
        "top": value["result"]["top"],
        "map_calls": len(value["reduce_future"].map_futures),
        "states": summary["states"],
        "retries": summary["invoker"]["retries"],
        "speculations": summary["invoker"]["speculations"],
        "zombies_drained": summary["invoker"]["zombies_drained"],
        "inflight_peak": summary["invoker"]["inflight_peak"],
        "faults": (sim.injector.fault_counts
                   if sim.injector is not None else {}),
        "runtime_s": sim.env.now - value["started_at"],
    }
    outcome.update(sim.costs())
    outcome = round_floats(outcome)
    outcome["digest"] = _digest(outcome)
    return outcome
