"""Unit tests for engine internals: barriers, shuffle, I/O stack, plans."""

import numpy as np
import pytest

from repro import units
from repro.engine.barrier import Barrier, BarrierRegistry
from repro.engine.cost import CpuCostModel, DEFAULT_COST_MODEL
from repro.engine.io import IoStack, _chunk_sizes
from repro.engine.plan import (
    PhysicalPlan,
    PipelineSpec,
    ResultSink,
    ShuffleSink,
    ShuffleSource,
    TableSource,
)
from repro.engine.shuffle import ShuffleReader, ShuffleWriter, _hash_partition
from repro.formats.batch import RecordBatch
from repro.formats.schema import DataType, Field, Schema
from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import S3Standard


def make_stack():
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=1)
    s3 = S3Standard(env, fabric, rng)
    endpoint = fabric.endpoint("worker")
    return env, fabric, s3, endpoint


def run(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


def sample_batch(n=100, seed=0):
    rng = np.random.default_rng(seed)
    return RecordBatch(
        Schema([Field("key", DataType.INT64), Field("v", DataType.FLOAT64)]),
        {"key": rng.integers(0, 50, n).astype(np.int64),
         "v": rng.random(n)})


class TestBarrier:
    def test_releases_when_all_arrive(self):
        env = Environment()
        barrier = Barrier(env, parties=3)
        times = []

        def party(env, fragment, delay):
            yield env.timeout(delay)
            yield barrier.arrive(fragment)
            times.append(env.now)

        for fragment, delay in enumerate((1.0, 2.0, 5.0)):
            env.process(party(env, fragment, delay))
        env.run()
        # Everyone released at the moment the last party arrived.
        assert times == [5.0, 5.0, 5.0]

    def test_overrun_detected(self):
        env = Environment()
        barrier = Barrier(env, parties=1)

        def party(env):
            yield barrier.arrive(0)

        env.process(party(env))
        env.run()
        # A late duplicate passes the released barrier; a fragment
        # index beyond the parties is an overrun.
        assert barrier.arrive(0).triggered
        with pytest.raises(ValueError, match="overrun"):
            barrier.arrive(1)

    def test_a_retried_fragment_is_counted_once(self):
        """A fragment that reached the barrier, crashed and was retried
        must not stand in for a fragment that has not arrived yet."""
        env = Environment()
        barrier = Barrier(env, parties=2)
        released = []

        def attempt(env, fragment, delay):
            yield env.timeout(delay)
            yield barrier.arrive(fragment)
            released.append((fragment, env.now))

        env.process(attempt(env, 0, 1.0))
        env.process(attempt(env, 0, 2.0))  # fragment 0's retry
        env.process(attempt(env, 1, 5.0))
        env.run()
        assert released == [(0, 5.0), (0, 5.0), (1, 5.0)]

    def test_parties_validated(self):
        with pytest.raises(ValueError):
            Barrier(Environment(), parties=0)

    def test_registry_creates_and_clears(self):
        env = Environment()
        registry = BarrierRegistry(env)
        a = registry.get("q1", "join", parties=4)
        assert registry.get("q1", "join", parties=4) is a
        with pytest.raises(ValueError, match="parties"):
            registry.get("q1", "join", parties=5)
        registry.clear("q1")
        b = registry.get("q1", "join", parties=5)
        assert b is not a


class TestCostModel:
    def test_cpu_seconds_scales_with_bytes(self):
        model = CpuCostModel()
        one = model.cpu_seconds("decode", units.GiB)
        two = model.cpu_seconds("decode", 2 * units.GiB)
        assert two == pytest.approx(2 * one)
        assert one == pytest.approx(model.decode_per_gib)

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError, match="unknown CPU operation"):
            DEFAULT_COST_MODEL.cpu_seconds("teleport", 1.0)

    def test_all_operator_cost_classes_priced(self):
        for op in ("decode", "scan", "filter", "project", "aggregate",
                   "join", "sort", "udf", "encode"):
            assert DEFAULT_COST_MODEL.cpu_seconds(op, units.GiB) > 0


class TestChunking:
    def test_chunk_sizes_cover_total(self):
        sizes = _chunk_sizes(150 * units.MiB, 64 * units.MiB)
        assert len(sizes) == 3
        assert sum(sizes) == pytest.approx(150 * units.MiB)
        assert sizes[-1] == pytest.approx(22 * units.MiB)

    def test_zero_total_still_costs_a_request(self):
        assert _chunk_sizes(0, 64 * units.MiB) == [1.0]

    def test_io_stack_validation(self):
        env, fabric, s3, endpoint = make_stack()
        with pytest.raises(ValueError):
            IoStack(env, s3, endpoint, chunk_bytes=0)
        with pytest.raises(ValueError):
            IoStack(env, s3, endpoint, concurrency=0)

    def test_read_object_counts_chunk_requests(self):
        env, fabric, s3, endpoint = make_stack()
        run(env, s3.put("big", b"payload", size=150 * units.MiB))
        io = IoStack(env, s3, endpoint, chunk_bytes=64 * units.MiB)
        run(env, io.read_object("big"))
        assert io.stats.requests == 3
        assert io.stats.read_requests == 3
        assert io.stats.bytes_read == pytest.approx(150 * units.MiB)

    def test_logical_override_controls_request_count(self):
        env, fabric, s3, endpoint = make_stack()
        run(env, s3.put("obj", b"x", size=300 * units.MiB))
        io = IoStack(env, s3, endpoint, chunk_bytes=64 * units.MiB)
        # Read only a 40 MiB projection: a single range request.
        run(env, io.read_object("obj", logical_bytes=40 * units.MiB))
        assert io.stats.requests == 1

    def test_write_object_records_stats(self):
        env, fabric, s3, endpoint = make_stack()
        io = IoStack(env, s3, endpoint)
        run(env, io.write_object("out", b"data", logical_bytes=units.MiB))
        assert io.stats.write_requests == 1
        assert io.stats.bytes_written == pytest.approx(units.MiB)
        assert s3.exists("out")

    def test_throttled_chunks_are_retried_to_success(self):
        env, fabric, s3, endpoint = make_stack()
        run(env, s3.put("k", b"v", size=units.KiB))
        # Drain the partition tokens: the first attempts throttle, then
        # the bucket refills (5,500/s) and the retry succeeds.
        partition = s3.partitions.partition_for("k")
        partition.refresh_tokens(env.now)
        partition.read_tokens = 0.0
        io = IoStack(env, s3, endpoint)
        run(env, io.read_object("k", logical_bytes=units.KiB))
        assert io.stats.retried >= 1
        assert io.stats.bytes_read == pytest.approx(units.KiB)


class TestShuffle:
    def test_hash_partition_stable_and_in_range(self):
        keys = np.array([1, 2, 3, 1, 2, 3], dtype=np.int64)
        first = _hash_partition(keys, 4)
        second = _hash_partition(keys, 4)
        np.testing.assert_array_equal(first, second)
        assert first.min() >= 0 and first.max() < 4
        # Equal keys land in equal partitions.
        assert first[0] == first[3]

    def test_string_keys_supported(self):
        keys = np.array(["MAIL", "SHIP", "MAIL"], dtype=object)
        assignment = _hash_partition(keys, 8)
        assert assignment[0] == assignment[2]

    def test_write_then_read_roundtrip(self):
        env, fabric, s3, endpoint = make_stack()
        io = IoStack(env, s3, endpoint)
        batch = sample_batch(200)
        writer = ShuffleWriter(io, "q", "pipe", fragment=0,
                               partition_key="key", partitions=4)
        run(env, writer.write(batch))
        pieces = []
        for partition in range(4):
            reader = ShuffleReader(io, "q", "pipe", producer_fragments=1,
                                   partition=partition)
            pieces.append(run(env, reader.read()))
        total = sum(p.num_rows for p in pieces)
        assert total == 200
        # Each key's rows all land in one partition.
        for piece in pieces:
            for key in set(piece.column("key")):
                others = [p for p in pieces if p is not piece
                          and key in set(p.column("key"))]
                assert not others

    def test_multiple_producers_concatenate(self):
        env, fabric, s3, endpoint = make_stack()
        io = IoStack(env, s3, endpoint)
        for fragment in range(3):
            writer = ShuffleWriter(io, "q", "pipe", fragment=fragment,
                                   partition_key="key", partitions=2)
            run(env, writer.write(sample_batch(100, seed=fragment)))
        reader = ShuffleReader(io, "q", "pipe", producer_fragments=3,
                               partition=0)
        merged = run(env, reader.read())
        assert merged.num_rows > 0
        # 3 producers -> 3 slice requests (plus the 3 write requests).
        assert io.stats.read_requests == 3

    def test_empty_batch_produces_empty_partitions(self):
        env, fabric, s3, endpoint = make_stack()
        io = IoStack(env, s3, endpoint)
        writer = ShuffleWriter(io, "q", "pipe", fragment=0,
                               partition_key="key", partitions=3)
        run(env, writer.write(sample_batch(0)))
        reader = ShuffleReader(io, "q", "pipe", producer_fragments=1,
                               partition=1)
        piece = run(env, reader.read())
        assert piece.num_rows == 0

    def test_none_partition_key_routes_to_partition_zero(self):
        env, fabric, s3, endpoint = make_stack()
        io = IoStack(env, s3, endpoint)
        writer = ShuffleWriter(io, "q", "pipe", fragment=0,
                               partition_key=None, partitions=1)
        slices = writer.partition_batch(sample_batch(50))
        assert slices[0].rows == 50

    def test_invalid_parameters_rejected(self):
        env, fabric, s3, endpoint = make_stack()
        io = IoStack(env, s3, endpoint)
        with pytest.raises(ValueError):
            ShuffleWriter(io, "q", "p", 0, "key", partitions=0)
        with pytest.raises(ValueError):
            ShuffleReader(io, "q", "p", 1, 0, concurrency=0)
        reader = ShuffleReader(io, "q", "p", producer_fragments=0,
                               partition=0)
        with pytest.raises(ValueError, match="zero producers"):
            run(env, reader.read())


class TestPlans:
    def make_plan(self):
        scan = PipelineSpec(
            id="scan",
            source=TableSource(table="t", columns=["a"]),
            sink=ShuffleSink(partition_key="a"))
        final = PipelineSpec(
            id="final",
            source=ShuffleSource(inputs={"main": "scan"}, main="main"),
            sink=ResultSink(), depends_on=["scan"], fragments=1)
        return PhysicalPlan(query_id="q", pipelines=[scan, final])

    def test_duplicate_pipeline_ids_rejected(self):
        scan = PipelineSpec(id="x", source=TableSource("t", ["a"]))
        with pytest.raises(ValueError, match="duplicate"):
            PhysicalPlan(query_id="q", pipelines=[scan, scan])

    def test_unknown_dependency_rejected(self):
        bad = PipelineSpec(id="x", source=TableSource("t", ["a"]),
                           depends_on=["ghost"])
        with pytest.raises(ValueError, match="unknown pipeline"):
            PhysicalPlan(query_id="q", pipelines=[bad])

    def test_stage_ordering_respects_dependencies(self):
        plan = self.make_plan()
        stages = plan.stages()
        assert [p.id for stage in stages for p in stage] == ["scan", "final"]

    def test_cycle_detected(self):
        a = PipelineSpec(id="a", source=TableSource("t", ["x"]),
                         depends_on=["b"])
        b = PipelineSpec(id="b", source=TableSource("t", ["x"]),
                         depends_on=["a"], sink=ResultSink())
        plan = PhysicalPlan.__new__(PhysicalPlan)
        plan.query_id = "q"
        plan.pipelines = [a, b]
        with pytest.raises(ValueError, match="cyclic"):
            plan.stages()

    def test_final_pipeline_uniqueness_enforced(self):
        scan = PipelineSpec(id="scan", source=TableSource("t", ["a"]),
                            sink=ResultSink())
        final = PipelineSpec(id="final", source=TableSource("t", ["a"]),
                             sink=ResultSink())
        plan = PhysicalPlan(query_id="q", pipelines=[scan, final])
        with pytest.raises(ValueError, match="exactly one"):
            _ = plan.final_pipeline

    def test_pipeline_lookup(self):
        plan = self.make_plan()
        assert plan.pipeline("scan").id == "scan"
        with pytest.raises(KeyError):
            plan.pipeline("ghost")
