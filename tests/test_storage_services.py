"""Unit tests for the storage service simulators."""

import pytest

from repro import units
from repro.network import Fabric
from repro.sim import Environment, RandomStreams
from repro.storage import (
    DynamoDB,
    EFS,
    ItemTooLarge,
    NoSuchKey,
    RequestType,
    S3Express,
    S3Standard,
    SlowDown,
    Throttled,
)


@pytest.fixture
def stack():
    env = Environment()
    fabric = Fabric(env)
    rng = RandomStreams(seed=42)
    return env, fabric, rng


def run_process(env, gen):
    proc = env.process(gen)
    env.run(until=proc)
    return proc.value


class TestPutGetRoundtrip:
    @pytest.mark.parametrize("service_cls", [S3Standard, S3Express, DynamoDB, EFS])
    def test_roundtrip_payload(self, stack, service_cls):
        env, fabric, rng = stack
        service = service_cls(env, fabric, rng)
        run_process(env, service.put("key/a", b"hello"))
        obj = run_process(env, service.get_range("key/a", 0, 5))
        assert obj.payload == b"hello"
        assert obj.size == 5

    def test_get_missing_raises(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)

        def attempt(env):
            try:
                yield from s3.get_range("nope", 0, 1)
            except NoSuchKey:
                return "missing"

        assert run_process(env, attempt(env)) == "missing"

    def test_logical_size_override(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        run_process(env, s3.put("big", b"tiny", size=64 * units.MiB))
        obj = s3.head("big")
        assert obj.size == 64 * units.MiB

    def test_put_overwrites_and_bumps_version(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        run_process(env, s3.put("k", b"v1"))
        run_process(env, s3.put("k", b"v2"))
        obj = s3.head("k")
        assert obj.payload == b"v2"
        assert obj.version == 1

    def test_delete_and_exists(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        run_process(env, s3.put("k", b"v"))
        assert s3.exists("k")
        del s3._objects["k"]  # the service models no delete request
        assert not s3.exists("k")

    def test_list_keys_prefix_filter(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        for key in ("data/part-0", "data/part-1", "logs/x"):
            run_process(env, s3.put(key, b"v"))
        assert s3.list_keys("data/") == ["data/part-0", "data/part-1"]

    def test_request_latency_elapses(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        run_process(env, s3.put("k", b"v"))
        t0 = env.now
        run_process(env, s3.get_range("k", 0, 1))
        assert env.now - t0 > 0.005  # at least a few ms of request latency


class TestItemLimits:
    def test_dynamodb_rejects_items_over_400kib(self, stack):
        env, fabric, rng = stack
        ddb = DynamoDB(env, fabric, rng)

        def attempt(env):
            try:
                yield from ddb.put("big", b"", size=500 * units.KiB)
            except ItemTooLarge:
                return "rejected"

        assert run_process(env, attempt(env)) == "rejected"

    def test_dynamodb_accepts_max_item(self, stack):
        env, fabric, rng = stack
        ddb = DynamoDB(env, fabric, rng)
        run_process(env, ddb.put("max", b"", size=400 * units.KiB))
        assert ddb.exists("max")


class TestDiscreteAdmission:
    def test_s3_throttles_when_partition_tokens_exhausted(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        run_process(env, s3.put("k", b"v"))
        # A fresh partition holds one second of quota in tokens; an
        # instantaneous spike of admissions drains them, after which the
        # next request at the same instant is rejected with SlowDown.
        partition = s3.partitions.partition_for("k")
        admitted = 0
        while s3.partitions.try_admit("k", is_read=True, now=env.now):
            admitted += 1
        assert admitted == pytest.approx(5_500, abs=1)
        assert partition.read_tokens < 1.0

        def attempt(env):
            try:
                yield from s3.get_range("k", 0, 1)
            except SlowDown:
                return "throttled"

        assert run_process(env, attempt(env)) == "throttled"
        assert s3.stats.total(RequestType.GET, "throttled") == 1

    def test_efs_read_throttles_at_ceiling(self, stack):
        env, fabric, rng = stack
        efs = EFS(env, fabric, rng)
        run_process(env, efs.put("f", b"v"))
        # Drain the read token bucket directly.
        efs._refresh_tokens()
        efs._read_tokens = 0.0

        def attempt(env):
            try:
                yield from efs.get_range("f", 0, 1)
            except Throttled:
                return "throttled"

        assert run_process(env, attempt(env)) == "throttled"


class TestFluidAdmission:
    def test_s3_single_partition_caps_at_quota(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        result = s3.offer_load(read_iops=10_000, write_iops=0, elapsed=1.0)
        assert result.accepted_read == pytest.approx(5_500)
        assert result.rejected_read == pytest.approx(4_500)

    def test_s3_write_iops_capped_at_3500(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        result = s3.offer_load(read_iops=0, write_iops=10_000, elapsed=1.0)
        assert result.accepted_write == pytest.approx(3_500)

    def test_s3_express_admits_up_to_account_iops(self, stack):
        env, fabric, rng = stack
        express = S3Express(env, fabric, rng)
        result = express.offer_load(read_iops=250_000, write_iops=50_000,
                                    elapsed=1.0)
        assert result.accepted_read == pytest.approx(220_000)
        assert result.accepted_write == pytest.approx(42_000)

    def test_dynamodb_fluid_rate_capped_at_quota(self, stack):
        env, fabric, rng = stack
        ddb = DynamoDB(env, fabric, rng)
        result = ddb.offer_load(read_iops=50_000, write_iops=20_000,
                                elapsed=60.0)
        assert result.accepted_read == pytest.approx(16_000)
        assert result.accepted_write == pytest.approx(9_600)

    def test_dynamodb_discrete_burst_absorbs_spikes(self, stack):
        """A fresh table holds 5 minutes of burst tokens (Section 2)."""
        env, fabric, rng = stack
        ddb = DynamoDB(env, fabric, rng)
        # Instantaneously admit far more than one second of quota.
        spike = int(16_000 * 10)
        admitted = 0
        for i in range(spike):
            try:
                ddb._admit_one(RequestType.GET, f"k{i}")
                admitted += 1
            except Exception:
                break
        assert admitted == spike

    def test_efs_read_scales_with_second_filesystem_only(self, stack):
        env, fabric, rng = stack
        one = EFS(env, fabric, rng, filesystem_count=1)
        two = EFS(env, fabric, rng, filesystem_count=2)
        four = EFS(env, fabric, rng, filesystem_count=4)
        r1 = one.offer_load(read_iops=100_000, write_iops=10_000, elapsed=1.0)
        r2 = two.offer_load(read_iops=100_000, write_iops=10_000, elapsed=1.0)
        r4 = four.offer_load(read_iops=100_000, write_iops=10_000, elapsed=1.0)
        assert r2.accepted_read == pytest.approx(2 * r1.accepted_read)
        assert r4.accepted_read == pytest.approx(r2.accepted_read)
        # Writes never scale with sharding.
        assert r2.accepted_write == pytest.approx(r1.accepted_write)

    def test_stats_count_fluid_requests(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        s3.offer_load(read_iops=10_000, write_iops=0, elapsed=2.0)
        assert s3.stats.total(RequestType.GET, "ok") == 11_000
        assert s3.stats.total(RequestType.GET, "throttled") == 9_000


class TestLatencySampling:
    def test_s3_read_latency_distribution_matches_calibration(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        samples = s3.sample_latencies(RequestType.GET, 200_000)
        import numpy as np
        assert np.median(samples) == pytest.approx(0.027, rel=0.05)
        assert np.percentile(samples, 95) == pytest.approx(0.075, rel=0.15)

    def test_express_latency_far_below_standard(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        express = S3Express(env, fabric, rng)
        import numpy as np
        std = np.median(s3.sample_latencies(RequestType.GET, 10_000))
        exp = np.median(express.sample_latencies(RequestType.GET, 10_000))
        assert exp < std / 4

    def test_efs_writes_slower_than_reads(self, stack):
        env, fabric, rng = stack
        efs = EFS(env, fabric, rng)
        import numpy as np
        reads = np.median(efs.sample_latencies(RequestType.GET, 10_000))
        writes = np.median(efs.sample_latencies(RequestType.PUT, 10_000))
        assert 2.0 <= writes / reads <= 3.5


class TestPrewarm:
    def test_prewarm_splits_partitions(self, stack):
        env, fabric, rng = stack
        s3 = S3Standard(env, fabric, rng)
        s3.prewarm(5)
        assert s3.partition_count == 5
        result = s3.offer_load(read_iops=30_000, write_iops=0, elapsed=1.0)
        assert result.accepted_read == pytest.approx(5 * 5_500)
