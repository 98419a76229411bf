"""S3 prefix-partition dynamics: IOPS admission, splitting, merging.

Section 4.4 of the paper characterizes S3's object-key namespace as
horizontally partitioned into prefix partitions, each serving ~5.5K read
and ~3.5K write IOPS. Under sustained near-quota load, partitions split
(gradually — the paper observes one partition roughly every ~6.5 minutes,
1 -> 5 partitions over ~26 minutes of ramping load). After extended idle,
partitions merge back: all five survive a full day of no load, two survive
three more days, and IOPS returns to single-partition level after ~4.5–5
days.

The model here:

* a :class:`PartitionTree` over the key hash space; each leaf is a
  :class:`Partition` with independent read/write token-bucket admission;
* each partition accrues *heat* while its offered read load sustains above
  a utilization threshold; when heat crosses ``SPLIT_AFTER_S`` seconds, the
  partition splits in two and both children restart cold;
* each partition tracks its last-busy time; a background check merges the
  tree stepwise after ``FIRST_MERGE_IDLE_S`` and fully after
  ``FULL_MERGE_IDLE_S`` of idleness (loads below a floor do not count as
  busy, so the hourly/daily probes of Figure 13 do not keep the bucket
  warm).
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

#: Documented per-prefix-partition request rates (requests/second) [34].
READ_IOPS_PER_PARTITION = 5_500.0
WRITE_IOPS_PER_PARTITION = 3_500.0

#: A partition must sustain >= this fraction of its read quota to heat up.
SPLIT_UTILIZATION_THRESHOLD = 0.90

#: Sustained-overload seconds required before a partition splits. With a
#: linearly ramping load this yields the ~26 min 1 -> 5 staircase of
#: Figure 11.
SPLIT_AFTER_S = 390.0

#: Minimum time between two splits anywhere in the bucket. S3 "only
#: allocates resources linearly and with delay as a form of admission
#: control" (Section 4.4.1) — overload never fans out into a splitting
#: cascade.
MIN_SPLIT_INTERVAL_S = 390.0

#: Offered load below this fraction of one partition's quota does not mark
#: the partition busy (short measurement probes stay "idle").
BUSY_UTILIZATION_FLOOR = 0.50

#: Seconds of sustained above-floor load required before a partition
#: counts as busy for merge purposes. Short probe bursts (Figure 13 runs
#: three ~30 s repetitions per interval) never reach this, so probing
#: does not keep an otherwise idle bucket warm.
MIN_SUSTAINED_BUSY_S = 300.0

#: Idle thresholds for merging (Figure 13): five partitions survive a full
#: day; a first merge leaves two partitions after ~1.5 days; a final merge
#: returns to one after ~4.5 days.
FIRST_MERGE_IDLE_S = 1.5 * 86_400.0
FULL_MERGE_IDLE_S = 4.5 * 86_400.0

#: Partitions kept after the first (partial) merge step.
PARTITIONS_AFTER_FIRST_MERGE = 2

#: Sliding window for the discrete-path admitted-IOPS estimate.
IOPS_WINDOW_S = 1.0


def key_point(key: str) -> float:
    """Map a key to a stable point in [0, 1) of the hash space."""
    digest = hashlib.md5(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class Partition:
    """A leaf of the prefix-partition tree: one slice of the key space."""

    low: float
    high: float
    #: Stable identity assigned by the owning tree at creation time
    #: (memory addresses must never key or order anything).
    uid: int = 0
    read_quota: float = READ_IOPS_PER_PARTITION
    write_quota: float = WRITE_IOPS_PER_PARTITION
    heat_s: float = 0.0
    heat_updated_at: float = 0.0
    busy_credit_s: float = 0.0
    last_busy_at: float = 0.0
    #: Token-bucket levels for discrete admission (ops, up to 1 s of burst).
    read_tokens: float = field(default=READ_IOPS_PER_PARTITION)
    write_tokens: float = field(default=WRITE_IOPS_PER_PARTITION)
    tokens_updated_at: float = 0.0

    @property
    def width(self) -> float:
        """Fraction of the key space this partition owns."""
        return self.high - self.low

    def owns(self, point: float) -> bool:
        """Whether a hash-space point falls in this partition."""
        return self.low <= point < self.high

    def refresh_tokens(self, now: float) -> None:
        """Refill discrete-admission token buckets up to one second's worth."""
        elapsed = now - self.tokens_updated_at
        if elapsed <= 0:
            return
        self.read_tokens = min(self.read_quota,
                               self.read_tokens + elapsed * self.read_quota)
        self.write_tokens = min(self.write_quota,
                                self.write_tokens + elapsed * self.write_quota)
        self.tokens_updated_at = now


@dataclass
class FluidStep:
    """Admission outcome of one fluid step at the tree level."""

    accepted_read: float
    rejected_read: float
    accepted_write: float
    rejected_write: float


class PartitionTree:
    """The set of prefix partitions of one bucket, with split/merge logic."""

    def __init__(self) -> None:
        self._partition_seq = 0
        self.partitions: list[Partition] = [self._fresh(0.0, 1.0)]
        self.split_count = 0
        self.merge_count = 0
        self._last_split_at = float("-inf")
        #: Telemetry recorder + metric-name prefix, injected by the owning
        #: service via :meth:`enable_telemetry` (the tree itself has no
        #: clock or service identity). ``None`` => recording disabled.
        self.telemetry = None
        self.telemetry_prefix = "partitions"
        #: Per-partition admit timestamps inside the sliding IOPS window,
        #: keyed by ``(partition.uid, direction)``.
        self._admit_log: dict[tuple[int, str], deque] = {}
        #: ``key_point`` of every key seen: admission asks for the same
        #: few keys on every request, and the point never changes.
        self._points: dict[str, float] = {}

    def enable_telemetry(self, recorder, prefix: str) -> None:
        """Record per-prefix admission decisions/levels under ``prefix``."""
        self.telemetry = recorder
        self.telemetry_prefix = prefix

    def _sample_partition(self, partition: Partition, now: float) -> None:
        """Per-prefix token/IOPS time series, named by partition index."""
        index = self.partitions.index(partition)
        base = f"{self.telemetry_prefix}.p{index}"
        self.telemetry.timeseries(f"{base}.read_tokens",
                                  min_dt=0.005).sample(
            now, partition.read_tokens)
        self.telemetry.timeseries(f"{base}.write_tokens",
                                  min_dt=0.005).sample(
            now, partition.write_tokens)

    def _sample_iops(self, partition: Partition, direction: str,
                     now: float) -> None:
        """Sliding-window admitted-rate estimate for the discrete path."""
        log = self._admit_log.setdefault((partition.uid, direction), deque())
        log.append(now)
        cutoff = now - IOPS_WINDOW_S
        while log and log[0] < cutoff:
            log.popleft()
        index = self.partitions.index(partition)
        self.telemetry.timeseries(
            f"{self.telemetry_prefix}.p{index}.{direction}_iops",
            min_dt=0.05).sample(now, len(log) / IOPS_WINDOW_S)

    def _fresh(self, low: float, high: float) -> Partition:
        self._partition_seq += 1
        return Partition(low=low, high=high, uid=self._partition_seq,
                         read_quota=READ_IOPS_PER_PARTITION,
                         write_quota=WRITE_IOPS_PER_PARTITION,
                         read_tokens=READ_IOPS_PER_PARTITION,
                         write_tokens=WRITE_IOPS_PER_PARTITION)

    @property
    def partition_count(self) -> int:
        """Number of leaf partitions currently serving the bucket."""
        return len(self.partitions)

    def partition_for(self, key: str) -> Partition:
        """The partition owning ``key``."""
        point = self._points.get(key)
        if point is None:
            point = self._points[key] = key_point(key)
        for partition in self.partitions:
            if partition.owns(point):
                return partition
        # point == 1.0 cannot occur; guard for float oddities.
        return self.partitions[-1]

    # -- discrete admission ----------------------------------------------------

    def try_admit(self, key: str, is_read: bool, now: float) -> bool:
        """Admit one request against the owning partition's token bucket."""
        self.maybe_merge(now)
        partition = self.partition_for(key)
        partition.refresh_tokens(now)
        tokens = partition.read_tokens if is_read else partition.write_tokens
        direction = "read" if is_read else "write"
        if tokens < 1.0:
            # Heavy discrete traffic also counts toward heat/busy state.
            self._note_pressure(partition, now)
            if self.telemetry is not None:
                self.telemetry.counter(
                    f"{self.telemetry_prefix}.{direction}.throttled"
                ).value += 1
                self._sample_partition(partition, now)
            return False
        if is_read:
            partition.read_tokens -= 1.0
        else:
            partition.write_tokens -= 1.0
        if self.telemetry is not None:
            self.telemetry.counter(
                f"{self.telemetry_prefix}.{direction}.admitted").value += 1
            self._sample_partition(partition, now)
            self._sample_iops(partition, direction, now)
        return True

    def _note_pressure(self, partition: Partition, now: float) -> None:
        partition.last_busy_at = now

    # -- fluid admission ---------------------------------------------------------

    def offer_load(self, read_iops: float, write_iops: float,
                   elapsed: float, now: float) -> FluidStep:
        """Admit an aggregate request rate spread evenly over the key space.

        Keys in the paper's microbenchmarks are uniformly distributed, so
        each partition sees load proportional to its key-space width.
        Partitions heat up (and eventually split) while their offered read
        load sustains above the utilization threshold.
        """
        self.maybe_merge(now)
        accepted_r = rejected_r = accepted_w = rejected_w = 0.0
        ripe: list[Partition] = []
        for index, partition in enumerate(self.partitions):
            offered_r = read_iops * partition.width
            offered_w = write_iops * partition.width
            ok_r = min(offered_r, partition.read_quota)
            ok_w = min(offered_w, partition.write_quota)
            accepted_r += ok_r
            rejected_r += offered_r - ok_r
            accepted_w += ok_w
            rejected_w += offered_w - ok_w
            if self.telemetry is not None:
                self.telemetry.timeseries(
                    f"{self.telemetry_prefix}.p{index}.read_iops",
                    min_dt=1.0).sample(now, ok_r)
            read_util = offered_r / partition.read_quota
            write_util = offered_w / partition.write_quota
            # Heat and busy credit decay with *wall time* since the last
            # observation, so sparse probing (e.g. hourly) accumulates
            # nothing across the idle gaps between probes.
            idle_gap = max(0.0, now - partition.heat_updated_at - elapsed)
            partition.heat_s = max(0.0, partition.heat_s - idle_gap)
            partition.busy_credit_s = max(
                0.0, partition.busy_credit_s - idle_gap)
            partition.heat_updated_at = now
            if max(read_util, write_util) >= BUSY_UTILIZATION_FLOOR:
                partition.busy_credit_s += elapsed
            else:
                partition.busy_credit_s = max(
                    0.0, partition.busy_credit_s - elapsed)
            if partition.busy_credit_s >= MIN_SUSTAINED_BUSY_S:
                partition.last_busy_at = now
            # Only *read* pressure drives splits: the paper could not scale
            # write IOPS beyond one partition with write-only load.
            if read_util >= SPLIT_UTILIZATION_THRESHOLD:
                partition.heat_s += elapsed
                if partition.heat_s >= SPLIT_AFTER_S:
                    ripe.append(partition)
            else:
                # Cooling: heat also decays under light load.
                partition.heat_s = max(0.0, partition.heat_s - elapsed)
        # Splits are serialized: at most one per MIN_SPLIT_INTERVAL_S across
        # the whole bucket. Section 2.2: partitions that serve excessive
        # load "are split and spread evenly across the fleet" — so each
        # scaling step leaves n+1 evenly loaded partitions (all fresh:
        # further splits need renewed sustained overload).
        if ripe and now - self._last_split_at >= MIN_SPLIT_INTERVAL_S:
            self.retile(self.partition_count + 1, now)
            self.split_count += 1
            self._last_split_at = now
        return FluidStep(accepted_read=accepted_r, rejected_read=rejected_r,
                         accepted_write=accepted_w, rejected_write=rejected_w)

    # -- split / merge -------------------------------------------------------------

    def maybe_merge(self, now: float) -> None:
        """Collapse partitions whose idle time crossed the merge thresholds."""
        if len(self.partitions) == 1:
            return
        idle = now - max(p.last_busy_at for p in self.partitions)
        if idle >= FULL_MERGE_IDLE_S:
            merged = self._fresh(0.0, 1.0)
            merged.last_busy_at = max(p.last_busy_at for p in self.partitions)
            merged.tokens_updated_at = now
            self.merge_count += len(self.partitions) - 1
            self.partitions = [merged]
        elif (idle >= FIRST_MERGE_IDLE_S
              and len(self.partitions) > PARTITIONS_AFTER_FIRST_MERGE):
            # Merge adjacent partitions until only that many remain.
            self.merge_count += (len(self.partitions)
                                 - PARTITIONS_AFTER_FIRST_MERGE)
            self.retile(PARTITIONS_AFTER_FIRST_MERGE, now)

    def retile(self, count: int, now: float) -> None:
        """Replace the tree with ``count`` equal-width fresh partitions.

        Used for merging, and for pre-warming a bucket to a known
        partition count (the "warm bucket" setups of Figure 15).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        last_busy = max(p.last_busy_at for p in self.partitions)
        width = 1.0 / count
        fresh = []
        for i in range(count):
            # The last bound is 1.0 itself: ``count * width`` falls one
            # ulp short for some counts (49 is the first).
            high = (i + 1) * width if i + 1 < count else 1.0
            partition = self._fresh(i * width, high)
            partition.last_busy_at = last_busy
            partition.tokens_updated_at = now
            fresh.append(partition)
        self.partitions = fresh
