"""Tests for the price catalog, cost calculator, and break-even math."""

import pytest

from repro import units
from repro.pricing import (
    LAMBDA_PRICING,
    STORAGE_PRICES,
    CostCalculator,
    break_even_access_size,
    break_even_interval_capacity,
    break_even_interval_requests,
    ec2_instance,
    faas_break_even_queries_per_hour,
)
from repro.pricing.breakeven import CapacityTier
from repro.pricing.calculator import cost_per_gib_per_s_read
from repro.pricing.catalog import MARGINAL_RAM_PER_GIB_HOUR
from repro.storage.base import RequestStats, RequestType


class TestCatalog:
    def test_c6g_xlarge_shape(self):
        instance = ec2_instance("c6g.xlarge")
        assert instance.vcpus == 4
        assert instance.memory_bytes == 8 * units.GiB
        assert instance.hourly_usd == pytest.approx(0.136)

    def test_per_gib_hour_within_table1_range(self):
        # Table 1: EC2 memory at 0.65 - 1.70 cents/GiB-h.
        for name in ("c6g.medium", "c6g.xlarge", "c6g.16xlarge"):
            instance = ec2_instance(name)
            assert 0.0065 <= instance.per_gib_hour <= 0.0170 + 1e-9

    def test_lambda_unit_price_premium_over_ec2(self):
        # Table 1: Lambda is 2.5 - 5.9x more expensive per resource unit.
        lambda_per_gib_hour = LAMBDA_PRICING.per_gib_second * 3600
        ec2_per_gib_hour = ec2_instance("c6g.xlarge").per_gib_hour
        assert 2.5 <= lambda_per_gib_hour / ec2_per_gib_hour <= 5.9

    def test_unknown_instance_raises(self):
        with pytest.raises(KeyError, match="unknown instance"):
            ec2_instance("m5.large")

    def test_c6gn_has_four_times_network(self):
        base = ec2_instance("c6g.xlarge")
        network = ec2_instance("c6gn.xlarge")
        assert network.network_baseline == pytest.approx(4 * base.network_baseline)

    def test_c6gd_has_nvme(self):
        assert ec2_instance("c6gd.xlarge").nvme_bytes > 200 * units.GB
        assert ec2_instance("c6g.xlarge").nvme_bytes is None

    def test_s3_is_cheapest_at_rest_by_an_order(self):
        s3 = STORAGE_PRICES["s3-standard"].storage_per_gib_month
        others = [STORAGE_PRICES[name].storage_per_gib_month
                  for name in ("s3-express", "dynamodb", "efs")]
        assert all(other >= 6 * s3 for other in others)

    def test_s3_request_price_size_independent(self):
        pricing = STORAGE_PRICES["s3-standard"]
        assert pricing.read_cost(1000, total_bytes=units.GiB) == \
            pytest.approx(pricing.read_cost(1000, total_bytes=units.KiB))

    def test_express_charges_transfers_beyond_512kib(self):
        pricing = STORAGE_PRICES["s3-express"]
        small = pricing.read_cost(1, total_bytes=256 * units.KiB)
        large = pricing.read_cost(1, total_bytes=8 * units.MiB)
        assert small == pytest.approx(pricing.read_request)
        assert large > 10 * small


class TestLambdaPricing:
    def test_invocation_cost_components(self):
        # 1 GiB for 1 s: request price + one GiB-second.
        cost = LAMBDA_PRICING.invocation_cost(units.GiB, 1.0)
        assert cost == pytest.approx(0.20 / 1e6 + 1.33334e-5)

    def test_ephemeral_storage_free_tier(self):
        base = LAMBDA_PRICING.invocation_cost(units.GiB, 1.0)
        with_free = LAMBDA_PRICING.invocation_cost(
            units.GiB, 1.0, ephemeral_bytes=512 * units.MiB)
        assert with_free == pytest.approx(base)
        with_extra = LAMBDA_PRICING.invocation_cost(
            units.GiB, 1.0, ephemeral_bytes=1536 * units.MiB)
        assert with_extra > base


class TestCostCalculator:
    def test_vm_minimum_billing_minute(self):
        calc = CostCalculator()
        cost = calc.add_vm_time("c6g.xlarge", duration_s=5.0)
        assert cost == pytest.approx(0.136 * 60 / 3600)

    def test_storage_request_accounting_counts_failures(self):
        calc = CostCalculator()
        stats = RequestStats()
        stats.record(RequestType.GET, "ok", count=900)
        stats.record(RequestType.GET, "throttled", count=100)
        cost = calc.add_storage_requests("s3-standard", stats)
        assert cost == pytest.approx(1000 * 0.40 / 1e6)

    def test_total_is_sum_of_components(self):
        calc = CostCalculator()
        calc.add_function_invocation(units.GiB, 10.0)
        calc.add_vm_time("c6g.xlarge", 3600.0)
        stats = RequestStats()
        stats.record(RequestType.GET, "ok", count=1_000_000)
        calc.add_storage_requests("s3-standard", stats)
        total = (calc.cost.compute_faas + calc.cost.compute_iaas
                 + calc.cost.storage_requests + calc.cost.storage_transfer)
        assert calc.cost.total == pytest.approx(total)

    def test_throughput_cost_ranking_matches_section_431(self):
        """S3 is by far the most cost-efficient for throughput."""
        s3 = cost_per_gib_per_s_read("s3-standard", 64 * units.MiB)
        ddb = cost_per_gib_per_s_read("dynamodb", 400 * units.KiB)
        efs = cost_per_gib_per_s_read("efs", 4 * units.MiB)
        assert s3 == pytest.approx(0.00064, rel=0.05)
        assert ddb == pytest.approx(6.55, rel=0.05)
        assert efs == pytest.approx(3.00, rel=0.05)
        assert s3 < efs < ddb


class TestBreakEvenIntervals:
    """Table 7 shape checks (exact values are in the benchmark)."""

    def ram_rent_per_mib_hour(self):
        return MARGINAL_RAM_PER_GIB_HOUR / 1024.0

    def nvme_tier(self):
        # Calibrated NVMe: c6gd-class local SSD (see benchmarks/table7).
        return CapacityTier(name="nvme", rent_per_hour=0.17,
                            iops=427_000, bandwidth=2 * units.GiB)

    def test_ram_ssd_break_even_tens_of_seconds(self):
        bei = break_even_interval_capacity(4 * units.KiB, self.nvme_tier(),
                                           self.ram_rent_per_mib_hour())
        assert 20 <= bei <= 60  # paper: 38 s

    def test_ram_ssd_flat_beyond_bandwidth_knee(self):
        """Larger accesses don't shorten the interval: bandwidth binds."""
        tier = self.nvme_tier()
        ram = self.ram_rent_per_mib_hour()
        bei_16k = break_even_interval_capacity(16 * units.KiB, tier, ram)
        bei_16m = break_even_interval_capacity(16 * units.MiB, tier, ram)
        assert bei_16k == pytest.approx(bei_16m, rel=0.01)

    def test_ram_s3_day_scale_at_4kib(self):
        bei = break_even_interval_requests(
            4 * units.KiB, STORAGE_PRICES["s3-standard"],
            self.ram_rent_per_mib_hour())
        assert 1.0 <= bei / units.DAY <= 3.0  # paper: 2 d

    def test_ram_s3_seconds_at_16mib(self):
        bei = break_even_interval_requests(
            16 * units.MiB, STORAGE_PRICES["s3-standard"],
            self.ram_rent_per_mib_hour())
        assert 20 <= bei <= 80  # paper: 41 s

    def test_transfer_fees_break_inverse_proportionality(self):
        """Section 5.3.1: S3 Express BEI stops shrinking with size."""
        ram = self.ram_rent_per_mib_hour()
        express = STORAGE_PRICES["s3-express"]
        bei_4m = break_even_interval_requests(4 * units.MiB, express, ram)
        bei_16m = break_even_interval_requests(16 * units.MiB, express, ram)
        # Standard S3 shrinks 4x over this range; Express must not.
        assert bei_16m > bei_4m / 2

    def test_invalid_access_size_rejected(self):
        with pytest.raises(ValueError):
            break_even_interval_requests(0, STORAGE_PRICES["s3-standard"], 1.0)


class TestBreakEvenAccessSize:
    def test_c6g_xlarge_s3_standard_about_2_mib(self):
        instance = ec2_instance("c6g.xlarge")
        beas = break_even_access_size(STORAGE_PRICES["s3-standard"],
                                      server_bandwidth=instance.network_baseline,
                                      server_rent_per_hour=instance.hourly_usd)
        assert beas == pytest.approx(2 * units.MiB, rel=0.35)

    def test_constant_within_instance_family(self):
        xlarge = ec2_instance("c6g.xlarge")
        big = ec2_instance("c6g.8xlarge")
        beas_xl = break_even_access_size(STORAGE_PRICES["s3-standard"],
                                         xlarge.network_baseline,
                                         xlarge.hourly_usd)
        beas_big = break_even_access_size(STORAGE_PRICES["s3-standard"],
                                          big.network_baseline,
                                          big.hourly_usd)
        assert beas_big == pytest.approx(beas_xl, rel=0.35)

    def test_s3_express_never_breaks_even(self):
        instance = ec2_instance("c6gn.xlarge")
        beas = break_even_access_size(STORAGE_PRICES["s3-express"],
                                      instance.network_baseline,
                                      instance.hourly_usd, read=False)
        assert beas is None

    def test_reserved_pricing_raises_break_even(self):
        instance = ec2_instance("c6gn.xlarge")
        on_demand = break_even_access_size(STORAGE_PRICES["s3-standard"],
                                           instance.network_baseline,
                                           instance.hourly_usd)
        reserved = break_even_access_size(STORAGE_PRICES["s3-standard"],
                                          instance.network_baseline,
                                          instance.reserved_hourly_usd)
        assert reserved > on_demand


class TestFaasBreakEven:
    def test_paper_q6_figures(self):
        """Table 6: Q6 at 4.87 cents/query vs 201 C6g.xlarge VMs -> 558 Q/h."""
        qph = faas_break_even_queries_per_hour(
            faas_cost_per_query=0.0487, vm_hourly_usd=0.136, peak_vms=201)
        assert qph == pytest.approx(561, rel=0.02)

    def test_paper_q12_figures(self):
        qph = faas_break_even_queries_per_hour(
            faas_cost_per_query=0.2119, vm_hourly_usd=0.136, peak_vms=284)
        assert qph == pytest.approx(182, rel=0.45)  # paper reports 128

    def test_zero_cost_rejected(self):
        with pytest.raises(ValueError):
            faas_break_even_queries_per_hour(0.0, 0.136, 10)


class TestAdaptiveProvisioning:
    """Section 5.2: adaptive clusters lower the break-even proportionally.

    An adaptive cluster pays a fraction of the peak-provisioned hourly
    rate, so its break-even is the peak one at that fraction of the rate.
    """

    def test_fraction_scales_break_even_linearly(self):
        base = faas_break_even_queries_per_hour(0.05, 0.136, 100)
        adaptive = faas_break_even_queries_per_hour(0.05, 0.136 * 0.41, 100)
        assert adaptive == pytest.approx(0.41 * base)

    def test_peak_to_average_gives_the_adaptive_fraction(self):
        """A cluster sized by the time-weighted average rather than the
        peak pays 1/ratio of the peak-provisioned cost: 284 nodes for
        10 s then 1 node for 10 s average 142.5, peak 284."""
        ratio = 284 / 142.5
        base = faas_break_even_queries_per_hour(0.2119, 0.136, 284)
        adaptive = faas_break_even_queries_per_hour(0.2119, 0.136 / ratio,
                                                    284)
        assert adaptive == pytest.approx(base / ratio)
