"""Tests for the unit constants and formatting helpers."""

import pytest

from repro import units


class TestConstants:
    def test_binary_units(self):
        assert units.KiB == 1024
        assert units.MiB == 1024 ** 2
        assert units.GiB == 1024 ** 3

    def test_gbps_is_decimal_bits(self):
        assert units.Gbps == pytest.approx(125_000_000.0)

    def test_time_units(self):
        assert units.HOUR == 3600
        assert units.DAY == 24 * units.HOUR
        assert units.MONTH == 30 * units.DAY


class TestFormatting:
    @pytest.mark.parametrize("value,expected", [
        (512, "512 B"),
        (4 * units.KiB, "4.0 KiB"),
        (182.4 * units.MiB, "182.4 MiB"),
        (2 * units.GiB, "2.0 GiB"),
        (3 * units.TiB, "3.0 TiB"),
    ])
    def test_fmt_bytes(self, value, expected):
        assert units.fmt_bytes(value) == expected

    @pytest.mark.parametrize("value,expected", [
        (38, "38s"),
        (27 * 60, "27min"),
        (23 * units.HOUR, "23h"),
        (59 * units.DAY, "59d"),
    ])
    def test_fmt_duration(self, value, expected):
        assert units.fmt_duration(value) == expected
