"""Date helpers: TPC dates as int32 days since 1970-01-01."""

from __future__ import annotations

import datetime

EPOCH = datetime.date(1970, 1, 1)


def date_to_days(year: int, month: int, day: int) -> int:
    """Calendar date -> days since epoch."""
    return (datetime.date(year, month, day) - EPOCH).days


#: TPC-H date range: orders span 1992-01-01 .. 1998-08-02.
TPCH_START = date_to_days(1992, 1, 1)
TPCH_END = date_to_days(1998, 8, 2)

#: TPC-H "current date" used for returnflag/linestatus semantics.
TPCH_CURRENT = date_to_days(1995, 6, 17)
