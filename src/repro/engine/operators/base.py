"""Operator protocol."""

from __future__ import annotations

from repro.formats.batch import RecordBatch


class Operator:
    """A physical operator over materialized batches."""

    #: CPU cost class charged per logical GiB of input (see engine.cost).
    cost_class = "scan"

    def execute(self, batch: RecordBatch, sides: dict | None = None
                ) -> RecordBatch:
        """Transform ``batch``; ``sides`` holds side-table batches by name."""
        raise NotImplementedError
