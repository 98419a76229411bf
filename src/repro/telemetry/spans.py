"""Hierarchical spans with trace/span ids for distributed correlation.

Section 3.2 of the paper: the engine "traces runtime information with
query context ... compared between distributed workers, as their clocks
are tightly synchronized". In the simulation every component shares one
virtual clock, so spans from the coordinator, invokers, workers, and
storage calls are exactly comparable. A span's identity is
``(trace_id, span_id)``; the trace id groups everything belonging to one
query, and ``parent_id`` nests worker spans under their dispatching
stage, storage reads under their worker, and so on.

Trace context crosses "process" boundaries (coordinator → invoker →
worker) as the parent :class:`Span` itself, carried inside the
invocation payload — the simulation analogue of W3C traceparent
propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    """One timed operation in a trace."""

    trace_id: str
    span_id: int
    parent_id: Optional[int]
    name: str
    category: str
    start: float
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)
    events: list[dict] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Span length in virtual seconds (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        """Whether the span has been closed."""
        return self.end is not None

    def add_event(self, t: float, name: str, **attrs) -> None:
        """Attach a point-in-time event to this span."""
        event = {"t": t, "name": name}
        if attrs:
            event.update(attrs)
        self.events.append(event)

    def finish(self, t: float, **attrs) -> "Span":
        """Close the span at virtual time ``t`` (idempotent)."""
        if self.end is None:
            self.end = t
        if attrs:
            self.attrs.update(attrs)
        return self


def parent_ids(parent) -> tuple[Optional[str], Optional[int]]:
    """Extract (trace_id, span_id) from a parent Span or None."""
    if parent is None:
        return None, None
    if isinstance(parent, Span):
        return parent.trace_id, parent.span_id
    raise TypeError(f"parent must be a Span or None, "
                    f"got {type(parent).__name__}")
