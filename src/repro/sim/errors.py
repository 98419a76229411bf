"""Exception types used by the simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process that another process interrupted.

    The interrupting party may attach an arbitrary ``cause`` describing why
    the interrupt happened (e.g. a preemption token or a timeout sentinel).
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause
