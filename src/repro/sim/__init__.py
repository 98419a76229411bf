"""Discrete-event simulation kernel.

This package provides the simulation substrate on which all infrastructure
simulators (FaaS platform, storage services, network fabric) are built. The
design follows the classic process-interaction style: simulation logic is
written as Python generator functions ("processes") that yield events, and
an :class:`Environment` advances virtual time by executing scheduled events
in timestamp order.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(5.0)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5.0
"""

from repro.sim.errors import Interrupt, SimulationError
from repro.sim.events import AllOf, AnyOf, Event, Process, Timeout
from repro.sim.kernel import Environment
from repro.sim.resources import Resource, Store
from repro.sim.rng import RandomStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Store",
    "Timeout",
]
