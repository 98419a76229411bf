"""Sandboxed execution environments (micro-VMs) of the FaaS worker fleet."""

from __future__ import annotations

from dataclasses import dataclass

from repro.network.fabric import Endpoint


@dataclass
class Sandbox:
    """One Firecracker-style execution environment for a function.

    A sandbox keeps the function binary and runtime initialized between
    invocations (enabling warmstarts) and owns a network endpoint with its
    own ingress/egress token buckets — the per-function network budget of
    Section 4.2 belongs to the sandbox, not the invocation. ``id``
    numbers the platform's sandboxes in creation order.
    """

    function: str
    endpoint: Endpoint
    created_at: float
    idle_lifetime: float
    id: int
    last_used_at: float = 0.0
    busy: bool = False
    invocations: int = 0

    def expired(self, now: float) -> bool:
        """Whether the platform would have reclaimed this idle sandbox."""
        return not self.busy and (now - self.last_used_at) > self.idle_lifetime
