"""AWS Lambda FaaS platform simulator.

Models the architecture of Figure 1: a frontend that checks the account's
concurrency quota with the *admission* service, routes to a warm sandbox
via the *assignment* service, or asks the *placement* service to create a
new execution environment (a *coldstart*: binary download plus runtime
initialization). Sandboxes are reclaimed after an idle lifetime.

Scaling follows the documented Lambda behaviour [37]: an initial burst of
up to 3,000 concurrent environments, then +500 per minute of sustained
load, bounded by the account's concurrency quota.

Each sandbox owns a network endpoint with the dual token-bucket shapers of
Section 4.2, so functions running on the platform automatically exhibit
the burst/baseline network behaviour of Figures 5-7.
"""

from repro.faas.function import FunctionConfig, FunctionContext, InvocationRecord
from repro.faas.platform import LambdaPlatform
from repro.faas.regions import REGIONS, RegionProfile
from repro.faas.scaling import ConcurrencyScaler

__all__ = [
    "ConcurrencyScaler",
    "FunctionConfig",
    "FunctionContext",
    "InvocationRecord",
    "LambdaPlatform",
    "REGIONS",
    "RegionProfile",
]
