"""Regional profiles of the Lambda platform.

Section 4.6 finds pronounced differences between AWS regions: starting
large function clusters in eu-west-1 takes ~1.5x as long as in us-east-1
(likely regional contention), while local/temporal variability is highest
in us-east-1 for infrequent ("cold") usage and drops with frequent usage.

A :class:`RegionProfile` captures this as (a) a startup multiplier applied
to coldstart latencies and (b) congestion noise: a multiplicative factor
redrawn per 15-minute epoch, lognormal with a configurable coefficient of
variation — larger for sporadic usage (resources get reclaimed and
re-provisioned) than for sustained usage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Seconds per congestion epoch: regional conditions are redrawn this often.
CONGESTION_EPOCH_S = 900.0


@dataclass(frozen=True)
class RegionProfile:
    """Performance personality of one AWS region."""

    name: str
    #: Multiplier on coldstart/startup latencies relative to us-east-1.
    startup_multiplier: float
    #: Regional end-to-end runtime factor relative to us-east-1 (the MR
    #: column of Table 5 — dominated by slower cluster startup in the EU).
    runtime_multiplier: float
    #: Coefficient of variation of the congestion factor for sporadic
    #: ("cold") usage patterns.
    cold_cov: float
    #: Coefficient of variation under sustained ("warm") usage.
    warm_cov: float

    def congestion(self, rng: np.random.Generator, now: float,
                   warm: bool) -> float:
        """Multiplicative congestion factor for the epoch containing ``now``.

        Drawn lognormal with unit mean and the profile's CoV; the epoch
        index seeds the draw so repeated queries within an epoch see the
        same conditions.
        """
        cov = self.warm_cov if warm else self.cold_cov
        if cov <= 0:
            return 1.0
        sigma = math.sqrt(math.log(1.0 + cov * cov))
        # Unit-mean lognormal: mu = -sigma^2 / 2.
        return float(rng.lognormal(mean=-sigma * sigma / 2.0, sigma=sigma))


#: Calibrated to Table 5: EU startup ~1.5x the US; cold-usage variability
#: highest in the US, lowest in the EU; warm variability moderate
#: everywhere.
REGIONS: dict[str, RegionProfile] = {
    "us-east-1": RegionProfile(name="us-east-1", startup_multiplier=1.00,
                               runtime_multiplier=1.00,
                               cold_cov=0.2265, warm_cov=0.0523),
    "eu-west-1": RegionProfile(name="eu-west-1", startup_multiplier=1.50,
                               runtime_multiplier=1.50,
                               cold_cov=0.0476, warm_cov=0.0896),
    "ap-northeast-1": RegionProfile(name="ap-northeast-1",
                                    startup_multiplier=0.95,
                                    runtime_multiplier=0.955,
                                    cold_cov=0.0765, warm_cov=0.0644),
}
