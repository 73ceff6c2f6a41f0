"""Time-varying traffic demand driven by the economics layer.

:class:`repro.economics.timeseries.DiurnalTrafficModel` generates a
whole billing period at once; the simulation needs the same seasonality
as a *function of virtual time* so that metering events can sample
demand at arbitrary instants.  :class:`TimeVaryingDemand` reuses the
identical shape (diurnal cosine, weekend dip, log-normal burst noise)
evaluated pointwise, plus optional :class:`FlashCrowd` modifiers that
multiply demand during a time window — the flash-crowd scenario uses
one to blow a demand spike through an active agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.simulation.engine import SimulationError

#: Hours per day / days per week, fixing the interpretation of virtual time.
HOURS_PER_DAY = 24.0
DAYS_PER_WEEK = 7


@dataclass(frozen=True)
class FlashCrowd:
    """A demand spike: multiply demand by ``multiplier`` during a window."""

    start: float
    duration: float
    multiplier: float

    def __post_init__(self) -> None:
        if self.duration <= 0.0:
            raise SimulationError("a flash crowd needs a positive duration")
        if self.multiplier < 0.0:
            raise SimulationError("the demand multiplier must be non-negative")

    def factor_at(self, time: float) -> float:
        """Demand multiplier at a point in virtual time."""
        if self.start <= time < self.start + self.duration:
            return self.multiplier
        return 1.0


@dataclass
class TimeVaryingDemand:
    """Seasonal demand with seeded burst noise, sampled in virtual time.

    The deterministic shape matches
    :class:`~repro.economics.timeseries.DiurnalTrafficModel`: a diurnal
    cosine peaking at ``peak_hour``, a weekend dip, and multiplicative
    log-normal noise whose expectation is 1 (so the long-run mean is
    ``mean_volume`` — before flash crowds).
    """

    mean_volume: float
    diurnal_amplitude: float = 0.5
    weekend_dip: float = 0.3
    burstiness: float = 0.2
    peak_hour: float = 20.0
    seed: int | tuple[int, ...] = 0
    flash_crowds: tuple[FlashCrowd, ...] = ()
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mean_volume < 0.0:
            raise SimulationError("the mean volume must be non-negative")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise SimulationError("the diurnal amplitude must be in [0, 1]")
        if not 0.0 <= self.weekend_dip <= 1.0:
            raise SimulationError("the weekend dip must be in [0, 1]")
        if self.burstiness < 0.0:
            raise SimulationError("burstiness must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def shape_at(self, time: float) -> float:
        """The deterministic seasonal factor at a point in virtual time.

        Normalized so its mean over a whole week is 1 (the analytic
        counterpart of the empirical renormalization in
        :class:`~repro.economics.timeseries.DiurnalTrafficModel`): the
        diurnal cosine integrates to 1 over a day, and the weekend dip
        is divided out as ``1 − 2·dip/7``.
        """
        hour_of_day = time % HOURS_PER_DAY
        day_index = int(time // HOURS_PER_DAY)
        diurnal = 1.0 + self.diurnal_amplitude * math.cos(
            (hour_of_day - self.peak_hour) / HOURS_PER_DAY * 2.0 * math.pi
        )
        weekday = 1.0 - self.weekend_dip if (day_index % DAYS_PER_WEEK) >= 5 else 1.0
        weekly_mean = 1.0 - 2.0 * self.weekend_dip / DAYS_PER_WEEK
        return diurnal * weekday / weekly_mean

    def sample(self, time: float) -> float:
        """One demand sample at a point in virtual time.

        Samples consume the seeded generator in call order, so a process
        that meters at deterministic times reads a deterministic series.
        """
        if self.mean_volume == 0.0:
            return 0.0
        if self.burstiness > 0.0:
            sigma = self.burstiness
            noise = float(
                self._rng.lognormal(mean=-0.5 * sigma * sigma, sigma=sigma)
            )
        else:
            noise = 1.0
        factor = 1.0
        for crowd in self.flash_crowds:
            factor *= crowd.factor_at(time)
        return self.mean_volume * self.shape_at(time) * noise * factor
