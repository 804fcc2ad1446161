"""Runtime device objects: a spec plus mutable execution state.

A :class:`Device` owns the cost and power models for one physical device
and tracks its DVFS state over virtual time.  The discrete GPU's state
(idle vs warmed-up) is exactly what the paper's scheduler probes "via a
PCIe call" before placing work (§V-A): :meth:`Device.probe_state` is that
call.
"""

from __future__ import annotations

import enum

from repro.hw.costmodel import CostModel, KernelTiming
from repro.hw.dvfs import ClockState
from repro.hw.power import EnergyBreakdown, PowerModel
from repro.hw.specs import DeviceClass, DeviceSpec
from repro.nn.builders import ModelSpec

__all__ = ["Device", "DeviceState"]

#: Clock fraction above which we report the device as warmed-up.
_WARM_THRESHOLD = 0.7


class DeviceState(enum.Enum):
    """Coarse device state as seen by the scheduler's probe."""

    IDLE = "idle"
    WARM = "warm"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Device:
    """One simulated computational device.

    Parameters
    ----------
    spec:
        Static description (published + calibration constants).
    start_state:
        Initial DVFS state; defaults to idle (a freshly booted system).
    """

    def __init__(self, spec: DeviceSpec, start_state: DeviceState = DeviceState.IDLE):
        self.spec = spec
        self.cost_model = CostModel(spec)
        self.power_model = PowerModel(spec)
        if start_state is DeviceState.WARM:
            self._clock = self.cost_model.warm_state()
        else:
            self._clock = self.cost_model.idle_state()
        self._background_load = 0.0

    # -- identity -----------------------------------------------------------

    @property
    def name(self) -> str:
        """The device's spec name (e.g. 'gtx-1080ti')."""
        return self.spec.name

    @property
    def device_class(self) -> DeviceClass:
        """The device family (CPU / IGPU / DGPU)."""
        return self.spec.device_class

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Device({self.spec.name!r}, clock={self._clock.clock_frac:.2f})"

    # -- DVFS state -----------------------------------------------------------

    @property
    def clock_state(self) -> ClockState:
        """Current DVFS state (clock fraction + timestamp)."""
        return self._clock

    def probe_state(self, now: float) -> DeviceState:
        """The scheduler's PCIe probe: is the device warmed up *right now*?

        Cooling is applied lazily: probing at a later virtual time first
        relaxes the clock toward idle.
        """
        self._cool_to(now)
        if self._clock.clock_frac >= _WARM_THRESHOLD:
            return DeviceState.WARM
        return DeviceState.IDLE

    def force_state(self, state: DeviceState, now: float = 0.0) -> None:
        """Pin the device to idle/warm (used by characterization sweeps)."""
        if state is DeviceState.WARM:
            self._clock = ClockState(clock_frac=1.0, timestamp=now)
        else:
            self._clock = ClockState(
                clock_frac=self.cost_model.clock.idle_frac, timestamp=now
            )

    def _cool_to(self, now: float) -> None:
        if now > self._clock.timestamp:
            self._clock = self.cost_model.clock.cool(self._clock, now)

    # -- contention ("system changes", §V) -----------------------------------

    @property
    def background_load(self) -> float:
        """Fraction of the device consumed by other applications."""
        return self._background_load

    def set_background_load(self, fraction: float) -> None:
        """Model another application occupying part of this device.

        The paper's adaptivity claims include responding to "application
        overloads and system changes": a contended device delivers only
        ``1 - fraction`` of its throughput, which the static predictor
        cannot see — only the realized service times the backlog
        scheduler learns (:mod:`repro.sched.backlog`) observe the slowdown.
        """
        if not (0.0 <= fraction < 1.0):
            raise ValueError(f"background load must be in [0, 1), got {fraction}")
        self._background_load = float(fraction)

    def _effective_eff(self, workgroup_eff: float) -> float:
        return workgroup_eff * (1.0 - self._background_load)

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        spec: ModelSpec,
        batch: int,
        now: float,
        workgroup_eff: float = 1.0,
        pinned: bool = True,
    ) -> tuple[KernelTiming, EnergyBreakdown]:
        """Account one batched classification starting at virtual ``now``.

        Cools the device over any idle gap since its last activity, runs the
        cost model from the resulting clock state, commits the new (warmer)
        state, and returns the timing and energy.
        """
        self._cool_to(now)
        timing = self.cost_model.timing(
            spec, batch, state=self._clock,
            workgroup_eff=self._effective_eff(workgroup_eff), pinned=pinned,
        )
        self._clock = timing.clock_end
        energy = self.power_model.energy(timing)
        return timing, energy

    def preview(
        self,
        spec: ModelSpec,
        batch: int,
        state: DeviceState | None = None,
        workgroup_eff: float = 1.0,
        pinned: bool = True,
    ) -> tuple[KernelTiming, EnergyBreakdown]:
        """Cost a hypothetical run *without* mutating device state.

        Characterization sweeps use this to measure idle-start and
        warm-start behaviour side by side.  Note: previews deliberately
        IGNORE background load — they represent what the offline
        characterization knew, which is exactly what a contention event
        invalidates.
        """
        if state is DeviceState.WARM:
            clock = self.cost_model.warm_state()
        elif state is DeviceState.IDLE:
            clock = self.cost_model.idle_state()
        else:
            clock = self._clock
        timing = self.cost_model.timing(
            spec, batch, state=clock, workgroup_eff=workgroup_eff, pinned=pinned
        )
        return timing, self.power_model.energy(timing)
