"""The online adaptive scheduler (paper Fig. 5).

Per request the scheduler: reads the input batch and the model structure,
loads the active policy, **probes the discrete GPU's state over PCIe**
(``Device.probe_state`` — idle or warmed-up), runs the policy's trained
predictor over the structural + run-time features, and dispatches the
classification to the chosen device's command queue.

The scheduler is *device-agnostic*: it addresses devices only through
their class value and the context, so registering an extra device model
(FPGA, NPU...) requires no change here — only training data for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SchedulerError
from repro.hw.specs import DeviceClass
from repro.nn.builders import ModelSpec
from repro.ocl.context import Context
from repro.ocl.device import _WARM, Device
from repro.ocl.event import Event
from repro.ocl.queue import CommandQueue
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor

__all__ = ["SchedulingDecision", "OnlineScheduler"]


@dataclass(frozen=True)
class SchedulingDecision:
    """One placement decision with its inputs, for audit/evaluation."""

    model: str
    batch: int
    policy: Policy
    gpu_state: str
    device: str          # chosen device-class value ('cpu'/'igpu'/'dgpu')
    device_name: str     # chosen device spec name


class OnlineScheduler:
    """Policy-driven device selection plus dispatch.

    Parameters
    ----------
    context:
        The device context (all three testbed devices, or any superset —
        the scheduler is device-agnostic).
    dispatcher:
        The Fig. 2 dispatcher holding deployed models.
    predictors:
        One trained :class:`DevicePredictor` per policy the scheduler
        should support.
    """

    def __init__(
        self,
        context: Context,
        dispatcher: Dispatcher,
        predictors: "dict[Policy, DevicePredictor] | list[DevicePredictor]",
    ):
        self.context = context
        self.dispatcher = dispatcher
        if isinstance(predictors, dict):
            self.predictors = dict(predictors)
        else:
            self.predictors = {p.policy: p for p in predictors}
        if not self.predictors:
            raise SchedulerError("scheduler needs at least one trained predictor")
        self._queues: dict[str, CommandQueue] = {
            d.name: CommandQueue(context, d) for d in context.devices
        }
        self._dgpu = self._find_dgpu()

    def _find_dgpu(self) -> Device | None:
        for d in self.context.devices:
            if d.device_class is DeviceClass.DGPU:
                return d
        return None

    # -- Fig. 5 pipeline ---------------------------------------------------

    def probe_gpu_state(self, now: float | None = None) -> str:
        """The PCIe call of §V-A: 'idle' or 'warm' for the dGPU.

        With no dGPU present (device-agnostic deployments) the feature
        degrades gracefully to 'warm' (no ramp penalty exists to dodge).
        """
        if self._dgpu is None:
            return "warm"
        if now is None:
            now = self._queues[self._dgpu.name].current_time
        state = self._dgpu.probe_state(now)
        return "warm" if state is _WARM else "idle"

    def decide(
        self,
        spec: ModelSpec,
        batch: int,
        policy: "Policy | str",
        now: "float | None" = None,
    ) -> SchedulingDecision:
        """Select the device for one request (no dispatch).

        ``now`` fixes the virtual instant of the dGPU probe (requests
        arriving after an idle gap must see a cooled device); it defaults
        to the dGPU queue's current time.
        """
        policy = Policy.parse(policy)
        try:
            predictor = self.predictors[policy]
        except KeyError:
            known = ", ".join(str(p) for p in self.predictors)
            raise SchedulerError(
                f"no predictor trained for policy {policy}; trained: {known}"
            ) from None
        gpu_state = self.probe_gpu_state(now=now)
        device_class = predictor.predict_device(spec, batch, gpu_state)
        device = self.context.get_device(device_class)
        return SchedulingDecision(
            model=spec.name,
            batch=batch,
            policy=policy,
            gpu_state=gpu_state,
            device=device_class,
            device_name=device.name,
        )

    def submit(
        self,
        spec: ModelSpec,
        x: np.ndarray,
        policy: "Policy | str",
    ) -> tuple[SchedulingDecision, Event]:
        """Decide and dispatch: classify ``x`` on the predicted device.

        Returns the decision and the completed event (with timing, energy
        and — when kernel execution is enabled — the class scores).
        """
        decision = self.decide(spec, int(x.shape[0]), policy)
        kernel = self.dispatcher.kernel_for(decision.device_name, spec.name)
        queue = self._queues[decision.device_name]
        event = queue.enqueue_inference(kernel, x)
        return decision, event

    # -- device topology (partition split/merge) -----------------------------

    def register_device(self, device: Device) -> CommandQueue:
        """Admit a new device: context membership plus a fresh command queue.

        Used by the partition manager when a split creates new logical
        devices.  The dGPU probe target is re-resolved, so a partitioned
        dGPU keeps answering the Fig. 5 state probe through its first
        partition.
        """
        self.context.add_device(device)
        queue = CommandQueue(self.context, device)
        self._queues[device.name] = queue
        self._dgpu = self._find_dgpu()
        return queue

    def unregister_device(self, device_name: str) -> CommandQueue:
        """Retire a device by exact name; returns its (dead) command queue.

        The caller is responsible for the device's in-flight work — the
        serving layer aborts and re-admits it through the exactly-once
        path before retiring the device.
        """
        self.context.remove_device(device_name)
        queue = self._queues.pop(device_name)
        self._dgpu = self._find_dgpu()
        return queue

    # -- time control (for stream replays) ----------------------------------

    def queue_for(self, device_name: str) -> CommandQueue:
        """The command queue serving a device (by spec name)."""
        try:
            return self._queues[device_name]
        except KeyError:
            raise SchedulerError(f"no queue for device {device_name!r}") from None

    def advance_all(self, t: float) -> None:
        """Advance every queue's virtual clock to at least ``t``."""
        for q in self._queues.values():
            if q.current_time < t:
                q.advance_to(t)
