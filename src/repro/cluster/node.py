"""Cluster nodes: one machine's serving stack, on the fleet's shared clock.

A :class:`ClusterNode` wraps one :class:`~repro.serving.frontend.ServingFrontend`
(which itself wraps a :class:`~repro.sched.backlog.BacklogAwareScheduler`
over that node's device set) plus the membership state the router and
autoscaler act on:

* ``active`` — routable, takes new traffic;
* ``draining`` — no new traffic; in-flight batches finish, queued requests
  have been handed back to the router for re-routing;
* ``standby`` — parked in the autoscaler's pool, holding no work.

Fleets are heterogeneous by construction: each :class:`NodeSpec` names the
device classes the node owns, so a fleet can mix full testbed machines
with dGPU-less ones (the paper's idle/warm dGPU states at fleet scale —
some machines simply never have the fast device to warm up).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import SchedulerError
from repro.hw.specs import DeviceClass, get_device_spec
from repro.nn.builders import ModelSpec
from repro.ocl.context import Context
from repro.ocl.device import Device, DeviceState
from repro.sched.dispatcher import Dispatcher
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler
from repro.serving.frontend import ServingFrontend, ServingResponse, SLOConfig
from repro.sim.engine import EventLoop

__all__ = ["NodeState", "NodeSpec", "ClusterNode", "build_node", "make_fleet"]


class NodeState(enum.Enum):
    """Membership state of one node in the fleet."""

    ACTIVE = "active"
    DRAINING = "draining"
    STANDBY = "standby"
    DOWN = "down"          # crash detected; waiting on recovery + probe

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class NodeSpec:
    """Blueprint for one fleet node.

    Parameters
    ----------
    name:
        Unique node name (the routing / telemetry key).
    device_classes:
        Device classes this machine owns ('cpu' | 'igpu' | 'dgpu').  A
        dGPU-less node still serves — the backlog scheduler's ranking is
        filtered to present devices.
    active:
        Whether the node starts in the serving set (False = standby pool).
    """

    name: str
    device_classes: tuple[str, ...] = ("cpu", "igpu", "dgpu")
    active: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("node name must be non-empty")
        if not self.device_classes:
            raise ValueError(f"node {self.name!r} needs at least one device class")
        for cls in self.device_classes:
            DeviceClass(cls)  # raises ValueError on unknown classes
        if len(set(self.device_classes)) != len(self.device_classes):
            raise ValueError(
                f"node {self.name!r} lists duplicate device classes: "
                f"{self.device_classes}"
            )


class ClusterNode:
    """One serving frontend plus its fleet-membership state."""

    def __init__(
        self,
        name: str,
        frontend: ServingFrontend,
        state: NodeState = NodeState.ACTIVE,
        device_classes: "tuple[str, ...] | None" = None,
    ):
        self.name = name
        self.frontend = frontend
        self.state = state
        self.device_classes = (
            tuple(device_classes)
            if device_classes is not None
            else tuple(
                d.device_class.value
                for d in frontend.backlog.scheduler.context.devices
            )
        )
        # Fault bookkeeping: monotone crash counter (the router's heartbeat
        # detects crashes by comparing it against what it last handled)
        # and the membership state to restore once a probe passes.
        self.crash_count = 0
        self._pre_crash_state: "NodeState | None" = None

    # -- state -------------------------------------------------------------

    def activate(self) -> None:
        """Join (or re-join) the serving set."""
        if self.state is NodeState.DOWN:
            raise SchedulerError(
                f"node {self.name!r} is down; it must recover and pass a "
                "health probe before rejoining"
            )
        pending = self.frontend.n_pending
        if self.state is NodeState.DRAINING and pending:
            raise SchedulerError(
                f"node {self.name!r} is still draining ({pending} outstanding)"
            )
        self.state = NodeState.ACTIVE

    # -- fault lifecycle ---------------------------------------------------

    @property
    def crashed(self) -> bool:
        """Whether the node's serving process is currently dead."""
        return self.frontend.crashed

    def crash(self) -> None:
        """Fail-stop the node's process, silently.

        Membership state is *not* touched: the router keeps believing the
        node is up (and keeps routing to it — arrivals fall into the
        frontend's lost limbo) until a heartbeat notices ``crash_count``
        moved and flips it DOWN.  That gap is the failure model: real
        crashes are detected, never announced.
        """
        if self.frontend.crashed:
            raise SchedulerError(f"node {self.name!r} is already crashed")
        self.crash_count += 1
        if self.state is not NodeState.DOWN:
            self._pre_crash_state = self.state
        self.frontend.crash()

    def recover(self) -> None:
        """Restart the node's process (queues empty, limbo preserved).

        The node does not rejoin the serving set here — its breaker's
        half-open probe (see ``ClusterRouter.health_check``) readmits it.
        """
        self.frontend.restart()

    def mark_down(self) -> None:
        """Record crash detection: leave the serving set (idempotent)."""
        self.state = NodeState.DOWN

    def revive(self) -> NodeState:
        """Rejoin after a passed probe; returns the restored state.

        A node that was ACTIVE when it crashed returns to ACTIVE; anything
        else (standby, draining — its drain work died with it) parks in
        STANDBY for the autoscaler to reuse.
        """
        if self.state is not NodeState.DOWN:
            raise SchedulerError(
                f"cannot revive node {self.name!r} in state {self.state}"
            )
        if self.frontend.crashed:
            raise SchedulerError(
                f"cannot revive node {self.name!r}: its process is still down"
            )
        restored = (
            NodeState.ACTIVE
            if self._pre_crash_state is NodeState.ACTIVE
            else NodeState.STANDBY
        )
        self.state = restored
        self._pre_crash_state = None
        return restored

    def start_drain(self) -> "list[ServingResponse]":
        """Leave the serving set gracefully.

        Queued (not yet dispatched) requests' handles are popped and
        returned for the router to re-route; in-flight batches stay and finish on this
        node.  The node reaches ``standby`` once the last one completes
        (see :meth:`finish_drain_if_idle`).
        """
        if self.state is not NodeState.ACTIVE:
            raise SchedulerError(
                f"cannot drain node {self.name!r} in state {self.state}"
            )
        self.state = NodeState.DRAINING
        return self.frontend.drain_queued()

    def finish_drain_if_idle(self) -> bool:
        """Flip draining -> standby once nothing is left in flight."""
        if self.state is NodeState.DRAINING and self.frontend.n_pending == 0:
            self.state = NodeState.STANDBY
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterNode({self.name!r}, state={self.state.value!r}, "
            f"devices={list(self.device_classes)})"
        )


def build_node(
    spec: NodeSpec,
    predictors: "dict[Policy, DevicePredictor] | list[DevicePredictor]",
    model_specs: "dict[str, ModelSpec]",
    loop: EventLoop,
    slo: "dict[str, SLOConfig] | None" = None,
    default_slo: "SLOConfig | None" = None,
    policy: "Policy | str" = Policy.THROUGHPUT,
    max_rank: int = 2,
    rng: int = 0,
    start_state: DeviceState = DeviceState.IDLE,
) -> ClusterNode:
    """Stand up one node: fresh devices -> dispatcher -> scheduler -> frontend.

    Every node gets its own :class:`Context` (independent device clocks
    and dGPU warm-up state) and its own deployed kernels, but shares the
    trained ``predictors`` — training happens once, fleet-wide, exactly as
    a production rollout ships one model to many replicas.
    """
    devices = [
        Device(get_device_spec(DeviceClass(cls)), start_state)
        for cls in spec.device_classes
    ]
    context = Context(devices)
    dispatcher = Dispatcher(context)
    for model_spec in model_specs.values():
        dispatcher.deploy_fresh(model_spec, rng=rng)
    scheduler = OnlineScheduler(context, dispatcher, predictors)
    frontend = ServingFrontend(
        scheduler,
        model_specs,
        slo=slo,
        default_slo=default_slo,
        policy=policy,
        max_rank=max_rank,
        loop=loop,
    )
    state = NodeState.ACTIVE if spec.active else NodeState.STANDBY
    return ClusterNode(
        spec.name, frontend, state=state, device_classes=spec.device_classes
    )


def make_fleet(
    node_specs: "list[NodeSpec] | tuple[NodeSpec, ...]",
    predictors: "dict[Policy, DevicePredictor] | list[DevicePredictor]",
    model_specs: "dict[str, ModelSpec]",
    loop: "EventLoop | None" = None,
    **node_kwargs,
) -> "list[ClusterNode]":
    """Build a fleet of nodes on one shared event loop.

    ``node_kwargs`` (slo, default_slo, policy, max_rank, rng, start_state)
    are forwarded to every :func:`build_node` call.  Returns the nodes in
    spec order; the shared loop is reachable as ``fleet[0].frontend.loop``.
    """
    if not node_specs:
        raise SchedulerError("a fleet needs at least one node spec")
    names = [s.name for s in node_specs]
    if len(set(names)) != len(names):
        raise SchedulerError(f"duplicate node names in fleet: {names}")
    shared = loop if loop is not None else EventLoop()
    return [
        build_node(spec, predictors, model_specs, loop=shared, **node_kwargs)
        for spec in node_specs
    ]
