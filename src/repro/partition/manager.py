"""The partition manager: reconfigure one accelerator under live traffic.

:class:`PartitionedAccelerator` owns one partitionable device inside a
running :class:`~repro.serving.frontend.ServingFrontend` and moves it
between partition modes (1/2/4/8-way) without losing a request:

1. abort the retiring partitions' in-flight launches, collecting each
   aborted request's still-pending handle;
2. attach the new partitions (warmth carries over; their queue clocks are
   held at ``now + reconfigure_cost_s``, the firmware reconfiguration
   window) *before* detaching the old ones, so the context never empties;
3. install per-partition contention hooks — every launch pays the
   shared-fabric stretch for its concurrently busy siblings;
4. invalidate cached placement decisions and re-apply the tenant
   placement policy onto the new partition names;
5. re-admit every collected request exactly once, on its original
   response handle.

Mode 1 is the disabled path: the parent device serves untouched, no
contention hook is installed, and results stay digit-identical to a
deployment that never heard of partitioning.
"""

from __future__ import annotations

from repro.errors import SchedulerError
from repro.ocl.device import Device
from repro.partition.placement import PlacementPolicy
from repro.partition.spec import PartitionableDeviceSpec
from repro.partition.tenants import TenantSet

__all__ = ["PartitionedAccelerator"]


class PartitionedAccelerator:
    """Online split/merge of one device serving through a frontend.

    Parameters
    ----------
    frontend:
        The serving frontend whose context holds the parent device.
    pspec:
        The partitionable spec (parent device + supported modes).
    tenants:
        Tenant set for placement pinning; defaults to the frontend's own.
    placement:
        Policy mapping tenants onto partitions after each repartition.
    start_mode:
        Partition mode to move to immediately (1 = leave the parent).
    """

    def __init__(
        self,
        frontend,
        pspec: PartitionableDeviceSpec,
        tenants: "TenantSet | None" = None,
        placement: "PlacementPolicy | None" = None,
        start_mode: int = 1,
    ):
        self.frontend = frontend
        self.pspec = pspec
        self.tenants = tenants if tenants is not None else frontend.tenants
        self.placement = placement if placement is not None else PlacementPolicy()
        context = frontend.backlog.scheduler.context
        present = [d.name for d in context.devices]
        if pspec.parent.name not in present:
            raise SchedulerError(
                f"parent device {pspec.parent.name!r} not in the serving "
                f"context (has: {present})"
            )
        self.mode = 1
        self._active: tuple[str, ...] = (pspec.parent.name,)
        self.n_repartitions = 0
        self.n_readmitted = 0
        #: (virtual time, old mode, new mode) per reconfiguration.
        self.history: list[tuple[float, int, int]] = []
        if start_mode != 1:
            self.set_mode(start_mode)

    @property
    def partition_names(self) -> tuple[str, ...]:
        """Names of the currently active partitions (mode 1: the parent)."""
        return self._active

    # -- reconfiguration ---------------------------------------------------

    def set_mode(self, mode: int) -> int:
        """Reconfigure to ``mode`` partitions; returns requests re-admitted.

        In-flight work on the retiring partitions is aborted and re-admitted
        after the topology settles (exactly once, original responses);
        queued requests stay queued — placement happens at flush time, on
        whatever partitions exist then.
        """
        if mode not in self.pspec.modes:
            raise SchedulerError(
                f"{self.pspec.parent.name}: mode {mode} not supported "
                f"(supported: {self.pspec.modes})"
            )
        if mode == self.mode:
            return 0
        fe = self.frontend
        now = fe.loop.now
        context = fe.backlog.scheduler.context

        # Warmth carries across the reconfiguration: the silicon does not
        # cool because its logical carving changed.
        state = context.get_device(self._active[0]).probe_state(now)

        collected = []
        for name in self._active:
            collected.extend(fe.abort_device(name))

        # Attach-before-detach: the context must never empty, and the new
        # partitions' queue clocks absorb the reconfiguration window.
        ready_at = now + self.pspec.reconfigure_cost_s
        devices = [
            Device(spec, start_state=state)
            for spec in self.pspec.partition_specs(mode)
        ]
        for device in devices:
            fe.attach_device(device, ready_at=ready_at)
        for name in self._active:
            fe.detach_device(name)

        self._install_contention(devices)
        fe.backlog.notify_repartition()
        names = tuple(d.name for d in devices)
        if self.tenants is not None:
            self.placement.apply(fe.backlog, self.tenants, names)

        old_mode, self.mode, self._active = self.mode, mode, names
        self.n_repartitions += 1
        self.history.append((now, old_mode, mode))

        for response in collected:
            fe.readmit(response)
        self.n_readmitted += len(collected)
        return len(collected)

    def split(self) -> int:
        """Step to the next finer supported mode; returns the new mode."""
        i = self.pspec.modes.index(self.mode)
        if i + 1 >= len(self.pspec.modes):
            raise SchedulerError(
                f"{self.pspec.parent.name}: already at the finest supported "
                f"mode ({self.mode})"
            )
        self.set_mode(self.pspec.modes[i + 1])
        return self.mode

    def merge(self) -> int:
        """Step to the next coarser supported mode; returns the new mode."""
        i = self.pspec.modes.index(self.mode)
        if i == 0:
            raise SchedulerError(
                f"{self.pspec.parent.name}: already at the coarsest mode (1)"
            )
        self.set_mode(self.pspec.modes[i - 1])
        return self.mode

    # -- noisy neighbours --------------------------------------------------

    def _install_contention(self, devices: "list[Device]") -> None:
        """Give each partition's worker a busy-sibling stretch hook.

        The hook is evaluated at launch time: a sibling whose command
        queue's clock runs ahead of ``now`` is mid-launch, and each busy
        sibling costs ``bandwidth_penalty`` of the shared fabric.  Mode 1
        (or a zero penalty) installs nothing — the launch path stays
        byte-identical to an unpartitioned device.
        """
        fe = self.frontend
        if len(devices) == 1 or self.pspec.bandwidth_penalty == 0.0:
            for device in devices:
                fe.worker_for(device.name).contention = None
            return
        scheduler = fe.backlog.scheduler
        names = [d.name for d in devices]
        for name in names:
            sibling_queues = tuple(
                scheduler.queue_for(other) for other in names if other != name
            )

            def contention(now, _queues=sibling_queues):
                busy = sum(1 for q in _queues if q.current_time > now)
                return self.pspec.contention_multiplier(busy)

            fe.worker_for(name).contention = contention

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        return {
            "mode": self.mode,
            "partitions": list(self._active),
            "repartitions": self.n_repartitions,
            "readmitted": self.n_readmitted,
        }
