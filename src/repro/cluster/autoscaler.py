"""Elastic autoscaling: grow and shrink the serving set under load.

The autoscaler is a periodic actor on the fleet's shared clock (via
:meth:`~repro.sim.engine.EventLoop.schedule_repeating`).  Each tick it:

1. sweeps finished drains (draining nodes whose last in-flight batch has
   landed flip to standby);
2. reads the fleet's load — mean outstanding requests per active node —
   and its recent p99 against the SLO;
3. **scales up** (activates a standby node) when the fleet is overloaded:
   depth above ``high_depth`` or recent p99 above ``p99_factor × slo_s``;
4. **scales down** (drains the least-loaded active node through
   :meth:`ClusterRouter.drain_node`, which re-routes its queue) when the
   fleet is comfortably idle and more than ``min_nodes`` are active.

Actions are rate-limited by ``cooldown_s`` so one burst doesn't slam the
whole standby pool in, and every decision lands in the router's event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.checks import require_count, require_finite
from repro.cluster.node import ClusterNode
from repro.cluster.router import ClusterRouter
from repro.sim.engine import ScheduledEvent

__all__ = ["AutoscalerConfig", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Scaling thresholds and pacing.

    Parameters
    ----------
    high_depth / low_depth:
        Mean outstanding requests per active node above which the fleet
        scales up / below which it may scale down.
    slo_s:
        The latency objective; with ``None`` the p99 signal is unused and
        only queue depth drives scaling.
    p99_factor:
        Recent p99 above ``p99_factor * slo_s`` counts as overload.
    check_every_s:
        Tick period on the shared clock.
    cooldown_s:
        Minimum spacing between scaling actions.
    min_nodes / max_nodes:
        Bounds on the active set (``max_nodes`` None = the whole fleet).
    """

    high_depth: float = 32.0
    low_depth: float = 2.0
    slo_s: "float | None" = None
    p99_factor: float = 1.0
    check_every_s: float = 0.05
    cooldown_s: float = 0.1
    min_nodes: int = 1
    max_nodes: "int | None" = None

    def __post_init__(self) -> None:
        require_finite("low_depth", self.low_depth, positive=False)
        if not self.low_depth < self.high_depth < math.inf:
            raise ValueError(
                "high_depth must be finite and exceed low_depth "
                f"{self.low_depth}, got {self.high_depth}"
            )
        if self.slo_s is not None:
            require_finite("slo_s", self.slo_s)
        require_finite("p99_factor", self.p99_factor)
        require_finite("check_every_s", self.check_every_s)
        require_finite("cooldown_s", self.cooldown_s, positive=False)
        require_count("min_nodes", self.min_nodes)
        if self.max_nodes is not None:
            require_count("max_nodes", self.max_nodes, low=self.min_nodes)


class Autoscaler:
    """Depth- and SLO-driven elastic sizing of a router's fleet."""

    def __init__(self, router: ClusterRouter, config: "AutoscalerConfig | None" = None):
        self.router = router
        self.config = config if config is not None else AutoscalerConfig()
        self.n_scale_ups = 0
        self.n_scale_downs = 0
        self.n_replacements = 0   # floor pulls while a node was DOWN
        self._last_action_s: "float | None" = None

    # -- scheduling --------------------------------------------------------

    def schedule(self, until: float) -> "ScheduledEvent | None":
        """Tick every ``check_every_s`` on the shared clock through ``until``.

        Ticks stop past the horizon so the event loop can drain; schedule
        again (e.g. per trace) to keep scaling across phases.
        """
        return self.router.loop.schedule_repeating(
            self.config.check_every_s,
            lambda _loop: self.check(),
            until=until,
            label="autoscaler",
        )

    # -- signals -----------------------------------------------------------

    def mean_depth(self) -> float:
        """Mean outstanding requests per active node (0 with none active)."""
        active = self.router.active_nodes
        if not active:
            return 0.0
        return sum(n.frontend.outstanding for n in active) / len(active)

    def _p99_breached(self) -> bool:
        if self.config.slo_s is None:
            return False
        p99 = self.router.telemetry.recent_p99_s()
        if p99 is None:
            return False
        return p99 > self.config.p99_factor * self.config.slo_s

    def _cooled_down(self, now: float) -> bool:
        return (
            self._last_action_s is None
            or now - self._last_action_s >= self.config.cooldown_s
        )

    # -- the tick ----------------------------------------------------------

    def check(self) -> "str | None":
        """One scaling decision; returns 'up', 'down', or None.

        Also the drain janitor: every tick sweeps draining nodes whose
        in-flight work has landed into the standby pool.
        """
        router, cfg = self.router, self.config
        router.sweep_drains()
        now = router.loop.now

        active = router.active_nodes
        if len(active) < cfg.min_nodes:
            # Never let the serving set fall below its floor: pull a
            # standby in regardless of cooldown (draining nodes will land
            # and join the pool).  Crashed nodes leave the active set the
            # same way — a DOWN node holds no capacity, so its loss opens
            # a deficit here and a healthy standby replaces it.
            standby = router.standby_nodes
            if standby:
                router.activate_node(standby[0].name)
                self.n_scale_ups += 1
                if router.down_nodes:
                    self.n_replacements += 1
                self._last_action_s = now
                return "up"
            if not active:
                return None

        depth = self.mean_depth()
        overloaded = depth > cfg.high_depth or self._p99_breached()
        underloaded = depth < cfg.low_depth and not self._p99_breached()
        if not self._cooled_down(now):
            return None

        if overloaded:
            standby = router.standby_nodes
            cap = cfg.max_nodes if cfg.max_nodes is not None else len(router.nodes)
            if standby and len(active) < cap:
                router.activate_node(standby[0].name)
                self.n_scale_ups += 1
                self._last_action_s = now
                return "up"
            return None

        if underloaded and len(active) > cfg.min_nodes:
            victim = self._drain_candidate(active)
            router.drain_node(victim.name)
            self.n_scale_downs += 1
            self._last_action_s = now
            return "down"
        return None

    @staticmethod
    def _drain_candidate(active: "list[ClusterNode]") -> ClusterNode:
        """Cheapest node to retire: least outstanding work, ties by name."""
        return min(active, key=lambda n: (n.frontend.outstanding, n.name))
