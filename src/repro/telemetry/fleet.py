"""Fleet telemetry: aggregate many nodes' serving telemetry into one view.

Each cluster node owns a :class:`~repro.telemetry.serving.ServingTelemetry`
that its serving frontend deposits into.  :class:`FleetTelemetry` holds a
read-through reference to every node's sink and answers cluster-level
questions without copying anything until asked: :meth:`FleetTelemetry.merged`
is the one rollup of outcomes (counters, exact percentiles, peak depths,
tenant ledgers), and :meth:`FleetTelemetry.recent_p99_s` the cheap
recent tail the autoscaler polls.  Attach once at node registration; the
aggregates always reflect the nodes' live state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.telemetry.serving import ServingTelemetry

__all__ = ["ResilienceCounters", "FleetTelemetry"]


@dataclass
class ResilienceCounters:
    """Fault/retry/breaker counters the resilience layer deposits.

    All zeros in a fault-free run; the router increments them as faults
    fire, crashes are detected, requests retry and breakers transition.
    """

    n_faults_injected: int = 0      # fault events that fired on the loop
    n_crashes_detected: int = 0     # heartbeat sweeps that found a crash
    n_failures: int = 0             # transient per-request launch failures
    n_timeouts: int = 0             # queued requests rescued by timeout
    n_retries: int = 0              # backoff retries scheduled
    n_redelivered: int = 0          # deliveries after the first (all causes)
    n_breaker_opens: int = 0
    n_breaker_half_opens: int = 0
    n_breaker_closes: int = 0
    n_shed_deadline: int = 0        # shed instead of retried: SLO passed
    n_shed_retry_budget: int = 0    # shed: delivery attempts exhausted

    def any(self) -> bool:
        """Whether anything at all has been recorded."""
        return any(v for v in asdict(self).values())


class FleetTelemetry:
    """Read-through aggregation over per-node :class:`ServingTelemetry`."""

    def __init__(self) -> None:
        self._nodes: dict[str, ServingTelemetry] = {}
        self.resilience = ResilienceCounters()
        # Optional cascade attachment: any object with snapshot() -> dict
        # (a repro.cascade CascadeTelemetry), set by a CascadeExecutor
        # serving through the cluster router; surfaced in snapshot().
        self.cascade: "object | None" = None
        # Availability accounting: observed downtime per node, in virtual
        # seconds.  Down/up marks come from the router at crash *detection*
        # and probe-passed revival, so availability measures what clients
        # could observe, not the (unknowable) instant of the crash itself.
        self._downtime_s: dict[str, float] = {}
        self._down_since: dict[str, float] = {}

    # -- registration ------------------------------------------------------

    def attach(self, name: str, telemetry: ServingTelemetry) -> None:
        """Register one node's telemetry sink under its node name."""
        existing = self._nodes.get(name)
        if existing is not None and existing is not telemetry:
            raise ValueError(f"node {name!r} already attached to a different sink")
        self._nodes[name] = telemetry

    def node(self, name: str) -> ServingTelemetry:
        """One node's sink (KeyError with the known names otherwise)."""
        try:
            return self._nodes[name]
        except KeyError:
            known = ", ".join(sorted(self._nodes)) or "<none>"
            raise KeyError(f"no telemetry for node {name!r}; attached: {known}") from None

    @property
    def node_names(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- availability ------------------------------------------------------

    def mark_node_down(self, name: str, now: float) -> None:
        """A node left service involuntarily at virtual ``now``."""
        if name not in self._down_since:
            self._down_since[name] = float(now)

    def mark_node_up(self, name: str, now: float) -> None:
        """A down node rejoined at virtual ``now`` (idempotent)."""
        since = self._down_since.pop(name, None)
        if since is not None:
            self._downtime_s[name] = (
                self._downtime_s.get(name, 0.0) + float(now) - since
            )

    def downtime_s(self, name: str, now: float) -> float:
        """Observed downtime of one node through virtual ``now``."""
        down = self._downtime_s.get(name, 0.0)
        since = self._down_since.get(name)
        if since is not None:
            down += max(0.0, float(now) - since)
        return down

    def availability(self, now: float) -> float:
        """Time-weighted fraction of node-uptime over ``[0, now]``.

        1.0 with no recorded downtime; each node's observed down windows
        (detection -> probe-passed revival) count against it equally.
        """
        if not self._nodes or now <= 0.0:
            return 1.0
        total_down = sum(self.downtime_s(name, now) for name in self._nodes)
        return 1.0 - total_down / (len(self._nodes) * float(now))

    # -- rollups -----------------------------------------------------------

    def merged(self) -> ServingTelemetry:
        """Every node's outcomes in one sink, merged in node-name order:
        fleet counters, exact percentiles over every sample, peak depths,
        and each tenant's ledger merged across nodes."""
        return ServingTelemetry.merge(
            self._nodes[name] for name in sorted(self._nodes)
        )

    def recent_p99_s(self) -> "float | None":
        """Tail of the fleet's *recent* windows (None before any service).

        This is the cheap signal the autoscaler compares against the SLO:
        merged over each node's bounded rolling window, so its cost stays
        constant no matter how long the fleet has been serving.
        """
        merged: list[float] = []
        for telemetry in self._nodes.values():
            merged.extend(telemetry.recent.samples)
        if not merged:
            return None
        return float(np.percentile(merged, 99.0))

    def online_snapshot(self) -> dict:
        """Fleet-wide online-predictor rollup (empty without one).

        Routing-side counters (decisions, fallback occupancy, drift
        invalidations) sum across nodes.  Predictor-side counters (refits,
        refit reuses, drift flags, recoveries) take the max instead: fleets
        normally share one :class:`~repro.sched.online.OnlinePredictor`, so
        every node reports the same fleet-wide totals and summing would
        multiply-count them.  Active flags merge as a set union.
        """
        per_node: dict[str, dict] = {}
        for name in sorted(self._nodes):
            fn = self._nodes[name].online
            if fn is None:
                continue
            snap = fn()
            if snap:
                per_node[name] = snap
        if not per_node:
            return {}
        decisions = sum(s["decisions"] for s in per_node.values())
        fallback = sum(s["fallback_decisions"] for s in per_node.values())
        flags: set[str] = set()
        for s in per_node.values():
            flags.update(s["predictor"].get("active_flags", ()))
        return {
            "nodes": len(per_node),
            "decisions": decisions,
            "fallback_decisions": fallback,
            "fallback_occupancy": fallback / decisions if decisions else 0.0,
            "drift_invalidations": sum(
                s["drift_invalidations"] for s in per_node.values()
            ),
            "refits": max(s["predictor"]["refits"] for s in per_node.values()),
            "refit_reuses": max(
                s["predictor"]["refit_reuses"] for s in per_node.values()
            ),
            "drift_flags": max(
                s["predictor"]["drift_flags"] for s in per_node.values()
            ),
            "recoveries": max(
                s["predictor"]["recoveries"] for s in per_node.values()
            ),
            "active_flags": sorted(flags),
        }

    def snapshot(self) -> dict:
        """The merged rollup (see :meth:`merged`) plus the fleet-only
        blocks and one sub-snapshot per node."""
        out: dict = {"nodes": len(self), **self.merged().snapshot()}
        # Fault-free snapshots stay byte-identical: the resilience block
        # only appears once something was actually recorded.
        if self.resilience.any():
            out["resilience"] = asdict(self.resilience)
        if self.cascade is not None:
            out["cascade"] = self.cascade.snapshot()
        online = self.online_snapshot()
        if online:
            out["online"] = online
        out["per_node"] = {
            name: telemetry.snapshot()
            for name, telemetry in sorted(self._nodes.items())
        }
        return out
