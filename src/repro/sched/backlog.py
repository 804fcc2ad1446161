"""Backlog-aware placement: don't pile every request on the 'best' device.

Under an overload (§I: "application overloads"), the predictor keeps
naming the same winner for every request, and its queue grows without
bound while the other devices idle.  :class:`BacklogAwareScheduler`
accounts the queue: each candidate device's *completion* time is its
current backlog plus a learned service-time estimate, and the request goes
to the earliest finisher among the devices the predictor ranks highly.

Service times are learned online per (cell, device) from realized
dispatches (:class:`~repro.sched.feedback.OutcomeTable`), so no oracle
previews are consulted.  That table is also how placement adapts to
system changes: a contended device's realized service time rises and the
argmin moves off it; an unmeasured (or aged-out) device is assumed to
serve in zero time, so alternatives get probed and a recovered device is
re-tried once its stale estimate expires.

The request path through :meth:`BacklogAwareScheduler.decide` /
:meth:`~BacklogAwareScheduler.estimate_completion` is serving-hot (a
cluster balancer probes it once per node per arrival), so every decision
is served through a cache (see :class:`_DecisionEntry`): the predictor's
ranking and the eligible (device, queue, estimate) bindings are resolved
once per (model, batch interval, log2 batch bucket, dGPU-state) cell,
while backlog waits and learned service values are always read live.
Cached decisions are bit-identical by construction to a walk that
re-resolves every candidate from scratch; that uncached walk is the
reference the test suite holds the cache to
(``tests/placement_oracle.py``), not a mode of this class.  A batch
interval lies between two consecutive thresholds the predictor's trees
split the batch column at (:meth:`DevicePredictor.batch_cuts
<repro.sched.predictor.DevicePredictor.batch_cuts>`), so the ranking is
fixed within it; the log2 bucket fixes the outcome-table cell and the
drift-fallback plan, which are all an entry reads of the batch.
Validity is settled on write, as entries are probed far more often than
their state changes: each write marks dead exactly the entries it stales
(a feedback observation its cell's, through a cell -> entries index; a
refit, swap or repartition all).  A per-request (model, batch, dGPU
state) index fronts the cache, so a hit runs no bisect, bucket or cell
hash.  The dGPU state probe and the argmin's float expressions stay per
probe: lazy cooling depends on the probe path, and ``max(0.0, ...)`` maps
a NaN backlog to zero where a conditional would not.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from repro.checks import require_count, require_finite
from repro.errors import SchedulerError
from repro.nn.builders import ModelSpec
from repro.ocl.event import Event
from repro.sched.feedback import CellKey, OutcomeTable, batch_bucket
from repro.sched.policies import Policy
from repro.sched.scheduler import OnlineScheduler

__all__ = ["BacklogDecision", "BacklogAwareScheduler"]


@dataclass(frozen=True, slots=True)
class BacklogDecision:
    """A queue-aware placement."""

    device: str
    device_name: str
    gpu_state: str
    wait_s: float             # backlog the request will sit behind
    ranked: tuple[str, ...]   # predictor's device ranking for the request
    spilled: bool             # True if we skipped the top-ranked device


class _DecisionEntry:
    """One cached (model, batch interval, log2 bucket, dGPU-state) cell.

    Holds only what is *structurally* fixed for the cell — the predictor's
    ranking (fixed per batch interval), and for each eligible device class
    its name, command queue and current outcome-table estimate binding
    (fixed per log2 bucket, as is the drift-fallback plan).  Queue backlog
    (``current_time``) and estimate freshness are evaluated live at every
    use, so a hit runs the exact float expressions the test oracle's
    uncached walk runs.
    ``live`` is cleared by the write that stales the entry: an observation
    for its cell (which may replace the estimate object it binds), or the
    mask, bias, drift or topology change that drops it.
    """

    __slots__ = ("ranked", "eligible", "fallback", "live")

    def __init__(self, ranked, eligible, fallback=False):
        self.ranked = ranked        # full predictor ranking (for spill checks)
        self.eligible = eligible    # ((class, device_name, queue, estimate), ...)
        self.fallback = fallback    # built in drift fallback mode (see online)
        self.live = True


class BacklogAwareScheduler:
    """Queue-aware wrapper around an :class:`OnlineScheduler`.

    Parameters
    ----------
    scheduler:
        The base scheduler (its predictor supplies the ranking prior).
    policy:
        The policy whose predictor ranks candidates.
    max_rank:
        How many of the predictor's ranked devices are eligible (the
        remaining ones are considered wrong-by-architecture, not merely
        busy, and are never spilled to).
    """

    def __init__(
        self,
        scheduler: OnlineScheduler,
        policy: "Policy | str" = Policy.THROUGHPUT,
        max_rank: int = 2,
        service_alpha: float = 0.5,
        service_ttl_s: float = 60.0,
    ):
        require_count("max_rank", max_rank)
        require_finite("service_ttl_s", service_ttl_s)
        self.scheduler = scheduler
        self.policy = Policy.parse(policy)
        self.max_rank = max_rank
        self._service = OutcomeTable(alpha=service_alpha, ttl_s=service_ttl_s)
        self.n_spills = 0
        # Live device mask: None serves every device in the context; a
        # frozenset of class values and/or device names restricts placement
        # to matching devices (degraded-mode scheduling after a dropout;
        # per-partition dropouts on partitioned accelerators).  See
        # set_device_mask.
        self._device_mask: "frozenset[str] | None" = None
        # Decision cache (see module docstring for the invalidation rules).
        self._entries: "dict[tuple, _DecisionEntry]" = {}
        self._requests: "dict[tuple, _DecisionEntry]" = {}
        self._cell_entries: "dict[CellKey, list[_DecisionEntry]]" = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._refit_clears = 0
        self._feedback_invalidations = 0
        self._seen_predictor: "object | None" = None
        self._seen_generation: "int | None" = -1
        self._seen_cuts: "tuple[float, ...] | None" = None   # its batch_cuts()
        self._mask_invalidations = 0
        # Per-model placement bias (cascade stage pinning): model name ->
        # preferred device classes, moved to the front of the predictor's
        # ranking for that model only.  See set_model_preference.
        self._model_preferences: "dict[str, tuple[str, ...]]" = {}
        self._preference_invalidations = 0
        # Per-model device pins (partition placement): model name ->
        # (device names, their classes).  Class-scoped semantics: among
        # devices of a pinned class, only the pinned names are eligible for
        # that model; other classes are unaffected.  See
        # set_model_device_pin.
        self._model_pins: "dict[str, tuple[tuple[str, ...], frozenset[str]]]" = {}
        self._repartition_invalidations = 0
        # Online-predictor bookkeeping (inert with a plain predictor):
        # drift flag flips invalidate matching cache cells, and decisions
        # made in drift fallback mode are counted for occupancy telemetry.
        self._drift_invalidations = 0
        self._n_decisions = 0
        self._n_fallback_decisions = 0

    # -- device mask (degraded-mode scheduling) ----------------------------

    def _mask_allows(self, device) -> bool:
        """Whether the live mask admits one device (by class or by name)."""
        mask = self._device_mask
        return (
            mask is None
            or device.device_class.value in mask
            or device.name in mask
        )

    def _available_names(self) -> "frozenset[str]":
        return frozenset(
            d.name for d in self.scheduler.context.devices if self._mask_allows(d)
        )

    def available_classes(self) -> "set[str]":
        """Device classes placements may use: classes of unmasked devices."""
        return {
            d.device_class.value
            for d in self.scheduler.context.devices
            if self._mask_allows(d)
        }

    @property
    def device_mask(self) -> "frozenset[str] | None":
        return self._device_mask

    def set_device_mask(self, tokens: "frozenset[str] | set[str] | None") -> None:
        """Restrict (or restore) the devices eligible for placement.

        ``tokens`` mixes device-class values ('dgpu') and device names
        ('gtx-1080ti.p1of4'): a device stays eligible when its class *or*
        its name is in the mask.  Masking by class is the degraded-mode
        path of the faults layer (a dGPU dropout pushes traffic onto
        CPU/iGPU mid-flood); masking by name drops one partition of a
        device while its same-class siblings keep serving.

        The generalization of the paper's dGPU idle/warm state handling
        (§V): instead of only re-ranking when the fast device changes
        *state*, the mask re-ranks when a device drops out entirely.  Only
        the decision-cache cells the change can affect are invalidated:
        entries that ranked a removed class or bound a removed device;
        every entry when a device is (re)added, since new capacity can
        improve any cell's placement.
        """
        before_names = self._available_names()
        before_classes = self.available_classes()
        if tokens is None:
            self._device_mask = None
        else:
            mask = frozenset(tokens)
            devices = self.scheduler.context.devices
            if not any(
                d.device_class.value in mask or d.name in mask for d in devices
            ):
                present = sorted(
                    {d.device_class.value for d in devices}
                    | {d.name for d in devices}
                )
                raise SchedulerError(
                    f"device mask {sorted(mask)} leaves no device to place on "
                    f"(context has: {present})"
                )
            self._device_mask = mask
        after_names = self._available_names()
        removed_names = before_names - after_names
        added_names = after_names - before_names
        if not removed_names and not added_names:
            return
        if added_names:
            self._mask_invalidations += self._drop(list(self._entries))
            return
        removed_classes = before_classes - self.available_classes()
        self._mask_invalidations += self._drop([
            key for key, entry in self._entries.items()
            if any(c in entry.ranked for c in removed_classes)
            or any(item[1] in removed_names for item in entry.eligible)
        ])

    # -- per-model placement bias (cascade stage pinning) ------------------

    def model_preference(self, model: str) -> "tuple[str, ...] | None":
        """The placement bias set for a model, if any."""
        return self._model_preferences.get(model)

    def set_model_preference(
        self, model: str, classes: "tuple[str, ...] | list[str] | None"
    ) -> None:
        """Bias one model's ranking toward the given device classes.

        A cascade pins its cheap stage to CPU/iGPU and its heavy stage to
        the dGPU without disturbing other models' placements: the named
        classes are moved (in the given order) to the front of the
        predictor's ranking for this model only, so with ``max_rank >= 2``
        the backlog spill still works *within* the preferred set.  Classes
        absent from a node are skipped — a dGPU bias on a dGPU-less node
        degrades to the plain predictor order.  ``None`` clears the bias.
        Stale decision-cache cells for the model are invalidated.
        """
        if classes is None:
            if self._model_preferences.pop(model, None) is not None:
                self.invalidate_model(model)
            return
        preferred = tuple(classes)
        known = {"cpu", "igpu", "dgpu"}
        bad = [c for c in preferred if c not in known]
        if bad:
            raise SchedulerError(
                f"unknown device classes in preference {bad}; known: {sorted(known)}"
            )
        if self._model_preferences.get(model) == preferred:
            return
        self._model_preferences[model] = preferred
        self.invalidate_model(model)

    def invalidate_model(self, model: str) -> int:
        """Drop every cached decision cell for one model.

        Used when something *about the model's traffic* changed without a
        predictor refit — its placement bias, or a cascade controller
        retuning the exit threshold that shapes its batch mix.  Returns the
        number of entries dropped.
        """
        n = self._drop([key for key in self._entries if key[0] == model])
        self._preference_invalidations += n
        return n

    # -- per-model device pins (partition placement) -----------------------

    def set_model_device_pin(
        self, model: str, names: "tuple[str, ...] | list[str] | None"
    ) -> None:
        """Pin one model to specific devices *by name* (tenant placement).

        Where :meth:`set_model_preference` biases the ranking between
        device *classes*, a pin restricts eligibility *within* a class:
        among devices of a pinned name's class, only the pinned devices may
        serve this model — that is how a latency tenant's partition stays
        clear of a batch tenant's flood.  Classes with no pinned device are
        unaffected, so the backlog spill can still escape to CPU/iGPU when
        the pinned partition saturates.  Pinned classes also move to the
        front of the predictor's ranking (the pin should attract the
        model's traffic, not merely fence it).  ``None`` clears the pin.
        Stale decision-cache cells for the model are invalidated.
        """
        if names is None:
            if self._model_pins.pop(model, None) is not None:
                self.invalidate_model(model)
            return
        pinned = tuple(dict.fromkeys(names))
        if not pinned:
            raise SchedulerError(
                f"empty device pin for {model!r}; pass None to clear"
            )
        devices = {d.name: d for d in self.scheduler.context.devices}
        unknown = [n for n in pinned if n not in devices]
        if unknown:
            raise SchedulerError(
                f"cannot pin {model!r} to unknown devices {unknown} "
                f"(context has: {sorted(devices)})"
            )
        classes = frozenset(devices[n].device_class.value for n in pinned)
        pin = (pinned, classes)
        if self._model_pins.get(model) == pin:
            return
        self._model_pins[model] = pin
        self.invalidate_model(model)

    # -- ranking -----------------------------------------------------------

    def rank_devices(self, spec: ModelSpec, batch: int, gpu_state: str) -> tuple[str, ...]:
        """Predictor's device ranking (probability order; fall back to the
        argmax-first order when the estimator has no predict_proba).

        The ranking is filtered to device classes actually present in the
        scheduler's context *and* currently unmasked: a predictor trained
        on the full testbed keeps working on a leaner node (e.g. a cluster
        node without a dGPU) — or on a node whose dGPU just dropped out —
        by ranking only the devices the node can place on right now.
        """
        predictor = self.scheduler.predictors[self.policy]
        available = self.available_classes()
        # The predictor memoizes each cell's class order once, shared by
        # every node: a decision-cache miss here only filters it.
        cell = predictor.cell(spec, batch, gpu_state)
        if cell is not None:
            ranked = tuple(c for c in cell[1] if c in available)
        else:
            top = predictor.predict_device(spec, batch, gpu_state)
            rest = (c for c in ("cpu", "dgpu", "igpu") if c != top)
            ranked = tuple(c for c in (top, *rest) if c in available)
        if not ranked:
            raise SchedulerError(
                f"no ranked device class present in context (has: {sorted(available)})"
            )
        return self._apply_model_bias(spec.name, ranked)

    def _apply_model_bias(
        self, model: str, ranked: "tuple[str, ...]"
    ) -> "tuple[str, ...]":
        """Apply per-model preference / pin reordering to a class ranking."""
        preference = self._model_preferences.get(model)
        if preference:
            front = tuple(c for c in preference if c in ranked)
            if front:
                ranked = front + tuple(c for c in ranked if c not in front)
        pin = self._model_pins.get(model)
        if pin is not None:
            front = tuple(c for c in ranked if c in pin[1])
            if front:
                ranked = front + tuple(c for c in ranked if c not in pin[1])
        return ranked

    # -- online predictor (drift-aware fallback) ---------------------------

    def _online_predictor(self):
        """The installed predictor, if it is an online one (else None)."""
        predictor = self.scheduler.predictors[self.policy]
        return predictor if getattr(predictor, "is_online", False) else None

    def _fallback_ranking(self, model: str) -> "tuple[str, ...]":
        """Predictor-free candidate order for a drift-flagged cell.

        Canonical class order filtered to available devices — the ranking
        carries no predictor opinion, so placement degrades to pure
        backlog + outcome-table signals.  Preferences and pins still
        apply: tenant isolation must survive a drift episode.
        """
        available = self.available_classes()
        ranked = tuple(
            c for c in ("cpu", "dgpu", "igpu") if c in available
        )
        if not ranked:
            raise SchedulerError(
                f"no device class available for fallback placement "
                f"(mask: {sorted(self._device_mask or ())})"
            )
        return self._apply_model_bias(model, ranked)

    def _routing_plan(
        self, spec: ModelSpec, batch: int, gpu_state: str
    ) -> "tuple[tuple[str, ...], int, bool]":
        """(ranked, eligible span, fallback?) for one decision cell.

        Predictor-ranked with the usual ``max_rank`` span normally; when
        the online predictor flags the (model, batch-bucket) cell stale,
        the plan degrades to the fallback ranking with *every* class
        eligible — the backlog argmin decides, not the distrusted forest.
        """
        online = self._online_predictor()
        if online is not None and online.is_stale(spec.name, batch):
            ranked = self._fallback_ranking(spec.name)
            return ranked, len(ranked), True
        ranked = self.rank_devices(spec, batch, gpu_state)
        return ranked, self.max_rank, False

    # -- service-time estimates --------------------------------------------

    def service_estimate(
        self, model: str, batch: int, gpu_state: str, device: str, now: float
    ) -> "float | None":
        """Learned service seconds for a (cell, device), or None if unseen.

        None means *no realized dispatch has been observed* for the cell on
        that device (cold start) or the estimate has aged past its TTL.
        """
        est = self._service.estimate(CellKey.of(model, batch, gpu_state), device, now)
        return est.value if est is not None else None

    def record_service(
        self, model: str, batch: int, gpu_state: str, device: str,
        service_s: float, now: float,
    ) -> None:
        """Fold one realized service time into the learned table.

        External executors (e.g. a serving frontend's device workers) use
        this to close the feedback loop that :meth:`submit_virtual` closes
        internally.  Non-finite values are rejected here (not only in the
        table) so callers get an error naming the argument: one NaN/inf
        folded into the EWMA would silently poison every later estimate.
        """
        require_finite("service_s", service_s, positive=False)
        cell = CellKey.of(model, batch, gpu_state)
        self._observe_service(cell, batch, device, service_s, now)

    def _observe_service(
        self, cell: CellKey, batch: int, device: str, service_s: float, now: float
    ) -> None:
        """Fold one realized service time into the learned table — and,
        when an online predictor is installed, into its refresh loop.

        The residual the drift detector sees is (realized - predicted) /
        predicted where "predicted" is the *prior* fresh estimate — read
        before this observation updates it, i.e. exactly what the
        scheduler believed when it placed the work.
        """
        online = self._online_predictor()
        predicted = None
        if online is not None:
            prior = self._service.estimate(cell, device, now)
            predicted = prior.value if prior is not None else None
        self._service.observe(cell, device, service_s, now=now)
        for entry in self._cell_entries.pop(cell, ()):   # the entries it stales
            entry.live = False
        self._feedback_invalidations += 1
        if online is not None:
            events = online.observe(
                cell.model, batch, cell.gpu_state, device,
                service_s, predicted, now,
            )
            if events.any:
                self._apply_online_events(events)

    def _apply_online_events(self, events) -> None:
        """Invalidate the decision cells a drift flag flip touched.

        A flip changes the cell's routing *plan* (predictor-ranked vs
        fallback), which the cache froze at build time — so every entry
        for the flipped (model, batch-bucket), across both dGPU states
        and all batch intervals in the bucket, is dropped.  Refits
        need nothing here: the bumped ``fit_generation`` already clears
        the cache wholesale in ``_entry_for``.
        """
        for key in (*events.flagged, *events.recovered):
            self._drift_invalidations += self._drop([
                k for k in self._entries
                if k[0] == key.model and k[2] == key.batch_bucket
            ])

    # -- decision cache ----------------------------------------------------

    def _drop(self, keys: list) -> int:
        """Delete and kill the entries under ``keys``; returns how many."""
        for key in keys:
            self._entries.pop(key).live = False
        return len(keys)

    def invalidate(self) -> None:
        """Drop every cached decision (device-set or topology changes)."""
        self._drop(list(self._entries))
        self._refit_clears += 1

    def notify_repartition(self) -> int:
        """The device topology changed under the scheduler (a partition
        split or merge replaced devices): cached entries may bind retired
        queues or rank classes whose device set changed, so every entry is
        dropped.  Returns the number of entries invalidated.
        """
        n = self._drop(list(self._entries))
        self._repartition_invalidations += n
        return n

    def cache_stats(self) -> dict:
        """Decision-cache effectiveness counters (for telemetry surfaces)."""
        total = self._cache_hits + self._cache_misses
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "hit_rate": (self._cache_hits / total) if total else 0.0,
            "entries": len(self._entries),
            "refit_clears": self._refit_clears,
            "feedback_invalidations": self._feedback_invalidations,
            "mask_invalidations": self._mask_invalidations,
            "preference_invalidations": self._preference_invalidations,
            "repartition_invalidations": self._repartition_invalidations,
            "drift_invalidations": self._drift_invalidations,
        }

    def online_stats(self) -> "dict | None":
        """Online-refresh telemetry, or None with a plain predictor.

        Combines the installed :class:`~repro.sched.online.OnlinePredictor`
        snapshot (refits, drift flags, per-cell error quantiles) with this
        scheduler's routing-side counters (fallback occupancy, drift
        invalidations).  None keeps non-online telemetry byte-identical.
        """
        online = self._online_predictor()
        if online is None:
            return None
        decisions = self._n_decisions
        return {
            "decisions": decisions,
            "fallback_decisions": self._n_fallback_decisions,
            "fallback_occupancy": (
                self._n_fallback_decisions / decisions if decisions else 0.0
            ),
            "drift_invalidations": self._drift_invalidations,
            "predictor": online.snapshot(),
        }

    def _eligible_devices(self, model: str, ranked: "tuple[str, ...]", limit: int):
        """Candidate (device_class, device) pairs for one decision.

        Enumerated in ranking order, then context order within a class —
        in the classic one-device-per-class context this is exactly the
        old single-candidate-per-class walk; with partitioned contexts
        every unmasked (and pin-allowed) device of each top-ranked class
        competes.  Both the cached entry build and the test oracle's
        uncached walk use this enumeration, so cached placements stay
        bit-identical to the reference's.
        """
        pin = self._model_pins.get(model)
        devices = self.scheduler.context.devices
        out = []
        for device_class in ranked[:limit]:
            for device in devices:
                if device.device_class.value != device_class:
                    continue
                if not self._mask_allows(device):
                    continue
                if (
                    pin is not None
                    and device_class in pin[1]
                    and device.name not in pin[0]
                ):
                    continue
                out.append((device_class, device))
        if not out and pin is not None:
            # The pinned partitions were masked out (or retired under us):
            # fall back to the unpinned enumeration rather than stranding
            # the model — degraded placement beats no placement.
            for device_class in ranked[:limit]:
                for device in devices:
                    if (
                        device.device_class.value == device_class
                        and self._mask_allows(device)
                    ):
                        out.append((device_class, device))
        return out

    def _entry_for(self, spec: ModelSpec, batch: int, gpu_state: str) -> _DecisionEntry:
        """Cached bindings for a decision cell, (re)built when invalid."""
        predictor = self.scheduler.predictors[self.policy]
        generation = getattr(predictor, "fit_generation", None)
        if predictor is not self._seen_predictor or generation != self._seen_generation:
            # A refit (or a predictor swap) may reorder every ranking.
            self._seen_cuts = predictor.batch_cuts()
            if self._drop(list(self._entries)):
                self._refit_clears += 1
            self._seen_predictor = predictor
            self._seen_generation = generation
        cuts = self._seen_cuts
        # repro.sched.predictor.batch_interval, inlined: hits are serving-hot.
        key = (
            spec.name,
            bisect_left(cuts, float(batch)) if cuts is not None else batch,
            batch_bucket(batch),
            gpu_state,
        )
        entry = self._entries.get(key)
        if entry is not None and entry.live:
            self._cache_hits += 1
        else:
            self._cache_misses += 1
            ranked, limit, fallback = self._routing_plan(spec, batch, gpu_state)
            cell = CellKey.of(spec.name, batch, gpu_state)
            eligible = []
            for device_class, device in self._eligible_devices(spec.name, ranked, limit):
                queue = self.scheduler.queue_for(device.name)
                eligible.append(
                    (device_class, device.name, queue, self._service.binding(cell, device_class))
                )
            entry = _DecisionEntry(ranked, tuple(eligible), fallback)
            self._entries[key] = entry
            live = [e for e in self._cell_entries.get(cell, ()) if e.live]
            self._cell_entries[cell] = [*live, entry]   # dead ones pruned: bounded
        self._requests[spec.name, batch, gpu_state] = entry
        return entry

    def _finisher_from(
        self, entry: _DecisionEntry, arrival_s: float
    ) -> "tuple[str, float, str, object]":
        """Cached-path argmin: the exact float expressions of an uncached walk.

        Backlog (``queue.current_time``) and estimate freshness are read
        live; only the bindings come from the cache, so the returned
        (device, completion) is bit-identical to the test oracle's
        uncached walk.  :meth:`estimate_completion` inlines this loop.
        """
        ttl = self._service.ttl_s
        best = None
        best_completion = math.inf
        for candidate in entry.eligible:
            queue = candidate[2]
            est = candidate[3]
            wait = max(0.0, queue.current_time - arrival_s)
            # Same staleness predicate as OutcomeTable.estimate(); same
            # zero-service optimism for unmeasured candidates.
            if est is not None and not (arrival_s - est.updated_at > ttl):
                service = est.value
            else:
                service = 0.0
            completion = wait + service
            if completion < best_completion:
                best, best_completion = candidate, completion
        if best is None:
            return None, best_completion, None, None
        return best[0], best_completion, best[1], best[2]

    def estimate_completion(
        self, spec: ModelSpec, batch: int, arrival_s: float
    ) -> tuple[str, float]:
        """(device, estimated completion delay) without committing anything.

        The delay is backlog wait plus the learned service estimate on the
        earliest-finishing eligible device — the quantity an admission
        controller compares against a request's deadline budget.
        """
        gpu_state = self.scheduler.probe_gpu_state(arrival_s)
        # Inlined hit path: writes clear ``live``; only refits are checked.
        entry = self._requests.get((spec.name, batch, gpu_state))
        predictor = self.scheduler.predictors[self.policy]
        if entry is not None and entry.live and predictor is self._seen_predictor and (
            getattr(predictor, "fit_generation", None) == self._seen_generation
        ):
            self._cache_hits += 1
        else:
            entry = self._entry_for(spec, batch, gpu_state)
        ttl = self._service.ttl_s
        best = None
        best_completion = math.inf
        for device, _, queue, est in entry.eligible:
            wait = max(0.0, queue.current_time - arrival_s)
            if est is not None and not (arrival_s - est.updated_at > ttl):
                service = est.value
            else:
                service = 0.0
            completion = wait + service
            if completion < best_completion:
                best, best_completion = device, completion
        return best, best_completion

    # -- placement ---------------------------------------------------------

    def decide(self, spec: ModelSpec, batch: int, arrival_s: float) -> BacklogDecision:
        """Pick the earliest-finishing device among the top-ranked ones."""
        gpu_state = self.scheduler.probe_gpu_state(now=arrival_s)
        self._n_decisions += 1
        entry = self._entry_for(spec, batch, gpu_state)
        best_device, _, device_name, queue = self._finisher_from(entry, arrival_s)
        ranked = entry.ranked
        if entry.fallback:
            self._n_fallback_decisions += 1
        spilled = best_device != ranked[0]
        if spilled:
            self.n_spills += 1
        return BacklogDecision(
            device=best_device,
            device_name=device_name,
            gpu_state=gpu_state,
            wait_s=max(0.0, queue.current_time - arrival_s),
            ranked=ranked,
            spilled=spilled,
        )

    def submit_virtual(
        self, spec: ModelSpec, batch: int, arrival_s: float
    ) -> tuple[BacklogDecision, Event]:
        """Decide, dispatch (timing-only), and learn the service time."""
        decision = self.decide(spec, batch, arrival_s)
        queue = self.scheduler.queue_for(decision.device_name)
        if queue.current_time < arrival_s:
            queue.advance_to(arrival_s)
        kernel = self.scheduler.dispatcher.kernel_for(decision.device_name, spec.name)
        event = queue.enqueue_inference_virtual(kernel, batch)
        cell = CellKey.of(spec.name, batch, decision.gpu_state)
        self._observe_service(
            cell, batch, decision.device, event.duration_s, event.time_ended
        )
        return decision, event
