"""The references placement is held to: uncached walks, kept out of ``src/``.

:class:`~repro.sched.backlog.BacklogAwareScheduler` serves every
``decide`` / ``estimate_completion`` through its decision cache, and the
predictor scores through tree arenas.  Both are fast paths
whose contract is bit-identity with a slow, obviously-correct walk.  The
walks live here:

* :class:`UncachedBacklog` re-resolves every decision from scratch — the
  routing plan, the candidate enumeration, the outcome-table estimate —
  and never touches the decision cache.  :func:`use_uncached` installs it
  on a freshly built frontend or fleet, so a replay through it is the
  reference a cached replay must equal outcome for outcome.
* :func:`tree_proba_recursive` / :func:`forest_proba_recursive` walk the
  arenas that the grower writes each tree into
  (:class:`~repro.ml.flatten.FlatForest`) one Python node per visit,
  where the fast path routes all samples one level per numpy step.

Keep :class:`UncachedBacklog` an independent walk: built on
``_entry_for`` it would stop being a reference for the cache.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_fitted
from repro.sched.backlog import BacklogAwareScheduler, BacklogDecision
from repro.sched.feedback import CellKey

__all__ = [
    "UncachedBacklog",
    "use_uncached",
    "tree_proba_recursive",
    "forest_proba_recursive",
]


class UncachedBacklog(BacklogAwareScheduler):
    """A backlog scheduler whose every placement walks the candidates anew."""

    def _earliest_finisher(
        self, model: str, cell: CellKey, ranked: "tuple[str, ...]",
        limit: int, arrival_s: float,
    ) -> "tuple[str, float, str, object]":
        """Earliest estimated completion among eligible devices (uncached).

        Walks the same candidate enumeration the cache binds
        (:meth:`_eligible_devices`) with the same strict ``<`` tie-break,
        so the uncached reference path and the hit path agree bit for bit.
        """
        best, best_completion = None, float("inf")
        for device_class, device in self._eligible_devices(model, ranked, limit):
            queue = self.scheduler.queue_for(device.name)
            wait = max(0.0, queue.current_time - arrival_s)
            est = self._service.estimate(cell, device_class, arrival_s)
            # Unmeasured candidates assume zero service: optimistic start
            # that self-corrects after the first dispatch.
            service = est.value if est is not None else 0.0
            completion = wait + service
            if completion < best_completion:
                best = (device_class, device.name, queue)
                best_completion = completion
        if best is None:
            return None, best_completion, None, None
        return best[0], best_completion, best[1], best[2]

    def estimate_completion(self, spec, batch: int, arrival_s: float):
        gpu_state = self.scheduler.probe_gpu_state(now=arrival_s)
        ranked, limit, _ = self._routing_plan(spec, batch, gpu_state)
        cell = CellKey.of(spec.name, batch, gpu_state)
        best_device, best_completion, _, _ = self._earliest_finisher(
            spec.name, cell, ranked, limit, arrival_s
        )
        return best_device, best_completion

    def decide(self, spec, batch: int, arrival_s: float) -> BacklogDecision:
        gpu_state = self.scheduler.probe_gpu_state(now=arrival_s)
        self._n_decisions += 1
        ranked, limit, fallback = self._routing_plan(spec, batch, gpu_state)
        cell = CellKey.of(spec.name, batch, gpu_state)
        best_device, _, device_name, queue = self._earliest_finisher(
            spec.name, cell, ranked, limit, arrival_s
        )
        if fallback:
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


def use_uncached(target):
    """Swap the uncached walk into a freshly built frontend or fleet.

    ``target`` is a :class:`~repro.serving.ServingFrontend` or a list of
    :class:`~repro.cluster.ClusterNode` (as :func:`~repro.cluster.make_fleet`
    returns).  Each frontend gets an :class:`UncachedBacklog` over the same
    scheduler, policy, rank span and outcome-table settings, and its
    telemetry reads online stats from the new backlog.  Call it before any
    traffic or placement setting (mask, preference, pin) reaches the
    frontend; returns ``target``.
    """
    frontends = (
        [node.frontend for node in target] if isinstance(target, list) else [target]
    )
    for frontend in frontends:
        cached = frontend.backlog
        if cached._n_decisions or cached.cache_stats()["misses"]:
            raise AssertionError("use_uncached needs a frontend with no placements")
        frontend.backlog = UncachedBacklog(
            cached.scheduler,
            policy=cached.policy,
            max_rank=cached.max_rank,
            service_alpha=cached._service.alpha,
            service_ttl_s=cached._service.ttl_s,
        )
        frontend.telemetry.online = frontend.backlog.online_stats
    return target


def tree_proba_recursive(tree, x: np.ndarray) -> np.ndarray:
    """Reference path: walk a fitted tree's arena one node per visit.

    One interpreter iteration per node makes it the slow baseline the
    wall-clock harness measures the flat path against.
    """
    x = tree._check_x(x)
    arena = tree.arena_
    feature, threshold = arena.feature.tolist(), arena.threshold.tolist()
    left, right, proba = arena.left.tolist(), arena.right.tolist(), arena.proba
    out = np.empty((x.shape[0], tree.n_classes_))
    # Iterative routing: partition index sets node by node (no Python
    # loop over individual samples).
    stack = [(0, np.arange(x.shape[0]))]
    while stack:
        i, idx = stack.pop()
        if idx.size == 0:
            continue
        if feature[i] < 0:
            out[idx] = proba[i]
            continue
        mask = x[idx, feature[i]] <= threshold[i]
        stack.append((left[i], idx[mask]))
        stack.append((right[i], idx[~mask]))
    return out


def forest_proba_recursive(forest, x: np.ndarray) -> np.ndarray:
    """Reference path: average per-tree arena walks (slow)."""
    check_fitted(forest, "trees_")
    proba = tree_proba_recursive(forest.trees_[0], x)
    for tree in forest.trees_[1:]:
        proba = proba + tree_proba_recursive(tree, x)
    return proba / len(forest.trees_)
