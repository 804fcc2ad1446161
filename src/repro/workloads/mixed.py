"""Multi-model / multi-tenant trace mixing.

A production fleet never serves one model from one arrival process: it
serves a *mix* — a bursty recommendation stream over here, a flash crowd
on the search model over there, a trickle of heavy batch jobs underneath.
:class:`MixedTrace` interleaves any number of
:class:`~repro.workloads.streams.ArrivalProcess` components into a single
time-ordered :class:`~repro.workloads.requests.RequestTrace`, with
per-component model pools, thinning weights, policies and SLOs.

Seeding contract: ``build(rng)`` spawns one independent child generator
per component (:func:`repro.rng.spawn`), so every component's arrivals,
thinning coin-flips and model choices are reproducible in isolation —
adding a component never perturbs the others' randomness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import ensure_rng, spawn
from repro.workloads.requests import InferenceRequest, RequestTrace
from repro.workloads.streams import ArrivalProcess

__all__ = ["TraceComponent", "MixedTrace", "split_trace"]


def _model_name(model) -> str:
    return model if isinstance(model, str) else model.name


@dataclass(frozen=True)
class TraceComponent:
    """One tenant's contribution to a mixed trace.

    ``models`` is the pool this component draws from uniformly per
    request (names or ModelSpec-likes with a ``.name``); ``weight`` in
    (0, 1] thins the component's arrivals by independent coin flips, so
    traffic shares can be dialed without re-tuning every process rate.
    """

    process: ArrivalProcess
    models: tuple = ()
    weight: float = 1.0
    policy: str = "throughput"
    name: str = ""

    def __post_init__(self) -> None:
        if not self.models:
            raise ValueError("component needs at least one model")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"weight must be in (0, 1], got {self.weight}")

    @property
    def model_names(self) -> tuple[str, ...]:
        return tuple(_model_name(m) for m in self.models)


@dataclass(frozen=True)
class MixedTrace:
    """Builder that merges component streams into one ordered trace."""

    components: tuple[TraceComponent, ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("MixedTrace needs at least one component")

    def build(
        self,
        rng: "int | np.random.Generator | None" = None,
        n_requests: "int | None" = None,
    ) -> RequestTrace:
        """Generate, thin, merge and number the mixed trace.

        Ties (quantized streams collide constantly) order by component
        index then within-component order, so the merge is stable and a
        rebuild under the same seed is byte-identical.  ``n_requests``
        truncates to the first n requests in merged order — the knob the
        million-request bench uses to hit an exact trace size.
        """
        # The merge's numpy temporaries die with _columns, before the
        # requests are built, so they add nothing to the build's peak memory.
        columns = self._columns(ensure_rng(rng), n_requests)
        return RequestTrace(requests=InferenceRequest.from_columns(*columns))

    def _columns(self, gen: np.random.Generator, n_requests: "int | None") -> tuple:
        """The merged trace as ``InferenceRequest.from_columns`` columns."""
        children = spawn(gen, len(self.components))
        all_t: list[np.ndarray] = []
        all_batch: list[np.ndarray] = []
        all_comp: list[np.ndarray] = []
        all_model: list[np.ndarray] = []
        for ci, (comp, child) in enumerate(zip(self.components, children)):
            pairs = comp.process.generate(child)
            times = np.array([t for t, _ in pairs], dtype=np.float64)
            batches = np.array([b for _, b in pairs], dtype=np.int64)
            if comp.weight < 1.0:
                keep = child.random(times.size) < comp.weight
                times, batches = times[keep], batches[keep]
            model_idx = child.integers(len(comp.models), size=times.size)
            all_t.append(times)
            all_batch.append(batches)
            all_comp.append(np.full(times.size, ci, dtype=np.int64))
            all_model.append(model_idx)
        t = np.concatenate(all_t)
        batch = np.concatenate(all_batch)
        comp_idx = np.concatenate(all_comp)
        model_idx = np.concatenate(all_model)
        within = np.concatenate(
            [np.arange(a.size, dtype=np.int64) for a in all_t]
        )
        # lexsort keys run least- to most-significant.
        order = np.lexsort((within, comp_idx, t))
        if n_requests is not None:
            if n_requests < 0:
                raise ValueError(f"n_requests must be >= 0, got {n_requests}")
            order = order[:n_requests]
        comp_idx = comp_idx[order]
        arrivals = t[order]
        # Component ci's model j sits at flat[first[ci] + j].
        pools = [c.model_names for c in self.components]
        flat = [name for pool in pools for name in pool]
        first = np.cumsum([0] + [len(pool) for pool in pools[:-1]])
        flat_idx = first[comp_idx] + model_idx[order]
        models = list(map(flat.__getitem__, flat_idx.tolist()))
        policies = [c.policy for c in self.components]
        policies = list(map(policies.__getitem__, comp_idx.tolist()))
        slos = np.array(
            [np.nan if c.process.slo_s is None else c.process.slo_s
             for c in self.components],
            dtype=np.float64,
        )
        deadlines = (arrivals + slos[comp_idx]).tolist()
        for i in np.flatnonzero(np.isnan(slos)[comp_idx]).tolist():
            deadlines[i] = None
        return (
            range(order.size), arrivals.tolist(), models,
            batch[order].tolist(), policies, deadlines,
        )


def split_trace(
    trace: RequestTrace, assignment, n_shards: int
) -> tuple[RequestTrace, ...]:
    """Partition a trace into per-shard subtraces, ids and order intact.

    ``assignment`` maps each request (positionally) to a shard in
    ``[0, n_shards)`` — typically a front tier's choices (see
    :mod:`repro.cluster.balancers`).  Each subtrace keeps the parent's
    request ids and relative arrival order, so replaying the shards
    independently and merging outcomes by id reconstructs exactly the
    population a monolithic replay would have resolved.  Because
    :meth:`MixedTrace.build` drives every component from an independent
    child RNG, the parent trace — and therefore every split of it — is
    reproducible from the one global seed regardless of shard count.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    if len(assignment) != len(trace):
        raise ValueError(
            f"assignment covers {len(assignment)} requests, trace has {len(trace)}"
        )
    buckets: list[list[InferenceRequest]] = [[] for _ in range(n_shards)]
    for request, shard in zip(trace, assignment):
        if isinstance(shard, bool) or not isinstance(shard, (int, np.integer)):
            raise ValueError(
                f"request {request.request_id} assigned to shard {shard!r}, "
                "which is not an integer"
            )
        if not 0 <= shard < n_shards:
            raise ValueError(
                f"request {request.request_id} assigned to shard {shard}, "
                f"valid range is 0..{n_shards - 1}"
            )
        buckets[shard].append(request)
    return tuple(RequestTrace(requests=tuple(b)) for b in buckets)
