"""Per-request reference builders for the column-built traces.

These are the one-``InferenceRequest(...)``-per-arrival loops that
:meth:`repro.workloads.MixedTrace.build` and
:func:`repro.workloads.make_trace` replace with
:meth:`InferenceRequest.from_columns`.  Tests compare the two field for
field, Python types included, and compare the generator state each leaves.
"""

from __future__ import annotations

import numpy as np

from repro.rng import ensure_rng, spawn
from repro.workloads.requests import InferenceRequest, RequestTrace


def reference_make_trace(process, specs, policy="throughput", rng=None) -> RequestTrace:
    """make_trace with one scalar model draw per arrival."""
    gen = ensure_rng(rng)
    arrivals = process.generate(gen)
    slo = getattr(process, "slo_s", None)
    requests = tuple(
        InferenceRequest(
            request_id=i,
            arrival_s=t,
            model=specs[int(gen.integers(len(specs)))].name,
            batch=batch,
            policy=policy,
            deadline_s=None if slo is None else t + slo,
        )
        for i, (t, batch) in enumerate(arrivals)
    )
    return RequestTrace(requests=requests)


def reference_mixed_build(mix, rng=None, n_requests=None) -> RequestTrace:
    """MixedTrace.build indexing the merged numpy columns per request."""
    gen = ensure_rng(rng)
    children = spawn(gen, len(mix.components))
    all_t, all_batch, all_comp, all_model = [], [], [], []
    for ci, (comp, child) in enumerate(zip(mix.components, children)):
        pairs = comp.process.generate(child)
        times = np.array([t for t, _ in pairs], dtype=np.float64)
        batches = np.array([b for _, b in pairs], dtype=np.int64)
        if comp.weight < 1.0:
            keep = child.random(times.size) < comp.weight
            times, batches = times[keep], batches[keep]
        all_t.append(times)
        all_batch.append(batches)
        all_comp.append(np.full(times.size, ci, dtype=np.int64))
        all_model.append(child.integers(len(comp.models), size=times.size))
    t = np.concatenate(all_t)
    batch = np.concatenate(all_batch)
    comp_idx = np.concatenate(all_comp)
    model_idx = np.concatenate(all_model)
    within = np.concatenate([np.arange(a.size, dtype=np.int64) for a in all_t])
    order = np.lexsort((within, comp_idx, t))
    if n_requests is not None:
        order = order[:n_requests]
    requests = []
    for rid, k in enumerate(order.tolist()):
        comp = mix.components[int(comp_idx[k])]
        arrival = float(t[k])
        slo = comp.process.slo_s
        requests.append(
            InferenceRequest(
                request_id=rid,
                arrival_s=arrival,
                model=comp.model_names[int(model_idx[k])],
                batch=int(batch[k]),
                policy=comp.policy,
                deadline_s=None if slo is None else arrival + slo,
            )
        )
    return RequestTrace(requests=tuple(requests))


def typed_rows(trace) -> list:
    """Every field of every request with its Python type, for exact equality."""
    fields = InferenceRequest.__slots__
    return [
        tuple((getattr(r, f), type(getattr(r, f))) for f in fields) for r in trace
    ]
