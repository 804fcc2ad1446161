"""SLO-aware serving frontend over the paper's placement scheduler.

The paper contributes a *per-request placement oracle* (Fig. 5: probe the
dGPU, predict the best device, dispatch); this package wraps it in the
serving machinery a production frontend needs, layered on the
discrete-event engine:

* :mod:`repro.serving.queues` — per-model FIFO / earliest-deadline-first
  request queues with absolute deadlines.
* :mod:`repro.serving.coalescer` — dynamic batch coalescing (dispatch on
  max-batch or max-wait, whichever first), exploiting the Fig. 3 result
  that every device's throughput grows with batch size.
* :mod:`repro.serving.admission` — bounded queues, estimated-completion
  rejection from learned service times, and a degrade-to-cheapest path.
* :mod:`repro.serving.workers` — per-device execution stages that launch
  coalesced batches and feed realized service times back; each landed
  batch becomes one :class:`LaunchRecord` its served handles share.
* :mod:`repro.serving.frontend` — the :class:`ServingFrontend` façade
  (``submit(model, x, deadline_s, policy)`` → future-like
  :class:`ServingResponse`) plus per-model :class:`SLOConfig`;
  :data:`IMMEDIATE_DISPATCH` turns coalescing and admission off for
  one-request-at-a-time stream replays.

Placement stays paper-faithful (the trained predictor ranks devices, the
backlog layer spills under load); queues, deadlines and admission are the
extension that makes the scheduler a server.
"""

from repro.serving.admission import AdmissionController, AdmissionDecision
from repro.serving.coalescer import BatchCoalescer, CoalescedBatch
from repro.serving.frontend import (
    IMMEDIATE_DISPATCH,
    ServingFrontend,
    ServingResponse,
    ServingResult,
    SLOConfig,
)
from repro.serving.queues import EDFQueue, FIFOQueue, RequestQueue, make_queue
from repro.serving.workers import DeviceWorker, LaunchRecord

__all__ = [
    "RequestQueue",
    "FIFOQueue",
    "EDFQueue",
    "make_queue",
    "BatchCoalescer",
    "CoalescedBatch",
    "AdmissionController",
    "AdmissionDecision",
    "DeviceWorker",
    "LaunchRecord",
    "SLOConfig",
    "IMMEDIATE_DISPATCH",
    "ServingFrontend",
    "ServingResponse",
    "ServingResult",
]
