"""The adaptive inference scheduler — the paper's contribution (§V).

Pipeline:

1. :mod:`repro.sched.dataset` sweeps the testbed to produce the labelled
   training set (the 1480-sample set of §V-B: 21 architectures x batch
   sizes x dGPU states, labelled with the ground-truth best device per
   policy).
2. :mod:`repro.sched.predictor` wraps any :mod:`repro.ml` classifier as a
   device predictor over the structural feature encoding of
   :mod:`repro.sched.features`.
3. :mod:`repro.sched.scheduler` is the online scheduler of Fig. 5: read
   the request, probe the dGPU state over PCIe, predict the device for the
   active policy, dispatch through the Fig. 2 dispatcher.
4. :mod:`repro.sched.backlog` places each request on the earliest
   finisher among the predictor's top-ranked devices, from live backlogs
   and service times learned from realized dispatches
   (:mod:`repro.sched.feedback`): overloads spill instead of piling onto
   a single "best" device, and a system change (e.g. dGPU contention)
   shows up as a slower realized service time and moves traffic off the
   device.  The serving frontend (:mod:`repro.serving`) runs every request
   stream — bursts, overloads, diurnal cycles — through it.
5. :mod:`repro.sched.online` keeps the predictor honest in production:
   sliding-window refits from live service times, deterministic
   Page–Hinkley drift detection per (model, device, batch-bucket) cell,
   and uncertainty-aware fallback to backlog-only routing while a cell
   is flagged stale.
6. :mod:`repro.sched.persistence` ships trained artifacts between runs.
"""

from repro.sched.backlog import BacklogAwareScheduler, BacklogDecision
from repro.sched.dataset import SchedulerDataset, generate_dataset
from repro.sched.feedback import CellKey, OutcomeTable
from repro.sched.partition import BatchPartitioner, PartitionPlan
from repro.sched.dispatcher import Dispatcher
from repro.sched.features import FEATURE_NAMES, encode_point, encode_spec
from repro.sched.online import (
    DriftKey,
    OnlineConfig,
    OnlineEvents,
    OnlinePredictor,
    PageHinkley,
)
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler, SchedulingDecision

__all__ = [
    "Policy",
    "FEATURE_NAMES",
    "encode_spec",
    "encode_point",
    "SchedulerDataset",
    "generate_dataset",
    "DevicePredictor",
    "Dispatcher",
    "OnlineScheduler",
    "SchedulingDecision",
    "CellKey",
    "OutcomeTable",
    "BacklogAwareScheduler",
    "BacklogDecision",
    "OnlineConfig",
    "OnlinePredictor",
    "OnlineEvents",
    "DriftKey",
    "PageHinkley",
    "BatchPartitioner",
    "PartitionPlan",
]
