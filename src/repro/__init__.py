"""repro — reproduction of "The Best of Many Worlds: Scheduling Machine
Learning Inference on CPU-GPU Integrated Architectures" (IPPS 2022).

Public API tour
---------------
Workload models and inference substrate::

    from repro.nn import PAPER_MODELS, build_model, model_cost

Simulated testbed (OpenCL-style execution over virtual time)::

    from repro.ocl import get_platforms, Context, CommandQueue, Program

Characterization (Fig. 3 / Fig. 4 measurements)::

    from repro.telemetry import MeasurementSession, SweepRecorder

The adaptive scheduler (the paper's contribution)::

    from repro.sched import (
        Policy, generate_dataset, DevicePredictor,
        Dispatcher, OnlineScheduler, BacklogAwareScheduler,
    )

Online predictor refresh (live refits, drift detection, fallback)::

    from repro.sched import OnlinePredictor, OnlineConfig

SLO-aware serving frontend (queues, coalescing, admission control; with
``IMMEDIATE_DISPATCH`` and ``max_rank=1``, a one-request-at-a-time
stream replay on the predictor's choice)::

    from repro.serving import ServingFrontend, SLOConfig, IMMEDIATE_DISPATCH

Cluster layer (fleet simulation, load balancing, autoscaling)::

    from repro.cluster import ClusterRouter, NodeSpec, make_fleet, Autoscaler

Cascade serving (adaptive early-exit across the device hierarchy)::

    from repro.cascade import CascadeSpec, CascadeExecutor, ThresholdController

Fault injection and resilience (chaos campaigns, breakers, retries)::

    from repro.faults import FaultInjector, ResilienceConfig

Partitionable accelerators and multi-tenant placement (MIG-style)::

    from repro.partition import (
        PartitionableDeviceSpec, TenantSet, PartitionedAccelerator,
        Repartitioner,
    )

Multi-process fleet sharding (conservative virtual-time windows)::

    from repro.shard import ShardPlan, run_sharded

Experiment harnesses (regenerate every table and figure)::

    from repro.experiments import get_experiment, list_experiments

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured results.
"""

from repro._version import __version__
from repro.cascade import CascadeExecutor, CascadeSpec, ThresholdController
from repro.cluster import Autoscaler, ClusterRouter, NodeSpec, make_fleet
from repro.errors import ReproError
from repro.faults import FaultInjector, ResilienceConfig
from repro.nn import PAPER_MODELS, build_model, model_cost
from repro.ocl import CommandQueue, Context, Program, get_platforms
from repro.partition import (
    PartitionableDeviceSpec,
    PartitionedAccelerator,
    Repartitioner,
    TenantSet,
    TenantSpec,
)
from repro.sched import (
    DevicePredictor,
    Dispatcher,
    OnlineConfig,
    OnlinePredictor,
    OnlineScheduler,
    Policy,
    generate_dataset,
)
from repro.serving import ServingFrontend, ServingResponse, SLOConfig
from repro.shard import ShardPlan, ShardResult, run_sharded
from repro.telemetry import MeasurementSession, SweepRecorder

__all__ = [
    "__version__",
    "ReproError",
    "PAPER_MODELS",
    "build_model",
    "model_cost",
    "get_platforms",
    "Context",
    "CommandQueue",
    "Program",
    "MeasurementSession",
    "SweepRecorder",
    "Policy",
    "generate_dataset",
    "DevicePredictor",
    "Dispatcher",
    "OnlineConfig",
    "OnlinePredictor",
    "OnlineScheduler",
    "ServingFrontend",
    "ServingResponse",
    "SLOConfig",
    "ClusterRouter",
    "NodeSpec",
    "make_fleet",
    "Autoscaler",
    "CascadeSpec",
    "CascadeExecutor",
    "ThresholdController",
    "FaultInjector",
    "ResilienceConfig",
    "PartitionableDeviceSpec",
    "PartitionedAccelerator",
    "Repartitioner",
    "TenantSet",
    "TenantSpec",
    "ShardPlan",
    "ShardResult",
    "run_sharded",
]
