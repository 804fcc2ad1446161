"""Measurement harness: the PCM / nvidia-smi substitute (paper §III-A1).

:class:`~repro.telemetry.metrics.Measurement` is the atomic record —
throughput, latency, power, energy for one (model, device, state, batch)
point.  :class:`~repro.telemetry.session.MeasurementSession` produces them
through the OpenCL-style layer; :class:`~repro.telemetry.recorder.SweepRecorder`
collects grids of them and exports CSV for the figure harnesses.
"""

from repro.telemetry.fleet import FleetTelemetry, ResilienceCounters
from repro.telemetry.metrics import Measurement
from repro.telemetry.meters import EnergyMeter, PowerSample
from repro.telemetry.recorder import SweepRecorder
from repro.telemetry.serving import (
    BatchHistogram,
    LatencyDigest,
    RollingLatencyWindow,
    ServingTelemetry,
)
from repro.telemetry.session import MeasurementSession
from repro.telemetry.streaming import P2Quantile

__all__ = [
    "Measurement",
    "P2Quantile",
    "EnergyMeter",
    "PowerSample",
    "SweepRecorder",
    "MeasurementSession",
    "LatencyDigest",
    "RollingLatencyWindow",
    "BatchHistogram",
    "ServingTelemetry",
    "FleetTelemetry",
    "ResilienceCounters",
]
