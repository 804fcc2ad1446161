"""Online predictor refresh: live refits, drift detection, routing fallback.

The paper's device predictor is trained once offline (§V-A/B), but its
adaptivity claims (§I: "respond quickly to dynamic fluctuations ... and
system changes") assume the ranking stays *true*.  It does not: a silent
thermal throttle (:meth:`repro.faults.FaultInjector.throttle_device`)
stretches one device's real service times while the frozen forest keeps
ranking it first, mis-routing every request it touches.

:class:`OnlinePredictor` closes that loop.  It wraps a fitted
:class:`~repro.sched.predictor.DevicePredictor` and duck-types its entire
decision surface, so it installs wherever the base predictor does — in
particular into an :class:`~repro.sched.scheduler.OnlineScheduler`'s
predictor table, where :class:`~repro.sched.backlog.BacklogAwareScheduler`
detects it (``is_online``) and feeds it every realized service time from
:meth:`~repro.sched.backlog.BacklogAwareScheduler.record_service` /
:meth:`~repro.sched.backlog.BacklogAwareScheduler.submit_virtual`.
Three mechanisms ride on that stream:

* **Sliding-window refits** — observations accumulate in a bounded
  window; every ``refit_interval`` observations the cells observed on
  two or more devices are re-labelled with the observed-fastest device
  and the base forest is refit on the offline dataset plus those live
  rows.  The refit bumps ``fit_generation``, so the decision cache's
  existing wholesale invalidation in ``_entry_for`` fires unchanged.
  A refit whose merged dataset equals the last fit's keeps the fitted
  forest (:meth:`~repro.sched.predictor.DevicePredictor.fit`), counted
  as a refit reuse.
* **Drift detection** — per (model, device class, log2-batch bucket)
  cell, a two-sided Page–Hinkley test watches the relative residual
  between the learned service estimate (what the scheduler *predicted*)
  and the realized service time.  The test is a pure function of the
  observation stream: deterministic, replayable, no RNG.
* **Uncertainty-aware fallback** — a drift alarm flags the cell stale.
  While any device of a (model, bucket) routing cell is flagged, the
  backlog scheduler abandons the predictor's ranking for that cell and
  degrades to backlog-only signals: every available device class is
  eligible (canonical order) and the argmin over live queue backlog +
  :class:`~repro.sched.feedback.OutcomeTable` estimates decides.  Once
  a refit has happened *and* residuals sit back in band for
  ``recovery_samples`` consecutive observations, the flag clears and
  predictor-ranked placement resumes.

Everything is inert unless an :class:`OnlinePredictor` is installed:
with a plain :class:`DevicePredictor` the scheduler's behaviour — and
every committed benchmark trajectory — is byte-identical.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import SchedulerError
from repro.nn.builders import ModelSpec
from repro.sched.dataset import SchedulerDataset, device_class_index
from repro.sched.features import encode_point
from repro.sched.feedback import batch_bucket
from repro.sched.predictor import DevicePredictor
from repro.telemetry.streaming import P2Quantile

__all__ = [
    "OnlineConfig",
    "PageHinkley",
    "DriftKey",
    "OnlineEvents",
    "OnlinePredictor",
]


@dataclass(frozen=True)
class OnlineConfig:
    """Tuning knobs for the online refresh layer.

    Parameters
    ----------
    window:
        Maximum live observations retained for refits (FIFO eviction).
    refit_interval:
        Observations between refit attempts.  An attempt only refits when
        the window yields at least ``min_live_cells`` re-labelled cells
        (a cell needs fresh observations on >= 2 devices to be labelled);
        otherwise it is counted as a skip and the countdown restarts.
    min_live_cells:
        Minimum live-labelled cells required for a refit to proceed.
    drift_delta:
        Page–Hinkley slack: residual drift smaller than this (in relative
        residual units) is treated as noise.
    drift_threshold:
        Page–Hinkley alarm level (lambda).  Larger = less sensitive.
    drift_min_samples:
        Observations a cell needs before its detector may alarm.
    recovery_band:
        |relative residual| considered "in band" during recovery.
    recovery_samples:
        Consecutive in-band observations (after a refit) that clear a
        stale flag.
    """

    window: int = 2048
    refit_interval: int = 64
    min_live_cells: int = 1
    drift_delta: float = 0.3
    drift_threshold: float = 0.35
    drift_min_samples: int = 3
    recovery_band: float = 0.5
    recovery_samples: int = 3

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.refit_interval < 1:
            raise ValueError(
                f"refit_interval must be >= 1, got {self.refit_interval}"
            )
        if self.min_live_cells < 1:
            raise ValueError(
                f"min_live_cells must be >= 1, got {self.min_live_cells}"
            )
        if self.drift_delta < 0.0:
            raise ValueError(f"drift_delta must be >= 0, got {self.drift_delta}")
        if self.drift_threshold <= 0.0:
            raise ValueError(
                f"drift_threshold must be > 0, got {self.drift_threshold}"
            )
        if self.drift_min_samples < 1:
            raise ValueError(
                f"drift_min_samples must be >= 1, got {self.drift_min_samples}"
            )
        if self.recovery_band <= 0.0:
            raise ValueError(
                f"recovery_band must be > 0, got {self.recovery_band}"
            )
        if self.recovery_samples < 1:
            raise ValueError(
                f"recovery_samples must be >= 1, got {self.recovery_samples}"
            )


class PageHinkley:
    """Two-sided Page–Hinkley mean-shift test, O(1) state per stream.

    Tracks the running mean of the inputs and accumulates two cumulative
    sums — excess above mean+delta and deficit below mean-delta.  Either
    sum exceeding ``threshold`` (after ``min_samples`` inputs) signals a
    sustained shift.  A pure function of the input sequence: identical
    streams alarm at identical positions, which is what makes drift
    detection replayable bit-for-bit.
    """

    __slots__ = ("delta", "threshold", "min_samples", "n", "mean", "_up", "_down")

    def __init__(self, delta: float, threshold: float, min_samples: int = 1):
        self.delta = float(delta)
        self.threshold = float(threshold)
        self.min_samples = int(min_samples)
        self.reset()

    def reset(self) -> None:
        """Forget everything (used when a recovered cell re-arms)."""
        self.n = 0
        self.mean = 0.0
        self._up = 0.0
        self._down = 0.0

    def update(self, x: float) -> bool:
        """Fold one value; True when the shift statistic crosses threshold."""
        x = float(x)
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self._up = max(0.0, self._up + x - self.mean - self.delta)
        self._down = max(0.0, self._down + self.mean - x - self.delta)
        return (
            self.n >= self.min_samples
            and max(self._up, self._down) > self.threshold
        )

    @property
    def statistic(self) -> float:
        """Current max of the two one-sided shift statistics."""
        return max(self._up, self._down)


@dataclass(frozen=True)
class DriftKey:
    """One monitored residual stream: (model, device class, batch bucket)."""

    model: str
    device: str
    batch_bucket: int

    def label(self) -> str:
        return f"{self.model}|{self.device}|b{self.batch_bucket}"


@dataclass(frozen=True)
class OnlineEvents:
    """What one :meth:`OnlinePredictor.observe` call changed.

    The backlog scheduler uses this to invalidate exactly the decision
    cells a flag flip touched (a refit needs nothing: the bumped
    ``fit_generation`` already clears the cache wholesale).
    """

    flagged: "tuple[DriftKey, ...]" = ()
    recovered: "tuple[DriftKey, ...]" = ()
    refit: bool = False

    @property
    def any(self) -> bool:
        return bool(self.flagged or self.recovered or self.refit)


_NO_EVENTS = OnlineEvents()


class _CellHealth:
    """Residual-stream state for one :class:`DriftKey`."""

    __slots__ = (
        "detector", "q50", "q95", "n_residuals",
        "flagged", "flag_generation", "in_band_run",
    )

    def __init__(self, config: OnlineConfig):
        self.detector = PageHinkley(
            config.drift_delta, config.drift_threshold, config.drift_min_samples
        )
        self.q50 = P2Quantile(50.0)
        self.q95 = P2Quantile(95.0)
        self.n_residuals = 0
        self.flagged = False
        self.flag_generation = -1   # base fit_generation when flagged
        self.in_band_run = 0


class OnlinePredictor:
    """A :class:`DevicePredictor` that keeps learning while it serves.

    Duck-types the base predictor's whole decision surface (``fitted``,
    ``cell``, ``batch_cuts``, ``predict_device``, ``predict_index``,
    ``prime_cells``, ``predict_batch``, ``fit_generation``), so it drops
    into an :class:`~repro.sched.scheduler.OnlineScheduler`'s predictor
    table unchanged.  The additional surface — :meth:`observe`, :meth:`is_stale`,
    :meth:`snapshot` — is what the backlog scheduler and telemetry use.

    Parameters
    ----------
    base:
        A *fitted* :class:`DevicePredictor`.  Refits mutate it in place
        (same object, bumped ``fit_generation``), which is exactly what
        the decision cache's generation check expects.
    specs:
        Deployed model specs by name; live observations for models absent
        here still drive drift detection but are skipped at refit time
        (their features cannot be encoded).
    base_dataset:
        The offline dataset the base was trained on.  Live rows are
        appended to it for every refit, so the forest never forgets the
        offline characterization.
    config:
        An :class:`OnlineConfig` (defaults are serving-tuned).
    """

    #: Marks this predictor for the backlog scheduler's duck-typed check.
    is_online = True

    def __init__(
        self,
        base: DevicePredictor,
        specs: "dict[str, ModelSpec]",
        base_dataset: SchedulerDataset,
        config: "OnlineConfig | None" = None,
    ):
        if base_dataset.policy is not base.policy:
            raise SchedulerError(
                f"base dataset labelled for policy {base_dataset.policy}, "
                f"base predictor is for {base.policy}"
            )
        base._require_fitted()
        self.base = base
        self.specs = dict(specs)
        self.base_dataset = base_dataset
        self.config = config if config is not None else OnlineConfig()
        # (model, batch, gpu_state, device, service_s) live observations.
        self._window: "deque[tuple]" = deque(maxlen=self.config.window)
        self._since_refit = 0
        self._health: "dict[DriftKey, _CellHealth]" = {}
        # (model, bucket) -> number of flagged device streams under it.
        # Routing consults only this dict, so the common no-drift case is
        # a single empty-dict truthiness check per decision.
        self._stale_cells: "dict[tuple[str, int], int]" = {}
        self.n_observations = 0
        self.n_refits = 0
        self.n_refit_skips = 0
        self.n_refit_reuses = 0
        self.n_drift_flags = 0
        self.n_recoveries = 0

    # -- delegated decision surface ----------------------------------------

    @property
    def policy(self):
        return self.base.policy

    @property
    def estimator(self):
        return self.base.estimator

    @property
    def fit_generation(self) -> int:
        return self.base.fit_generation

    @property
    def fitted(self) -> bool:
        return self.base.fitted

    def fit(self, dataset: SchedulerDataset) -> "OnlinePredictor":
        """Refit the base from scratch (offline path); window is kept."""
        self.base.fit(dataset)
        return self

    def cell(self, spec, batch, gpu_state):
        return self.base.cell(spec, batch, gpu_state)

    def batch_cuts(self):
        return self.base.batch_cuts()

    def prime_cells(self, cells) -> int:
        return self.base.prime_cells(cells)

    def predict_index(self, spec, batch, gpu_state) -> int:
        return self.base.predict_index(spec, batch, gpu_state)

    def predict_device(self, spec, batch, gpu_state) -> str:
        return self.base.predict_device(spec, batch, gpu_state)

    def predict_batch(self, x):
        return self.base.predict_batch(x)

    def _require_fitted(self) -> None:
        self.base._require_fitted()

    # -- live feedback ------------------------------------------------------

    def observe(
        self,
        model: str,
        batch: int,
        gpu_state: str,
        device: str,
        service_s: float,
        predicted_s: "float | None",
        now: float,
    ) -> OnlineEvents:
        """Fold one realized service time into the online state.

        ``predicted_s`` is what the scheduler believed the service time
        was *before* this observation (the fresh
        :class:`~repro.sched.feedback.OutcomeTable` estimate) — None on a
        cold cell, which contributes to the refit window but not to drift
        (there was no prediction to be wrong about).  Returns the flag
        flips and refit this observation caused.
        """
        if not math.isfinite(service_s) or service_s < 0.0:
            raise ValueError(
                f"service_s must be finite and >= 0, got {service_s}"
            )
        self.n_observations += 1
        self._window.append((model, int(batch), gpu_state, device, service_s))

        flagged: "list[DriftKey]" = []
        recovered: "list[DriftKey]" = []
        if predicted_s is not None and predicted_s > 0.0:
            residual = (service_s - predicted_s) / predicted_s
            key = DriftKey(model, device, batch_bucket(batch))
            health = self._health.get(key)
            if health is None:
                health = self._health[key] = _CellHealth(self.config)
            health.n_residuals += 1
            abs_residual = abs(residual)
            health.q50.add(abs_residual)
            health.q95.add(abs_residual)
            if not health.flagged:
                if health.detector.update(residual):
                    health.flagged = True
                    health.flag_generation = self.base.fit_generation
                    health.in_band_run = 0
                    self.n_drift_flags += 1
                    cell = (key.model, key.batch_bucket)
                    self._stale_cells[cell] = self._stale_cells.get(cell, 0) + 1
                    flagged.append(key)
            else:
                if abs_residual <= self.config.recovery_band:
                    health.in_band_run += 1
                else:
                    health.in_band_run = 0
                if (
                    self.base.fit_generation > health.flag_generation
                    and health.in_band_run >= self.config.recovery_samples
                ):
                    health.flagged = False
                    health.in_band_run = 0
                    health.detector.reset()
                    self.n_recoveries += 1
                    cell = (key.model, key.batch_bucket)
                    remaining = self._stale_cells.get(cell, 0) - 1
                    if remaining > 0:
                        self._stale_cells[cell] = remaining
                    else:
                        self._stale_cells.pop(cell, None)
                    recovered.append(key)

        refit = False
        self._since_refit += 1
        if self._since_refit >= self.config.refit_interval:
            self._since_refit = 0
            refit = self._try_refit()

        if not (flagged or recovered or refit):
            return _NO_EVENTS
        return OnlineEvents(
            flagged=tuple(flagged), recovered=tuple(recovered), refit=refit
        )

    # -- refits --------------------------------------------------------------

    def _live_rows(self) -> "tuple[list, list, list, list, list]":
        """Re-label window cells observed on >= 2 devices.

        A cell is one exact (model, batch, gpu_state) triple; its label is
        the device with the lowest mean realized service time — the live
        ground truth the offline oracle provided at training time.  Cells
        seen on a single device carry no comparative signal and are left
        to the offline rows.
        """
        groups: "dict[tuple, dict[str, list[float]]]" = {}
        for model, batch, gpu_state, device, service_s in self._window:
            if model not in self.specs:
                continue
            cell = groups.setdefault((model, batch, gpu_state), {})
            cell.setdefault(device, []).append(service_s)
        rows, labels, names, batches, states = [], [], [], [], []
        for (model, batch, gpu_state), per_device in sorted(groups.items()):
            if len(per_device) < 2:
                continue
            winner = min(
                sorted(per_device),
                key=lambda d: sum(per_device[d]) / len(per_device[d]),
            )
            rows.append(encode_point(self.specs[model], batch, gpu_state))
            labels.append(device_class_index(winner))
            names.append(model)
            batches.append(batch)
            states.append(gpu_state)
        return rows, labels, names, batches, states

    def _try_refit(self) -> bool:
        """Refit the base on offline + live rows; False when skipped."""
        rows, labels, names, batches, states = self._live_rows()
        if len(rows) < self.config.min_live_cells:
            self.n_refit_skips += 1
            return False
        base = self.base_dataset
        live = SchedulerDataset(
            policy=base.policy,
            x=np.vstack(rows),
            y=np.asarray(labels, dtype=np.int64),
            specs=names,
            batches=np.asarray(batches, dtype=np.int64),
            gpu_states=states,
        )
        reuses = self.base.n_fit_reuses
        self.base.fit(base.merge(live))
        self.n_refits += 1
        self.n_refit_reuses += self.base.n_fit_reuses - reuses
        return True

    # -- staleness queries ---------------------------------------------------

    def is_stale(self, model: str, batch: int) -> bool:
        """Whether the (model, batch-bucket) routing cell is drift-flagged.

        True while *any* device's residual stream under the cell is
        flagged: one mis-predicted device is enough to distrust the
        predictor's relative ranking for the whole cell.
        """
        if not self._stale_cells:
            return False
        return (model, batch_bucket(batch)) in self._stale_cells

    @property
    def active_flags(self) -> "tuple[DriftKey, ...]":
        """Currently flagged residual streams, in deterministic order."""
        return tuple(
            sorted(
                (k for k, h in self._health.items() if h.flagged),
                key=DriftKey.label,
            )
        )

    # -- telemetry -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters + per-cell error quantiles for telemetry surfaces."""
        cell_errors = {}
        for key in sorted(self._health, key=DriftKey.label):
            health = self._health[key]
            if health.n_residuals == 0:
                continue
            cell_errors[key.label()] = {
                "n": health.n_residuals,
                "abs_rel_err_p50": health.q50.estimate(),
                "abs_rel_err_p95": health.q95.estimate(),
                "flagged": health.flagged,
            }
        return {
            "observations": self.n_observations,
            "window_fill": len(self._window),
            "refits": self.n_refits,
            "refit_skips": self.n_refit_skips,
            "refit_reuses": self.n_refit_reuses,
            "drift_flags": self.n_drift_flags,
            "recoveries": self.n_recoveries,
            "active_flags": [k.label() for k in self.active_flags],
            "stale_cells": len(self._stale_cells),
            "cell_errors": cell_errors,
        }
