"""Training-set generation for the scheduler (paper §V-B).

The paper measures 5 base models (340 samples) plus 16 augmentation
architectures, ending at 1480 labelled samples with classes ~30% CPU /
40% GPU / 30% iGPU.  We regenerate that set by sweeping every training
architecture over batch sizes 1..128K and both dGPU states, labelling
each point with the ground-truth best device under the requested policy
(the telemetry oracle).

Device labels are integer classes in the paper's order: 0 = CPU,
1 = (discrete) GPU, 2 = iGPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.builders import ModelSpec
from repro.nn.zoo import list_model_specs
from repro.sched.features import FEATURE_NAMES, encode_point
from repro.sched.policies import Policy
from repro.telemetry.session import GPU_STATES, MeasurementSession

__all__ = [
    "DEVICE_CLASSES",
    "DEFAULT_BATCHES",
    "SchedulerDataset",
    "generate_dataset",
]

#: Class order of §V-B (CPU / GPU / iGPU = 30% / 40% / 30%).
DEVICE_CLASSES: tuple[str, ...] = ("cpu", "dgpu", "igpu")

_DEVICE_TO_CLASS = {
    "i7-8700": 0,
    "cpu": 0,
    "gtx-1080ti": 1,
    "dgpu": 1,
    "uhd-630": 2,
    "igpu": 2,
}

#: Batch sweep over powers of two (2^0..2^17) and their mid-points
#: (3*2^0..3*2^16): 35 sizes x 21 architectures x 2 dGPU states = 1470
#: labelled points per policy, matching the paper's 1480-sample scale.
DEFAULT_BATCHES: tuple[int, ...] = tuple(
    sorted({2**k for k in range(18)} | {3 * 2**k for k in range(17)})
)


def device_class_index(device_name: str) -> int:
    """Map a device (spec name or class value) to its label index."""
    try:
        return _DEVICE_TO_CLASS[device_name]
    except KeyError:
        known = ", ".join(sorted(_DEVICE_TO_CLASS))
        raise KeyError(f"unknown device {device_name!r}; known: {known}") from None


@dataclass
class SchedulerDataset:
    """A labelled device-selection dataset for one policy."""

    policy: Policy
    x: np.ndarray                       # (n, len(FEATURE_NAMES))
    y: np.ndarray                       # (n,) int labels into DEVICE_CLASSES
    specs: list[str] = field(default_factory=list)   # model name per row
    batches: np.ndarray | None = None   # batch size per row
    gpu_states: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y row counts differ")
        if self.x.shape[1] != len(FEATURE_NAMES):
            raise ValueError(
                f"x has {self.x.shape[1]} columns, expected {len(FEATURE_NAMES)}"
            )

    @property
    def n_samples(self) -> int:
        """Number of labelled rows."""
        return int(self.x.shape[0])

    def class_distribution(self) -> dict[str, float]:
        """Fraction of rows labelled with each device class."""
        counts = np.bincount(self.y, minlength=len(DEVICE_CLASSES))
        return {
            name: float(c) / max(self.n_samples, 1)
            for name, c in zip(DEVICE_CLASSES, counts)
        }

    def subset_by_models(self, names: "set[str] | list[str]") -> "SchedulerDataset":
        """Rows whose architecture is in ``names`` (seen/unseen splits)."""
        names = set(names)
        mask = np.array([s in names for s in self.specs], dtype=bool)
        return SchedulerDataset(
            policy=self.policy,
            x=self.x[mask],
            y=self.y[mask],
            specs=[s for s, m in zip(self.specs, mask) if m],
            batches=None if self.batches is None else self.batches[mask],
            gpu_states=[g for g, m in zip(self.gpu_states, mask) if m],
        )

    def merge(self, other: "SchedulerDataset") -> "SchedulerDataset":
        """Concatenate two datasets (e.g. the two policies' sets)."""
        return SchedulerDataset(
            policy=self.policy,
            x=np.vstack([self.x, other.x]),
            y=np.concatenate([self.y, other.y]),
            specs=self.specs + other.specs,
            batches=(
                None
                if self.batches is None or other.batches is None
                else np.concatenate([self.batches, other.batches])
            ),
            gpu_states=self.gpu_states + other.gpu_states,
        )


def generate_dataset(
    policy: "Policy | str",
    specs: "list[ModelSpec] | None" = None,
    batches: "tuple[int, ...]" = DEFAULT_BATCHES,
    session: MeasurementSession | None = None,
    cache=None,
) -> SchedulerDataset:
    """Sweep + label: the data-generation pass of §V-B.

    Every (architecture, batch, dGPU state) cell is characterized on all
    three devices; the label is the device optimizing the policy metric.

    ``cache`` (a :class:`~repro.sched.persistence.MeasurementCache`) makes
    repeated sweeps skip redundant characterizations — labels are
    *byte-identical* cold vs cached because the cache keys everything the
    measurement depends on.
    """
    policy = Policy.parse(policy)
    if specs is None:
        specs = list(list_model_specs("training"))

    sess = session if session is not None else MeasurementSession(cache=cache)
    rows: list[np.ndarray] = []
    labels: list[int] = []
    names: list[str] = []
    row_batches: list[int] = []
    states: list[str] = []
    for spec in specs:
        for state in GPU_STATES:
            for batch in batches:
                winner = sess.best_device(spec, batch, state, policy.metric)
                rows.append(encode_point(spec, batch, state))
                labels.append(device_class_index(winner))
                names.append(spec.name)
                row_batches.append(batch)
                states.append(state)
    return SchedulerDataset(
        policy=policy,
        x=np.vstack(rows),
        y=np.asarray(labels, dtype=np.int64),
        specs=names,
        batches=np.asarray(row_batches, dtype=np.int64),
        gpu_states=states,
    )
