"""The dispatcher pipeline of Fig. 2: model building, weight building,
per-device loading.

The paper's flow: architecture parameters go to the **Model Building
module** (1), which builds the model and returns it to the **Dispatcher**
(2); weights go to the **Weights Building module** (3), which allocates
buffers, loads weights into memory and hands the buffers back (4); the
Dispatcher then loads model+weights onto each available device (5).

Here "loading onto a device" means registering an
:class:`~repro.ocl.kernels.InferenceKernel` with that device's program and
(for the dGPU) accounting the one-time PCIe upload of the weight buffers.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SchedulerError
from repro.nn.builders import ModelSpec, build_model
from repro.nn.model import Sequential
from repro.ocl.context import Context
from repro.ocl.device import Device
from repro.ocl.kernels import InferenceKernel

__all__ = ["Dispatcher"]


class Dispatcher:
    """Owns built models and per-device kernel instances."""

    def __init__(self, context: Context):
        self.context = context
        self._models: dict[str, Sequential] = {}
        self._specs: dict[str, ModelSpec] = {}
        self._weighted: set[str] = set()  # names whose weights are set
        # kernels[device_name][model_name] -> InferenceKernel
        self._kernels: dict[str, dict[str, InferenceKernel]] = {
            d.name: {} for d in context.devices
        }
        self._upload_seconds: dict[tuple[str, str], float] = {}

    # -- Fig. 2 steps ---------------------------------------------------------

    def build_model(
        self, spec: ModelSpec, rng: "int | np.random.Generator | None" = None
    ) -> Sequential:
        """Step (1)+(2): Model Building module -> Dispatcher."""
        model = build_model(spec, rng=rng)
        self._models[spec.name] = model
        self._specs[spec.name] = spec
        return model

    def load_weights(self, spec: ModelSpec, weights: dict[str, np.ndarray]) -> None:
        """Step (3)+(4): Weights Building module -> Dispatcher.

        Validates against the built model (allocating "the appropriate
        buffers") and installs the weight set for device loading.
        """
        model = self._require_model(spec.name)
        model.set_weights(weights)  # validates names/shapes and installs
        self._weighted.add(spec.name)

    def deploy(self, spec: ModelSpec) -> None:
        """Step (5): load model + weights into every available device.

        The dGPU's copy pays a one-time PCIe upload of the parameter bytes,
        recorded in :attr:`upload_seconds`; host-shared devices map the
        same buffers for free.
        """
        model = self._require_model(spec.name)
        for device in self.context.devices:
            kernel = InferenceKernel(spec, model)
            self._kernels[device.name][spec.name] = kernel
            self._upload_seconds[(device.name, spec.name)] = self._upload_cost(
                device, model
            )

    def deploy_fresh(
        self, spec: ModelSpec, rng: "int | np.random.Generator | None" = None
    ) -> Sequential:
        """Convenience: build + deploy with freshly initialized weights."""
        model = self.build_model(spec, rng=rng)
        self._weighted.add(spec.name)
        self.deploy(spec)
        return model

    @staticmethod
    def _upload_cost(device: Device, model: Sequential) -> float:
        return device.cost_model.transfer.transfer_time(
            model.param_nbytes, pinned=True
        )

    # -- device topology (partition split/merge) ------------------------------

    def attach_device(self, device: Device) -> None:
        """Load every deployed model onto a newly admitted device.

        Each deployed model gets a fresh kernel instance on the device,
        paying the same one-time upload accounting as :meth:`deploy` — a
        freshly split partition starts with the weights resident, exactly
        like a MIG instance created after the model repository is staged.
        """
        if device.name in self._kernels:
            raise SchedulerError(f"device {device.name!r} is already attached")
        self._kernels[device.name] = {}
        for name in self.deployed_models():
            model = self._models[name]
            self._kernels[device.name][name] = InferenceKernel(self._specs[name], model)
            self._upload_seconds[(device.name, name)] = self._upload_cost(
                device, model
            )

    def detach_device(self, device_name: str) -> None:
        """Forget a retired device's kernels and upload accounting."""
        if self._kernels.pop(device_name, None) is None:
            raise SchedulerError(f"unknown device {device_name!r}")
        self._upload_seconds = {
            key: cost
            for key, cost in self._upload_seconds.items()
            if key[0] != device_name
        }

    # -- lookups -------------------------------------------------------------

    def kernel_for(self, device: "Device | str", model_name: str) -> InferenceKernel:
        """The deployed kernel instance for (device, model); raises if absent."""
        dev_name = device.name if isinstance(device, Device) else device
        try:
            per_device = self._kernels[dev_name]
        except KeyError:
            raise SchedulerError(f"unknown device {dev_name!r}") from None
        try:
            return per_device[model_name]
        except KeyError:
            raise SchedulerError(
                f"model {model_name!r} is not deployed on {dev_name!r}; "
                f"call deploy() first"
            ) from None

    def upload_seconds(self, device_name: str, model_name: str) -> float:
        """One-time weight-upload cost charged at deploy time."""
        try:
            return self._upload_seconds[(device_name, model_name)]
        except KeyError:
            raise SchedulerError(
                f"model {model_name!r} not deployed on {device_name!r}"
            ) from None

    def deployed_models(self) -> list[str]:
        """Names of models that are built, weighted and deployed."""
        return sorted(self._models.keys() & self._weighted)

    def _require_model(self, name: str) -> Sequential:
        try:
            return self._models[name]
        except KeyError:
            raise SchedulerError(
                f"model {name!r} has not been built; call build_model() first"
            ) from None
