"""Energy-aware overnight operation: the diurnal scenario.

§I: "data variability ... caused due to diurnal patterns can have a major
consequence in the overall power consumption — e.g., selecting a low-end
device in cases where the data load is low would have significantly lower
energy requirements."

This example replays a day/night load cycle under the ENERGY policy and
compares the adaptive scheduler's joules against committing statically to
any single device — the "up to 10% savings" experiment, on a stream.

Run:  python examples/energy_aware_overnight.py
"""

from repro import (
    Context,
    DevicePredictor,
    Dispatcher,
    OnlineScheduler,
    Policy,
    ServingFrontend,
    generate_dataset,
)
from repro.experiments.report import fmt_pct, render_table
from repro.nn.zoo import MNIST_DEEP, MNIST_SMALL
from repro.ocl.device import DeviceState
from repro.ocl.platform import get_all_devices
from repro.serving import IMMEDIATE_DISPATCH
from repro.workloads.requests import make_trace
from repro.workloads.streams import DiurnalStream

SPECS = {s.name: s for s in (MNIST_SMALL, MNIST_DEEP)}


def static_energy(trace, device_class: str) -> float:
    """Joules if every request ran on one fixed device (fresh testbed)."""
    devices = get_all_devices()
    total = 0.0
    for device in devices:
        if device.device_class.value != device_class:
            continue
        now = 0.0
        for req in trace:
            now = max(now, req.arrival_s)
            state = device.probe_state(now)
            # Account the run on the live (warming/cooling) device.
            timing, energy = device.execute(SPECS[req.model], req.batch, now=now)
            now += timing.total_s
            total += energy.total_j
            del state
    return total


def main() -> None:
    ctx = Context(get_all_devices())
    dispatcher = Dispatcher(ctx)
    for spec in SPECS.values():
        dispatcher.deploy_fresh(spec, rng=0)

    predictor = DevicePredictor(Policy.ENERGY).fit(generate_dataset("energy"))
    scheduler = OnlineScheduler(ctx, dispatcher, [predictor])
    # One request at a time, at arrival, on the energy forest's pick.
    frontend = ServingFrontend(
        scheduler, SPECS, default_slo=IMMEDIATE_DISPATCH, max_rank=1,
        policy=Policy.ENERGY,
    )

    stream = DiurnalStream(
        horizon_s=60.0, period_s=30.0,
        peak_rate_hz=25.0, trough_rate_hz=1.5,
        peak_batch=8192, trough_batch=8,
    )
    trace = make_trace(stream, list(SPECS.values()), policy="energy", rng=5)
    print(f"replaying {len(trace)} requests across two day/night cycles\n")

    result = frontend.serve_trace(trace)

    rows = [("adaptive scheduler", f"{result.total_energy_j:.1f} J", "-")]
    for device_class in ("cpu", "igpu", "dgpu"):
        joules = static_energy(trace, device_class)
        saving = 1.0 - result.total_energy_j / joules
        rows.append((f"static {device_class}", f"{joules:.1f} J", fmt_pct(saving)))
    print(render_table(("placement", "total energy", "scheduler saves"), rows))

    # Day-vs-night routing: the low-load valleys should lean on the iGPU.
    night = [r for r in result.served if stream.phase_at(r.request.arrival_s) < 0.25]
    day = [r for r in result.served if stream.phase_at(r.request.arrival_s) > 0.75]

    def share_of(recs, device):
        return sum(r.device == device for r in recs) / max(len(recs), 1)

    print(
        f"\niGPU share at night (low load): {fmt_pct(share_of(night, 'igpu'))}"
        f"   by day (peak load): {fmt_pct(share_of(day, 'igpu'))}"
    )
    print(f"dGPU share at night: {fmt_pct(share_of(night, 'dgpu'))}"
          f"   by day: {fmt_pct(share_of(day, 'dgpu'))}")


if __name__ == "__main__":
    main()
