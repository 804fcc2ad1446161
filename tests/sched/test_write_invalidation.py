"""Write-path invalidation: every write kills exactly what it stales.

The decision cache settles an entry's validity when state is written, not
when a probe reads it (see :mod:`repro.sched.backlog`): each write path
clears the ``live`` flag of the entries it affects, and a probe that finds
its entry through the per-request index trusts that flag.  A write path
that forgets its kill therefore serves a stale placement silently.

The property here interleaves probes with every write path — feedback
(``record_service`` / ``submit_virtual``), masks by class and by name and
their restore, preferences, pins, ``invalidate_model``, a refit and a
predictor swap, a repartition (announced by ``notify_repartition`` or
``invalidate``), and an online drift flag and its recovery — on a cached
scheduler and an :class:`~tests.placement_oracle.UncachedBacklog` twin
built on identical state.  Every ``(device, delay)``, every
:class:`~repro.sched.backlog.BacklogDecision` and every dispatched event
must be bit-identical between the two.
"""

from __future__ import annotations

import copy
import math

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.hw.specs import DGPU_GTX_1080TI
from repro.ml.forest import RandomForestClassifier
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.ocl.context import Context
from repro.ocl.device import Device, DeviceState
from repro.ocl.platform import get_all_devices
from repro.partition import PartitionableDeviceSpec
from repro.sched.backlog import BacklogAwareScheduler
from repro.sched.dataset import generate_dataset
from repro.sched.dispatcher import Dispatcher
from repro.sched.online import OnlineConfig, OnlinePredictor
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor
from repro.sched.scheduler import OnlineScheduler
from tests.placement_oracle import UncachedBacklog

SPECS = {s.name: s for s in (SIMPLE, MNIST_SMALL)}
MODELS = tuple(SPECS)
STATES = ("warm", "idle")
CLASSES = ("cpu", "igpu", "dgpu")
#: Refits only when the test asks for one, so a refit's wholesale clear
#: never hides a missed targeted kill; quick drift flags and recoveries.
CONFIG = OnlineConfig(refit_interval=10_000, drift_min_samples=3, recovery_samples=3)
#: Short enough that estimates age out and their objects get replaced.
TTL_S = 0.05
PSPEC = PartitionableDeviceSpec(DGPU_GTX_1080TI)
#: Seconds between steps: ms ticks keep the float arithmetic replayable.
TICK = 0.001
#: Recently probed (model, batch) pairs re-probed after every write.
REPROBE = 8


@pytest.fixture(scope="module")
def world(online_dataset):
    """(online prototype, shared swap-in predictor, refit datasets, batches)."""
    alternate = generate_dataset(
        "throughput", specs=list(SPECS.values()), batches=(1, 8, 512, 4096, 65536)
    )
    base = DevicePredictor(Policy.THROUGHPUT, small_forest()).fit(online_dataset)
    online = OnlinePredictor(base, SPECS, online_dataset, CONFIG)
    swap_in = DevicePredictor(Policy.THROUGHPUT, small_forest()).fit(alternate)
    # Two batches either side of every cut of either fit: several
    # batches per interval, across several intervals per log2 bucket.
    batches = {1, 64, 1024}
    for cut in (*online.batch_cuts(), *swap_in.batch_cuts()):
        lo = math.floor(cut)
        batches |= {lo - 1, lo, lo + 1, lo + 2}
    return online, swap_in, (alternate, online_dataset), sorted(b for b in batches if b >= 1)


def small_forest() -> RandomForestClassifier:
    """A few trees: refits run inside every example."""
    return RandomForestClassifier(n_estimators=4, random_state=0)


def outcome(call):
    """A call's result, or its error: both twins must fail alike too."""
    try:
        return "ok", call()
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return "error", type(exc).__name__, str(exc)


class Twins:
    """A cached backlog scheduler and its uncached twin, driven in step."""

    def __init__(self, world):
        prototype, self.swap_in, self.datasets, batches = world
        self.largest = batches[-1]   # a dGPU-ranked batch in every fit
        self.t = 0.0
        self.seen: "dict[tuple[str, int], None]" = {}
        self.online = [copy.deepcopy(prototype) for _ in range(2)]
        self.pair = [
            cls(self._scheduler(online), max_rank=2, service_ttl_s=TTL_S)
            for cls, online in zip((BacklogAwareScheduler, UncachedBacklog), self.online)
        ]

    @staticmethod
    def _scheduler(online) -> OnlineScheduler:
        ctx = Context(get_all_devices())
        dispatcher = Dispatcher(ctx)
        for spec in SPECS.values():
            dispatcher.deploy_fresh(spec, rng=0)
        return OnlineScheduler(ctx, dispatcher, {Policy.THROUGHPUT: online})

    def both(self, action):
        """Apply ``action(backlog, twin index)`` to both; outcomes must match."""
        cached, plain = (outcome(lambda: action(bl, i)) for i, bl in enumerate(self.pair))
        assert cached == plain

    def tick(self, n: int = 1) -> None:
        self.t += n * TICK

    # -- probes -----------------------------------------------------------

    def probe(self, model: str, batch: int, state: str) -> None:
        """Force the dGPU's state, then estimate and decide on both twins."""
        gpu = DeviceState.WARM if state == "warm" else DeviceState.IDLE
        spec, t = SPECS[model], self.t
        self.seen[model, batch] = None

        def run(bl, _):
            dgpu = next(
                (d for d in bl.scheduler.context.devices if d.device_class.value == "dgpu"),
                None,
            )
            if dgpu is not None:
                dgpu.force_state(gpu, now=t)
            return (
                bl.estimate_completion(spec, batch, t),
                bl.decide(spec, batch, t),
                bl.n_spills,
                bl._n_fallback_decisions,
            )

        self.both(run)

    def probe_both_states(self, model: str, batch: int) -> None:
        for state in STATES:
            self.probe(model, batch, state)

    def reprobe(self) -> None:
        """Read back the latest cells, so a write that should have killed
        one of their entries is caught right after it."""
        for model, batch in list(self.seen)[-REPROBE:]:
            self.probe_both_states(model, batch)

    # -- write paths ------------------------------------------------------

    def submit(self, model: str, batch: int) -> None:
        spec, t = SPECS[model], self.t

        def run(bl, _):
            decision, event = bl.submit_virtual(spec, batch, t)
            return decision, event.time_started, event.time_ended

        self.both(run)

    def record(self, model, batch, state, device, service_s) -> None:
        t = self.t
        self.both(lambda bl, _: bl.record_service(model, batch, state, device, service_s, now=t))

    def mask(self, kind: str, pick: int, restore: bool) -> None:
        """Mask one class or one device name out; with ``restore``, read
        the masked cells back and then lift the mask again."""

        def run(bl, _):
            devices = bl.scheduler.context.devices
            if kind == "class":
                present = sorted({d.device_class.value for d in devices})
                drop = present[pick % len(present)]
                return bl.set_device_mask(set(present) - {drop})
            names = [d.name for d in devices]
            drop = names[pick % len(names)]
            return bl.set_device_mask(set(names) - {drop})

        self.both(run)
        if restore:
            self.reprobe()
            self.both(lambda bl, _: bl.set_device_mask(None))

    def prefer(self, model: str, classes) -> None:
        self.both(lambda bl, _: bl.set_model_preference(model, classes))

    def pin(self, model: str, pick) -> None:
        def run(bl, _):
            if pick is None:
                return bl.set_model_device_pin(model, None)
            names = [d.name for d in bl.scheduler.context.devices]
            return bl.set_model_device_pin(model, [names[pick % len(names)]])

        self.both(run)

    def invalidate_model(self, model: str) -> None:
        def run(bl, _):
            bl.invalidate_model(model)   # its count is the cache's own

        self.both(run)

    def refit(self, which: int) -> None:
        """Refit both twins' own forests on the same data (generation bump)."""
        dataset = self.datasets[which]

        def run(bl, i):
            self.online[i].base.fit(dataset)

        self.both(run)

    def swap(self) -> None:
        """Toggle the installed predictor: own online one <-> shared plain."""

        def run(bl, i):
            predictors = bl.scheduler.predictors
            own = self.online[i]
            predictors[Policy.THROUGHPUT] = (
                self.swap_in if predictors[Policy.THROUGHPUT] is own else own
            )

        self.both(run)

    def repartition(self, notifier: str) -> None:
        """Split the dGPU in two, or merge the halves back; then announce
        the new topology through ``notifier``.  Cells that place on the
        dGPU are read first, so stale bindings of a retired queue show."""
        for model in MODELS:
            self.probe_both_states(model, self.largest)

        def run(bl, _):
            scheduler = bl.scheduler
            dgpus = [
                d.name for d in scheduler.context.devices if d.device_class.value == "dgpu"
            ]
            specs = (
                PSPEC.partition_specs(2) if dgpus == [DGPU_GTX_1080TI.name] else (DGPU_GTX_1080TI,)
            )
            for spec in specs:
                device = Device(spec)
                scheduler.register_device(device)
                scheduler.dispatcher.attach_device(device)
            for name in dgpus:
                scheduler.unregister_device(name)
                scheduler.dispatcher.detach_device(name)
            getattr(bl, notifier)()

        self.both(run)

    def drift(self, model: str, batch: int, state: str) -> None:
        """A silent dGPU slowdown on one cell: the online predictor flags
        its (model, bucket) in both dGPU states, which only the flag's
        targeted invalidation reaches in the state not observed."""
        self.probe_both_states(model, batch)
        for _ in range(10):
            self.tick()
            self.record(model, batch, state, "dgpu", 0.005)
            self.record(model, batch, state, "cpu", 0.02)
        for _ in range(12):
            self.tick()
            self.record(model, batch, state, "dgpu", 0.04)
        self.probe_both_states(model, batch)

    def recover(self, model: str, batch: int, state: str, which: int) -> None:
        """A refit, then in-band residuals: flags on the cell clear."""
        self.refit(which)
        self.probe_both_states(model, batch)
        for _ in range(8):
            self.tick()
            self.record(model, batch, state, "dgpu", 0.04)
            self.record(model, batch, state, "cpu", 0.02)
        self.probe_both_states(model, batch)


def operations(batches):
    model = st.sampled_from(MODELS)
    batch = st.sampled_from(batches)
    state = st.sampled_from(STATES)
    return st.one_of(
        st.tuples(st.just("probe"), model, batch, state),
        st.tuples(st.just("submit"), model, batch),
        st.tuples(
            st.just("record"), model, batch, state, st.sampled_from(CLASSES),
            st.sampled_from((0.001, 0.01, 0.04)),
        ),
        st.tuples(
            st.just("mask"), st.sampled_from(("class", "name")), st.integers(0, 3),
            st.booleans(),
        ),
        st.tuples(
            st.just("prefer"), model,
            st.one_of(st.none(), st.permutations(CLASSES).map(lambda p: tuple(p[:2]))),
        ),
        st.tuples(st.just("pin"), model, st.one_of(st.none(), st.integers(0, 3))),
        st.tuples(st.just("invalidate_model"), model),
        st.tuples(st.just("refit"), st.integers(0, 1)),
        st.tuples(st.just("swap")),
        st.tuples(
            st.just("repartition"), st.sampled_from(("notify_repartition", "invalidate"))
        ),
        st.tuples(st.just("drift"), model, batch, state),
        st.tuples(st.just("recover"), model, batch, state, st.integers(0, 1)),
    )


# No shrink phase: a failing script is reported as drawn (at most 30
# steps), where shrinking one would replay it thousands of times.
@settings(
    max_examples=60, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(data=st.data())
def test_every_write_path_keeps_the_cache_exact(world, data):
    batches = world[3]
    twins = Twins(world)
    steps = data.draw(
        st.lists(st.tuples(st.integers(0, 3), operations(batches)), min_size=4, max_size=30)
    )
    for ticks, (name, *args) in steps:
        twins.tick(ticks)
        getattr(twins, name)(*args)
        twins.reprobe()
