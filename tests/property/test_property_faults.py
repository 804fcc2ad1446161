"""Property tests: exactly-once under random crash/recover chaos.

The resilience layer's core promise: whatever sequence of node crashes
and recoveries a campaign throws at the fleet, every submitted request
is resolved exactly once — served once or shed once, never lost in a
crashed node's queue, never executed twice after re-adoption.  A second
family of properties holds the breaker state machine to its invariants
under arbitrary event interleavings.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRouter, NodeSpec
from repro.faults import BreakerState, CircuitBreaker, FaultInjector, ResilienceConfig
from repro.workloads.requests import InferenceRequest
from tests.cluster.conftest import build_fleet

arrival_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.02),        # gap to next arrival
        st.integers(min_value=1, max_value=256),         # batch
        st.one_of(st.none(), st.floats(min_value=0.05, max_value=0.5)),  # SLO
    ),
    min_size=1,
    max_size=25,
)

# (victim index, crash instant, downtime) triples; instants are clamped
# into the trace horizon inside the test.
crash_steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.01, max_value=0.5),
    ),
    min_size=0,
    max_size=4,
)


def submit_steps(router, steps):
    t = 0.0
    for i, (gap, batch, slo) in enumerate(steps):
        t += gap
        router.submit_request(
            InferenceRequest(
                request_id=i,
                arrival_s=t,
                model="simple" if i % 2 else "mnist-small",
                batch=batch,
                deadline_s=None if slo is None else t + slo,
            )
        )
    return t


@settings(max_examples=10, deadline=None)
@given(steps=arrival_steps, crashes=crash_steps, seed=st.integers(0, 2**31 - 1))
def test_exactly_once_under_random_crash_recover(
    serving_predictors, steps, crashes, seed
):
    fleet = build_fleet(
        serving_predictors,
        node_specs=(
            NodeSpec("node-a"),
            NodeSpec("node-b"),
            NodeSpec("node-c", device_classes=("cpu",)),
        ),
    )
    router = ClusterRouter(
        fleet,
        balancer="join-shortest-queue",
        resilience=ResilienceConfig(
            heartbeat_every_s=0.01,
            breaker_cooldown_s=0.02,
            seed=seed,
        ),
    )
    horizon = submit_steps(router, steps)

    injector = FaultInjector(router)
    # Build non-overlapping per-node crash windows from the raw triples:
    # a node that is already down at the drawn instant just skips that
    # crash (the invariant under test is the router's, not the draw's).
    busy_until = {}
    for victim, frac, downtime in crashes:
        name = fleet[victim].name
        crash_t = frac * max(horizon, 0.05)
        if crash_t <= busy_until.get(name, -1.0):
            continue
        injector.crash_node(crash_t, name)
        injector.recover_node(crash_t + downtime, name)
        busy_until[name] = crash_t + downtime

    router.schedule_health(
        max(horizon, max(busy_until.values(), default=0.0)) + 1.0
    )
    router.run()

    result = router.result()
    n = len(steps)
    assert len(result.responses) == n
    assert all(r.done for r in result.responses)           # nothing lost
    assert len(result.served) + len(result.shed) == n      # nothing duplicated
    served_ids = [r.request.request_id for r in result.served]
    assert len(served_ids) == len(set(served_ids))
    shed_ids = [r.request.request_id for r in result.shed]
    assert set(served_ids) & set(shed_ids) == set()
    assert router.n_pending == 0
    # Fleet telemetry agrees with the router's ledger on served counts —
    # a double execution would inflate the per-node sum.
    assert router.telemetry.merged().n_served == len(result.served)


@settings(max_examples=10, deadline=None)
@given(steps=arrival_steps, seed=st.integers(0, 2**31 - 1))
def test_chaos_replay_is_deterministic(serving_predictors, steps, seed):
    def run():
        router = ClusterRouter(
            build_fleet(serving_predictors),
            resilience=ResilienceConfig(heartbeat_every_s=0.01, seed=seed),
        )
        horizon = submit_steps(router, steps)
        injector = FaultInjector(router)
        injector.crash_node(0.25 * horizon + 0.01, "node-a")
        injector.recover_node(0.75 * horizon + 0.02, "node-a")
        router.schedule_health(horizon + 1.0)
        router.run()
        return [
            (r.status, r.node_name, r.n_routes) for r in router.result().responses
        ]

    assert run() == run()


breaker_ops = st.lists(
    st.sampled_from(["success", "failure", "trip", "probe"]), max_size=40
)


@settings(max_examples=200, deadline=None)
@given(ops=breaker_ops, threshold=st.integers(1, 4))
def test_breaker_state_machine_invariants(ops, threshold):
    b = CircuitBreaker(
        failure_threshold=threshold, cooldown_s=0.1, max_cooldown_s=0.4
    )
    now = 0.0
    for op in ops:
        now += 1.0  # every cooldown has elapsed by the next step
        if op == "success":
            b.record_success(now)
        elif op == "failure":
            b.record_failure(now)
        elif op == "trip":
            b.trip(now)
        else:
            b.maybe_half_open(now)
        # Invariants that hold after every single operation:
        assert b.allows_traffic == (b.state is BreakerState.CLOSED)
        assert b.cooldown_s <= b._cooldown <= b.max_cooldown_s
        assert b.n_opens >= b.n_closes            # can't close what never opened
        assert b.n_opens >= b.n_half_opens
        if b.state is BreakerState.OPEN:
            assert b._opened_at is not None
        else:
            assert b.cooldown_remaining_s(now) == 0.0
