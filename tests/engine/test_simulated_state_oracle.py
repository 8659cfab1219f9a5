"""The fluid simulator's state, replayed per task: the oracle for ``S(k, w)``.

The simulator keeps no per-key state: a move ships the ``S(k, w)`` its plan
carries, read off the statistics window.  This test keeps the per-task state
the simulator does not — one :class:`~repro.engine.state.KeyedState` per
task, fed each interval's routed buckets and moved by every plan the
migration protocol costs — and checks that the two agree:

* every move, of a rebalance or of a resize, ships exactly its source's
  reference ``key_size``;
* after every interval, each key's state sits only on the task it routes to.
"""

import pytest

from repro.core.strategy import get_strategy
from repro.engine import MigrationProtocol, OperatorSimulator, SimulationConfig
from repro.engine.state import KeyedState
from repro.operators import WordCountOperator
from repro.workloads import ZipfWorkload

WINDOW = 2
NUM_TASKS = 4
SCALE_AT = 4
INTERVALS = 9


class _ReferenceTasks:
    """One windowed state per task, fed by the routed buckets and moved by the plans."""

    def __init__(self, partitioner, logic):
        self.partitioner = partitioner
        self.logic = logic
        self.states = {}
        self.interval = -1
        #: ``(interval, num_tasks, moves)`` of every plan the protocol costed.
        self.plans = []

    def state(self, task):
        return self.states.setdefault(task, KeyedState(window=WINDOW))

    def routing(self, route_snapshot):
        """Wrap the stage's one ``route_snapshot`` call per interval: ingest
        its buckets, then close the interval (the window drops what left it)."""

        def routed(snapshot):
            buckets = route_snapshot(snapshot)
            self.interval += 1
            for task, bucket in buckets.items():
                keys = list(bucket)
                delta = self.logic.batch_state_delta(keys)
                added = [delta * count for count in bucket.values()]
                self.state(task).accumulate_batch(keys, added, self.interval, added)
            for state in self.states.values():
                state.expire(self.interval)
            return buckets

        return routed

    def costing(self, execute):
        """Wrap ``MigrationProtocol.execute``: move the reference state first."""

        def costed(protocol, plan, *args, **kwargs):
            for move in plan:
                source = self.state(move.source)
                assert move.state_size == source.key_size(move.key), move
                self.state(move.target).install(move.key, source.extract(move.key))
            self.plans.append((self.interval, self.partitioner.num_tasks, len(plan)))
            return execute(protocol, plan, *args, **kwargs)

        return costed

    def assert_state_sits_where_keys_route(self):
        for task, state in self.states.items():
            held = [key for key in state.keys() if state.key_size(key) > 0]
            assert self.partitioner.assign_batch(held) == [task] * len(held), (
                f"interval {self.interval}: task {task} holds state of keys routed elsewhere"
            )


@pytest.mark.parametrize("strategy", ["mixed", "storm"])
def test_moves_ship_the_reference_state_and_leave_none_stranded(strategy, monkeypatch):
    partitioner = get_strategy(strategy).build(
        NUM_TASKS, theta_max=0.1, window=WINDOW, seed=1
    )
    logic = WordCountOperator(window=WINDOW)
    reference = _ReferenceTasks(partitioner, logic)
    partitioner.route_snapshot = reference.routing(partitioner.route_snapshot)
    monkeypatch.setattr(
        MigrationProtocol, "execute", reference.costing(MigrationProtocol.execute)
    )
    workload = ZipfWorkload(
        num_keys=600, skew=0.9, tuples_per_interval=20_000, fluctuation=0.5,
        num_tasks=NUM_TASKS, intervals=INTERVALS, seed=2,
    ).take(INTERVALS)

    def stream():
        for snapshot in workload:
            yield snapshot  # the simulator closes the interval before resuming us
            reference.assert_state_sits_where_keys_route()

    simulator = OperatorSimulator(partitioner, logic, SimulationConfig(capacity_factor=1.1))
    metrics = simulator.run(stream(), scale_out_at={SCALE_AT: NUM_TASKS + 1})

    assert reference.interval == INTERVALS - 1
    resize = [moves for interval, tasks, moves in reference.plans
              if interval == SCALE_AT - 1 and tasks == NUM_TASKS + 1]
    assert len(resize) == 1 and resize[0] > 0
    assert metrics.intervals[SCALE_AT].migrated_state > 0
    if strategy == "mixed":
        assert metrics.rebalance_count > 0
