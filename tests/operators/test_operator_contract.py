"""One contract for every operator ``repro.operators`` exports.

An operator is written once — a cost model, a state model, one
``process_batch`` — and every engine reaches it through those three alone:
the router and the simulator multiply ``batch_cost`` / ``batch_state_delta``
by tuple counts (a scalar) or ``np.bincount``-reduce them (one value per
tuple), the worker ships ``process_batch``'s two columns downstream, and the
stage is pickled into its worker processes.  Whatever a later operator does
inside, this is what it has to look like from outside.  (That the emissions
equal the per-tuple meaning, however the stream is cut, is
``test_process_batch_parity.py``.)
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

import repro.operators
from repro.engine.operator import OperatorLogic, Task
from repro.workloads.tpch import ForeignKeyLookup

EXPORTED = {
    name: getattr(repro.operators, name)
    for name in sorted(repro.operators.__all__)
    if inspect.isclass(getattr(repro.operators, name))
    and issubclass(getattr(repro.operators, name), OperatorLogic)
}
#: ... and the base class itself: the stateless default every one extends.
OPERATORS = {"OperatorLogic": OperatorLogic, **EXPORTED}

#: Constructor arguments of the operators that cannot be built bare.
ARGUMENTS = {"DimensionJoin": {"lookup": ForeignKeyLookup({1: 7, 2: 9}, 25)}}

KEYS = [1, 2, 1, 40, 1, 3]
VALUES = [4, 5.5, None, 6, 7, 8]


def _build(name):
    return OPERATORS[name](**ARGUMENTS.get(name, {}))


def test_every_shipped_operator_is_exported():
    shipped = {
        cls.__name__
        for module in ("wordcount", "windowed_aggregate", "windowed_join", "tpch_q5")
        for cls in vars(getattr(repro.operators, module)).values()
        if inspect.isclass(cls) and issubclass(cls, OperatorLogic) and cls is not OperatorLogic
    }
    assert shipped == set(EXPORTED)


@pytest.mark.parametrize("name", OPERATORS)
class TestOperatorContract:
    def test_has_no_per_tuple_twin(self, name):
        for twin in ("process", "tuple_cost", "state_delta"):
            assert not hasattr(OPERATORS[name], twin), f"{name} grew a per-tuple {twin}()"

    def test_pickles_with_its_configuration(self, name):
        logic = _build(name)
        clone = pickle.loads(pickle.dumps(logic))
        assert type(clone) is type(logic)
        assert clone.batch_cost(KEYS, VALUES) == logic.batch_cost(KEYS, VALUES)
        assert clone.window == logic.window and clone.stateful == logic.stateful

    @pytest.mark.parametrize("model", ["batch_cost", "batch_state_delta"])
    def test_models_answer_a_scalar_or_one_value_per_tuple(self, name, model):
        logic = _build(name)
        for values in (VALUES, None):
            answer = getattr(logic, model)(KEYS, values)
            assert np.ndim(answer) == 0 or np.shape(answer) == (len(KEYS),)
            assert np.all(np.asarray(answer, dtype=float) >= 0)
        if not logic.stateful:
            assert not np.any(logic.batch_state_delta(KEYS, VALUES))

    def test_process_batch_returns_two_equal_length_lists(self, name):
        task = Task(0, _build(name))
        for interval in (0, 0, 1):
            out_keys, out_values = task.process_batch(KEYS, VALUES, interval)
            assert isinstance(out_keys, list) and isinstance(out_values, list)
            assert len(out_keys) == len(out_values)
            task.end_interval(interval)
        assert task.process_batch([], [], 2) == ([], [])
        assert task.metrics.tuples_processed == 3 * len(KEYS)

    def test_state_is_touched_iff_stateful(self, name):
        task = Task(0, _build(name))
        task.process_batch(KEYS, VALUES, 0)
        if task.logic.stateful:
            deltas = np.broadcast_to(task.logic.batch_state_delta(KEYS, VALUES), len(KEYS))
            assert set(task.state.keys()) == set(KEYS)
            assert task.state_size == pytest.approx(deltas.sum())
        else:
            assert len(task.state) == 0 and task.state_size == 0.0


STATEFUL = [name for name in OPERATORS if OPERATORS[name].stateful]


@pytest.mark.parametrize("name", STATEFUL)
class TestStateOwnership:
    """The task owns its keyed state: an operator may grow a list / dict
    payload in place, so the two ways a payload object could leak — a
    checkpoint snapshot and an emission — must hand out something else."""

    def test_snapshot_is_detached_from_later_batches(self, name):
        task = Task(0, _build(name))
        task.process_batch(KEYS, VALUES, 0)
        task.end_interval(0)
        task.process_batch(KEYS, VALUES, 1)
        snapshots = {key: task.snapshot_key(key) for key in task.state.keys()}
        frozen = copy.deepcopy(snapshots)
        assert set(snapshots) == set(KEYS) and all(snapshots.values())
        task.process_batch(KEYS, VALUES, 1)
        task.process_batch(KEYS[::-1], VALUES[::-1], 1)
        assert snapshots == frozen

    def test_no_emission_is_a_state_owned_object(self, name):
        task = Task(0, _build(name))
        emitted = []
        for interval in (0, 0, 1):
            emitted.extend(task.process_batch(KEYS, VALUES, interval)[1])
        held = {
            id(payload)
            for key in task.state.keys()
            for payload in task.state.payloads(key)
            if isinstance(payload, (list, dict, set))
        }
        assert not held.intersection(map(id, emitted))
