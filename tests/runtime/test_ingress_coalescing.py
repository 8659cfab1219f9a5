"""Properties of the ingress merge (``stage_loop.coalesce_ingress``).

The stage loop dispatches what already waits in its ingress as one chunk.
Driven here without processes: a ``collections.deque`` stands in for the
queue, a ``GAP`` entry for a moment at which it is empty, and ``_drive``
repeats the loop's own three lines around the merge (take the held message
or wait for the next, accept, coalesce).
"""

from collections import Counter, deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.messages import EmittedBatch, UpstreamDone, UpstreamMark
from repro.runtime.stage_loop import coalesce_ingress

GAP = "gap"  # the queue is empty here: a poll finds nothing, a wait skips it

_entries = st.lists(
    st.one_of(
        st.tuples(
            st.just("batch"),
            st.integers(0, 2),  # interval
            st.integers(1, 3),  # size, in thirds of batch_size (see _build)
            st.integers(0, 7),  # size remainder
            st.integers(0, 1),  # producer
            st.booleans(),  # replayed duplicate?
            st.floats(1.0, 100.0),  # origin_at
        ),
        st.tuples(st.just("mark"), st.integers(0, 2), st.integers(0, 1)),
        st.tuples(st.just("done"), st.integers(0, 1)),
        st.just((GAP,)),
    ),
    max_size=40,
)


def _build(entries, batch_size):
    """The arrival sequence: every tuple's key and value name its message."""
    arrivals = []
    next_seq = Counter()
    for index, entry in enumerate(entries):
        kind = entry[0]
        if kind == "batch":
            _, interval, thirds, extra, producer, duplicate, stamp = entry
            size = min(max(1, thirds * batch_size // 3 + extra), 3 * batch_size)
            if duplicate and next_seq[producer]:
                seq = next_seq[producer] - 1  # at the floor: must be dropped
            else:
                seq = next_seq[producer]
                next_seq[producer] += 1
            tuples = [(index, position) for position in range(size)]
            arrivals.append(
                EmittedBatch(
                    interval=interval,
                    origin_at=stamp,
                    keys=list(tuples),
                    values=list(tuples),
                    producer_id=producer,
                    producer_seq=seq,
                )
            )
        elif kind == "mark":
            arrivals.append(UpstreamMark(producer_id=entry[2], interval=entry[1]))
        elif kind == "done":
            arrivals.append(UpstreamDone(producer_id=entry[1]))
        else:
            arrivals.append(GAP)
    return arrivals


def _drive(arrivals, batch_size):
    """Run the loop's ingress handling over ``arrivals``; return what happened.

    ``events`` lists chunks, marks / dones, empty-queue moments and replayed
    batches refused at the top of a turn, in the order the loop met them
    (what ended a merge comes after the merged chunk).
    """
    queue = deque(arrivals)
    floors = {}
    accept_calls = Counter()
    dropped = []
    events = []
    after_chunk = []

    def accept(message):
        accept_calls[id(message)] += 1
        if message.producer_seq <= floors.get(message.producer_id, -1):
            dropped.append(message)
            return False
        floors[message.producer_id] = message.producer_seq
        return True

    def poll():
        if not queue:
            return None
        message = queue.popleft()
        if message is GAP:
            after_chunk.append((GAP, None))
            return None
        return message

    held = None
    while held is not None or queue:
        message, held = (queue.popleft(), None) if held is None else (held, None)
        if message is GAP:
            events.append((GAP, None))
        elif not isinstance(message, EmittedBatch):
            events.append(("control", message))
        elif not accept(message):
            events.append(("dropped", message))
        else:
            keys, values, origin_at, held = coalesce_ingress(
                message, poll, batch_size, accept
            )
            events.append(("chunk", (message.interval, keys, values, origin_at)))
            events.extend(after_chunk)
            after_chunk.clear()
    return events, accept_calls, dropped


@settings(max_examples=300, deadline=None)
@given(entries=_entries, batch_size=st.sampled_from([3, 8]))
def test_merge_keeps_order_bounds_and_stamps(entries, batch_size):
    arrivals = _build(entries, batch_size)
    snapshot = [
        list(message.keys) if isinstance(message, EmittedBatch) else None
        for message in arrivals
    ]
    events, accept_calls, dropped = _drive(arrivals, batch_size)
    position = {id(message): index for index, message in enumerate(arrivals)}

    # What was handled, message by message, in handling order.
    handled = []
    for kind, payload in events:
        if kind == "chunk":
            interval, keys, values, origin_at = payload
            assert keys == values  # the two columns stay aligned
            members = list(dict.fromkeys(index for index, _ in keys))
            # Whole messages, each in its own order, nothing interleaved.
            assert keys == [
                pair for index in members for pair in snapshot[index]
            ]
            # No chunk spans two intervals; the stamp is the oldest merged.
            assert {arrivals[index].interval for index in members} == {interval}
            assert origin_at == min(arrivals[index].origin_at for index in members)
            # Only a single message may exceed batch_size.
            assert len(keys) <= batch_size or len(members) == 1
            handled.extend(members)
        elif kind == "control":
            handled.append(position[id(payload)])
    # Arrival order is handling order: the concatenation of the chunks is the
    # concatenation of the accepted batches, and no mark / done overtakes
    # data that arrived before it or is overtaken by data that arrived after.
    refused = {position[id(message)] for message in dropped}
    assert handled == [
        index
        for index, message in enumerate(arrivals)
        if message is not GAP and index not in refused
    ]
    # Exactly the replays at or below their edge's floor were refused.
    floors = {}
    for index, message in enumerate(arrivals):
        if isinstance(message, EmittedBatch):
            replayed = message.producer_seq <= floors.get(message.producer_id, -1)
            assert (index in refused) == replayed
            floors[message.producer_id] = max(
                message.producer_seq, floors.get(message.producer_id, -1)
            )

    # Every batch meets ``accept`` exactly once; the merge mutated no message.
    for index, message in enumerate(arrivals):
        if isinstance(message, EmittedBatch):
            assert accept_calls[id(message)] == 1
            assert message.keys == snapshot[index]

    # The merge engages: two chunks of one interval handled back to back
    # (nothing — no mark, no empty queue, no dropped replay — between them)
    # are separate only because joining them would have overflowed.
    for (kind_a, a), (kind_b, b) in zip(events, events[1:]):
        if kind_a == kind_b == "chunk" and a[0] == b[0]:
            first_of_b = len(snapshot[b[1][0][0]])
            assert len(a[1]) + first_of_b > batch_size


def test_waiting_batches_of_one_interval_become_one_chunk():
    batches = [
        EmittedBatch(interval=4, origin_at=stamp, keys=[key], values=[key * 10])
        for key, stamp in ((1, 9.0), (2, 7.0), (3, 8.0))
    ]
    mark = UpstreamMark(producer_id=0, interval=4)
    queue = deque(batches[1:] + [mark])
    keys, values, origin_at, held = coalesce_ingress(
        batches[0], queue.popleft, 8, lambda message: True
    )
    assert (keys, values, origin_at) == ([1, 2, 3], [10, 20, 30], 7.0)
    assert held is mark and not queue
    assert batches[0].keys == [1]


def test_a_full_first_batch_polls_nothing():
    first = EmittedBatch(interval=0, origin_at=1.0, keys=[1, 2], values=[3, 4])

    def poll():
        raise AssertionError("a batch of batch_size tuples must not poll")

    keys, values, origin_at, held = coalesce_ingress(first, poll, 2, poll)
    assert keys is first.keys and values is first.values
    assert origin_at == 1.0 and held is None
