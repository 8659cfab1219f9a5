"""Hash functions used for implicit (default) key routing.

The paper assumes a universal hash function ``h : K -> D`` that maps a key to a
downstream task instance; its evaluation implements this with consistent
hashing (Karger et al., STOC'97), which is also what Apache Storm's fields
grouping effectively provides once keys are spread over task buckets.

Two implementations are provided:

* :class:`UniversalHash` — a seeded 64-bit FNV-1a hash reduced modulo the number
  of tasks.  Deterministic across processes and Python versions (unlike the
  built-in ``hash``), cheap, and the default used by the rest of the library.
* :class:`ConsistentHashRing` — a classic virtual-node hash ring.  Mainly used
  to reproduce the paper's statement that even consistent hashing does not
  account for key granularities, and to support task addition/removal in the
  scale-out experiments (Fig. 15).

Keys that are one dict key hash alike (``1`` / ``True`` / ``1.0`` /
``np.int64(1)``, ``0.0`` / ``-0.0``, ``(1,)`` / ``(True,)``; see
:func:`_key_bytes`).  So a key is one unit wherever it is looked up: the
routing table, an operator's keyed state, and every ``{key: result}`` cache
over the hash — the digest cache here, the partitioners' route memo and PKG's
candidate cache.
"""

from __future__ import annotations

from bisect import bisect_right
from numbers import Real
from typing import Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.snapshot import same_key_list

__all__ = ["UniversalHash", "ConsistentHashRing", "fnv1a_64", "stable_hash"]

_FNV_OFFSET_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK_64 = 0xFFFFFFFFFFFFFFFF


def _avalanche(value: int) -> int:
    """splitmix64-style finaliser: spread entropy into every output bit.

    Plain FNV-1a is poorly distributed in its low bits for short structured
    inputs (sequential integers, small tuples); reducing it modulo the task
    count would then produce visibly unbalanced assignments.  The finaliser
    fixes that without giving up determinism.
    """
    value &= _MASK_64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK_64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK_64
    value ^= value >> 31
    return value


def fnv1a_64(data: bytes, seed: int = 0) -> int:
    """Return the (finalised) 64-bit FNV-1a hash of ``data``, mixed with ``seed``.

    The seed is folded into the offset basis so that different seeds yield
    independent-looking hash families, which is what the "universal hash"
    abstraction of the paper requires.
    """
    h = (_FNV_OFFSET_BASIS ^ (seed * 0x9E3779B97F4A7C15)) & _MASK_64
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK_64
    return _avalanche(h)


def _int_bytes(key: int) -> bytes:
    return b"i" + key.to_bytes((key.bit_length() + 8) // 8 + 1, "little", signed=True)


def _key_bytes(key: Hashable) -> bytes:
    """Encode a key into bytes so that keys which compare equal encode alike.

    A ``str`` encodes as UTF-8, ``bytes`` as themselves, an ``int`` (``bool``
    included) as its two's-complement bytes.  Any other real number (numpy
    scalars and bools, ``float``, ``Fraction``) encodes as the ``int`` it
    equals, or else as ``repr(float(key))``.  A tuple encodes element by
    element.

    A key of any other class encodes as its ``repr``.  Such a class must give
    equal keys equal ``repr`` strings — the rule Python's ``hash`` imposes on
    equal keys — or equal keys may hash apart.  ``complex`` and ``Decimal``
    are not :class:`numbers.Real`, so ``1 + 0j`` and ``Decimal(1)`` break the
    rule against ``1``.
    """
    if isinstance(key, bytes):
        return key
    if isinstance(key, str):
        return key.encode("utf-8")
    if isinstance(key, int):
        return _int_bytes(key)
    if isinstance(key, tuple):
        out = b"t"
        for item in key:
            part = _key_bytes(item)
            out += len(part).to_bytes(4, "little") + part
        return out
    if isinstance(key, (Real, np.bool_)):
        try:
            whole = int(key)
        except (OverflowError, ValueError):  # ±inf, nan
            whole = None
        if whole is not None and whole == key:
            return _int_bytes(whole)
        return b"f" + repr(float(key)).encode("ascii")
    return b"r" + repr(key).encode("utf-8", errors="backslashreplace")


#: Memoised digests, keyed by ``(seed, key)``.  Snapshot routing hashes the
#: same keys interval after interval; caching the digest turns the FNV loop
#: into a dict lookup on the hot path.
_DIGEST_CACHE: dict = {}
_DIGEST_CACHE_MAX = 1 << 20


def stable_hash(key: Hashable, seed: int = 0) -> int:
    """Deterministic 64-bit hash of an arbitrary (hashable) key."""
    cache_key = (seed, key)
    digest = _DIGEST_CACHE.get(cache_key)
    if digest is None:
        digest = fnv1a_64(_key_bytes(key), seed=seed)
        if len(_DIGEST_CACHE) >= _DIGEST_CACHE_MAX:
            _DIGEST_CACHE.clear()
        _DIGEST_CACHE[cache_key] = digest
    return digest


class UniversalHash:
    """Seeded universal hash ``h(k) -> task index`` in ``[0, num_tasks)``.

    Parameters
    ----------
    num_tasks:
        Number of downstream task instances ``N_D``.
    seed:
        Seed selecting a member of the hash family.  Two instances with the
        same seed and the same ``num_tasks`` agree on every key.
    """

    def __init__(self, num_tasks: int, seed: int = 0) -> None:
        if num_tasks <= 0:
            raise ValueError(f"num_tasks must be positive, got {num_tasks}")
        self._num_tasks = int(num_tasks)
        self._seed = int(seed)
        #: The last key list hashed by :meth:`assign_array` and the result.
        self._last_array: Optional[Tuple[Sequence[Hashable], np.ndarray]] = None

    @property
    def num_tasks(self) -> int:
        """Number of task instances this hash maps onto."""
        return self._num_tasks

    @property
    def seed(self) -> int:
        """Seed of the hash family member."""
        return self._seed

    def __call__(self, key: Hashable) -> int:
        return stable_hash(key, self._seed) % self._num_tasks

    def assign_batch(self, keys: Iterable[Hashable]) -> List[int]:
        """Vectorised ``h(k)`` over many keys (one list pass, memoised digests)."""
        seed = self._seed
        num_tasks = self._num_tasks
        return [stable_hash(key, seed) % num_tasks for key in keys]

    def assign_array(self, keys: Sequence[Hashable]) -> np.ndarray:
        """``h(k)`` over ``keys`` as a read-only ``intp`` array.

        The planner hashes the observed keys of every interval; the hash is
        immutable, so the answer for the most recent key list is kept and a
        stationary key population (the same list, or one listing the same
        dict keys in the same order, see
        :func:`~repro.core.snapshot.same_key_list`) is hashed once, not once
        per interval.
        """
        last = self._last_array
        if last is not None and same_key_list(last[0], keys):
            return last[1]
        hashed = np.asarray(self.assign_batch(keys), dtype=np.intp)
        hashed.flags.writeable = False
        self._last_array = (keys, hashed)
        return hashed

    def candidates(self, key: Hashable, choices: int = 2) -> List[int]:
        """Return ``choices`` distinct candidate tasks for ``key``.

        Used by the PKG baseline ("power of two choices"): the i-th candidate
        is drawn from an independent hash family member.  When ``num_tasks`` is
        smaller than ``choices`` the list is truncated to the distinct tasks.
        """
        if choices <= 0:
            raise ValueError("choices must be positive")
        seen: List[int] = []
        attempt = 0
        while len(seen) < min(choices, self._num_tasks):
            candidate = stable_hash(key, self._seed + 7919 * (attempt + 1)) % self._num_tasks
            if candidate not in seen:
                seen.append(candidate)
            attempt += 1
            if attempt > 64 * choices:  # pragma: no cover - defensive
                break
        return seen

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UniversalHash(num_tasks={self._num_tasks}, seed={self._seed})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UniversalHash)
            and other._num_tasks == self._num_tasks
            and other._seed == self._seed
        )

    def __hash__(self) -> int:
        return hash(("UniversalHash", self._num_tasks, self._seed))


class ConsistentHashRing:
    """Consistent hashing ring with virtual nodes.

    Keys and virtual nodes are placed on a 64-bit ring; a key is routed to the
    owner of the first virtual node clockwise from the key's position.  Adding
    or removing a task only remaps the keys that fall in the affected arcs,
    which is the property the scale-out experiment (Fig. 15) relies on.

    Parameters
    ----------
    tasks:
        Iterable of task identifiers (typically ``range(N_D)``).
    replicas:
        Number of virtual nodes per task.  More replicas give a smoother split
        of the ring.
    seed:
        Seed for the placement hash.
    """

    def __init__(self, tasks: Iterable[int], replicas: int = 64, seed: int = 0) -> None:
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self._replicas = int(replicas)
        self._seed = int(seed)
        self._ring: List[int] = []
        self._owners: List[int] = []
        self._tasks: List[int] = []
        for task in tasks:
            self._insert(task)
        if not self._tasks:
            raise ValueError("ConsistentHashRing requires at least one task")

    def _insert(self, task: int) -> None:
        if task in self._tasks:
            raise ValueError(f"task {task!r} already present on the ring")
        self._tasks.append(task)
        for replica in range(self._replicas):
            point = stable_hash(("vnode", task, replica), self._seed)
            idx = bisect_right(self._ring, point)
            self._ring.insert(idx, point)
            self._owners.insert(idx, task)

    @property
    def tasks(self) -> Sequence[int]:
        """Tasks currently present on the ring, in insertion order."""
        return tuple(self._tasks)

    @property
    def num_tasks(self) -> int:
        return len(self._tasks)

    def add_task(self, task: int) -> None:
        """Add a task (and its virtual nodes) to the ring."""
        self._insert(task)

    def remove_task(self, task: int) -> None:
        """Remove a task and all of its virtual nodes from the ring."""
        if task not in self._tasks:
            raise KeyError(f"task {task!r} not on the ring")
        self._tasks.remove(task)
        keep_ring: List[int] = []
        keep_owner: List[int] = []
        for point, owner in zip(self._ring, self._owners):
            if owner != task:
                keep_ring.append(point)
                keep_owner.append(owner)
        self._ring = keep_ring
        self._owners = keep_owner
        if not self._tasks:
            raise ValueError("cannot remove the last task from the ring")

    def __call__(self, key: Hashable) -> int:
        point = stable_hash(key, self._seed)
        idx = bisect_right(self._ring, point)
        if idx == len(self._ring):
            idx = 0
        return self._owners[idx]

    def assign_batch(self, keys: Iterable[Hashable]) -> List[int]:
        """Vectorised ring lookup over many keys."""
        ring = self._ring
        owners = self._owners
        seed = self._seed
        size = len(ring)
        out: List[int] = []
        for key in keys:
            idx = bisect_right(ring, stable_hash(key, seed))
            out.append(owners[idx if idx < size else 0])
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConsistentHashRing(tasks={len(self._tasks)}, "
            f"replicas={self._replicas}, seed={self._seed})"
        )
