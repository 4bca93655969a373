"""Envelopes and the deterministic delivery staging area.

The sharded simulator (:mod:`repro.sim.shard`) splits one logical
machine across several :class:`~repro.sim.kernel.Kernel` instances.  A
message crossing (or, in sharded mode, even staying inside) a partition
cannot be ``Channel.put`` directly: channels are kernel-bound, and the
arrival *order* of concurrent sends would depend on which shard happened
to run first.  Instead every delivery is an :class:`Envelope` with a
totally ordered key

    ``(recv_time, send_time, src_component, src_interface, send_seq)``

where ``send_seq`` is the sender context's own per-message counter.  All
key fields are properties of the *logical* send, none of the shard
layout, so sorting envelopes by key reproduces one canonical per-channel
put order for every shard count -- the heart of the shard-invariance
oracle.  An envelope *is* that key plus its delivery action: a handler
and the handler's positional arguments, ``(*key, handler, *args)``.  The
heap orders it with the built-in tuple comparison, and the action is
plain data -- one shared handler per kind of delivery, not a closure
built for each send.

A cross-shard envelope is posted to the receiving shard's inbox, a
plain list (``Shard.post``), and drained at synchronization points into
that shard's :class:`Staging`: a private priority queue of undelivered
envelopes, ordered by key.  Envelopes are released into the shard
kernel in key order, batch-wise below a conservative time horizon (see
``Shard.run_until``), which pins equal-``recv_time`` deliveries to key
order no matter when they arrived.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter
from sys import intern as _intern
from typing import Any, Callable, Iterable, List

#: Key fields, in comparison order (see module docstring).
KEY_FIELDS = ("recv_time", "send_time", "src", "src_interface", "seq")


class Envelope(tuple):
    """One staged delivery: the tuple ``(*key, deliver, *args)``.

    ``deliver(*args)`` runs *on the receiving shard's kernel* at
    ``recv_time``.  A sender stages one shared handler with the
    arguments of this send (the 6-argument form is the zero-argument
    case).  Keys are unique per logical message (each sender context
    numbers its sends), so comparisons never reach ``deliver``;
    :class:`Staging` turns a duplicate key into a ``ValueError``.
    """

    __slots__ = ()

    def __new__(
        cls,
        recv_time: int,
        send_time: int,
        src: str,
        src_interface: str,
        seq: int,
        deliver: Callable[..., None],
        *args: Any,
    ) -> "Envelope":
        if recv_time < send_time:
            raise ValueError(
                f"recv_time {recv_time} precedes send_time {send_time} "
                f"(negative link latency?)"
            )
        # A workload sends many envelopes with the same (src, iface)
        # strings; interning collapses them to one object each, so the
        # heap's tuple comparisons short-circuit on identity instead of
        # comparing characters (and N staged envelopes hold 2 string
        # references, not 2N strings).
        return tuple.__new__(
            cls,
            (recv_time, send_time, _intern(src), _intern(src_interface), seq, deliver, *args),
        )

    recv_time = property(itemgetter(0))
    send_time = property(itemgetter(1))
    src = property(itemgetter(2))
    src_interface = property(itemgetter(3))
    seq = property(itemgetter(4))
    deliver = property(itemgetter(5))
    #: The positional arguments ``deliver`` is called with.
    args = property(itemgetter(slice(6, None)))
    #: The total-order key (shard-layout independent).
    key = property(itemgetter(slice(0, 5)))

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Envelope recv={self[0]} send={self[1]} "
            f"src={self[2]}.{self[3]}#{self[4]}>"
        )


def _deliver_group(group: List[Envelope]) -> Callable[[], None]:
    """One kernel callback delivering a whole equal-``recv_time`` group.

    The group is already in key order (popped off the staging heap), so
    delivering inline back-to-back produces exactly the channel-put
    order the per-envelope path produced: each ``deliver(*args)`` runs at the
    same kernel ``now`` and any wakeups it triggers ride ``call_soon``
    with sequence numbers *after* the whole group, just as they would
    have landed after the group's individually scheduled events.
    """

    def deliver_batch() -> None:
        for env in group:
            env[5](*env[6:])

    return deliver_batch


def _duplicate_key(key: tuple) -> ValueError:
    return ValueError(
        f"duplicate envelope key {key}: keys "
        f"({', '.join(KEY_FIELDS)}) must be unique per logical send"
    )


def _key_error(heap: List[Envelope], exc: TypeError) -> Exception:
    """Equal keys make the heap's tuple comparison fall through to the
    ``deliver`` callables, which raises ``TypeError`` when they differ:
    name the key.  Only that error path pays for this scan."""
    seen = set()
    for env in heap:
        key = env[:5]
        if key in seen:
            return _duplicate_key(key)
        seen.add(key)
    return exc


class Staging:
    """A shard-private min-heap of envelopes, read by position
    (``env[0]`` is ``recv_time``, ``env[5:]`` is ``deliver`` and its
    arguments)."""

    def __init__(self) -> None:
        self._heap: List[Envelope] = []
        self.released = 0
        #: Kernel callbacks actually scheduled by :meth:`release_batched`
        #: -- ``released / batches`` is the cross-shard batch factor the
        #: scaling bench reports.
        self.batches = 0

    def push(self, envelope: Envelope) -> None:
        """Stage one envelope for later release."""
        try:
            heappush(self._heap, envelope)
        except TypeError as exc:
            raise _key_error(self._heap, exc)

    def push_many(self, envelopes: Iterable[Envelope]) -> int:
        """Stage a chunk of envelopes in one O(n) heapify instead of n
        O(log n) sifts -- the mailbox drain path hands over a whole
        window's worth of cross-shard arrivals at once."""
        items = list(envelopes)
        if not items:
            return 0
        heap = self._heap
        try:
            if len(items) > len(heap) >> 2:
                heap.extend(items)
                heapify(heap)
            else:
                for env in items:
                    heappush(heap, env)
        except TypeError as exc:
            raise _key_error(heap, exc)
        return len(items)

    def _pop_below(self, horizon: int) -> List[Envelope]:
        """Pop every envelope with ``recv_time < horizon``, in key order.

        Two envelopes sharing a handler compare past an equal key into
        their arguments without a ``TypeError``, so the heap accepts
        them.  Equal keys pop adjacent, and this is where they are
        caught (``seq`` first, so the unique case stays cheap)."""
        heap = self._heap
        batch: List[Envelope] = []
        prev = (None,) * 5  # no envelope's recv_time is None
        try:
            while heap and heap[0][0] < horizon:
                env = heappop(heap)
                if env[4] == prev[4] and env[:5] == prev[:5]:
                    raise _duplicate_key(env[:5])
                batch.append(env)
                prev = env
        except TypeError as exc:
            raise _key_error(heap, exc)
        return batch

    def release_below(self, horizon: int, schedule: Callable[[int, Any], Any]) -> int:
        """Release every envelope with ``recv_time < horizon`` into the
        kernel via ``schedule(recv_time, deliver, *args)``, in key order.

        Key-order release below a *conservative* horizon (no
        later-staged envelope can undercut it) is what makes equal-time
        deliveries land in the same canonical order for every shard
        count.  This is the per-envelope reference path; the hot path is
        :meth:`release_batched`, which the equivalence tests hold to
        identical dispatch traces."""
        batch = self._pop_below(horizon)
        for env in batch:
            schedule(env[0], *env[5:])
        n = len(batch)
        self.released += n
        self.batches += n
        return n

    def release_batched(self, horizon: int, schedule: Callable[[int, Any], Any]) -> int:
        """Batched release: one scheduled callback per *distinct*
        ``recv_time`` below the horizon, delivering that time's whole
        key-ordered group inline.

        Equivalent to :meth:`release_below` by construction: every
        callback is scheduled *now* (so its kernel sequence number
        precedes anything the executing window schedules later, exactly
        like the per-envelope path), and within one timestamp the group
        delivers in key order.  A fan-in workload whose messages share
        timestamps pays one kernel event per timestamp instead of one
        per envelope -- the cross-shard event count drops by the batch
        factor."""
        heap = self._heap
        if not heap or heap[0][0] >= horizon:
            return 0
        batch = self._pop_below(horizon)
        n = len(batch)
        i = 0
        while i < n:
            env = batch[i]
            t = env[0]
            j = i + 1
            while j < n and batch[j][0] == t:
                j += 1
            if j - i == 1:
                schedule(t, *env[5:])
            else:
                schedule(t, _deliver_group(batch[i:j]))
            self.batches += 1
            i = j
        self.released += n
        return n

    def __len__(self) -> int:
        return len(self._heap)
