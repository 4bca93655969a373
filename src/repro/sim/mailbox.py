"""Envelopes and the deterministic delivery staging area.

The sharded simulator (:mod:`repro.sim.shard`) splits one logical
machine across several shards, each with a clock of its own.  A
message, whether it crosses shards or stays inside one, is not handed
over directly: the arrival *order* of concurrent sends would depend on
which shard happened to run first.  Instead every delivery is an
envelope with a totally ordered key

    ``(recv_time, send_time, src_component, src_interface, send_seq)``

where ``send_seq`` is the sender context's own per-message counter.  All
key fields are properties of the *logical* send, none of the shard
layout, so sorting envelopes by key reproduces one canonical per-channel
put order for every shard count -- the heart of the shard-invariance
oracle.

An envelope is one plain tuple, that key followed by its delivery
action:

    ``(recv_time, send_time, src, src_interface, seq, handler_index, *args)``

``handler_index`` indexes the run's handler table (one shared handler
per kind of delivery, not a closure per send), and the delivery calls
``handlers[handler_index](*args)``.  The same tuple is staged, released,
delivered and pickled between worker processes as it is.  The heap
orders envelopes with the built-in tuple comparison; keys are unique per
logical send, so it never needs to get past the key.

A cross-shard envelope is posted to the receiving shard's inbox, a
plain list (``Shard.post``), and drained at synchronization points into
that shard's :class:`Staging`: a private priority queue of undelivered
envelopes, ordered by key, and the shard's whole event queue.  The
shard releases envelopes in key order, batch-wise below a conservative
time horizon (see ``Shard.run_until``), and runs each delivery as it
is released; the horizon pins equal-``recv_time`` deliveries to key
order no matter when they arrived.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, List, Sequence

#: Key fields, in comparison order (see module docstring).
KEY_FIELDS = ("recv_time", "send_time", "src", "src_interface", "seq")


def _deliver_group(group: List[tuple], handlers: Sequence[Callable[..., None]]) -> None:
    """Deliver a whole equal-``recv_time`` group through ``handlers``.

    The group is already in key order (popped off the staging heap), so
    delivering inline back-to-back produces exactly the order the
    per-envelope path produces: each handler runs at the same
    ``recv_time``, one after the other, in key order.
    """
    for env in group:
        handlers[env[5]](*env[6:])


def _duplicate_key(key: tuple) -> ValueError:
    return ValueError(
        f"duplicate envelope key {key}: keys "
        f"({', '.join(KEY_FIELDS)}) must be unique per logical send"
    )


def _key_error(heap: List[tuple], exc: TypeError) -> Exception:
    """Equal keys make the heap's tuple comparison fall through to the
    handler index and the arguments, which raises ``TypeError`` when the
    arguments do not compare: name the key.  Only that error path pays
    for this scan."""
    seen = set()
    for env in heap:
        key = env[:5]
        if key in seen:
            return _duplicate_key(key)
        seen.add(key)
    return exc


class Staging:
    """A shard-private min-heap of envelopes, read by position
    (``env[0]`` is ``recv_time``, ``env[5]`` the handler index,
    ``env[6:]`` its arguments)."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self.released = 0
        #: Deliveries handed out by :meth:`release_batched` (one per
        #: distinct ``recv_time`` in a release) -- ``released /
        #: batches`` is the cross-shard batch factor the scaling bench
        #: reports.
        self.batches = 0

    def push(self, envelope: tuple) -> None:
        """Stage one envelope for later release."""
        try:
            heappush(self._heap, envelope)
        except TypeError as exc:
            raise _key_error(self._heap, exc)

    def push_many(self, envelopes: Iterable[tuple]) -> int:
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

    def _pop_below(self, horizon: int) -> List[tuple]:
        """Pop every envelope with ``recv_time < horizon``, in key order.

        Two envelopes with one key compare past it into their handler
        indices and arguments, usually without a ``TypeError``, so the
        heap accepts them.  Equal keys pop adjacent, and this is where
        they are caught (``seq`` first, so the unique case stays
        cheap)."""
        heap = self._heap
        batch: List[tuple] = []
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

    def release_below(
        self, horizon: int, deliver: Callable[..., Any], handlers: Sequence[Callable[..., None]]
    ) -> int:
        """Release every envelope with ``recv_time < horizon`` through
        ``deliver(recv_time, handlers[handler_index], *args)``, in key
        order.

        Key-order release below a *conservative* horizon (no
        later-staged envelope can undercut it) is what makes equal-time
        deliveries land in the same canonical order for every shard
        count.  This is the per-envelope reference path; the hot path is
        :meth:`release_batched`, which the equivalence tests hold to
        identical dispatch traces."""
        batch = self._pop_below(horizon)
        for env in batch:
            deliver(env[0], handlers[env[5]], *env[6:])
        n = len(batch)
        self.released += n
        self.batches += n
        return n

    def release_batched(
        self, horizon: int, deliver: Callable[..., Any], handlers: Sequence[Callable[..., None]]
    ) -> int:
        """Batched release: one ``deliver`` call per *distinct*
        ``recv_time`` below the horizon.  A lone envelope goes out as
        ``deliver(t, handlers[handler_index], *args)``, a group as
        ``deliver(t, _deliver_group, group, handlers)``, which delivers
        that time's key-ordered group inline.

        Equivalent to :meth:`release_below` by construction: the groups
        go out in time order and each delivers in key order.  A fan-in
        workload whose messages share timestamps pays one ``deliver``
        per timestamp instead of one per envelope.  Ablation A10b
        (``benchmarks/test_ablation_envelope_release.py``) measures what
        that buys."""
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
                deliver(t, handlers[env[5]], *env[6:])
            else:
                deliver(t, _deliver_group, batch[i:j], handlers)
            self.batches += 1
            i = j
        self.released += n
        return n

    def __len__(self) -> int:
        return len(self._heap)
