"""Messages: the unit of EMBera communication.

Communication is "a simple one way asynchronous message-oriented
mechanism" (paper section 4.1).  Every message carries a *kind* so the
observation layer can count application traffic (Table 2 counts data
messages) separately from control and observation traffic.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

DATA = "data"
CONTROL = "control"
OBSERVATION = "observation"

_KINDS = (DATA, CONTROL, OBSERVATION)

#: Fixed per-message header footprint (sender id, tag, seq, size).
MESSAGE_HEADER_BYTES = 32


_getsizeof = sys.getsizeof
_ndarray = np.ndarray


def payload_nbytes(payload: Any) -> int:
    """Best-effort byte size of a payload for copy-cost accounting.

    The exact types the pipeline sends are tested first; anything else
    (subclasses included) takes the ``isinstance`` chain, which gives
    every type the same size as the exact-type tests do."""
    cls = type(payload)
    if cls is dict:
        n = 0
        for key, value in payload.items():
            n += payload_nbytes(key) + payload_nbytes(value)
        return n
    if cls is str:
        return len(payload) if payload.isascii() else len(payload.encode("utf-8"))
    if cls is int:
        return _getsizeof(payload)
    if cls is _ndarray:
        return payload.nbytes
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items())
    return int(_getsizeof(payload))


#: Span id meaning "no causal context" (root of a causal chain).
NO_SPAN = 0


@dataclass(slots=True)
class Message:
    """One message in transit between two interfaces."""

    payload: Any
    kind: str = DATA
    tag: str = ""
    src: str = ""
    src_interface: str = ""
    seq: int = 0
    #: Bytes the transport copies.  The producer that builds the payload
    #: passes its size at construction; -1 walks the payload with
    #: :func:`payload_nbytes` at construction instead.
    size_bytes: int = -1
    sent_at_us: Optional[int] = None
    #: Causal identity: every send/deposit stamps a globally unique,
    #: monotonically increasing span id, and ``cause`` carries the span of
    #: the message whose reception triggered this one (NO_SPAN for chain
    #: roots).  Receives record the (cause -> span) edge, so offline
    #: analysis can reconstruct end-to-end causal chains across
    #: components, runtimes and the EMBX transport.
    span: int = NO_SPAN
    cause: int = NO_SPAN
    #: Durable-delivery sequence number (see :mod:`repro.recovery`): a
    #: contiguous per-connection counter stamped by the recovery hook on
    #: data and control sends.  0 means "not under delivery guarantees"
    #: (no recovery manager installed, observation traffic, deposits);
    #: receivers dedup and gap-detect by this, never by ``seq``/``span``
    #: (which change on retransmission).
    dseq: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}; expected one of {_KINDS}")
        if self.size_bytes == -1:
            self.size_bytes = payload_nbytes(self.payload) + MESSAGE_HEADER_BYTES
        if self.size_bytes < 0:
            raise ValueError(f"negative message size {self.size_bytes}")

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Message {self.kind}:{self.tag or '-'} from={self.src or '?'} "
            f"seq={self.seq} {self.size_bytes}B>"
        )
