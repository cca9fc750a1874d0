"""Wire objects: content names, router ids, the two packet kinds, and byte accounting."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from typing import Sequence

# A router id is a plain small integer; on the wire it occupies 4 bytes.
RouterId = int

# Interface marker for a router's co-located consumer/producer application.
LOCAL: RouterId = -1

# Fixed field widths in bytes.
NAME_BYTES = 2
SELECTOR_BYTES = 2
NONCE_BYTES = 1
SIGNATURE_BYTES = 2
SIGNED_INFO_BYTES = 1
ROUTER_ID_BYTES = 4

# A probe-response carries at most this many provider ids.
PROBE_RESPONSE_CAPACITY = 5
PROBE_RESPONSE_BYTES = PROBE_RESPONSE_CAPACITY * ROUTER_ID_BYTES  # 20
# Attaching a probe costs the probe name plus the full probe-response field.
PROBE_OVERHEAD_BYTES = NAME_BYTES + PROBE_RESPONSE_BYTES  # 22

DEFAULT_PAYLOAD_BYTES = 1024


class ContentName(namedtuple("ContentName", "prefix seq")):
    """A content identifier `prefix/seq`, e.g. "Atlanta/0".

    A plain tuple: hash, equality and order are those of `(prefix, seq)`,
    computed in C, because names key every router table in the simulator's
    hot path. So `ContentName("A", 1) == ("A", 1)`.
    """

    __slots__ = ()

    def __new__(cls, prefix: str, seq: int):
        if seq < 0:
            raise ValueError(f"negative sequence number in content name: {seq}")
        return super().__new__(cls, prefix, seq)

    def __str__(self) -> str:
        return f"{self.prefix}/{self.seq}"

    @classmethod
    def parse(cls, text: str) -> "ContentName":
        prefix, _, seq = text.rpartition("/")
        if not prefix or not seq.isdigit():
            raise ValueError(f"malformed content name: {text!r}")
        return cls(prefix, int(seq))


@dataclass(slots=True)
class InterestPacket:
    """A request for one content name, optionally carrying a cache probe.

    `nonce` is the duplicate-detection token. The wire format allots it a
    single byte; the simulator uses a wide unique token internally so that
    duplicate detection never suffers accidental collisions, and charges
    one byte in `wire_size` regardless.

    A packet in flight is shared by every copy of it a router sent, so a
    router that writes `probe_response` works on a `clone()`.
    """

    name: ContentName
    nonce: int
    probe: ContentName | None = None
    probe_response: list[RouterId] = field(default_factory=list)

    def clone(self) -> "InterestPacket":
        return InterestPacket(self.name, self.nonce, self.probe,
                              list(self.probe_response))


@dataclass(slots=True)
class DataPacket:
    """A content response, returned along the interest's reverse path."""

    name: ContentName
    provider_id: RouterId
    payload_size: int = DEFAULT_PAYLOAD_BYTES
    probe: ContentName | None = None
    probe_response: list[RouterId] = field(default_factory=list)
    # Telemetry, excluded from wire size: hops travelled, set on each
    # arrival from the arrival event.
    hop_count: int = 0

    def clone(self) -> "DataPacket":
        return DataPacket(self.name, self.provider_id, self.payload_size,
                          self.probe, list(self.probe_response), self.hop_count)


def wire_size(packet: InterestPacket | DataPacket) -> int:
    """Byte size of a packet on the wire.

    The probe name and probe-response list are accounted only when a probe
    is attached; together they add exactly 22 bytes.
    """
    if type(packet) is InterestPacket:
        size = NAME_BYTES + SELECTOR_BYTES + NONCE_BYTES
    elif type(packet) is DataPacket:
        size = NAME_BYTES + SIGNATURE_BYTES + SIGNED_INFO_BYTES + packet.payload_size
    else:
        raise TypeError(f"not a packet: {packet!r}")
    if packet.probe is not None:
        size += PROBE_OVERHEAD_BYTES
    return size


def content_catalog(producers: Sequence[str], per_producer: int) -> list[ContentName]:
    """All names published by `producers`, `per_producer` each, seq 0..n-1.

    An empty producer list yields an empty catalog.
    """
    if per_producer < 1:
        raise ValueError(f"per_producer must be >= 1, got {per_producer}")
    return [ContentName(prefix, seq)
            for prefix in producers
            for seq in range(per_producer)]
