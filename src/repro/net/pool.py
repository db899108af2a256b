"""Recycle pools for the wire-path objects: frames, packets, segments.

At fleet scale the simulator builds and discards one ``TcpSegment``, one
:class:`~repro.net.packet.IPPacket` and one
:class:`~repro.net.frame.EthernetFrame` per data segment on the wire —
tens of thousands of allocations per simulated second that live for a
few microseconds of virtual time.  This module keeps free lists of the
three classes so the established-flow fast path reuses dead wrappers
instead of touching the allocator (see docs/performance.md, "Allocation
& GC").

Ownership protocol
------------------

Each of the three classes carries a ``_claims`` slot:

* ``_claims == 0`` — *unmanaged*.  The object was built with a plain
  constructor (tests, ARP, control-plane paths) and is owned by the
  garbage collector; :func:`release_frame` & friends are no-ops on it.
* ``_claims >= 1`` — *managed*.  The object came from an acquire call
  (``IpStack.send``'s cached-plan path, ``TcpConnection._make_segment``)
  with one creator claim.  Every holder that keeps a reference beyond
  the current event calls :func:`retain`; every holder releases when
  done.  At zero the object is scrubbed and returned to its pool.

Only this module and :mod:`repro.tcp.segment` read or write ``_claims``
or the free lists (``tests/check/test_single_home.py``); every other
layer calls the functions below.

Release cascades through the wrapping order — recycling a frame releases
its packet, recycling a packet releases its segment — mirroring how one
creator claim rides the whole frame→packet→segment stack down the wire.

The invariants (also asserted by ``tests/net/test_pool.py``):

* **Under-release is benign.**  A managed object whose holder forgets to
  release simply dies to the normal GC — the pool just misses a reuse.
* **Over-release is corruption** and must never happen: a second
  release of the same claim would recycle an object another holder
  still reads.  Claim transfers (``Cable.transmit`` consumes the
  caller's claim — an impaired cable takes one per copy it puts on the
  wire, so drops, duplicates and delays stay managed;
  ``Switch._ingress`` retains one for the fabric that
  ``Switch._forward`` settles) are documented at each site.
* **Payload bytes are never mutated.**  Recycling re-*assigns* fields;
  holders of ``segment.payload`` bytes (the stream logger, receive
  buffers) are safe regardless of claims.
* **Tap observers demote.**  ``IpStack`` packet/promiscuous taps may
  legitimately retain whole packets, so the tap firing sites call
  :func:`demote_packet` on the observed packet first — it (and its
  segment) leaves the managed regime and the GC owns it from then on.
  Costs nothing on tap-free topologies (the call is inside the
  ``if taps:`` guard).

Pools are process-local module state, deliberately **outside** the
:class:`~repro.sim.world.World` snapshot: restored trials share the
worker's pools, which is sound because acquire reinitialises every
field.  ``clear()`` empties them (campaign trial boundaries, tests).
"""

from __future__ import annotations

from repro.net.frame import (ETHERNET_HEADER_BYTES,
                             ETHERNET_MIN_FRAME_BYTES, EthernetFrame)
from repro.net.packet import IP_HEADER_BYTES, IPPacket

__all__ = ["FRAME_POOL", "PACKET_POOL",
           "FRAME_POOL_MAX", "PACKET_POOL_MAX",
           "acquire_frame", "acquire_packet",
           "retain", "demote_packet",
           "release_frame", "release_packet",
           "clear", "stats"]

#: Free-list caps: big enough to cover every wrapper in flight at once in
#: the 32-client benchmark (the wire holds well under a hundred), small
#: enough that a pathological burst cannot pin memory.
FRAME_POOL_MAX = 256
PACKET_POOL_MAX = 256

#: The free lists themselves (tests inspect their depths and contents).
FRAME_POOL: list[EthernetFrame] = []
PACKET_POOL: list[IPPacket] = []

# The segment pool lives in repro.tcp.segment (this module must not
# import repro.tcp — repro.tcp.connection imports us, and the package
# would deadlock mid-init).  segment.py registers its type, release
# function and pool list here so release_packet can cascade without the
# layering inversion.
_SEGMENT_TYPE: type | None = None
_release_segment = None
_SEGMENT_POOL: list | None = None


def _register_segment_cascade(segment_type, release_fn, pool_list) -> None:
    """Called once by repro.tcp.segment at import time."""
    global _SEGMENT_TYPE, _release_segment, _SEGMENT_POOL
    _SEGMENT_TYPE = segment_type
    _release_segment = release_fn
    _SEGMENT_POOL = pool_list


# ---------------------------------------------------------------- acquire

def acquire_frame(dst, src, ethertype: str, payload) -> EthernetFrame:
    """A managed frame (one creator claim), recycled when possible."""
    if FRAME_POOL:
        frame = FRAME_POOL.pop()
        frame.dst = dst
        frame.src = src
        frame.ethertype = ethertype
        frame.payload = payload
        payload_size = getattr(payload, "size_bytes", None)
        if payload_size is None:
            payload_size = len(payload)
        size = ETHERNET_HEADER_BYTES + payload_size
        frame.size_bytes = (size if size >= ETHERNET_MIN_FRAME_BYTES
                            else ETHERNET_MIN_FRAME_BYTES)
    else:
        frame = EthernetFrame(dst, src, ethertype, payload)
    frame._claims = 1
    return frame


def acquire_packet(src, dst, protocol: str, payload) -> IPPacket:
    """A managed packet (one creator claim), recycled when possible."""
    if PACKET_POOL:
        packet = PACKET_POOL.pop()
        packet.src = src
        packet.dst = dst
        packet.protocol = protocol
        packet.payload = payload
        packet.ttl = 64
        payload_size = getattr(payload, "size_bytes", None)
        if payload_size is None:
            payload_size = len(payload)
        packet.size_bytes = IP_HEADER_BYTES + payload_size
    else:
        packet = IPPacket(src, dst, protocol, payload)
    packet._claims = 1
    return packet


# ---------------------------------------------------------- retain/release

def retain(obj) -> None:
    """Add a claim to a managed object (no-op on unmanaged ones)."""
    claims = obj._claims
    if claims:
        obj._claims = claims + 1


def demote_packet(packet) -> None:
    """Hand a packet (and its segment) over to the GC: the tap boundary.

    Every later retain/release on the two becomes a no-op.  Under-release
    is benign, so opting an object out of recycling is always sound; the
    cost is one missed reuse.
    """
    packet._claims = 0
    inner = packet.payload
    if getattr(inner, "_claims", 0):
        inner._claims = 0


def release_frame(frame: EthernetFrame) -> None:
    """Drop one claim; at zero, recycle and cascade to the packet."""
    claims = frame._claims
    if claims == 0:          # unmanaged: the GC owns it
        return
    if claims > 1:
        frame._claims = claims - 1
        return
    frame._claims = 0
    payload = frame.payload
    frame.payload = None     # the pool must pin nothing downstream
    if len(FRAME_POOL) < FRAME_POOL_MAX:
        FRAME_POOL.append(frame)
    if type(payload) is IPPacket:
        release_packet(payload)


def release_packet(packet: IPPacket) -> None:
    """Drop one claim; at zero, recycle and cascade to the segment."""
    claims = packet._claims
    if claims == 0:
        return
    if claims > 1:
        packet._claims = claims - 1
        return
    packet._claims = 0
    payload = packet.payload
    packet.payload = None
    if len(PACKET_POOL) < PACKET_POOL_MAX:
        PACKET_POOL.append(packet)
    if type(payload) is _SEGMENT_TYPE:
        _release_segment(payload)


# ------------------------------------------------------------- maintenance

def clear() -> None:
    """Empty all pools (campaign trial boundaries, test isolation)."""
    FRAME_POOL.clear()
    PACKET_POOL.clear()
    if _SEGMENT_POOL is not None:
        _SEGMENT_POOL.clear()


def stats() -> dict:
    """Current free-list depths (surfaced via repro.obs GC reports)."""
    return {"frame_pool": len(FRAME_POOL),
            "packet_pool": len(PACKET_POOL),
            "segment_pool": (len(_SEGMENT_POOL)
                             if _SEGMENT_POOL is not None else 0)}
