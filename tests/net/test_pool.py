"""Ownership-protocol invariants of the wire-path recycle pools.

These tests pin the contract documented in ``repro.net.pool``:

* objects from plain constructors are unmanaged (``_claims == 0``) and
  release is a no-op on them;
* acquire hands out exactly one creator claim and reuses pooled objects;
* release at the last claim scrubs the object and cascades down the
  frame -> packet -> segment wrapping order;
* retain/release pairs balance (a holder who retains keeps the object
  alive through another holder's release);
* demotion zeroes the whole chain so later releases are no-ops;
* pools are bounded and ``clear()`` empties them;
* after a real failover run the pools hold only free, scrubbed objects,
  each once.
"""

import pytest

from repro.net import pool
from repro.net.addresses import IPAddress, MacAddress
from repro.net.frame import ETHERNET_MIN_FRAME_BYTES, EtherType, EthernetFrame
from repro.net.packet import IPPacket, IPProtocol
from repro.scenarios.options import RunOptions
from repro.tcp.segment import (SEGMENT_POOL, SEGMENT_POOL_MAX, TcpFlags,
                               acquire_segment, release_segment)
from repro.workloads.engine import WorkloadSpec
from repro.workloads.runner import run_workload_failover


pytestmark = pytest.mark.usefixtures("clean_pools")


def make_chain():
    """A managed frame -> packet -> segment chain, as built on the
    established-flow send path (one creator claim each)."""
    segment = acquire_segment(1000, 2000, seq=1, ack=2,
                              flags=TcpFlags.ACK, window=65535,
                              payload=b"data")
    packet = pool.acquire_packet(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"),
                                 IPProtocol.TCP, segment)
    frame = pool.acquire_frame(MacAddress(1), MacAddress(2),
                               EtherType.IPV4, packet)
    return frame, packet, segment


# ------------------------------------------------------------- unmanaged

def test_plain_constructors_are_unmanaged():
    frame = EthernetFrame(MacAddress(1), MacAddress(2), EtherType.IPV4, b"x")
    packet = IPPacket(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"),
                      IPProtocol.TCP, b"y")
    assert frame._claims == 0
    assert packet._claims == 0


def test_release_is_noop_on_unmanaged_objects():
    frame = EthernetFrame(MacAddress(1), MacAddress(2), EtherType.IPV4, b"x")
    pool.release_frame(frame)
    pool.release_frame(frame)
    assert frame._claims == 0
    assert frame.payload == b"x"          # not scrubbed
    assert pool.stats()["frame_pool"] == 0  # not recycled


def test_retain_is_noop_on_unmanaged_objects():
    packet = IPPacket(IPAddress("10.0.0.1"), IPAddress("10.0.0.2"),
                      IPProtocol.TCP, b"y")
    pool.retain(packet)
    assert packet._claims == 0


# --------------------------------------------------------------- acquire

def test_acquire_hands_out_one_creator_claim():
    frame, packet, segment = make_chain()
    assert frame._claims == 1
    assert packet._claims == 1
    assert segment._claims == 1


def test_acquire_reuses_recycled_objects():
    frame, packet, segment = make_chain()
    pool.release_frame(frame)  # cascades: all three hit their pools
    frame2, packet2, segment2 = make_chain()
    assert frame2 is frame
    assert packet2 is packet
    assert segment2 is segment


def test_acquire_reinitialises_every_field():
    frame, packet, segment = make_chain()
    pool.release_frame(frame)
    segment2 = acquire_segment(5, 6, seq=7, ack=8, flags=TcpFlags.SYN,
                               window=1, payload=b"zz")
    packet2 = pool.acquire_packet(IPAddress("10.9.9.9"), IPAddress("10.8.8.8"),
                                  IPProtocol.TCP, segment2)
    frame2 = pool.acquire_frame(MacAddress(7), MacAddress(8),
                                EtherType.IPV4, packet2)
    assert (segment2.src_port, segment2.dst_port) == (5, 6)
    assert segment2.payload == b"zz"
    assert packet2.src == IPAddress("10.9.9.9")
    assert packet2.ttl == 64
    assert frame2.dst == MacAddress(7)
    assert frame2.size_bytes >= ETHERNET_MIN_FRAME_BYTES


# --------------------------------------------------------------- release

def test_release_cascades_frame_to_packet_to_segment():
    frame, packet, segment = make_chain()
    pool.release_frame(frame)
    stats = pool.stats()
    assert stats == {"frame_pool": 1, "packet_pool": 1, "segment_pool": 1}
    # Scrubbed: the pool pins nothing downstream.
    assert frame.payload is None
    assert packet.payload is None
    assert segment.payload == b""
    assert frame._claims == packet._claims == segment._claims == 0


def test_extra_claim_blocks_the_cascade():
    """A holder who retained the packet keeps it (and its segment) alive
    through the frame's final release."""
    frame, packet, segment = make_chain()
    pool.retain(packet)
    pool.release_frame(frame)
    assert pool.stats() == {"frame_pool": 1, "packet_pool": 0,
                            "segment_pool": 0}
    assert packet.payload is segment      # still intact for its holder
    assert packet._claims == 1
    pool.release_packet(packet)           # the holder finishes
    assert pool.stats() == {"frame_pool": 1, "packet_pool": 1,
                            "segment_pool": 1}


def test_segment_retain_survives_packet_recycle():
    frame, packet, segment = make_chain()
    pool.retain(segment)                  # e.g. the backup's tap buffer
    pool.release_frame(frame)
    assert segment._claims == 1
    assert segment.payload == b"data"
    release_segment(segment)
    assert segment._claims == 0
    assert len(SEGMENT_POOL) == 1


# -------------------------------------------------------------- demotion

def test_demote_packet_zeroes_packet_and_segment_only():
    """The tap boundary: the observed packet and its segment go to the GC;
    the frame around them still recycles (its cascade finds an unmanaged
    packet and stops)."""
    frame, packet, segment = make_chain()
    pool.demote_packet(packet)
    assert packet._claims == segment._claims == 0
    assert frame._claims == 1
    pool.release_frame(frame)
    assert pool.stats() == {"frame_pool": 1, "packet_pool": 0,
                            "segment_pool": 0}
    assert packet.payload is segment      # nothing scrubbed
    pool.demote_packet(pool.acquire_packet(
        IPAddress("10.0.0.1"), IPAddress("10.0.0.2"), IPProtocol.UDP, b"x"))


# ---------------------------------------------------------------- bounds

def test_pools_are_bounded():
    overflow = pool.FRAME_POOL_MAX + 10
    frames = [pool.acquire_frame(MacAddress(i + 1), MacAddress(1),
                                 EtherType.IPV4, b"x")
              for i in range(overflow)]
    for frame in frames:
        pool.release_frame(frame)
    assert pool.stats()["frame_pool"] == pool.FRAME_POOL_MAX
    segments = [acquire_segment(1, 2, seq=0, ack=0, flags=TcpFlags.ACK,
                                window=0)
                for _ in range(SEGMENT_POOL_MAX + 10)]
    for segment in segments:
        release_segment(segment)
    assert len(SEGMENT_POOL) == SEGMENT_POOL_MAX


def test_clear_empties_all_pools():
    frame, packet, segment = make_chain()
    pool.release_frame(frame)
    pool.clear()
    assert pool.stats() == {"frame_pool": 0, "packet_pool": 0,
                            "segment_pool": 0}


# ------------------------------------------------- integrity after a run

def test_pools_are_sound_after_a_real_failover_run():
    """Every layer reaches the pools through this module's functions
    only; after a whole workload — handshakes, bulk data, the backup's
    tap and suppressor, a crash and a takeover — what they left behind
    must be exactly what the protocol promises: free, scrubbed, and each
    object pooled once (a duplicate identity is the signature of an
    over-release).  The depths are pinned because they are a function of
    the claim accounting alone: a retain or release that moves shows up
    here before it shows up as corruption.  (The frame pool is as deep
    as the segment pool because the delivering frame is still claimed by
    the wire while its segment is processed, so the reply cannot reuse
    it and takes a fresh one.)"""
    result = run_workload_failover(
        WorkloadSpec(connections=8, bytes_per_conn=40_000),
        fault_at_s=0.15, num_clients=8, options=RunOptions(seed=3))
    assert result.all_intact and len(result.records) == 8
    assert pool.stats() == {"frame_pool": 22, "packet_pool": 22,
                            "segment_pool": 22}
    for free_list, scrubbed in ((pool.FRAME_POOL, None),
                                (pool.PACKET_POOL, None),
                                (SEGMENT_POOL, b"")):
        assert len({id(obj) for obj in free_list}) == len(free_list)
        for obj in free_list:
            assert obj._claims == 0
            assert obj.payload == scrubbed
