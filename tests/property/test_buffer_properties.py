"""Hypothesis properties of the reassembly and send buffers.

The central invariant: no matter how a byte stream is sliced into
segments, duplicated, reordered or partially overlapped, the receive
buffer reconstructs exactly the original stream — this is what makes
"exactly-once in-order delivery across failover" testable at all.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from repro.tcp import buffers
from repro.tcp.buffers import ReceiveBuffer, RetainBuffer, SendBuffer


@st.composite
def sliced_stream(draw):
    """A stream plus an arbitrary segmentation of it (with duplicates)."""
    stream = draw(st.binary(min_size=1, max_size=2000))
    cut_points = draw(st.lists(
        st.integers(min_value=0, max_value=len(stream)),
        min_size=0, max_size=20))
    cuts = sorted(set(cut_points) | {0, len(stream)})
    segments = [(start, stream[start:end])
                for start, end in zip(cuts, cuts[1:])]
    # Duplicate a random subset.
    dup_indexes = draw(st.lists(
        st.integers(min_value=0, max_value=max(0, len(segments) - 1)),
        max_size=5))
    for index in dup_indexes:
        if segments:
            segments.append(segments[index])
    # Arbitrary delivery order.
    order = draw(st.permutations(range(len(segments))))
    return stream, [segments[i] for i in order]


@given(sliced_stream())
@settings(max_examples=200)
def test_reassembly_reconstructs_stream(case):
    stream, segments = case
    buf = ReceiveBuffer(capacity=len(stream) + 10)
    for offset, data in segments:
        buf.receive(offset, data)
    assert buf.read() == stream
    assert not buf.has_gap
    assert buf.rcv_next == len(stream)


@given(sliced_stream(), st.integers(min_value=1, max_value=500))
@settings(max_examples=100)
def test_reassembly_with_interleaved_reads(case, read_size):
    stream, segments = case
    buf = ReceiveBuffer(capacity=len(stream) + 10)
    out = bytearray()
    for offset, data in segments:
        buf.receive(offset, data)
        out.extend(buf.read(read_size))
    out.extend(buf.read())
    assert bytes(out) == stream


@given(sliced_stream())
@settings(max_examples=100)
def test_window_never_negative_and_bounded(case):
    stream, segments = case
    buf = ReceiveBuffer(capacity=256)
    for offset, data in segments:
        buf.receive(offset, data)
        assert 0 <= buf.window <= 256
        buf.read(64)


@given(st.binary(min_size=1, max_size=1000),
       st.lists(st.integers(min_value=0, max_value=1000), max_size=10))
@settings(max_examples=100)
def test_send_buffer_acks_monotonic(data, acks):
    buf = SendBuffer(capacity=len(data))
    buf.write(data)
    floor = 0
    for ack in sorted(a for a in acks if a <= len(data)):
        buf.ack_to(ack)
        floor = max(floor, ack)
        assert buf.base_offset == floor
        remaining = buf.get_range(floor, len(data) - floor)
        assert remaining == data[floor:]


@given(st.binary(min_size=1, max_size=500),
       st.integers(min_value=1, max_value=100))
@settings(max_examples=100)
def test_send_buffer_get_range_matches_written(data, chunk):
    buf = SendBuffer(capacity=len(data))
    buf.write(data)
    reassembled = b"".join(buf.get_range(off, chunk)
                           for off in range(0, len(data), chunk))
    assert reassembled == data


@st.composite
def overlapping_stream(draw):
    """A stream re-sliced into *overlapping*, duplicated, reordered
    segments with consistent content — the left-edge-trim and
    duplicate-overlap merge paths of the OOO store, which plain
    cut-point slicing never reaches."""
    stream = draw(st.binary(min_size=1, max_size=2000))
    n = len(stream)
    count = draw(st.integers(min_value=1, max_value=30))
    segments = []
    for _ in range(count):
        start = draw(st.integers(min_value=0, max_value=n - 1))
        length = draw(st.integers(min_value=1, max_value=min(400, n - start)))
        segments.append((start, stream[start:start + length]))
    # A deterministic coarse tiling guarantees full coverage, so the
    # reassembled stream is always completable.
    for off in range(0, n, 97):
        segments.append((off, stream[off:off + 97]))
    order = draw(st.permutations(range(len(segments))))
    return stream, [segments[i] for i in order]


@given(overlapping_stream())
@settings(max_examples=200)
def test_overlapping_segments_reassemble_byte_for_byte(case):
    stream, segments = case
    buf = ReceiveBuffer(capacity=len(stream) + 10)
    for offset, data in segments:
        buf.receive(offset, data)
    assert buf.read() == stream
    assert buf.rcv_next == len(stream)
    assert not buf.has_gap


@given(sliced_stream(), st.integers(min_value=16, max_value=64),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=100)
def test_reassembly_through_tight_window_with_retransmission(
        case, capacity, read_size):
    """With a buffer far smaller than the stream, segments get trimmed at
    the acceptance edge; re-offering them (a sender's retransmission)
    with interleaved reads must still reproduce the exact stream."""
    stream, segments = case
    buf = ReceiveBuffer(capacity=capacity)
    out = bytearray()
    rounds = 0
    while len(out) < len(stream):
        rounds += 1
        assert rounds <= len(stream) + len(segments) + 2, \
            "reassembly stopped making progress"
        for offset, data in segments:
            buf.receive(offset, data)
            out.extend(buf.read(read_size))
        out.extend(buf.read())
    assert bytes(out) == stream


@given(st.binary(min_size=1, max_size=3000),
       st.integers(min_value=8, max_value=64),
       st.integers(min_value=1, max_value=32))
@settings(max_examples=100)
def test_send_buffer_wrap_roundtrip(data, capacity, chunk):
    """Stream a payload much larger than the buffer through repeated
    write / get_range / ack cycles: every transmitted chunk must match
    the original stream even as storage positions are reused."""
    buf = SendBuffer(capacity=capacity)
    written = 0
    sent = bytearray()
    while len(sent) < len(data):
        written += buf.write(data[written:written + capacity])
        while len(sent) < written:
            part = buf.get_range(len(sent), min(chunk, written - len(sent)))
            sent.extend(part)
        buf.ack_to(len(sent))
        assert buf.base_offset == len(sent)
        assert buf.buffered == written - len(sent)
    assert bytes(sent) == data


@given(st.lists(st.binary(min_size=1, max_size=50), min_size=1, max_size=20),
       st.lists(st.integers(min_value=0, max_value=500), max_size=10))
@settings(max_examples=100)
def test_retain_buffer_contiguity(chunks, releases):
    stream = b"".join(chunks)
    buf = RetainBuffer(capacity=len(stream) + 1)
    offset = 0
    for chunk in chunks:
        buf.append(offset, chunk)
        offset += len(chunk)
    assert buf.get_range(0, len(stream)) == stream
    floor = 0
    for release in sorted(r for r in releases if r <= len(stream)):
        buf.release_to(release)
        floor = max(floor, release)
        tail = buf.get_range(floor, len(stream) - floor)
        assert tail == stream[floor:]


# --------------------------------------------------------------- ring growth
#
# Every strategy above uses capacities below the rings' first allocation,
# so those rings are at full size from birth and never grow.  The
# differentials below shrink the two module constants so that examples of
# a few KB cross every step of the growth policy — first allocation,
# doubling on a wrap, doubling on a span, the cap at a capacity that is no
# power of two — and hold each ring, byte for byte, to a plain
# ``bytearray`` model.

INITIAL, STEADY = 16, 256
small_rings = patch.multiple(buffers, _INITIAL_RING_BYTES=INITIAL,
                             _STEADY_RING_BYTES=STEADY)
# Below the first allocation, between the two constants, above both; 100,
# 300, 777 and 3001 cap the doubling at a size that is no power of two.
capacities = st.sampled_from([10, 16, 100, 256, 300, 777, 1024, 3001])
# Drawn as a length and a salt, not as ``st.binary``: hypothesis keeps
# drawn byte strings to a few dozen bytes, which would never leave the
# first allocation.
streams = st.builds(
    lambda size, salt: bytes((i * 31 + salt) % 251 + 1 for i in range(size)),
    st.integers(1, 3000), st.integers(0, 250))
op_lists = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 400),
                              st.integers(0, 400)), min_size=10, max_size=60)


def check_alloc(ring, highest):
    """Never past capacity; and only what was stored can have grown it,
    so a ring that carried nothing is still at its first allocation."""
    assert ring._alloc == len(ring._buf) <= ring.capacity
    assert ring._alloc <= max(INITIAL, 2 * highest)


@small_rings
@given(capacities, streams, op_lists)
@settings(max_examples=300)
def test_send_ring_matches_model_across_growth(capacity, data, ops):
    buf = SendBuffer(capacity)
    model = bytearray()             # every byte ever accepted
    base = 0
    check_alloc(buf, 0)
    for kind, a, b in ops:
        if kind <= 1:               # write, holding a view across it
            held = buf.get_range(base, a)
            chunk = data[len(model) % len(data):][:b]
            room = capacity - (len(model) - base)
            assert buf.write(chunk) == min(len(chunk), room)
            model += chunk[:room]
            # A view taken before a regrow still reads the old bytes.
            assert bytes(held) == model[base:base + a][:len(held)]
        elif kind == 2:             # cumulative ack
            base += min(a, len(model) - base)
            buf.ack_to(base)
        else:                       # a range anywhere in the live span
            off = base + min(a, len(model) - base)
            assert bytes(buf.get_range(off, b)) == model[off:off + b]
        assert (buf.base_offset, buf.end_offset) == (base, len(model))
        assert bytes(buf.get_range(base, capacity)) == model[base:]
        check_alloc(buf, len(model))
    buf.discard()
    assert buf._buf is None
    assert (buf.base_offset, buf.end_offset) == (base, len(model))
    if len(model) > base:
        with pytest.raises(TypeError):
            buf.get_range(base, 1)
    buf.ack_to(len(model))          # offsets still move; there is room now
    with pytest.raises(TypeError):
        buf.write(data)


@small_rings
@given(capacities, streams, op_lists)
@settings(max_examples=300)
def test_receive_ring_matches_model_across_growth(capacity, stream, ops):
    """Segments land anywhere in the stream, in any order, so out-of-order
    intervals are stored before a regrow and drained after it."""
    buf = ReceiveBuffer(capacity)
    have = bytearray(len(stream))   # 1 where the model holds the byte
    rcv_next = read = highest = 0
    check_alloc(buf, 0)
    for kind, a, b in ops:
        if kind <= 1:               # a segment at any offset
            off = (a * 7) % len(stream)
            edge = min(off + b, len(stream), read + capacity)
            for i in range(max(off, rcv_next), edge):
                have[i] = 1
                highest = max(highest, i + 1)
            before = rcv_next
            while rcv_next < len(stream) and have[rcv_next]:
                rcv_next += 1
            newly = buf.receive(off, stream[off:off + b])
            assert newly == rcv_next - before
            # What the ST-TCP tap reads right after a receive.
            assert buf.peek_tail(newly) == stream[before:rcv_next]
        elif kind == 2:             # the application reads some
            n = min(a, rcv_next - read)
            assert buf.read(a) == stream[read:read + n]
            read += n
        else:
            n = min(b, rcv_next - read)
            assert buf.peek_tail(b) == stream[rcv_next - n:rcv_next]
        assert (buf.rcv_next, buf.bytes_read) == (rcv_next, read)
        assert buf.ooo_bytes == sum(have[rcv_next:])
        assert buf.highest_received == max(highest, rcv_next)
        check_alloc(buf, highest)
    # Supply only what is missing: every byte stored out of order, on
    # whichever side of a regrow, must come out as the stream's.
    out = bytearray(stream[:read])
    while len(out) < len(stream):
        start, end = (buf.missing_ranges()
                      or [(buf.highest_received, len(stream))])[0]
        buf.receive(start, stream[start:min(end, start + 97)])
        out += buf.read()
        check_alloc(buf, len(stream))
    assert out == stream


@small_rings
@given(capacities, streams, op_lists)
@settings(max_examples=300)
def test_retain_ring_matches_model_across_growth(capacity, data, ops):
    buf = RetainBuffer(capacity)
    model = bytearray()             # every byte ever retained
    base = 0
    check_alloc(buf, 0)
    for kind, a, b in ops:
        if kind <= 1:               # append, re-offering ``a`` old bytes
            room = capacity - (len(model) - base)
            overlap = min(a, len(model))
            fresh = data[len(model) % len(data):][:min(b, room)]
            buf.append(len(model) - overlap,
                       bytes(model[len(model) - overlap:]) + fresh)
            model += fresh
        elif kind == 2:             # the backup confirmed some
            base += min(a, len(model) - base)
            buf.release_to(base)
        else:
            off = base + min(a, len(model) - base)
            assert buf.get_range(off, b) == model[off:off + b]
        assert (buf.base_offset, buf.end_offset) == (base, len(model))
        assert buf.get_range(base, capacity) == model[base:]
        assert not buf.overflowed
        check_alloc(buf, len(model))
    # Overflow: the ring fills to exactly capacity and says so.
    buf.append(len(model), bytes(capacity + 1))
    assert buf.overflowed
    assert buf.get_range(base, capacity) == model[base:] + bytes(
        capacity - (len(model) - base))
    assert buf._alloc == len(buf._buf) == capacity


@small_rings
def test_growth_ladder_is_wrap_then_span_then_cap():
    """The policy, step by step, on a sender whose peer acks promptly
    (the live span stays at 10 bytes): the ring doubles each time a write
    would wrap until it is STEADY bytes, then wraps in place; a span it
    cannot hold doubles it further; capacity caps the last step."""
    buf = SendBuffer(capacity=1000)
    sizes = [buf._alloc]
    stream = bytes(range(256)) * 12
    for off in range(0, 3000, 10):
        assert buf.write(stream[off:off + 10]) == 10
        assert bytes(buf.get_range(off, 10)) == stream[off:off + 10]
        buf.ack_to(off + 10)
        if buf._alloc != sizes[-1]:
            sizes.append(buf._alloc)
    assert sizes == [16, 32, 64, 128, 256]
    assert buf.write(stream[:600]) == 600       # span 600 > 256
    assert buf._alloc == 1000                   # 1024, capped
    assert bytes(buf.get_range(3000, 600)) == stream[:600]
    assert RetainBuffer(capacity=1 << 20)._alloc == INITIAL
    assert ReceiveBuffer(capacity=10)._alloc == 10
