"""Send, receive (reassembly) and retain buffers.

All three buffers index data by *stream offset*: byte 0 is the first data
byte of the connection (sequence number ISN+1).  Offsets are plain Python
ints, so they never wrap; the connection layer translates to and from
32-bit wire sequence numbers.  Primary and backup share identical offsets
because ST-TCP forces identical ISNs — which is what makes the heartbeat's
progress counters (`LastByteReceived` etc.) directly comparable.

Storage is a ring (a ``bytearray`` indexed by ``offset % len(ring)``)
rather than a growing/shrinking bytearray: acknowledging or releasing a
prefix is O(1) pointer arithmetic instead of an O(n)
``del data[:freed]`` memmove, and :meth:`SendBuffer.get_range` can hand
out a zero-copy :class:`memoryview` for the common non-wrapping case.
A ring starts small and grows with what its connection carries, up to
``capacity`` (:func:`_grown`).  Views stay internal to the TCP layer —
the connection materializes real ``bytes`` exactly once, when a payload
crosses the NIC boundary — because ring positions below the
acked/released base are recycled and a view held across that point would
alias new data.
"""

from __future__ import annotations

from typing import Optional, Union

__all__ = ["SendBuffer", "ReceiveBuffer", "RetainBuffer"]

# A ring starts at this backing size, so a connection costs what it
# carries: a default TcpConfig advertises 64 KiB each way (and ST-TCP adds
# a retain ring and a replica of everything), but a connection that moves
# a few hundred bytes keeps 512-byte rings until it no longer needs them.
_INITIAL_RING_BYTES = 512

# Below this size a write that would wrap doubles the ring instead (see
# _grown), so a stream owns a ring of this size after its first ~64 KB
# and wraps as rarely as a ring allocated at full size would — a small
# ring left alone wraps often (a 4 KB one on a third of MSS-sized writes
# when the reader keeps up), and every wrap is a split copy.
_STEADY_RING_BYTES = 65536


def _grown(old: bytearray, capacity: int, span: int,
           start: int, end: int) -> bytearray:
    """The rings' one growth policy: a fresh ring of at least twice
    ``old``'s size, doubled until ``span`` fits, never past ``capacity``,
    holding the live bytes ``[start, end)`` (stream offsets) at their
    ``offset % size`` positions.  Growth is geometric, so the copy
    amortizes to O(1) per byte ever stored."""
    old_size = len(old)
    new_size = 2 * old_size
    while new_size < span:
        new_size *= 2
    if new_size > capacity:
        new_size = capacity
    new = bytearray(new_size)
    off = start
    while off < end:
        o = off % old_size
        n = off % new_size
        run = min(old_size - o, new_size - n, end - off)
        new[n:n + run] = old[o:o + run]
        off += run
    return new


class SendBuffer:
    """Outgoing byte stream: unacknowledged + not-yet-sent data.

    The application appends at the tail (bounded by ``capacity``); the
    connection acknowledges prefixes away as the peer acks.

    Ring invariant: live bytes span ``[_base, _written)`` with
    ``_written - _base <= _alloc <= capacity``, stored at
    ``offset % _alloc``.  Positions below ``_base`` are dead and reused
    by ``write`` — safe because a cumulative ack covers every byte below
    it, so no retransmission ever needs them again.
    """

    __slots__ = ("capacity", "_buf", "_alloc", "_base", "_written")

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._alloc = capacity if capacity < _INITIAL_RING_BYTES \
            else _INITIAL_RING_BYTES
        self._buf = bytearray(self._alloc)
        self._base = 0          # stream offset of first unacked byte
        self._written = 0       # total bytes ever accepted (stream length)

    @property
    def base_offset(self) -> int:
        """Offset of the first unacknowledged byte."""
        return self._base

    @property
    def end_offset(self) -> int:
        """Offset one past the last byte written."""
        return self._written

    @property
    def buffered(self) -> int:
        """Bytes currently held (unacked or unsent)."""
        return self._written - self._base

    @property
    def free_space(self) -> int:
        """Remaining writable capacity."""
        return self.capacity - (self._written - self._base)

    def write(self, data: bytes) -> int:
        """Append up to ``free_space`` bytes; returns the count accepted."""
        accepted = self.capacity - (self._written - self._base)
        if accepted > len(data):
            accepted = len(data)
        if accepted <= 0:
            return 0
        span = self._written + accepted - self._base
        if span > self._alloc:
            self._buf = _grown(self._buf, self.capacity, span,
                               self._base, self._written)
            self._alloc = len(self._buf)
        cap = self._alloc
        start = self._written % cap
        end = start + accepted
        if end <= cap:
            self._buf[start:end] = data[:accepted]
        elif cap < _STEADY_RING_BYTES and cap < self.capacity:
            self._buf = _grown(self._buf, self.capacity, 0,
                               self._base, self._written)
            self._alloc = len(self._buf)
            return self.write(data)
        else:
            head = cap - start
            self._buf[start:] = data[:head]
            self._buf[:accepted - head] = data[head:accepted]
        self._written += accepted
        return accepted

    def ack_to(self, offset: int) -> int:
        """Discard bytes below ``offset`` (cumulative ack); returns freed count."""
        if offset <= self._base:
            return 0
        if offset > self._written:
            raise ValueError(
                f"ack beyond written data: {offset} > {self._written}")
        freed = offset - self._base
        self._base = offset
        return freed

    def discard(self) -> None:
        """Hand the ring's storage back: nothing in it can be sent or
        retransmitted again (our FIN is acked, the connection is CLOSED,
        or its host lost power).  The offsets stay readable — the
        heartbeat's progress fields — while a later ``write`` or
        ``get_range`` finds no ring and raises ``TypeError`` instead of
        reading freed storage."""
        self._buf = None

    def get_range(self, offset: int, length: int) -> Union[bytes, memoryview]:
        """``length`` bytes starting at stream ``offset`` (clamped to
        available data).  Used for both transmission and retransmission.

        Returns a zero-copy view into the ring when the range doesn't
        wrap (the overwhelmingly common case); the caller must copy it
        to ``bytes`` before yielding control back to the event loop.
        """
        if offset < self._base:
            raise ValueError(
                f"range below acked prefix: {offset} < {self._base}")
        avail = self._written - offset
        if length > avail:
            length = avail
        if length <= 0:
            return b""
        cap = self._alloc
        start = offset % cap
        end = start + length
        if end <= cap:
            return memoryview(self._buf)[start:end]
        head = cap - start
        out = bytearray(length)
        out[:head] = self._buf[start:]
        out[head:] = self._buf[:length - head]
        return bytes(out)


class ReceiveBuffer:
    """Incoming reassembly buffer with out-of-order segment storage.

    ``receive`` accepts data at any offset at or beyond ``rcv_next``;
    contiguous data becomes readable by the application.  The advertised
    window shrinks with everything buffered (read-queue + out-of-order),
    exactly like a real receive window.

    One ring holds every byte in the acceptance window
    ``[bytes_read, bytes_read + capacity)``: readable bytes occupy
    ``[bytes_read, rcv_next)`` and out-of-order bytes land directly at
    their final ring positions, tracked as disjoint sorted ``(start, end)``
    intervals.  Filling a gap therefore *drains* by pure interval
    arithmetic — no bytes move.
    """

    __slots__ = ("capacity", "_buf", "_alloc", "_rcv_next", "_read", "_ooo",
                 "_ooo_total", "_adv_edge")

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._alloc = capacity if capacity < _INITIAL_RING_BYTES \
            else _INITIAL_RING_BYTES
        self._buf = bytearray(self._alloc)
        self._rcv_next = 0                 # next in-order offset
        self._read = 0                     # total bytes app consumed
        self._ooo: list[tuple[int, int]] = []  # disjoint sorted [start, end)
        self._ooo_total = 0                # sum of interval lengths
        self._adv_edge = 0                 # highest edge ever advertised

    @property
    def rcv_next(self) -> int:
        """Offset of the next in-order byte expected (== LastByteReceived)."""
        return self._rcv_next

    @property
    def bytes_read(self) -> int:
        """Total bytes the application has consumed (== LastAppByteRead)."""
        return self._read

    @property
    def readable(self) -> int:
        """Bytes available for the application to read right now."""
        return self._rcv_next - self._read

    @property
    def ooo_bytes(self) -> int:
        """Bytes held out-of-order (above a gap)."""
        return self._ooo_total

    @property
    def window(self) -> int:
        """Advertised receive window.

        Conservatively subtracts out-of-order bytes, but never retracts
        an edge a previous advertisement promised (RFC 793 forbids
        shrinking the window): OOO bytes live *inside* the promised edge,
        so honouring it cannot over-commit — the physical acceptance edge
        ``bytes_read + capacity`` is monotonic and always at or beyond
        any edge ever advertised.
        """
        naive = (self.capacity - (self._rcv_next - self._read)
                 - self._ooo_total)
        promised = self._adv_edge - self._rcv_next
        w = naive if naive >= promised else promised
        return w if w > 0 else 0

    def advertise_window(self) -> int:
        """:attr:`window`, recorded as advertised to the peer: the
        connection layer calls this per outgoing segment, and it
        ratchets the promised right edge :attr:`window` must honour."""
        rcv_next = self._rcv_next
        naive = self.capacity - (rcv_next - self._read) - self._ooo_total
        promised = self._adv_edge - rcv_next
        w = naive if naive >= promised else promised
        if w <= 0:
            return 0
        edge = rcv_next + w
        if edge > self._adv_edge:
            self._adv_edge = edge
        return w

    @property
    def has_gap(self) -> bool:
        """True while out-of-order data awaits a hole fill."""
        return bool(self._ooo)

    @property
    def highest_received(self) -> int:
        """One past the highest byte buffered anywhere (in-order or OOO)."""
        if not self._ooo:
            return self._rcv_next
        end = self._ooo[-1][1]
        return end if end > self._rcv_next else self._rcv_next

    def missing_ranges(self) -> list[tuple[int, int]]:
        """Gaps ``(start, end)`` between rcv_next and buffered OOO data —
        what the ST-TCP backup asks the primary to re-supply."""
        if not self._ooo:
            return []
        gaps = []
        cursor = self._rcv_next
        for start, end in self._ooo:
            if start > cursor:
                gaps.append((cursor, start))
            if end > cursor:
                cursor = end
        return gaps

    def _write_ring(self, offset: int, data: bytes) -> None:
        span = offset + len(data) - self._read
        if span > self._alloc:
            self._buf = _grown(self._buf, self.capacity, span,
                               self._read, self.highest_received)
            self._alloc = len(self._buf)
        cap = self._alloc
        start = offset % cap
        end = start + len(data)
        if end <= cap:
            self._buf[start:end] = data
        elif cap < _STEADY_RING_BYTES and cap < self.capacity:
            self._buf = _grown(self._buf, self.capacity, 0,
                               self._read, self.highest_received)
            self._alloc = len(self._buf)
            self._write_ring(offset, data)
        else:
            head = cap - start
            self._buf[start:] = data[:head]
            self._buf[:len(data) - head] = data[head:]

    def receive(self, offset: int, data: bytes) -> int:
        """Insert received data; returns how many *new in-order* bytes
        became available (0 for pure out-of-order or duplicate data).

        Data beyond the window is trimmed (a correct sender never sends it,
        but a retransmission racing a window update can).
        """
        if not data:
            return 0
        rcv_next = self._rcv_next
        # Trim the already-received prefix.
        if offset < rcv_next:
            skip = rcv_next - offset
            if skip >= len(data):
                return 0
            data = data[skip:]
            offset = rcv_next
        # Trim anything beyond the buffer's acceptance edge.  Note this is
        # NOT ``rcv_next + window``: the advertised window conservatively
        # subtracts out-of-order bytes, but those bytes occupy positions
        # *inside* the edge — shrinking the acceptance edge because of them
        # would drop data we previously advertised room for (TCP forbids
        # window shrinking).  ``bytes_read + capacity`` bounds what the
        # ring can physically hold.
        right_edge = self._read + self.capacity
        if offset >= right_edge:
            return 0
        if offset + len(data) > right_edge:
            data = data[:right_edge - offset]
        if not data:
            return 0
        self._write_ring(offset, data)
        if offset == rcv_next:
            self._rcv_next = rcv_next + len(data)
            if self._ooo:
                self._drain_ooo()
            return self._rcv_next - rcv_next
        self._store_ooo(offset, offset + len(data))
        return 0

    def _store_ooo(self, start: int, end: int) -> None:
        """Merge the interval ``[start, end)`` into the disjoint sorted
        out-of-order set (bytes are already at their ring positions;
        overlaps were overwritten in place, newest data winning, exactly
        like the chunk-merge this replaces)."""
        intervals = self._ooo
        keep = []
        for a, b in intervals:
            if b < start or a > end:
                keep.append((a, b))
            else:
                if a < start:
                    start = a
                if b > end:
                    end = b
        keep.append((start, end))
        keep.sort()
        self._ooo = keep
        self._ooo_total = sum(b - a for a, b in keep)

    def _drain_ooo(self) -> None:
        """Advance ``rcv_next`` through intervals the in-order fill just
        connected to (and discard ones it made stale) — pure bookkeeping,
        the bytes are already in place."""
        intervals = self._ooo
        rcv_next = self._rcv_next
        i = 0
        for start, end in intervals:
            if start > rcv_next:
                break
            i += 1
            if end > rcv_next:
                rcv_next = end
        if i:
            del intervals[:i]
            self._ooo_total = sum(b - a for a, b in intervals)
            self._rcv_next = rcv_next

    def read(self, max_bytes: Optional[int] = None) -> bytes:
        """Consume up to ``max_bytes`` in-order bytes (all, if None)."""
        avail = self._rcv_next - self._read
        n = avail if max_bytes is None else min(max_bytes, avail)
        if n <= 0:
            return b""
        cap = self._alloc
        start = self._read % cap
        end = start + n
        if end <= cap:
            out = bytes(self._buf[start:end])
        else:
            head = cap - start
            out = bytes(self._buf[start:]) + bytes(self._buf[:n - head])
        self._read += n
        return out

    def discard(self) -> None:
        """Hand the ring's storage back: the peer's FIN is consumed and
        the application has read everything before it, or the host lost
        power.  Like :meth:`SendBuffer.discard`, the offsets stay readable
        and a later ``receive`` of new bytes raises ``TypeError``."""
        self._buf = None

    def peek_tail(self, n: int) -> bytes:
        """Copy the last ``n`` readable bytes without consuming them.

        Used by the connection layer to hand freshly in-order bytes to the
        ST-TCP retain-buffer tap immediately after a ``receive`` call."""
        avail = self._rcv_next - self._read
        if n > avail:
            n = avail
        if n <= 0:
            return b""
        cap = self._alloc
        start = (self._rcv_next - n) % cap
        end = start + n
        if end <= cap:
            return bytes(self._buf[start:end])
        head = cap - start
        return bytes(self._buf[start:]) + bytes(self._buf[:n - head])


class RetainBuffer:
    """The ST-TCP primary's *extra receive buffer* (paper Sec. 2).

    The primary keeps a copy of every in-order client byte until the backup
    confirms receipt through the heartbeat, so the backup can fetch bytes
    it missed (Table 1 row 5).  If the buffer fills — the backup cannot
    keep up — the primary declares the backup failed (paper Sec. 4.3).

    Same ring layout as :class:`SendBuffer`; :meth:`release_to` is O(1).
    ``get_range`` copies to ``bytes`` (not a view) because fetch replies
    travel the control channel with delivery delay, during which a
    heartbeat may release — and new appends recycle — the ring positions.
    """

    __slots__ = ("capacity", "_buf", "_alloc", "_base", "_end", "overflowed")

    def __init__(self, capacity: int = 262144):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._alloc = capacity if capacity < _INITIAL_RING_BYTES \
            else _INITIAL_RING_BYTES
        self._buf = bytearray(self._alloc)
        self._base = 0
        self._end = 0
        self.overflowed = False

    @property
    def base_offset(self) -> int:
        """Offset of the first retained byte."""
        return self._base

    @property
    def end_offset(self) -> int:
        """One past the last retained byte."""
        return self._end

    @property
    def buffered(self) -> int:
        """Bytes currently held."""
        return self._end - self._base

    def append(self, offset: int, data: bytes) -> None:
        """Store in-order client bytes (``offset`` must extend the buffer).

        Sets :attr:`overflowed` instead of raising when capacity would be
        exceeded — the caller (the primary engine) converts that condition
        into a "backup failed" verdict per the paper.
        """
        end = self._end
        if offset < end:
            skip = end - offset
            if skip >= len(data):
                return
            data = data[skip:]
            offset = end
        if offset != end:
            if self.overflowed:
                # Bytes were already dropped at the full mark; the buffer
                # can no longer represent the stream contiguously.  The
                # primary engine reads ``overflowed`` and declares the
                # backup failed (paper Sec. 4.3).
                return
            raise ValueError(
                f"retain buffer gap: expected offset {end}, got {offset}")
        room = self.capacity - (end - self._base)
        if len(data) > room:
            self.overflowed = True
            data = data[:room]
            if not data:
                return
        span = end + len(data) - self._base
        if span > self._alloc:
            self._buf = _grown(self._buf, self.capacity, span,
                               self._base, end)
            self._alloc = len(self._buf)
        cap = self._alloc
        start = end % cap
        stop = start + len(data)
        if stop <= cap:
            self._buf[start:stop] = data
        elif cap < _STEADY_RING_BYTES and cap < self.capacity:
            self._buf = _grown(self._buf, self.capacity, 0, self._base, end)
            self._alloc = len(self._buf)
            return self.append(offset, data)
        else:
            head = cap - start
            self._buf[start:] = data[:head]
            self._buf[:len(data) - head] = data[head:]
        self._end = end + len(data)

    def release_to(self, offset: int) -> int:
        """Drop bytes the backup has confirmed; returns freed count."""
        if offset <= self._base:
            return 0
        if offset > self._end:
            offset = self._end
        freed = offset - self._base
        self._base = offset
        return freed

    def get_range(self, offset: int, length: int) -> Optional[bytes]:
        """Bytes at ``offset`` (None if already released — the
        unrecoverable-output-commit case of paper Sec. 4.3)."""
        if offset < self._base:
            return None
        avail = self._end - offset
        if avail <= 0:
            return b""
        if length > avail:
            length = avail
        cap = self._alloc
        start = offset % cap
        end = start + length
        if end <= cap:
            return bytes(self._buf[start:end])
        head = cap - start
        return bytes(self._buf[start:]) + bytes(self._buf[:length - head])
