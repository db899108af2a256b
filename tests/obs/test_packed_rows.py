"""``PackedRows``: a history read back is the history written.

Full chunks are sealed zlib-compressed when the writer opens the next
one; only the open chunk stays a raw ``array('q')``.  These tests write
several chunks through the writer protocol, :meth:`~PackedRows.keep` odd
rows before, inside and exactly on chunk boundaries, and compare
iteration and :meth:`~PackedRows.column` with a plain list kept beside
it — mid-run (open chunk partly filled) and at the end.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.obs.metrics import PackedRows

WIDTH = 3
CHUNK = PackedRows.CHUNK_ROWS


def _row(i: int) -> tuple:
    # The int64 extremes ride along: sealing must not clip them.
    return (i, (i * 7919) % 1_000_003 - 500_000,
            -1 << 63 if i % 5 == 0 else (1 << 63) - 1 - i)


class _Writer:
    """A :class:`PackedRows` and the reference list, written in step."""

    def __init__(self):
        self.rows = PackedRows(WIDTH)
        self.reference: list = []
        self.packed = 0
        self.extend, self.room = self.rows.open()

    def append(self, n: int) -> None:
        for _ in range(n):
            row = _row(self.packed)
            self.extend(row)
            self.room -= 1
            if not self.room:
                self.extend, self.room = self.rows.open()
            self.reference.append(row)
            self.packed += 1

    def keep(self, text: str) -> None:
        self.rows.keep(text)
        self.reference.append(text)

    def check(self) -> None:
        assert list(self.rows) == self.reference
        packed = [row for row in self.reference if type(row) is tuple]
        for field in range(WIDTH):
            assert list(self.rows.column(field)) == [r[field] for r in packed]


def test_iteration_and_columns_equal_the_reference_across_chunks():
    writer = _Writer()
    writer.keep("before any row")
    writer.append(10)
    writer.keep("inside the first chunk")
    writer.append(CHUNK - 10)             # the first chunk is now sealed
    writer.keep("exactly on the first boundary")
    writer.check()                        # mid-run: the open chunk is empty
    writer.append(CHUNK + 100)
    writer.check()                        # mid-run: the open chunk is partial
    writer.keep("inside the third chunk")
    writer.keep("and a second one at the same place")
    writer.append(CHUNK - 100)            # three chunks sealed
    writer.keep("exactly on the third boundary")
    writer.append(CHUNK // 2)
    writer.keep("at the end")
    assert writer.packed > 3 * CHUNK
    writer.check()


def test_an_empty_history_and_one_of_only_odd_rows():
    rows = PackedRows(WIDTH)
    assert list(rows) == [] and list(rows.column(0)) == []
    rows.open()
    rows.keep("a")
    rows.open()                           # nothing written: nothing sealed
    rows.keep("b")
    assert list(rows) == ["a", "b"]


def test_only_the_open_chunk_is_kept_raw():
    """Eight sealed chunks of arrival-like rows (a clock, a byte count and
    a constant) keep under a third of their raw size (they read ~27%;
    kept raw, they read over 100%)."""
    raw = 8 * CHUNK * WIDTH * 8
    gc.collect()
    tracemalloc.start()
    try:
        rows = PackedRows(WIDTH)
        extend, room = rows.open()
        for i in range(8 * CHUNK):
            extend((12_345 * i, 1460 * i, 7))
            room -= 1
            if not room:
                extend, room = rows.open()
        del extend
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows.column(0)) == 8 * CHUNK
    assert retained < raw / 3, f"{retained} B for 8 sealed chunks"
