"""Unit tests for 32-bit sequence arithmetic."""

from repro.tcp.seq import (SEQ_MASK, SEQ_MOD, seq_add, seq_between, seq_ge,
                           seq_gt, seq_le, seq_lt, seq_max, seq_min, seq_sub)


def test_add_wraps():
    assert seq_add(SEQ_MASK, 1) == 0
    assert seq_add(SEQ_MASK, 2) == 1
    assert seq_add(0, -1) == SEQ_MASK


def test_sub_signed_distance():
    assert seq_sub(5, 3) == 2
    assert seq_sub(3, 5) == -2
    assert seq_sub(0, SEQ_MASK) == 1          # wraparound forward
    assert seq_sub(SEQ_MASK, 0) == -1


def test_comparisons_simple():
    assert seq_lt(3, 5) and seq_le(3, 5) and seq_le(5, 5)
    assert seq_gt(5, 3) and seq_ge(5, 3) and seq_ge(5, 5)
    assert not seq_lt(5, 3)


def test_comparisons_across_wrap():
    high = SEQ_MOD - 10
    low = 10
    assert seq_lt(high, low)       # low is 20 ahead on the circle
    assert seq_gt(low, high)


def test_comparisons_at_exactly_half_the_circle():
    """At distance 2**31 each number reads as preceding the other: the
    distance is undefined (RFC 1982 Sec. 3.2), and ``seq_sub`` maps both
    directions to -2**31.  TCP's windows keep peers closer than that."""
    half = 1 << 31
    for a in (0, 1, half, SEQ_MASK):
        b = seq_add(a, half)
        assert seq_sub(a, b) == seq_sub(b, a) == -half
        assert seq_lt(a, b) and seq_lt(b, a)
        assert seq_le(a, b) and seq_le(b, a)
        assert not (seq_gt(a, b) or seq_gt(b, a))
        assert not (seq_ge(a, b) or seq_ge(b, a))


def test_between():
    assert seq_between(10, 15, 20)
    assert seq_between(10, 10, 20)
    assert seq_between(10, 20, 20)
    assert not seq_between(10, 25, 20)
    # across wrap
    assert seq_between(SEQ_MOD - 5, 2, 10)
    assert not seq_between(SEQ_MOD - 5, 11, 10)


def test_min_max():
    assert seq_max(3, 5) == 5
    assert seq_min(3, 5) == 3
    assert seq_max(SEQ_MOD - 5, 5) == 5     # 5 is "later" across the wrap
    assert seq_min(SEQ_MOD - 5, 5) == SEQ_MOD - 5
