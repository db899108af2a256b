"""Hypothesis properties of 32-bit sequence arithmetic."""

from hypothesis import given, strategies as st

from repro.tcp.seq import (SEQ_MASK, SEQ_MOD, seq_add, seq_ge, seq_gt,
                           seq_le, seq_lt, seq_max, seq_min, seq_sub)

seqs = st.integers(min_value=0, max_value=SEQ_MASK)
small = st.integers(min_value=-(1 << 30), max_value=(1 << 30))
#: Two sequence numbers less than 2**31 apart: the domain the comparisons
#: are defined on (RFC 1982 leaves exactly 2**31 undefined; see
#: tests/tcp/test_seq.py for what they return there).
pairs = st.builds(lambda a, d: (a, seq_add(a, d)), seqs,
                  st.integers(min_value=-(1 << 31) + 1,
                              max_value=(1 << 31) - 1))


@given(seqs, small)
def test_add_sub_roundtrip(seq, delta):
    assert seq_sub(seq_add(seq, delta), seq) == delta


@given(seqs, small, small)
def test_add_is_associative_mod(seq, a, b):
    assert seq_add(seq_add(seq, a), b) == seq_add(seq, a + b)


@given(pairs)
def test_comparison_trichotomy(pair):
    """Within the half-circle, exactly one of <, ==, > holds."""
    a, b = pair
    d = seq_sub(a, b)
    assert (seq_lt(a, b), a == b or d == 0, seq_gt(a, b)).count(True) >= 1
    if d != 0:
        assert seq_lt(a, b) != seq_gt(a, b)


@given(pairs)
def test_lt_gt_antisymmetric(pair):
    a, b = pair
    if seq_lt(a, b):
        assert seq_gt(b, a)
        assert not seq_gt(a, b)


@given(pairs)
def test_le_ge_duality(pair):
    a, b = pair
    assert seq_le(a, b) == seq_ge(b, a)


@given(seqs, st.integers(min_value=0, max_value=(1 << 30)))
def test_forward_add_is_greater(seq, delta):
    if delta > 0:
        assert seq_gt(seq_add(seq, delta), seq)
        assert seq_lt(seq, seq_add(seq, delta))


@given(pairs)
def test_min_max_consistent(pair):
    a, b = pair
    lo, hi = seq_min(a, b), seq_max(a, b)
    assert {lo, hi} == {a, b}
    assert seq_le(lo, hi)


@given(seqs)
def test_add_zero_identity(seq):
    assert seq_add(seq, 0) == seq
    assert seq_sub(seq, seq) == 0
