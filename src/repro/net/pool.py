"""Empty: the wire's frames, packets and segments are freed by refcount.

``clear()`` stays only because ``benchmarks/suite/run.py`` and
``benchmarks/suite/layers.py`` still call it between timed runs.
"""


def clear() -> None:
    """Do nothing (kept for the benchmark suite's callers)."""
