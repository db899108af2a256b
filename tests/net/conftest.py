"""Fixtures shared by the substrate tests."""

import pytest

from repro.net import pool


@pytest.fixture
def clean_pools():
    """The test starts and ends with empty recycle-pool free lists."""
    pool.clear()
    yield
    pool.clear()
