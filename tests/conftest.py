import pytest

from process_caches import clear_process_caches


@pytest.fixture
def cold_caches():
    """Every per-process cache cleared before the test and again after it."""
    clear_process_caches()
    yield
    clear_process_caches()
