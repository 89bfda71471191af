"""Every per-process cache in banditlab, and the one call that clears them.

A cache here holds only exact values, so a warm one never changes a report;
but a test that patches or records what a cached value is computed from must
start cold, or the cache hides its plant or its calls, and must end cold, or
a planted value leaks into later tests (the `cold_caches` fixture in
conftest.py does both).  `test_api` scans src/banditlab for `functools.cache`
and fails on one that is not listed here."""

from banditlab import adversaries, catalog, harness, learners

PROCESS_CACHES = (
    catalog.shared_class,
    adversaries.every_permutation_sequence,
    learners._shares_table,
    harness._permutation_law,
    harness._guessing_law,
    harness._embedded_law,
)


def clear_process_caches() -> None:
    for cached in PROCESS_CACHES:
        cached.cache_clear()
