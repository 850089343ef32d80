"""Helpers shared by the test modules."""

import tracemalloc


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces during one call of ``fn()``.

    ``fn`` runs once untraced first, so first-call allocations (caches,
    lazily built tables) stay out of the measurement.
    """
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
