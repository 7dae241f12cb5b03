"""Bounded retry with exponential backoff.

The multi-locale harness (:mod:`repro.tooling.multilocale`) retries
whole locale runs on this schedule: attempt ``k`` (0-based) waits
``backoff * 2**(k-1)`` seconds before running, attempt 0 runs
immediately, and the total attempt budget is ``max_retries + 1``.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator


def backoff_attempts(
    max_retries: int,
    backoff: float,
    sleep: Callable[[float], None] = time.sleep,
) -> Iterator[int]:
    """Yields 0-based attempt numbers, sleeping the backoff between
    them: ``0`` immediately, then ``k`` after ``backoff * 2**(k-1)``
    seconds, up to ``max_retries + 1`` attempts total.

    The caller breaks out on success; exhausting the iterator means the
    retry budget is spent.  ``sleep`` is injectable for tests.  A
    negative ``max_retries`` or ``backoff`` raises :class:`ValueError`
    before the first attempt.
    """
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0 (got {max_retries})")
    if backoff < 0.0:
        raise ValueError(f"backoff must be >= 0 (got {backoff})")
    for attempt in range(max_retries + 1):
        if attempt > 0 and backoff > 0.0:
            sleep(backoff * (2 ** (attempt - 1)))
        yield attempt
