"""The retry/backoff schedule (:mod:`repro.resilience.retrying`) that
the multi-locale harness retry loop reads.

``TestRetryPolicy`` pins the policy itself (attempt budget, delay
schedule, validation); ``TestBackoffAttempts`` pins how the generator
drives a caller's loop.
"""

from __future__ import annotations

import pytest

from repro.resilience.retrying import backoff_attempts


def sleeps(max_retries: int, backoff: float) -> list[float]:
    """Every delay ``backoff_attempts`` sleeps when no attempt succeeds."""
    slept: list[float] = []
    for _ in backoff_attempts(max_retries, backoff, sleep=slept.append):
        pass
    return slept


def attempts(max_retries: int) -> list[int]:
    """Every attempt number the budget allows."""
    return list(backoff_attempts(max_retries, 0.0))


class TestRetryPolicy:
    def test_budget_is_retries_plus_one(self):
        assert len(attempts(2)) == 3
        assert len(attempts(0)) == 1

    def test_delay_schedule_doubles(self):
        assert sleeps(4, 0.01) == [0.01, 0.02, 0.04, 0.08]

    def test_attempt_zero_runs_immediately(self):
        slept: list[float] = []
        assert next(backoff_attempts(2, 5.0, sleep=slept.append)) == 0
        assert slept == []

    def test_allows_boundary(self):
        assert attempts(2) == [0, 1, 2]
        assert 3 not in attempts(2)

    def test_zero_retries_means_one_shot(self):
        assert attempts(0) == [0]

    def test_negative_retries_refused(self):
        with pytest.raises(ValueError, match="max_retries"):
            next(backoff_attempts(-1, 0.01))

    def test_negative_backoff_refused(self):
        with pytest.raises(ValueError, match="backoff"):
            next(backoff_attempts(2, -0.1))

    def test_zero_backoff_is_legal(self):
        assert sleeps(3, 0.0) == []


class TestBackoffAttempts:
    def test_yields_every_attempt_and_sleeps_between(self):
        slept: list[float] = []
        attempts = list(
            backoff_attempts(2, 0.01, sleep=slept.append)
        )
        assert attempts == [0, 1, 2]
        assert slept == [0.01, 0.02]

    def test_zero_retries_never_sleeps(self):
        assert sleeps(0, 1.0) == []

    def test_early_break_skips_remaining_sleeps(self):
        slept: list[float] = []
        for attempt in backoff_attempts(5, 1.0, sleep=slept.append):
            if attempt == 1:
                break
        assert slept == [1.0]

    def test_matches_policy_delay(self):
        # Attempt k (k >= 1) waits backoff * 2**(k-1) before it runs.
        assert sleeps(3, 0.25) == [0.25 * 2 ** (k - 1) for k in range(1, 4)]
