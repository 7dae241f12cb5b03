"""Simulated PMU configuration.

The paper samples PAPI_TOT_CYC with overflow threshold 608,888,809 ("a
large prime" — primes avoid resonance with loop periods).  Our clock is
the cost model's cycle count, so thresholds are proportionally smaller;
:data:`DEFAULT_THRESHOLD` is likewise prime.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The paper's threshold, kept for reference/reporting.
PAPER_THRESHOLD = 608_888_809

#: Default simulated threshold (prime), sized so benchmark-scale runs
#: collect a few thousand samples.
DEFAULT_THRESHOLD = 20_011


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def pick_prime_threshold(target: int) -> int:
    """Smallest prime ≥ target — for callers tuning sample density."""
    n = max(2, target)
    while not is_prime(n):
        n += 1
    return n


@dataclass(frozen=True)
class PMUConfig:
    """Sampling configuration: event + overflow threshold."""

    event: str = "PAPI_TOT_CYC"
    threshold: int = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("PMU threshold must be positive")
