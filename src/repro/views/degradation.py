"""Shared degradation annotations for the report views.

Every view appends the same short footer when (and only when) the run
saw degraded telemetry — quarantined records, repaired call paths,
``<unknown>``-bucketed samples, or locales missing from a merge.  On a
clean run all helpers return nothing, so clean output is byte-for-byte
what it was before resilience existed.
"""

from __future__ import annotations

from ..blame.report import BlameReport

#: Provenance reason of samples from a shard whose pool worker exhausted
#: its retries.  No current run produces it; artifacts written by the
#: former sharded post-mortem (``--workers``) carry it, and still render
#: their note.
REASON_WORKER_FAILED = "worker-failed"


def degradation_lines(report: BlameReport) -> list[str]:
    """Human-readable footer lines; empty for a clean run."""
    out: list[str] = []
    stats = report.stats
    if stats.quarantined_samples:
        reasons = ", ".join(
            f"{r}: {n}"
            for r, n in sorted(report.quarantine_by_reason.items())
        )
        out.append(
            f"! {stats.quarantined_samples} malformed samples "
            f"quarantined ({reasons})"
        )
    if stats.recovered_samples:
        out.append(
            f"! {stats.recovered_samples} degraded call paths repaired "
            f"(suffix-match / symbol-table recovery)"
        )
    if stats.unknown_samples:
        reasons = ", ".join(
            f"{r}: {n}"
            for r, n in sorted(report.unknown_by_reason.items())
        )
        out.append(
            f"! {stats.unknown_samples} unattributable samples in "
            f"<unknown> ({reasons})"
        )
    worker_lost = report.unknown_by_reason.get(REASON_WORKER_FAILED, 0)
    if worker_lost:
        # Dedicated line on top of the <unknown> roll-up: losing a pool
        # worker is an operational event, not just telemetry decay.
        out.append(
            f"! {worker_lost} samples from shard(s) whose worker failed "
            f"(retries exhausted; folded into <unknown>)"
        )
    if report.missing_locales:
        ids = ", ".join(str(i) for i in report.missing_locales)
        out.append(f"! merged without locale(s) {ids} (partial aggregate)")
    return out
