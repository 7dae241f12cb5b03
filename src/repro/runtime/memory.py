"""Simulated heap with allocation-site tracking.

The blame tool itself doesn't need a heap model — but the HPCToolkit
data-centric *baseline* (paper §II.B) attributes samples only to static
variables and heap allocations larger than 4 KB, so the runtime records
every allocation's site, size, and lifetime.  Sizes are estimated at 8
bytes per scalar slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chapel.tokens import SourceLocation

BYTES_PER_SLOT = 8


@dataclass
class Allocation:
    """One heap allocation event."""

    heap_id: int
    kind: str  # "array" | "object"
    size_bytes: int
    site: SourceLocation
    func: str
    #: Source variable the allocation was first stored into, when known;
    #: filled post-hoc by the baseline attribution.
    bound_var: str | None = None


class Heap:
    """Allocation registry for one program run."""

    def __init__(self) -> None:
        self._next_id = 1
        self.allocations: dict[int, Allocation] = {}
        self.total_bytes = 0
        self.peak_bytes = 0
        self._live_bytes = 0

    def allocate(
        self, kind: str, n_slots: int, site: SourceLocation, func: str
    ) -> Allocation:
        heap_id = self._next_id
        self._next_id += 1
        size = n_slots * BYTES_PER_SLOT
        alloc = Allocation(heap_id, kind, size, site, func)
        self.allocations[heap_id] = alloc
        self.total_bytes += size
        self._live_bytes += size
        self.peak_bytes = max(self.peak_bytes, self._live_bytes)
        return alloc

    def free(self, heap_id: int) -> None:
        alloc = self.allocations.get(heap_id)
        if alloc is not None:
            self._live_bytes -= alloc.size_bytes

    def large_allocations(self, threshold_bytes: int = 4096) -> list[Allocation]:
        """Allocations the HPCToolkit-style baseline would track."""
        return [
            a for a in self.allocations.values() if a.size_bytes > threshold_bytes
        ]

    @property
    def allocation_count(self) -> int:
        return len(self.allocations)
