"""Address-to-source resolution for sampled stacks.

Post-mortem step 3's first task (paper §IV.C): convert raw addresses
(instruction ids) into module / file / line / function records via the
debug info — the DyninstAPI lookup in the real tool.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DebugInfoError
from ..ir.module import Module


@dataclass(frozen=True)
class ResolvedFrame:
    """One stack entry after address resolution."""

    function: str  # linkage name (may be an outlined forall_fn_chplN)
    source_function: str  # user-facing name (outlined frames resolved)
    filename: str
    line: int
    iid: int
    is_runtime: bool  # synthetic runtime frames (__sched_yield, ...)

    def __str__(self) -> str:
        return f"{self.source_function} ({self.filename}:{self.line})"


class StackResolver:
    """Resolves (function, iid) stack entries against a module."""

    def __init__(self, module: Module) -> None:
        self.module = module
        self._index = module.instruction_index()
        #: frame → (file, line); stack → interned locations tuple.
        self._frame_locs: dict[tuple[str, int], tuple[str, int]] = {}
        self._stack_locs: dict[
            tuple[tuple[str, int], ...], tuple[tuple[str, int], ...]
        ] = {}

    def resolve_entry(self, func: str, iid: int, strict: bool = False) -> ResolvedFrame:
        """Resolves one frame; with ``strict=True`` an address that has
        no debug info raises :class:`DebugInfoError` instead of
        degrading to an ``<unknown>`` location."""
        if iid < 0:
            return ResolvedFrame(
                function=func,
                source_function=func,
                filename="<runtime>",
                line=0,
                iid=iid,
                is_runtime=True,
            )
        hit = self._index.get(iid)
        if hit is None:
            if strict:
                raise DebugInfoError(
                    f"no debug info for address {iid} (frame {func!r})"
                )
            return ResolvedFrame(func, func, "<unknown>", 0, iid, True)
        f, instr = hit
        return ResolvedFrame(
            function=f.name,
            source_function=f.source_name,
            filename=instr.loc.filename,
            line=instr.loc.line,
            iid=iid,
            is_runtime=f.is_artificial,
        )

    def identify(self, iid: int) -> str | None:
        """Address-range lookup: the linkage name of the function whose
        range contains ``iid``, or None.  This is the ELF *symbol
        table* path — it keeps working on modules whose debug info was
        stripped, which is why tolerant post-mortem uses it to
        re-identify interior frames that resolve to raw addresses."""
        if iid < 0:
            return None
        hit = self._index.get(iid)
        return hit[0].name if hit is not None else None

    def locations(
        self, frames: tuple[tuple[str, int], ...]
    ) -> tuple[tuple[str, int], ...]:
        """The ``(file, line)`` of every frame, memoized: each distinct
        frame is resolved once, and every call with an equal ``frames``
        returns the same interned tuple."""
        locs = self._stack_locs.get(frames)
        if locs is None:
            memo = self._frame_locs
            out = []
            for frame in frames:
                loc = memo.get(frame)
                if loc is None:
                    r = self.resolve_entry(*frame)
                    loc = memo[frame] = (r.filename, r.line)
                out.append(loc)
            locs = self._stack_locs[frames] = tuple(out)
        return locs
