"""Per-instruction cycle cost model — the simulated PMU's clock source.

This replaces the real Xeon the paper ran on (DESIGN.md §2).  The
*relative* costs encode the performance behaviors the paper's
optimizations exploit, so the speedup tables emerge from execution:

* zippered iteration pays per-step overhead per iterand
  (MiniMD, Table III);
* reindexed (domain-remapped) views pay per-access translation
  (MiniMD);
* ``makearray`` pays allocation + zero-fill — hoisting it is LULESH's
  Variable Globalization win (Table IX);
* tuple construction/copy pays per slot — eliminating tuple
  temporaries is LULESH's CENN win (Table IX);
* functions bigger than the icache budget pay a per-instruction
  penalty — why over-unrolling (P2, U2+U3) is counterproductive
  (Table VII);
* class field chains pay indirection — flattening CLOMP's Part/Zone
  nests into one 2-D array is the CLOMP win (Table V).

All values are in simulated cycles and configurable; ``CLOCK_HZ``
converts to simulated seconds for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Simulated clock rate (cycles/second) for time reporting.
CLOCK_HZ = 50_000_000.0


@dataclass(frozen=True)
class CostModel:
    """Cycle costs by instruction kind (see module docstring).

    Frozen: every run without an explicit model shares
    :data:`DEFAULT_COST_MODEL`, so an instance must be immutable for
    runs to be independent of each other (mutate-by-accident here would
    silently change every later run in the process).  Derive variants with
    ``dataclasses.replace`` or keyword construction.
    """

    # Memory
    alloca: int = 2
    load: int = 3
    store: int = 3
    #: extra per scalar slot when storing/copying a composite value
    copy_per_slot: int = 4
    field_addr: int = 1
    #: extra indirection when the field base is a heap class instance
    class_field_extra: int = 45
    elem_addr: int = 4
    #: extra when any subscript is a runtime value (const-folded
    #: subscripts from param-unrolled loops address directly)
    elem_addr_dynamic_extra: int = 3
    elem_addr_reindex_extra: int = 12
    tuple_elem_addr: int = 1
    #: extra when the tuple index is a runtime value — constant indices
    #: (param-unrolled loops) address directly, which is the gain the
    #: paper's `param` keyword experiments (Table VII) measure
    tuple_index_dynamic_extra: int = 5

    # Scalar ops
    int_op: int = 1
    real_op: int = 2
    real_div: int = 12
    real_pow: int = 24
    cmp_op: int = 1
    tuple_op_per_slot: int = 3

    # Tuples / records
    make_tuple_base: int = 8
    make_tuple_per_slot: int = 5
    tuple_get: int = 1
    new_record_base: int = 6
    new_record_per_field: int = 2
    new_object_base: int = 40
    new_object_per_field: int = 2

    # Calls / control
    call_overhead: int = 22
    builtin_call: int = 8
    ret: int = 6
    br: int = 1
    cbr: int = 2

    # Ranges / domains / arrays
    make_range: int = 3
    make_domain: int = 55
    domain_op: int = 20
    make_array_base: int = 2000
    make_array_per_elem: int = 34
    array_slice: int = 170
    array_reindex: int = 60
    array_copy_per_elem: int = 2

    # Iterators
    iter_init_range: int = 6
    iter_init_domain: int = 14
    iter_init_array: int = 80
    iter_init_zip_extra: int = 45
    iter_next_range: int = 2
    iter_next_domain: int = 12
    iter_next_array: int = 44
    iter_next_zip_extra: int = 38
    iter_value: int = 2
    iter_value_domain_extra: int = 4

    # Tasking
    spawn_base: int = 250
    spawn_per_task: int = 120
    join_poll: int = 30
    idle_quantum: int = 30

    # I-cache pressure: functions larger than `icache_instrs` pay a
    # per-instruction multiplier up to `icache_max_penalty`.
    icache_instrs: int = 850
    icache_ramp: int = 1200
    icache_max_penalty: float = 0.9

    # Memory system: once the live heap exceeds the last-level-cache
    # budget, every array element access pays a stall. Both a program
    # version and its rewrite pay it, compressing speedups at large
    # problem shapes (CLOMP Table V's 65536-part rows).
    llc_bytes: int = 98304
    mem_stall: int = 150

    # Misc
    writeln_base: int = 40
    math_intrinsic: int = 20
    config_get: int = 10

    def function_penalty(self, n_instrs: int) -> float:
        """Multiplier ≥ 1.0 applied to every instruction of a function,
        growing with code size past the icache budget (reaching the cap
        at ``icache_instrs + icache_ramp`` instructions)."""
        if n_instrs <= self.icache_instrs:
            return 1.0
        over = (n_instrs - self.icache_instrs) / self.icache_ramp
        return 1.0 + self.icache_max_penalty * min(1.0, over)


DEFAULT_COST_MODEL = CostModel()
