"""Fast-path execution engine: pre-bound plans run in straight-line stretches.

The generic interpreter loop pays, per instruction, a ``type(instr)``
dict lookup, a re-raise funnel, operand kind tests in ``_val``,
cost-model attribute reads, and four thread/task attribute writes.
This engine compiles each basic block, the first time it runs, into a
*plan* ``(block, steps, run_end)``:

* ``steps[i]`` is a specialised step closure for instruction ``i`` with
  operand reads, handler and static costs already bound;
* ``run_end[i]`` is the end (exclusive) of the straight-line *stretch*
  starting at ``i``: specialised, non-transfer steps, closed *after* a
  local ``Br``/``CBr`` (it only moves the frame) and *before* any call,
  return, spawn or delegated handler.  ``run_end[i] == i`` marks an
  instruction that takes the single-step path; under skid every
  instruction does, so skid delivery stays per instruction.

A quantum runs ``for step in steps[i:j]`` with ``j`` capped by the
remaining budget.  The thread's clock, busy cycles and PMU count live in
locals; the ``pmu >= threshold`` test stays per instruction.  The locals
are written back before anything can observe them:

* before ``Interpreter._pmu_overflow`` and skidded delivery —
  ``task.last_clock`` is set *before* the monitor's stack-walk charge
  lands on the clock, which is re-read afterwards, also when they raise;
* the clock before every single step (spawns and the ``elapsed`` builtin
  read ``thread.clock``; handlers never move it, busy cycles or the PMU
  count, so nothing is re-read after one);
* in a ``finally``, so faults, ``ProgramHalt`` and ``StopSampling``
  leave the generic loop's state.

Single steps run inline in the same loop, accumulating exactly as the
generic loop's per-instruction code does.

Semantics are bit-for-bit those of ``Interpreter._run_quantum_generic``:

* every float is accumulated in the same order (``clock += cost *
  penalty``, then busy, then the PMU count and its ``>=`` compare), so
  clocks and sample streams round identically;
* every specialised closure reads all operands before mutating state
  and raises *before* advancing ``frame.index``, so a fault inside a
  stretch is ``frame.block.instructions[frame.index]`` and counts as
  executed, as in the generic loop;
* an overflow inside a stretch ends it; the position of the overflowing
  step comes from the plan, since a closing branch resets
  ``frame.index``;
* uncommon instructions (calls, spawns, allocation, domain algebra)
  delegate to the interpreter's generic handlers, which remain the
  single source of truth for their semantics.

The tests in ``tests/runtime/test_engine.py`` assert engine-vs-generic
equality of outputs, cycle counts, sample streams, and every thread's
and task's state at every scheduler safe point.
"""

from __future__ import annotations

import math
import operator

from ..chapel.types import IntType, RealType
from ..ir import instructions as I
from .builtins import ProgramHalt
from .interpreter import ExecutionError, IterState, _idiv, _imod, _needs_none
from .values import (
    ArrayValue,
    ClassValue,
    RangeValue,
    RecordValue,
    RuntimeError_,
    TupleValue,
    copy_value,
    default_value,
    value_slots,
)

#: Local branches: they only move the frame to another block, so they
#: close a straight-line stretch rather than needing a single step.
_BRANCHES = (I.Br, I.CBr)


def _make_getter(interp, op):
    """Operand accessor closure: ``get(frame) -> value``.

    Pure (no side effects beyond the idempotent lazy creation of a
    global's box), so a step may re-read operands when it punts to a
    generic handler.
    """
    if isinstance(op, I.Constant):
        v = op.value

        def get(frame, _v=v):
            return _v

        return get
    if isinstance(op, I.Register):
        rid = op.rid
        msg = f"register {op} read before definition"

        def get(frame, _rid=rid, _msg=msg):
            try:
                return frame.regs[_rid]
            except KeyError:
                raise RuntimeError_(_msg)

        return get
    if isinstance(op, I.GlobalRef):
        store = interp.globals_store
        name = op.name
        ty = op.type

        def get(frame, _store=store, _name=name, _ty=ty):
            box = _store.get(_name)
            if box is None:
                box = [None] if _needs_none(_ty) else [default_value(_ty)]
                _store[_name] = box
            return (box, 0)

        return get

    def get(frame, _op=op):
        raise RuntimeError_(f"unknown operand kind {type(_op).__name__}")

    return get


_CMP_FNS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "&&": lambda a, b: a and b,
    "||": lambda a, b: a or b,
}

_ARITH_FNS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


class FastEngine:
    """Per-interpreter plan cache + quantum loop (see module docstring)."""

    def __init__(self, interp) -> None:
        self.interp = interp
        #: id(block) -> (block, steps, run_end).  The block ref
        #: in the value pins the object so ids are never reused while a
        #: plan is live.
        self._plans: dict[int, tuple] = {}
        self._factories = {
            I.Alloca: self._sp_alloca,
            I.Load: self._sp_load,
            I.Store: self._sp_store,
            I.FieldAddr: self._sp_field_addr,
            I.ElemAddr: self._sp_elem_addr,
            I.TupleElemAddr: self._sp_tuple_elem_addr,
            I.BinOp: self._sp_binop,
            I.UnOp: self._sp_unop,
            I.Cast: self._sp_cast,
            I.Br: self._sp_br,
            I.CBr: self._sp_cbr,
            I.MakeRange: self._sp_make_range,
            I.MakeTuple: self._sp_make_tuple,
            I.TupleGet: self._sp_tuple_get,
            I.IterNext: self._sp_iter_next,
            I.IterValue: self._sp_iter_value,
        }

    # -- quantum loop ----------------------------------------------------------

    def run_quantum(self, thread) -> None:
        interp = self.interp
        plans = self._plans
        threshold = interp.sample_threshold
        sampling = threshold is not None and interp.monitor is not None
        # Without sampling the local PMU count still accumulates but can
        # never fire, and it is not written back.
        limit = threshold if sampling else math.inf
        overflow = interp._pmu_overflow
        skid = interp.skid > 0
        pending = interp._pending_skid
        deliver = interp._deliver_skidded
        tid = thread.thread_id
        budget = interp.quantum
        executed = 0
        # The thread's clock, busy cycles and PMU count live in locals
        # while stretches run; they are written back before anything can
        # observe them (an overflow, a single step, the quantum's end or
        # an exception), and re-read after anything that may move them.
        clock = thread.clock
        busy = thread.busy_cycles
        pmu = thread.pmu_counter
        task = thread.task
        try:
            while budget > 0:
                if task is None:
                    return
                frame = task.frame
                if frame is None:
                    return
                # The frame (hence its icache penalty) is fixed until a
                # single step: only those change the frame or task.
                penalty = frame.penalty
                block = None
                while budget > 0:
                    if frame.block is not block:
                        block = frame.block
                        plan = plans.get(id(block))
                        if plan is None or plan[0] is not block:
                            plan = self._build_plan(block)
                            plans[id(block)] = plan
                        steps = plan[1]
                        run_end = plan[2]
                    i = frame.index
                    j = run_end[i]
                    if j == i:
                        # Single step: a call, return, spawn or delegated
                        # handler, or any instruction under skid.  Handlers
                        # read the clock (spawns, ``elapsed``) but never
                        # move it, nor busy cycles or the PMU count.
                        executed += 1
                        budget -= 1
                        thread.clock = clock
                        try:
                            cost = steps[i](thread, task, frame)
                        except ProgramHalt:
                            raise
                        except ExecutionError:
                            raise
                        except RuntimeError_ as exc:
                            raise interp._error(
                                str(exc), frame.block.instructions[frame.index], task
                            ) from exc
                        scaled = cost * penalty
                        clock += scaled
                        busy += scaled
                        task.last_clock = clock
                        pmu += scaled
                        if pmu >= limit:
                            thread.clock = clock
                            thread.busy_cycles = busy
                            thread.pmu_counter = pmu
                            try:
                                overflow(thread, False)
                            finally:
                                clock = thread.clock
                                pmu = thread.pmu_counter
                        if skid and pending.get(tid):
                            # Delivery walks the stack and charges the clock.
                            thread.clock = clock
                            try:
                                deliver(thread)
                            finally:
                                clock = thread.clock
                        if thread.task is task and task.frame is frame:
                            continue
                        task = thread.task
                        break
                    if j - i > budget:
                        j = i + budget
                    try:
                        for step in steps[i:j]:
                            scaled = step(thread, task, frame) * penalty
                            clock += scaled
                            busy += scaled
                            pmu += scaled
                            if pmu >= limit:
                                break
                        else:
                            executed += j - i
                            budget -= j - i
                            task.last_clock = clock
                            continue
                    except BaseException as exc:
                        # A step raised before advancing frame.index, so
                        # the stretch retired i .. index-1 and faults on
                        # index, which counts as executed.
                        k = frame.index
                        executed += k - i + 1
                        if k > i:
                            task.last_clock = clock
                        if isinstance(exc, RuntimeError_) and not isinstance(
                            exc, ExecutionError
                        ):
                            raise interp._error(
                                str(exc), frame.block.instructions[k], task
                            ) from exc
                        raise
                    # ``step`` overflowed the PMU.  Its position cannot be
                    # read off frame.index, which a closing branch resets.
                    n = steps.index(step, i) - i + 1
                    executed += n
                    budget -= n
                    thread.clock = clock
                    thread.busy_cycles = busy
                    thread.pmu_counter = pmu
                    # last_clock is taken before the stack walk's charge.
                    task.last_clock = clock
                    try:
                        overflow(thread, False)
                    finally:
                        clock = thread.clock
                        pmu = thread.pmu_counter
        finally:
            thread.clock = clock
            thread.busy_cycles = busy
            if sampling:
                thread.pmu_counter = pmu
            interp.instructions_executed += executed

    # -- plan construction -----------------------------------------------------

    def _build_plan(self, block) -> tuple:
        """``(block, steps, run_end)``: ``run_end[i]`` is where the
        straight-line stretch starting at ``i`` ends (exclusive), or
        ``i`` itself when instruction ``i`` must take the single-step
        path.  A stretch holds specialised non-transfer steps and closes
        after a local ``Br``/``CBr``; under skid every instruction is a
        single step, so skid delivery stays per instruction."""
        instrs = block.instructions
        steps = []
        single = []
        for instr in instrs:
            factory = self._factories.get(type(instr))
            step = factory(instr) if factory is not None else None
            single.append(step is None or self.interp.skid > 0)
            steps.append(step if step is not None else self._delegate(instr))
        n = len(instrs)
        run_end = [0] * n
        end = n
        for k in range(n - 1, -1, -1):
            if single[k]:
                end = k
            elif isinstance(instrs[k], _BRANCHES):
                end = k + 1
            run_end[k] = end
        return (block, steps, run_end)

    def _delegate(self, instr):
        """Generic-handler fallback for uncommon instructions."""
        interp = self.interp
        handler = interp._dispatch.get(type(instr))
        if handler is None:

            def step(thread, task, frame, _instr=instr, _interp=interp):
                raise _interp._error(f"no handler for {_instr.opname}", _instr, task)

            return step

        def step(thread, task, frame, _h=handler, _instr=instr):
            return _h(thread, task, frame, _instr)

        return step

    # -- specialized steps -----------------------------------------------------
    # Each mirrors the corresponding Interpreter._ex_* handler exactly:
    # same mutations, same costs, same error messages, raising before
    # frame.index advances.

    def _sp_alloca(self, instr):
        rid = instr.result.rid
        cost = self.interp.cost_model.alloca

        def step(thread, task, frame, _rid=rid, _cost=cost):
            frame.regs[_rid] = ([None], 0)
            frame.index += 1
            return _cost

        return step

    def _sp_load(self, instr):
        rid = instr.result.rid
        cost = self.interp.cost_model.load
        addr = instr.addr

        if isinstance(addr, I.Register):
            msg = f"register {addr} read before definition"

            def step(thread, task, frame, _ra=addr.rid, _rid=rid, _cost=cost, _msg=msg):
                regs = frame.regs
                try:
                    lst, i = regs[_ra]
                except KeyError:
                    raise RuntimeError_(_msg)
                regs[_rid] = lst[i]
                frame.index += 1
                return _cost

            return step

        if isinstance(addr, I.GlobalRef):
            # The global getter inlined: the box is created on first use.
            def step(
                thread, task, frame, _store=self.interp.globals_store,
                _name=addr.name, _ty=addr.type, _rid=rid, _cost=cost,
            ):
                box = _store.get(_name)
                if box is None:
                    box = [None] if _needs_none(_ty) else [default_value(_ty)]
                    _store[_name] = box
                frame.regs[_rid] = box[0]
                frame.index += 1
                return _cost

            return step

        get = _make_getter(self.interp, addr)

        def step(thread, task, frame, _get=get, _rid=rid, _cost=cost):
            lst, i = _get(frame)
            frame.regs[_rid] = lst[i]
            frame.index += 1
            return _cost

        return step

    def _sp_store(self, instr):
        interp = self.interp
        base = interp.cost_model.store
        per_slot = interp.cost_model.copy_per_slot
        val, addr = instr.value, instr.addr

        if isinstance(val, (I.Register, I.Constant)) and isinstance(addr, I.Register):
            vr = val.rid if isinstance(val, I.Register) else None
            vv = val.value if isinstance(val, I.Constant) else None
            vmsg = f"register {val} read before definition"
            amsg = f"register {addr} read before definition"

            def step(
                thread, task, frame, _vr=vr, _vv=vv, _ar=addr.rid,
                _base=base, _ps=per_slot, _vm=vmsg, _am=amsg,
            ):
                regs = frame.regs
                try:
                    value = regs[_vr] if _vr is not None else _vv
                    lst, i = regs[_ar]
                except KeyError:
                    raise RuntimeError_(
                        _vm if _vr is not None and _vr not in regs else _am
                    )
                if isinstance(value, (TupleValue, RecordValue)):
                    cost = _base + _ps * value_slots(value)
                    value = copy_value(value)
                else:
                    cost = _base
                lst[i] = value
                frame.index += 1
                return cost

            return step

        getv = _make_getter(interp, val)
        geta = _make_getter(interp, addr)

        def step(thread, task, frame, _gv=getv, _ga=geta, _base=base, _ps=per_slot):
            value = _gv(frame)
            lst, i = _ga(frame)
            if isinstance(value, (TupleValue, RecordValue)):
                cost = _base + _ps * value_slots(value)
                value = copy_value(value)
            else:
                cost = _base
            lst[i] = value
            frame.index += 1
            return cost

        return step

    def _sp_field_addr(self, instr):
        interp = self.interp
        rid = instr.result.rid
        index = instr.index
        rec_cost = interp.cost_model.field_addr
        cls_cost = rec_cost + interp.cost_model.class_field_extra

        if isinstance(instr.base, I.Register):
            msg = f"register {instr.base} read before definition"

            def step(
                thread, task, frame, _rb=instr.base.rid, _rid=rid, _ix=index,
                _rc=rec_cost, _cc=cls_cost, _msg=msg,
            ):
                regs = frame.regs
                try:
                    base = regs[_rb]
                except KeyError:
                    raise RuntimeError_(_msg)
                if isinstance(base, tuple):
                    obj = base[0][base[1]]
                else:
                    obj = base
                if obj is None:
                    raise RuntimeError_("field access through nil")
                if isinstance(obj, ClassValue):
                    cost = _cc
                elif isinstance(obj, RecordValue):
                    cost = _rc
                else:
                    raise RuntimeError_(
                        f"field access on non-record value {type(obj).__name__}"
                    )
                regs[_rid] = (obj.fields, _ix)
                frame.index += 1
                return cost

            return step

        get = _make_getter(interp, instr.base)

        def step(
            thread, task, frame, _get=get, _rid=rid, _ix=index, _rc=rec_cost, _cc=cls_cost
        ):
            base = _get(frame)
            if isinstance(base, tuple):
                obj = base[0][base[1]]
            else:
                obj = base
            if obj is None:
                raise RuntimeError_("field access through nil")
            if isinstance(obj, ClassValue):
                cost = _cc
            elif isinstance(obj, RecordValue):
                cost = _rc
            else:
                raise RuntimeError_(
                    f"field access on non-record value {type(obj).__name__}"
                )
            frame.regs[_rid] = (obj.fields, _ix)
            frame.index += 1
            return cost

        return step

    def _sp_elem_addr(self, instr):
        interp = self.interp
        cm = interp.cost_model
        getb = _make_getter(interp, instr.base)
        getters = [_make_getter(interp, ix) for ix in instr.indices]
        rid = instr.result.rid
        base_cost = cm.elem_addr
        if any(not isinstance(ix, I.Constant) for ix in instr.indices):
            base_cost += cm.elem_addr_dynamic_extra
        reindex_extra = cm.elem_addr_reindex_extra
        llc = cm.llc_bytes
        stall = cm.mem_stall
        heap = interp.heap

        if len(getters) == 1:
            ix = instr.indices[0]
            if isinstance(instr.base, I.Register) and isinstance(
                ix, (I.Register, I.Constant)
            ):
                bmsg = f"register {instr.base} read before definition"
                imsg = f"register {ix} read before definition"
                ir = ix.rid if isinstance(ix, I.Register) else None
                iv = ix.value if isinstance(ix, I.Constant) else None

                def step(
                    thread,
                    task,
                    frame,
                    _rb=instr.base.rid,
                    _ir=ir,
                    _iv=iv,
                    _rid=rid,
                    _base=base_cost,
                    _re=reindex_extra,
                    _heap=heap,
                    _llc=llc,
                    _stall=stall,
                    _bm=bmsg,
                    _im=imsg,
                ):
                    regs = frame.regs
                    try:
                        arr = regs[_rb]
                    except KeyError:
                        raise RuntimeError_(_bm)
                    if not isinstance(arr, ArrayValue):
                        raise RuntimeError_("indexing a non-array value")
                    try:
                        c = regs[_ir] if _ir is not None else _iv
                    except KeyError:
                        raise RuntimeError_(_im)
                    regs[_rid] = (arr.root.data, arr.flat_of((c,)))
                    frame.index += 1
                    cost = _base
                    if arr.is_reindex:
                        cost += _re
                    if _heap._live_bytes > _llc:
                        cost += _stall
                    return cost

                return step

            g0 = getters[0]

            def step(
                thread,
                task,
                frame,
                _gb=getb,
                _g0=g0,
                _rid=rid,
                _base=base_cost,
                _re=reindex_extra,
                _heap=heap,
                _llc=llc,
                _stall=stall,
            ):
                arr = _gb(frame)
                if not isinstance(arr, ArrayValue):
                    raise RuntimeError_("indexing a non-array value")
                frame.regs[_rid] = (arr.root.data, arr.flat_of((_g0(frame),)))
                frame.index += 1
                cost = _base
                if arr.is_reindex:
                    cost += _re
                if _heap._live_bytes > _llc:
                    cost += _stall
                return cost

            return step

        def step(
            thread,
            task,
            frame,
            _gb=getb,
            _gs=getters,
            _rid=rid,
            _base=base_cost,
            _re=reindex_extra,
            _heap=heap,
            _llc=llc,
            _stall=stall,
        ):
            arr = _gb(frame)
            if not isinstance(arr, ArrayValue):
                raise RuntimeError_("indexing a non-array value")
            coords = tuple(g(frame) for g in _gs)
            frame.regs[_rid] = (arr.root.data, arr.flat_of(coords))
            frame.index += 1
            cost = _base
            if arr.is_reindex:
                cost += _re
            if _heap._live_bytes > _llc:
                cost += _stall
            return cost

        return step

    def _sp_tuple_elem_addr(self, instr):
        interp = self.interp
        base, index = instr.base, instr.index
        rid = instr.result.rid
        cost = interp.cost_model.tuple_elem_addr
        if not isinstance(index, I.Constant):
            cost += interp.cost_model.tuple_index_dynamic_extra

        if isinstance(base, I.Register) and isinstance(index, (I.Register, I.Constant)):
            kr = index.rid if isinstance(index, I.Register) else None
            kv = index.value if isinstance(index, I.Constant) else None
            bmsg = f"register {base} read before definition"
            kmsg = f"register {index} read before definition"

            def step(
                thread, task, frame, _rb=base.rid, _kr=kr, _kv=kv, _rid=rid,
                _cost=cost, _bm=bmsg, _km=kmsg,
            ):
                regs = frame.regs
                try:
                    lst, i = regs[_rb]
                except KeyError:
                    raise RuntimeError_(_bm)
                tup = lst[i]
                if not isinstance(tup, TupleValue):
                    raise RuntimeError_("tuple element access on non-tuple")
                try:
                    k = regs[_kr] if _kr is not None else _kv
                except KeyError:
                    raise RuntimeError_(_km)
                if not 0 <= k < len(tup.elems):
                    raise RuntimeError_(
                        f"tuple index {k} out of range 0..{len(tup.elems) - 1}"
                    )
                regs[_rid] = (tup.elems, k)
                frame.index += 1
                return _cost

            return step

        getb = _make_getter(interp, base)
        getk = _make_getter(interp, index)

        def step(thread, task, frame, _gb=getb, _gk=getk, _rid=rid, _cost=cost):
            lst, i = _gb(frame)
            tup = lst[i]
            if not isinstance(tup, TupleValue):
                raise RuntimeError_("tuple element access on non-tuple")
            k = _gk(frame)
            if not 0 <= k < len(tup.elems):
                raise RuntimeError_(
                    f"tuple index {k} out of range 0..{len(tup.elems) - 1}"
                )
            frame.regs[_rid] = (tup.elems, k)
            frame.index += 1
            return _cost

        return step

    def _sp_binop(self, instr):
        interp = self.interp
        cm = interp.cost_model
        op = instr.op
        lhs, rhs = instr.lhs, instr.rhs
        rid = instr.result.rid
        generic = interp._ex_binop

        if (
            isinstance(lhs, (I.Register, I.Constant))
            and isinstance(rhs, (I.Register, I.Constant))
            and (op in _CMP_FNS or op in _ARITH_FNS or op in ("/", "%", "**"))
        ):
            return self._sp_binop_inline(instr, op, lhs, rhs, rid, generic)

        ga = _make_getter(interp, lhs)
        gb = _make_getter(interp, rhs)

        if op in _CMP_FNS:
            fn = _CMP_FNS[op]
            cost = cm.cmp_op

            def step(
                thread, task, frame, _ga=ga, _gb=gb, _rid=rid, _fn=fn, _cost=cost,
                _gen=generic, _in=instr,
            ):
                a = _ga(frame)
                b = _gb(frame)
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                frame.regs[_rid] = _fn(a, b)
                frame.index += 1
                return _cost

            return step

        if op in _ARITH_FNS:
            fn = _ARITH_FNS[op]
            int_c = cm.int_op
            real_c = cm.real_op

            def step(
                thread, task, frame, _ga=ga, _gb=gb, _rid=rid, _fn=fn,
                _ic=int_c, _rc=real_c, _gen=generic, _in=instr,
            ):
                a = _ga(frame)
                b = _gb(frame)
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                r = _fn(a, b)
                frame.regs[_rid] = r
                frame.index += 1
                return _rc if isinstance(r, float) else _ic

            return step

        if op == "/":
            int_c = cm.int_op
            real_div = cm.real_div

            def step(
                thread, task, frame, _ga=ga, _gb=gb, _rid=rid,
                _ic=int_c, _rd=real_div, _gen=generic, _in=instr,
            ):
                a = _ga(frame)
                b = _gb(frame)
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                if isinstance(a, int) and isinstance(b, int):
                    r = _idiv(a, b)
                    cost = _ic
                else:
                    if b == 0:
                        raise RuntimeError_("division by zero")
                    r = a / b
                    cost = _rd if isinstance(r, float) else _ic
                frame.regs[_rid] = r
                frame.index += 1
                return cost

            return step

        if op == "%":
            int_c = cm.int_op
            real_c = cm.real_op

            def step(
                thread, task, frame, _ga=ga, _gb=gb, _rid=rid,
                _ic=int_c, _rc=real_c, _gen=generic, _in=instr,
            ):
                a = _ga(frame)
                b = _gb(frame)
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                if isinstance(a, int) and isinstance(b, int):
                    r = _imod(a, b)
                    cost = _ic
                else:
                    r = a % b
                    cost = _rc if isinstance(r, float) else _ic
                frame.regs[_rid] = r
                frame.index += 1
                return cost

            return step

        if op == "**":
            pow_c = cm.real_pow

            def step(
                thread, task, frame, _ga=ga, _gb=gb, _rid=rid, _pc=pow_c,
                _gen=generic, _in=instr,
            ):
                a = _ga(frame)
                b = _gb(frame)
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                frame.regs[_rid] = a**b
                frame.index += 1
                return _pc

            return step

        # Unknown operator: the generic handler raises with the right
        # message (and would also own any future operator's costs).
        return None

    def _sp_binop_inline(self, instr, op, lhs, rhs, rid, generic):
        """BinOp steps with operand reads inlined (no getter closures).

        Both operands are registers or constants; ``_ra``/``_rb`` hold a
        rid (register read) or None (use the bound constant).  Operands
        are read left-to-right, so the undefined-register message names
        the same operand as the getter-based path.
        """
        cm = self.interp.cost_model
        ra = lhs.rid if isinstance(lhs, I.Register) else None
        va = lhs.value if isinstance(lhs, I.Constant) else None
        rb = rhs.rid if isinstance(rhs, I.Register) else None
        vb = rhs.value if isinstance(rhs, I.Constant) else None
        ma = f"register {lhs} read before definition"
        mb = f"register {rhs} read before definition"

        if op in _CMP_FNS:
            fn = _CMP_FNS[op]
            cost = cm.cmp_op

            def step(
                thread, task, frame, _ra=ra, _va=va, _rb=rb, _vb=vb, _rid=rid,
                _fn=fn, _cost=cost, _gen=generic, _in=instr, _ma=ma, _mb=mb,
            ):
                regs = frame.regs
                try:
                    a = regs[_ra] if _ra is not None else _va
                    b = regs[_rb] if _rb is not None else _vb
                except KeyError:
                    raise RuntimeError_(
                        _ma if _ra is not None and _ra not in regs else _mb
                    )
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                regs[_rid] = _fn(a, b)
                frame.index += 1
                return _cost

            return step

        if op in _ARITH_FNS:
            fn = _ARITH_FNS[op]
            int_c = cm.int_op
            real_c = cm.real_op

            def step(
                thread, task, frame, _ra=ra, _va=va, _rb=rb, _vb=vb, _rid=rid,
                _fn=fn, _ic=int_c, _rc=real_c, _gen=generic, _in=instr, _ma=ma, _mb=mb,
            ):
                regs = frame.regs
                try:
                    a = regs[_ra] if _ra is not None else _va
                    b = regs[_rb] if _rb is not None else _vb
                except KeyError:
                    raise RuntimeError_(
                        _ma if _ra is not None and _ra not in regs else _mb
                    )
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                r = _fn(a, b)
                regs[_rid] = r
                frame.index += 1
                return _rc if isinstance(r, float) else _ic

            return step

        if op == "/":
            int_c = cm.int_op
            real_div = cm.real_div

            def step(
                thread, task, frame, _ra=ra, _va=va, _rb=rb, _vb=vb, _rid=rid,
                _ic=int_c, _rd=real_div, _gen=generic, _in=instr, _ma=ma, _mb=mb,
            ):
                regs = frame.regs
                try:
                    a = regs[_ra] if _ra is not None else _va
                    b = regs[_rb] if _rb is not None else _vb
                except KeyError:
                    raise RuntimeError_(
                        _ma if _ra is not None and _ra not in regs else _mb
                    )
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                if isinstance(a, int) and isinstance(b, int):
                    r = _idiv(a, b)
                    cost = _ic
                else:
                    if b == 0:
                        raise RuntimeError_("division by zero")
                    r = a / b
                    cost = _rd if isinstance(r, float) else _ic
                regs[_rid] = r
                frame.index += 1
                return cost

            return step

        if op == "%":
            int_c = cm.int_op
            real_c = cm.real_op

            def step(
                thread, task, frame, _ra=ra, _va=va, _rb=rb, _vb=vb, _rid=rid,
                _ic=int_c, _rc=real_c, _gen=generic, _in=instr, _ma=ma, _mb=mb,
            ):
                regs = frame.regs
                try:
                    a = regs[_ra] if _ra is not None else _va
                    b = regs[_rb] if _rb is not None else _vb
                except KeyError:
                    raise RuntimeError_(
                        _ma if _ra is not None and _ra not in regs else _mb
                    )
                if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                    return _gen(thread, task, frame, _in)
                if isinstance(a, int) and isinstance(b, int):
                    r = _imod(a, b)
                    cost = _ic
                else:
                    r = a % b
                    cost = _rc if isinstance(r, float) else _ic
                regs[_rid] = r
                frame.index += 1
                return cost

            return step

        pow_c = cm.real_pow

        def step(
            thread, task, frame, _ra=ra, _va=va, _rb=rb, _vb=vb, _rid=rid,
            _pc=pow_c, _gen=generic, _in=instr, _ma=ma, _mb=mb,
        ):
            regs = frame.regs
            try:
                a = regs[_ra] if _ra is not None else _va
                b = regs[_rb] if _rb is not None else _vb
            except KeyError:
                raise RuntimeError_(
                    _ma if _ra is not None and _ra not in regs else _mb
                )
            if isinstance(a, TupleValue) or isinstance(b, TupleValue):
                return _gen(thread, task, frame, _in)
            regs[_rid] = a**b
            frame.index += 1
            return _pc

        return step

    def _sp_unop(self, instr):
        interp = self.interp
        cm = interp.cost_model
        get = _make_getter(interp, instr.operand)
        rid = instr.result.rid

        if instr.op == "-":
            int_c = cm.int_op
            slot_c = cm.tuple_op_per_slot

            def step(thread, task, frame, _g=get, _rid=rid, _ic=int_c, _sc=slot_c):
                v = _g(frame)
                if isinstance(v, TupleValue):
                    out = TupleValue([-x for x in v.elems])
                    cost = _sc * len(v.elems)
                else:
                    out = -v
                    cost = _ic
                frame.regs[_rid] = out
                frame.index += 1
                return cost

            return step

        if instr.op == "!":
            int_c = cm.int_op

            def step(thread, task, frame, _g=get, _rid=rid, _ic=int_c):
                frame.regs[_rid] = not _g(frame)
                frame.index += 1
                return _ic

            return step

        return None

    def _sp_cast(self, instr):
        interp = self.interp
        get = _make_getter(interp, instr.value)
        rid = instr.result.rid
        cost = interp.cost_model.int_op
        ty = instr.result.type
        conv = float if isinstance(ty, RealType) else int if isinstance(ty, IntType) else None

        if conv is None:

            def step(thread, task, frame, _g=get, _rid=rid, _cost=cost):
                frame.regs[_rid] = _g(frame)
                frame.index += 1
                return _cost

            return step

        def step(thread, task, frame, _g=get, _rid=rid, _conv=conv, _cost=cost):
            frame.regs[_rid] = _conv(_g(frame))
            frame.index += 1
            return _cost

        return step

    def _sp_br(self, instr):
        target = instr.target
        cost = self.interp.cost_model.br

        def step(thread, task, frame, _t=target, _cost=cost):
            frame.block = _t
            frame.index = 0
            return _cost

        return step

    def _sp_cbr(self, instr):
        cond = instr.cond
        then_block = instr.then_block
        else_block = instr.else_block
        cost = self.interp.cost_model.cbr

        if isinstance(cond, I.Register):
            msg = f"register {cond} read before definition"

            def step(
                thread, task, frame, _rc=cond.rid, _t=then_block, _e=else_block,
                _cost=cost, _msg=msg,
            ):
                try:
                    c = frame.regs[_rc]
                except KeyError:
                    raise RuntimeError_(_msg)
                frame.block = _t if c else _e
                frame.index = 0
                return _cost

            return step

        get = _make_getter(self.interp, cond)

        def step(thread, task, frame, _g=get, _t=then_block, _e=else_block, _cost=cost):
            frame.block = _t if _g(frame) else _e
            frame.index = 0
            return _cost

        return step

    def _sp_make_range(self, instr):
        interp = self.interp
        gl = _make_getter(interp, instr.ops[0])
        gh = _make_getter(interp, instr.ops[1])
        gs = _make_getter(interp, instr.ops[2])
        rid = instr.result.rid
        counted = instr.counted
        cost = interp.cost_model.make_range

        def step(
            thread, task, frame, _gl=gl, _gh=gh, _gs=gs, _rid=rid, _ct=counted, _cost=cost
        ):
            lo = _gl(frame)
            hi = _gh(frame)
            step_ = _gs(frame)
            if _ct:
                hi = lo + (hi - 1) * abs(step_) if step_ != 1 else lo + hi - 1
            frame.regs[_rid] = RangeValue(lo, hi, step_)
            frame.index += 1
            return _cost

        return step

    def _sp_make_tuple(self, instr):
        interp = self.interp
        getters = [_make_getter(interp, e) for e in instr.ops]
        rid = instr.result.rid
        base = interp.cost_model.make_tuple_base
        per_slot = interp.cost_model.make_tuple_per_slot

        def step(thread, task, frame, _gs=getters, _rid=rid, _base=base, _ps=per_slot):
            tup = TupleValue([copy_value(g(frame)) for g in _gs])
            frame.regs[_rid] = tup
            frame.index += 1
            return _base + _ps * value_slots(tup)

        return step

    def _sp_tuple_get(self, instr):
        interp = self.interp
        gt = _make_getter(interp, instr.tup)
        gk = _make_getter(interp, instr.index)
        rid = instr.result.rid
        cost = interp.cost_model.tuple_get
        if not isinstance(instr.index, I.Constant):
            cost += interp.cost_model.tuple_index_dynamic_extra

        def step(thread, task, frame, _gt=gt, _gk=gk, _rid=rid, _cost=cost):
            tup = _gt(frame)
            k = _gk(frame)
            if not isinstance(tup, TupleValue):
                raise RuntimeError_("tuple access on non-tuple value")
            if not 0 <= k < len(tup.elems):
                raise RuntimeError_(f"tuple index {k} out of range")
            frame.regs[_rid] = tup.elems[k]
            frame.index += 1
            return _cost

        return step

    def _sp_iter_next(self, instr):
        interp = self.interp
        cm = interp.cost_model
        get = _make_getter(interp, instr.state)
        rid = instr.result.rid
        costs = {
            "range": cm.iter_next_range,
            "domain": cm.iter_next_domain,
            "array": cm.iter_next_array,
        }
        zip_extra = cm.iter_next_zip_extra

        if isinstance(instr.state, I.Register):
            msg = f"register {instr.state} read before definition"

            def step(
                thread, task, frame, _rs=instr.state.rid, _rid=rid, _costs=costs,
                _zx=zip_extra, _msg=msg,
            ):
                regs = frame.regs
                try:
                    state = regs[_rs]
                except KeyError:
                    raise RuntimeError_(_msg)
                if not isinstance(state, IterState):
                    raise RuntimeError_("iter_next on non-iterator")
                pos = state.pos + 1
                state.pos = pos
                regs[_rid] = pos <= state.end
                frame.index += 1
                if state.zippered:
                    return _costs[state.kind] + _zx
                return _costs[state.kind]

            return step

        def step(thread, task, frame, _g=get, _rid=rid, _costs=costs, _zx=zip_extra):
            state = _g(frame)
            if not isinstance(state, IterState):
                raise RuntimeError_("iter_next on non-iterator")
            pos = state.pos + 1
            state.pos = pos
            frame.regs[_rid] = pos <= state.end
            frame.index += 1
            if state.zippered:
                return _costs[state.kind] + _zx
            return _costs[state.kind]

        return step

    def _sp_iter_value(self, instr):
        interp = self.interp
        cm = interp.cost_model
        get = _make_getter(interp, instr.state)
        rid = instr.result.rid
        base = cm.iter_value
        dom_cost = base + cm.iter_value_domain_extra
        reindex_extra = cm.elem_addr_reindex_extra
        llc = cm.llc_bytes
        stall = cm.mem_stall
        heap = interp.heap

        def step(
            thread,
            task,
            frame,
            _g=get,
            _rid=rid,
            _base=base,
            _dc=dom_cost,
            _re=reindex_extra,
            _heap=heap,
            _llc=llc,
            _stall=stall,
        ):
            state = _g(frame)
            if not isinstance(state, IterState):
                raise RuntimeError_("iter_value on non-iterator")
            kind = state.kind
            if kind == "range":
                frame.regs[_rid] = state.payload.nth(state.pos)
                frame.index += 1
                return _base
            if kind == "domain":
                dom = state.payload
                coords = dom.coords_of(state.pos)
                frame.regs[_rid] = coords[0] if dom.rank == 1 else TupleValue(list(coords))
                frame.index += 1
                return _dc
            arr = state.payload
            coords = arr.domain.coords_of(state.pos)
            frame.regs[_rid] = (arr.root.data, arr.flat_of(coords))
            frame.index += 1
            cost = _dc
            if arr.is_reindex:
                cost += _re
            if _heap._live_bytes > _llc:
                cost += _stall
            return cost

        return step
