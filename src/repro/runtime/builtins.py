"""Builtin (intrinsic) implementations for the IR interpreter.

Each builtin receives ``(interp, thread, args)`` and returns
``(result, extra_cycles)``.  Math intrinsics and ``writeln`` model the
Chapel runtime-library calls the paper's stack trimming removes from
user call paths.
"""

from __future__ import annotations

import math
from typing import Callable

from ..errors import ConfigError
from .costmodel import CLOCK_HZ
from .values import ArrayValue, RuntimeError_, copy_value, format_value, value_slots


class ProgramHalt(Exception):
    """Raised by the ``halt`` builtin (Chapel's error exit)."""


def _writeln(interp, thread, args):
    text = " ".join(format_value(a) for a in args)
    if interp.output and not interp._last_write_complete:
        interp.output[-1] += text
    else:
        interp.output.append(text)
    interp._last_write_complete = True
    return None, interp.cost_model.writeln_base + 5 * len(args)


def _write(interp, thread, args):
    text = " ".join(format_value(a) for a in args)
    if interp.output and not interp._last_write_complete:
        interp.output[-1] += text
    else:
        interp.output.append(text)
        interp._last_write_complete = False
    return None, interp.cost_model.writeln_base + 5 * len(args)


def _math1(fn: Callable[[float], float]):
    def impl(interp, thread, args):
        try:
            return float(fn(args[0])), interp.cost_model.math_intrinsic
        except ValueError as exc:
            raise RuntimeError_(f"math domain error: {exc}") from exc

    return impl


def _min(interp, thread, args):
    return min(args[0], args[1]), interp.cost_model.int_op * 2


def _max(interp, thread, args):
    return max(args[0], args[1]), interp.cost_model.int_op * 2


def _abs(interp, thread, args):
    return abs(args[0]), interp.cost_model.int_op


def _fmod(interp, thread, args):
    return math.fmod(args[0], args[1]), interp.cost_model.math_intrinsic


def _to_int(interp, thread, args):
    return int(args[0]), interp.cost_model.int_op

def _to_real(interp, thread, args):
    return float(args[0]), interp.cost_model.int_op


def _get_current_time(interp, thread, args):
    """Simulated wall clock in seconds (Chapel's getCurrentTime, used by
    the benchmarks' self-timers). The executing thread's clock is the
    causal "now": tasks carry their virtual time across thread
    migrations, so elapsed differences taken by one task are sound."""
    return thread.clock / CLOCK_HZ, 5


def _max_task_par(interp, thread, args):
    return interp.num_threads, 2


def _halt(interp, thread, args):
    msg = " ".join(format_value(a) for a in args) or "halt reached"
    raise ProgramHalt(msg)


def _assert_true(interp, thread, args):
    if not args:
        raise RuntimeError_("assertTrue needs a condition")
    if not args[0]:
        msg = " ".join(format_value(a) for a in args[1:]) or "assertion failed"
        raise RuntimeError_(f"assertion failed: {msg}")
    return None, 2


def _array_copy(interp, thread, args):
    dst, src = args
    if not isinstance(dst, ArrayValue) or not isinstance(src, ArrayValue):
        raise RuntimeError_("_array_copy needs two arrays")
    if dst.domain.shape != src.domain.shape:
        raise RuntimeError_(
            f"array copy shape mismatch: {dst.domain.shape} vs {src.domain.shape}"
        )
    n = 0
    src_coords = src.domain.iter_coords()
    for dcoords, scoords in zip(dst.domain.iter_coords(), src_coords):
        v = src.data[src.flat_of(scoords)]
        dst.data[dst.flat_of(dcoords)] = copy_value(v)
        n += 1
    return None, interp.cost_model.array_copy_per_elem * max(n, 1)


def _config_get(cast):
    def impl(interp, thread, args):
        name, default = args
        value = interp.config.get(name, default)
        try:
            return cast(value), interp.cost_model.config_get
        except (TypeError, ValueError):
            raise ConfigError(
                f"config {name!r}: {value!r} is not a valid "
                f"{cast.__name__}"
            ) from None

    return impl


BUILTINS: dict[str, Callable] = {
    "writeln": _writeln,
    "write": _write,
    "sqrt": _math1(math.sqrt),
    "cbrt": _math1(lambda x: math.copysign(abs(x) ** (1.0 / 3.0), x)),
    "exp": _math1(math.exp),
    "log": _math1(math.log),
    "sin": _math1(math.sin),
    "cos": _math1(math.cos),
    "floor": _math1(math.floor),
    "ceil": _math1(math.ceil),
    "abs": _abs,
    "min": _min,
    "max": _max,
    "fmod": _fmod,
    "toInt": _to_int,
    "toReal": _to_real,
    "getCurrentTime": _get_current_time,
    "maxTaskPar": _max_task_par,
    "halt": _halt,
    "assertTrue": _assert_true,
    "_array_copy": _array_copy,
    "_config_get_int": _config_get(int),
    "_config_get_real": _config_get(float),
    "_config_get_bool": _config_get(bool),
}
