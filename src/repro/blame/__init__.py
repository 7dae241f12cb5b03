"""The paper's core contribution: variable blame.

Static side (step 1): :class:`ModuleBlameInfo` — data flow
(:mod:`dataflow`), control dependence (:mod:`control_deps`), backward
slices / BlameSets (:mod:`slices`), exit variables (:mod:`exit_vars`),
transfer functions (:mod:`transfer`).

Dynamic side (step 3): :mod:`postmortem` (stack gluing) and
:mod:`attribution` (isBlamed + interprocedural bubbling), producing a
:class:`BlameReport` (optionally merged across locales by
:mod:`aggregate`).
"""

from .aggregate import merge_reports
from .attribution import (
    AttributionResult,
    BlameAttributor,
    VariableBlame,
    merge_attributions,
)
from .options import ABLATIONS, FULL, BlameOptions
from .dataflow import RET_KEY, DataFlow, VarKey, VarMeta, render_path
from .exit_vars import ExitVars, compute_exit_vars
from .postmortem import (
    Instance,
    PostmortemConsumer,
    PostmortemResult,
    process_samples,
)
from .report import BlameReport, BlameRow, RunStats, build_rows, path_type
from .slices import BlameSets, SliceGraph, compute_blame_sets
from .static_info import FunctionBlameInfo, ModuleBlameInfo
from .transfer import TransferFunction, TransferResult

__all__ = [
    "ABLATIONS", "AttributionResult", "BlameAttributor", "BlameOptions", "BlameReport", "BlameRow",
    "BlameSets", "DataFlow", "ExitVars", "FunctionBlameInfo", "Instance",
    "ModuleBlameInfo", "PostmortemConsumer", "PostmortemResult", "RET_KEY", "RunStats",
    "FULL", "SliceGraph", "TransferFunction", "TransferResult", "VarKey",
    "VarMeta", "VariableBlame", "build_rows", "compute_blame_sets",
    "compute_exit_vars", "merge_attributions", "merge_reports", "path_type", "process_samples",
    "render_path",
]
