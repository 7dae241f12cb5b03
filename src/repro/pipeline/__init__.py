"""Staged profiling pipeline (compile → analyze → collect → post-mortem
→ aggregate → render) with the ``.cbp`` artifact as the contract
between collection and presentation."""

from .stages import (
    VIEWS,
    Collection,
    aggregate_stage,
    analyze_stage,
    attribute_stage,
    collect_stage,
    compile_stage,
    postmortem_stage,
    render_stage,
)

__all__ = [
    "VIEWS",
    "Collection",
    "aggregate_stage",
    "analyze_stage",
    "attribute_stage",
    "collect_stage",
    "compile_stage",
    "postmortem_stage",
    "render_stage",
]
