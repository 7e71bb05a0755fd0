"""repro.analysis — the AST invariant linter.

Static enforcement of the promises the rest of the package makes at
runtime: bit-identical determinism in the hot tiers, complete cache
keys, picklable pool boundaries, typed errors, and registered counter
names.  Run it as ``python -m repro.analysis [paths...]`` or call
:func:`analyze` directly; see :mod:`repro.analysis.engine` for the
pragma grammar and :mod:`repro.analysis.rules` for the battery.
"""

from __future__ import annotations

from repro.analysis.engine import (
    META_RULES,
    FileContext,
    Finding,
    Pragma,
    Project,
    Report,
    analyze,
    iter_python_files,
)
from repro.analysis.registry import EXTRA_COUNTER_KEYS, METRIC_FAMILIES
from repro.analysis.rules import Rule, all_rules

__all__ = [
    "analyze",
    "all_rules",
    "Rule",
    "Finding",
    "Pragma",
    "FileContext",
    "Project",
    "Report",
    "META_RULES",
    "iter_python_files",
    "EXTRA_COUNTER_KEYS",
    "METRIC_FAMILIES",
]
