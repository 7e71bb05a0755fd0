"""Cache-key completeness: config fields vs. the keys derived from them.

``PartSJConfig`` fields feed three derived keys, and a field added to
the dataclass but forgotten in one of them causes the worst kind of bug:
a stale cache hit that silently answers with the wrong configuration.

- ``Session._prep_key`` keys the prepared-partition cache **and** the
  session result cache (the result cache reuses the prep key's config);
- ``persist.snapshot._config_fields`` keys snapshot round-trips —
  a missing field loads an old snapshot into a config it was not built
  under;
- ``JoinPlan._cache_key`` hashes the *whole* config object, which covers
  every field by construction (the rule recognises that shape).

Every ``PartSJConfig`` field must therefore appear in each consumer or
on that consumer's explicit exclusion list below, with a reason.  The
exclusion lists are part of the invariant: an entry that names a field
the dataclass no longer has, or a field the consumer *does* read, is
itself a finding — exclusions must stay true, not accumulate.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.engine import FileContext, Finding, Project
from repro.analysis.rules.base import Rule

__all__ = ["CacheKeyRule", "PREP_KEY_EXCLUDED", "SNAPSHOT_EXCLUDED"]

#: Fields ``Session._prep_key`` may omit, and why.  Everything else in
#: ``PartSJConfig`` MUST be read by ``_prep_key``.
PREP_KEY_EXCLUDED: dict[str, str] = {
    "workers": "execution knob; worker count never changes prepared artifacts",
    "retry": "fault-tolerance policy; retries re-run identical work",
    "fault_injector": "test-only hook; never alters successful results",
}

#: Fields ``persist.snapshot._config_fields`` may omit, and why.
SNAPSHOT_EXCLUDED: dict[str, str] = {
    "workers": "execution knob; not part of the prepared state",
    "retry": "fault-tolerance policy; not part of the prepared state",
    "fault_injector": "test-only hook; not part of the prepared state",
}

#: Consumer function name -> its exclusion list.
_CONSUMERS: dict[str, dict[str, str]] = {
    "_prep_key": PREP_KEY_EXCLUDED,
    "_config_fields": SNAPSHOT_EXCLUDED,
}


def _dataclass_fields(cls: ast.ClassDef) -> list[str]:
    fields: list[str] = []
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            fields.append(stmt.target.id)
    return fields


def _attribute_reads(func: ast.AST) -> set[str]:
    """Every ``<something>.<attr>`` attribute name read inside ``func``."""
    return {
        node.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute)
    }


def _returns_whole_config(func: ast.AST) -> bool:
    """Whether ``func`` returns a structure containing ``self.config`` /
    ``<name>.config`` or a bare config parameter — covering every field
    at once."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        for part in ast.walk(node.value):
            if isinstance(part, ast.Attribute) and part.attr == "config":
                return True
    return False


class CacheKeyRule(Rule):
    id = "cache-key"
    summary = (
        "every PartSJConfig field appears in _prep_key, snapshot "
        "_config_fields and JoinPlan._cache_key, or on an exclusion "
        "list with a reason"
    )

    def check_project(self, project: Project) -> Iterable[Finding]:
        config_defs = project.classes("PartSJConfig")
        if not config_defs:
            return ()
        config_ctx, config_cls = config_defs[0]
        fields = _dataclass_fields(config_cls)
        if not fields:
            return ()
        field_set = set(fields)

        findings: list[Finding] = []
        for name, excluded in _CONSUMERS.items():
            defs = project.functions(name)
            if not defs:
                findings.append(Finding(
                    config_ctx.display, config_cls.lineno, self.id,
                    f"PartSJConfig is defined but no {name}() consumer was "
                    "scanned; the cache-key invariant cannot be checked",
                ))
                continue
            for ctx, func in defs:
                findings.extend(self._check_consumer(
                    ctx, func, name, fields, excluded
                ))
            for excluded_field, _reason in sorted(excluded.items()):
                if excluded_field not in field_set:
                    ctx, func = defs[0]
                    findings.append(Finding(
                        ctx.display, func.lineno, self.id,
                        f"exclusion list for {name}() names "
                        f"{excluded_field!r}, which is not a PartSJConfig "
                        "field; remove the stale entry",
                    ))

        # JoinPlan._cache_key: hashing the whole config covers all fields.
        for ctx, func in project.functions("_cache_key"):
            if _returns_whole_config(func):
                continue
            reads = _attribute_reads(func)
            for field in fields:
                if field not in reads:
                    findings.append(Finding(
                        ctx.display, func.lineno, self.id,
                        f"_cache_key() neither hashes the whole config nor "
                        f"reads PartSJConfig field {field!r}; two configs "
                        "differing only in it would share a cache entry",
                    ))
        return findings

    def _check_consumer(
        self,
        ctx: FileContext,
        func: ast.AST,
        name: str,
        fields: list[str],
        excluded: dict[str, str],
    ) -> Iterable[Finding]:
        reads = _attribute_reads(func)
        for field in fields:
            if field in excluded:
                if field in reads:
                    yield Finding(
                        ctx.display, func.lineno, self.id,
                        f"{name}() reads PartSJConfig field {field!r} but "
                        "the exclusion list claims it is omitted "
                        f"({excluded[field]}); drop the stale exclusion",
                    )
                continue
            if field not in reads:
                yield Finding(
                    ctx.display, func.lineno, self.id,
                    f"{name}() omits PartSJConfig field {field!r}; include "
                    "it in the derived key or add it to the exclusion list "
                    "in repro.analysis.rules.cache_keys with a reason",
                )
