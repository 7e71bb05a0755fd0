"""Determinism rules: the bit-identical contract, enforced at the AST.

Every tier from the serial driver to the sharded executor promises
*bit-identical results* — across worker counts, restarts and machines.
The constructs these rules ban are exactly the ones that have
historically broken that promise in similar systems:

- ``determinism`` (scope: ``core/``, ``parallel/``, ``stream/``,
  ``ted/``): wall-clock reads, the shared global RNG or an
  unseeded ``random.Random()``, building ``id()``-keyed mappings (ids
  are allocation addresses: not stable across processes, and the
  mapping's iteration order follows them), and iterating a set straight
  into ordered output (hash-order is salt- and history-dependent for
  ``str`` keys; wrap in ``sorted()``).
- ``wall-clock`` (scope: everywhere except ``obs/`` and benchmarks):
  ``time.time()`` / ``datetime.now()`` and friends.  Durations belong to
  ``time.perf_counter()`` / ``time.monotonic()``; absolute timestamps
  belong to the observability layer and the benchmark harness only.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.analysis.engine import FileContext, Finding
from repro.analysis.rules.base import (
    CLOCK_EXEMPT,
    DETERMINISM_SCOPE,
    Rule,
    call_name,
    is_id_call,
)

__all__ = ["WallClockRule", "DeterminismRule"]

# Wall-clock reads by dotted name.  perf_counter/monotonic are absent on
# purpose: they measure durations and are deterministic-output-safe.
_WALL_CLOCK_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.asctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
})

# Module-level functions of ``random`` that consume the shared global
# RNG — unseedable per call site, so any use is order-dependent state.
_GLOBAL_RNG_CALLS = frozenset({
    "random.random",
    "random.randint",
    "random.randrange",
    "random.shuffle",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.uniform",
    "random.getrandbits",
    "random.gauss",
    "random.seed",
})


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


class WallClockRule(Rule):
    id = "wall-clock"
    summary = (
        "time.time()/datetime.now() outside obs/ and benchmarks; use "
        "perf_counter()/monotonic() for durations"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.in_any(CLOCK_EXEMPT):
            return ()
        findings = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if name in _WALL_CLOCK_CALLS:
                    findings.append(self.finding(
                        ctx, node,
                        f"{name}() reads the wall clock; use "
                        "time.perf_counter()/time.monotonic() for durations "
                        "(absolute timestamps belong in obs/ and benchmarks)",
                    ))
        return findings


class DeterminismRule(Rule):
    id = "determinism"
    summary = (
        "no global RNG, unseeded random.Random(), id()-keyed mappings or "
        "set-order iteration inside core/parallel/stream/ted"
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_any(DETERMINISM_SCOPE):
            return ()
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            findings.extend(self._check_node(ctx, node))
        return findings

    def _check_node(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in _GLOBAL_RNG_CALLS:
                yield self.finding(
                    ctx, node,
                    f"{name}() consumes the shared global RNG; construct a "
                    "seeded random.Random(seed) and thread it explicitly",
                )
            elif (
                name in ("random.Random", "Random")
                and not node.args
                and not node.keywords
            ):
                yield self.finding(
                    ctx, node,
                    "random.Random() without a seed draws entropy from the "
                    "OS; pass an explicit seed",
                )
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and _is_set_expr(node.args[0])
            ):
                yield self.finding(
                    ctx, node,
                    f"{node.func.id}() over a set fixes hash order into an "
                    "ordered sequence; use sorted(...) instead",
                )
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Subscript) and is_id_call(
                    target.slice
                ):
                    yield self.finding(
                        ctx, node,
                        "storing under an id(...) key builds an id()-keyed "
                        "mapping; ids are allocation-dependent and not "
                        "stable across processes",
                    )
        elif isinstance(node, ast.Dict):
            if any(key is not None and is_id_call(key) for key in node.keys):
                yield self.finding(
                    ctx, node,
                    "dict literal keyed by id(...); ids are "
                    "allocation-dependent and not stable across processes",
                )
        elif isinstance(node, ast.DictComp):
            if is_id_call(node.key):
                yield self.finding(
                    ctx, node,
                    "dict comprehension keyed by id(...); ids are "
                    "allocation-dependent and not stable across processes",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expr(node.iter):
                yield self.finding(
                    ctx, node,
                    "iterating a set directly yields hash order; wrap the "
                    "iterable in sorted(...)",
                )
        if isinstance(
            node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        ):
            for gen in node.generators:
                if _is_set_expr(gen.iter):
                    yield Finding(
                        ctx.display, gen.iter.lineno, self.id,
                        "comprehension iterates a set directly (hash "
                        "order); wrap the iterable in sorted(...)",
                    )
