#!/usr/bin/env python3
"""List ``src/`` code that no run reads: definitions and per-run state
reached only from ``tests/``.

The scan is name-based and static.  Every file under ``src/``,
``scripts/``, ``perfbench/``, ``benchmarks/`` and ``examples/`` is a
*reader*; ``tests/`` is not.  It reports two kinds of entry:

* **definition** -- a function, method, class or module constant in
  ``src/`` whose name no reader mentions outside the definition itself
  (as a bare name, an attribute, or the string argument of
  ``getattr``/``hasattr``/``setattr``).
* **state** -- an attribute or dataclass field in ``src/`` that some
  code writes (``self.x = ...``, ``self.x += ...``, ``self.x.append(...)``,
  ``self.x[k] = ...``) but no reader ever loads.  Such state costs
  every run and tells only the tests anything.

References that sit inside an already test-only definition do not
count, and the scan repeats until nothing new is found, so one run
reports the whole fixed point (deleting a test-only property can
leave its backing attribute write-only).

A dataclass field counts as state only if the run assigns it after
construction: a field only the constructor fills is a returned
record's content.  Dunder methods, and definitions registered by a
``REGISTRIES`` decorator (``@register_router``), are reached by
protocol or by registered name and are never reported.  Each entry
the program deliberately keeps is on ``ALLOWLIST`` with its reason.
Names are compared without their owner, so a test-only method that
shares its name with a used one elsewhere is missed (a known limit of
the scan).

    python3 scripts/find_test_only.py        # exit 1 on any unlisted entry

It also fails when an ``ALLOWLIST`` entry is stale: no longer defined,
or no longer test-only.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
READERS = ("src", "scripts", "perfbench", "benchmarks", "examples")

_TRACED = "patched by name in perfbench/tracing.py (the traced benchmark run)"

# Entries the program keeps although no reader mentions them by name.
# Key: ``module:Qualified.name`` (module relative to ``repro``).
ALLOWLIST: Dict[str, str] = {
    "memory.kv_manager:HierarchicalKVManager.on_decode_token": _TRACED,
    "sim.engine:ScopedEngine.own_event_time":
        "per-instance dispatch horizons (ROADMAP item 6) read it",
    "sim.trace:TraceRecorder":
        "the structured trace sink a caller attaches as ServingSystem.tracer "
        "(ARCHITECTURE.md); runs only call its record()",
    "sim.trace:TraceRecorder.to_jsonl":
        "trace export for `repro run --trace` (ROADMAP item 9)",
    "sim.trace:TraceRecorder.by_category":
        "trace queries for `repro run --trace` (ROADMAP item 9)",
    "sim.trace:TraceRecorder.by_event":
        "trace queries for `repro run --trace` (ROADMAP item 9)",
    "sim.trace:TraceRecorder.between":
        "trace queries for `repro run --trace` (ROADMAP item 9)",
    "sim.trace:TraceRecorder.dropped":
        "ring-buffer overflow counter; run diagnostics (ROADMAP item 1) "
        "will report it",
    "core.scheduler:TokenFlowScheduler.active_passes":
        "decision counter that ROADMAP item 1 grows into a report field",
    "core.scheduler:TokenFlowScheduler.fallback_ticks":
        "read by name into RunReport.scheduler_stats (ServingSystem.report "
        "loops over a tuple of attribute names)",
    "core.scheduler:TokenFlowScheduler.scheduling_passes":
        "read by name into RunReport.scheduler_stats (ServingSystem.report "
        "loops over a tuple of attribute names)",
    "core.balancer:BalanceResult.selected":
        "the greedy pick itself, balance()'s documented result; the diff "
        "lists derive from it and ARCHITECTURE.md's no-improving-swap "
        "argument is stated over it",
    "serving.shard:ShardedServingCluster.placements":
        "per-request routing record (kept only with retain_per_request) that "
        "the frozen cluster digests hash (tests/classic_cluster_digests.json)",
    "serving.server:ServingSystem.cancel":
        "client-disconnect API (RequestState.CANCELLED); no registry "
        "scenario disconnects clients yet",
    "sim.events:Event.cancel":
        "cancellation handle of the events SimEngine.call_at returns; "
        "the engine contract, used by no current stage",
    "memory.blocks:BlockPool.used":
        "pool occupancy (capacity - free), what the memory tests' "
        "conservation checks assert on",
    "memory.kv_manager:HierarchicalKVManager.check_invariants":
        "KV manager, pool and block-table invariant check the property "
        "tests run after every step; end-of-run checks (ROADMAP item 8) "
        "will call it",
}

# Decorators that register the definition in a lookup table: runs reach
# it by its registered name, never by its Python name.
REGISTRIES: Dict[str, str] = {
    "register_router": "routers are picked by name from ROUTERS (specs, CLI)",
    "register_scenario": "scenarios are picked by name from the registry "
                         "(specs, CLI)",
}
# Container methods whose call, as a bare statement, only writes.
_MUTATORS = {"append", "appendleft", "extend", "add", "update", "clear",
             "discard", "insert", "pop", "popleft", "remove"}
# Builtins that take an attribute name as a string: each mentions it,
# and all but setattr read it.
_NAME_FUNCS = {"getattr", "hasattr", "setattr"}


@dataclass
class Entry:
    key: str          # module:Qual.name
    kind: str         # "definition" or "state"
    name: str         # the bare name the scan matches on
    path: Path
    line: int
    span: Tuple[int, int]   # lines a definition covers (its own body)
    field: bool = False     # a dataclass field (state only if the run writes it)


def _py_files(root: Path) -> Iterable[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


def _module(path: Path, package: Path) -> str:
    rel = path.relative_to(package).with_suffix("")
    parts = [p for p in rel.parts if p != "__init__"]
    return ".".join(parts) or "repro"


def _decorators(node) -> Set[str]:
    """Names of ``node``'s decorators (``@x``, ``@x(...)``, ``@m.x``)."""
    names = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        names.add(target.attr if isinstance(target, ast.Attribute)
                  else getattr(target, "id", ""))
    return names


def _definitions(path: Path, tree: ast.Module, package: Path) -> List[Entry]:
    """Every function, method, class, module constant and written
    attribute or dataclass field in one ``src/`` file."""
    mod = _module(path, package)
    out: List[Entry] = []
    seen_state: Set[str] = set()

    def add(kind, qual, name, node, span=None, field=False):
        out.append(Entry(f"{mod}:{qual}", kind, name, path, node.lineno,
                         span or (node.lineno, node.end_lineno or node.lineno),
                         field))

    def state(owner, name, node, field=False):
        qual = f"{owner}.{name}" if owner else name
        if qual not in seen_state:
            seen_state.add(qual)
            add("state", qual, name, node, (node.lineno, node.lineno), field)

    def walk_body(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) \
                        and not _decorators(node) & REGISTRIES.keys():
                    qual = f"{owner}.{name}" if owner else name
                    add("definition", qual, name, node)
                if owner:
                    for sub in ast.walk(node):
                        for target in _written_self_attrs(sub):
                            state(owner, target, sub)
            elif isinstance(node, ast.ClassDef):
                qual = f"{owner}.{node.name}" if owner else node.name
                decorators = _decorators(node)
                if not decorators & REGISTRIES.keys():
                    add("definition", qual, node.name, node)
                if "dataclass" in decorators:
                    # A field counts as run state only if the run
                    # writes it after construction (see ``scan``).
                    for item in node.body:
                        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            state(qual, item.target.id, item, field=True)
                walk_body(node.body, qual)
            elif owner is None and isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name) and not t.id.startswith("__"):
                        add("definition", t.id, t.id, node)

    walk_body(tree.body, None)
    return out


def _written_self_attrs(node) -> Iterable[str]:
    """Each ``x`` that ``node`` assigns as ``self.x`` (assign,
    aug-assign, annotated assign)."""
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    for t in targets:
        for sub in ast.walk(t):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self"):
                yield sub.attr


def _references(tree: ast.Module):
    """``(mentions, loads, writes)`` of one reader file.

    *mentions* ``(name, line)`` count for definitions: any bare name or
    attribute (except the attribute being assigned), imported names,
    ``__all__`` entries and ``getattr``-style string names.  *loads*
    ``(name, line)`` count for state: attribute reads that are not a
    container write (``x.append(...)`` as a statement, ``x[k] = ...``)
    and ``getattr``/``hasattr`` string names.  *writes* is the set of
    attribute names the file assigns or mutates.
    """
    write_only: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            fn = node.value.func
            if isinstance(fn, ast.Attribute) and fn.attr in _MUTATORS \
                    and isinstance(fn.value, ast.Attribute):
                write_only.add(id(fn.value))
        elif isinstance(node, (ast.Subscript,)) and isinstance(node.ctx, (ast.Store, ast.Del)) \
                and isinstance(node.value, ast.Attribute):
            write_only.add(id(node.value))
    mentions: List[Tuple[str, int]] = []
    loads: List[Tuple[str, int]] = []
    writes: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            mentions.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            if not isinstance(node.ctx, ast.Store):
                mentions.append((node.attr, node.lineno))
            if isinstance(node.ctx, ast.Load) and id(node) not in write_only:
                loads.append((node.attr, node.lineno))
            else:
                writes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            mentions.extend((a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            mentions.extend((c.value, node.lineno) for c in ast.walk(node.value)
                            if isinstance(c, ast.Constant) and isinstance(c.value, str))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _NAME_FUNCS and len(node.args) >= 2:
            arg = node.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                mentions.append((arg.value, node.lineno))
                if node.func.id == "setattr":
                    writes.add(arg.value)
                else:
                    loads.append((arg.value, node.lineno))
    return mentions, loads, writes


def scan(repo: Path = REPO) -> List[Entry]:
    """The fixed point of test-only entries under ``repo/src/repro``."""
    entries: List[Entry] = []
    refs: List[Tuple[Path, str, int, bool]] = []   # path, name, line, is_load
    run_writes: Set[str] = set()
    for top in READERS:
        root = repo / top
        if not root.is_dir():
            continue
        for path in _py_files(root):
            tree = ast.parse(path.read_text(), filename=str(path))
            mentions, loads, writes = _references(tree)
            if top == "src":
                entries.extend(_definitions(path, tree, repo / "src" / "repro"))
                run_writes |= writes
            refs.extend((path, n, ln, False) for n, ln in mentions)
            refs.extend((path, n, ln, True) for n, ln in loads)

    # A dataclass field only the constructor fills is a record's
    # output, not run state.
    entries = [e for e in entries if not e.field or e.name in run_writes]
    by_name: Dict[str, List[Tuple[Path, int, bool]]] = {}
    for path, name, line, is_load in refs:
        by_name.setdefault(name, []).append((path, line, is_load))

    dead: Set[str] = set()
    while True:
        dead_spans = [(e.path, e.span) for e in entries if e.key in dead
                      and e.kind == "definition" and e.key not in ALLOWLIST]

        def live(path, line, own):
            if path == own.path and own.span[0] <= line <= own.span[1]:
                return False
            return not any(p == path and s[0] <= line <= s[1] for p, s in dead_spans)

        found = set()
        for e in entries:
            want_load = e.kind == "state"
            if not any(is_load == want_load and live(p, ln, e)
                       for p, ln, is_load in by_name.get(e.name, ())):
                found.add(e.key)
        if found == dead:
            break
        dead = found
    return sorted((e for e in entries if e.key in dead),
                  key=lambda e: (str(e.path), e.line))


def main() -> int:
    found = scan()
    keys = {e.key for e in found}
    listed = [e for e in found if e.key in ALLOWLIST]
    unlisted = [e for e in found if e.key not in ALLOWLIST]
    stale = sorted(k for k in ALLOWLIST if k not in keys)
    for e in listed:
        print(f"kept      {e.kind:10s} {e.key}  -- {ALLOWLIST[e.key]}")
    for e in unlisted:
        rel = e.path.relative_to(REPO)
        print(f"TEST-ONLY {e.kind:10s} {e.key}  ({rel}:{e.line})")
    for k in stale:
        print(f"STALE     allowlist  {k}  -- not defined, or read by a run")
    ok = not unlisted and not stale
    print(f"{len(listed)} kept, {len(unlisted)} test-only, {len(stale)} stale: "
          + ("OK" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
