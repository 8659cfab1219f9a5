"""The repo-specific lint rules (RPL001–RPL006).

Each rule is a small :class:`ast.NodeVisitor` with an ID and a docstring
describing the hazard it targets.  The rules are heuristic by design — they
key on the runtime's naming conventions (queue-like receiver names,
``abortable``/``guarded`` proxies, the ``runtime/messages.py`` registry) and
prefer false negatives over false positives: an argument the rule cannot
trace is given the benefit of the doubt.

The index of the rules is the package docstring (:mod:`repro.analysis`);
``repro lint --list-rules`` prints each rule's first docstring line.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.engine import ModuleContext, Project
from repro.analysis.findings import Finding

__all__ = [
    "ALL_RULES",
    "MessageDisciplineRule",
    "BlockingCallRule",
    "PauseResumePairingRule",
    "ForkSafetyRule",
    "LoadRatioRule",
    "AtomicCheckpointWriteRule",
    "Rule",
    "get_rules",
]

#: Receiver-name fragments that mark an object as an inter-process queue.
_QUEUE_HINTS = ("queue", "channel", "egress", "ingress", "mailbox")

#: Constructors of the queues the runtime no longer moves messages on.
_FOREIGN_QUEUES = {"Queue", "SimpleQueue", "JoinableQueue"}

#: Receiver-name fragments that mark a queue as already abort-aware (the
#: coordinator-side proxies), exempting it from RPL002.
_ABORT_AWARE_HINTS = ("guarded", "abortable", "abort_aware")

#: Global-RNG constructors that are fork-safe (explicitly seeded generator
#: objects, not the shared module-level stream).
_RNG_ALLOWLIST = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "RandomState",
    "PCG64",
    "Philox",
    "getstate",
    "get_state",
}

#: Denominator producers guarded inside core/load.py (RPL005).
_GUARDED_MEANS = {"average_load", "safe_mean"}


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a receiver expression.

    ``self.abortable_queues[task]`` -> ``abortable_queues``;
    ``mailbox`` -> ``mailbox``; ``make_queue()`` -> ``make_queue``.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _terminal_name(node.func)
    return None


def _attribute_path(node: ast.AST) -> List[str]:
    """``np.random.rand`` -> ``["np", "random", "rand"]`` (empty if not a
    pure attribute chain rooted at a name)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _is_queueish(name: Optional[str]) -> bool:
    if not name:
        return False
    low = name.lower()
    return any(hint in low for hint in _QUEUE_HINTS)


def _is_abort_aware(name: Optional[str]) -> bool:
    if not name:
        return False
    low = name.lower()
    return any(hint in low for hint in _ABORT_AWARE_HINTS)


class Rule(ast.NodeVisitor):
    """Base class: one rule instance lints one module."""

    rule_id: str = "RPL000"

    def __init__(self, module: ModuleContext, project: Project):
        self.module = module
        self.project = project
        self.findings: List[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=self.rule_id,
                path=self.module.relpath,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )


class MessageDisciplineRule(Rule):
    """RPL001: only registered message types may cross a process boundary.

    An object ``put`` onto an inter-process queue is pickled in one process
    and rebuilt in another; lambdas, closures, and locally-defined classes
    don't survive the trip, and raw dict/list payloads bypass the typed
    protocol in :mod:`repro.runtime.messages`.  The rule checks the payload
    of ``<queueish>.put(payload)`` and ``abortable_put(queue, payload)``:

    * lambdas, dict/set/comprehension literals, and references to nested
      functions are flagged outright;
    * calls to classes defined inside a function body are flagged;
    * in ``repro/runtime`` modules, calls to capitalised constructors not in
      the ``runtime/messages.py`` registry are flagged;
    * names are traced through same-function assignments; anything the rule
      cannot trace passes.
    """

    rule_id = "RPL001"

    _LITERAL_BAD = (ast.Lambda, ast.Dict, ast.DictComp, ast.SetComp)

    def __init__(self, module: ModuleContext, project: Project):
        super().__init__(module, project)
        self._function_stack: List[ast.AST] = []
        self._local_classes: Set[str] = set()
        self._nested_functions: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if child is node:
                        continue
                    if isinstance(child, ast.ClassDef):
                        self._local_classes.add(child.name)
                    elif isinstance(
                        child, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self._nested_functions.add(child.name)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> None:
        payload: Optional[ast.expr] = None
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "put"
            and _is_queueish(_terminal_name(node.func.value))
            and node.args
        ):
            payload = node.args[0]
        elif (
            _terminal_name(node.func) == "abortable_put"
            and len(node.args) >= 2
        ):
            payload = node.args[1]
        if payload is not None:
            self._check_payload(payload, node)
        self.generic_visit(node)

    def _check_payload(self, payload: ast.expr, site: ast.Call) -> None:
        verdict = self._classify(payload)
        if verdict is not None:
            self.report(site, verdict)

    def _classify(self, payload: ast.expr) -> Optional[str]:
        if isinstance(payload, self._LITERAL_BAD):
            kind = type(payload).__name__.lower()
            return (
                f"non-message payload ({kind}) put onto an inter-process "
                "queue; use a registered type from runtime/messages.py"
            )
        if isinstance(payload, ast.Name):
            if payload.id in self._nested_functions:
                return (
                    f"closure '{payload.id}' put onto an inter-process "
                    "queue; nested functions do not pickle"
                )
            return self._classify_traced_name(payload.id)
        if isinstance(payload, ast.Call):
            name = _terminal_name(payload.func)
            if name is None:
                return None
            if name in self._local_classes:
                return (
                    f"instance of locally-defined class '{name}' put onto "
                    "an inter-process queue; classes defined inside a "
                    "function do not pickle"
                )
            if name in {"dict", "list", "set"}:
                return (
                    f"raw {name}() payload put onto an inter-process "
                    "queue; use a registered type from runtime/messages.py"
                )
            registry = self.project.message_types()
            if (
                registry
                and name[0].isupper()
                and name not in registry
                and "repro/runtime" in self.module.relpath
            ):
                return (
                    f"'{name}' is not registered in runtime/messages.py; "
                    "cross-process messages must be registered types"
                )
        return None

    def _classify_traced_name(self, name: str) -> Optional[str]:
        """Trace a name through same-function assignments."""
        if not self._function_stack:
            return None
        scope = self._function_stack[-1]
        for node in ast.walk(scope):
            if not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets
            ):
                continue
            if isinstance(node.value, self._LITERAL_BAD):
                kind = type(node.value).__name__.lower()
                return (
                    f"'{name}' (a {kind}) put onto an inter-process queue; "
                    "use a registered type from runtime/messages.py"
                )
        return None


class BlockingCallRule(Rule):
    """RPL002: no bare blocking ``get()``/``put(x)``; one transport under runtime/.

    A timeout-less blocking queue operation waits on a peer process; if that
    peer crashed, the wait never ends and the run hangs instead of failing.
    The sanctioned patterns are :func:`repro.runtime.queues.abortable_get` /
    ``abortable_put`` (that module is exempt from this half — it is where the
    polling loop lives) and the coordinator-side abort-aware proxies, which the rule
    recognises by receiver names containing ``abortable``/``guarded``.
    Explicit ``timeout=``/``block=`` keywords and the ``*_nowait`` variants
    are always fine.

    Under ``repro/runtime`` the rule also flags building any other queue
    (``multiprocessing.Queue`` / ``<context>.Queue(...)`` / ``SimpleQueue``):
    the runtime has one transport, :class:`repro.runtime.queues.Channel`,
    whose waits are all abort-aware — a second one would bring back a feeder
    thread and the unbounded waits with it.
    """

    rule_id = "RPL002"

    def visit_Call(self, node: ast.Call) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.Call) -> None:
        built = _terminal_name(node.func)
        if "repro/runtime/" in self.module.relpath and built in _FOREIGN_QUEUES:
            self.report(
                node,
                f"{built}(...) built under repro/runtime: the runtime's one "
                "transport is repro.runtime.queues.Channel",
            )
            return
        if self.module.relpath.endswith("runtime/queues.py"):
            return
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method not in {"get", "put"}:
            return
        receiver = _terminal_name(node.func.value)
        if not _is_queueish(receiver) or _is_abort_aware(receiver):
            return
        if node.keywords:
            return
        if method == "get" and not node.args:
            self.report(
                node,
                f"bare blocking {receiver}.get() without a timeout is a "
                "hang-on-crash hazard; use repro.runtime.queues."
                "abortable_get or an abort-aware proxy",
            )
        elif method == "put" and len(node.args) == 1:
            self.report(
                node,
                f"bare blocking {receiver}.put(...) without a timeout is a "
                "hang-on-crash hazard; use repro.runtime.queues."
                "abortable_put or an abort-aware proxy",
            )


class PauseResumePairingRule(Rule):
    """RPL003: every path that pauses keys must reach a matching release.

    The migration protocol buffers tuples for paused keys; a path that
    pauses and then leaves the function without resuming (or handing the
    pause to a pending-migration continuation, or raising/aborting) strands
    those tuples forever — the silent-hang class of bug.  A CFG-lite walk
    from each ``<router>.pause(...)`` / ``_paused_keys.add/update`` site
    scans the statements that follow, walking out through enclosing blocks:

    * a ``resume`` call, an assignment to a ``*pending*`` attribute, a
      ``raise``, or an ``abort``/``trip`` call resolves the pause;
    * a ``return`` before any resolution, or falling off the end of the
      function, is a violation;
    * a ``try`` body is additionally credited with its ``finally`` block.

    Functions named ``pause``/``resume`` (the primitives themselves) are
    exempt.
    """

    rule_id = "RPL003"

    _RESOLVED = "resolved"
    _FALLTHROUGH = "fallthrough"
    _ESCAPED = "escaped"

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name not in {"pause", "resume"}:
            self._analyze_function(node)
        # Nested defs are analyzed on their own via generic_visit.
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- trigger / resolution predicates ---------------------------------

    def _iter_own_nodes(self, stmt: ast.stmt):
        """Walk a statement without descending into nested function defs."""
        stack: List[ast.AST] = [stmt]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    continue
                stack.append(child)

    def _trigger(self, stmt: ast.stmt) -> Optional[ast.Call]:
        for node in self._iter_own_nodes(stmt):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            if node.func.attr == "pause":
                return node
            receiver = _terminal_name(node.func.value) or ""
            if node.func.attr in {"add", "update"} and "_paused" in receiver:
                return node
        return None

    def _resolves(self, stmt: ast.stmt) -> bool:
        for node in self._iter_own_nodes(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in {"resume", "abort", "trip"}:
                    return True
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = _terminal_name(target) or ""
                    if "pending" in name.lower():
                        return True
        return False

    # -- CFG-lite walk ---------------------------------------------------

    def _analyze_function(self, func: ast.FunctionDef) -> None:
        self._walk_block(func.body, chain=[])

    def _walk_block(
        self,
        block: Sequence[ast.stmt],
        chain: List[tuple],
    ) -> None:
        """Find triggers in ``block``; recurse into compound statements.

        ``chain`` is the enclosing-block path: ``(block, index, owner)``
        entries from outermost to innermost, where ``owner`` is the compound
        statement at ``block[index]`` we descended into.
        """
        for index, stmt in enumerate(block):
            sub_blocks = self._sub_blocks(stmt)
            # Compound statements defer to the recursion below, so a trigger
            # nested in (say) a for body is checked exactly once, at its own
            # block level — where the statements that follow it are visible.
            trigger = None if sub_blocks else self._trigger(stmt)
            if trigger is not None:
                state = self._scan_from(block, index + 1)
                position = 0
                walk = list(chain)
                while state == self._FALLTHROUGH and walk:
                    outer_block, outer_index, owner = walk.pop()
                    if (
                        isinstance(owner, ast.Try)
                        and owner.finalbody
                        and any(self._resolves(s) for s in owner.finalbody)
                    ):
                        state = self._RESOLVED
                        break
                    state = self._scan_from(outer_block, outer_index + 1)
                    position += 1
                if state != self._RESOLVED:
                    verb = (
                        "returns"
                        if state == self._ESCAPED
                        else "falls off the function end"
                    )
                    self.report(
                        trigger,
                        f"pause path {verb} without a matching resume, "
                        "pending-migration handoff, or abort",
                    )
            for sub_block in sub_blocks:
                self._walk_block(sub_block, chain + [(block, index, stmt)])

    def _scan_from(self, block: Sequence[ast.stmt], start: int) -> str:
        for stmt in block[start:]:
            if self._resolves(stmt):
                return self._RESOLVED
            if isinstance(stmt, ast.Return):
                return self._ESCAPED
        return self._FALLTHROUGH

    @staticmethod
    def _sub_blocks(stmt: ast.stmt) -> List[Sequence[ast.stmt]]:
        blocks: List[Sequence[ast.stmt]] = []
        for attr in ("body", "orelse", "finalbody"):
            sub = getattr(stmt, attr, None)
            if (
                sub
                and isinstance(sub, list)
                and not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            ):
                blocks.append(sub)
        for handler in getattr(stmt, "handlers", []) or []:
            blocks.append(handler.body)
        return blocks


class ForkSafetyRule(Rule):
    """RPL004: no divergent per-process state in worker-executed modules.

    Worker and source entry points run in forked/spawned child processes:
    module-level mutable state mutated there silently diverges per process
    (each child edits its own copy), and the shared module-level RNG streams
    (``random.*`` / ``np.random.*``) are duplicated by ``fork`` — every
    child draws the *same* "random" sequence.  The rule scopes itself to
    modules that define ``worker_main``/``source_main`` and to
    ``repro/operators/`` (code executed inside workers), flagging inside
    function bodies: ``global`` statements, mutation of module-level
    mutable names, and global-RNG calls (explicit generator objects from
    the allowlist — ``default_rng`` and friends — are fine).
    """

    rule_id = "RPL004"

    _MUTABLE_CALLS = {"dict", "list", "set", "defaultdict", "Counter", "deque"}
    _MUTATORS = {
        "append",
        "extend",
        "add",
        "update",
        "setdefault",
        "insert",
        "remove",
        "pop",
        "popitem",
        "clear",
    }

    def __init__(self, module: ModuleContext, project: Project):
        super().__init__(module, project)
        self._in_scope = "repro/operators/" in module.relpath or any(
            isinstance(node, ast.FunctionDef)
            and node.name in {"worker_main", "source_main"}
            for node in module.tree.body
        )
        self._module_mutables: Set[str] = set()
        self._depth = 0
        if self._in_scope:
            for node in module.tree.body:
                if isinstance(node, ast.Assign):
                    value = node.value
                    mutable = isinstance(
                        value,
                        (
                            ast.Dict,
                            ast.List,
                            ast.Set,
                            ast.DictComp,
                            ast.ListComp,
                            ast.SetComp,
                        ),
                    ) or (
                        isinstance(value, ast.Call)
                        and _terminal_name(value.func) in self._MUTABLE_CALLS
                    )
                    if mutable:
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                self._module_mutables.add(target.id)

    def visit(self, node: ast.AST) -> None:
        if not self._in_scope:
            return
        super().visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Global(self, node: ast.Global) -> None:
        if self._depth:
            self.report(
                node,
                f"'global {', '.join(node.names)}' in a worker-executed "
                "function: module globals diverge per process",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self._depth and isinstance(node.func, ast.Attribute):
            receiver = node.func.value
            if (
                node.func.attr in self._MUTATORS
                and isinstance(receiver, ast.Name)
                and receiver.id in self._module_mutables
            ):
                self.report(
                    node,
                    f"mutation of module-level '{receiver.id}' in a "
                    "worker-executed function: state diverges per process",
                )
            path = _attribute_path(node.func)
            if self._is_global_rng(path):
                self.report(
                    node,
                    f"global RNG call '{'.'.join(path)}' in a worker-"
                    "executed function: fork duplicates the stream; pass "
                    "an explicit seeded generator instead",
                )
        self.generic_visit(node)

    def _store_target_name(self, target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            return target.value.id
        if isinstance(target, ast.Name):
            return target.id
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._depth:
            for target in node.targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in self._module_mutables
                ):
                    self.report(
                        node,
                        f"item assignment into module-level "
                        f"'{target.value.id}' in a worker-executed "
                        "function: state diverges per process",
                    )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if self._depth:
            name = self._store_target_name(node.target)
            if name in self._module_mutables:
                self.report(
                    node,
                    f"augmented assignment to module-level '{name}' in a "
                    "worker-executed function: state diverges per process",
                )
        self.generic_visit(node)

    @staticmethod
    def _is_global_rng(path: List[str]) -> bool:
        if len(path) == 2 and path[0] == "random":
            return path[1] not in _RNG_ALLOWLIST
        if (
            len(path) == 3
            and path[0] in {"np", "numpy"}
            and path[1] == "random"
        ):
            return path[2] not in _RNG_ALLOWLIST
        return False


class LoadRatioRule(Rule):
    """RPL005: no ratios over mean-load quantities outside core/load.py.

    ``average_load``/``safe_mean`` outputs can legitimately be zero or
    subnormal (an idle interval, a shed-everything run); dividing by them
    reintroduces the inf/NaN family of bugs PR 1's total-based guards in
    :mod:`repro.core.load` eliminated (``max/total·N`` never divides by a
    mean).  The rule flags ``x / average_load(...)``, ``x /
    safe_mean(...)``, and ``x / name`` where ``name`` was assigned from
    either call in the same function.  ``core/load.py`` itself — home of
    the guarded forms — is exempt.
    """

    rule_id = "RPL005"

    def __init__(self, module: ModuleContext, project: Project):
        super().__init__(module, project)
        self._function_stack: List[ast.AST] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._function_stack.append(node)
        self.generic_visit(node)
        self._function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if not isinstance(node.op, ast.Div) or self.module.relpath.endswith(
            "core/load.py"
        ):
            self.generic_visit(node)
            return
        denominator = node.right
        producer = self._mean_producer(denominator)
        if producer is not None:
            self.report(
                node,
                f"division by '{producer}' output can hit zero/subnormal "
                "means; use the total-based forms from core/load.py "
                "(max/total*N) instead",
            )
        self.generic_visit(node)

    def _mean_producer(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Call):
            name = _terminal_name(node.func)
            if name in _GUARDED_MEANS:
                return name
            return None
        if isinstance(node, ast.Name) and self._function_stack:
            scope = self._function_stack[-1]
            for stmt in ast.walk(scope):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not any(
                    isinstance(target, ast.Name) and target.id == node.id
                    for target in stmt.targets
                ):
                    continue
                if isinstance(stmt.value, ast.Call):
                    name = _terminal_name(stmt.value.func)
                    if name in _GUARDED_MEANS:
                        return name
        return None


class AtomicCheckpointWriteRule(Rule):
    """RPL006: checkpoint artifacts must be written atomically.

    A checkpoint or manifest file half-written at crash time is worse than
    no checkpoint at all: recovery would restore torn state.  The only
    sanctioned write path is :mod:`repro.runtime.resilience.checkpoint`'s
    ``atomic_write_bytes``/``atomic_write_json`` (tmp file + flush + fsync +
    ``os.replace``), and that module is exempt — it is where the pattern
    lives.  Everywhere else the rule flags

    * ``open(path, "w"/"wb"/"a"/...)`` — any writable mode — and
    * ``path.write_text(...)`` / ``path.write_bytes(...)``

    when the path expression mentions a checkpoint artifact: a receiver or
    argument whose name, string literal, or f-string fragment contains
    ``checkpoint``/``ckpt``/``manifest``.  Paths the rule cannot trace pass
    (heuristic, like the rest of the family).
    """

    rule_id = "RPL006"

    _WRITE_METHODS = {"write_text", "write_bytes"}

    def __init__(self, module: ModuleContext, project: Project):
        super().__init__(module, project)
        self._exempt = module.relpath.endswith("runtime/resilience/checkpoint.py")

    def visit(self, node: ast.AST) -> None:
        if self._exempt:
            return
        super().visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self._check(node)
        self.generic_visit(node)

    def _check(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Attribute):
            if node.func.attr in self._WRITE_METHODS and _mentions_checkpoint(
                node.func.value
            ):
                self.report(
                    node,
                    f"bare .{node.func.attr}() on a checkpoint path is torn "
                    "on crash; use atomic_write_bytes/atomic_write_json "
                    "(tmp + os.replace) from runtime/resilience/checkpoint",
                )
                return
        if _terminal_name(node.func) != "open" or not node.args:
            return
        if not self._writable_mode(node):
            return
        path_expr: ast.AST = node.args[0]
        if isinstance(node.func, ast.Attribute) and _mentions_checkpoint(
            node.func.value
        ):
            # pathlib style: <checkpoint_path>.open("w").
            path_expr = node.func.value
        if _mentions_checkpoint(path_expr):
            self.report(
                node,
                "bare open(..., 'w') on a checkpoint path is torn on "
                "crash; use atomic_write_bytes/atomic_write_json "
                "(tmp + os.replace) from runtime/resilience/checkpoint",
            )

    @staticmethod
    def _writable_mode(node: ast.Call) -> bool:
        mode: Optional[ast.expr] = None
        if isinstance(node.func, ast.Attribute):
            # path.open(mode) — the mode is the first positional argument.
            if node.args:
                mode = node.args[0]
        elif len(node.args) >= 2:
            mode = node.args[1]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if not isinstance(mode, ast.Constant) or not isinstance(mode.value, str):
            return False
        return any(flag in mode.value for flag in "wax+")


#: Path-expression fragments that mark a file as a checkpoint artifact.
_CHECKPOINT_HINTS = ("checkpoint", "ckpt", "manifest")


def _mentions_checkpoint(node: ast.AST) -> bool:
    """True when a path expression names a checkpoint artifact.

    Recurses through calls (``os.path.join(root, "manifest.json")``),
    f-strings, concatenation, and attribute/name receivers.
    """

    def _hit(text: str) -> bool:
        low = text.lower()
        return any(hint in low for hint in _CHECKPOINT_HINTS)

    name = _terminal_name(node)
    if name and _hit(name):
        return True
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and _hit(node.value)
    if isinstance(node, ast.JoinedStr):
        return any(_mentions_checkpoint(value) for value in node.values)
    if isinstance(node, ast.FormattedValue):
        return _mentions_checkpoint(node.value)
    if isinstance(node, ast.BinOp):
        return _mentions_checkpoint(node.left) or _mentions_checkpoint(node.right)
    if isinstance(node, ast.Call):
        return any(_mentions_checkpoint(arg) for arg in node.args)
    if isinstance(node, ast.Attribute):
        return _mentions_checkpoint(node.value)
    return False


#: Registry, ordered by rule ID.
ALL_RULES = (
    MessageDisciplineRule,
    BlockingCallRule,
    PauseResumePairingRule,
    ForkSafetyRule,
    LoadRatioRule,
    AtomicCheckpointWriteRule,
)


def get_rules(ids: Optional[Sequence[str]] = None) -> List[type]:
    """Resolve rule IDs to rule classes (all rules when ``ids`` is None)."""
    if ids is None:
        return list(ALL_RULES)
    by_id: Dict[str, type] = {rule.rule_id: rule for rule in ALL_RULES}
    rules: List[type] = []
    for rule_id in ids:
        if rule_id not in by_id:
            known = ", ".join(sorted(by_id))
            raise ValueError(f"unknown rule id {rule_id!r} (known: {known})")
        rules.append(by_id[rule_id])
    return rules
