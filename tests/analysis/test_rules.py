"""The six protocol lint rules: one positive and one negative per hazard."""

import ast
from pathlib import Path

from repro.analysis.engine import ModuleContext, Project
from repro.analysis.findings import parse_suppressions
from repro.analysis.rules import (
    AtomicCheckpointWriteRule,
    BlockingCallRule,
    ForkSafetyRule,
    LoadRatioRule,
    MessageDisciplineRule,
    PauseResumePairingRule,
)


def run_rule(rule_cls, source, relpath="pkg/mod.py"):
    """Lint one source string with one rule; return its findings."""
    source = source.strip() + "\n"
    tree = ast.parse(source)
    module = ModuleContext(
        path=Path(relpath),
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )
    rule = rule_cls(module, Project([module], Path(".")))
    rule.visit(tree)
    return rule.findings


class TestRPL001MessageDiscipline:
    def test_flags_raw_dict_payload(self):
        findings = run_rule(
            MessageDisciplineRule,
            """
def go(out_queue):
    out_queue.put({"kind": "done"})
""",
        )
        assert len(findings) == 1
        assert findings[0].rule == "RPL001"
        assert "dict" in findings[0].message

    def test_flags_lambda_and_traced_dict_name(self):
        findings = run_rule(
            MessageDisciplineRule,
            """
def go(out_queue):
    out_queue.put(lambda x: x)
    payload = {"a": 1}
    out_queue.put(payload)
""",
        )
        assert len(findings) == 2

    def test_flags_locally_defined_class(self):
        findings = run_rule(
            MessageDisciplineRule,
            """
def go(out_queue):
    class Inner:
        pass
    out_queue.put(Inner())
""",
        )
        assert len(findings) == 1
        assert "Inner" in findings[0].message

    def test_flags_closure_reference(self):
        findings = run_rule(
            MessageDisciplineRule,
            """
def go(out_queue):
    def callback():
        return 1
    out_queue.put(callback)
""",
        )
        assert len(findings) == 1
        assert "closure" in findings[0].message

    def test_flags_unregistered_type_in_runtime_modules(self):
        source = """
def go(out_queue):
    out_queue.put(SomethingElse(x=1))
"""
        inside = run_rule(
            MessageDisciplineRule, source, relpath="src/repro/runtime/new.py"
        )
        outside = run_rule(MessageDisciplineRule, source, relpath="pkg/mod.py")
        assert len(inside) == 1 and "not registered" in inside[0].message
        assert outside == []

    def test_registered_types_pass(self):
        findings = run_rule(
            MessageDisciplineRule,
            """
from repro.runtime.messages import TupleBatch, EndInterval
from repro.runtime.queues import abortable_put

def go(out_queue, should_abort):
    out_queue.put(TupleBatch(interval=0, sent_at=0.0, keys=[], values=[]))
    abortable_put(out_queue, EndInterval(interval=0), should_abort)
""",
            relpath="src/repro/runtime/new.py",
        )
        assert findings == []

    def test_untraceable_names_get_benefit_of_the_doubt(self):
        findings = run_rule(
            MessageDisciplineRule,
            """
def forward(out_queue, item):
    out_queue.put(item)
""",
        )
        assert findings == []


class TestRPL002BlockingCalls:
    def test_flags_bare_get_and_put(self):
        findings = run_rule(
            BlockingCallRule,
            """
def pump(in_queue, out_queue):
    item = in_queue.get()
    out_queue.put(item)
""",
        )
        assert [f.rule for f in findings] == ["RPL002", "RPL002"]

    def test_flags_egress_receivers_too(self):
        findings = run_rule(
            BlockingCallRule,
            """
def emit(egress, batch):
    egress.put(batch)
""",
        )
        assert len(findings) == 1

    def test_timeout_and_nowait_variants_pass(self):
        findings = run_rule(
            BlockingCallRule,
            """
def pump(in_queue, out_queue):
    item = in_queue.get(timeout=0.1)
    out_queue.put(item, timeout=0.1)
    out_queue.put_nowait(item)
    return in_queue.get_nowait()
""",
        )
        assert findings == []

    def test_abort_aware_receivers_are_exempt(self):
        findings = run_rule(
            BlockingCallRule,
            """
def dispatch(self, task, batch):
    self.abortable_queues[task].put(batch)
    for guarded_queue in self.guarded_queues:
        guarded_queue.put(batch)
""",
        )
        assert findings == []

    def test_sanctioned_wrapper_module_is_exempt(self):
        findings = run_rule(
            BlockingCallRule,
            """
def abortable_get(queue):
    return queue.get()
""",
            relpath="src/repro/runtime/queues.py",
        )
        assert findings == []

    def test_non_queueish_receivers_pass(self):
        findings = run_rule(
            BlockingCallRule,
            """
def lookup(marks):
    return marks.get()
""",
        )
        assert findings == []

    def test_flags_a_second_transport_under_the_runtime(self):
        findings = run_rule(
            BlockingCallRule,
            """
def wire(context, capacity):
    inbound = context.Queue(maxsize=capacity)
    replies = multiprocessing.SimpleQueue()
    return inbound, replies
""",
            relpath="src/repro/runtime/topology.py",
        )
        assert [f.rule for f in findings] == ["RPL002", "RPL002"]
        assert all("Channel" in f.message for f in findings)

    def test_the_channel_and_queues_outside_the_runtime_pass(self):
        source = """
def wire(context, capacity):
    inbound = Channel(context, capacity, "worker:join:0")
    inbound.put(batch, timeout=0.1)
    return context.Queue(maxsize=capacity)
"""
        # The same constructor is the probe's business under perf/; the
        # channel module itself gets no second transport either.
        assert run_rule(BlockingCallRule, source, relpath="perf/probes.py") == []
        findings = run_rule(BlockingCallRule, source, relpath="src/repro/runtime/queues.py")
        assert [f.line for f in findings] == [4]
        flagged = run_rule(
            BlockingCallRule, source, relpath="src/repro/runtime/topology.py"
        )
        assert [f.line for f in flagged] == [4]

    def test_channel_receivers_are_queueish(self):
        findings = run_rule(
            BlockingCallRule,
            """
def pump(channel):
    return channel.get()
""",
        )
        assert [f.rule for f in findings] == ["RPL002"]


class TestRPL003PauseResumePairing:
    def test_flags_pause_then_return(self):
        findings = run_rule(
            PauseResumePairingRule,
            """
def migrate(router, keys):
    router.pause(keys)
    return keys
""",
        )
        assert len(findings) == 1
        assert "returns" in findings[0].message

    def test_flags_pause_falling_off_function_end(self):
        findings = run_rule(
            PauseResumePairingRule,
            """
def migrate(self, keys):
    self._paused_keys.update(keys)
""",
        )
        assert len(findings) == 1
        assert "falls off" in findings[0].message

    def test_pause_then_resume_passes(self):
        findings = run_rule(
            PauseResumePairingRule,
            """
def migrate(router, keys):
    router.pause(keys)
    ship(keys)
    router.resume()
""",
        )
        assert findings == []

    def test_pending_migration_handoff_passes(self):
        findings = run_rule(
            PauseResumePairingRule,
            """
def begin(self, router, keys):
    router.pause(keys)
    self._pending = object()
""",
        )
        assert findings == []

    def test_try_finally_resume_passes(self):
        findings = run_rule(
            PauseResumePairingRule,
            """
def migrate(router, keys):
    try:
        router.pause(keys)
        ship(keys)
    finally:
        router.resume()
""",
        )
        assert findings == []

    def test_raise_counts_as_abort_path(self):
        findings = run_rule(
            PauseResumePairingRule,
            """
def migrate(router, keys):
    router.pause(keys)
    raise RuntimeError("abort")
""",
        )
        assert findings == []

    def test_pause_primitive_itself_is_exempt(self):
        findings = run_rule(
            PauseResumePairingRule,
            """
def pause(self, keys):
    self._paused_keys.update(keys)
""",
        )
        assert findings == []

    def test_report_accounting_field_is_not_a_trigger(self):
        # The simulator's MigrationReport.paused_keys bookkeeping set is not
        # the runtime's _paused_keys pause buffer.
        findings = run_rule(
            PauseResumePairingRule,
            """
def migrate(report, moves):
    for move in moves:
        report.paused_keys.add(move.key)
""",
        )
        assert findings == []


class TestRPL004ForkSafety:
    def test_flags_global_and_module_mutable_and_rng(self):
        findings = run_rule(
            ForkSafetyRule,
            """
import random
_CACHE = {}

def worker_main(worker_id):
    global _MODE
    _CACHE[worker_id] = random.random()
""",
        )
        messages = " | ".join(f.message for f in findings)
        assert len(findings) == 3
        assert "global _MODE" in messages
        assert "_CACHE" in messages
        assert "random.random" in messages

    def test_operators_modules_are_in_scope(self):
        findings = run_rule(
            ForkSafetyRule,
            """
_SEEN = []

def record(key):
    _SEEN.append(key)
""",
            relpath="src/repro/operators/custom.py",
        )
        assert len(findings) == 1

    def test_non_worker_modules_are_out_of_scope(self):
        findings = run_rule(
            ForkSafetyRule,
            """
import random
_CACHE = {}

def coordinator():
    _CACHE["x"] = random.random()
""",
            relpath="src/repro/experiments/driver.py",
        )
        assert findings == []

    def test_explicit_generators_and_local_state_pass(self):
        findings = run_rule(
            ForkSafetyRule,
            """
import numpy as np

def worker_main(worker_id, seed):
    rng = np.random.default_rng(seed)
    local = {}
    local[worker_id] = rng.normal()
    return local
""",
        )
        assert findings == []


class TestRPL005LoadRatios:
    def test_flags_division_by_average_load_call(self):
        findings = run_rule(
            LoadRatioRule,
            """
from repro.core.load import average_load

def skewness(loads):
    return max(loads.values()) / average_load(loads)
""",
        )
        assert len(findings) == 1
        assert "average_load" in findings[0].message

    def test_flags_division_by_traced_mean_name(self):
        findings = run_rule(
            LoadRatioRule,
            """
from repro.core.load import safe_mean

def ratio(samples, x):
    mean = safe_mean(samples)
    return x / mean
""",
        )
        assert len(findings) == 1

    def test_core_load_module_is_exempt(self):
        findings = run_rule(
            LoadRatioRule,
            """
def max_skewness(loads):
    return max(loads.values()) / average_load(loads)
""",
            relpath="src/repro/core/load.py",
        )
        assert findings == []

    def test_total_based_forms_pass(self):
        findings = run_rule(
            LoadRatioRule,
            """
def max_skewness(loads):
    total = sum(loads.values())
    if total <= 0:
        return 0.0
    return max(loads.values()) / total * len(loads)
""",
        )
        assert findings == []


class TestRPL006AtomicCheckpointWrite:
    def test_flags_bare_open_write_on_checkpoint_path(self):
        findings = run_rule(
            AtomicCheckpointWriteRule,
            """
def save(checkpoint_path, blob):
    with open(checkpoint_path, "wb") as handle:
        handle.write(blob)
""",
        )
        assert len(findings) == 1
        assert findings[0].rule == "RPL006"
        assert "atomic_write" in findings[0].message

    def test_flags_manifest_join_and_fstring_paths(self):
        findings = run_rule(
            AtomicCheckpointWriteRule,
            """
import json
import os

def save(root, task, payload):
    with open(os.path.join(root, "manifest.json"), "w") as handle:
        json.dump(payload, handle)
    with open(f"{root}/ckpt-{task}.bin", "wb") as handle:
        handle.write(b"x")
""",
        )
        assert len(findings) == 2

    def test_flags_pathlib_write_methods(self):
        findings = run_rule(
            AtomicCheckpointWriteRule,
            """
def save(ckpt_path, manifest_path):
    ckpt_path.write_bytes(b"x")
    manifest_path.write_text("{}")
""",
        )
        assert len(findings) == 2

    def test_flags_pathlib_open_in_write_mode(self):
        findings = run_rule(
            AtomicCheckpointWriteRule,
            """
def save(checkpoint_path):
    with checkpoint_path.open("w") as handle:
        handle.write("{}")
""",
        )
        assert len(findings) == 1

    def test_reads_and_unrelated_writes_pass(self):
        findings = run_rule(
            AtomicCheckpointWriteRule,
            """
def load(checkpoint_path, report_path):
    with open(checkpoint_path, "rb") as handle:
        blob = handle.read()
    with open(report_path, "w") as handle:
        handle.write("ok")
    return blob
""",
        )
        assert findings == []

    def test_checkpoint_module_is_exempt(self):
        findings = run_rule(
            AtomicCheckpointWriteRule,
            """
import os

def atomic_write_bytes(path, blob):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)
""",
            relpath="src/repro/runtime/resilience/checkpoint.py",
        )
        assert findings == []
