"""Spans around capcomp's public entry points, installed from outside.

`Tracer.install` replaces each entry point listed in ENTRY_POINTS with a
wrapper that records one span (name, start, end, parent) per call, in every
capcomp module that holds a reference to it, so calls between capcomp's own
modules are seen too.  An entry point that no longer exists is skipped and
listed in `Tracer.missing`.  Spans stay in memory until `write` saves them;
a layer's self time is the time of its spans minus the time of their
direct children.
"""

from __future__ import annotations

import json
import sys
import time
from functools import update_wrapper

from workloads import switch_count

# layer -> group -> entry points ("fn" is a module function, "Cls.fn" a method)
ENTRY_POINTS = {
    "capability": {
        "check_access": ("check_access",),
        "derive": ("set_bounds", "set_address", "restrict_perms", "seal", "unseal", "int_cap"),
        "codec": ("serialize", "deserialize"),
    },
    "memory": {
        "load_cap": ("TaggedMemory.load_cap",),
        "store_cap": ("TaggedMemory.store_cap",),
        "read_bytes": ("TaggedMemory.read_bytes",),
        "write_bytes": ("TaggedMemory.write_bytes",),
    },
    "isa": {
        "ctor": ("nop", "halt", "ldi", "sti", "ldc", "stc", "setbounds", "setaddr",
                 "restrict", "sealr", "mov", "addi", "bcap", "calll", "retl", "lpb",
                 "installddc", "readddc", "cvtd", "movi"),
    },
    "machine": {
        "run": ("run",),
        "step": ("step",),
        "handle_fault_ddc_swap": ("handle_fault_ddc_swap",),
    },
    "layout": {
        "parse_config": ("parse_config",),
        "compute_layout": ("compute_layout",),
        "audit_plan": ("audit_plan",),
        "boot_init": ("boot_init",),
        "install_function": ("install_function",),
    },
    "runtime": {
        "emit_gate_sequence": ("emit_gate_sequence",),
        "gate_call": ("gate_call",),
        "call_compartment": ("call_compartment",),
        "fuzz_isolation": ("fuzz_isolation",),
    },
    "workload": {
        "parse_scenario": ("parse_scenario",),
        "run_scenario": ("run_scenario",),
        "estimate_overhead": ("estimate_overhead",),
        "switch_breakdown": ("switch_breakdown",),
        "report": ("emit_report", "parse_report"),
    },
    "cli": {
        "main": ("main",),
    },
}

# `machine.step` spans are split by the op at the pc before the step.
STEP_CLASSES = ("int_mem", "cap_mem", "derive", "branch", "lpb", "ddc", "other")
_OP_CLASS = {
    "LOAD_INT": "int_mem", "STORE_INT": "int_mem",
    "LOAD_CAP": "cap_mem", "STORE_CAP": "cap_mem",
    "SET_BOUNDS": "derive", "SET_ADDRESS": "derive", "RESTRICT_PERMS": "derive",
    "SEAL": "derive", "MOVE": "derive", "ADD_IMM": "derive", "DERIVE_DDC": "derive",
    "BRANCH_CAP": "branch", "CALL_LOCAL": "branch", "RETURN_LOCAL": "branch",
    "LOAD_PAIR_BRANCH": "lpb",
    "INSTALL_DDC": "ddc", "READ_DDC": "ddc",
}

COUNTERS = ("machine.retired", "machine.faults", "machine.switches", "machine.ddc_swaps")


class Tracer:
    """Records spans for one traced run; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.group_of: list[str] = []       # name id -> "layer.group"
        self.span_name: list[int] = []
        self.span_start: list[int] = []
        self.span_end: list[int] = []
        self.span_parent: list[int] = []
        self._stack = [-1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str, group: str) -> int:
        self.names.append(name)
        self.group_of.append(group)
        return len(self.names) - 1

    def _span(self, nid: int, fn, args, kwargs):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str, group: str):
        nid = self._name_id(name, group)
        span = self._span

        def traced(*args, **kwargs):
            return span(nid, fn, args, kwargs)

        return update_wrapper(traced, fn)

    def _wrap_step(self, fn, group: str):
        ops = getattr(sys.modules.get("capcomp.isa"), "Op", None)
        class_ids = {c: self._name_id(f"machine.step.{c}", group) for c in STEP_CLASSES}
        by_op = {getattr(ops, op): class_ids[c] for op, c in _OP_CLASS.items() if hasattr(ops, op)}
        other = class_ids["other"]
        span, counters = self._span, self.counters

        def traced(st, mem, program, *args, **kwargs):
            try:
                nid = by_op.get(program[st.pcc.address].op, other)
            except (AttributeError, IndexError, TypeError):
                nid = other
            retired, switches = getattr(st, "instructions_retired", 0), switch_count(st)
            try:
                return span(nid, fn, (st, mem, program) + args, kwargs)
            finally:
                counters["machine.retired"] += getattr(st, "instructions_retired", 0) - retired
                counters["machine.switches"] += switch_count(st) - switches
                counters["machine.faults"] += getattr(st, "fault", None) is not None

        return update_wrapper(traced, fn)

    def _wrap_swap(self, fn, name: str, group: str):
        inner = self._wrap(fn, name, group)
        counters = self.counters

        def traced(*args, **kwargs):
            swapped = inner(*args, **kwargs)
            counters["machine.ddc_swaps"] += bool(swapped)
            return swapped

        return update_wrapper(traced, fn)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "capcomp" or n.startswith("capcomp."))]
        for layer, groups in ENTRY_POINTS.items():
            mod = sys.modules.get(f"capcomp.{layer}")
            for group, entries in groups.items():
                for entry in entries:
                    name = f"{layer}.{entry.split('.')[-1]}"
                    full = f"{layer}.{group}"
                    cls_name, _, attr = entry.rpartition(".")
                    owner = getattr(mod, cls_name, None) if cls_name else mod
                    fn = getattr(owner, attr, None) if owner is not None else None
                    if not callable(fn):
                        self.missing.append(f"{layer}.{entry}")
                        continue
                    if full == "machine.step":
                        wrapper = self._wrap_step(fn, full)
                    elif full == "machine.handle_fault_ddc_swap":
                        wrapper = self._wrap_swap(fn, name, full)
                    else:
                        wrapper = self._wrap(fn, name, full)
                    if cls_name:
                        self._patch(owner, attr, wrapper)
                        continue
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per layer, per group, and per step op class."""
        n = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_ns[nid] += dur[i] - child[i]
        out: dict[str, float] = {}
        for layer, groups in ENTRY_POINTS.items():
            out[f"{layer}.calls"] = 0
            out[f"{layer}.self_s"] = 0.0
            for group in groups:
                out[f"{layer}.{group}.calls"] = 0
                out[f"{layer}.{group}.self_s"] = 0.0
        for c in STEP_CLASSES:
            out[f"machine.step.{c}.self_s"] = 0.0
        for nid, name in enumerate(self.names):
            full = self.group_of[nid]
            layer = full.split(".")[0]
            s = self_ns[nid] / 1e9
            for key in (layer, full):
                out[f"{key}.calls"] += calls[nid]
                out[f"{key}.self_s"] += s
            if name.startswith("machine.step."):
                out[f"{name}.self_s"] += s
        out.update(self.counters)
        steps = out["machine.step.calls"]
        out["machine.retire_ratio"] = out["machine.retired"] / steps if steps else 0.0
        return out

    def write(self, path) -> None:
        """Save every span as [name id, start ns, end ns, parent index]."""
        spans = [list(t) for t in zip(self.span_name, self.span_start,
                                       self.span_end, self.span_parent)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "missing": self.missing, "spans": spans}, fh,
                      separators=(",", ":"))
