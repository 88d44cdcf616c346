"""The four capcomp benchmark workloads.

Each workload is a closed loop with one client: the next operation starts
only after the previous one returned and its output was checked.  Only the
call into capcomp is timed (host wall clock); preparing the inputs and
checking the outputs happen outside the timed interval.

A seed chooses data (arguments, offsets, constants, scenario graphs and
cost models), never the shape of the work, so host timings stay comparable
across seeds while the simulated counts change deterministically with it.

Every call goes through a module attribute (``layout.boot_init(...)``, not a
name imported from it), so the span wrappers in ``tracing.py`` see it.  Only
public entry points and public machine state are used; nothing here reads
``access_log``, ``run(trace=...)``, ``fork_registers`` or the machine's
``hot_fraction``, which the planned machine refactors remove.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import time
from dataclasses import dataclass, field
from importlib import resources

from capcomp import capability, cli, isa, layout, machine, runtime, workload

CONFIG = "three_comp_shared.cfg"
# Passed explicitly everywhere: the CLI and library defaults disagree (1 MiB
# against 16 MiB) and a later fix must not shift setup_s or peak_rss_mb.
MEMORY_SIZE = 1 << 20
BUNDLED_SCENARIOS = ("libsodium_all.scn", "libsodium_chacha_only.scn",
                     "libsodium_hex.scn", "promote_pipeline.scn", "sqlite_fs.scn")
MICRO_TOTALS = {False: 362.7, True: 937.6}     # `capcomp micro` hot / cold


def read_fixture(name: str) -> str:
    return (resources.files("capcomp") / "fixtures" / name).read_text(encoding="utf-8")


def switch_count(st) -> int:
    """Domain switches so far: the single `switches` counter once the hot/cold
    split is removed from the machine, otherwise the sum of both halves."""
    n = getattr(st, "switches", None)
    if n is None:
        n = st.switches_hot + st.switches_cold
    return n


@dataclass(slots=True)
class Sample:
    """One operation: what it was, its host time, and what it simulated."""

    kind: str                 # trip, loop, fuzz, eval or micro
    seconds: float
    retired: int = 0          # simulated instructions retired
    units: int = 1            # items of work (fuzz sequences per call)
    errors: list[str] = field(default_factory=list)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# gate_roundtrip


class GateRoundtrip:
    """Depth-1 gated calls app->codec and app->store, alternating, through
    `call_compartment(..., at=site)`.  The callee stores its argument into
    its own heap and returns argument + 1."""

    name = "gate_roundtrip"
    kind = "trip"
    DEST = 0
    MIN_OPS = 2               # timed trips a run needs for a p90

    def __init__(self, seed: int):
        self.rng = random.Random(f"gate_roundtrip/{seed}")
        self.trip_instructions: int | None = None
        self.trips = 0

    def setup(self) -> None:
        plan = layout.compute_layout(layout.parse_config(read_fixture(CONFIG)),
                                     memory_size=MEMORY_SIZE)
        img = layout.boot_init(plan)
        self.callees = []
        for name in ("codec", "store"):
            heap = layout.comp_alloc(img, name, 32)
            body = [isa.sti(0, isa.REG_ZERO, heap), isa.addi(0, 0, 1), isa.retl()]
            entry = layout.install_function(img, name, body)
            gate = runtime.GateDescriptor("app", name, entry, dest=self.DEST)
            self.callees.append((gate, heap))
        # One fixed call site near the top of app's code, sized from the
        # emitted sequence so a longer gate still fits.
        length = len(runtime.emit_gate_sequence(plan, self.callees[0][0], [0]).instructions)
        self.site = plan.code_bounds["app"][1] - length - 16
        self.img = img

    def op(self, i: int) -> Sample:
        img = self.img
        st = img.machine
        gate, heap = self.callees[i % 2]
        arg = self.rng.randrange(1 << 32)
        before = list(st.regs)
        sw0 = switch_count(st)
        n0 = st.instructions_retired
        st.halted = False
        sample = Sample(self.kind, 0.0)
        try:
            _, sample.seconds = _timed(runtime.call_compartment, img, gate, [arg], at=self.site)
        except Exception as e:            # the loop keeps going; the run reports it
            sample.errors.append(f"trip {i}: {type(e).__name__}: {e}")
            return sample
        sample.retired = st.instructions_retired - n0
        err = sample.errors
        if st.fault is not None or not st.halted:
            err.append(f"trip {i}: fault={st.fault} halted={st.halted}")
        if st.regs[self.DEST].address != arg + 1:
            err.append(f"trip {i}: r{self.DEST}={st.regs[self.DEST].address}, want {arg + 1}")
        if switch_count(st) - sw0 != 2:
            err.append(f"trip {i}: {switch_count(st) - sw0} switches, want 2")
        changed = [r for r in range(len(before)) if r != self.DEST and st.regs[r] != before[r]]
        if changed:
            err.append(f"trip {i}: registers {changed} changed")
        if int.from_bytes(img.mem.read_bytes(heap, 8), "little") != arg:
            err.append(f"trip {i}: callee heap word is not the argument")
        if self.trip_instructions is None:
            self.trip_instructions = sample.retired
        elif sample.retired != self.trip_instructions:
            err.append(f"trip {i}: retired {sample.retired}, earlier trips "
                       f"{self.trip_instructions}")
        self.trips += 1
        return sample

    def sim(self) -> dict[str, float]:
        return {"sim.trip.instructions": self.trip_instructions or 0,
                "sim.trip.switches": 2 if self.trips else 0}


# ---------------------------------------------------------------------------
# comp_loop


class CompLoop:
    """A steady loop in app, the boot-default compartment, run by
    `machine.run` with a step budget.  Each iteration mixes ddc-checked
    integer loads and stores, capability stores and loads (through an explicit
    capability operand and through the ddc), derivations, and one load/store
    pair on the exception-mode `mailbox`: the load faults and swaps the ddc
    in, the next private load faults and swaps it back.  No domain switches."""

    name = "comp_loop"
    kind = "loop"
    ITERS_PER_OP = 10
    SWAPS_PER_ITER = 2

    def __init__(self, seed: int):
        rng = random.Random(f"comp_loop/{seed}")
        words = rng.sample(range(128, 256, 8), 2)     # int words in the heap block
        self.off_a, self.off_b = words
        self.k_a = rng.randrange(1, 1 << 40)
        self.k_b = rng.randrange(1, 1 << 40)
        self.k_m = rng.randrange(1, 1 << 40)
        self.iterations = 0
        self.retired = 0
        self.swaps = 0

    def setup(self) -> None:
        plan = layout.compute_layout(layout.parse_config(read_fixture(CONFIG)),
                                     memory_size=MEMORY_SIZE)
        img = layout.boot_init(plan)
        blk = layout.comp_alloc(img, "app", 256)
        self.blk = blk
        self.mailbox = plan.shared_bounds["mailbox"][0]
        # Heap block: r2 is a capability for [blk, blk+64) and the loop
        # stores it at blk+32 through itself and at blk+64 through the ddc;
        # the integer words live in [blk+128, blk+256).
        body = [
            isa.ldi(5, 1, self.off_a),
            isa.addi(5, 5, self.k_a),
            isa.sti(5, 1, self.off_a),
            isa.ldi(6, 1, self.off_b),
            isa.addi(6, 6, self.k_b),
            isa.sti(6, 1, self.off_b),
            isa.setaddr(7, 2, 8),
            isa.stc(2, 7, 0, cap=True),
            isa.ldc(9, 7, 0, cap=True),
            isa.mov(10, 9),
            isa.stc(10, 1, 64),
            isa.ldc(11, 1, 64),
            isa.ldi(13, 3, 0),            # mailbox: fault, swap in, retire
            isa.addi(13, 13, self.k_m),
            isa.sti(13, 3, 0),
            isa.ldi(14, 1, self.off_a),   # private again: fault, swap back, retire
            isa.addi(4, 4, 1),
            isa.calll(12),
        ]
        loop_at = layout.install_function(img, "app", body)
        prologue = [
            isa.movi(1, blk),
            isa.movi(3, self.mailbox),
            isa.movi(20, blk),
            isa.movi(21, blk + 64),
            isa.cvtd(2, 20, 21),
            isa.movi(8, blk + 32),
            isa.movi(12, loop_at),
            isa.calll(12),
        ]
        entry = layout.install_function(img, "app", prologue)
        self.img = img
        self.loop_at = loop_at
        self.body_len = len(body)
        self.steps_per_iter = len(body) + self.SWAPS_PER_ITER
        st = img.machine
        st.pcc = capability.set_address(st.pcc, entry)
        machine.run(st, img.mem, img.program, max_steps=len(prologue))
        if st.fault is not None or st.pcc.address != loop_at:
            raise RuntimeError(f"comp_loop prologue did not reach the loop: {st.fault}")
        self.start_regs = list(st.regs)
        self.start_ddc = st.ddc
        self.start_swaps = st.ddc_swap_events

    def op(self, i: int) -> Sample:
        img = self.img
        st = img.machine
        n0 = st.instructions_retired
        s0 = st.ddc_swap_events
        sample = Sample(self.kind, 0.0)
        budget = self.ITERS_PER_OP * self.steps_per_iter
        try:
            _, sample.seconds = _timed(machine.run, st, img.mem, img.program, max_steps=budget)
        except Exception as e:
            sample.errors.append(f"loop op {i}: {type(e).__name__}: {e}")
            return sample
        sample.retired = st.instructions_retired - n0
        swaps = st.ddc_swap_events - s0
        self.iterations += self.ITERS_PER_OP
        self.retired += sample.retired
        self.swaps += swaps
        if (st.fault is not None or st.halted or st.pcc.address != self.loop_at
                or sample.retired != self.ITERS_PER_OP * self.body_len
                or swaps != self.ITERS_PER_OP * self.SWAPS_PER_ITER):
            sample.errors.append(
                f"loop op {i}: fault={st.fault} halted={st.halted} pc={st.pcc.address} "
                f"retired={sample.retired} swaps={swaps}")
        return sample

    def expected_state(self) -> tuple:
        """Closed form of the loop after `self.iterations` iterations."""
        n = self.iterations
        mask = (1 << 64) - 1
        a, b, m = n * self.k_a & mask, n * self.k_b & mask, n * self.k_m & mask
        regs = [(c.address, c.tag) for c in self.start_regs]
        cap2 = self.start_regs[2]
        for r, v in ((5, a), (6, b), (13, m), (14, a), (4, (regs[4][0] + n) & mask)):
            regs[r] = (v, False)
        if n:
            regs[7] = (self.blk + 32, cap2.tag)
            regs[9] = regs[10] = regs[11] = (cap2.address, cap2.tag)
            regs[30] = (self.loop_at + self.body_len, True)
        return (tuple(regs), a, b, m, self.start_swaps + 2 * n)

    def observed_state(self) -> tuple:
        img = self.img
        st = img.machine
        word = lambda addr: int.from_bytes(img.mem.read_bytes(addr, 8), "little")
        regs = tuple((c.address, c.tag) for c in st.regs)
        return (regs, word(self.blk + self.off_a), word(self.blk + self.off_b),
                word(self.mailbox), st.ddc_swap_events)

    def final_errors(self) -> list[str]:
        st = self.img.machine
        errors = []
        if self.observed_state() != self.expected_state():
            errors.append("comp_loop: register/heap state differs from the closed form")
        if st.ddc != self.start_ddc:
            errors.append("comp_loop: ddc is not app's after whole iterations")
        if self.iterations:
            cap2 = self.start_regs[2]
            for slot in (self.blk + 32, self.blk + 64):
                if self.img.mem.load_cap(slot) != cap2:
                    errors.append(f"comp_loop: capability slot {slot:#x} lost its value")
        return errors

    def sim(self) -> dict[str, float]:
        per_1k = 1000.0 * self.swaps / self.retired if self.retired else 0.0
        return {"sim.loop.retired": self.retired, "sim.loop.swaps_per_1k": per_1k}


# ---------------------------------------------------------------------------
# verify_fuzz

_FUZZ_LINE = re.compile(r"fuzzed (\d+) sequences \((\d+) retired instructions, "
                        r"(\d+) domain switches\)")
_FAULT_LINE = re.compile(r"^  (\w+): (\d+)$", re.M)
FAULT_KINDS = ("TagFault", "SealFault", "PermissionFault", "BoundsFault",
               "AlignmentFault", "AddressError")


class VerifyFuzz:
    """`capcomp verify three_comp_shared.cfg --fuzz N --seed S --memory-size
    0x100000`, called in-process through `cli.main`; every call uses the next
    fuzz seed of the run.  Each call also parses, plans, audits and boots
    (the `setup` cost, about 2.3 ms); at 2000 sequences that is about 1.3 %
    of a call, near the 0.15 % of the `--fuzz 20000` users run, where 250
    sequences made it 11 %.  Calls stay short enough (about 0.17 s) to be
    interleaved with other workloads' operations and normalized one by one."""

    name = "verify_fuzz"
    kind = "fuzz"
    SEQUENCES_PER_OP = 2000

    def __init__(self, seed: int):
        self.base_seed = seed * 1_000_003
        self.sequences = 0
        self.retired = 0
        self.switches = 0
        self.faults: dict[str, int] = {}

    def _argv(self, sequences: int, seed: int) -> list[str]:
        return ["verify", CONFIG, "--fuzz", str(sequences), "--seed", str(seed),
                "--memory-size", hex(MEMORY_SIZE)]

    def setup(self) -> None:
        # A verify call's fixed cost: parse, plan, audit and boot, no sequences.
        rc, _ = self._call(self._argv(0, self.base_seed))
        if rc != 0:
            raise RuntimeError(f"capcomp verify --fuzz 0 exited {rc}")

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return rc, out.getvalue() + err.getvalue()

    def op(self, i: int) -> Sample:
        n = self.SEQUENCES_PER_OP
        argv = self._argv(n, self.base_seed + i)
        where = f"verify op {i} (capcomp {' '.join(argv)})"    # replayable as given
        sample = Sample(self.kind, 0.0, units=n)
        try:
            (rc, text), sample.seconds = _timed(self._call, argv)
        except Exception as e:
            sample.errors.append(f"{where}: {type(e).__name__}: {e}")
            return sample
        m = _FUZZ_LINE.search(text)
        if rc != 0 or m is None or "confinement holds" not in text or int(m.group(1)) != n:
            sample.errors.append(f"{where}: exit {rc}: {text.strip()[-300:]}")
            return sample
        sample.retired = int(m.group(2))
        self.sequences += n
        self.retired += sample.retired
        self.switches += int(m.group(3))
        faults = {k: int(v) for k, v in _FAULT_LINE.findall(text)}
        if sum(faults.values()) > n:
            sample.errors.append(f"{where}: more faults than sequences: {faults}")
        for k, v in faults.items():
            self.faults[k] = self.faults.get(k, 0) + v
        return sample

    def sim(self) -> dict[str, float]:
        out = {"sim.fuzz.sequences": self.sequences, "sim.fuzz.retired": self.retired,
               "sim.fuzz.switches": self.switches}
        for kind in FAULT_KINDS:
            out[f"sim.fuzz.faults.{kind}"] = self.faults.get(kind, 0)
        return out


# ---------------------------------------------------------------------------
# cost_model


@dataclass(frozen=True)
class ScenarioSpec:
    """A scenario as the benchmark knows it, independent of capcomp's parser."""

    name: str
    fns: tuple[tuple[str, str, int], ...]          # (name, comp, instr)
    calls: tuple[tuple[str, str, int, int], ...]   # (caller, callee, count, promote)
    iterations: int
    cpi: float

    def text(self) -> str:
        lines = [f"scenario {self.name}"]
        lines += [f"fn {f} comp={c} instr={n}" for f, c, n in self.fns]
        lines += [f"call {a} {b} count={k}" + (f" promote={p}" if p else "")
                  for a, b, k, p in self.calls]
        lines += [f"iterations {self.iterations}", f"cpi {self.cpi!r}"]
        return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> ScenarioSpec:
    """Read a bundled scenario (the subset of the language they use)."""
    name, fns, calls, iterations, cpi = "scenario", [], [], 1, 1.0
    for raw in text.splitlines():
        toks = raw.split("#")[0].split()
        if not toks:
            continue
        kv = dict(t.split("=", 1) for t in toks if "=" in t)
        if toks[0] == "scenario":
            name = toks[1]
        elif toks[0] == "fn":
            fns.append((toks[1], kv["comp"], int(kv["instr"])))
        elif toks[0] == "call":
            calls.append((toks[1], toks[2], int(kv["count"]), int(kv.get("promote", 0))))
        elif toks[0] == "iterations":
            iterations = int(toks[1])
        elif toks[0] == "cpi":
            cpi = float(toks[1])
    return ScenarioSpec(name, tuple(fns), tuple(calls), iterations, cpi)


def generate_spec(rng: random.Random, index: int) -> ScenarioSpec:
    """A call DAG of 24 functions over four compartments.  Every function
    calls three later functions, so subtrees are shared by many callers and
    a traversal without memoization would be exponential."""
    n_fns, fanout = 24, 3
    fns = [(f"f{i}", f"c{rng.randrange(4)}", rng.randrange(50, 5000)) for i in range(n_fns)]
    calls = []
    for i in range(n_fns - 1):
        for j in sorted(rng.sample(range(i + 1, n_fns), min(fanout, n_fns - 1 - i))):
            promote = rng.randrange(1, 3) if rng.random() < 0.2 else 0
            calls.append((f"f{i}", f"f{j}", rng.randrange(1, 4), promote))
    return ScenarioSpec(f"dag{index}", tuple(fns), tuple(calls),
                        rng.randrange(1, 6), round(rng.uniform(0.8, 2.5), 3))


def reference_totals(spec: ScenarioSpec) -> tuple[int, int, int]:
    """(instructions, transitions, promotions) over all iterations, computed
    bottom-up in reverse topological order; the check for `run_scenario`."""
    comp = {f: c for f, c, _ in spec.fns}
    out: dict[str, list] = {f: [] for f, _, _ in spec.fns}
    for a, b, k, p in spec.calls:
        out[a].append((b, k, p))
    order, seen = [], set()
    stack = [(spec.fns[0][0], False)]
    while stack:                                   # iterative post-order
        f, done = stack.pop()
        if done:
            order.append(f)
        elif f not in seen:
            seen.add(f)
            stack.append((f, True))
            stack.extend((b, False) for b, _, _ in out[f] if b not in seen)
    tot: dict[str, tuple[int, int, int]] = {}
    instr = {f: n for f, _, n in spec.fns}
    for f in order:
        i, t, p = instr[f], 0, 0
        for b, k, pr in out[f]:
            bi, bt, bp = tot[b]
            i += k * bi
            t += k * bt + (2 * k if comp[f] != comp[b] else 0)
            p += k * (bp + pr)
        tot[f] = (i, t, p)
    i, t, p = tot[spec.fns[0][0]]
    n = spec.iterations
    return n * i, n * t, n * p


class CostModelWorkload:
    """Scenario evaluations (`parse_scenario` -> `run_scenario` ->
    `estimate_overhead` -> `emit_report`/`parse_report`) under seeded cost
    models, over the five bundled scenarios plus generated call DAGs; every
    MICRO_EVERY-th operation is a `switch_breakdown`, hot or cold."""

    name = "cost_model"
    kind = "eval"
    GENERATED = 16
    MICRO_EVERY = 25
    MIN_OPS = MICRO_EVERY     # timed operations a run needs for one micro

    def __init__(self, seed: int):
        self.rng = random.Random(f"cost_model/{seed}")
        self.seed = seed
        self.transitions = 0
        self.promotions = 0
        self.micro_instructions = 0
        self.micro_cycles = {False: 0.0, True: 0.0}

    def setup(self) -> None:
        # The bundled files are timed as shipped; the benchmark's own reading
        # of them only feeds the reference totals.
        gen = random.Random(f"cost_model/graphs/{self.seed}")
        pool = [(spec_from_text(t), t) for t in map(read_fixture, BUNDLED_SCENARIOS)]
        for i in range(self.GENERATED):
            spec = generate_spec(gen, i)
            pool.append((spec, spec.text()))
        for _, t in pool:
            workload.parse_scenario(t)
        self.pool = pool

    def prepare_checks(self) -> None:
        """Reference totals for the pool; outside every timed interval."""
        self.expected = [reference_totals(s) for s, _ in self.pool]

    def _cost_model(self):
        r = self.rng
        hot = r.uniform(200.0, 600.0)
        return workload.CostModel(hot=hot, cold=r.uniform(hot, 2000.0),
                                  hot_fraction=r.uniform(0.9, 1.0),
                                  promotion=r.uniform(100.0, 400.0))

    @staticmethod
    def _evaluate(text, cm):
        sc = workload.parse_scenario(text)
        summary = workload.run_scenario(sc)
        est = workload.estimate_overhead(summary, cm)
        report = workload.parse_report(workload.emit_report(summary, est, cm))
        return summary, est, report

    def op(self, i: int) -> Sample:
        if i % self.MICRO_EVERY == self.MICRO_EVERY - 1:
            return self._micro(i)
        k = i % len(self.pool)
        spec, text = self.pool[k]
        cm = self._cost_model()
        sample = Sample(self.kind, 0.0)
        try:
            (summary, est, report), sample.seconds = _timed(self._evaluate, text, cm)
        except Exception as e:
            sample.errors.append(f"eval {i} ({spec.name}): {type(e).__name__}: {e}")
            return sample
        err = sample.errors
        got = (summary.instructions, summary.transitions, summary.promotions)
        if got != self.expected[k]:
            err.append(f"eval {i} ({spec.name}): totals {got}, want {self.expected[k]}")
        per_switch = cm.hot_fraction * cm.hot + (1.0 - cm.hot_fraction) * cm.cold
        extra = summary.transitions * per_switch + summary.promotions * cm.promotion
        percent = 100.0 * extra / (summary.instructions * summary.cpi)
        if not math.isclose(est.percent, percent, rel_tol=1e-9):
            err.append(f"eval {i} ({spec.name}): percent {est.percent}, closed form {percent}")
        totals = report.get("totals", {})
        if (report.get("overhead", {}).get("percent") != f"{est.percent:.3f}"
                or totals.get("transitions") != str(summary.transitions)
                or totals.get("instructions") != str(summary.instructions)):
            err.append(f"eval {i} ({spec.name}): report does not round-trip")
        self.transitions += summary.transitions
        self.promotions += summary.promotions
        return sample

    def _micro(self, i: int) -> Sample:
        cold = self.rng.random() < 0.5
        sample = Sample("micro", 0.0)
        try:
            bd, sample.seconds = _timed(workload.switch_breakdown, cold=cold)
        except Exception as e:
            sample.errors.append(f"micro {i}: {type(e).__name__}: {e}")
            return sample
        sample.retired = bd.instructions
        if not math.isclose(bd.total, MICRO_TOTALS[cold], abs_tol=1e-6):
            sample.errors.append(f"micro {i}: total {bd.total}, want {MICRO_TOTALS[cold]}")
        self.micro_instructions = bd.instructions
        self.micro_cycles[cold] = bd.total
        return sample

    def sim(self) -> dict[str, float]:
        return {"sim.cost.transitions": self.transitions,
                "sim.cost.promotions": self.promotions,
                "sim.micro.instructions": self.micro_instructions,
                "sim.micro.hot_cycles": self.micro_cycles[False],
                "sim.micro.cold_cycles": self.micro_cycles[True]}


WORKLOADS = {w.name: w for w in (GateRoundtrip, CompLoop, VerifyFuzz, CostModelWorkload)}
