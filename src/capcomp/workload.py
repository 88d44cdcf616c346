"""Workload modeling: scenario traversal, switching-cost estimation, and the
single-switch latency breakdown.

A scenario is a static call-graph description (which function lives in which
compartment, who calls whom how often).  Traversing it yields exact totals:
instructions executed, compartment transitions (a cross-compartment call and
its return each count one), and promoted allocations.  The cost model then
turns totals into a cycle overhead relative to an uncompartmentalized run of
the same instruction stream at a given baseline CPI.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

from .isa import Op, retl
from .layout import (MAX_INT_LEN, BootImage, ImageSnapshot, boot_init, clip_token,
                     compute_layout, format_table, install_function, parse_config,
                     read_int)
from .machine import run


class ScenarioError(ValueError):
    """Scenario text rejected; message carries the 1-based line."""


@dataclass(frozen=True, slots=True)
class ScenarioFn:
    name: str
    comp: str
    instr: int          # body instructions per execution, callees excluded


class _FnBuilder:
    """Builds a `ScenarioFn` as `capability._CapBuilder` builds a `Capability`."""
    __slots__ = ScenarioFn.__slots__

    def __init__(self, name, comp, instr):
        self.name = name
        self.comp = comp
        self.instr = instr
        self.__class__ = ScenarioFn


@dataclass(frozen=True, slots=True)
class ScenarioCall:
    caller: str
    callee: str
    count: int          # calls per single caller execution
    promote: int = 0    # allocations promoted per individual call


class _CallBuilder:
    """Builds a `ScenarioCall` as `capability._CapBuilder` builds a `Capability`."""
    __slots__ = ScenarioCall.__slots__

    def __init__(self, caller, callee, count, promote):
        self.caller = caller
        self.callee = callee
        self.count = count
        self.promote = promote
        self.__class__ = ScenarioCall


# Every fn with its outgoing calls, callers before callees.
_CallOrder = tuple[tuple[ScenarioFn, tuple[ScenarioCall, ...]], ...]


@dataclass(frozen=True, slots=True)
class Scenario:
    """A parsed call graph.  The first fn is the entry point.

    `_order` holds the call order `_call_order` derives from `fns` and
    `calls`, filled at its first use and kept for the life of the value, as
    tuples all the way down, so nothing shared is mutable.  It is not an
    `__init__` argument and is left out of `==`, `hash` and `repr`; a value
    built by hand or by `dataclasses.replace` starts without it.
    """

    name: str
    fns: tuple[ScenarioFn, ...]
    calls: tuple[ScenarioCall, ...]
    iterations: int = 1
    cpi: float = 1.0
    _order: _CallOrder | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def root(self) -> str:
        return self.fns[0].name


# The one write to a frozen Scenario, through its slot descriptor.
_set_order = Scenario.__dict__["_order"].__set__


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    """Parse the scenario description language.

    Lines: `scenario <name>`, `fn <name> comp=<c> instr=<n>`,
    `call <from> <to> count=<k> [promote=<n>]`, `iterations <n>`, `cpi <x>`.
    The first declared fn is the entry point, executed once per iteration.
    An integer longer than `layout.MAX_INT_LEN` characters is rejected as such.
    A line's checks raise without a position; the loop's one `except` adds
    the `line N: ` prefix.  The search that derives the call order, which
    the returned value keeps, then rejects a call naming an unknown fn and
    a cycle.
    """
    fns: list[ScenarioFn] = []
    calls: list[ScenarioCall] = []
    iterations = 1
    cpi = 1.0
    seen: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not toks:
            continue
        kind = toks[0]
        try:
            # `call` first: most lines of a large graph are calls.
            if kind == "call":
                if len(toks) not in (4, 5):
                    raise ScenarioError("expected call <from> <to> count=<k> [promote=<n>]")
                count = toks[3]
                if not count.startswith("count="):
                    raise ScenarioError(f"expected count=..., got {clip_token(count)!r}")
                promote = None
                if len(toks) == 5:
                    promote = toks[4]
                    if not promote.startswith("promote="):
                        raise ScenarioError(f"expected promote=..., got {clip_token(promote)!r}")
                # both lengths are checked before either bad integer is named
                count = read_int(count[6:], 0, ScenarioError)
                promote = 0 if promote is None else read_int(promote[8:], 0, ScenarioError)
                if count is None or promote is None:
                    raise ScenarioError("bad integer")
                if count < 1:
                    raise ScenarioError("count must be positive")
                if promote < 0:
                    raise ScenarioError("promote must be non-negative")
                calls.append(_CallBuilder(toks[1], toks[2], count, promote))
            elif kind == "fn":
                if len(toks) != 4:
                    raise ScenarioError("expected fn <name> comp=<c> instr=<n>")
                if toks[1] in seen:
                    raise ScenarioError(f"duplicate fn {clip_token(toks[1])!r}")
                seen.add(toks[1])
                comp = toks[2]
                if not comp.startswith("comp="):
                    raise ScenarioError(f"expected comp=..., got {clip_token(comp)!r}")
                comp = comp[5:]
                if not comp:
                    raise ScenarioError("empty compartment name")
                instr = toks[3]
                if not instr.startswith("instr="):
                    raise ScenarioError(f"expected instr=..., got {clip_token(instr)!r}")
                instr = read_int(instr[6:], 0, ScenarioError)
                if instr is None:
                    raise ScenarioError("bad instruction count")
                if instr < 0:
                    raise ScenarioError("negative instruction count")
                fns.append(_FnBuilder(toks[1], comp, instr))
            elif kind == "scenario":
                if len(toks) != 2:
                    raise ScenarioError("scenario takes one name")
                name = toks[1]
            elif kind == "iterations":
                if len(toks) != 2:
                    raise ScenarioError("iterations takes one integer")
                iterations = read_int(toks[1], 0, ScenarioError)
                if iterations is None:
                    raise ScenarioError(f"bad integer {clip_token(toks[1])!r}")
                if iterations < 1:
                    raise ScenarioError("iterations must be positive")
            elif kind == "cpi":
                if len(toks) != 2:
                    raise ScenarioError("cpi takes one number")
                try:
                    cpi = float(toks[1])
                except ValueError:
                    raise ScenarioError(f"bad number {clip_token(toks[1])!r}") from None
                if not 0 < cpi < math.inf:
                    raise ScenarioError("cpi must be positive and finite")
            else:
                raise ScenarioError(f"unknown directive {clip_token(kind)!r}")
        except ScenarioError as e:
            raise ScenarioError(f"line {line_no}: {e}") from None

    if not fns:
        raise ScenarioError("line 1: scenario declares no functions")

    sc = Scenario(name, tuple(fns), tuple(calls), iterations, cpi)
    _call_order(sc)
    return sc


def _call_order(sc: Scenario) -> _CallOrder:
    """Every fn of `sc` with its outgoing calls, callers before callees.

    Derived by `_search_order` at the first call for a `Scenario` value and
    kept on it in `sc._order`, so one value's graph is walked once however
    often it is evaluated.  A graph the search rejects stores nothing and
    raises again on every call.
    """
    order = sc._order
    if order is None:
        order = _search_order(sc)
        _set_order(sc, order)
    return order


def _search_order(sc: Scenario) -> _CallOrder:
    """The reversed postorder of a depth-first search that starts from each
    fn in declaration order and follows calls in call order.

    The search keeps its own stack, so call depth is not bounded by Python's
    recursion limit.  While it builds the adjacency lists, a call naming a
    fn that `sc.fns` lacks raises ScenarioError, calls in order and each
    caller before its callee; then a cycle raises ScenarioError naming the
    first one met.
    """
    out: dict[str, list[ScenarioCall]] = {f.name: [] for f in sc.fns}
    for c in sc.calls:
        calls_of = out.get(c.caller)
        if calls_of is None:
            raise ScenarioError(f"call references unknown fn {clip_token(c.caller)!r}")
        if c.callee not in out:
            raise ScenarioError(f"call references unknown fn {clip_token(c.callee)!r}")
        calls_of.append(c)
    fn_of = {f.name: f for f in sc.fns}
    done: dict[str, bool] = {}   # False while on the current path, then True
    order: list[tuple[ScenarioFn, tuple[ScenarioCall, ...]]] = []
    for start in out:
        if start in done:
            continue
        trail = [start]
        done[start] = False
        stack = [iter(out[start])]
        while stack:
            for c in stack[-1]:
                m = c.callee
                state = done.get(m)
                if state is None:
                    trail.append(m)
                    done[m] = False
                    stack.append(iter(out[m]))
                    break
                if not state:
                    cyc = trail[trail.index(m):] + [m]
                    raise ScenarioError(
                        "call graph has a cycle: " + " -> ".join(map(clip_token, cyc)))
            else:
                stack.pop()
                n = trail.pop()
                done[n] = True
                order.append((fn_of[n], tuple(out[n])))
    order.reverse()
    return tuple(order)


@dataclass(frozen=True, slots=True)
class ScenarioSummary:
    name: str
    iterations: int
    cpi: float
    instructions: int
    transitions: int                      # boundary crossings; call and return each count
    promotions: int
    edge_crossings: tuple[tuple[str, str, int], ...]   # (from, to, crossings)

    @property
    def switches_per_1k(self) -> float:
        """Transitions per 1000 instructions.  Raises ScenarioError, as
        `estimate_overhead` does, when a total does not convert to a float."""
        if self.instructions == 0:
            raise ZeroDivisionError("scenario executes no instructions")
        try:
            return 1000.0 * self.transitions / self.instructions
        except OverflowError:
            raise ScenarioError("scenario totals too large for a finite overhead") from None


def run_scenario(sc: Scenario) -> ScenarioSummary:
    """Total everything up in one pass over the call graph.

    Walks the fns in `_call_order`, callers before callees, counting each
    fn's executions over all iterations: the entry point runs `iterations`
    times, and each call adds its caller's executions times `count` to its
    callee.  O(fns + calls), iterative, exact ints.  The order is the one
    `sc` keeps, derived at most once per `Scenario` value (`parse_scenario`
    has already derived it); the totals are computed afresh on every call.
    Fns that never execute add nothing and leave no edge.  The
    naive-expansion oracle in the test suite checks the totals.
    """
    comp = {f.name: f.comp for f in sc.fns}
    execs = dict.fromkeys(comp, 0)
    execs[sc.root] = sc.iterations
    instructions = transitions = promotions = 0
    edges: dict[tuple[str, str], int] = {}
    for f, calls in _call_order(sc):
        n = execs[f.name]
        if not n:
            continue
        instructions += n * f.instr
        for c in calls:
            k = n * c.count
            execs[c.callee] += k
            promotions += k * c.promote
            if comp[c.callee] != f.comp:
                transitions += 2 * k
                e = (f.name, c.callee)
                edges[e] = edges.get(e, 0) + 2 * k
    edge_list = tuple(sorted((g, h, v) for (g, h), v in edges.items()))
    return ScenarioSummary(sc.name, sc.iterations, sc.cpi, instructions,
                           transitions, promotions, edge_list)


# ---------------------------------------------------------------------------
# Cost model


@dataclass(frozen=True, slots=True)
class CostModel:
    """Cycle costs of domain transitions.

    hot and cold are charged per transition, and a cross-compartment call
    makes two (call and return).  `switch_breakdown` weighs a whole round
    trip, so its total is the cost of two transitions, not one.

    A hot switch finds the capability table entries and switcher lines
    resident; a cold one pays the misses.  hot_fraction is the long-run share
    of hot switches.  promotion is the one-time cost of lifting an allocation
    into a shared window (derive, bound, bookkeeping).  Every cost is finite
    and >= 0, and hot_fraction lies in [0, 1]; other values raise ValueError.
    """

    hot: float = 400.0
    cold: float = 950.0
    hot_fraction: float = 0.999
    promotion: float = 250.0

    def __post_init__(self) -> None:
        for name in ("hot", "cold", "promotion"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be a finite cost >= 0, got {value}")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must lie in [0, 1]")

    def effective_switch(self) -> float:
        return self.hot_fraction * self.hot + (1.0 - self.hot_fraction) * self.cold


@dataclass(frozen=True, slots=True)
class OverheadEstimate:
    switches_per_1k: float
    extra_cycles: float
    baseline_cycles: float
    percent: float


def estimate_overhead(summary: ScenarioSummary, cm: CostModel | None = None) -> OverheadEstimate:
    """Switching overhead relative to the same instruction stream without
    compartment boundaries, at the scenario's baseline CPI (`summary.cpi`).

    Raises ScenarioError when the scenario executes no instructions, when
    the cpi is not positive and finite, and when the totals are too large
    for the float results: a total that does not convert to a float, or a
    rate, cycle count or percentage that comes out infinite or NaN."""
    cm = cm or CostModel()
    if summary.instructions == 0:
        raise ScenarioError("scenario executes no instructions; overhead undefined")
    if not 0 < summary.cpi < math.inf:
        raise ScenarioError("baseline cpi must be positive and finite")
    try:
        rate = summary.switches_per_1k
        extra = summary.transitions * cm.effective_switch() + summary.promotions * cm.promotion
        baseline = summary.instructions * summary.cpi
    except OverflowError:
        raise ScenarioError("scenario totals too large for a finite overhead") from None
    percent = 100.0 * extra / baseline
    isfinite = math.isfinite
    if not (isfinite(rate) and isfinite(extra) and isfinite(baseline) and isfinite(percent)):
        raise ScenarioError("scenario totals too large for a finite overhead")
    return OverheadEstimate(
        switches_per_1k=rate,
        extra_cycles=extra,
        baseline_cycles=baseline,
        percent=percent,
    )


# ---------------------------------------------------------------------------
# Single-switch latency breakdown

# Per-op cycle weights for one retired instruction inside a switch sequence.
# The capability-pair invoke, the ddc installs, the frame seal and the ddc
# read carry the pipeline and permission-check costs; everything else is
# near-free ALU/memory work.  Cold weights add the table and pair misses.
HOT_WEIGHTS = {
    Op.LOAD_PAIR_BRANCH: 45.0,
    Op.INSTALL_DDC: 40.0,
    Op.SEAL: 25.0,
    Op.READ_DDC: 15.0,
}
HOT_DEFAULT = 0.7
COLD_WEIGHTS = {
    Op.LOAD_PAIR_BRANCH: 120.0,
    Op.INSTALL_DDC: 110.0,
    Op.SEAL: 70.0,
    Op.READ_DDC: 40.0,
}
COLD_DEFAULT = 1.6

PHASES = ("gate_prologue", "switcher", "trampoline_enter",
          "callee_body", "trampoline_return", "gate_epilogue")
SWITCH_PHASES = tuple(p for p in PHASES if p != "callee_body")

_BREAKDOWN_CONFIG = """
compartment origin code=256 data=256 stack=4096 heap=256
compartment target code=256 data=256 stack=4096 heap=256
"""


@dataclass(frozen=True, slots=True)
class SwitchBreakdown:
    """Cycle attribution of one full cross-compartment round trip."""

    phase_cycles: dict[str, float]
    phase_instructions: dict[str, int]
    total: float                 # switch phases only, callee body excluded

    @property
    def instructions(self) -> int:
        """Every retired instruction in the round trip."""
        return sum(self.phase_instructions.values())

    def largest_phase(self) -> str:
        return max(SWITCH_PHASES, key=lambda p: self.phase_cycles[p])


def _weight_table(weights: dict[Op, float], default: float) -> dict[str, float]:
    """The weight of each op, keyed by its mnemonic as the machine's dispatch
    keys its handlers: a str hashes in C, an Op member through the
    Python-level Enum.__hash__.  HALT has no entry, since the halt that ends
    a phase is neither weighed nor counted."""
    return {op._value_: weights.get(op, default) for op in Op if op is not Op.HALT}


_HOT_TABLE = _weight_table(HOT_WEIGHTS, HOT_DEFAULT)
_COLD_TABLE = _weight_table(COLD_WEIGHTS, COLD_DEFAULT)


@functools.cache
def _breakdown_start() -> tuple[ImageSnapshot, BootImage, int]:
    """The canonical two-compartment image with the callee's `retl`
    installed: its snapshot, the image itself, which every call restores
    and runs on, and that `retl`'s entry. Parsed, planned and booted at the
    first call, once per process: it depends on no input."""
    img = boot_init(compute_layout(parse_config(_BREAKDOWN_CONFIG), memory_size=1 << 16))
    entry = install_function(img, "target", [retl()])
    return img.snapshot(), img, entry


def switch_breakdown(cold: bool = False) -> SwitchBreakdown:
    """Execute one round trip on a canonical two-compartment image, phase by
    phase through the runtime's phase helpers, and weigh the step records
    each phase leaves.

    The image is booted once per process and kept, with an `ImageSnapshot`
    of its booted state; each call first restores the kept image from the
    snapshot in place (`ImageSnapshot.restore`), so no call sees what an
    earlier one ran, and the result holds nothing of the image. Calls
    share that one image, so two threads must not call this at once."""
    from .runtime import (GateDescriptor, gate_call, switcher_switch,
                          trampoline_enter, trampoline_return)

    snapshot, img, entry = _breakdown_start()
    snapshot.restore(img)
    st = img.machine
    gate = GateDescriptor("origin", "target", entry, dest=0)
    phases = (
        ("gate_prologue", lambda: gate_call(img, gate, [0])),
        ("switcher", lambda: switcher_switch(img)),
        ("trampoline_enter", lambda: trampoline_enter(img)),
        ("callee_body", lambda: run(st, img.mem, img.program, max_steps=1)),
        ("trampoline_return", lambda: trampoline_return(img)),
        ("switcher", lambda: switcher_switch(img)),
        ("gate_epilogue", lambda: run(st, img.mem, img.program, max_steps=10_000)),
    )

    weights = _COLD_TABLE if cold else _HOT_TABLE
    cycles = dict.fromkeys(PHASES, 0.0)
    counts = dict.fromkeys(PHASES, 0)
    events = st.events = []
    for phase, run_phase in phases:
        events.clear()
        run_phase()
        if st.fault is not None:
            raise RuntimeError(f"breakdown round trip faulted: {st.fault}")
        # Added one step at a time, in step order, so every float sum is
        # the one a per-step `+=` on the phase's entry gives.
        program = img.program
        c, n = cycles[phase], counts[phase]
        for ev in events:
            if ev[0] == "step":
                w = weights.get(program[ev[1]].op._value_)
                if w is not None:
                    c += w
                    n += 1
        cycles[phase], counts[phase] = c, n

    total = sum(cycles[p] for p in SWITCH_PHASES)
    return SwitchBreakdown(cycles, counts, total)


def format_breakdown(bd: SwitchBreakdown, label: str) -> str:
    rows = [("phase", "instructions", "cycles")]
    for p in PHASES:
        rows.append((p, str(bd.phase_instructions[p]), f"{bd.phase_cycles[p]:.1f}"))
    rows.append(("switch total (callee excluded)", "", f"{bd.total:.1f}"))
    out = [f"single-switch latency, {label}:"]
    out += ["  " + line for line in format_table(rows)]
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Reports


def emit_report(summary: ScenarioSummary, est: OverheadEstimate,
                cm: CostModel) -> str:
    """Machine-parseable one-line-per-fact report; parse_report inverts it."""
    lines = [
        f"scenario name={summary.name} iterations={summary.iterations}",
        f"totals instructions={summary.instructions} transitions={summary.transitions} "
        f"promotions={summary.promotions}",
        f"rate switches_per_1k={est.switches_per_1k:.3f}",
        f"cost hot={cm.hot} cold={cm.cold} hot_fraction={cm.hot_fraction} "
        f"promotion={cm.promotion} cpi={summary.cpi}",
        f"overhead extra_cycles={est.extra_cycles:.3f} "
        f"baseline_cycles={est.baseline_cycles:.3f} percent={est.percent:.3f}",
    ]
    for f, g, n in summary.edge_crossings:
        lines.append(f"edge from={f} to={g} crossings={n}")
    return "\n".join(lines)


_KV_RE = re.compile(r"(\w+)=(\S+)")
# A count of at most MAX_INT_LEN digits, which `int` reads on every Python.
_EDGE_RE = re.compile(rf"edge from=(\w+) to=(\w+) crossings=(\d{{1,{MAX_INT_LEN}}})")


def parse_report(text: str) -> dict:
    """Parse an emitted report back into nested dictionaries.

    `_KV_RE` defines the result.  Each line is stripped; the text before
    its first space is its kind, and the `_KV_RE` pairs of the rest are its
    facts, a repeated key's last value winning.  An `edge` line appends
    `(from, to, crossings)` to `edges`; a line of any other kind replaces
    that kind's dict.  A line that is exactly `edge from=F to=G crossings=N`,
    the shape `emit_report` gives every edge, is read by one whole-line
    match, `_EDGE_RE`, instead: on such a line the two readings agree.

    A malformed report raises ScenarioError, prefixed `line N: `: an `edge`
    line missing `from`, `to` or `crossings`, a count `int` cannot read (or
    longer than `MAX_INT_LEN` characters), and a line of kind `edges`, which
    would replace the edge list.
    """
    out: dict = {"edges": []}
    edges = out["edges"]
    edge = _EDGE_RE.fullmatch
    for line_no, raw in enumerate(text.splitlines(), start=1):
        try:
            m = edge(raw)
            if m is not None:
                f, g, n = m.groups()
                edges.append((f, g, int(n)))
                continue
            line = raw.strip()
            if not line:
                continue
            kind, _, rest = line.partition(" ")
            kv = dict(_KV_RE.findall(rest))
            if kind == "edge":
                for key in ("from", "to", "crossings"):
                    if key not in kv:
                        raise ScenarioError(f"edge line without {key}=")
                n = read_int(kv["crossings"], 10, ScenarioError)
                if n is None:
                    raise ScenarioError(f"bad crossings count {clip_token(kv['crossings'])!r}")
                edges.append((kv["from"], kv["to"], n))
            elif kind == "edges":
                raise ScenarioError("'edges' names the edge list, not a line kind")
            else:
                out[kind] = kv
        except ScenarioError as e:
            raise ScenarioError(f"line {line_no}: {e}") from None
    return out


def format_report_table(summary: ScenarioSummary, est: OverheadEstimate,
                        cm: CostModel) -> str:
    """Human-facing summary table."""
    rows = [
        ("scenario", summary.name),
        ("iterations", str(summary.iterations)),
        ("instructions", str(summary.instructions)),
        ("transitions", str(summary.transitions)),
        ("promotions", str(summary.promotions)),
        ("switches per 1k instr", f"{est.switches_per_1k:.3f}"),
        ("effective switch cost", f"{cm.effective_switch():.2f} cycles"),
        ("baseline cpi", f"{summary.cpi}"),
        ("extra cycles", f"{est.extra_cycles:.1f}"),
        ("baseline cycles", f"{est.baseline_cycles:.1f}"),
        ("overhead", f"{est.percent:.3f} %"),
    ]
    w = max(len(r[0]) for r in rows)
    lines = [f"{k.ljust(w)}  {v}" for k, v in rows]
    if summary.edge_crossings:
        lines.append("")
        lines.append("crossings by call edge:")
        for f, g, n in summary.edge_crossings:
            lines.append(f"  {f} -> {g}: {n}")
    return "\n".join(lines)
