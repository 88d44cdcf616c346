"""Compartment configuration, memory layout planning, and boot.

The planner turns a textual configuration into a deterministic placement:
switcher data and the capability table come first (invisible to every
compartment), then each compartment's private span (data, stack, heap).
A shared region in overlap mode is physically placed between its two owners'
spans and both owners' default data capabilities are widened over it, which
is why such sharing is limited to exactly two owners and why the sharing
graph must embed into a disjoint union of paths.  Exception-mode regions are
placed after all spans and are covered by no default data capability at all.

Code lives in a separate instruction-index space: the switcher occupies the
first slots, then one region per compartment, each starting with a private
trampoline copy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .capability import Capability, Perm, int_cap, make_root, seal, set_address
from .memory import CAP_SLOT, GRANULE, TaggedMemory

# otype assignments: 0 is reserved for unsealed values.
FRAME_OTYPE = 1            # switch frames sealed by the switcher
ENTRY_OTYPE_BASE = 2       # compartment i's entry capability uses 2 + i

# Table entry layout (hidden from compartments): one 128-byte slot per
# compartment or sandbox.
TABLE_ENTRY = 128
OFF_PCC = 0
OFF_DDC = 32
OFF_SP = 64                # resume stack pointer (updated on every switch)
OFF_TRAMP = 72             # trampoline entry, instruction index

SWITCHER_DATA_SIZE = 64    # the (pcc, locator) pair of the switcher itself
SWITCHER_CODE_SLOTS = 64   # reserved instruction slots for the switcher
TRAMP_SLOTS = 8            # reserved slots for each compartment's trampoline

SANDBOX_SCRATCH = 4096     # private scratch bytes carved per sandbox
SANDBOX_CODE = 64          # instruction slots carved per sandbox

DDC_PERMS = Perm.LOAD | Perm.STORE | Perm.LOAD_CAP | Perm.STORE_CAP
PCC_PERMS = Perm.EXECUTE    # no LOAD: code slots alias data addresses
ENTRY_PERMS = Perm.LOAD_CAP | Perm.INVOKE


class ConfigError(ValueError):
    """Configuration text rejected; message carries the 1-based line."""


class LayoutError(Exception):
    """Placement impossible for a structural reason."""


class InfeasibleOverlap(LayoutError):
    """The overlap-sharing graph does not embed into a path ordering."""


class AllocError(Exception):
    """A bump allocator ran out of its region."""


@dataclass(frozen=True, slots=True)
class CompartmentDecl:
    name: str
    code: int
    data: int
    stack: int
    heap: int


@dataclass(frozen=True, slots=True)
class SharedDecl:
    name: str
    size: int
    a: str
    b: str
    mode: str                  # "overlap" or "exception"


@dataclass(frozen=True, slots=True)
class SandboxDecl:
    name: str
    host: str


@dataclass(frozen=True, slots=True)
class CompartmentConfig:
    compartments: tuple[CompartmentDecl, ...]
    shared: tuple[SharedDecl, ...]
    sandboxes: tuple[SandboxDecl, ...]

    def compartment(self, name: str) -> CompartmentDecl:
        for c in self.compartments:
            if c.name == name:
                return c
        raise KeyError(name)


_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def _attr_int(tok: str, key: str, line_no: int) -> int:
    if not tok.startswith(key + "="):
        raise ConfigError(f"line {line_no}: expected {key}=<n>, got {tok!r}")
    try:
        return int(tok[len(key) + 1:], 0)
    except ValueError:
        raise ConfigError(f"line {line_no}: bad integer in {tok!r}") from None


def _check_size(value: int, what: str, line_no: int, minimum: int = 0,
                granularity: int = GRANULE) -> int:
    if value < minimum or value % granularity != 0:
        raise ConfigError(
            f"line {line_no}: {what} must be a multiple of {granularity} and >= {minimum}, got {value}")
    return value


def parse_config(text: str) -> CompartmentConfig:
    """Parse the compartment description language.

    Lines: `compartment <name> code=<n> data=<n> stack=<n> heap=<n>`,
    `shared <name> size=<n> between <a>,<b> mode=overlap|exception`,
    `sandbox <fn> host=<comp>`.  Blank lines and `#` comments are ignored.
    The first declared compartment is the boot-default one.
    """
    comps: list[CompartmentDecl] = []
    shared: list[SharedDecl] = []
    sandboxes: list[SandboxDecl] = []
    names: set[str] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]

        if kind == "compartment":
            if len(toks) != 6:
                raise ConfigError(f"line {line_no}: compartment takes name and 4 size attributes")
            name = toks[1]
            if not _NAME_RE.match(name):
                raise ConfigError(f"line {line_no}: bad compartment name {name!r}")
            if name in names:
                raise ConfigError(f"line {line_no}: duplicate name {name!r}")
            names.add(name)
            # Byte sizes are capability-slot multiples so every span boundary
            # (and with it every stack top and sealed-entry slot) stays
            # naturally aligned for capability storage.
            code = _check_size(_attr_int(toks[2], "code", line_no), "code size", line_no, 32)
            data = _check_size(_attr_int(toks[3], "data", line_no), "data size", line_no, 32,
                               CAP_SLOT)
            stack = _check_size(_attr_int(toks[4], "stack", line_no), "stack size", line_no, 32,
                                CAP_SLOT)
            heap = _check_size(_attr_int(toks[5], "heap", line_no), "heap size", line_no, 0,
                               CAP_SLOT)
            comps.append(CompartmentDecl(name, code, data, stack, heap))

        elif kind == "shared":
            if len(toks) != 6 or toks[3] != "between":
                raise ConfigError(
                    f"line {line_no}: expected shared <name> size=<n> between <a>,<b> mode=<m>")
            name = toks[1]
            if not _NAME_RE.match(name):
                raise ConfigError(f"line {line_no}: bad shared region name {name!r}")
            if name in names:
                raise ConfigError(f"line {line_no}: duplicate name {name!r}")
            names.add(name)
            size = _check_size(_attr_int(toks[2], "size", line_no), "shared size", line_no, 32,
                               CAP_SLOT)
            pair = toks[4].split(",")
            if len(pair) != 2 or not all(pair):
                raise ConfigError(f"line {line_no}: between takes exactly two compartments")
            a, b = pair
            if a == b:
                raise ConfigError(f"line {line_no}: a region cannot be shared with itself")
            mode = toks[5]
            if not mode.startswith("mode=") or mode[5:] not in ("overlap", "exception"):
                raise ConfigError(f"line {line_no}: mode must be overlap or exception")
            shared.append(SharedDecl(name, size, a, b, mode[5:]))

        elif kind == "sandbox":
            if len(toks) != 3:
                raise ConfigError(f"line {line_no}: expected sandbox <fn> host=<comp>")
            name = toks[1]
            if not _NAME_RE.match(name):
                raise ConfigError(f"line {line_no}: bad sandbox name {name!r}")
            if name in names:
                raise ConfigError(f"line {line_no}: duplicate name {name!r}")
            names.add(name)
            if not toks[2].startswith("host="):
                raise ConfigError(f"line {line_no}: expected host=<comp>")
            sandboxes.append(SandboxDecl(name, toks[2][5:]))

        else:
            raise ConfigError(f"line {line_no}: unknown directive {kind!r}")

    if not comps:
        raise ConfigError("line 1: configuration declares no compartments")
    comp_names = {c.name for c in comps}
    for s in shared:
        for owner in (s.a, s.b):
            if owner not in comp_names:
                raise ConfigError(f"shared region {s.name!r} names unknown compartment {owner!r}")
    for sb in sandboxes:
        if sb.host not in comp_names:
            raise ConfigError(f"sandbox {sb.name!r} names unknown host {sb.host!r}")
    return CompartmentConfig(tuple(comps), tuple(shared), tuple(sandboxes))


# ---------------------------------------------------------------------------
# Placement


@dataclass(frozen=True, slots=True)
class Region:
    """One planned range. Data-space and code-space regions share this type;
    code, switcher_code and sandbox code bases/tops are instruction indices,
    everything else is byte addresses."""

    name: str
    kind: str
    base: int
    top: int
    owners: tuple[str, ...]

    def __contains__(self, addr: int) -> bool:
        return self.base <= addr < self.top


@dataclass(frozen=True, slots=True)
class SandboxPlan:
    name: str
    host: str
    comp_id: int
    code_base: int
    code_top: int
    scratch_base: int
    scratch_top: int


@dataclass(slots=True)
class LayoutPlan:
    config: CompartmentConfig
    memory_size: int
    regions: list[Region]
    placement_order: list[str]
    comp_ids: dict[str, int]
    code_bounds: dict[str, tuple[int, int]]       # full per-compartment code region
    span_bounds: dict[str, tuple[int, int]]       # private data span (data+stack+heap)
    ddc_bounds: dict[str, tuple[int, int]]        # span widened over adjacent windows
    data_base: dict[str, int]
    stack_top: dict[str, int]
    heap_bounds: dict[str, tuple[int, int]]
    shared_bounds: dict[str, tuple[int, int]]
    shared_mode: dict[str, str]
    shared_owners: dict[str, tuple[str, str]]
    sandboxes: dict[str, SandboxPlan]
    table_base: int
    pair_addr: int
    switcher_code: tuple[int, int]
    total_code_slots: int
    data_top: int

    def region(self, name: str) -> Region:
        for r in self.regions:
            if r.name == name:
                return r
        raise KeyError(name)

    def sealed_cap_addr(self, comp: str) -> int:
        """The fixed slot holding a compartment's sealed entry capability."""
        return self.data_base[comp]


def _order_for_adjacency(cfg: CompartmentConfig) -> list[str]:
    """Choose a placement order making every overlap pair adjacent.

    The overlap edges must form a disjoint union of simple paths: a vertex of
    degree three or a cycle cannot be embedded and raises InfeasibleOverlap.
    Deterministic: components are ordered by their earliest-declared member
    and each path starts at its earlier-declared endpoint.
    """
    decl_index = {c.name: i for i, c in enumerate(cfg.compartments)}
    adj: dict[str, list[str]] = {c.name: [] for c in cfg.compartments}
    for s in cfg.shared:
        if s.mode != "overlap":
            continue
        if s.b not in adj[s.a]:        # parallel edges collapse to one adjacency
            adj[s.a].append(s.b)
            adj[s.b].append(s.a)

    for name, nbrs in adj.items():
        if len(nbrs) > 2:
            raise InfeasibleOverlap(
                f"compartment {name!r} would need {len(nbrs)} overlap neighbours; "
                "a span can only touch two")

    seen: set[str] = set()
    components: list[list[str]] = []
    for start in sorted(adj, key=decl_index.get):
        if start in seen:
            continue
        comp_nodes = []
        stack = [start]
        seen.add(start)
        while stack:
            n = stack.pop()
            comp_nodes.append(n)
            for m in adj[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        edges = sum(len(adj[n]) for n in comp_nodes) // 2
        if edges >= len(comp_nodes) and len(comp_nodes) > 1:
            raise InfeasibleOverlap(
                f"overlap sharing among {sorted(comp_nodes)} forms a cycle")
        endpoints = [n for n in comp_nodes if len(adj[n]) <= 1]
        head = min(endpoints, key=decl_index.get)
        path = [head]
        prev = None
        cur = head
        while True:
            nxt = [m for m in adj[cur] if m != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            path.append(cur)
        components.append(path)

    components.sort(key=lambda p: min(decl_index[n] for n in p))
    return [n for p in components for n in p]


def compute_layout(cfg: CompartmentConfig, memory_size: int = 1 << 24) -> LayoutPlan:
    """Plan every region deterministically; identical input, identical plan."""
    order = _order_for_adjacency(cfg)
    comp_ids = {c.name: i for i, c in enumerate(cfg.compartments)}
    next_id = len(cfg.compartments)
    sandbox_ids = {}
    for sb in cfg.sandboxes:
        sandbox_ids[sb.name] = next_id
        next_id += 1

    by_host: dict[str, list[SandboxDecl]] = {}
    for sb in cfg.sandboxes:
        by_host.setdefault(sb.host, []).append(sb)

    regions: list[Region] = []

    # Code space.
    code_cursor = SWITCHER_CODE_SLOTS
    regions.append(Region("switcher_code", "switcher_code", 0, SWITCHER_CODE_SLOTS, ()))
    code_bounds: dict[str, tuple[int, int]] = {}
    sandbox_code: dict[str, tuple[int, int]] = {}
    for name in order:
        decl = cfg.compartment(name)
        carve = len(by_host.get(name, ())) * SANDBOX_CODE
        if decl.code < TRAMP_SLOTS + 8 + carve:
            raise LayoutError(
                f"compartment {name!r} code region too small for its trampoline"
                + (" and sandboxes" if carve else ""))
        base, top = code_cursor, code_cursor + decl.code
        code_bounds[name] = (base, top)
        own_top = top - carve
        regions.append(Region(f"{name}.code", "code", base, own_top, (name,)))
        slice_base = own_top
        for sb in by_host.get(name, ()):
            sandbox_code[sb.name] = (slice_base, slice_base + SANDBOX_CODE)
            regions.append(Region(f"{sb.name}.code", "code",
                                  slice_base, slice_base + SANDBOX_CODE, (sb.name,)))
            slice_base += SANDBOX_CODE
        code_cursor = top
    total_code_slots = code_cursor

    # Data space.
    regions.append(Region("switcher_data", "switcher_data", 0, SWITCHER_DATA_SIZE, ()))
    pair_addr = 0
    table_base = SWITCHER_DATA_SIZE
    table_size = next_id * TABLE_ENTRY
    regions.append(Region("cap_table", "cap_table", table_base, table_base + table_size, ()))
    cursor = table_base + table_size

    overlap_between: dict[tuple[str, str], list[SharedDecl]] = {}
    for s in cfg.shared:
        if s.mode == "overlap":
            overlap_between.setdefault(frozenset((s.a, s.b)), []).append(s)

    span_bounds: dict[str, tuple[int, int]] = {}
    data_base: dict[str, int] = {}
    stack_top: dict[str, int] = {}
    heap_bounds: dict[str, tuple[int, int]] = {}
    shared_bounds: dict[str, tuple[int, int]] = {}
    scratch_bounds: dict[str, tuple[int, int]] = {}
    low_window: dict[str, int] = {}    # ddc extension below the span
    high_window: dict[str, int] = {}   # and above

    for pos, name in enumerate(order):
        decl = cfg.compartment(name)
        sbs = by_host.get(name, ())
        carve = len(sbs) * SANDBOX_SCRATCH
        if sbs and decl.heap < carve + CAP_SLOT:
            raise LayoutError(
                f"compartment {name!r} heap too small to host {len(sbs)} sandbox(es)")
        span_base = cursor
        data_base[name] = cursor
        regions.append(Region(f"{name}.data", "data", cursor, cursor + decl.data, (name,)))
        cursor += decl.data
        regions.append(Region(f"{name}.stack", "stack", cursor, cursor + decl.stack, (name,)))
        cursor += decl.stack
        stack_top[name] = cursor
        heap_top = cursor + decl.heap - carve
        regions.append(Region(f"{name}.heap", "heap", cursor, heap_top, (name,)))
        heap_bounds[name] = (cursor, heap_top)
        cursor += decl.heap - carve
        for sb in sbs:
            scratch_bounds[sb.name] = (cursor, cursor + SANDBOX_SCRATCH)
            regions.append(Region(f"{sb.name}.scratch", "scratch",
                                  cursor, cursor + SANDBOX_SCRATCH, (sb.name,)))
            cursor += SANDBOX_SCRATCH
        span_bounds[name] = (span_base, cursor)

        if pos + 1 < len(order):
            pair = frozenset((name, order[pos + 1]))
            for s in overlap_between.get(pair, ()):
                shared_bounds[s.name] = (cursor, cursor + s.size)
                regions.append(Region(s.name, "shared", cursor, cursor + s.size, (s.a, s.b)))
                high_window[name] = cursor + s.size
                low_window[order[pos + 1]] = min(
                    low_window.get(order[pos + 1], cursor), cursor)
                cursor += s.size

    for s in cfg.shared:
        if s.mode == "exception":
            shared_bounds[s.name] = (cursor, cursor + s.size)
            regions.append(Region(s.name, "shared", cursor, cursor + s.size, (s.a, s.b)))
            cursor += s.size

    if cursor > memory_size:
        raise LayoutError(f"layout needs {cursor:#x} bytes, memory holds {memory_size:#x}")

    ddc_bounds = {}
    for name in order:
        lo, hi = span_bounds[name]
        ddc_bounds[name] = (low_window.get(name, lo), high_window.get(name, hi))

    sandboxes = {}
    for sb in cfg.sandboxes:
        cb, ct = sandbox_code[sb.name]
        scb, sct = scratch_bounds[sb.name]
        sandboxes[sb.name] = SandboxPlan(sb.name, sb.host, sandbox_ids[sb.name],
                                         cb, ct, scb, sct)

    return LayoutPlan(
        config=cfg,
        memory_size=memory_size,
        regions=regions,
        placement_order=order,
        comp_ids={**comp_ids, **sandbox_ids},
        code_bounds=code_bounds,
        span_bounds=span_bounds,
        ddc_bounds=ddc_bounds,
        data_base=data_base,
        stack_top=stack_top,
        heap_bounds=heap_bounds,
        shared_bounds=shared_bounds,
        shared_mode={s.name: s.mode for s in cfg.shared},
        shared_owners={s.name: (s.a, s.b) for s in cfg.shared},
        sandboxes=sandboxes,
        table_base=table_base,
        pair_addr=pair_addr,
        switcher_code=(0, SWITCHER_CODE_SLOTS),
        total_code_slots=total_code_slots,
        data_top=cursor,
    )


def format_region_table(plan: LayoutPlan) -> str:
    """Aligned, human-facing region table."""
    rows = [("region", "kind", "base", "top", "owners")]
    for r in plan.regions:
        rows.append((r.name, r.kind, f"{r.base:#x}", f"{r.top:#x}", ",".join(r.owners) or "-"))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_region_records(plan: LayoutPlan) -> str:
    """Machine-parseable one-line-per-region stream."""
    out = []
    for r in plan.regions:
        owners = ",".join(r.owners) or "-"
        out.append(f"region name={r.name} kind={r.kind} base={r.base} top={r.top} owners={owners}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Boot


@dataclass(slots=True)
class BootImage:
    """A booted machine: planned memory, filled program store, live state."""

    plan: LayoutPlan
    mem: TaggedMemory
    machine: "MachineState"
    program: list
    heap_ptrs: dict[str, int]
    shared_ptrs: dict[str, int]
    user_code_ptrs: dict[str, int]
    tramp_entries: dict[str, int]
    pcc_caps: dict[str, Capability]
    ddc_caps: dict[str, Capability]
    promotion_count: int = 0

    def compartment_id(self, name: str) -> int:
        return self.plan.comp_ids[name]

    def table_slot(self, name: str) -> int:
        return self.plan.table_base + self.plan.comp_ids[name] * TABLE_ENTRY

    def user_entry(self, name: str) -> int:
        """First instruction slot after the trampoline."""
        if name in self.plan.sandboxes:
            return self.plan.sandboxes[name].code_base + TRAMP_SLOTS
        return self.plan.code_bounds[name][0] + TRAMP_SLOTS


def boot_init(plan: LayoutPlan) -> BootImage:
    """Build the boot image: tagged capability table, switcher pair, sealed
    entry capabilities, trampolines, and the initial machine state sitting at
    the default compartment's first user instruction."""
    from . import runtime as _rt     # emitters live there; import is one-way at runtime
    from .machine import MachineState

    mem = TaggedMemory(plan.memory_size)
    cfg = plan.config
    program = [None] * plan.total_code_slots

    switcher_ins = _rt.emit_switcher(plan)
    if len(switcher_ins) > SWITCHER_CODE_SLOTS:
        raise LayoutError("switcher does not fit its reserved slots")
    for i, ins in enumerate(switcher_ins):
        program[i] = ins

    pcc_caps: dict[str, Capability] = {}
    ddc_caps: dict[str, Capability] = {}
    tramp_entries: dict[str, int] = {}

    def emit_tramp(code_base: int) -> None:
        tramp = _rt.emit_trampoline()
        if len(tramp) > TRAMP_SLOTS:
            raise LayoutError("trampoline does not fit its reserved slots")
        for i, ins in enumerate(tramp):
            program[code_base + i] = ins

    for c in cfg.compartments:
        cb, ct = plan.code_bounds[c.name]
        lo, hi = plan.ddc_bounds[c.name]
        pcc_caps[c.name] = make_root(cb, ct, PCC_PERMS)
        ddc_caps[c.name] = make_root(lo, hi, DDC_PERMS)
        tramp_entries[c.name] = cb
        emit_tramp(cb)
    for sb in plan.sandboxes.values():
        pcc_caps[sb.name] = make_root(sb.code_base, sb.code_top, PCC_PERMS)
        ddc_caps[sb.name] = make_root(sb.scratch_base, sb.scratch_top, DDC_PERMS)
        tramp_entries[sb.name] = sb.code_base
        emit_tramp(sb.code_base)

    from .isa import halt as _halt
    filler = _halt()
    for i, ins in enumerate(program):
        if ins is None:
            program[i] = filler

    # Capability table: (pcc, ddc, resume sp, trampoline entry) per entity.
    for name, cid in plan.comp_ids.items():
        slot = plan.table_base + cid * TABLE_ENTRY
        if name in plan.sandboxes:
            sp0 = plan.sandboxes[name].scratch_top
        else:
            sp0 = plan.stack_top[name]
        mem.store_cap(slot + OFF_PCC, pcc_caps[name])
        mem.store_cap(slot + OFF_DDC, ddc_caps[name])
        mem.write_bytes(slot + OFF_SP, sp0.to_bytes(8, "little"))
        mem.write_bytes(slot + OFF_TRAMP, tramp_entries[name].to_bytes(8, "little"))

    # The switcher's own pair: branch target plus the locator capability that
    # becomes its ddc (covers switcher data and the table, nothing else).
    sw_pcc = make_root(0, SWITCHER_CODE_SLOTS, PCC_PERMS)
    locator = make_root(0, plan.table_base + len(plan.comp_ids) * TABLE_ENTRY, DDC_PERMS)
    mem.store_cap(plan.pair_addr, sw_pcc)
    mem.store_cap(plan.pair_addr + 32, locator)

    # One sealed entry capability per compartment, at its data-region base.
    otypes = {FRAME_OTYPE}
    for c in cfg.compartments:
        cid = plan.comp_ids[c.name]
        otype = ENTRY_OTYPE_BASE + cid
        otypes.add(otype)
        entry = make_root(plan.pair_addr, plan.pair_addr + 64, ENTRY_PERMS)
        mem.store_cap(plan.sealed_cap_addr(c.name), seal(entry, otype))

    default = cfg.compartments[0].name
    st = MachineState()
    st.pcc = set_address(pcc_caps[default], plan.code_bounds[default][0] + TRAMP_SLOTS)
    st.ddc = ddc_caps[default]
    st.current_compartment = plan.comp_ids[default]
    st.switcher_bounds = plan.switcher_code
    st.lpb_otypes = frozenset(otypes)
    st.regs[31] = int_cap(plan.stack_top[default])
    st.regs[29] = int_cap(plan.stack_top[default])

    regions = []
    for sb in plan.sandboxes.values():
        regions.append((sb.code_base, sb.code_top, sb.comp_id))
    for c in cfg.compartments:
        cb, ct = plan.code_bounds[c.name]
        regions.append((cb, ct, plan.comp_ids[c.name]))
    st.code_regions = regions

    exc_regions = [s for s in cfg.shared if s.mode == "exception"]
    if exc_regions:
        st.exception_sharing = True
        for s in exc_regions:
            if default in (s.a, s.b):
                lo, hi = plan.shared_bounds[s.name]
                st.regs[18] = make_root(lo, hi, DDC_PERMS)
                break

    return BootImage(
        plan=plan,
        mem=mem,
        machine=st,
        program=program,
        heap_ptrs={c.name: plan.heap_bounds[c.name][0] for c in cfg.compartments},
        shared_ptrs={name: b for name, (b, _) in plan.shared_bounds.items()},
        user_code_ptrs={name: TRAMP_SLOTS for name in plan.comp_ids},
        tramp_entries=tramp_entries,
        pcc_caps=pcc_caps,
        ddc_caps=ddc_caps,
    )


def comp_alloc(img: BootImage, comp: str, size: int) -> int:
    """Bump-allocate from a compartment's private heap.

    Chunks are capability-slot aligned so any allocation can hold
    capabilities."""
    if comp not in img.heap_ptrs:
        raise AllocError(f"unknown compartment {comp!r}")
    size = max(CAP_SLOT, (size + CAP_SLOT - 1) // CAP_SLOT * CAP_SLOT)
    lo, hi = img.plan.heap_bounds[comp]
    ptr = img.heap_ptrs[comp]
    if ptr + size > hi:
        raise AllocError(f"heap of {comp!r} exhausted")
    img.heap_ptrs[comp] = ptr + size
    return ptr


def shared_alloc(img: BootImage, region: str, size: int) -> int:
    """Bump-allocate from a shared region (capability-slot aligned)."""
    if region not in img.shared_ptrs:
        raise AllocError(f"unknown shared region {region!r}")
    size = max(CAP_SLOT, (size + CAP_SLOT - 1) // CAP_SLOT * CAP_SLOT)
    lo, hi = img.plan.shared_bounds[region]
    ptr = img.shared_ptrs[region]
    if ptr + size > hi:
        raise AllocError(f"shared region {region!r} exhausted")
    img.shared_ptrs[region] = ptr + size
    return ptr


def install_function(img: BootImage, owner: str, instructions: list,
                     at: int | None = None) -> int:
    """Copy a function body into an owner's code region; returns its entry.

    With `at` the body is written at that fixed entry (overwriting whatever
    was there, allocation pointer untouched), which lets a call site be
    re-emitted repeatedly without exhausting the region.
    """
    if owner in img.plan.sandboxes:
        base, top = img.plan.sandboxes[owner].code_base, img.plan.sandboxes[owner].code_top
    elif owner in img.plan.code_bounds:
        base, top = img.plan.code_bounds[owner]
        carve = sum(1 for s in img.plan.sandboxes.values() if s.host == owner)
        top -= carve * SANDBOX_CODE
    else:
        raise LayoutError(f"unknown code owner {owner!r}")
    if at is not None:
        if not base + TRAMP_SLOTS <= at or at + len(instructions) > top:
            raise LayoutError(f"fixed entry {at} outside the code region of {owner!r}")
        for i, ins in enumerate(instructions):
            img.program[at + i] = ins
        return at
    ptr = img.user_code_ptrs[owner]
    entry = base + ptr
    if entry + len(instructions) > top:
        raise LayoutError(f"code region of {owner!r} exhausted")
    for i, ins in enumerate(instructions):
        img.program[entry + i] = ins
    img.user_code_ptrs[owner] = ptr + len(instructions)
    return entry


def audit_plan(plan: LayoutPlan) -> list[str]:
    """Structural audit; returns human-readable violations (empty = clean).

    Checks pairwise disjointness per address space, span contiguity, exact
    ddc widening over adjacent windows, switcher invisibility, shared-region
    coverage rules, and sandbox nesting.
    """
    problems: list[str] = []
    data_kinds = {"switcher_data", "cap_table", "data", "stack", "heap", "scratch", "shared"}
    data_regions = [r for r in plan.regions if r.kind in data_kinds]
    code_regions = [r for r in plan.regions if r.kind in ("switcher_code", "code")]

    def overlapping(a: Region, b: Region) -> bool:
        return a.base < b.top and b.base < a.top

    for rs in (data_regions, code_regions):
        for i, a in enumerate(rs):
            for b in rs[i + 1:]:
                if overlapping(a, b):
                    problems.append(f"regions {a.name} and {b.name} overlap")

    for r in plan.regions:
        if r.base >= r.top and r.kind != "heap":
            problems.append(f"region {r.name} is empty or inverted")

    for name in plan.placement_order:
        d = plan.region(f"{name}.data")
        s = plan.region(f"{name}.stack")
        h = plan.region(f"{name}.heap")
        if not (d.top == s.base and s.top == h.base):
            problems.append(f"span of {name} is not contiguous")
        lo, hi = plan.span_bounds[name]
        if d.base != lo:
            problems.append(f"span of {name} does not start at its data region")
        dlo, dhi = plan.ddc_bounds[name]
        expect_lo, expect_hi = lo, hi
        changed = True
        while changed:          # several windows may chain between one pair
            changed = False
            for sname, (b, t) in plan.shared_bounds.items():
                if plan.shared_mode[sname] != "overlap":
                    continue
                if name in plan.shared_owners[sname]:
                    if t == expect_lo:
                        expect_lo = b
                        changed = True
                    if b == expect_hi:
                        expect_hi = t
                        changed = True
        if (dlo, dhi) != (expect_lo, expect_hi):
            problems.append(f"ddc of {name} is {dlo:#x}..{dhi:#x}, expected "
                            f"{expect_lo:#x}..{expect_hi:#x}")

    sw = plan.region("switcher_data")
    tbl = plan.region("cap_table")
    for name in plan.placement_order:
        dlo, dhi = plan.ddc_bounds[name]
        for hidden in (sw, tbl):
            if dlo < hidden.top and hidden.base < dhi:
                problems.append(f"ddc of {name} can see {hidden.name}")

    for sname, (b, t) in plan.shared_bounds.items():
        owners = plan.shared_owners[sname]
        for name in plan.placement_order:
            dlo, dhi = plan.ddc_bounds[name]
            covers = dlo <= b and t <= dhi
            if plan.shared_mode[sname] == "overlap":
                if name in owners and not covers:
                    problems.append(f"owner {name} ddc misses shared region {sname}")
                if name not in owners and dlo < t and b < dhi:
                    problems.append(f"non-owner {name} ddc touches shared region {sname}")
            else:
                if dlo < t and b < dhi:
                    problems.append(f"exception region {sname} visible to ddc of {name}")

    for sb in plan.sandboxes.values():
        hlo, hhi = plan.span_bounds[sb.host]
        if not (hlo <= sb.scratch_base and sb.scratch_top <= hhi):
            problems.append(f"sandbox {sb.name} scratch escapes host span")
        hclo, hchi = plan.code_bounds[sb.host]
        if not (hclo <= sb.code_base and sb.code_top <= hchi):
            problems.append(f"sandbox {sb.name} code escapes host code region")

    return problems
