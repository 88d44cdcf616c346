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
first slots, then one region per compartment followed by one slice per
sandbox it hosts.  Each compartment's and sandbox's region starts with a
private trampoline copy, and its pcc covers that region and nothing else.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

from .capability import NULL_CAP, Perm, int_cap, make_root, seal, set_address
from .isa import REG_FP, REG_SHARED, REG_SP, halt
from .machine import MachineState
from .memory import CAP_SLOT, DEFAULT_SIZE, GRANULE, TaggedMemory

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
FUZZ_SITE_SLOTS = 8        # the most slots one fuzz sequence draws; its halt follows
# fewest own code slots: trampoline, fuzz site, halt
MIN_OWN_CODE = TRAMP_SLOTS + FUZZ_SITE_SLOTS + 1

# Every plan puts the switcher at the same places: its code at slots
# SWITCHER_CODE, its own (pcc, locator) pair at byte PAIR_ADDR, and the
# capability table right after the pair, at byte TABLE_BASE.  The switcher's
# instructions name TABLE_BASE, so they are one constant for every plan.
SWITCHER_CODE = (0, SWITCHER_CODE_SLOTS)
PAIR_ADDR = 0
TABLE_BASE = PAIR_ADDR + SWITCHER_DATA_SIZE

SANDBOX_SCRATCH = 4096     # private scratch bytes carved per sandbox
SANDBOX_CODE = 64          # instruction slots carved per sandbox

DDC_PERMS = Perm.LOAD | Perm.STORE | Perm.LOAD_CAP | Perm.STORE_CAP
PCC_PERMS = Perm.EXECUTE    # no LOAD: code slots alias data addresses
ENTRY_PERMS = Perm.LOAD_CAP | Perm.INVOKE

_HALT = halt()             # fills every code slot nothing was emitted into


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

# The planner's own regions.  A shared region is placed under the name the
# configuration gives it, so no shared region may take one of these.
_SWITCHER_REGIONS = ("switcher_code", "switcher_data", "cap_table")

# The most characters an integer in a configuration or a scenario may be
# written with, sign and prefix included.  4300 is CPython's default limit on
# converting a decimal string to int; the bound is checked before any
# conversion, so an input is read alike on every version, whatever
# `sys.get_int_max_str_digits()` is.
MAX_INT_LEN = 4300

# The largest memory size a plan may have; the tests, demos and bench use 1 MiB
# at most.
MAX_MEMORY_SIZE = 1 << 30

# The most characters of an input token that a configuration or scenario
# parse error echoes.
ECHO_LEN = 64


def clip_token(tok: str) -> str:
    """`tok` as a parse error echoes it: whole when it has at most
    `ECHO_LEN` characters, else its first `ECHO_LEN` followed by "..."."""
    return tok if len(tok) <= ECHO_LEN else tok[:ECHO_LEN] + "..."


def read_int(tok: str, base: int, error: type[Exception], what: str = "") -> int | None:
    """`tok` read as an integer in `base`, or None when it is not one, so the
    caller words that error with its own echo.  The length is checked first:
    a token over `MAX_INT_LEN` characters raises `error`, prefixed by `what`,
    so a long token reads alike on every Python."""
    if len(tok) > MAX_INT_LEN:
        raise error(f"{what}integer longer than {MAX_INT_LEN} characters")
    try:
        return int(tok, base)
    except ValueError:
        return None


def _attr_int(tok: str, key: str) -> int:
    if not tok.startswith(key + "="):
        raise ConfigError(f"expected {key}=<n>, got {clip_token(tok)!r}")
    value = read_int(tok[len(key) + 1:], 0, ConfigError)
    if value is None:
        raise ConfigError(f"bad integer in {clip_token(tok)!r}")
    return value


def _check_size(value: int, what: str, minimum: int = 0, granularity: int = GRANULE) -> int:
    if value < minimum or value % granularity != 0:
        raise ConfigError(
            f"{what} must be a multiple of {granularity} and >= {minimum}, got {value}")
    return value


def _exception_regions(shared) -> dict[str, str]:
    """Map each compartment to the exception-mode region it owns.

    Entering a compartment gives it one exception capability (r18); a second
    exception region would be silently unreachable, so it is a ConfigError.
    """
    region: dict[str, str] = {}
    for s in shared:
        if s.mode != "exception":
            continue
        for owner in (s.a, s.b):
            if owner in region:
                raise ConfigError(
                    f"compartment {clip_token(owner)!r} owns two exception regions, "
                    f"{clip_token(region[owner])!r} and {clip_token(s.name)!r}; "
                    f"at most one is supported")
            region[owner] = s.name
    return region


def parse_config(text: str) -> CompartmentConfig:
    """Parse the compartment description language.

    Lines: `compartment <name> code=<n> data=<n> stack=<n> heap=<n>`,
    `shared <name> size=<n> between <a>,<b> mode=overlap|exception`,
    `sandbox <fn> host=<comp>`.  Blank lines and `#` comments are ignored.
    The first declared compartment is the boot-default one.  An integer
    longer than `MAX_INT_LEN` characters is rejected as such.  A line's
    checks raise without a position; the loop's one `except` adds the
    `line N: ` prefix.
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
        try:
            if kind == "compartment":
                if len(toks) != 6:
                    raise ConfigError("compartment takes name and 4 size attributes")
                name = toks[1]
                if not _NAME_RE.match(name):
                    raise ConfigError(f"bad compartment name {clip_token(name)!r}")
                if name in names:
                    raise ConfigError(f"duplicate name {clip_token(name)!r}")
                names.add(name)
                # Byte sizes are capability-slot multiples so every span boundary
                # (and with it every stack top and sealed-entry slot) stays
                # naturally aligned for capability storage.
                code = _check_size(_attr_int(toks[2], "code"), "code size", 32)
                data = _check_size(_attr_int(toks[3], "data"), "data size", 32, CAP_SLOT)
                stack = _check_size(_attr_int(toks[4], "stack"), "stack size", 32, CAP_SLOT)
                heap = _check_size(_attr_int(toks[5], "heap"), "heap size", 0, CAP_SLOT)
                comps.append(CompartmentDecl(name, code, data, stack, heap))

            elif kind == "shared":
                if len(toks) != 6 or toks[3] != "between":
                    raise ConfigError("expected shared <name> size=<n> between <a>,<b> mode=<m>")
                name = toks[1]
                if not _NAME_RE.match(name):
                    raise ConfigError(f"bad shared region name {clip_token(name)!r}")
                if name in _SWITCHER_REGIONS:
                    raise ConfigError(f"{name!r} names the switcher's own region")
                if name in names:
                    raise ConfigError(f"duplicate name {clip_token(name)!r}")
                names.add(name)
                size = _check_size(_attr_int(toks[2], "size"), "shared size", 32, CAP_SLOT)
                pair = toks[4].split(",")
                if len(pair) != 2 or not all(pair):
                    raise ConfigError("between takes exactly two compartments")
                a, b = pair
                if a == b:
                    raise ConfigError("a region cannot be shared with itself")
                mode = toks[5]
                if not mode.startswith("mode=") or mode[5:] not in ("overlap", "exception"):
                    raise ConfigError("mode must be overlap or exception")
                shared.append(SharedDecl(name, size, a, b, mode[5:]))

            elif kind == "sandbox":
                if len(toks) != 3:
                    raise ConfigError("expected sandbox <fn> host=<comp>")
                name = toks[1]
                if not _NAME_RE.match(name):
                    raise ConfigError(f"bad sandbox name {clip_token(name)!r}")
                if name in names:
                    raise ConfigError(f"duplicate name {clip_token(name)!r}")
                names.add(name)
                if not toks[2].startswith("host="):
                    raise ConfigError("expected host=<comp>")
                sandboxes.append(SandboxDecl(name, toks[2][5:]))

            else:
                raise ConfigError(f"unknown directive {clip_token(kind)!r}")
        except ConfigError as e:
            raise ConfigError(f"line {line_no}: {e}") from None

    if not comps:
        raise ConfigError("line 1: configuration declares no compartments")
    comp_names = {c.name for c in comps}
    for s in shared:
        for owner in (s.a, s.b):
            if owner not in comp_names:
                raise ConfigError(f"shared region {clip_token(s.name)!r} names unknown "
                                  f"compartment {clip_token(owner)!r}")
    _exception_regions(shared)      # the check only; LayoutPlan keeps the map
    for sb in sandboxes:
        if sb.host not in comp_names:
            raise ConfigError(f"sandbox {clip_token(sb.name)!r} names unknown host "
                              f"{clip_token(sb.host)!r}")
    return CompartmentConfig(tuple(comps), tuple(shared), tuple(sandboxes))


# ---------------------------------------------------------------------------
# Placement


_CODE_KINDS = ("switcher_code", "code")     # regions in instruction-index space


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


@dataclass(slots=True)
class LayoutPlan:
    """A placement. `regions` is the plan: each compartment's code, data,
    stack and heap, each sandbox's code slice and scratch, each shared
    region, the switcher's code and data and the capability table, each one
    named `Region`. `region(name)` looks one up by name.

    Beside the regions the plan stores only the configuration and the memory
    size. The rest is derived from those three. On construction:
    `placement_order`, the owner of each `data` region in region order;
    `comp_ids`, the compartments then the sandboxes in declaration order;
    `sandboxes`, each sandbox's declaration by name (its bounds are its
    `<name>.code` and `<name>.scratch` regions); `exception_regions`,
    the exception-mode region each compartment owns, by compartment name
    (what entering it puts in r18); and `ddc_bounds`, every entity's default
    data view, which boot, the fuzzer and `audit_plan` read: a compartment's
    span widened over the overlap windows it owns that abut it, or a
    sandbox's scratch. On each read: `code_bounds`, each compartment's own
    `<name>.code` region, the range of its pcc, so a host's excludes its
    sandboxes' slices; `shared_bounds`; `total_code_slots` and `data_top`.
    The switcher's regions lie where every plan puts them: `SWITCHER_CODE`,
    `PAIR_ADDR` and `TABLE_BASE`.
    """

    config: CompartmentConfig
    memory_size: int
    regions: list[Region]
    placement_order: list[str] = field(init=False, repr=False, compare=False)
    comp_ids: dict[str, int] = field(init=False, repr=False, compare=False)
    sandboxes: dict[str, SandboxDecl] = field(init=False, repr=False, compare=False)
    exception_regions: dict[str, Region] = field(init=False, repr=False, compare=False)
    ddc_bounds: dict[str, tuple[int, int]] = field(init=False, repr=False, compare=False)
    _by_name: dict[str, Region] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._by_name = {r.name: r for r in self.regions}
        self.sandboxes = {sb.name: sb for sb in self.config.sandboxes}
        self.placement_order = [r.owners[0] for r in self.regions if r.kind == "data"]
        names = [c.name for c in self.config.compartments] + list(self.sandboxes)
        self.comp_ids = {name: i for i, name in enumerate(names)}
        self.exception_regions = {
            comp: self._by_name[region]
            for comp, region in _exception_regions(self.config.shared).items()}
        self.ddc_bounds = {name: self._widened_span(name) for name in self.placement_order}
        for sb in self.sandboxes:
            scratch = self._by_name[f"{sb}.scratch"]
            self.ddc_bounds[sb] = (scratch.base, scratch.top)

    def region(self, name: str) -> Region:
        return self._by_name[name]

    def sealed_cap_addr(self, comp: str) -> int:
        """The fixed slot holding a compartment's sealed entry capability."""
        return self._by_name[f"{comp}.data"].base

    def _span(self, name: str) -> list[Region]:
        """A compartment's private span in address order: data, stack, heap,
        then the scratch of each sandbox it hosts."""
        return ([self._by_name[f"{name}.{kind}"] for kind in ("data", "stack", "heap")]
                + [self._by_name[f"{sb.name}.scratch"]
                   for sb in self.config.sandboxes if sb.host == name])

    def _widened_span(self, name: str) -> tuple[int, int]:
        """A compartment's default data view: its span, widened over every
        overlap window it owns that abuts it, until nothing changes (several
        windows may chain between one pair)."""
        windows = [self._by_name[s.name] for s in self.config.shared
                   if s.mode == "overlap" and name in (s.a, s.b)]
        span = self._span(name)
        lo, hi = span[0].base, span[-1].top
        changed = True
        while changed:
            changed = False
            for w in windows:
                if w.top == lo:
                    lo = w.base
                    changed = True
                if w.base == hi:
                    hi = w.top
                    changed = True
        return lo, hi

    @property
    def total_code_slots(self) -> int:
        return max(r.top for r in self.regions if r.kind in _CODE_KINDS)

    @property
    def data_top(self) -> int:
        return max(r.top for r in self.regions if r.kind not in _CODE_KINDS)

    @property
    def code_bounds(self) -> dict[str, tuple[int, int]]:
        code = (self._by_name[f"{n}.code"] for n in self.placement_order)
        return {r.owners[0]: (r.base, r.top) for r in code}

    @property
    def shared_bounds(self) -> dict[str, tuple[int, int]]:
        return {r.name: (r.base, r.top) for r in self.regions if r.kind == "shared"}


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


def compute_layout(cfg: CompartmentConfig, memory_size: int = DEFAULT_SIZE) -> LayoutPlan:
    """Plan every region deterministically; identical input, identical plan.

    `memory_size` must be a positive multiple of GRANULE, at most
    MAX_MEMORY_SIZE. It bounds the code slots as well as the data bytes.
    """
    if memory_size <= 0 or memory_size % GRANULE != 0:
        raise LayoutError(f"memory size must be a positive multiple of {GRANULE}")
    if memory_size > MAX_MEMORY_SIZE:
        raise LayoutError(f"memory size must be at most {MAX_MEMORY_SIZE:#x}")
    order = _order_for_adjacency(cfg)
    by_host: dict[str, list[str]] = {}
    for sb in cfg.sandboxes:
        by_host.setdefault(sb.host, []).append(sb.name)

    regions: list[Region] = []
    placed: set[str] = set()

    def place(name: str, kind: str, base: int, size: int, owners: tuple[str, ...] = ()) -> int:
        if name in placed:
            raise LayoutError(f"two regions are named {name!r}")
        placed.add(name)
        regions.append(Region(name, kind, base, base + size, owners))
        return base + size

    # Code space: each compartment's own region, then its sandboxes' slices.
    cursor = place("switcher_code", "switcher_code", SWITCHER_CODE[0], SWITCHER_CODE_SLOTS)
    for name in order:
        code, sbs = cfg.compartment(name).code, by_host.get(name, ())
        carve = len(sbs) * SANDBOX_CODE
        if code < MIN_OWN_CODE + carve:
            raise LayoutError(
                f"compartment {name!r} code region too small for its trampoline and fuzz site"
                + (" plus its sandboxes" if carve else ""))
        cursor = place(f"{name}.code", "code", cursor, code - carve, (name,))
        for sb in sbs:
            cursor = place(f"{sb}.code", "code", cursor, SANDBOX_CODE, (sb,))
    # Boot fills one program slot per code slot, so code space is bounded
    # like data space.
    if cursor > memory_size:
        raise LayoutError(f"code needs {cursor:#x} slots, memory holds {memory_size:#x}")

    # Data space.
    place("switcher_data", "switcher_data", PAIR_ADDR, SWITCHER_DATA_SIZE)
    entities = len(cfg.compartments) + len(cfg.sandboxes)
    cursor = place("cap_table", "cap_table", TABLE_BASE, entities * TABLE_ENTRY)

    overlap_between: dict[frozenset[str], list[SharedDecl]] = {}
    for s in cfg.shared:
        if s.mode == "overlap":
            overlap_between.setdefault(frozenset((s.a, s.b)), []).append(s)

    # The windows between each adjacent pair sit just above the lower span;
    # the last span's one-name pair matches no window.
    for pos, name in enumerate(order):
        decl, sbs = cfg.compartment(name), by_host.get(name, ())
        carve = len(sbs) * SANDBOX_SCRATCH
        if sbs and decl.heap < carve + CAP_SLOT:
            raise LayoutError(
                f"compartment {name!r} heap too small to host {len(sbs)} sandbox(es)")
        cursor = place(f"{name}.data", "data", cursor, decl.data, (name,))
        cursor = place(f"{name}.stack", "stack", cursor, decl.stack, (name,))
        cursor = place(f"{name}.heap", "heap", cursor, decl.heap - carve, (name,))
        for sb in sbs:
            cursor = place(f"{sb}.scratch", "scratch", cursor, SANDBOX_SCRATCH, (sb,))
        for s in overlap_between.get(frozenset(order[pos:pos + 2]), ()):
            cursor = place(s.name, "shared", cursor, s.size, (s.a, s.b))

    for s in cfg.shared:
        if s.mode == "exception":
            cursor = place(s.name, "shared", cursor, s.size, (s.a, s.b))

    if cursor > memory_size:
        raise LayoutError(f"layout needs {cursor:#x} bytes, memory holds {memory_size:#x}")

    return LayoutPlan(config=cfg, memory_size=memory_size, regions=regions)


def format_table(rows: list[tuple[str, ...]]) -> list[str]:
    """Left-aligned columns two spaces apart, with a dash rule under the
    header row `rows[0]`; trailing spaces are stripped from every row."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return lines


def format_region_table(plan: LayoutPlan) -> str:
    """Aligned, human-facing region table."""
    rows = [("region", "kind", "base", "top", "owners")]
    for r in plan.regions:
        rows.append((r.name, r.kind, f"{r.base:#x}", f"{r.top:#x}", ",".join(r.owners) or "-"))
    return "\n".join(format_table(rows))


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
    """A booted machine: planned memory, filled program store, live state.

    The capability table in `mem` is the one copy of each entity's pcc,
    ddc, resume stack pointer and trampoline entry: the switcher loads a
    callee's from it, and so does `enter`. `next_free` maps each region
    that `comp_alloc`, `shared_alloc` and `install_function` take from
    (every compartment heap, every shared region and every entity's code
    region) to its first free address or slot.

    `snapshot()` freezes the image's whole state into an `ImageSnapshot`,
    whose `image()` builds a fresh image from it and whose `restore()`
    puts an existing image back in that state: boot once, run many."""

    plan: LayoutPlan
    mem: TaggedMemory
    machine: MachineState
    program: list
    next_free: dict[str, int]

    def snapshot(self) -> ImageSnapshot:
        """This image's state as it is now, frozen; see `ImageSnapshot`."""
        st = self.machine
        machine = []
        for f in fields(MachineState):
            value = getattr(st, f.name)
            is_list = isinstance(value, list)
            machine.append((f.name, tuple(value) if is_list else value, is_list))
        return ImageSnapshot(self.plan, bytes(self.mem.data), bytes(self.mem.tags),
                             tuple(self.program), tuple(self.next_free.items()),
                             tuple(machine))

    def table_slot(self, name: str) -> int:
        return TABLE_BASE + self.plan.comp_ids[name] * TABLE_ENTRY

    def user_entry(self, name: str) -> int:
        """First instruction slot after the trampoline."""
        return self.plan.region(f"{name}.code").base + TRAMP_SLOTS

    def enter(self, name: str) -> None:
        """Put the machine in compartment `name`: the pcc and ddc of its
        table entry with the pc at its first user instruction, sp and fp at
        its stack top, and in r18 the exception region it owns (null if
        none)."""
        plan = self.plan
        if name not in plan.comp_ids or name in plan.sandboxes:
            raise LayoutError(f"{clip_token(name)!r} is not a compartment")
        st = self.machine
        slot = self.table_slot(name)
        st.pcc = set_address(self.mem.load_cap(slot + OFF_PCC), self.user_entry(name))
        st.ddc = self.mem.load_cap(slot + OFF_DDC)
        st.current_compartment = plan.comp_ids[name]
        st.regs[REG_SP] = st.regs[REG_FP] = int_cap(plan.region(f"{name}.stack").top)
        exc = plan.exception_regions.get(name)
        st.regs[REG_SHARED] = (NULL_CAP if exc is None
                               else make_root(exc.base, exc.top, DDC_PERMS))


@dataclass(frozen=True, slots=True)
class ImageSnapshot:
    """One image's whole state, immutable: memory `data` and `tags` as
    bytes, the program as a tuple, `next_free` as its items, and every
    `MachineState` field as (name, value, was a list), each list held as a
    tuple. The plan is held as it is; nothing writes a plan after planning.

    `restore(img)` writes that whole state into an existing image of the
    same plan, in place: memory, program and `next_free` are overwritten,
    and every `MachineState` field is set, each list as a new list. A run
    that restores one kept image reuses its memory, whose pages are
    already resident, instead of faulting in a fresh mapping. `image()`
    builds an empty `BootImage` and restores into it, so `restore` is the
    one path that sets an image's state. Neither shares anything mutable
    with the snapshot, so a snapshot taken once can start any number of
    independent runs."""

    plan: LayoutPlan
    data: bytes
    tags: bytes
    program: tuple
    next_free: tuple[tuple[str, int], ...]
    machine: tuple[tuple[str, object, bool], ...]

    def restore(self, img: BootImage) -> None:
        """Put `img` in this snapshot's state. `img` must hold this
        snapshot's plan itself; any other raises ValueError."""
        if img.plan is not self.plan:
            raise ValueError("restore into an image of another plan")
        img.mem.data[:] = self.data
        img.mem.tags[:] = self.tags
        img.program[:] = self.program
        img.next_free.clear()
        img.next_free.update(self.next_free)
        st = img.machine
        for name, value, is_list in self.machine:
            setattr(st, name, list(value) if is_list else value)

    def image(self) -> BootImage:
        img = BootImage(plan=self.plan, mem=TaggedMemory(self.plan.memory_size),
                        machine=MachineState(), program=[], next_free={})
        self.restore(img)
        return img


def boot_init(plan: LayoutPlan) -> BootImage:
    """Build the boot image: tagged capability table, switcher pair, sealed
    entry capabilities, trampolines, and the initial machine state sitting at
    the default compartment's first user instruction."""
    from . import runtime as _rt     # the switcher and trampoline live there

    mem = TaggedMemory(plan.memory_size)
    cfg = plan.config
    program = [_HALT] * plan.total_code_slots
    program[:len(_rt.SWITCHER)] = _rt.SWITCHER

    next_free: dict[str, int] = {}
    code_regions = []

    # Capability table: (pcc, ddc, resume sp, trampoline entry) per entity.
    # Each entity's pcc is exactly its own `<name>.code` region, which starts
    # with its trampoline copy; a sandbox's stack tops its view, its scratch.
    for name, cid in plan.comp_ids.items():
        code = plan.region(f"{name}.code")
        view = plan.ddc_bounds[name]
        sp0 = view[1] if name in plan.sandboxes else plan.region(f"{name}.stack").top
        program[code.base:code.base + TRAMP_SLOTS] = _rt.TRAMPOLINE
        next_free[code.name] = code.base + TRAMP_SLOTS
        code_regions.append((code.base, code.top, cid))
        slot = TABLE_BASE + cid * TABLE_ENTRY
        mem.store_cap(slot + OFF_PCC, make_root(code.base, code.top, PCC_PERMS))
        mem.store_cap(slot + OFF_DDC, make_root(*view, DDC_PERMS))
        mem.write_bytes(slot + OFF_SP, sp0.to_bytes(8, "little"))
        mem.write_bytes(slot + OFF_TRAMP, code.base.to_bytes(8, "little"))
    for r in plan.regions:
        if r.kind in ("heap", "shared"):
            next_free[r.name] = r.base

    # The switcher's own pair: branch target plus the locator capability that
    # becomes its ddc (covers switcher data and the table, nothing else).
    sw_pcc = make_root(*SWITCHER_CODE, PCC_PERMS)
    locator = make_root(PAIR_ADDR, TABLE_BASE + len(plan.comp_ids) * TABLE_ENTRY, DDC_PERMS)
    mem.store_cap(PAIR_ADDR, sw_pcc)
    mem.store_cap(PAIR_ADDR + CAP_SLOT, locator)

    # One sealed entry capability per compartment, at its data-region base.
    otypes = {FRAME_OTYPE}
    for c in cfg.compartments:
        cid = plan.comp_ids[c.name]
        otype = ENTRY_OTYPE_BASE + cid
        otypes.add(otype)
        entry = make_root(PAIR_ADDR, PAIR_ADDR + SWITCHER_DATA_SIZE, ENTRY_PERMS)
        mem.store_cap(plan.sealed_cap_addr(c.name), seal(entry, otype))

    st = MachineState()
    st.switcher_bounds = SWITCHER_CODE
    st.lpb_otypes = frozenset(otypes)
    st.code_regions = code_regions

    img = BootImage(plan=plan, mem=mem, machine=st, program=program, next_free=next_free)
    img.enter(cfg.compartments[0].name)
    return img


def _cap_slots(size: int) -> int:
    """`size` bytes rounded up to whole capability slots, at least one."""
    return max(CAP_SLOT, (size + CAP_SLOT - 1) // CAP_SLOT * CAP_SLOT)


def _bump(img: BootImage, region: str, size: int) -> int | None:
    """Take `size` bytes or slots from the front of a region's free space
    and return where they start, or None when they do not fit."""
    ptr = img.next_free[region]
    if ptr + size > img.plan.region(region).top:
        return None
    img.next_free[region] = ptr + size
    return ptr


def comp_alloc(img: BootImage, comp: str, size: int) -> int:
    """Bump-allocate from a compartment's private heap.

    Chunks are capability-slot aligned so any allocation can hold
    capabilities."""
    region = f"{comp}.heap"
    if region not in img.next_free:
        raise AllocError(f"unknown compartment {comp!r}")
    ptr = _bump(img, region, _cap_slots(size))
    if ptr is None:
        raise AllocError(f"heap of {comp!r} exhausted")
    return ptr


def shared_alloc(img: BootImage, region: str, size: int) -> int:
    """Bump-allocate from a shared region (capability-slot aligned)."""
    if region not in img.next_free or img.plan.region(region).kind != "shared":
        raise AllocError(f"unknown shared region {region!r}")
    ptr = _bump(img, region, _cap_slots(size))
    if ptr is None:
        raise AllocError(f"shared region {region!r} exhausted")
    return ptr


def install_function(img: BootImage, owner: str, instructions: Sequence,
                     at: int | None = None) -> int:
    """Copy a function body into an owner's code region; returns its entry.

    With `at` the body is written at that fixed entry (overwriting whatever
    was there, allocation pointer untouched), which lets a call site be
    re-emitted repeatedly without exhausting the region.
    """
    region = f"{owner}.code"
    if region not in img.next_free:
        raise LayoutError(f"unknown code owner {clip_token(owner)!r}")
    if at is not None:
        code = img.plan.region(region)
        if not code.base + TRAMP_SLOTS <= at or at + len(instructions) > code.top:
            raise LayoutError(f"fixed entry {at} outside the code region of {owner!r}")
        entry = at
    else:
        entry = _bump(img, region, len(instructions))
        if entry is None:
            raise LayoutError(f"code region of {owner!r} exhausted")
    img.program[entry:entry + len(instructions)] = instructions
    return entry


def audit_plan(plan: LayoutPlan) -> list[str]:
    """Structural audit; returns human-readable violations (empty = clean).

    Checks pairwise disjointness per address space, span contiguity, and,
    on `plan.ddc_bounds`, every compartment's and sandbox's view as boot
    writes it, switcher invisibility and the shared-region coverage rules;
    then sandbox nesting.
    """
    problems: list[str] = []
    data_kinds = {"switcher_data", "cap_table", "data", "stack", "heap", "scratch", "shared"}
    data_regions = [r for r in plan.regions if r.kind in data_kinds]
    code_regions = [r for r in plan.regions if r.kind in _CODE_KINDS]

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

    cfg = plan.config
    for name in plan.placement_order:
        span = plan._span(name)
        if any(a.top != b.base for a, b in zip(span, span[1:])):
            problems.append(f"span of {name} is not contiguous")

    sw = plan.region("switcher_data")
    tbl = plan.region("cap_table")
    for name, (dlo, dhi) in plan.ddc_bounds.items():
        for hidden in (sw, tbl):
            if dlo < hidden.top and hidden.base < dhi:
                problems.append(f"ddc of {name} can see {hidden.name}")

    for s in cfg.shared:
        w = plan.region(s.name)
        b, t = w.base, w.top
        for name, (dlo, dhi) in plan.ddc_bounds.items():
            covers = dlo <= b and t <= dhi
            if s.mode == "overlap":
                if name in (s.a, s.b) and not covers:
                    problems.append(f"owner {name} ddc misses shared region {s.name}")
                if name not in (s.a, s.b) and dlo < t and b < dhi:
                    problems.append(f"non-owner {name} ddc touches shared region {s.name}")
            else:
                if dlo < t and b < dhi:
                    problems.append(f"exception region {s.name} visible to ddc of {name}")

    # A sandbox's code slice lies after its host's own code region and
    # inside the code size the host declared; its scratch lies inside the
    # data, stack and heap the host declared.  The span itself cannot be the
    # yardstick: its last region is the last sandbox's own scratch.
    for sb in cfg.sandboxes:
        decl = cfg.compartment(sb.host)
        lo = plan.region(f"{sb.host}.data").base
        hi = plan.region(f"{sb.host}.heap").base + decl.heap
        scratch = plan.region(f"{sb.name}.scratch")
        if not (lo <= scratch.base and scratch.top <= hi):
            problems.append(f"sandbox {sb.name} scratch escapes host span")
        code, host = plan.region(f"{sb.name}.code"), plan.region(f"{sb.host}.code")
        if not (host.top <= code.base and code.top <= host.base + decl.code):
            problems.append(f"sandbox {sb.name} code escapes host code region")

    return problems
