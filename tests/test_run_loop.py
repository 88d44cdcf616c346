"""The run loop against the spec, on seeded random whole programs.

`spec_check.assert_matches_spec` runs `run` and `spec.run` on independent
copies of each case, once as one whole-budget call and once step by step
through `step` and `spec.step`, and compares the whole state, memory bytes
and tags, the event list and any exception.

- Bare machines: seeded random programs over region sets with overlaps,
  nesting, gaps and a region at base 0, with branches to untagged, sealed,
  non-executable, out-of-bounds and privileged targets, with
  load-pair-branch pairs that are good, untagged, not executable or aimed
  into the privileged window, and with r18 swaps (r18 tagged, sealed or
  null).
- Booted images of the bundled two_comp, three_comp_shared and sandbox_host
  configurations: gate round trips installed with `install_call_site`, and
  random programs at each compartment's first user instruction, which reach
  the mailbox's r18 swap, the switcher through a sealed entry, and the
  table and other compartments' data.
- Slot runs: runs of 36 legacy `stc` or `ldc` on one address register,
  which `run` retires in one pass, each cut at one of its edges (the
  budget, a bounds, alignment or end-of-memory miss, a capability operand,
  a load into the address register, a region edge, the switcher window, a
  store no record holds), with events on and off; and slots holding
  `POISON` that `run` must not fetch.
"""

import ast
import dataclasses
import importlib.resources as ir
import random
from collections import Counter
from pathlib import Path

import pytest

from capcomp import machine
from capcomp.capability import (
    NULL_CAP,
    PERM_ALL,
    FaultKind,
    Perm,
    check_access,
    int_cap,
    make_root,
    seal,
    set_address,
)
from capcomp.isa import (
    REG_FP,
    REG_LINK,
    REG_SHARED,
    REG_ZERO,
    Op,
    addi,
    bcap,
    calll,
    cvtd,
    halt,
    installddc,
    ldc,
    ldi,
    lpb,
    mov,
    nop,
    readddc,
    movi,
    restrict,
    retl,
    sealr,
    setaddr,
    setbounds,
    stc,
    sti,
)
from capcomp.layout import SWITCHER_CODE, boot_init, compute_layout, install_function, parse_config
from capcomp.machine import Fault, MachineState
from capcomp.memory import CAP_SLOT, TaggedMemory
from capcomp.runtime import GateDescriptor, RegionArg, install_call_site

import spec
from spec_check import assert_matches_spec
from test_fuzz_stream import POISON

PROGRAM_LEN = 64
MEM_SIZE = 1024
OTYPE = 9
SHARED = (512, 768)
PAIR_SLOTS = (768, 832, 896, 960)
REGS = (1, 2, 3, 4, 5, 6, 7, REG_ZERO, REG_SHARED, REG_LINK)


# --------------------------------------------------------------------------
# Seeded cases

# Hand-picked region sets, beside the random ones: disjoint neighbours from
# base 0, a nested region before and after its host, overlaps, gaps, an
# exact duplicate, an empty and an inverted region.
REGION_SETS = [
    [],
    [(0, 16, 0), (16, 32, 1), (32, 64, 2)],
    [(14, 18, 2), (10, 30, 1)],
    [(10, 30, 1), (14, 18, 2)],
    [(0, 20, 0), (10, 30, 1), (25, 40, 2)],
    [(8, 16, 0), (40, 56, 1)],
    [(20, 30, 0), (20, 30, 1), (0, 8, 2)],
    [(5, 5, 3), (30, 20, 1), (0, 64, 4)],
    [(4, 12, 5), (0, 32, 1), (2, 6, 7), (28, 60, 2)],
]

CODE_WINDOWS = ((0, PROGRAM_LEN), (0, PROGRAM_LEN + 6), (8, 40), (16, PROGRAM_LEN), (0, 8))


def random_regions(rng):
    if rng.random() < 0.5:
        return [tuple(r) for r in rng.choice(REGION_SETS)]
    regions = []
    for _ in range(rng.randrange(5)):
        base = rng.choice((0, rng.randrange(PROGRAM_LEN)))
        regions.append((base, base + rng.randrange(1, 30), rng.randrange(6)))
    return regions


def random_cap(rng):
    """One register or memory value: plain integers, code capabilities
    in and out of bounds, sealed or not executable, data and shared-region
    capabilities, and sealed pair pointers for load-pair-branch."""
    kind = rng.randrange(11)
    if kind == 0:
        return NULL_CAP
    if kind == 1:
        return int_cap(rng.choice((rng.randrange(80), rng.randrange(*SHARED), rng.randrange(MEM_SIZE + 16))))
    if kind in (2, 3, 4):
        base, top = rng.choice(CODE_WINDOWS)
        perms = Perm.EXECUTE | (Perm.LOAD if rng.random() < 0.5 else 0)
        cap = set_address(make_root(base, top, perms), rng.randrange(max(0, base - 2), top + 3))
        if kind == 4 and rng.random() < 0.5:
            cap = seal(cap, OTYPE)
        return cap
    if kind == 5:
        return set_address(make_root(0, PROGRAM_LEN, Perm.LOAD | Perm.STORE),
                           rng.randrange(PROGRAM_LEN))
    if kind == 6:
        return set_address(make_root(0, SHARED[0], PERM_ALL), rng.randrange(80))
    if kind == 7:
        return make_root(*SHARED, Perm.LOAD | Perm.STORE | Perm.LOAD_CAP | Perm.STORE_CAP)
    slot = rng.choice(PAIR_SLOTS) + rng.choice((0, 0, 0, 8))
    pair = set_address(make_root(PAIR_SLOTS[0], MEM_SIZE, Perm.LOAD_CAP), slot)
    return pair if kind == 8 and rng.random() < 0.3 else seal(pair, rng.choice((OTYPE, OTYPE, 11)))


def random_ins(rng, calm):
    """One instruction; a share `calm` of them, on top, are NOPs, so that
    runs fall through across region edges."""
    r = lambda: rng.choice(REGS)
    k = rng.randrange(24)
    if k < 7 or rng.random() < calm:
        return nop()
    if k == 7:
        return halt()
    if k == 8:
        return addi(r(), r(), rng.randrange(-3, 4))
    if k == 9:
        return mov(r(), r())
    if k in (10, 11, 12, 13):
        ctor = (ldi, sti, ldc, stc)[k - 10]
        return ctor(r(), r(), rng.choice((0, 0, 8, 16, -8)), cap=rng.random() < 0.4)
    if k in (14, 15):
        return bcap(r())
    if k == 16:
        return calll(r())
    if k == 17:
        return retl()
    if k in (18, 19):
        return lpb(r(), r())
    if k == 20:
        return installddc(r())
    if k == 21:
        return readddc(r())
    if k == 22:
        return setaddr(r(), r(), r())
    return rng.choice((cvtd(r(), r(), r()), sealr(r(), r(), OTYPE)))


def build_case(seed):
    """A machine, its memory and its program; the same seed builds an
    identical, independent copy."""
    rng = random.Random(seed)
    calm = rng.choice((0.0, 0.8, 0.95, 0.95))
    program = [random_ins(rng, calm) for _ in range(PROGRAM_LEN)]
    mem = TaggedMemory(MEM_SIZE)
    mem.data[:] = bytes((i * 13 + seed) & 0xFF for i in range(MEM_SIZE))
    for slot in range(0, MEM_SIZE, 4 * CAP_SLOT):
        mem.store_cap(slot, random_cap(rng))
    # Load-pair-branch pairs: good, untagged first, not executable first,
    # into the privileged window.
    for slot in PAIR_SLOTS:
        base, top = rng.choice(CODE_WINDOWS)
        first = set_address(make_root(base, top, Perm.EXECUTE), rng.randrange(base, top))
        variant = rng.choice((0, 0, 0, 1, 2, 3))
        if variant == 1:
            first = int_cap(first.address)
        elif variant == 2:
            first = set_address(make_root(0, PROGRAM_LEN, Perm.LOAD), first.address)
        elif variant == 3:
            first = set_address(make_root(0, PROGRAM_LEN, Perm.EXECUTE), rng.randrange(48, 56))
        mem.store_cap(slot, first)
        mem.store_cap(slot + CAP_SLOT, random_cap(rng))

    st = MachineState()
    for i in REGS:
        st.regs[i] = random_cap(rng)
    st.regs[REG_ZERO] = NULL_CAP
    if rng.random() < 0.5:
        st.regs[7] = seal(set_address(make_root(PAIR_SLOTS[0], MEM_SIZE, Perm.LOAD_CAP),
                                      rng.choice(PAIR_SLOTS)), OTYPE)
    base, top = rng.choice(CODE_WINDOWS)
    perms = rng.choice((Perm.EXECUTE, Perm.EXECUTE, Perm.EXECUTE | Perm.LOAD) * 3 + (Perm.LOAD,))
    st.code = make_root(base, top, perms)
    if rng.random() < 0.05:
        st.code = seal(st.code, OTYPE)
    elif rng.random() < 0.05:
        st.code = int_cap(0)
    st.pc = (rng.randrange(base, top) if rng.random() < 0.8
             else rng.randrange(max(0, base - 1), top + 2))
    st.ddc = make_root(0, SHARED[0], PERM_ALL)
    st.current_compartment = rng.choice((None, 0, 9))
    st.code_regions = random_regions(rng)
    st.switcher_bounds = rng.choice(((0, PROGRAM_LEN), (48, 56), (48, 56), (0, 0)))
    # {OTYPE, 11} holds every otype `random_cap` seals with
    st.lpb_otypes = rng.choice((frozenset({OTYPE, 11}), frozenset({OTYPE})))
    # r18: the shared region, sealed now and then (no swap), or null.
    shared = make_root(*SHARED, Perm.LOAD | Perm.STORE | Perm.LOAD_CAP | Perm.STORE_CAP)
    st.regs[REG_SHARED] = rng.choice((shared, shared, seal(shared, OTYPE), NULL_CAP, NULL_CAP))
    st.events = [] if rng.random() < 0.5 else None
    if rng.random() < 0.05:
        st.halted = True
    elif rng.random() < 0.08:
        # A pending legacy bounds fault inside the shared region, or running
        # past its top: with r18 tagged and unsealed, the loop swaps the
        # first before its first step.
        st.fault = Fault(FaultKind.BOUNDS, rng.choice((SHARED[0] + 8, SHARED[1] - 4)),
                         st.pc, 8, True)
    return st, mem, program


def blocked_entry(st, program):
    """Whether the pending fault is a branch to an executable target that
    `_blocked_entry` refused: a way into the privileged window."""
    f = st.fault
    if f is None or f.kind is not FaultKind.PERMISSION or f.pc >= len(program):
        return False
    ins = program[f.pc]
    if ins.op is Op.BRANCH_CAP:
        target = st.regs[ins.a]
    elif ins.op is Op.RETURN_LOCAL:
        target = st.regs[REG_LINK]
    elif ins.op is Op.CALL_LOCAL:
        target = set_address(st.code, st.regs[ins.a].address)
    else:
        return False
    return check_access(target, target.address, 1, Perm.EXECUTE) is None


def max_steps_of(seed):
    rng = random.Random(seed ^ 0x5EED)
    return rng.choice((0, 1, 2, rng.randrange(400), rng.randrange(400), rng.randrange(400)))


def test_the_spec_shares_no_code_with_the_machine():
    # From the machine it takes only the state, fault and error types, and
    # it imports no private name from anywhere.
    tree = ast.parse(Path(spec.__file__).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert not any(isinstance(node, ast.Import) for node in ast.walk(tree))
    assert {name for module, name in imports if module == "capcomp.machine"} == {
        "MachineState", "Fault", "MachineError"}
    assert not [name for _, name in imports if name.startswith("_")]


CASES = range(1000)


def test_run_matches_the_spec():
    # The first 600 cases are also compared step by step, over a prefix.
    seen = Counter()
    for seed in CASES:
        budget = max_steps_of(seed)
        steps = budget % 40 if seed < 600 else 0
        comp = build_case(seed)[0].current_compartment
        st, _, program = assert_matches_spec(lambda: build_case(seed), budget, steps=steps,
                                             label=seed)
        if st.events is not None and (st.fault or st.halted):
            # the step-by-step comparison met a step refused with MachineError
            seen["step refused"] += sum(e[0] == "step" for e in st.events) < steps
        seen["retired"] += st.instructions_retired > 0
        seen["switch"] += st.switches > 0
        seen["swap"] += st.ddc_swap_events > 0
        seen["halt"] += st.halted
        seen["events"] += st.events is not None and st.instructions_retired > 0
        seen["budget 0"] += budget == 0
        seen["compartment changed"] += st.current_compartment != comp
        if st.fault is not None:
            seen[st.fault.kind] += 1
            seen["blocked entry"] += blocked_entry(st, program)
            # a legacy bounds fault that a tagged r18 did not take
            seen["swap refused"] += (st.fault.kind is FaultKind.BOUNDS and st.fault.ddc_access
                                     and st.regs[REG_SHARED].tag)
    # The cases reach every path the loop takes.
    for what in ("retired", "switch", "swap", "swap refused", "halt", "events", "budget 0",
                 "compartment changed", "blocked entry", "step refused", *FaultKind):
        assert seen[what] > 0, what


def test_fall_through_walks_every_region_set():
    # A straight run of NOPs over the whole program crosses every region
    # edge in order, from outside a region into a nested, overlapping or
    # later one, and out again.
    rng = random.Random(2)
    for regions in REGION_SETS + [random_regions(rng) for _ in range(400)]:
        def case():
            st = MachineState()
            st.code = make_root(0, PROGRAM_LEN, Perm.EXECUTE)
            st.code_regions = list(regions)
            st.events = []
            return st, TaggedMemory(CAP_SLOT), [nop()] * PROGRAM_LEN
        st = assert_matches_spec(case, PROGRAM_LEN + 1, steps=0, label=regions)[0]
        assert st.instructions_retired == PROGRAM_LEN and st.fault.kind is FaultKind.BOUNDS


# --------------------------------------------------------------------------
# Booted images

BOOTED = ("two_comp.cfg", "three_comp_shared.cfg", "sandbox_host.cfg")
BOOT_MEM = 1 << 16
ADDR_REGS = (1, 2, 3, 4, 5)
BOOT_REGS = (0, *ADDR_REGS, 6, 7, REG_ZERO, REG_SHARED, REG_FP, REG_LINK)
BOOT_CASES = 60            # random programs per compartment


def boot(cfg):
    text = ir.files("capcomp").joinpath("fixtures", cfg).read_text()
    return boot_init(compute_layout(parse_config(text), BOOT_MEM))


def compartments(plan):
    return [c.name for c in plan.config.compartments]


def gate_case(cfg, caller, callee, args, body):
    """A booted machine at a call site from `caller` to `body`, installed in
    `callee`, with the return value to r0."""
    img = boot(cfg)
    img.enter(caller)
    entry = install_function(img, callee, body)
    install_call_site(img, GateDescriptor(caller, callee, entry, dest=0), args)
    img.machine.events = []
    return img.machine, img.mem, img.program


@pytest.mark.parametrize("cfg", BOOTED)
def test_gate_round_trips_match_the_spec(cfg):
    plan = boot(cfg).plan
    for caller in compartments(plan):
        heap = plan.region(f"{caller}.heap").base
        for callee in plan.comp_ids:
            if callee == caller:
                continue
            # An increment of the scalar argument, and a store and load
            # through a region argument the gate derives from the caller's ddc.
            for args, body, want in (
                    ([41], [addi(0, 0, 1), retl()], 42),
                    ([RegionArg(heap, 16), 7], [sti(1, 0, 8, cap=True),
                                               ldi(0, 0, 8, cap=True), retl()], 7)):
                st, mem, _ = assert_matches_spec(
                    lambda: gate_case(cfg, caller, callee, args, body), 10_000,
                    label=(caller, callee, args))
                assert st.halted and st.fault is None and st.switches == 2
                assert st.regs[0].address == want


def program_case(cfg, name, seed):
    """A booted machine entered in compartment `name`, about to run a seeded
    random program at its first user instruction.  The program is made of
    short pieces that mostly retire: legacy accesses to the compartment's
    view, to the exception region in its r18 (a swap there, and back at the
    next private access) and to the edges of every data region; a
    capability derived from the ddc and used; a call into its own code,
    another compartment's or the switcher's; and an invoke of its sealed
    entry, which enters the switcher."""
    rng = random.Random(f"{cfg}/{name}/{seed}")
    img = boot(cfg)
    img.enter(name)
    plan, shared = img.plan, img.machine.regs[REG_SHARED]
    lo, hi = plan.ddc_bounds[name]
    edges = [a for r in plan.regions if r.kind != "code" for a in (r.base, r.top - 4, r.top)]
    pools = [range(lo, hi, 8)] * 3 + [edges] + [range(shared.base, shared.top, 4)] * shared.tag
    addr = lambda: rng.choice(rng.choice(pools))
    calls = [img.user_entry(name) + 3] * 4 + [SWITCHER_CODE[0] + 9] + [
        plan.region(f"{c}.code").base for c in compartments(plan)]
    reg = lambda: rng.choice(BOOT_REGS)
    body = []
    while len(body) < 24:
        a, kind = rng.choice(ADDR_REGS), rng.randrange(8)
        if kind < 4:
            ctor = rng.choice((ldi, sti, ldi, sti, ldc, stc))
            body += [movi(a, addr()), ctor(reg(), a, rng.choice((0, 0, 8, -8, 32)))]
        elif kind == 4:
            ctor = rng.choice((ldi, sti, ldc, stc))
            body += [movi(a, addr()), addi(6, a, rng.choice((8, 32, 4096))),
                     cvtd(6, a, 6), ctor(reg(), 6, rng.choice((0, 8, 32)), cap=True)]
        elif kind == 5:
            body += [movi(a, rng.choice(calls)),
                     rng.choice((calll(a), calll(a), bcap(REG_LINK), retl()))]
        elif kind == 6:
            body += [movi(a, plan.sealed_cap_addr(name)), ldc(7, a, 0), lpb(7, 9)]
        else:
            body.append(rng.choice((
                installddc(reg()), readddc(reg()), sealr(reg(), reg(), 3), mov(reg(), reg()),
                addi(reg(), reg(), rng.randrange(-16, 17)), setaddr(reg(), reg(), reg()),
                restrict(reg(), reg(), rng.randrange(64)), setbounds(reg(), reg(), reg(), reg()),
                nop(), halt())))
    install_function(img, name, body, at=img.user_entry(name))
    img.machine.events = [] if rng.random() < 0.7 else None
    return img.machine, img.mem, img.program


@pytest.mark.parametrize("cfg", BOOTED)
def test_booted_random_programs_match_the_spec(cfg):
    seen = Counter()
    for name in compartments(boot(cfg).plan):
        for seed in range(BOOT_CASES):
            st = assert_matches_spec(lambda: program_case(cfg, name, seed), 200,
                                     label=(name, seed))[0]
            seen["retired"] += st.instructions_retired > 0
            seen["switch"] += st.switches > 0
            seen["swap"] += st.ddc_swap_events > 0
            seen["halt"] += st.halted
            if st.fault is not None:
                seen[st.fault.kind] += 1
    # The programs reach the switcher through a sealed entry, and the
    # exception region's swap where the configuration has one.
    want = {"retired", "switch", "halt", FaultKind.TAG, FaultKind.PERMISSION,
            FaultKind.BOUNDS, FaultKind.ALIGNMENT}
    if cfg == "three_comp_shared.cfg":
        want.add("swap")
    assert want <= set(seen), seen


# --------------------------------------------------------------------------
# Slot runs: a run of legacy `stc` or `ldc` on one address register, which
# `run` retires in one pass, against the spec, stopped at each of its edges.

RUN_LEN = 36               # accesses in a run, slot j at pc j
STOP = 20                  # the slot each case's edge falls on
RUN_BASE = 0x400           # the address register's value; slot j reaches RUN_BASE + 32 j
RUN_MEM = 0x1000
RUN_ADDR = 5               # the address register
RUN_DATA = (1, 2, 3, 4, REG_ZERO, 6, 7)
MOVED = 0x200              # where a load into the address register moves the run
WIDE = dataclasses.replace(make_root(0, 64, Perm.LOAD), otype=1 << 16)   # no record holds it

# Where each case puts slot STOP.  "address register" makes it an access
# with r5 as its data register: a load run hands it back, a store run
# keeps going over it.
RUN_STOPS = ("budget", "ddc top", "misaligned", "end of memory", "capability operand",
             "address register", "region edge", "window entry", "window exit",
             "record overflow")


def run_value(rng, j):
    """A register or slot value: tagged and untagged, sealed, null."""
    return rng.choice((
        NULL_CAP, int_cap(j * 977), make_root(16 * j, 16 * j + 64, PERM_ALL),
        seal(make_root(0, 32, Perm.LOAD), OTYPE),
        set_address(make_root(0, RUN_MEM, Perm.LOAD | Perm.LOAD_CAP), 8 * j)))


def slot_run_case(ctor, stop, events):
    """A machine at pc 0 of a run of RUN_LEN `ctor` accesses through r5,
    then a halt, with `stop` placed at slot STOP; returns the case and the
    step budget."""
    rng = random.Random(f"{ctor.__name__}/{stop}")
    program = [ctor(RUN_DATA[j % len(RUN_DATA)], RUN_ADDR, 32 * j) for j in range(RUN_LEN)]
    program.append(halt())
    mem = TaggedMemory(RUN_BASE + 32 * STOP if stop == "end of memory" else RUN_MEM)
    mem.data[:] = bytes((i * 7 + 3) & 0xFF for i in range(mem.size))
    for slot in range(RUN_BASE, mem.size, CAP_SLOT):
        mem.store_cap(slot, run_value(rng, slot // CAP_SLOT))
    st = MachineState()
    for r in RUN_DATA:
        st.regs[r] = run_value(rng, r)
    st.regs[REG_ZERO] = NULL_CAP
    st.regs[RUN_ADDR] = int_cap(RUN_BASE)
    st.code = make_root(0, len(program), Perm.EXECUTE)
    st.ddc = make_root(0, RUN_MEM, PERM_ALL)
    st.code_regions = [(0, len(program), 0)]
    st.current_compartment = 0
    st.events = [] if events else None
    budget = 100
    if stop == "budget":
        budget = STOP
    elif stop == "ddc top":
        st.ddc = make_root(0, RUN_BASE + 32 * STOP + CAP_SLOT // 2, PERM_ALL)
    elif stop == "misaligned":
        program[STOP] = ctor(1, RUN_ADDR, 32 * STOP + 8)
    elif stop == "end of memory":
        st.ddc = make_root(0, 1 << 20, PERM_ALL)
    elif stop == "capability operand":
        # r5 holds a plain address, so the operand faults where the ddc would not
        program[STOP] = ctor(1, RUN_ADDR, 32 * STOP, cap=True)
    elif stop == "address register":
        program[STOP] = ctor(RUN_ADDR, RUN_ADDR, 32 * STOP)
        mem.store_cap(RUN_BASE + 32 * STOP, int_cap(RUN_BASE + MOVED))
    elif stop == "region edge":
        st.code_regions = [(0, STOP, 0), (STOP, len(program), 1)]
    elif stop == "window entry":
        st.switcher_bounds = (STOP, STOP + 6)
    elif stop == "window exit":
        # Inside the window the accesses are physical; past it the ddc,
        # which lacks the capability permissions, checks them.
        st.switcher_bounds = (0, STOP)
        st.ddc = make_root(0, RUN_MEM, Perm.LOAD | Perm.STORE)
    elif stop == "record overflow":
        program[STOP] = ctor(8, RUN_ADDR, 32 * STOP)
        st.regs[8] = WIDE
    return (lambda: (st, mem, program)), budget


# What each stop leaves: (pc, retired, fault kind, the slot runs `run`
# retired as [first, end) pairs).  A load into the address register is
# stepped, and the run after it reads from the moved base.
RUN_OUTCOMES = {
    "budget": (STOP, STOP, None, [(1, STOP)]),
    "ddc top": (STOP, STOP, FaultKind.BOUNDS, [(1, STOP)]),
    "misaligned": (STOP, STOP, FaultKind.ALIGNMENT, [(1, STOP)]),
    "end of memory": (STOP, STOP, FaultKind.ADDRESS, [(1, STOP)]),
    "capability operand": (STOP, STOP, FaultKind.TAG, [(1, STOP)]),
    "region edge": (RUN_LEN, RUN_LEN + 1, None, [(1, STOP), (STOP + 1, RUN_LEN)]),
    "window entry": (RUN_LEN, RUN_LEN + 1, None, [(1, STOP), (STOP + 7, RUN_LEN)]),
    "window exit": (STOP, STOP, FaultKind.PERMISSION, []),
    "record overflow": (STOP, STOP, None, [(1, STOP)]),
}


@pytest.fixture
def slot_runs(monkeypatch):
    """The [first, end) span of every slot run that retired a slot."""
    spans = []
    inner = machine._slot_run

    def recorded(st, mem, program, first, p, stop):
        try:
            return inner(st, mem, program, first, p, stop)
        finally:
            if st.pc > p:
                spans.append((p, st.pc))

    monkeypatch.setattr(machine, "_slot_run", recorded)
    return spans


@pytest.mark.parametrize("events", [True, False], ids=["events", "no events"])
@pytest.mark.parametrize("ctor, stop", [
    (ctor, stop) for ctor in (stc, ldc) for stop in RUN_STOPS
    if not (ctor is ldc and stop == "record overflow")],   # a load decodes any slot
    ids=lambda v: getattr(v, "__name__", v))
def test_slot_runs_match_the_spec(ctor, stop, events, slot_runs):
    case, budget = slot_run_case(ctor, stop, events)
    st = assert_matches_spec(case, budget, label=(ctor.__name__, stop, events))[0]
    if stop == "address register":
        moved = ctor is ldc
        want = (RUN_LEN, RUN_LEN + 1, None,
                [(1, STOP), (STOP + 1, RUN_LEN)] if moved else [(1, RUN_LEN)])
        assert st.regs[RUN_ADDR].address == RUN_BASE + MOVED * moved
    else:
        want = RUN_OUTCOMES[stop]
    fault = st.fault and st.fault.kind
    assert (st.pc, st.instructions_retired, fault, slot_runs) == want
    assert st.halted == (want[0] == RUN_LEN)
    if events:
        accesses = [e for e in st.events if e[0] == "access"]
        assert len(accesses) == st.instructions_retired - st.halted


def poisoned_case(poison_at, **changes):
    """A 36-slot store run with `POISON` at `poison_at`."""
    program = [stc(RUN_DATA[j % len(RUN_DATA)], RUN_ADDR, 32 * j) for j in range(RUN_LEN)]
    program.append(halt())
    if "misaligned" in changes:
        program[changes.pop("misaligned")] = stc(1, RUN_ADDR, 8)
    program[poison_at] = POISON
    st = MachineState()
    st.regs[RUN_ADDR] = int_cap(RUN_BASE)
    st.code = make_root(0, len(program), Perm.EXECUTE)
    st.ddc = make_root(0, RUN_MEM, PERM_ALL)
    st.events = []
    for name, value in changes.items():
        setattr(st, name, value)
    return st, TaggedMemory(RUN_MEM), program


@pytest.mark.parametrize("where", ["past the budget", "past a one-step budget",
                                   "past the code top", "past a fault"])
def test_a_slot_run_never_reads_the_slot_after_its_last(where):
    # Fetching `POISON` fails the test: `run` reads no slot the per-step
    # loop would not fetch, whether the run or the access that would start
    # one ends at the budget, or the run ends at the code capability's top
    # or at a faulting access.
    last = 1 if where == "past a one-step budget" else STOP
    if where in ("past the budget", "past a one-step budget"):
        st, mem, program = poisoned_case(last)
        machine.run(st, mem, program, max_steps=last)
        assert (st.pc, st.instructions_retired, st.fault) == (last, last, None)
    elif where == "past the code top":
        st, mem, program = poisoned_case(STOP, code=make_root(0, STOP, Perm.EXECUTE))
        machine.run(st, mem, program)
        assert (st.pc, st.instructions_retired, st.fault.kind) == (STOP, STOP, FaultKind.BOUNDS)
    else:
        st, mem, program = poisoned_case(STOP + 1, misaligned=STOP)
        machine.run(st, mem, program)
        assert (st.pc, st.instructions_retired, st.fault.kind) == (STOP, STOP, FaultKind.ALIGNMENT)
    assert [e[1] for e in st.events if e[0] == "step"] == list(range(last + bool(st.fault)))


def test_a_gate_round_trip_retires_its_save_restore_and_scrub_as_slot_runs(slot_runs):
    # The save (29 stores), the restore (28 loads: r0 receives the result)
    # and the scrub (33 stores); each run's first access is stepped.
    st, mem, program = gate_case("two_comp.cfg", "app", "lib", [41], [addi(0, 0, 1), retl()])
    machine.run(st, mem, program, 10_000)
    assert st.halted and st.regs[0].address == 42
    assert [end - first + 1 for first, end in slot_runs] == [29, 28, 33]
