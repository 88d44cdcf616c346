"""The run loop, checked against the loop it replaced.

`ref_step` and `ref_run` are the interpreter loop as it was when `run`
called `step` once per instruction: every step re-tests the code
capability's tag, seal and execute bit, and every retire scans
`code_regions` from the front.  The machine's `run` and `step` must leave
exactly the state these leave: pc, code, ddc, registers, current
compartment, fault, halt flag, every counter, the event list, and memory
bytes and tags.  The cases are seeded random programs over
region sets with overlaps, nesting, gaps and a region at base 0, with
branches to untagged, sealed, non-executable, out-of-bounds and privileged
targets, and with r18 swaps (r18 tagged or null).
"""

import random
from collections import Counter

import pytest

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
    retl,
    sealr,
    setaddr,
    stc,
    sti,
)
from capcomp.machine import (
    _HANDLERS,
    _EXECUTE,
    Fault,
    MachineError,
    MachineState,
    _fault,
    _int_and,
    handle_fault_ddc_swap,
    run,
    step,
)
from capcomp.memory import CAP_SLOT, TaggedMemory

PROGRAM_LEN = 64
MEM_SIZE = 1024
OTYPE = 9
SHARED = (512, 768)
PAIR_SLOTS = (768, 832, 896, 960)
REGS = (1, 2, 3, 4, 5, 6, 7, REG_ZERO, REG_SHARED, REG_LINK)


# --------------------------------------------------------------------------
# The reference: the loop that called `step` per instruction.

def ref_retire(st, pc):
    st.instructions_retired += 1
    st.pc = pc
    for base, top, comp in st.code_regions:
        if base <= pc < top:
            st.current_compartment = comp
            break


def ref_step(st, mem, program):
    if st.fault is not None:
        raise MachineError("step with a pending fault; clear or handle it first")
    if st.halted:
        raise MachineError("step after halt")
    pc = st.pc
    grant = st.ddc_grant
    st.ddc_grant = None
    code = st.code
    if not (code.tag and not code.otype and _int_and(code.perms, _EXECUTE)
            and code.base <= pc < code.top):
        _fault(st, check_access(code, pc, 1, _EXECUTE), pc, pc)
        return st
    if pc >= len(program):
        _fault(st, FaultKind.ADDRESS, pc, pc)
        return st
    ins = program[pc]
    nxt = _HANDLERS[ins.op._value_](st, mem, ins, pc, grant)
    if nxt is not None:
        ref_retire(st, nxt)
    return st


def ref_run(st, mem, program, max_steps=100_000):
    events = st.events
    steps = 0
    while steps < max_steps:
        if st.halted:
            break
        if st.fault is not None:
            if handle_fault_ddc_swap(st, mem):
                continue
            break
        pc = st.pc
        comp = st.current_compartment
        ref_step(st, mem, program)
        if events is not None:
            events.append(("step", pc, comp, st.fault))
        steps += 1
    return st


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
    st.regs[REG_SHARED] = (
        make_root(*SHARED, Perm.LOAD | Perm.STORE | Perm.LOAD_CAP | Perm.STORE_CAP)
        if rng.random() < 0.5 else NULL_CAP)
    st.ddc_grant = rng.choice((None, None, rng.choice(REGS)))
    st.events = [] if rng.random() < 0.5 else None
    if rng.random() < 0.05:
        st.halted = True
    elif rng.random() < 0.08:
        # A pending legacy bounds fault inside the shared region: with r18
        # tagged, the loop swaps before its first step.
        st.fault = Fault(FaultKind.BOUNDS, SHARED[0] + 8, st.pc, 8, True)
    return st, mem, program


def observe(st, mem, events=None):
    return {
        "regs": tuple(st.regs), "code": st.code, "pc": st.pc, "ddc": st.ddc,
        "current_compartment": st.current_compartment, "fault": st.fault,
        "halted": st.halted, "instructions_retired": st.instructions_retired,
        "switches": st.switches, "ddc_swap_events": st.ddc_swap_events,
        "ddc_grant": st.ddc_grant,
        "events": None if st.events is None else list(st.events if events is None else events),
        "data": bytes(mem.data), "tags": bytes(mem.tags),
    }


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


CASES = range(1000)


def test_run_matches_the_per_step_loop():
    seen = Counter()
    for seed in CASES:
        budget = max_steps_of(seed)
        st, mem, program = build_case(seed)
        ref, ref_mem, _ = build_case(seed)
        comp = ref.current_compartment
        assert run(st, mem, program, max_steps=budget) is st
        ref_run(ref, ref_mem, program, max_steps=budget)
        assert observe(st, mem) == observe(ref, ref_mem), seed
        seen["retired"] += ref.instructions_retired > 0
        seen["switch"] += ref.switches > 0
        seen["swap"] += ref.ddc_swap_events > 0
        seen["halt"] += ref.halted
        seen["events"] += ref.events is not None and ref.instructions_retired > 0
        seen["budget 0"] += budget == 0
        seen["compartment changed"] += ref.current_compartment != comp
        if ref.fault is not None:
            seen[ref.fault.kind] += 1
            seen["blocked entry"] += blocked_entry(ref, program)
    # The cases reach every path the loop takes.
    for what in ("retired", "switch", "swap", "halt", "events", "budget 0",
                 "compartment changed", "blocked entry", *FaultKind):
        assert seen[what] > 0, what


def test_fall_through_walks_every_region_set():
    # A straight run of NOPs over the whole program crosses every region
    # edge in order, from outside a region into a nested, overlapping or
    # later one, and out again.
    program = [nop()] * PROGRAM_LEN
    mem = TaggedMemory(CAP_SLOT)
    rng = random.Random(2)
    region_sets = REGION_SETS + [random_regions(rng) for _ in range(400)]
    for regions in region_sets:
        got, want = MachineState(), MachineState()
        for st in (got, want):
            st.code = make_root(0, PROGRAM_LEN, Perm.EXECUTE)
            st.code_regions = list(regions)
            st.events = []
        run(got, mem, program)
        ref_run(want, mem, program)
        assert observe(got, mem) == observe(want, mem), regions


def test_step_matches_the_per_step_loop():
    # A `step` record, if `step` appends one, is the loop's to check: only
    # the access records are compared here.
    for seed in CASES[:600]:
        st, mem, program = build_case(seed)
        ref, ref_mem, _ = build_case(seed)
        for _ in range(max_steps_of(seed) % 40):
            if ref.fault is not None or ref.halted:
                with pytest.raises(MachineError):
                    step(st, mem, program)
                break
            step(st, mem, program)
            ref_step(ref, ref_mem, program)
            access = None if st.events is None else [e for e in st.events if e[0] != "step"]
            assert observe(st, mem, access) == observe(ref, ref_mem), seed

