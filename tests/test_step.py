"""How one step checks and retires.

The access and fetch grids run every authority and code-capability variant
that decides a different fault, at the addresses around its bounds and the
end of memory, through `step` and through the spec
(`spec_check.assert_matches_spec`), and compare the whole state, memory and
records.  The retire tests pin where a step leaves the pc, the retire count
and the current compartment, and the last tests pin `step` as a one-step
`run` behind its two guards.
"""

import importlib.resources as ir

import pytest

from capcomp.capability import (
    PERM_ALL,
    Capability,
    FaultKind,
    Perm,
    int_cap,
    make_root,
    seal,
    set_address,
)
from capcomp.isa import INT_WIDTH, bcap, halt, ldc, ldi, lpb, nop, stc, sti
from capcomp.layout import boot_init, compute_layout, parse_config
from capcomp.machine import Fault, MachineError, MachineState, run, step
from capcomp.memory import CAP_SLOT, TaggedMemory

from spec_check import assert_matches_spec

MEM_SIZE = 1024
PROGRAM_LEN = 16
PC = 5
OTYPE = 9

# (op constructor, needed permission, width, is_cap)
OPS = {
    "ldi": (ldi, Perm.LOAD, INT_WIDTH, False),
    "sti": (sti, Perm.STORE, INT_WIDTH, False),
    "ldc": (ldc, Perm.LOAD_CAP, CAP_SLOT, True),
    "stc": (stc, Perm.STORE_CAP, CAP_SLOT, True),
}

# Authority windows [base, top): one inside memory, one that runs past its end.
WINDOWS = [(256, 384), (MEM_SIZE - 64, MEM_SIZE + 64)]


def authorities(need):
    """Every authority variant that decides a different fault: tagged or
    not, sealed or not, and with all, all but the needed, or only the needed
    permission."""
    perm_sets = (PERM_ALL, PERM_ALL & ~need, need)
    for base, top in WINDOWS:
        for tag in (True, False):
            for otype in (0, OTYPE):
                for perms in perm_sets:
                    yield base, top, perms, otype, tag


def addresses(base, top, width):
    return (base - 1, base, base + 1, top - width, top - width + 1)


def seeded_memory():
    """Memory holding a byte pattern, with tagged capabilities in some slots."""
    mem = TaggedMemory(MEM_SIZE)
    mem.data[:] = bytes((i * 7 + 3) & 0xFF for i in range(MEM_SIZE))
    for slot in range(0, MEM_SIZE, 3 * CAP_SLOT):
        mem.store_cap(slot, make_root(slot, slot + CAP_SLOT, Perm.LOAD))
    return mem


def snapshot(st, mem):
    return (tuple(st.regs), st.code, st.pc, st.ddc, st.current_compartment,
            st.instructions_retired, bytes(mem.data), bytes(mem.tags))


def access_machine(mode, auth, addr, is_cap):
    """A machine about to execute the access at PC, with `auth` as the
    authority: the ddc for a legacy operand, register 2 in capability mode."""
    st = MachineState()
    st.pcc = set_address(make_root(0, PROGRAM_LEN, Perm.EXECUTE), PC)
    st.current_compartment = 3
    st.regs[1] = (make_root(0, CAP_SLOT, PERM_ALL) if is_cap
                  else int_cap(0x1122334455667788))
    if mode == "cap":
        st.ddc = make_root(0, MEM_SIZE, PERM_ALL)
        st.regs[2] = auth
    else:
        st.ddc = auth
        st.regs[2] = int_cap(addr)
    # Legacy accesses are checked only outside the privileged window, here
    # one that starts at PC or one that ends there.
    st.switcher_bounds = (PC, PC + 1) if mode == "privileged" else (0, PC)
    return st


@pytest.mark.parametrize("mode", ["legacy", "privileged", "cap"])
@pytest.mark.parametrize("name", sorted(OPS))
def test_access_grid_matches_the_spec(name, mode):
    ctor, need, width, is_cap = OPS[name]
    program = [nop()] * PROGRAM_LEN
    program[PC] = ctor(1, 2, 0, cap=mode == "cap")
    outcomes = set()
    for base, top, perms, otype, tag in authorities(need):
        for addr in addresses(base, top, width):
            auth = Capability(base, top, addr, perms, otype, tag)

            def case():
                st = access_machine(mode, auth, addr, is_cap)
                st.events = []
                return st, seeded_memory(), program

            st = assert_matches_spec(case, 1, label=(name, mode, auth, addr))[0]
            outcomes.add(st.fault.kind if st.fault else "retired")
    # Every outcome the table can reach was reached.
    reachable = {"retired", FaultKind.ADDRESS} | ({FaultKind.ALIGNMENT} if is_cap else set())
    if mode != "privileged":
        reachable |= {FaultKind.TAG, FaultKind.SEAL, FaultKind.PERMISSION, FaultKind.BOUNDS}
    assert outcomes == reachable


def fetch_codes():
    for tag in (True, False):
        for otype in (0, OTYPE):
            for perms in (Perm.EXECUTE, PERM_ALL & ~Perm.EXECUTE):
                yield tag, otype, perms


@pytest.mark.parametrize("top", [8, PROGRAM_LEN + 1])
def test_fetch_grid_matches_the_spec(top):
    program = [nop()] * PROGRAM_LEN
    outcomes = set()
    for tag, otype, perms in fetch_codes():
        for pc in (top - 1, top):
            def case():
                st = MachineState()
                st.code, st.pc = Capability(0, top, pc, perms, otype, tag), pc
                st.ddc = make_root(0, MEM_SIZE, PERM_ALL)
                st.current_compartment = 3
                st.events = []
                return st, seeded_memory(), program

            st = assert_matches_spec(case, 1, label=(tag, otype, perms, pc))[0]
            outcomes.add(st.fault.kind if st.fault else "retired")
    # The last pc in bounds retires, or lies past the program's end.
    reachable = {FaultKind.TAG, FaultKind.SEAL, FaultKind.PERMISSION, FaultKind.BOUNDS}
    assert outcomes == reachable | {"retired" if top <= PROGRAM_LEN else FaultKind.ADDRESS}


# --------------------------------------------------------------------------
# Retiring

def region_machine(pc, regions, comp):
    st = MachineState()
    st.pcc = set_address(make_root(0, 64, Perm.EXECUTE), pc)
    st.ddc = make_root(0, MEM_SIZE, PERM_ALL)
    st.code_regions = regions
    st.current_compartment = comp
    return st, TaggedMemory(MEM_SIZE)


def test_retire_outside_every_region_keeps_the_compartment():
    # The switcher's code belongs to no region: running it leaves the
    # caller's compartment current.
    st, mem = region_machine(8, [(10, 20, 1)], 7)
    program = [nop()] * 40
    program[12] = bcap(4)
    step(st, mem, program)                    # 8 -> 9: no region
    assert (st.pc, st.current_compartment) == (9, 7)
    step(st, mem, program)                    # 9 -> 10: region of c1
    assert (st.pc, st.current_compartment) == (10, 1)
    st.regs[4] = set_address(st.code, 30)
    run(st, mem, program, max_steps=3)        # 10, 11, then the branch to 30
    assert (st.pc, st.current_compartment) == (30, 1)
    assert st.instructions_retired == 5


def test_nested_region_wins_over_its_host():
    st, mem = region_machine(13, [(14, 16, 2), (10, 20, 1)], 1)
    run(st, mem, [nop()] * 40, max_steps=3)
    assert (st.pc, st.current_compartment) == (16, 1)
    st, mem = region_machine(13, [(14, 16, 2), (10, 20, 1)], 1)
    run(st, mem, [nop()] * 40, max_steps=1)
    assert (st.pc, st.current_compartment) == (14, 2)


def test_booted_sandbox_region_wins_over_its_host():
    text = ir.files("capcomp").joinpath("fixtures", "sandbox_host.cfg").read_text()
    img = boot_init(compute_layout(parse_config(text)))
    slice_base = img.plan.region("parse_header.code").base
    host = img.plan.comp_ids["host"]
    st = img.machine
    img.enter("host")
    img.program[slice_base - 1] = nop()
    st.pc = slice_base - 1
    assert st.current_compartment == host
    step(img.machine, img.mem, img.program)
    assert st.fault is None and st.pc == slice_base
    assert st.current_compartment == img.plan.comp_ids["parse_header"] != host


def test_fall_through_into_the_next_region_then_fetch_fault():
    # The code capability ends at 10, where c1's region begins: the retire
    # into 10 makes c1 current, so the fetch fault there is recorded for c1.
    st, mem = region_machine(8, [(0, 10, 0), (10, 20, 1)], 0)
    st.code = make_root(0, 10, Perm.EXECUTE)
    st.events = []
    run(st, mem, [nop()] * 40)
    fault = Fault(FaultKind.BOUNDS, 10, 10)
    assert st.fault == fault
    assert st.events == [("step", 8, 0, None), ("step", 9, 0, None),
                         ("step", 10, 1, fault)]
    assert (st.pc, st.current_compartment, st.instructions_retired) == (10, 1, 2)


def test_halt_retires_once_in_place():
    st, mem = region_machine(12, [(0, 10, 0), (10, 20, 1)], 0)
    program = [nop()] * 40
    program[12] = halt()
    step(st, mem, program)
    assert st.halted and st.fault is None
    assert (st.pc, st.instructions_retired, st.current_compartment) == (12, 1, 0)


def test_faulting_step_retires_nothing():
    st, mem = region_machine(11, [(0, 10, 0), (10, 20, 1)], 0)
    st.ddc = make_root(0, 64, PERM_ALL)
    st.switcher_bounds = (40, 40)
    program = [nop()] * 40
    program[11] = sti(1, 2, 0)
    st.regs[2] = int_cap(512)
    step(st, mem, program)
    assert st.fault == Fault(FaultKind.BOUNDS, 512, 11, INT_WIDTH, True)
    assert (st.pc, st.instructions_retired, st.current_compartment) == (11, 0, 0)


def lpb_program():
    program = [nop()] * 200
    program[2] = lpb(3, 9)
    return program


def test_lpb_retires_into_the_target_region():
    st, mem = region_machine(2, [(100, 200, 4)], 0)
    target = make_root(100, 200, Perm.EXECUTE)
    mem.store_cap(512, target)
    mem.store_cap(544, make_root(0, 256, PERM_ALL))
    st.regs[3] = seal(make_root(512, 576, Perm.LOAD_CAP), OTYPE)
    st.lpb_otypes = frozenset({OTYPE})
    step(st, mem, lpb_program())
    assert st.fault is None
    assert (st.pc, st.current_compartment, st.instructions_retired) == (100, 4, 1)
    assert st.regs[9].base == 0


def test_lpb_step_after_halt_raises():
    st, mem = region_machine(2, [(100, 200, 4)], 0)
    mem.store_cap(512, make_root(100, 200, Perm.EXECUTE))
    mem.store_cap(544, make_root(0, 256, PERM_ALL))
    st.regs[3] = seal(make_root(512, 576, Perm.LOAD_CAP), OTYPE)
    st.halted = True
    before = snapshot(st, mem)
    with pytest.raises(MachineError, match="after halt"):
        step(st, mem, lpb_program())
    assert snapshot(st, mem) == before
    assert st.switches == 0


# --------------------------------------------------------------------------
# `step` is a one-step `run`

def test_step_refuses_a_pending_fault_or_a_halted_machine():
    st, mem = region_machine(3, [], 0)
    st.fault = Fault(FaultKind.BOUNDS, 3, 3)
    with pytest.raises(MachineError, match="pending fault"):
        step(st, mem, [nop()] * 8)
    st, mem = region_machine(3, [], 0)
    st.halted = True
    with pytest.raises(MachineError, match="after halt"):
        step(st, mem, [nop()] * 8)
    assert st.instructions_retired == 0


def test_step_executes_exactly_one_instruction():
    st, mem = region_machine(3, [(0, 10, 0), (10, 20, 1)], 0)
    program = [nop()] * 40
    for n in range(1, 12):
        step(st, mem, program)
        assert (st.pc, st.instructions_retired) == (3 + n, n)
    assert st.current_compartment == 1


def test_step_appends_one_step_record():
    st, mem = region_machine(9, [(0, 10, 0), (10, 20, 1)], 0)
    st.switcher_bounds = (40, 40)
    st.events = []
    program = [nop()] * 40
    program[10] = sti(1, 2, 0)
    st.regs[2] = int_cap(512)
    step(st, mem, program)
    assert st.events == [("step", 9, 0, None)]
    step(st, mem, program)                  # an access, then its step record
    assert st.events[1:] == [("access", 10, 512, INT_WIDTH, True), ("step", 10, 1, None)]
    st.ddc = make_root(0, 64, PERM_ALL)
    st.regs[2] = int_cap(512)
    st.pc = 10
    step(st, mem, program)                  # a fault: one record, naming it
    assert st.events[3:] == [("step", 10, 1, st.fault)]
    assert st.fault == Fault(FaultKind.BOUNDS, 512, 10, INT_WIDTH, True)
