"""The program-counter capability as `step` and `run` see it.

Control transfers are checked against a reference that derives the pcc the
plain way: every retire moves the cursor of the old pcc with
`dataclasses.replace`, a branch installs its target whole, and the link
register is the old pcc moved past the call.  Tags are compared too: a
derived capability equal in every field but the tag would be a forgery or a
lost authority.
"""

import dataclasses

import pytest

from capcomp.capability import (
    ADDR_MASK,
    Capability,
    FaultKind,
    PERM_ALL,
    Perm,
    int_cap,
    make_root,
    seal,
)
from capcomp.isa import REG_LINK, addi, bcap, calll, halt, ldi, lpb, movi, nop, retl
from capcomp.machine import MachineState, format_trace, run, step
from capcomp.memory import TaggedMemory

CODE = make_root(0, 64, Perm.EXECUTE)
PROGRAM = [nop()] * 40 + [halt()] * 24


def ref_set_address(c, address):
    return dataclasses.replace(c, address=address & ADDR_MASK, tag=c.tag and not c.sealed)


def ref_fetch_fault(c):
    """The fetch check on a pcc, with IntFlag arithmetic."""
    if not c.tag:
        return FaultKind.TAG
    if c.sealed:
        return FaultKind.SEAL
    if not c.perms & Perm.EXECUTE:
        return FaultKind.PERMISSION
    if not c.base <= c.address < c.top:
        return FaultKind.BOUNDS
    return None


def machine_at(pc):
    st = MachineState()
    st.pcc = ref_set_address(CODE, pc)
    st.ddc = make_root(0, 4096, PERM_ALL)
    return st, TaggedMemory(4096)


def assert_same(got, want):
    assert got == want and got.tag == want.tag


@pytest.mark.parametrize("pc", [0, 5, 37])
def test_fall_through_moves_the_cursor(pc):
    st, mem = machine_at(pc)
    for _ in range(3):
        before = st.pcc
        step(st, mem, PROGRAM)
        assert st.fault is None
        assert_same(st.pcc, ref_set_address(before, before.address + 1))


def test_bcap_installs_its_target():
    st, mem = machine_at(7)
    target = ref_set_address(make_root(8, 48, Perm.EXECUTE | Perm.LOAD), 30)
    st.regs[3] = target
    step(st, mem, [nop()] * 7 + [bcap(3)] + PROGRAM[8:])
    assert st.fault is None
    assert_same(st.pcc, target)
    step(st, mem, PROGRAM)                     # and falls through from there
    assert_same(st.pcc, ref_set_address(target, 31))


def test_calll_moves_the_old_pcc_and_links_past_the_call():
    st, mem = machine_at(9)
    before = st.pcc
    st.regs[4] = int_cap(20)
    step(st, mem, [nop()] * 9 + [calll(4)] + PROGRAM[10:])
    assert st.fault is None
    assert_same(st.pcc, ref_set_address(before, 20))
    assert_same(st.regs[REG_LINK], ref_set_address(before, 10))


def test_retl_installs_the_link_register():
    st, mem = machine_at(2)
    link = ref_set_address(make_root(16, 40, Perm.EXECUTE), 33)
    st.regs[REG_LINK] = link
    step(st, mem, [nop()] * 2 + [retl()] + PROGRAM[3:])
    assert_same(st.pcc, link)


def test_call_return_round_trip():
    st, mem = machine_at(0)
    prog = [movi(1, 4), calll(1), halt(), nop(), addi(2, 2, 1), retl()]
    run(st, mem, prog)
    assert st.halted and st.fault is None
    assert_same(st.pcc, ref_set_address(CODE, 2))
    assert_same(st.regs[REG_LINK], ref_set_address(CODE, 2))


def pair_machine(pc):
    """A (branch target, data view) pair at 512, sealed entry to it in r3."""
    st, mem = machine_at(pc)
    target = ref_set_address(make_root(30, 60, Perm.EXECUTE), 31)
    mem.store_cap(512, target)
    mem.store_cap(544, make_root(1024, 2048, PERM_ALL))
    st.regs[3] = seal(make_root(512, 576, Perm.LOAD_CAP), 7)
    st.lpb_otypes = frozenset({7})
    return st, mem, target


def test_lpb_branches_to_the_pair_and_links_past_itself():
    st, mem, target = pair_machine(6)
    before = st.pcc
    step(st, mem, [nop()] * 6 + [lpb(3, 9)] + PROGRAM[7:])
    assert st.fault is None
    assert_same(st.pcc, target)
    assert_same(st.regs[REG_LINK], ref_set_address(before, 7))


def test_lpb_links_past_the_current_pc():
    st, mem, target = pair_machine(12)
    before = st.pcc
    step(st, mem, [nop()] * 12 + [lpb(3, 9)] + PROGRAM[13:])
    assert st.fault is None
    assert_same(st.pcc, target)
    assert_same(st.regs[REG_LINK], ref_set_address(before, 13))


WRITTEN = {
    "sealed": seal(ref_set_address(CODE, 3), 5),
    "untagged": Capability(0, 64, 3, Perm.EXECUTE, 0, False),
    "not executable": make_root(0, 64, Perm.LOAD | Perm.LOAD_CAP),
    "out of bounds": ref_set_address(make_root(0, 8, Perm.EXECUTE), 12),
    "executable": ref_set_address(CODE, 12),
}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_pcc_reads_back_and_is_fetch_checked(name):
    st, mem = machine_at(0)
    x = WRITTEN[name]
    st.pcc = x
    assert st.pcc is x
    step(st, mem, PROGRAM)
    kind = ref_fetch_fault(x)
    if kind is None:
        assert st.fault is None
        assert_same(st.pcc, ref_set_address(x, x.address + 1))
    else:
        assert st.fault.kind is kind and st.fault.pc == x.address
        assert st.instructions_retired == 0
        assert st.pcc is x


def test_run_trace_lines():
    st, mem = machine_at(0)
    st.code_regions = [(0, 4, 0), (4, 8, 1)]
    st.current_compartment = 0
    prog = [movi(1, 4), calll(1), movi(5, 9999), ldi(2, 5, 0),
            addi(2, 2, 1), retl()]
    st.ddc = make_root(0, 64, PERM_ALL)
    st.events = []
    run(st, mem, prog)
    lines = format_trace(st.events, prog)
    assert st.fault.kind is FaultKind.BOUNDS
    assert lines == [
        "0 | 0 | addi r1, r16, 4 | c0",
        "1 | 1 | call r1 | c0",
        "2 | 4 | addi r2, r2, 1 | c1",
        "3 | 5 | ret | c1",
        "4 | 2 | addi r5, r16, 9999 | c0",
        "5 | 3 | ldi r2, [r5 + 0] | c0 | BoundsFault@0x270f pc=3",
    ]
