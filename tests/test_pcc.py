"""The program-counter capability as `run` and `step` see it.

Each control transfer runs through the machine and the spec
(`spec_check.assert_matches_spec`), which compare the whole state after
every step.  The pins on top say which path each case takes: a retire moves
the cursor of the old pcc, a branch installs its target whole, and the link
register is the old pcc moved past the call.  `assert_same` compares tags
too: a derived capability equal in every field but the tag would be a
forgery or a lost authority.
"""

import pytest

from capcomp.capability import (
    Capability,
    FaultKind,
    PERM_ALL,
    Perm,
    int_cap,
    make_root,
    seal,
    set_address,
)
from capcomp.isa import REG_LINK, addi, bcap, calll, halt, ldi, lpb, movi, nop, retl
from capcomp.machine import MachineState, format_trace
from capcomp.memory import TaggedMemory

from spec_check import assert_matches_spec

CODE = make_root(0, 64, Perm.EXECUTE)
PROGRAM = [nop()] * 40 + [halt()] * 24


def machine_at(pc):
    st = MachineState()
    st.pcc = set_address(CODE, pc)
    st.ddc = make_root(0, 4096, PERM_ALL)
    st.events = []
    return st, TaggedMemory(4096)


def assert_same(got, want):
    assert got == want and got.tag == want.tag


def run_against_spec(st, mem, program, steps):
    """Run `steps` steps of `program` on `st` and `mem`, and on copies of
    them through the spec; the two must agree after every step."""
    assert_matches_spec(lambda: (st, mem, program), steps)
    return st


@pytest.mark.parametrize("pc", [0, 5, 37])
def test_fall_through_moves_the_cursor(pc):
    st = run_against_spec(*machine_at(pc), PROGRAM, 3)
    assert st.fault is None
    assert_same(st.pcc, set_address(CODE, pc + 3))


def test_bcap_installs_its_target():
    st, mem = machine_at(7)
    target = set_address(make_root(8, 48, Perm.EXECUTE | Perm.LOAD), 30)
    st.regs[3] = target
    program = [nop()] * 7 + [bcap(3)] + PROGRAM[8:]
    assert_same(run_against_spec(st, mem, program, 1).pcc, target)
    # and falls through from there
    assert_same(run_against_spec(st, mem, program, 1).pcc, set_address(target, 31))


def test_calll_moves_the_old_pcc_and_links_past_the_call():
    st, mem = machine_at(9)
    st.regs[4] = int_cap(20)
    st = run_against_spec(st, mem, [nop()] * 9 + [calll(4)] + PROGRAM[10:], 1)
    assert st.fault is None
    assert_same(st.pcc, set_address(CODE, 20))
    assert_same(st.regs[REG_LINK], set_address(CODE, 10))


def test_retl_installs_the_link_register():
    st, mem = machine_at(2)
    link = set_address(make_root(16, 40, Perm.EXECUTE), 33)
    st.regs[REG_LINK] = link
    assert_same(run_against_spec(st, mem, [nop()] * 2 + [retl()] + PROGRAM[3:], 1).pcc, link)


def test_call_return_round_trip():
    st, mem = machine_at(0)
    prog = [movi(1, 4), calll(1), halt(), nop(), addi(2, 2, 1), retl()]
    st = run_against_spec(st, mem, prog, 10)
    assert st.halted and st.fault is None
    assert_same(st.pcc, set_address(CODE, 2))
    assert_same(st.regs[REG_LINK], set_address(CODE, 2))


def pair_machine(pc):
    """A (branch target, data view) pair at 512, sealed entry to it in r3."""
    st, mem = machine_at(pc)
    target = set_address(make_root(30, 60, Perm.EXECUTE), 31)
    mem.store_cap(512, target)
    mem.store_cap(544, make_root(1024, 2048, PERM_ALL))
    st.regs[3] = seal(make_root(512, 576, Perm.LOAD_CAP), 7)
    st.lpb_otypes = frozenset({7})
    return st, mem, target


@pytest.mark.parametrize("pc", [6, 12])
def test_lpb_branches_to_the_pair_and_links_past_itself(pc):
    st, mem, target = pair_machine(pc)
    st = run_against_spec(st, mem, [nop()] * pc + [lpb(3, 9)] + PROGRAM[pc + 1:], 1)
    assert st.fault is None
    assert_same(st.pcc, target)
    assert_same(st.regs[REG_LINK], set_address(CODE, pc + 1))


WRITTEN = {
    "sealed": seal(set_address(CODE, 3), 5),
    "untagged": Capability(0, 64, 3, Perm.EXECUTE, 0, False),
    "not executable": make_root(0, 64, Perm.LOAD | Perm.LOAD_CAP),
    "out of bounds": set_address(make_root(0, 8, Perm.EXECUTE), 12),
    "executable": set_address(CODE, 12),
}
WRITTEN_FAULTS = {"sealed": FaultKind.SEAL, "untagged": FaultKind.TAG,
                  "not executable": FaultKind.PERMISSION, "out of bounds": FaultKind.BOUNDS,
                  "executable": None}


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_written_pcc_reads_back_and_is_fetch_checked(name):
    st, mem = machine_at(0)
    x = WRITTEN[name]
    st.pcc = x
    assert st.pcc is x
    st = run_against_spec(st, mem, PROGRAM, 1)
    kind = WRITTEN_FAULTS[name]
    if kind is None:
        assert st.fault is None
        assert_same(st.pcc, set_address(x, x.address + 1))
    else:
        assert st.fault.kind is kind and st.fault.pc == x.address
        assert st.pcc is x


def test_run_trace_lines():
    st, mem = machine_at(0)
    st.code_regions = [(0, 4, 0), (4, 8, 1)]
    st.current_compartment = 0
    prog = [movi(1, 4), calll(1), movi(5, 9999), ldi(2, 5, 0),
            addi(2, 2, 1), retl()]
    st.ddc = make_root(0, 64, PERM_ALL)
    run_against_spec(st, mem, prog, 10)
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
