"""Machine stepping: addressing modes, fault priority and atomicity,
privileged operations, load-pair-branch, and the exception-based sharing
automaton."""

import pytest

from capcomp.capability import (
    FaultKind,
    NULL_CAP,
    PERM_ALL,
    Perm,
    int_cap,
    make_root,
    seal,
    set_address,
)
from capcomp.isa import (
    REG_LINK,
    REG_SHARED,
    REG_ZERO,
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
    movi,
    nop,
    readddc,
    retl,
    sealr,
    sti,
    stc,
)
from capcomp.machine import (
    Fault,
    MachineError,
    MachineState,
    format_trace,
    handle_fault_ddc_swap,
    run,
    step,
)
from capcomp.memory import TaggedMemory


def bare_machine(mem_size=4096, data_lo=0, data_hi=None):
    """A machine with no switcher: pcc over the program, no privileged pc,
    and no otype that load-pair-branch accepts."""
    st = MachineState()
    st.pcc = make_root(0, 1 << 20, Perm.EXECUTE)
    st.ddc = make_root(data_lo, data_hi if data_hi is not None else mem_size, PERM_ALL)
    return st, TaggedMemory(mem_size)


def run_prog(prog, st=None, mem=None, max_steps=1000):
    if st is None:
        st, mem = bare_machine()
    run(st, mem, prog, max_steps=max_steps)
    return st, mem


def snapshot(st, mem):
    return (tuple(st.regs), st.pcc, st.ddc, bytes(mem.data), bytes(mem.tags))


# --------------------------------------------------------------------------
# Basics

def test_movi_addi_mov_halt():
    st, _ = run_prog([movi(1, 41), addi(2, 1, 1), mov(3, 2), halt()])
    assert st.halted and st.fault is None
    assert st.regs[2].address == 42 and st.regs[3].address == 42
    assert not st.regs[2].tag                 # integers travel untagged
    assert st.instructions_retired == 4


def test_zero_register_ignores_writes():
    st, _ = run_prog([movi(REG_ZERO, 99), addi(5, REG_ZERO, 7), halt()])
    assert st.regs[REG_ZERO] == NULL_CAP
    assert st.regs[5].address == 7


def test_step_guards():
    st, mem = bare_machine()
    prog = [halt()]
    run(st, mem, prog)
    with pytest.raises(MachineError):
        step(st, mem, prog)
    st2, mem2 = bare_machine()
    st2.fault = Fault(FaultKind.TAG, 0, 0)
    with pytest.raises(MachineError):
        step(st2, mem2, [nop()])


def test_pc_past_program_end_faults():
    st, mem = bare_machine()
    run(st, mem, [nop()])                      # runs off the end
    assert st.fault is not None and st.fault.kind is FaultKind.ADDRESS


def test_fetch_outside_pcc_faults():
    st, mem = bare_machine()
    st.pcc = make_root(0, 2, Perm.EXECUTE)
    run(st, mem, [nop(), nop(), nop(), halt()])
    assert st.fault.kind is FaultKind.BOUNDS and st.fault.pc == 2
    assert st.instructions_retired == 2


# --------------------------------------------------------------------------
# Addressing modes

def test_legacy_store_load_through_ddc():
    st, _ = run_prog([movi(1, 256), movi(2, 777), sti(2, 1, 8), ldi(3, 1, 8),
                      halt()])
    assert st.regs[3].address == 777


def test_legacy_fault_sets_ddc_access_flag():
    st, mem = bare_machine(data_lo=0, data_hi=128)
    run(st, mem, [movi(1, 4000), sti(1, 1, 0), halt()])
    assert st.fault.kind is FaultKind.BOUNDS and st.fault.ddc_access


def test_cap_operand_fault_has_no_ddc_flag():
    st, mem = bare_machine()
    st.regs[4] = make_root(0, 64, Perm.LOAD)
    run(st, mem, [ldi(2, 4, 100, cap=True), halt()])
    assert st.fault.kind is FaultKind.BOUNDS and not st.fault.ddc_access


def test_cap_operand_uses_register_authority():
    st, mem = bare_machine(data_lo=0, data_hi=64)   # ddc tiny
    st.regs[4] = make_root(512, 1024, PERM_ALL)
    run(st, mem, [movi(1, 5), sti(1, 4, 16, cap=True), ldi(2, 4, 16, cap=True), halt()])
    assert st.fault is None and st.regs[2].address == 5


def test_store_int_width_and_mask():
    st, mem = run_prog([movi(1, -1), sti(1, REG_ZERO, 64), halt()])
    assert mem.read_bytes(64, 8) == b"\xff" * 8
    assert mem.read_bytes(72, 1) == b"\x00"


def test_int_store_clears_granule_tag():
    st, mem = bare_machine()
    mem.store_cap(64, make_root(0, 128, PERM_ALL))
    run(st, mem, [movi(1, 1), sti(1, REG_ZERO, 64), halt()])
    assert not mem.load_cap(64).tag


def test_cap_store_alignment_fault():
    st, mem = bare_machine()
    st.regs[2] = make_root(0, 4096, PERM_ALL)
    run(st, mem, [stc(2, REG_ZERO, 8)])
    assert st.fault.kind is FaultKind.ALIGNMENT


def test_cap_load_needs_loadcap_perm():
    st, mem = bare_machine()
    st.regs[4] = make_root(0, 4096, Perm.LOAD | Perm.STORE)
    run(st, mem, [ldc(2, 4, 0, cap=True), halt()])
    assert st.fault.kind is FaultKind.PERMISSION


# --------------------------------------------------------------------------
# Fault atomicity: the faulting step must not change any register, byte, tag,
# or the pcc.

FAULTING_SETUPS = [
    # (name, setup(st, mem), program, the fault it must raise)
    ("legacy bounds", lambda st, mem: None,
     [movi(1, 1 << 19), sti(1, 1, 0)], FaultKind.BOUNDS),
    ("untagged cap operand", lambda st, mem: None,
     [sti(1, 2, 0, cap=True)], FaultKind.TAG),
    ("sealed cap operand",
     lambda st, mem: st.regs.__setitem__(3, seal(make_root(0, 64, PERM_ALL), 5)),
     [ldi(1, 3, 0, cap=True)], FaultKind.SEAL),
    ("misaligned cap store",
     lambda st, mem: st.regs.__setitem__(3, make_root(0, 4096, PERM_ALL)),
     [stc(3, 3, 4, cap=True)], FaultKind.ALIGNMENT),
    ("branch through integer", lambda st, mem: None,
     [movi(1, 3), bcap(1)], FaultKind.TAG),
    # otype 9 is one lpb accepts, so the step passes the otype check and
    # faults on the pair it loads, whose slots were never stored
    ("lpb untagged pair", lambda st, mem: (
         st.regs.__setitem__(3, seal(make_root(0, 4096, PERM_ALL), 9)),
         setattr(st, "lpb_otypes", frozenset({9}))),
     [lpb(3, 5)], FaultKind.TAG),
]


@pytest.mark.parametrize("name,setup,tail,kind", FAULTING_SETUPS,
                         ids=[case[0] for case in FAULTING_SETUPS])
def test_fault_atomicity(name, setup, tail, kind):
    st, mem = bare_machine(mem_size=4096, data_hi=4096)
    setup(st, mem)
    prog = tail + [halt()]
    # advance to just before the faulting instruction
    while st.fault is None and not st.halted:
        pre = snapshot(st, mem)
        pc = st.pcc.address
        step(st, mem, prog)
        if st.fault is not None:
            post = snapshot(st, mem)
            assert pre == post, f"{name}: fault at pc={pc} mutated state"
            assert st.fault.pc == pc
            assert st.fault.kind is kind, f"{name}: {st.fault}"
            return
    pytest.fail(f"{name}: program did not fault")


# --------------------------------------------------------------------------
# Privileged operations

def make_privileged(st):
    st.switcher_bounds = (0, 1 << 20)          # the whole pcc is switcher code


def test_seal_requires_privilege():
    st, mem = bare_machine()
    st.regs[2] = make_root(0, 64, PERM_ALL)
    run(st, mem, [sealr(1, 2, 5)])
    assert st.fault.kind is FaultKind.PERMISSION


def test_seal_privileged_and_otype_range():
    st, mem = bare_machine()
    make_privileged(st)
    st.regs[2] = make_root(0, 64, PERM_ALL)
    run(st, mem, [sealr(1, 2, 5), halt()])
    assert st.fault is None and st.regs[1].sealed and st.regs[1].otype == 5
    st2, mem2 = bare_machine()
    make_privileged(st2)
    st2.regs[2] = make_root(0, 64, PERM_ALL)
    run(st2, mem2, [sealr(1, 2, 0)])
    assert st2.fault.kind is FaultKind.PERMISSION   # otype 0 is reserved


def test_readddc_requires_privilege():
    st, mem = bare_machine()
    run(st, mem, [readddc(1)])
    assert st.fault.kind is FaultKind.PERMISSION
    st2, mem2 = bare_machine()
    make_privileged(st2)
    run(st2, mem2, [readddc(1), halt()])
    assert st2.fault is None and st2.regs[1] == st2.ddc


def test_installddc_requires_privilege():
    st, mem = bare_machine()
    st.regs[1] = make_root(0, 64, PERM_ALL)
    run(st, mem, [installddc(1)])
    assert st.fault.kind is FaultKind.PERMISSION


def test_installddc_rejects_untagged_and_sealed():
    st, mem = bare_machine()
    make_privileged(st)
    run(st, mem, [installddc(1)])
    assert st.fault.kind is FaultKind.TAG
    st2, mem2 = bare_machine()
    make_privileged(st2)
    st2.regs[1] = seal(make_root(0, 64, PERM_ALL), 3)
    run(st2, mem2, [installddc(1)])
    assert st2.fault.kind is FaultKind.SEAL


def test_derive_ddc_is_unprivileged_and_monotone():
    st, mem = bare_machine(data_lo=256, data_hi=1024)
    prog = [movi(1, 512), movi(2, 640), cvtd(3, 1, 2),
            movi(4, 0), movi(5, 2048), cvtd(6, 4, 5), halt()]
    run(st, mem, prog)
    assert st.fault is None
    assert st.regs[3].tag and (st.regs[3].base, st.regs[3].top) == (512, 640)
    assert not st.regs[6].tag                  # widening the ddc is refused


# --------------------------------------------------------------------------
# Load-pair-branch

def pair_image(otype=7, lpb_otypes=frozenset({7})):
    """Memory with a (branch target, data view) pair at 512 and a sealed
    capability to it in r3; program indices 0.. are the caller, 100.. the
    landing pad."""
    st, mem = bare_machine(mem_size=4096, data_hi=4096)
    st.lpb_otypes = lpb_otypes
    target = make_root(100, 200, Perm.EXECUTE)
    view = make_root(1024, 2048, PERM_ALL)
    mem.store_cap(512, set_address(target, 100))
    mem.store_cap(544, view)
    entry = make_root(512, 576, Perm.LOAD_CAP)
    st.regs[3] = seal(entry, otype)
    return st, mem


def test_lpb_success_effects():
    st, mem = pair_image()
    prog = [lpb(3, 9)] + [nop()] * 99 + [halt()] * 110
    run(st, mem, prog, max_steps=10)
    assert st.fault is None
    assert st.pcc.address == 100               # branched to the pair's first
    assert st.regs[9].base == 1024             # second element delivered
    assert st.regs[REG_LINK].address == 1      # return capability
    assert not st.regs[3].sealed               # operand comes back unsealed
    assert st.switches == 1


def test_installddc_right_after_lpb_outside_the_window_faults():
    # an lpb confers no privilege: landing outside the switcher window, an
    # installddc of the pair's data capability is refused like any other
    st, mem = pair_image()
    ddc = st.ddc
    prog = [lpb(3, 9)] + [nop()] * 99
    prog += [installddc(9), halt()]            # pc 100: immediately after lpb
    run(st, mem, prog)
    assert st.fault == Fault(FaultKind.PERMISSION, 100, 100)
    assert st.ddc is ddc and st.regs[9].base == 1024
    assert st.instructions_retired == 1


def test_lpb_rejects_untagged_unsealed_and_foreign_otype():
    st, mem = pair_image()
    st.regs[3] = int_cap(512)
    run(st, mem, [lpb(3, 9)])
    assert st.fault.kind is FaultKind.TAG

    st, mem = pair_image()
    st.regs[3] = make_root(512, 576, Perm.LOAD_CAP)   # never sealed
    run(st, mem, [lpb(3, 9)])
    assert st.fault.kind is FaultKind.SEAL

    st, mem = pair_image(otype=7, lpb_otypes=frozenset({1, 2}))
    run(st, mem, [lpb(3, 9)])
    assert st.fault.kind is FaultKind.SEAL


def test_lpb_pair_past_the_end_of_memory_faults():
    # the sealed root allows [4064, 4128), but memory ends at 4096: the
    # pair's second slot does not exist
    st, mem = pair_image()
    st.regs[3] = seal(make_root(4064, 4128, Perm.LOAD_CAP), 7)
    before = snapshot(st, mem)
    run(st, mem, [lpb(3, 9)] + [nop()] * 99 + [halt()])
    assert st.fault == Fault(FaultKind.ADDRESS, 4064, 0, 64)
    assert str(st.fault) == "AddressError@0xfe0 pc=0"
    assert snapshot(st, mem) == before
    assert (st.instructions_retired, st.switches) == (0, 0)


def test_lpb_rejects_untagged_pair_elements():
    st, mem = pair_image()
    mem.write_bytes(544, b"\x00")              # kill the second element's tag
    run(st, mem, [lpb(3, 9)])
    assert st.fault.kind is FaultKind.TAG


def test_step_lpb_is_the_whole_invoke():
    # one step of an lpb is the whole invoke: branch, pair, one retire
    st, mem = pair_image()
    step(st, mem, [lpb(3, 9)] + [nop()] * 99 + [halt()])
    assert st.fault is None and st.pcc.address == 100
    assert st.regs[9].base == 1024
    assert st.instructions_retired == 1 and st.switches == 1


# --------------------------------------------------------------------------
# Local control flow

def test_call_and_return_local():
    st, _ = run_prog([movi(1, 3), calll(1), halt(), movi(2, 55), retl()])
    assert st.halted and st.regs[2].address == 55
    assert st.instructions_retired == 5


def test_bcap_needs_execute():
    st, mem = bare_machine()
    st.regs[1] = make_root(0, 64, Perm.LOAD)
    run(st, mem, [bcap(1)])
    assert st.fault.kind is FaultKind.PERMISSION


def test_compartment_tracking_follows_pc():
    st, mem = bare_machine()
    st.code_regions = [(0, 4, 0), (4, 8, 1)]
    st.current_compartment = 0
    run(st, mem, [movi(1, 5), calll(1) if False else addi(1, REG_ZERO, 5),
                  addi(1, 1, -1), addi(1, 1, -1), halt()])
    assert st.current_compartment == 1         # halt executed at pc 4


# --------------------------------------------------------------------------
# Exception-based sharing (the r18 swap automaton)

def shared_machine():
    st, mem = bare_machine(mem_size=8192, data_lo=0, data_hi=1024)
    st.regs[REG_SHARED] = make_root(4096, 4352, PERM_ALL)
    return st, mem


@pytest.mark.parametrize("tagged", [True, False])
def test_r18_alone_decides_the_swap(tagged):
    # a legacy bounds miss inside a tagged r18 swaps and the retried store
    # retires; with r18 null it stays a fault
    st, mem = shared_machine()
    if not tagged:
        st.regs[REG_SHARED] = NULL_CAP
    run(st, mem, [movi(1, 4096), movi(2, 5), sti(2, 1, 0), halt()])
    if tagged:
        assert st.fault is None and st.halted
        assert st.ddc_swap_events == 1 and st.instructions_retired == 4
        assert (st.ddc.base, st.ddc.top) == (4096, 4352)
        assert mem.read_bytes(4096, 1) == b"\x05"
    else:
        assert st.fault == Fault(FaultKind.BOUNDS, 4096, 2, 8, ddc_access=True)
        assert st.ddc_swap_events == 0 and st.instructions_retired == 2


def test_swap_handler_unit():
    st, mem = shared_machine()
    st.fault = Fault(FaultKind.BOUNDS, 4100, 0, 8, ddc_access=True)
    old_ddc = st.ddc
    assert handle_fault_ddc_swap(st, mem)
    assert st.fault is None and st.ddc_swap_events == 1
    assert st.ddc.base == 4096 and st.regs[REG_SHARED] == old_ddc


def test_swap_handler_rejects_wrong_faults():
    st, mem = shared_machine()
    st.fault = Fault(FaultKind.BOUNDS, 4100, 0, 8, ddc_access=False)
    assert not handle_fault_ddc_swap(st, mem)
    st.fault = Fault(FaultKind.PERMISSION, 4100, 0, 8, ddc_access=True)
    assert not handle_fault_ddc_swap(st, mem)
    st.fault = Fault(FaultKind.BOUNDS, 2000, 0, 8, ddc_access=True)
    assert not handle_fault_ddc_swap(st, mem)  # outside the shared window
    st.fault = Fault(FaultKind.BOUNDS, 4350, 0, 8, ddc_access=True)
    assert not handle_fault_ddc_swap(st, mem)  # straddles the window's top
    assert st.ddc_swap_events == 0


# Three hand-traced fixtures.  Each comment walks the expected swaps.

def test_swap_trace_ping_pong():
    # store to shared (swap 1), store private (swap 2), load shared (swap 3)
    st, mem = shared_machine()
    prog = [movi(1, 4096), movi(2, 11), sti(2, 1), movi(3, 512), sti(2, 3),
            ldi(4, 1), halt()]
    run(st, mem, prog)
    assert st.fault is None and st.halted
    assert st.ddc_swap_events == 3
    assert st.regs[4].address == 11


def test_swap_trace_burst_then_return():
    # five consecutive shared stores: one swap in, none between, and the
    # final private load swaps back: 2 total
    st, mem = shared_machine()
    prog = [movi(1, 4096), movi(2, 7)]
    prog += [sti(2, 1, 8 * i) for i in range(5)]
    prog += [ldi(3, REG_ZERO, 64), halt()]
    run(st, mem, prog)
    assert st.fault is None and st.ddc_swap_events == 2
    assert all(mem.read_bytes(4096 + 8 * i, 1) == b"\x07" for i in range(5))


def test_swap_trace_no_touch_no_swap():
    # private traffic only: the automaton must stay out of the way
    st, mem = shared_machine()
    prog = [movi(1, 128), movi(2, 3), sti(2, 1), ldi(3, 1), halt()]
    run(st, mem, prog)
    assert st.fault is None and st.ddc_swap_events == 0


def test_swap_does_not_rescue_true_violations():
    # a store beyond both views must remain a fault even with sharing on
    st, mem = shared_machine()
    run(st, mem, [movi(1, 6000), sti(1, 1), halt()])
    assert st.fault is not None and st.fault.kind is FaultKind.BOUNDS
    assert st.ddc_swap_events == 0


def test_privileged_legacy_access_is_physical():
    # pc inside the privileged window: legacy accesses bypass the ddc, so the
    # switcher return leg can reach the table under the caller's view
    st, mem = bare_machine(data_lo=0, data_hi=64)
    st.switcher_bounds = (0, 16)
    prog = [movi(1, 4000), movi(2, 9), sti(2, 1), ldi(3, 1), halt()]
    run(st, mem, prog)
    assert st.fault is None and st.regs[3].address == 9

    # the same bypass never applies to capability operands
    st2, mem2 = bare_machine(data_lo=0, data_hi=64)
    st2.switcher_bounds = (0, 16)
    st2.regs[4] = make_root(0, 64, Perm.LOAD)
    run(st2, mem2, [ldi(2, 4, 100, cap=True), halt()])
    assert st2.fault is not None and st2.fault.kind is FaultKind.BOUNDS


def test_ordinary_branches_cannot_enter_privileged_region():
    st, mem = bare_machine()
    st.switcher_bounds = (0, 8)
    st.pcc = set_address(st.pcc, 20)
    st.regs[1] = make_root(0, 1 << 20, Perm.EXECUTE)        # covers everything
    prog = [nop()] * 32
    prog[20] = bcap(1)                                       # target address 0
    run(st, mem, prog)
    assert st.fault is not None
    assert st.fault.kind is FaultKind.PERMISSION and st.fault.pc == 20

    st2, mem2 = bare_machine()
    st2.switcher_bounds = (0, 8)
    st2.pcc = set_address(st2.pcc, 20)
    st2.regs[1] = set_address(make_root(0, 1 << 20, Perm.EXECUTE), 3)
    prog2 = [nop()] * 32
    prog2[20] = calll(1)
    run(st2, mem2, prog2)
    assert st2.fault.kind is FaultKind.PERMISSION

    # from inside the region, local flow is unrestricted
    st3, mem3 = bare_machine()
    st3.switcher_bounds = (0, 8)
    st3.regs[1] = set_address(make_root(0, 1 << 20, Perm.EXECUTE), 4)
    run(st3, mem3, [bcap(1), nop(), nop(), nop(), halt()])
    assert st3.fault is None and st3.halted


def test_run_trace_format():
    st, mem = bare_machine()
    prog = [movi(1, 2), halt()]
    st.events = []
    run(st, mem, prog)
    lines = format_trace(st.events, prog)
    assert lines[0].startswith("0 | 0 | addi r1, r16, 2 | -")
    assert lines[1].startswith("1 | 1 | halt")


# --------------------------------------------------------------------------
# The event list

def test_events_off_by_default():
    st, mem = bare_machine()
    assert st.events is None
    run(st, mem, [movi(1, 256), sti(1, 1, 0), halt()])
    assert st.events is None


def test_event_records_in_order():
    st, mem = bare_machine()
    st.code_regions = [(0, 5, 0), (5, 8, 1)]
    st.current_compartment = 0
    prog = [movi(1, 256), sti(1, 1, 8), movi(2, 5), calll(2), halt(),
            ldi(3, 1, 8), ldc(4, 1, 0, cap=True)]
    st.events = []
    run(st, mem, prog)
    assert st.fault.kind is FaultKind.TAG
    assert st.events == [
        ("step", 0, 0, None),
        ("access", 1, 264, 8, True),
        ("step", 1, 0, None),
        ("step", 2, 0, None),
        ("step", 3, 0, None),
        ("access", 5, 264, 8, False),
        ("step", 5, 1, None),
        ("step", 6, 1, st.fault),
    ]


def test_events_record_a_swapped_fault_then_its_retry():
    st, mem = shared_machine()
    prog = [movi(1, 4096), movi(2, 11), sti(2, 1, 0), halt()]
    st.events = []
    run(st, mem, prog)
    assert st.halted and st.ddc_swap_events == 1
    fault = st.events[2][3]
    assert fault.kind is FaultKind.BOUNDS and fault.pc == 2
    assert st.events[2:] == [
        ("step", 2, None, fault),
        ("access", 2, 4096, 8, True),
        ("step", 2, None, None),
        ("step", 3, None, None),
    ]
    assert format_trace(st.events, prog) == [
        "0 | 0 | addi r1, r16, 4096 | -",
        "1 | 1 | addi r2, r16, 11 | -",
        "2 | 2 | sti r2, [r1 + 0] | - | BoundsFault@0x1000 pc=2",
        "3 | 2 | sti r2, [r1 + 0] | -",
        "4 | 3 | halt | -",
    ]
