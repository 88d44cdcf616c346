"""Gate round trips, the switch choreography phase by phase, mutual-distrust
properties, fail-stop behaviour on corrupted inputs, and the emitted-sequence
length arithmetic."""

import dataclasses

import pytest

from capcomp.capability import FaultKind, NULL_CAP, Perm, make_root
from capcomp.isa import (
    REG_FP,
    REG_SP,
    REG_ZERO,
    addi,
    calll,
    halt,
    ldc,
    ldi,
    lpb,
    mov,
    movi,
    retl,
    sti,
)
from capcomp.layout import (
    DDC_PERMS,
    FRAME_OTYPE,
    MIN_OWN_CODE,
    OFF_DDC,
    OFF_PCC,
    OFF_SP,
    PCC_PERMS,
    SWITCHER_CODE,
    TABLE_ENTRY,
    TRAMP_SLOTS,
    boot_init,
    comp_alloc,
    compute_layout,
    install_function,
    parse_config,
)
from capcomp.machine import Fault, run, step
from capcomp.runtime import (
    FRAME_OFF_CALLEE_SLOT,
    FRAME_OFF_CALLEE_SP,
    FRAME_OFF_DDC,
    FRAME_OFF_RET,
    FRAME_OFF_RETLEG,
    FRAME_OFF_FP,
    FRAME_OFF_SP,
    FRAME_SIZE,
    FUZZ_CONFIG,
    FUZZ_REPORT_CAP,
    GateDescriptor,
    GateError,
    RegionArg,
    SAVE_BYTES,
    SAVE_SET,
    SCRUB_BYTES,
    SWITCHER,
    SWITCHER_END,
    SandboxParam,
    SandboxSignature,
    ShareError,
    TRAMP_ENTER_SLOTS,
    TRAMPOLINE,
    call_compartment,
    emit_gate_sequence,
    fuzz_isolation,
    gate_call,
    promote_shared,
    sandbox_call,
    switcher_switch,
    trampoline_enter,
    trampoline_return,
)


def fixture(name):
    import importlib.resources as ir
    return ir.files("capcomp").joinpath("fixtures", name).read_text()


def img_two():
    return boot_init(compute_layout(parse_config(fixture("two_comp.cfg"))))


def img_three():
    return boot_init(compute_layout(parse_config(fixture("three_comp_shared.cfg"))))


def tramp_entry(img, name):
    """Where the switcher enters `name`: its code region starts with its
    trampoline."""
    return img.plan.region(f"{name}.code").base


def table_cap(img, name, off):
    return img.mem.load_cap(img.table_slot(name) + off)


def plant(img, name, off, cap):
    """Replace the pcc (OFF_PCC) or ddc (OFF_DDC) in `name`'s table entry."""
    img.mem.store_cap(img.table_slot(name) + off, cap)


def leaf_plus_one(img, owner="lib"):
    """Install `return arg0 + 1` in the owner and describe a gate to it."""
    entry = install_function(img, owner, [addi(0, 0, 1), retl()])
    return entry


# --------------------------------------------------------------------------
# Sequence arithmetic

def test_constants():
    assert len(SAVE_SET) == 29 and SAVE_BYTES == 928
    assert SCRUB_BYTES == SAVE_BYTES + FRAME_SIZE == 1056


def test_switcher_and_trampoline_lengths():
    from capcomp.runtime import SWITCHER_RET_ENTRY
    assert len(SWITCHER) == 61 <= 64
    assert SWITCHER_RET_ENTRY == 51          # call leg length = return leg entry
    assert len(TRAMPOLINE) == TRAMP_SLOTS == 8


@pytest.mark.parametrize("args,arg_ops", [
    ([], 0),
    ([1, 2, 3], 3),
    ([RegionArg(0x100, 32)], 4),
    ([5, RegionArg(0x100, 32), 7], 6),
    (list(range(8)), 8),
])
def test_prologue_length(args, arg_ops):
    img = img_two()
    entry = leaf_plus_one(img)
    code = emit_gate_sequence(img.plan, GateDescriptor("app", "lib", entry), args)
    assert code.prologue_len == 36 + arg_ops


@pytest.mark.parametrize("dest,epi", [(0, 62), (None, 63), (8, 63), (5, 64), (28, 64)])
def test_epilogue_length(dest, epi):
    img = img_two()
    entry = leaf_plus_one(img)
    code = emit_gate_sequence(
        img.plan, GateDescriptor("app", "lib", entry, dest=dest), [1])
    assert len(code.instructions) == code.prologue_len + epi


# --------------------------------------------------------------------------
# Validation

def test_gate_validation_errors():
    img = img_two()
    entry = leaf_plus_one(img)
    with pytest.raises(GateError, match="boundary"):
        GateDescriptor("app", "app", entry).validate()
    for bad in (-1, 16, 29, 31):
        with pytest.raises(GateError, match="destination"):
            GateDescriptor("app", "lib", entry, dest=bad).validate()
    with pytest.raises(GateError, match="unknown gate callee"):
        emit_gate_sequence(img.plan, GateDescriptor("app", "ghost", entry), [])
    with pytest.raises(GateError, match="outside the code region"):
        emit_gate_sequence(img.plan, GateDescriptor("app", "lib", 2), [])
    with pytest.raises(GateError, match="arguments"):
        emit_gate_sequence(img.plan, GateDescriptor("app", "lib", entry), list(range(9)))


def test_gate_call_preconditions():
    img = img_two()
    entry = leaf_plus_one(img)
    gate = GateDescriptor("app", "lib", entry)
    wrong = GateDescriptor("lib", "app", img.user_entry("app"))
    with pytest.raises(GateError, match="compartment 0"):
        gate_call(img, wrong, [])
    img.machine.halted = True
    with pytest.raises(GateError, match="halted"):
        gate_call(img, gate, [])
    img = img_two()
    img.machine.fault = Fault(FaultKind.BOUNDS, 0, img.machine.pc)
    with pytest.raises(GateError, match="pending fault"):
        gate_call(img, gate, [])


def test_sandbox_caller_rejected():
    img = boot_init(compute_layout(parse_config(fixture("sandbox_host.cfg"))))
    with pytest.raises(GateError, match="not a compartment"):
        emit_gate_sequence(
            img.plan,
            GateDescriptor("parse_header", "host", img.user_entry("host")), [])


# --------------------------------------------------------------------------
# Round trips

def test_round_trip_dest_r0():
    img = img_two()
    entry = leaf_plus_one(img)
    sp0 = img.machine.regs[REG_SP].address
    st = call_compartment(img, GateDescriptor("app", "lib", entry, dest=0), [41])
    assert st.halted and st.fault is None
    assert st.regs[0].address == 42
    assert st.regs[REG_SP].address == sp0
    assert st.switches == 2
    assert st.current_compartment == 0


def test_round_trip_dest_other_and_none():
    img = img_two()
    entry = leaf_plus_one(img)
    st = call_compartment(img, GateDescriptor("app", "lib", entry, dest=5), [41])
    assert st.regs[5].address == 42
    assert st.regs[0] == NULL_CAP          # caller r0 restored
    img2 = img_two()
    entry2 = leaf_plus_one(img2)
    st2 = call_compartment(img2, GateDescriptor("app", "lib", entry2, dest=None), [41])
    assert st2.fault is None and st2.regs[0] == NULL_CAP


def test_args_reach_callee_registers():
    img = img_two()
    base = img.plan.region("lib.data").base + 64
    body = [sti(i, REG_ZERO, base + 8 * i) for i in range(4)] + [retl()]
    entry = install_function(img, "lib", body)
    st = call_compartment(img, GateDescriptor("app", "lib", entry), [9, 8, 7, 6])
    assert st.fault is None
    got = [int.from_bytes(img.mem.read_bytes(base + 8 * i, 8), "little") for i in range(4)]
    assert got == [9, 8, 7, 6]


def test_callee_entry_register_hygiene():
    img = img_two()
    entry = install_function(img, "lib", [retl()])
    gate_call(img, GateDescriptor("app", "lib", entry), [3, 4])
    switcher_switch(img)
    st = trampoline_enter(img)
    assert st.pcc.address == entry
    assert st.current_compartment == 1
    assert (st.regs[0].address, st.regs[1].address) == (3, 4)
    # everything outside the keep set arrives scrubbed
    for r in (9, 10, 11, 13, 14, 15, 17, 19, 20, 21, 27, 28):
        assert st.regs[r] == NULL_CAP, f"r{r} leaked through the switch"
    assert st.regs[12].address == entry
    assert st.regs[30].address == tramp_entry(img, "lib") + TRAMP_ENTER_SLOTS
    # the sealed frame capability sits on the callee stack, nowhere else
    sp = st.regs[REG_SP].address
    stash = img.mem.load_cap(sp)
    assert stash.tag and stash.sealed and stash.otype == FRAME_OTYPE
    assert st.regs[REG_FP].address == sp + 32


def test_phase_composition_matches_full_call():
    img = img_two()
    entry = leaf_plus_one(img)
    gate = GateDescriptor("app", "lib", entry, dest=6)
    sp0 = img.machine.regs[REG_SP].address
    site = None

    st = gate_call(img, gate, [10])
    lo, hi = SWITCHER_CODE
    assert lo <= st.pcc.address < hi
    site = st.regs[30].address - 37        # link = site + prologue_len

    switcher_switch(img)
    frame = sp0 - SAVE_BYTES - FRAME_SIZE

    def frame_word(off):
        return int.from_bytes(img.mem.read_bytes(frame + off, 8), "little")

    assert frame_word(FRAME_OFF_SP) == sp0 - SAVE_BYTES
    ret_cap = img.mem.load_cap(frame + FRAME_OFF_RET)
    assert ret_cap.tag and ret_cap.address == site + 37
    assert img.mem.load_cap(frame + FRAME_OFF_DDC) == table_cap(img, "app", OFF_DDC)
    from capcomp.runtime import SWITCHER_RET_ENTRY
    assert img.mem.load_cap(frame + FRAME_OFF_RETLEG).address == SWITCHER_RET_ENTRY
    assert frame_word(FRAME_OFF_CALLEE_SLOT) == img.table_slot("lib") + OFF_SP
    assert frame_word(FRAME_OFF_CALLEE_SP) == img.plan.region("lib.stack").top
    assert st.pcc.address == tramp_entry(img, "lib")
    # caller resume slot now points at the frame
    slot = img.table_slot("app") + OFF_SP
    assert int.from_bytes(img.mem.read_bytes(slot, 8), "little") == frame

    trampoline_enter(img)
    guard = 0
    back = tramp_entry(img, "lib") + TRAMP_ENTER_SLOTS
    while st.pcc.address != back:
        step(st, img.mem, img.program)
        guard += 1
        assert guard < 50
    trampoline_return(img)
    assert st.pcc.address == SWITCHER_RET_ENTRY   # frames invoke the return leg
    assert st.fault is None

    switcher_switch(img)                   # runs the return leg to its branch
    assert st.pcc.address == site + 37     # epilogue entry
    # the callee's resume slot is back at its rest value
    lib_slot = img.table_slot("lib") + OFF_SP
    assert (int.from_bytes(img.mem.read_bytes(lib_slot, 8), "little")
            == img.plan.region("lib.stack").top)

    from capcomp.machine import run
    run(st, img.mem, img.program)
    assert st.halted and st.regs[6].address == 11

    # same numbers as the one-shot helper on a fresh image
    img2 = img_two()
    entry2 = leaf_plus_one(img2)
    st2 = call_compartment(img2, GateDescriptor("app", "lib", entry2, dest=6), [10])
    assert st2.regs[6].address == 11
    assert st2.switches == st.switches == 2


def step_pcs(events):
    return [ev[1] for ev in events if ev[0] == "step"]


def test_round_trip_records_every_step():
    """One step record per retired instruction, the gate prologue's too."""
    img = img_two()
    entry = leaf_plus_one(img)
    st = img.machine
    st.events = []
    n0 = st.instructions_retired
    call_compartment(img, GateDescriptor("app", "lib", entry), [41])
    assert st.halted and st.fault is None
    assert st.instructions_retired - n0 == 171
    assert len(step_pcs(st.events)) == 171


def test_phase_helpers_record_the_same_steps_as_a_full_call():
    img = img_two()
    entry = install_function(img, "lib", [retl()])
    st = img.machine
    st.events = []
    gate_call(img, GateDescriptor("app", "lib", entry), [41])
    switcher_switch(img)
    trampoline_enter(img)
    run(st, img.mem, img.program, max_steps=1)      # the callee body
    trampoline_return(img)
    switcher_switch(img)
    run(st, img.mem, img.program)
    assert st.halted and st.fault is None

    img2 = img_two()
    entry2 = install_function(img2, "lib", [retl()])
    img2.machine.events = []
    call_compartment(img2, GateDescriptor("app", "lib", entry2), [41])
    assert step_pcs(st.events) == step_pcs(img2.machine.events)


def test_call_budget_counts_the_prologue():
    img = img_two()
    entry = leaf_plus_one(img)
    gate = GateDescriptor("app", "lib", entry)
    prologue = emit_gate_sequence(img.plan, gate, [41]).prologue_len
    st = call_compartment(img, gate, [41], max_steps=prologue)
    assert st.fault is None and not st.halted
    assert st.pc == SWITCHER_CODE[0]         # stopped at the switcher entry


def test_switcher_switch_rejects_the_slots_past_the_switcher():
    img = img_two()
    img.machine.pc = SWITCHER_CODE[0] + SWITCHER_END
    with pytest.raises(GateError, match="not inside the switcher"):
        switcher_switch(img)


def test_trampoline_phases_refuse_a_pc_away_from_their_point():
    # each phase refuses the other's starting point, and runs no step
    img = img_two()
    st = img.machine
    tramp = img.plan.region("lib.code").base
    st.pc = tramp + TRAMP_ENTER_SLOTS            # the return point
    with pytest.raises(GateError, match="not at a trampoline entry"):
        trampoline_enter(img)
    st.pc = tramp                                # the entry
    with pytest.raises(GateError, match="not at a trampoline return point"):
        trampoline_return(img)
    assert (st.pc, st.instructions_retired, st.fault) == (tramp, 0, None)


def test_repeat_call_is_bit_exact():
    img = img_two()
    entry = leaf_plus_one(img)
    base, top = img.plan.code_bounds["app"]
    site = top - 110
    gate = GateDescriptor("app", "lib", entry, dest=0)

    st = call_compartment(img, gate, [41], at=site)   # priming run
    assert st.halted and st.regs[0].address == 42
    regs1 = list(st.regs)
    pcc1 = st.pcc
    mem1, tags1 = bytes(img.mem.data), bytes(img.mem.tags)

    st.halted = False
    call_compartment(img, gate, [41], at=site)
    assert st.halted and st.fault is None
    assert list(st.regs) == regs1 and st.pcc == pcc1
    assert bytes(img.mem.data) == mem1
    assert bytes(img.mem.tags) == tags1


def test_nested_calls_three_compartments():
    img = img_three()
    plan = img.plan
    entry_store = install_function(img, "store", [addi(0, 0, 100), retl()])
    inner = emit_gate_sequence(
        plan, GateDescriptor("codec", "store", entry_store, dest=0), [7])
    codec_body = list(inner.instructions) + [addi(0, 0, 10), retl()]
    entry_codec = install_function(img, "codec", codec_body)
    gate = GateDescriptor("app", "codec", entry_codec, dest=5)

    base, top = plan.code_bounds["app"]
    site = top - 120
    st = call_compartment(img, gate, [0], at=site)
    assert st.halted and st.fault is None
    assert st.regs[5].address == 117       # 7 + 100 + 10
    assert st.switches == 4
    assert st.current_compartment == 0

    # steady state is reproducible bit for bit
    regs1, mem1, tags1 = list(st.regs), bytes(img.mem.data), bytes(img.mem.tags)
    st.halted = False
    call_compartment(img, gate, [0], at=site)
    assert list(st.regs) == regs1
    assert bytes(img.mem.data) == mem1 and bytes(img.mem.tags) == tags1


def test_middle_compartment_stack_does_not_descend():
    # the return leg must reset the callee's resume slot; without it, every
    # round trip through a middle compartment would leak its stack
    img = img_three()
    plan = img.plan
    entry_store = install_function(img, "store", [retl()])
    inner = emit_gate_sequence(
        plan, GateDescriptor("codec", "store", entry_store, dest=None), [])
    entry_codec = install_function(img, "codec", list(inner.instructions) + [retl()])
    gate = GateDescriptor("app", "codec", entry_codec, dest=None)
    site = plan.code_bounds["app"][1] - 120
    slot = img.table_slot("codec") + OFF_SP
    rest = plan.region("codec.stack").top
    st = img.machine
    for i in range(50):
        st.halted = False
        call_compartment(img, gate, [], at=site)
        assert st.fault is None, f"round trip {i} faulted: {st.fault}"
        got = int.from_bytes(img.mem.read_bytes(slot, 8), "little")
        assert got == rest, f"codec resume slot drifted to {got:#x} on trip {i}"


# --------------------------------------------------------------------------
# Mutual distrust

def test_callee_cannot_read_caller_memory():
    img = img_two()
    secret = comp_alloc(img, "app", 16)
    img.mem.write_bytes(secret, b"confidential")
    body = [ldi(8, 0, 0), retl()]          # legacy load of the passed address
    entry = install_function(img, "lib", body)
    st = call_compartment(img, GateDescriptor("app", "lib", entry), [secret])
    assert st.fault is not None
    assert st.fault.kind is FaultKind.BOUNDS and st.fault.ddc_access
    assert st.current_compartment == 1     # froze inside the callee


def test_callee_register_junk_is_restored():
    img = img_two()
    body = [movi(1, 99), movi(2, 99), movi(3, 99), retl()]
    entry = install_function(img, "lib", body)
    st = call_compartment(img, GateDescriptor("app", "lib", entry, dest=0), [0])
    assert st.fault is None
    for r in (1, 2, 3):
        assert st.regs[r] == NULL_CAP


def test_region_arg_bounds_and_perms():
    img = img_two()
    buf = comp_alloc(img, "app", 32)
    img.mem.write_bytes(buf, (123456).to_bytes(8, "little"))

    read_body = [ldi(8, 0, 0, cap=True), mov(0, 8), retl()]
    entry = install_function(img, "lib", read_body)
    st = call_compartment(img, GateDescriptor("app", "lib", entry, dest=0),
                          [RegionArg(buf, 32, Perm.LOAD)])
    assert st.fault is None and st.regs[0].address == 123456

    img2 = img_two()
    buf2 = comp_alloc(img2, "app", 32)
    entry2 = install_function(img2, "lib", [sti(1, 0, 0, cap=True), retl()])
    st2 = call_compartment(img2, GateDescriptor("app", "lib", entry2),
                           [RegionArg(buf2, 32, Perm.LOAD)])
    assert st2.fault.kind is FaultKind.PERMISSION   # read-only view

    img3 = img_two()
    buf3 = comp_alloc(img3, "app", 32)
    entry3 = install_function(img3, "lib", [ldi(8, 0, 32, cap=True), retl()])
    st3 = call_compartment(img3, GateDescriptor("app", "lib", entry3),
                           [RegionArg(buf3, 32, Perm.LOAD)])
    assert st3.fault.kind is FaultKind.BOUNDS       # one past the view


def test_enter_and_the_switcher_read_one_table_entry():
    # lib's pcc and ddc, narrowed in its table entry alone: `enter`
    # installs both, and a gated call into lib runs under the same two.
    from capcomp.capability import set_address
    img = img_two()
    code = img.plan.region("lib.code")
    lo, hi = img.plan.ddc_bounds["lib"]
    pcc = make_root(code.base, code.top - 8, PCC_PERMS)
    ddc = make_root(lo, hi - 64, DDC_PERMS)
    plant(img, "lib", OFF_PCC, pcc)
    plant(img, "lib", OFF_DDC, ddc)
    st = img.machine
    img.enter("lib")
    assert (st.code, st.pc, st.ddc) == (set_address(pcc, img.user_entry("lib")),
                                        img.user_entry("lib"), ddc)
    img.enter("app")
    entry = install_function(img, "lib", [retl()])
    gate_call(img, GateDescriptor("app", "lib", entry), [])
    switcher_switch(img)
    assert (st.code, st.pc, st.ddc) == (set_address(pcc, tramp_entry(img, "lib")),
                                        tramp_entry(img, "lib"), ddc)
    assert st.fault is None


def test_corrupted_frame_stash_fail_stops():
    img = img_two()
    entry = install_function(img, "lib", [retl()])
    gate_call(img, GateDescriptor("app", "lib", entry), [])
    switcher_switch(img)
    st = trampoline_enter(img)
    stash_addr = st.regs[REG_SP].address
    img.mem.write_bytes(stash_addr, b"\xff")        # clears the granule tag
    from capcomp.machine import run
    run(st, img.mem, img.program)
    assert st.fault is not None and st.fault.kind is FaultKind.TAG
    assert st.fault.pc == tramp_entry(img, "lib") + 7   # the return invoke
    assert st.current_compartment == 1              # never re-entered the caller


def rogue_invoke(img, caller, r10, r11, r12):
    """Bypass the gate emitter: seed the switch parameter registers by hand
    and invoke the sealed entry capability directly."""
    seq = [
        movi(10, r10),
        movi(11, r11),
        movi(12, r12),
        movi(15, img.plan.sealed_cap_addr(caller)),
    ]
    seq += [ldc(14, 15, 0), lpb(14, 19), halt()]
    entry = install_function(img, caller, seq)
    st = img.machine
    from capcomp.capability import set_address
    st.pcc = set_address(st.pcc, entry)
    from capcomp.machine import run
    run(st, img.mem, img.program)
    return st


def test_junk_caller_offset_fail_stops():
    img = img_two()
    table = img.plan.region("cap_table")
    before = img.mem.read_bytes(table.base, table.top - table.base)
    st = rogue_invoke(img, "app", r10=57 * TABLE_ENTRY, r11=1 * TABLE_ENTRY,
                      r12=img.user_entry("lib"))
    assert st.fault is not None and st.fault.kind is FaultKind.TAG
    lo, hi = SWITCHER_CODE
    assert lo <= st.fault.pc < hi                   # died inside the switcher
    assert img.mem.read_bytes(table.base, table.top - table.base) == before


def test_junk_callee_offset_fail_stops():
    img = img_two()
    st = rogue_invoke(img, "app", r10=0, r11=-3 * TABLE_ENTRY,
                      r12=img.user_entry("lib"))
    assert st.fault is not None and st.fault.kind is FaultKind.TAG
    lo, hi = SWITCHER_CODE
    assert lo <= st.fault.pc < hi


def test_junk_branch_target_fail_stops():
    img = img_two()
    st = rogue_invoke(img, "app", r10=0, r11=1 * TABLE_ENTRY, r12=999_999)
    assert st.fault is not None and st.fault.kind is FaultKind.BOUNDS
    assert st.fault.pc == tramp_entry(img, "lib") + 3   # the trampoline call


def call_with_sp(img, sp):
    """app sets fp and sp, then calls its own sealed entry."""
    seq = [movi(15, img.plan.sealed_cap_addr("app")), ldc(14, 15, 0),
           movi(REG_FP, 0xDEADBEEF), movi(REG_SP, sp), lpb(14, 19), halt()]
    st = img.machine
    st.pc = install_function(img, "app", seq)
    run(st, img.mem, img.program)
    return st


def assert_frame_stores_refused(img, sp):
    """The call leg must fault at its first frame store, with memory and
    tags as they were."""
    mem = img.mem
    data, tags = bytes(mem.data), bytes(mem.tags)
    st = call_with_sp(img, sp)
    assert st.fault is not None
    assert (st.fault.kind, st.fault.pc) == (FaultKind.TAG, SWITCHER_CODE[0] + 4)
    assert (bytes(mem.data), bytes(mem.tags)) == (data, tags)


def test_a_forged_stack_pointer_cannot_aim_the_frame_stores():
    # The call leg builds the switch frame at sp - FRAME_SIZE.  A caller that
    # sets sp into lib's heap must fault before any of the frame stores, which
    # would put its fp word at A, and its ddc and return capability below A.
    img = img_two()
    target = img.plan.region("lib.heap").base + 8          # A
    assert_frame_stores_refused(img, target + 24)


# Frames that app's ddc, [app.data.base, app.heap.top), does not cover, by
# the sp that app forges.
FORGED_FRAMES = {
    "switcher pair": lambda plan: plan.region("switcher_data").base + FRAME_SIZE,
    "capability table": lambda plan: plan.region("cap_table").base + FRAME_SIZE,
    "lib stack": lambda plan: plan.region("lib.stack").top,
    "across the view's base": lambda plan: plan.region("app.data").base + FRAME_SIZE // 2,
    "across the view's top": lambda plan: plan.region("app.heap").top + FRAME_SIZE // 2,
}


@pytest.mark.parametrize("case", FORGED_FRAMES)
def test_no_frame_outside_the_callers_view_is_written(case):
    # A frame that lies in, or only reaches into, memory outside the caller's
    # ddc is refused as a whole: no store of it lands, not even the ones
    # that fall inside the view.
    img = img_two()
    sp = FORGED_FRAMES[case](img.plan)
    ddc = img.mem.load_cap(img.table_slot("app") + OFF_DDC)
    assert not ddc.base <= sp - FRAME_SIZE < sp <= ddc.top
    assert_frame_stores_refused(img, sp)


@pytest.mark.parametrize("edge", ["base", "top"])
def test_a_frame_at_either_edge_of_the_callers_view_is_written(edge):
    # The control for the cases above: a frame that just fits inside the
    # caller's ddc, at its base or its top, passes the call leg's stores.
    img = img_two()
    ddc = img.mem.load_cap(img.table_slot("app") + OFF_DDC)
    sp = ddc.base + FRAME_SIZE if edge == "base" else ddc.top
    st = call_with_sp(img, sp)
    assert st.fault is None or not SWITCHER_CODE[0] <= st.fault.pc < SWITCHER_CODE[1]

    def frame_word(off):
        return int.from_bytes(img.mem.read_bytes(sp - FRAME_SIZE + off, 8), "little")

    assert (frame_word(FRAME_OFF_FP), frame_word(FRAME_OFF_SP)) == (0xDEADBEEF, sp)


# --------------------------------------------------------------------------
# Sandboxes

def sandbox_img():
    return boot_init(compute_layout(parse_config(fixture("sandbox_host.cfg"))))


def test_sandbox_region_param_round_trip():
    img = sandbox_img()
    buf = comp_alloc(img, "host", 32)
    img.mem.write_bytes(buf, (777).to_bytes(8, "little"))
    entry = install_function(img, "parse_header",
                             [ldi(8, 0, 0, cap=True), mov(0, 8), retl()])
    sig = SandboxSignature("parse_header", entry,
                           (SandboxParam("region", 32, Perm.LOAD),), dest=0)
    st = sandbox_call(img, sig, [buf])
    assert st.fault is None and st.regs[0].address == 777


def test_sandbox_cannot_reach_host_private_data():
    img = sandbox_img()
    secret = img.plan.region("host.data").base + 64
    entry = install_function(img, "parse_header", [ldi(8, 0, 0), retl()])
    sig = SandboxSignature("parse_header", entry, (SandboxParam("scalar"),))
    st = sandbox_call(img, sig, [secret])
    assert st.fault is not None
    assert st.fault.kind is FaultKind.BOUNDS and st.fault.ddc_access


def test_sandbox_arg_window_is_exact():
    img = sandbox_img()
    buf = comp_alloc(img, "host", 48)
    entry = install_function(img, "parse_header", [ldi(8, 0, 32, cap=True), retl()])
    sig = SandboxSignature("parse_header", entry,
                           (SandboxParam("region", 32, Perm.LOAD),))
    st = sandbox_call(img, sig, [buf])
    assert st.fault.kind is FaultKind.BOUNDS        # window ends at +32, not +48


def test_host_reads_sandbox_scratch():
    img = sandbox_img()
    scratch = img.plan.region("parse_header.scratch")
    img.mem.write_bytes(scratch.base, b"\x2a")
    body = [movi(1, scratch.base), ldi(2, 1, 0), halt()]
    entry = install_function(img, "host", body)
    st = img.machine
    from capcomp.capability import set_address
    from capcomp.machine import run
    st.pcc = set_address(st.pcc, entry)
    run(st, img.mem, img.program)
    assert st.fault is None and st.regs[2].address == 0x2A


def test_host_cannot_call_into_sandbox_code():
    # The sandbox body would write the host stack if it ran under the
    # host's ddc; the host's pcc does not cover the slice, so the call faults
    # before the body runs.
    img = sandbox_img()
    entry = install_function(img, "parse_header", [sti(0, REG_SP, -32), retl()])
    site = install_function(img, "host", [movi(9, entry), calll(9), halt()])
    st = img.machine
    st.pc = site
    st.events = []
    run(st, img.mem, img.program)
    assert st.fault is not None and st.fault.kind is FaultKind.BOUNDS
    assert [ev for ev in st.events if ev[0] == "access"] == []


def test_gate_entry_in_a_sandbox_slice_is_not_the_hosts():
    plan = compute_layout(parse_config(fixture("sandbox_host.cfg")))
    inside = plan.region("parse_header.code").base + TRAMP_SLOTS
    with pytest.raises(GateError, match="outside the code region of 'host'"):
        emit_gate_sequence(plan, GateDescriptor("peer", "host", inside), [])


def test_sandbox_call_validation():
    img = sandbox_img()
    entry = install_function(img, "parse_header", [retl()])
    with pytest.raises(GateError, match="not a declared sandbox"):
        sandbox_call(img, SandboxSignature("peer", entry), [])
    sig = SandboxSignature("parse_header", entry, (SandboxParam("scalar"),))
    with pytest.raises(GateError, match="takes 1 arguments"):
        sandbox_call(img, sig, [])
    bad = SandboxSignature("parse_header", entry, (SandboxParam("soup"),))
    with pytest.raises(GateError, match="unknown parameter kind"):
        sandbox_call(img, bad, [1])


# --------------------------------------------------------------------------
# Stack promotion

def test_promote_shared_paths():
    img = img_three()
    lo, hi = img.plan.shared_bounds["inbuf"]
    a = promote_shared(img, "app", "codec", 64)
    b = promote_shared(img, "codec", "app", 64)    # order-insensitive
    assert a == lo and b == lo + 64
    with pytest.raises(ShareError, match="no overlap window"):
        promote_shared(img, "app", "store", 16)    # mailbox is exception mode


# --------------------------------------------------------------------------
# Fuzz harness smoke (the heavyweight run lives in the acceptance suite)

def test_fuzz_isolation_smoke():
    img = boot_init(compute_layout(parse_config(FUZZ_CONFIG)))
    report = fuzz_isolation(img, sequences=300, seed=7)
    assert report.sequences == 300
    assert report.violations == []
    assert report.steps > 0
    assert sum(report.faults.values()) > 0          # random code mostly faults


def test_fuzz_sandbox_host_confined():
    # At this seed, sequence 17476 calls from host code into a sandbox
    # slice (`call r7`: an earlier sequence left slot 512, decode_frame's
    # first, in the sealed-entry slot r7 is reloaded from); a host pcc
    # spanning the slices lets that code write the host stack under the
    # host's ddc.
    img = sandbox_img()
    assert fuzz_isolation(img, sequences=40_000, seed=67).violations == []


def test_fuzz_sandbox_host_guard_is_armed():
    # The guard above holds only while its seed still reaches that call:
    # with the host pcc widened over its sandbox slices, the same run must
    # report the escape.
    img = sandbox_img()
    host = table_cap(img, "host", OFF_PCC)
    top = max(img.plan.region(f"{name}.code").top for name in img.plan.sandboxes)
    plant(img, "host", OFF_PCC, make_root(host.base, top, PCC_PERMS))
    assert fuzz_isolation(img, sequences=40_000, seed=67).violations == [
        "sequence 17476: pc 513 (decode_frame) wrote [0x2420, 0x2440) outside its view"]


def test_fuzz_violations_are_capped():
    # A planted breach: app's ddc widened to all of data memory.
    img = img_two()
    plant(img, "app", OFF_DDC, make_root(0, img.plan.data_top, DDC_PERMS))
    report = fuzz_isolation(img, sequences=20_000, seed=3)
    assert report.sequences < 20_000                # stopped at the breach beyond the cap
    assert len(report.violations) == FUZZ_REPORT_CAP == 20
    assert report.violations[-1] == "..."
    assert all("outside its view" in v for v in report.violations[:-1])


def test_fuzz_rejects_a_negative_sequence_count():
    # A negative count would report a vacuous pass.
    with pytest.raises(ValueError, match="sequences must be at least 0, not -1"):
        fuzz_isolation(img_two(), sequences=-1)


def test_fuzz_rejects_a_negative_seed():
    # `random.Random(-7)` is seeded as `Random(7)`, so a negative seed would
    # silently repeat the run of its absolute value.
    for seed in (-1, -7):
        with pytest.raises(ValueError, match=f"seed must be at least 0, not {seed}"):
            fuzz_isolation(img_two(), sequences=0, seed=seed)
    assert fuzz_isolation(img_two(), sequences=0, seed=0).sequences == 0


def test_fuzz_sequences_fit_a_code_region_at_the_floor():
    # The planner's floor, MIN_OWN_CODE, is the trampoline, the longest
    # sequence and its halt: on a plan whose app code region is exactly that
    # long, no drawn slot or halt lands past it.
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    app = plan.region("app.code")
    plan = dataclasses.replace(plan, regions=[
        dataclasses.replace(r, top=r.base + MIN_OWN_CODE) if r is app else r
        for r in plan.regions])
    img = boot_init(plan)
    # from app's new top to lib's fuzz site: nothing, then lib's trampoline
    top, lib_site = app.base + MIN_OWN_CODE, img.user_entry("lib")
    before = img.program[top:lib_site]
    rep = fuzz_isolation(img, sequences=2000, seed=6)
    assert rep.sequences == 2000 and rep.steps > 0
    assert img.program[top:lib_site] == before


def test_fuzz_leaves_the_event_list_off():
    img = img_two()
    assert fuzz_isolation(img, sequences=300, seed=3).violations == []
    assert img.machine.events is None


def test_fuzz_breach_report_is_pinned():
    # Each access is judged once, in the sequence that made it, and the
    # capped early return leaves the event list off too.
    img = img_two()
    plant(img, "app", OFF_DDC, make_root(0, img.plan.data_top, DDC_PERMS))
    report = fuzz_isolation(img, sequences=20_000, seed=3)
    assert (report.sequences, report.steps, report.switches) == (369, 276, 4)
    assert report.violations == [
        "sequence 4: pc 72 (app) wrote [0xd5, 0xdd) outside its view",
        "sequence 16: pc 73 (app) wrote [0xe7, 0xef) outside its view",
        "sequence 26: pc 73 (app) read [0x120, 0x140) outside its view",
        "sequence 62: pc 72 (app) wrote [0xe, 0x16) outside its view",
        "sequence 122: pc 72 (app) wrote [0x11, 0x19) outside its view",
        "sequence 138: pc 74 (app) wrote [0xe1, 0xe9) outside its view",
        "sequence 176: pc 73 (app) read [0x94, 0x9c) outside its view",
        "sequence 190: pc 72 (app) read [0x13, 0x1b) outside its view",
        "sequence 192: pc 73 (app) read [0x7f, 0x87) outside its view",
        "sequence 194: pc 73 (app) read [0xdf, 0xe7) outside its view",
        "sequence 196: pc 73 (app) wrote [0x33, 0x3b) outside its view",
        "sequence 210: pc 72 (app) read [0x10e, 0x116) outside its view",
        "sequence 224: pc 72 (app) read [0x42, 0x4a) outside its view",
        "sequence 224: pc 75 (app) read [0xef, 0xf7) outside its view",
        "sequence 226: pc 72 (app) wrote [0x80, 0xa0) outside its view",
        "sequence 266: pc 72 (app) wrote [0x7f, 0x87) outside its view",
        "sequence 336: pc 73 (app) wrote [0xc7, 0xcf) outside its view",
        "sequence 348: pc 72 (app) wrote [0x78, 0x80) outside its view",
        "sequence 362: pc 73 (app) wrote [0xa3, 0xab) outside its view",
        "...",
    ]
    assert img.machine.events is None
