"""Gate round trips, the switch choreography phase by phase, mutual-distrust
properties, fail-stop behaviour on corrupted inputs, and the emitted-sequence
length arithmetic."""

import pytest

from capcomp.capability import FaultKind, NULL_CAP, Perm
from capcomp.isa import REG_FP, REG_SP, REG_ZERO, addi, halt, ldi, mov, movi, retl, sti
from capcomp.layout import (
    FRAME_OTYPE,
    OFF_SP,
    TABLE_ENTRY,
    TRAMP_SLOTS,
    boot_init,
    comp_alloc,
    compute_layout,
    install_function,
    parse_config,
)
from capcomp.machine import step
from capcomp.runtime import (
    FRAME_SIZE,
    FUZZ_CONFIG,
    GateDescriptor,
    GateError,
    RegionArg,
    SAVE_BYTES,
    SAVE_SET,
    SCRUB_BYTES,
    SandboxParam,
    SandboxSignature,
    ShareError,
    TRAMP_ENTER_SLOTS,
    call_compartment,
    emit_gate_sequence,
    emit_switcher,
    emit_trampoline,
    fuzz_isolation,
    gate_call,
    promote_shared,
    read_switch_frame,
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
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    sw = emit_switcher(plan)
    assert len(sw) == 61 <= 64
    assert SWITCHER_RET_ENTRY == 51          # call leg length = return leg entry
    assert len(emit_trampoline()) == TRAMP_SLOTS == 8


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
    assert code.epilogue_len == epi
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
    base = img.plan.data_base["lib"] + 64
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
    assert st.regs[30].address == img.tramp_entries["lib"] + TRAMP_ENTER_SLOTS
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
    lo, hi = img.plan.switcher_code
    assert lo <= st.pcc.address < hi
    site = st.regs[30].address - 37        # link = site + prologue_len

    switcher_switch(img)
    frame = read_switch_frame(img, sp0 - SAVE_BYTES - FRAME_SIZE)
    assert frame.sp == sp0 - SAVE_BYTES
    assert frame.ret_cap.tag and frame.ret_cap.address == site + 37
    assert frame.caller_ddc == img.ddc_caps["app"]
    from capcomp.runtime import SWITCHER_RET_ENTRY
    assert frame.ret_leg.address == SWITCHER_RET_ENTRY
    assert frame.callee_slot == img.table_slot("lib") + OFF_SP
    assert frame.callee_sp == img.plan.stack_top["lib"]
    assert st.pcc.address == img.tramp_entries["lib"]
    # caller resume slot now points at the frame
    slot = img.table_slot("app") + OFF_SP
    assert int.from_bytes(img.mem.read_bytes(slot, 8), "little") == frame.addr

    trampoline_enter(img)
    guard = 0
    back = img.tramp_entries["lib"] + TRAMP_ENTER_SLOTS
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
            == img.plan.stack_top["lib"])

    from capcomp.machine import run
    run(st, img.mem, img.program)
    assert st.halted and st.regs[6].address == 11

    # same numbers as the one-shot helper on a fresh image
    img2 = img_two()
    entry2 = leaf_plus_one(img2)
    st2 = call_compartment(img2, GateDescriptor("app", "lib", entry2, dest=6), [10])
    assert st2.regs[6].address == 11
    assert st2.switches == st.switches == 2


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
    rest = plan.stack_top["codec"]
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
    assert st.fault.pc == img.tramp_entries["lib"] + 7   # the return invoke
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
    from capcomp.isa import ldc, lpb
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
    lo, hi = img.plan.switcher_code
    assert lo <= st.fault.pc < hi                   # died inside the switcher
    assert img.mem.read_bytes(table.base, table.top - table.base) == before


def test_junk_callee_offset_fail_stops():
    img = img_two()
    st = rogue_invoke(img, "app", r10=0, r11=-3 * TABLE_ENTRY,
                      r12=img.user_entry("lib"))
    assert st.fault is not None and st.fault.kind is FaultKind.TAG
    lo, hi = img.plan.switcher_code
    assert lo <= st.fault.pc < hi


def test_junk_branch_target_fail_stops():
    img = img_two()
    st = rogue_invoke(img, "app", r10=0, r11=1 * TABLE_ENTRY, r12=999_999)
    assert st.fault is not None and st.fault.kind is FaultKind.BOUNDS
    assert st.fault.pc == img.tramp_entries["lib"] + 3   # the trampoline call


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
    secret = img.plan.data_base["host"] + 64
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
    sb = img.plan.sandboxes["parse_header"]
    img.mem.write_bytes(sb.scratch_base, b"\x2a")
    body = [movi(1, sb.scratch_base), ldi(2, 1, 0), halt()]
    entry = install_function(img, "host", body)
    st = img.machine
    from capcomp.capability import set_address
    from capcomp.machine import run
    st.pcc = set_address(st.pcc, entry)
    run(st, img.mem, img.program)
    assert st.fault is None and st.regs[2].address == 0x2A


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
    assert a == lo and b == lo + 64 and img.promotion_count == 2
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
