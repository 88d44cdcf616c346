"""Gate emission from shared blocks, the switcher and trampoline constants,
and the `Ins` builder (`isa._InsBuilder`), checked against references: the
per-call builders that emitted every instruction afresh, and an `Ins` built
field by field the way the generated frozen-dataclass `__init__` builds it."""

import dataclasses
import importlib.resources as ir

import pytest
from hypothesis import given, settings, strategies as st

from capcomp.capability import Perm
from capcomp.isa import (
    Ins,
    Op,
    REG_FP,
    REG_LINK,
    REG_SP,
    REG_ZERO,
    _InsBuilder,
    addi,
    bcap,
    calll,
    cvtd,
    format_ins,
    halt,
    installddc,
    ldc,
    ldi,
    lpb,
    mov,
    movi,
    readddc,
    restrict,
    retl,
    sealr,
    setaddr,
    setbounds,
    stc,
    sti,
)
from capcomp.layout import (
    FRAME_OTYPE,
    OFF_SP,
    OFF_TRAMP,
    TABLE_ENTRY,
    boot_init,
    compute_layout,
    install_function,
    parse_config,
)
from capcomp.runtime import (
    FRAME_OFF_CALLEE_SLOT,
    FRAME_OFF_CALLEE_SP,
    FRAME_OFF_DDC,
    FRAME_OFF_FP,
    FRAME_OFF_RET,
    FRAME_OFF_RETLEG,
    FRAME_OFF_SP,
    FRAME_SIZE,
    R_ADDR,
    R_ARG_MAX,
    R_CALLEE_OFF,
    R_CALLER_OFF,
    R_FRAME,
    R_FRAME_OUT,
    R_PAIR2,
    R_SEALED,
    R_STASH,
    R_TARGET,
    SAVE_BYTES,
    SAVE_SET,
    SCRUB_BYTES,
    SWITCHER,
    SWITCHER_RET_ENTRY,
    SWITCHER_SCRUB,
    TRAMPOLINE,
    GateCode,
    GateDescriptor,
    GateError,
    RegionArg,
    emit_gate_sequence,
    install_call_site,
)

BUNDLED_CONFIGS = sorted(p.name for p in ir.files("capcomp").joinpath("fixtures").iterdir()
                         if p.name.endswith(".cfg"))


def fixture(name):
    return ir.files("capcomp").joinpath("fixtures", name).read_text()


# --------------------------------------------------------------------------
# Reference: the per-call builder, every instruction constructed on each call.

def ref_emit_gate_sequence(plan, gate, args):
    gate.validate()
    if gate.caller not in plan.code_bounds:
        raise GateError(f"gate caller {gate.caller!r} is not a compartment")
    if gate.callee in plan.sandboxes:
        c_lo, c_hi = (plan.region(f"{gate.callee}.code").base,
                      plan.region(f"{gate.callee}.code").top)
    elif gate.callee in plan.code_bounds:
        c_lo, c_hi = plan.code_bounds[gate.callee]
    else:
        raise GateError(f"unknown gate callee {gate.callee!r}")
    if not c_lo <= gate.entry < c_hi:
        raise GateError(f"entry {gate.entry} outside the code region of {gate.callee!r}")
    if len(args) > R_ARG_MAX:
        raise GateError(f"{len(args)} arguments do not fit the argument registers")

    caller_id = plan.comp_ids[gate.caller]
    callee_id = plan.comp_ids[gate.callee]

    seq = [addi(REG_SP, REG_SP, -SAVE_BYTES)]
    for j, r in enumerate(SAVE_SET):
        seq.append(stc(r, REG_SP, 32 * j))
    for i, a in enumerate(args):
        if isinstance(a, RegionArg):
            seq.append(movi(20, a.base))
            seq.append(movi(21, a.base + a.length))
            seq.append(cvtd(i, 20, 21))
            seq.append(restrict(i, i, a.perms))
        else:
            seq.append(movi(i, int(a)))
    seq.append(movi(R_CALLER_OFF, caller_id * TABLE_ENTRY))
    seq.append(movi(R_CALLEE_OFF, callee_id * TABLE_ENTRY))
    seq.append(movi(R_TARGET, gate.entry))
    seq.append(movi(R_ADDR, plan.sealed_cap_addr(gate.caller)))
    seq.append(ldc(R_SEALED, R_ADDR, 0))
    seq.append(lpb(R_SEALED, R_PAIR2))
    prologue_len = len(seq)

    dest = gate.dest
    if dest not in (None, 0):
        seq.append(mov(R_STASH, 0))
    if dest not in (None, 0) and dest != R_STASH:
        seq.append(mov(dest, R_STASH))
    for j, r in enumerate(SAVE_SET):
        if dest is not None and r == dest:
            continue
        seq.append(ldc(r, REG_SP, 32 * j))
    seq.append(addi(REG_SP, REG_SP, SAVE_BYTES))
    for j in range(SCRUB_BYTES // 32):
        seq.append(stc(REG_ZERO, REG_SP, -SCRUB_BYTES + 32 * j))

    return GateCode(tuple(seq), prologue_len)


@pytest.fixture(scope="module")
def three():
    img = boot_init(compute_layout(parse_config(fixture("three_comp_shared.cfg"))))
    entries = {c: install_function(img, c, [addi(0, 0, 1), retl()])
               for c in ("codec", "store")}
    return img, entries


ARG_LISTS = {
    "none": [],
    "one": [7],
    "eight": [3, -1, 0, 1 << 40, 5, 6, 7, 8],
    "region": [RegionArg(0x100, 32)],
    "mixed": [5, RegionArg(0x200, 64, Perm.LOAD), 9, RegionArg(0x40, 32, Perm(0))],
}


@pytest.mark.parametrize("callee,caller", [("codec", "app"), ("store", "codec")])
@pytest.mark.parametrize("dest", [None, 0, 1, R_STASH, 28])
@pytest.mark.parametrize("args", sorted(ARG_LISTS))
def test_emission_equals_the_per_call_builder(three, callee, caller, dest, args):
    img, entries = three
    gate = GateDescriptor(caller, callee, entries[callee], dest=dest)
    got = emit_gate_sequence(img.plan, gate, ARG_LISTS[args])
    want = ref_emit_gate_sequence(img.plan, gate, ARG_LISTS[args])
    assert type(got.instructions) is tuple
    assert got.prologue_len == want.prologue_len
    assert len(got.instructions) == len(want.instructions)
    for i, (g, w) in enumerate(zip(got.instructions, want.instructions)):
        assert g == w, f"slot {i}: {g} != {w}"
    assert got == want


def test_emissions_share_blocks_but_no_mutable_state(three):
    img, entries = three
    first = emit_gate_sequence(img.plan, GateDescriptor("app", "codec", entries["codec"], 0), [1])
    snapshot = list(first.instructions)
    second = emit_gate_sequence(
        img.plan, GateDescriptor("app", "store", entries["store"], dest=5),
        [2, RegionArg(0x100, 32)])
    # The second emission, with other arguments and another epilogue, leaves
    # the first one as it was: its sequence is a tuple, not a shared list.
    assert list(first.instructions) == snapshot
    assert type(first.instructions) is tuple and type(second.instructions) is tuple
    # The save block is shared between them (the same immutable objects).
    assert all(a is b for a, b in zip(first.instructions[:30], second.instructions[:30]))
    # Program slots hold those shared objects too; overwriting a slot
    # replaces the slot's entry and leaves every emitted sequence as it was.
    site, code = install_call_site(img, GateDescriptor("app", "codec", entries["codec"]), [4])
    assert img.program[site + 1] is first.instructions[1]
    img.program[site + 1] = halt()
    assert list(first.instructions) == snapshot
    assert code.instructions[1] == stc(SAVE_SET[0], REG_SP, 0)


def test_install_call_site_places_code_and_halt(three):
    img, entries = three
    gate = GateDescriptor("app", "codec", entries["codec"])
    hi = img.plan.code_bounds["app"][1]
    n = len(emit_gate_sequence(img.plan, gate, [1]).instructions)
    for at in (hi - n - 1, hi - n - 40):
        site, code = install_call_site(img, gate, (1,), at=at)
        assert site == at
        assert img.program[site:site + n + 1] == [*code.instructions, halt()]
        assert img.machine.pc == site
        assert img.machine.pcc.address == site
    free = img.next_free["app.code"]
    site, code = install_call_site(img, gate, [1])
    assert site == free
    assert img.next_free["app.code"] == free + len(code.instructions) + 1


# --------------------------------------------------------------------------
# Reference: the per-call switcher and trampoline builders, every instruction
# constructed on each call, the switcher's table base read off the plan.

def ref_emit_switcher(plan):
    tb = plan.region("cap_table").base
    seq = [
        addi(R_FRAME, REG_SP, -FRAME_SIZE),
        readddc(21),
        addi(22, R_FRAME, FRAME_SIZE),
        setbounds(23, 21, R_FRAME, 22),
        stc(REG_LINK, 23, FRAME_OFF_RET, cap=True),
        stc(21, 23, FRAME_OFF_DDC, cap=True),
        sti(REG_SP, 23, FRAME_OFF_SP, cap=True),
        sti(REG_FP, 23, FRAME_OFF_FP, cap=True),
        installddc(R_PAIR2),
        addi(24, R_CALLER_OFF, tb),
        addi(25, 24, TABLE_ENTRY),
        setbounds(24, R_PAIR2, 24, 25),
        sti(R_FRAME, 24, OFF_SP, cap=True),
        addi(25, R_CALLEE_OFF, tb),
        addi(26, 25, TABLE_ENTRY),
        setbounds(25, R_PAIR2, 25, 26),
        ldc(26, 25, 0, cap=True),
        ldc(27, 25, 32, cap=True),
        ldi(22, 25, OFF_SP, cap=True),
        ldi(R_STASH, 25, OFF_TRAMP, cap=True),
        ldc(28, REG_ZERO, 0),
        movi(17, SWITCHER_RET_ENTRY),
        setaddr(28, 28, 17),
        stc(28, 23, FRAME_OFF_RETLEG, cap=True),
        addi(17, R_CALLEE_OFF, tb + OFF_SP),
        sti(17, 23, FRAME_OFF_CALLEE_SLOT, cap=True),
        sti(22, 23, FRAME_OFF_CALLEE_SP, cap=True),
        sealr(R_FRAME_OUT, 23, FRAME_OTYPE),
        installddc(27),
        mov(REG_SP, 22),
        mov(REG_FP, REG_SP),
        setaddr(26, 26, R_STASH),
    ]
    for r in SWITCHER_SCRUB:
        seq.append(mov(r, REG_ZERO))
    seq.append(bcap(26))
    seq += [
        installddc(R_PAIR2),
        ldi(24, R_FRAME, FRAME_OFF_CALLEE_SLOT, cap=True),
        ldi(25, R_FRAME, FRAME_OFF_CALLEE_SP, cap=True),
        sti(25, 24, 0),
        ldi(22, R_FRAME, FRAME_OFF_SP, cap=True),
        ldi(23, R_FRAME, FRAME_OFF_FP, cap=True),
        ldc(26, R_FRAME, FRAME_OFF_RET, cap=True),
        mov(REG_SP, 22),
        mov(REG_FP, 23),
        bcap(26),
    ]
    return seq


def ref_emit_trampoline():
    return [
        addi(REG_SP, REG_SP, -32),
        stc(R_FRAME_OUT, REG_SP, 0),
        mov(R_FRAME_OUT, REG_ZERO),
        calll(R_TARGET),
        ldc(R_FRAME, REG_SP, 0),
        stc(REG_ZERO, REG_SP, 0),
        addi(REG_SP, REG_SP, 32),
        lpb(R_FRAME, R_PAIR2),
    ]


def assert_same_sequence(got, want):
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"slot {i}: {g} != {w}"


@pytest.mark.parametrize("memory_size", [1 << 16, 1 << 20])
@pytest.mark.parametrize("name", BUNDLED_CONFIGS)
def test_switcher_equals_the_per_call_builder(name, memory_size):
    # every plan puts the table where the one switcher reads it, and boot
    # copies that switcher to the first slots
    plan = compute_layout(parse_config(fixture(name)), memory_size)
    assert type(SWITCHER) is tuple
    assert_same_sequence(SWITCHER, ref_emit_switcher(plan))
    assert_same_sequence(boot_init(plan).program[:len(SWITCHER)], ref_emit_switcher(plan))


def test_trampoline_equals_the_per_call_builder():
    assert type(TRAMPOLINE) is tuple
    assert_same_sequence(TRAMPOLINE, ref_emit_trampoline())


def test_booted_programs_are_not_shared():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    a, b = boot_init(plan), boot_init(plan)
    assert a.program is not b.program and a.program == b.program
    a.program[0] = halt()
    assert b.program[0] == ref_emit_switcher(plan)[0]
    assert boot_init(plan).program == b.program


# --------------------------------------------------------------------------
# Ins: the builder and the generated constructor give the reference value.

FIELDS = ("op", "a", "b", "c", "d", "imm", "cap")
DEFAULTS = {f.name: f.default for f in dataclasses.fields(Ins) if f.name != "op"}


def ref_ins(**fields):
    """An Ins built as the generated frozen __init__ builds it."""
    ins = object.__new__(Ins)
    for name in FIELDS:
        object.__setattr__(ins, name, fields.get(name, DEFAULTS.get(name)))
    return ins


def test_ins_defaults():
    assert DEFAULTS == {"a": 0, "b": 0, "c": 0, "d": 0, "imm": 0, "cap": False}
    ins = Ins(Op.NOP)
    assert tuple(getattr(ins, f) for f in FIELDS) == (Op.NOP, 0, 0, 0, 0, 0, False)
    assert ins == ref_ins(op=Op.NOP)
    built = _InsBuilder(Op.NOP)
    assert type(built) is Ins and built == ins


ins_fields = st.fixed_dictionaries({
    "op": st.sampled_from(list(Op)),
    "a": st.integers(0, 31),
    "b": st.integers(0, 31),
    "c": st.integers(0, 31),
    "d": st.integers(0, 31),
    "imm": st.integers(-(1 << 64), 1 << 64),
    "cap": st.booleans(),
})


@settings(max_examples=300, deadline=None)
@given(fields=ins_fields)
def test_ins_construction_matches_the_reference(fields):
    want = ref_ins(**fields)
    positional = Ins(*(fields[f] for f in FIELDS))
    keyword = Ins(**fields)
    replaced = dataclasses.replace(Ins(Op.NOP), **fields)
    for ins in (positional, keyword, replaced):
        assert ins == want
        assert hash(ins) == hash(want)
        assert tuple(getattr(ins, f) for f in FIELDS) == tuple(fields[f] for f in FIELDS)
        assert repr(ins) == repr(want)
        assert str(ins) == format_ins(ins) == format_ins(want)
    other = dataclasses.replace(want, imm=fields["imm"] + 1)
    assert other != keyword
    built = _InsBuilder(*(fields[f] for f in FIELDS))
    assert type(built) is Ins
    assert built == want and hash(built) == hash(want) and repr(built) == repr(want)
    assert str(built) == str(want)


def test_ins_is_immutable():
    # a helper's value comes from the builder, the other from the generated
    # __init__
    for ins in (addi(1, 2, 3), Ins(Op.ADD_IMM, 1, 2, imm=3)):
        assert type(ins) is Ins
        for name in FIELDS:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ins, name, 0)
        assert not hasattr(ins, "__dict__")  # slots: no instance dict
    assert addi(1, 2, 3) == Ins(Op.ADD_IMM, 1, 2, imm=3)


def test_ins_str_and_format():
    cases = [
        (halt(), "halt"),
        (retl(), "ret"),
        (addi(1, 2, 3), "addi r1, r2, 3"),
        (ldc(4, REG_SP, -32, cap=True), "ldc r4, [c31 - 32]"),
        (stc(5, 6, 64), "stc r5, [r6 + 64]"),
        (lpb(R_SEALED, R_PAIR2), "lpb r14, r19"),
        (cvtd(0, 20, 21), "cvtd r0, r20, r21"),
        (mov(3, REG_ZERO), "mov r3, r16"),
        (restrict(0, 0, Perm.LOAD), f"restrict r0, r0, {Perm.LOAD!r}"),
    ]
    for ins, text in cases:
        assert str(ins) == format_ins(ins) == text
    # every op, whatever its fields, renders with its own mnemonic first
    for op in Op:
        ins = Ins(op, 1, 2, 3, 4, imm=8)
        assert str(ins) == format_ins(ins)
        assert format_ins(ins).split(" ", 1)[0] == op.value
