"""The machine's fast paths against references that spell each layer out
independently.

- The int-mask permission path and the constructor-built derivations,
  against the IntFlag and `dataclasses.replace` code they replaced.
- The slot codec behind `store_cap` and `load_cap`, against the byte-string
  record codec (`serialize` / `deserialize`).
- The builders (`capability._CapBuilder`, `machine._FaultBuilder`), against
  values built field by field the way the generated frozen `__init__`
  builds them, and one end-to-end check that no builder lets its mutable
  twin out of a round trip, a fuzz run or a scenario parse.
- The null capability as one object on the slot path, through the handler
  and through `load_cap`.
- The four data-access handlers, against the spec (`tests/spec.py`), on
  seeded single accesses, through `spec_check.assert_matches_spec`.
- The load-pair-branch pair load, against `deserialize` and the two-tag
  rule, never against the slot codec the machine runs.
"""

import dataclasses
import importlib.resources as ir
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from capcomp.capability import (
    ADDR_MASK,
    NULL_CAP,
    OTYPE_MAX,
    PERM_ALL,
    RECORD_LEN,
    TOP_MAX,
    Capability,
    FaultKind,
    Perm,
    _CapBuilder,
    check_access,
    deserialize,
    int_cap,
    make_root,
    restrict_perms,
    seal,
    serialize,
    set_address,
    set_bounds,
    unseal,
)
from capcomp import runtime
from capcomp.isa import INT_WIDTH, REG_LINK, REG_ZERO, Ins, addi, ldc, ldi, lpb, nop, retl, stc, sti
from capcomp.layout import boot_init, compute_layout, install_function, parse_config
from capcomp.machine import Fault, MachineState, _FaultBuilder, run
from capcomp.memory import CAP_SLOT, GRANULE, TaggedMemory
from capcomp.runtime import GateDescriptor, call_compartment, fuzz_isolation
from capcomp.workload import ScenarioCall, ScenarioFn, parse_scenario

from spec_check import assert_matches_spec


# --------------------------------------------------------------------------
# Reference implementations: IntFlag arithmetic and dataclasses.replace.

def ref_check_access(c, addr, length, need):
    if length < 1:
        raise ValueError("access length must be >= 1")
    if not c.tag:
        return FaultKind.TAG
    if c.sealed:
        return FaultKind.SEAL
    if (c.perms & Perm(need)) != Perm(need):
        return FaultKind.PERMISSION
    if addr < c.base or addr + length > c.top:
        return FaultKind.BOUNDS
    return None


def ref_restrict_perms(c, keep):
    return dataclasses.replace(c, perms=c.perms & Perm(keep), tag=c.tag and not c.sealed)


def ref_set_address(c, address):
    return dataclasses.replace(c, address=address & ADDR_MASK, tag=c.tag and not c.sealed)


def ref_seal(c, otype):
    return dataclasses.replace(c, otype=otype, tag=c.tag and not c.sealed)


def ref_unseal(c):
    return dataclasses.replace(c, otype=0)


def ref_load_cap(raw, tags, addr):
    """deserialize, then the rule that both granules' tags make it valid."""
    c = deserialize(bytes(raw[addr:addr + RECORD_LEN]))
    tag = tags[addr // GRANULE] != 0 and tags[addr // GRANULE + 1] != 0
    return dataclasses.replace(c, tag=tag)


def same(a, b):
    """Equal fields, and `a`'s perms a plain int mask."""
    return a == b and type(a.perms) is int and type(a.tag) is type(b.tag)


CAPS = {
    "unsealed": Capability(0x1000, 0x2000, 0x1800, PERM_ALL, 0, True),
    "sealed": Capability(0x1000, 0x2000, 0x1800, PERM_ALL, 9, True),
    "untagged": Capability(0x1000, 0x2000, 0x1800, PERM_ALL, 0, False),
}


@pytest.mark.parametrize("kind", sorted(CAPS))
def test_check_access_matches_intflag_for_every_perm_pair(kind):
    for perms in range(64):
        c = dataclasses.replace(CAPS[kind], perms=perms)
        for need in range(64):
            for addr, length in ((0x1800, 8), (0x1FF9, 8), (0x0FFF, 1)):
                want = ref_check_access(c, addr, length, need)
                assert check_access(c, addr, length, need) is want
                assert check_access(c, addr, length, Perm(need)) is want


@pytest.mark.parametrize("kind", sorted(CAPS))
def test_restrict_perms_matches_intflag(kind):
    for perms in range(64):
        c = dataclasses.replace(CAPS[kind], perms=perms)
        for keep in range(-64, 256):
            assert same(restrict_perms(c, keep), ref_restrict_perms(c, keep))
        for keep in range(64):
            assert same(restrict_perms(c, Perm(keep)), ref_restrict_perms(c, keep))


def test_restrict_perms_keeps_bits_outside_the_table():
    c = Capability(0, 64, 0, 127, 0, True)
    assert same(restrict_perms(c, 0xC1), ref_restrict_perms(c, 0xC1))
    assert restrict_perms(c, 0xC1).perms == 65


@pytest.mark.parametrize("length", [0, -1, -8])
def test_check_access_rejects_empty_length(length):
    for c in CAPS.values():
        with pytest.raises(ValueError):
            check_access(c, 0x1800, length, Perm.LOAD)


# --------------------------------------------------------------------------
# Derivations built with the constructor equal the replace-based ones.

caps = st.builds(
    Capability,
    base=st.integers(0, ADDR_MASK),
    top=st.integers(0, TOP_MAX),
    address=st.integers(0, ADDR_MASK),
    perms=st.sampled_from(range(64)),
    otype=st.integers(0, OTYPE_MAX),
    tag=st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(c=caps, address=st.integers(-(1 << 70), 1 << 70), otype=st.integers(1, OTYPE_MAX))
def test_derivations_match_replace(c, address, otype):
    assert same(set_address(c, address), ref_set_address(c, address))
    assert same(seal(c, otype), ref_seal(c, otype))
    if c.sealed:
        assert same(unseal(c), ref_unseal(c))


def test_constructor_keeps_defaults_and_immutability():
    c = Capability(1, 2, 3, Perm.LOAD)
    assert (c.otype, c.tag) == (0, False)
    assert c == Capability(base=1, top=2, address=3, perms=Perm.LOAD, otype=0, tag=False)
    assert dataclasses.replace(c, tag=True) == Capability(1, 2, 3, Perm.LOAD, 0, True)
    for field in ("base", "top", "address", "perms", "otype", "tag"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, 0)
    assert hash(c) == hash(Capability(1, 2, 3, Perm.LOAD))


# --------------------------------------------------------------------------
# The capability builder: plain slot stores and then the relabel give the
# very value the generated frozen __init__ gives.

CAP_FIELDS = tuple(f.name for f in dataclasses.fields(Capability))


def ref_cap(*values):
    """A Capability built as the generated frozen __init__ builds it."""
    c = object.__new__(Capability)
    for name, value in zip(CAP_FIELDS, values, strict=True):
        object.__setattr__(c, name, value)
    return c


def assert_frozen_record(value, want):
    """`value` is exactly `want`'s record type and equal to it, hashes and
    prints like it, refuses a store to each field and has no instance dict."""
    assert type(value) is type(want)
    assert value == want and hash(value) == hash(want) and repr(value) == repr(want)
    for f in dataclasses.fields(want):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(want, f.name))
    assert not hasattr(value, "__dict__")


def test_a_builder_with_other_slots_cannot_relabel():
    # what keeps a builder honest: CPython refuses the __class__ store
    # between layouts that differ, at the first build
    class Short:
        __slots__ = CAP_FIELDS[:-1]

        def __init__(self):
            self.__class__ = Capability

    with pytest.raises(TypeError):
        Short()


@settings(max_examples=300, deadline=None)
@given(c=caps)
def test_cap_builder_matches_the_reference(c):
    values = tuple(getattr(c, n) for n in CAP_FIELDS)
    built = _CapBuilder(*values)
    assert_frozen_record(built, ref_cap(*values))
    assert same(built, c)


@settings(max_examples=200, deadline=None)
@given(c=caps, address=st.integers(0, ADDR_MASK), otype=st.integers(1, OTYPE_MAX),
       keep=st.integers(0, 63))
def test_every_derivation_builds_a_frozen_capability(c, address, otype, keep):
    mem = TaggedMemory(CAP_SLOT)
    mem.store_cap(0, c)
    built = [int_cap(address), make_root(0, address, Perm(keep)), set_address(c, address),
             set_bounds(c, c.base, address), restrict_perms(c, keep),
             restrict_perms(c, Perm(keep)), seal(c, otype), mem.load_cap(0),
             deserialize(serialize(c))]
    if c.sealed:
        built.append(unseal(c))
    for v in built:
        assert type(v.perms) is int, v      # a plain mask, never a Perm
        if v is not NULL_CAP:
            assert_frozen_record(v, ref_cap(*(getattr(v, n) for n in CAP_FIELDS)))


# --------------------------------------------------------------------------
# Slots: store_cap writes the reference record, load_cap reads like it.

@settings(max_examples=500, deadline=None)
@given(c=caps)
@example(c=Capability(0, TOP_MAX, 0, PERM_ALL, 0, True))
@example(c=Capability(ADDR_MASK, TOP_MAX, ADDR_MASK, PERM_ALL, OTYPE_MAX, False))
def test_store_cap_writes_the_reference_record(c):
    m = TaggedMemory(256)
    m.write_bytes(0, b"\xa5" * 256)
    m.store_cap(64, c)
    assert bytes(m.data[64:96]) == serialize(c) + bytes(CAP_SLOT - RECORD_LEN)
    assert bytes(m.data[:64]) + bytes(m.data[96:]) == b"\xa5" * 224
    assert list(m.tags) == [0, 0, 0, 0, int(c.tag), int(c.tag), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]
    assert same(m.load_cap(64), c)


@pytest.mark.parametrize("bad", [
    dict(base=-1), dict(base=1 << 64), dict(top=-1), dict(top=1 << 72),
    dict(address=1 << 64), dict(otype=1 << 16),
])
def test_store_cap_out_of_range_field_raises_like_serialize(bad):
    c = dataclasses.replace(CAPS["unsealed"], **bad)
    with pytest.raises(OverflowError):
        serialize(c)
    m = TaggedMemory(256)
    m.store_cap(64, CAPS["unsealed"])
    before = (bytes(m.data), bytes(m.tags))
    with pytest.raises(OverflowError):
        m.store_cap(64, c)
    assert (bytes(m.data), bytes(m.tags)) == before      # the slot is untouched


@settings(max_examples=1000, deadline=None)
@given(raw=st.binary(min_size=CAP_SLOT, max_size=CAP_SLOT),
       tag_bits=st.tuples(st.booleans(), st.booleans()),
       high=st.one_of(st.none(), st.integers(0, 255)))
@example(raw=serialize(Capability(0, TOP_MAX, 0, PERM_ALL, 0, True)) + bytes(3),
         tag_bits=(True, True), high=None)
@example(raw=bytes(32), tag_bits=(True, False), high=0xFF)
@example(raw=b"\xff" * 32, tag_bits=(False, True), high=0xFE)
def test_load_cap_matches_deserialize(raw, tag_bits, high):
    raw = bytearray(raw)
    if high is not None:
        raw[17] = high                                   # garbage high byte of top
    m = TaggedMemory(128)
    m.data[32:64] = raw
    m.tags[2], m.tags[3] = tag_bits
    got = m.load_cap(32)
    assert same(got, ref_load_cap(m.data, m.tags, 32))
    assert got.tag == all(tag_bits)


# --------------------------------------------------------------------------
# Fault: the builder and the generated constructor give the reference value.

FAULT_FIELDS = ("kind", "addr", "pc", "length", "ddc_access")
FAULT_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Fault)
                  if f.default is not dataclasses.MISSING}


def ref_fault(**fields):
    """A Fault built as the generated frozen __init__ builds it."""
    f = object.__new__(Fault)
    for name in FAULT_FIELDS:
        object.__setattr__(f, name, fields.get(name, FAULT_DEFAULTS.get(name)))
    return f


def test_fault_fields_and_defaults():
    assert tuple(f.name for f in dataclasses.fields(Fault)) == FAULT_FIELDS
    assert FAULT_DEFAULTS == {"length": 1, "ddc_access": False}
    f = Fault(FaultKind.BOUNDS, 0x40, 7)
    assert tuple(getattr(f, n) for n in FAULT_FIELDS) == (FaultKind.BOUNDS, 0x40, 7, 1, False)
    assert f == ref_fault(kind=FaultKind.BOUNDS, addr=0x40, pc=7)
    assert str(f) == f"{FaultKind.BOUNDS}@0x40 pc=7"


fault_fields = st.fixed_dictionaries({
    "kind": st.sampled_from(list(FaultKind)),
    "addr": st.integers(0, ADDR_MASK),
    "pc": st.integers(-1, 1 << 20),
    "length": st.integers(1, 64),
    "ddc_access": st.booleans(),
})


@settings(max_examples=300, deadline=None)
@given(fields=fault_fields)
def test_fault_construction_matches_the_reference(fields):
    want = ref_fault(**fields)
    positional = Fault(*(fields[n] for n in FAULT_FIELDS))
    keyword = Fault(**fields)
    replaced = dataclasses.replace(Fault(FaultKind.TAG, 0, 0), **fields)
    for f in (positional, keyword, replaced):
        assert f == want
        assert hash(f) == hash(want)
        assert tuple(getattr(f, n) for n in FAULT_FIELDS) == tuple(fields[n] for n in FAULT_FIELDS)
        assert repr(f) == repr(want)
        assert str(f) == str(want)
    assert dataclasses.replace(want, pc=fields["pc"] + 1) != keyword
    built = _FaultBuilder(*(fields[n] for n in FAULT_FIELDS))
    assert_frozen_record(built, want)
    assert str(built) == str(want)


def test_fault_is_immutable():
    f = Fault(FaultKind.SEAL, 1, 2, 8, True)
    for name in FAULT_FIELDS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(f, name, 0)
    with pytest.raises((AttributeError, TypeError)):
        f.extra = 1                          # slots: no instance dict
    with pytest.raises(TypeError):
        Fault(FaultKind.SEAL, 1)             # pc has no default


# --------------------------------------------------------------------------
# The data-access handlers' slot work, through `run` and the spec: an int
# store's tags, an ldc after an int store into a slot, and a capability store
# of a value that does not fit the slot record.

HANDLER_MEM = 256
SRC, AUTH, DEST = 1, 2, 3
MODES = ("legacy", "cap")
TOP_CAP = Capability(0, TOP_MAX, 5, PERM_ALL, 0, True)


def handler_machine(mode, program, addr, imm):
    """A machine at pc 0 of `program` whose register AUTH resolves, with
    offset `imm`, to `addr` under an authority that grants every access."""
    root = make_root(0, HANDLER_MEM, PERM_ALL)
    st = MachineState()
    st.pcc = make_root(0, len(program), Perm.EXECUTE)
    cursor = (addr - imm) & ADDR_MASK
    if mode == "cap":
        st.regs[AUTH] = set_address(root, cursor)
    else:
        st.ddc = root
        st.regs[AUTH] = int_cap(cursor)
    st.events = []
    return st


def handler_memory(raw, tags):
    m = TaggedMemory(HANDLER_MEM)
    m.data[:] = raw
    m.tags[:] = bytes(tags)
    return m


def access_against_spec(mode, ins, mem, addr, src=None):
    """Execute `ins` alone on `mem`, with `src` (if given) in register SRC,
    through `run` and the spec, and check that it retired."""
    st = handler_machine(mode, [ins], addr, 0)
    if src is not None:
        st.regs[SRC] = src
    assert_matches_spec(lambda: (st, mem, [ins]), 1)
    assert (st.fault, st.instructions_retired) == (None, 1)


@pytest.mark.parametrize("mode", MODES)
def test_straddling_int_store_clears_both_granule_tags(mode):
    mem = handler_memory(bytes(HANDLER_MEM), [1] * (HANDLER_MEM // GRANULE))
    access_against_spec(mode, sti(SRC, AUTH, 0, cap=mode == "cap"), mem, 2 * GRANULE - 4,
                        int_cap(ADDR_MASK))
    assert list(mem.tags[:4]) == [1, 0, 0, 1]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("granule", [0, 1])
def test_ldc_after_an_int_store_into_either_granule_is_untagged(mode, granule):
    """stc, then sti into one granule of the slot, then ldc of the slot:
    the loaded capability carries the surviving bytes and no tag."""
    cap = mode == "cap"
    addr = CAP_SLOT
    int_addr = addr + granule * GRANULE + 4
    program = [stc(SRC, AUTH, 0, cap=cap), sti(4, 5, 0, cap=cap), ldc(DEST, AUTH, 0, cap=cap)]
    mem = handler_memory(bytes(HANDLER_MEM), [0] * (HANDLER_MEM // GRANULE))
    st_ = handler_machine(mode, program, addr, 0)
    st_.regs[SRC] = TOP_CAP
    st_.regs[4] = int_cap(0x0102030405060708)
    st_.regs[5] = set_address(st_.regs[AUTH], int_addr) if cap else int_cap(int_addr)
    assert_matches_spec(lambda: (st_, mem, program), 3)
    assert (st_.fault, st_.instructions_retired) == (None, 3)
    assert not st_.regs[DEST].tag
    assert list(mem.tags[2:4]) == [int(granule == 1), int(granule == 0)]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("bad", [
    dict(base=-1), dict(base=1 << 64), dict(top=-1), dict(top=1 << 72),
    dict(address=1 << 64), dict(otype=1 << 16),
])
def test_stc_of_an_unrecordable_capability_through_run(bad, mode):
    """The step raises like store_cap, as the spec's does, and leaves the
    slot, the pc, the retire count, the registers and the event list as
    they were."""
    program = [stc(SRC, AUTH, 0, cap=mode == "cap")]
    mem = TaggedMemory(HANDLER_MEM)
    mem.store_cap(CAP_SLOT, CAPS["unsealed"])
    st_ = handler_machine(mode, program, CAP_SLOT, 0)
    st_.regs[SRC] = dataclasses.replace(CAPS["unsealed"], **bad)
    before = (bytes(mem.data), bytes(mem.tags), tuple(st_.regs), st_.code, st_.ddc)
    assert_matches_spec(lambda: (st_, mem, program), 1)
    assert (bytes(mem.data), bytes(mem.tags), tuple(st_.regs), st_.code, st_.ddc) == before
    assert (st_.pc, st_.instructions_retired, st_.events) == (0, 0, [])
    assert (st_.fault, st_.halted) == (None, False)
    with pytest.raises(OverflowError):
        run(st_, mem, program)


# --------------------------------------------------------------------------
# The null capability on the access path: a capability store of null writes
# what `store_cap(NULL_CAP)` writes, and a slot that decodes to null loads as
# NULL_CAP itself, through the handler and through `load_cap` alike.

NULL_AT = 2 * CAP_SLOT
# Slots that decode to null, as {byte offset: value} over a zeroed slot.
# SLOT's layout: tag byte 0, base 1-8, top 9-16, top's high byte 17,
# address 18-25, perms 26, otype 27-28, padding 29-31.
NULL_SLOTS = {
    "zeroed": {},
    "perms bits outside PERM_BITS": {26: 0xC0},
    "high byte of top above bit 64": {17: 0xFE},
    "tag byte and padding": {0: 1, 29: 0xFF, 31: 0x80},
}
# Slots that are almost null and must not load as NULL_CAP: (bytes, tags).
NEAR_NULL_SLOTS = {
    "both tags set": ({}, (1, 1)),
    "top is 2^64": ({17: 1}, (0, 0)),
    "nonzero otype": ({27: 1}, (0, 0)),
    "one perms bit": ({26: 0x01}, (1, 0)),
}


def load_slot_both_ways(mode, patch, tag_bits):
    """ldc the slot at NULL_AT through `run` into a register that held
    TOP_CAP, and through `load_cap`; returns both results."""
    raw = bytearray(HANDLER_MEM)
    for offset, byte in patch.items():
        raw[NULL_AT + offset] = byte
    tags = [0] * (HANDLER_MEM // GRANULE)
    tags[NULL_AT // GRANULE], tags[NULL_AT // GRANULE + 1] = tag_bits
    mem = handler_memory(raw, tags)
    program = [ldc(DEST, AUTH, 0, cap=mode == "cap")]
    st_ = handler_machine(mode, program, NULL_AT, 0)
    st_.regs[DEST] = TOP_CAP
    run(st_, mem, program, max_steps=1)
    assert (st_.fault, st_.instructions_retired) == (None, 1)
    return st_.regs[DEST], mem.load_cap(NULL_AT)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("src", ["r16", "distinct"])
def test_null_store_writes_what_store_cap_writes(mode, src):
    raw, tags = b"\xa5" * HANDLER_MEM, [1] * (HANDLER_MEM // GRANULE)
    mem, ref = handler_memory(raw, tags), handler_memory(raw, tags)
    cap = mode == "cap"
    if src == "r16":
        access_against_spec(mode, stc(REG_ZERO, AUTH, 0, cap=cap), mem, NULL_AT)
    else:
        value = int_cap(0)
        assert value == NULL_CAP and value is not NULL_CAP
        access_against_spec(mode, stc(SRC, AUTH, 0, cap=cap), mem, NULL_AT, value)
    ref.store_cap(NULL_AT, NULL_CAP)
    assert (bytes(mem.data), bytes(mem.tags)) == (bytes(ref.data), bytes(ref.tags))
    assert mem.data[NULL_AT:NULL_AT + CAP_SLOT] == bytes(CAP_SLOT)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(NULL_SLOTS))
@pytest.mark.parametrize("tag_bits", [(0, 0), (1, 0), (0, 1)])
def test_a_null_slot_loads_as_null_cap_itself(mode, name, tag_bits):
    got, want = load_slot_both_ways(mode, NULL_SLOTS[name], tag_bits)
    assert same(got, NULL_CAP) and same(want, NULL_CAP)
    assert got is NULL_CAP and want is NULL_CAP


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(NEAR_NULL_SLOTS))
def test_a_near_null_slot_loads_as_its_own_capability(mode, name):
    got, want = load_slot_both_ways(mode, *NEAR_NULL_SLOTS[name])
    assert same(got, want) and got != NULL_CAP
    assert got is not NULL_CAP and want is not NULL_CAP


# --------------------------------------------------------------------------
# The four data-access handlers against the spec.  Each seeded case is one
# access at a random pc, with the ddc or the operand register as authority,
# random register and memory contents, and now and then a value that does
# not fit the slot record.

ACCESS_OPS = (ldi, sti, ldc, stc)
DIFF_MEM = 512
DIFF_CASES = 4096          # each (op, perms value) pair 16 times
DIFF_PC_LIMIT = 16
# Addresses at memory's end: the last word, the last slot, one granule past
# each, and the first slot past the end.
EDGE_ADDRS = (DIFF_MEM - INT_WIDTH, DIFF_MEM - CAP_SLOT,
              DIFF_MEM - INT_WIDTH + GRANULE, DIFF_MEM - CAP_SLOT + GRANULE, DIFF_MEM)
# Capabilities whose fields do not fit the slot record.
UNRECORDABLE = (dict(base=-1), dict(top=1 << 72), dict(address=1 << 64), dict(otype=1 << 16))


def diff_value(rng):
    """A register value: null, plain integers, tagged, sealed and untagged
    capabilities with random fields, and now and then one that does not
    fit the slot record."""
    kind = rng.randrange(12)
    if kind == 0:
        return NULL_CAP
    if kind in (1, 2):
        return int_cap(rng.choice((0, rng.randrange(DIFF_MEM), rng.getrandbits(64))))
    top = rng.choice((TOP_MAX, rng.randrange(TOP_MAX + 1), rng.randrange(DIFF_MEM)))
    c = Capability(rng.choice((0, rng.getrandbits(64))), top, rng.getrandbits(64),
                   rng.randrange(64), rng.choice((0, 0, rng.randrange(OTYPE_MAX + 1))),
                   rng.random() < 0.7)
    if kind in (3, 4):
        c = dataclasses.replace(c, **rng.choice(UNRECORDABLE))
    return c


def diff_case(seed):
    """One access: a machine about to execute it, its memory and its
    program.  The same seed builds an identical, independent copy."""
    rng = random.Random(seed)
    ctor = ACCESS_OPS[seed % 4]
    perms = (seed // 4) % 64
    cap = rng.random() < 0.5
    a = rng.choice((SRC, DEST, AUTH, REG_ZERO))
    ins = ctor(a, AUTH, rng.randrange(-64, 65), cap=cap)
    pick = rng.randrange(8)
    if pick < 3:
        addr = rng.randrange(DIFF_MEM // CAP_SLOT + 1) * CAP_SLOT
    elif pick == 3:
        addr = rng.randrange(DIFF_MEM + 2 * GRANULE)
    elif pick == 4:
        addr = rng.choice(EDGE_ADDRS)
    elif pick == 5:
        addr = rng.randrange(DIFF_MEM // CAP_SLOT) * CAP_SLOT + rng.randrange(1, CAP_SLOT)
    elif pick == 6:
        addr = rng.randrange(DIFF_MEM - INT_WIDTH + 1)
    else:
        addr = rng.randrange(-8, 0) & ADDR_MASK      # wraps round the address space
    cursor = (addr - ins.imm) & ADDR_MASK
    lo, hi = rng.choice(((0, TOP_MAX), (0, DIFF_MEM), (0, DIFF_MEM + 2 * GRANULE),
                         sorted((rng.randrange(DIFF_MEM + 64), rng.randrange(DIFF_MEM + 64)))))
    auth = Capability(lo, hi, cursor, perms, rng.choice((0,) * 7 + (3,)), rng.random() < 0.9)

    st_ = MachineState()
    for i in range(1, len(st_.regs)):
        if i != REG_ZERO:
            st_.regs[i] = diff_value(rng)
    pc = rng.randrange(DIFF_PC_LIMIT)
    st_.code = make_root(0, DIFF_PC_LIMIT, Perm.EXECUTE)
    st_.pc = pc
    st_.switcher_bounds = rng.choice(((0, 0), (0, DIFF_PC_LIMIT), (pc + 1, DIFF_PC_LIMIT)))
    if cap:
        st_.regs[AUTH] = auth
        st_.ddc = diff_value(rng)
    else:
        st_.ddc = auth
        st_.regs[AUTH] = int_cap(cursor) if rng.random() < 0.8 else set_address(auth, cursor)
    st_.events = rng.choice((None, [], [("step", 0, None, None)]))
    mem = TaggedMemory(DIFF_MEM)
    mem.data[:] = rng.randbytes(DIFF_MEM)
    mem.tags[:] = bytes(rng.randrange(2) for _ in range(DIFF_MEM // GRANULE))
    for slot in range(0, DIFF_MEM, CAP_SLOT):
        if rng.random() < 0.3:         # stored slots, some of them null
            try:
                mem.store_cap(slot, diff_value(rng))
            except OverflowError:
                pass
    program = [nop()] * DIFF_PC_LIMIT
    program[pc] = ins
    return st_, mem, program


def test_data_access_handlers_match_the_spec():
    outcomes = Counter()
    for seed in range(DIFF_CASES):
        st_ = assert_matches_spec(lambda: diff_case(seed), 1, label=seed)[0]
        fault = st_.fault
        # A step that neither retired nor faulted raised.
        outcome = (fault.kind if fault else "retired" if st_.instructions_retired
                   else "raised")
        outcomes[ACCESS_OPS[seed % 4].__name__, outcome] += 1
    # Every handler retired and met every fault its checks can report; the
    # capability store also met an unrecordable value.
    for key in ("ldi", "sti", "ldc", "stc"):
        kinds = {k for op, k in outcomes if op == key}
        want = {"retired", FaultKind.TAG, FaultKind.SEAL, FaultKind.PERMISSION,
                FaultKind.BOUNDS, FaultKind.ADDRESS}
        if key in ("ldc", "stc"):
            want.add(FaultKind.ALIGNMENT)
        if key == "stc":
            want.add("raised")
        assert want <= kinds, (key, kinds)


# --------------------------------------------------------------------------
# Load-pair-branch against the reference codec: raw pair slots written with
# `write_bytes` and tagged by hand, then one `lpb` through `run`, checked
# against `ref_load_cap` (`deserialize` plus the two-tag rule) and
# `ref_check_access`, never against the slot codec the machine runs.

PAIR_MEM = 256
PAIR_AT = 128                  # the pair's first slot; its second follows
PAIR_OTYPE = 5
PAIR_CASES = 64                # seeds per case
PAIR_GRANULES = range(PAIR_AT // GRANULE, PAIR_AT // GRANULE + 4)


def pair_slot(rng):
    """One slot's 32 raw bytes: the reference record of a capability that is
    often executable at its cursor, then garbage padding."""
    base = rng.choice((0, rng.randrange(PAIR_MEM), rng.getrandbits(64)))
    top = rng.choice((TOP_MAX, base + rng.randrange(1, 64), rng.randrange(TOP_MAX + 1)))
    address = rng.choice((base, base + rng.randrange(64), rng.getrandbits(64))) & ADDR_MASK
    perms = rng.choice((PERM_ALL, Perm.EXECUTE, rng.randrange(64)))
    otype = rng.choice((0, 0, 0, rng.randrange(1, OTYPE_MAX + 1)))
    c = Capability(base, top, address, perms, otype, rng.random() < 0.8)
    return bytearray(serialize(c) + rng.randbytes(CAP_SLOT - RECORD_LEN))


def clear_first_granule(rng, slots, tags):
    tags[rng.randrange(2)] = 0


def clear_second_granule(rng, slots, tags):
    tags[2 + rng.randrange(2)] = 0


def set_top_high_bit(rng, slots, tags):
    for raw in rng.choice((slots[:1], slots[1:], slots)):
        raw[17] = rng.randrange(256) | 1


def set_perms_above_perm_bits(rng, slots, tags):
    for raw in rng.choice((slots[:1], slots[1:], slots)):
        raw[26] |= rng.randrange(1, 4) << 6


def zero_an_untagged_slot(rng, slots, tags):
    i = rng.randrange(2)
    slots[i][:] = bytes(CAP_SLOT)
    tags[2 * i] = tags[2 * i + 1] = 0


PAIR_PATCHES = {
    "all four tags set": lambda rng, slots, tags: None,
    "a granule of the first slot untagged": clear_first_granule,
    "a granule of the second slot untagged": clear_second_granule,
    "top's high bit set": set_top_high_bit,
    "perms bits above PERM_BITS": set_perms_above_perm_bits,
    "an all-zero untagged slot": zero_an_untagged_slot,
}


def lpb_case(name, seed):
    """(machine, memory, program) for one seeded pair under patch `name`."""
    rng = random.Random(f"{name}/{seed}")
    slots = [pair_slot(rng), pair_slot(rng)]
    tags = [1, 1, 1, 1]
    PAIR_PATCHES[name](rng, slots, tags)
    mem = TaggedMemory(PAIR_MEM)
    mem.write_bytes(0, rng.randbytes(PAIR_MEM))
    mem.write_bytes(PAIR_AT, bytes(slots[0] + slots[1]))
    for g, t in zip(PAIR_GRANULES, tags):
        mem.tags[g] = t
    st_ = MachineState()
    st_.pcc = make_root(0, 4, Perm.EXECUTE)
    st_.lpb_otypes = frozenset({PAIR_OTYPE})
    st_.regs[SRC] = seal(make_root(PAIR_AT, PAIR_AT + 2 * CAP_SLOT, Perm.LOAD_CAP), PAIR_OTYPE)
    return st_, mem, [lpb(SRC, DEST)]


@pytest.mark.parametrize("name", sorted(PAIR_PATCHES))
def test_lpb_loads_the_pair_like_deserialize(name):
    outcomes = Counter()
    for seed in range(PAIR_CASES):
        st_, mem, program = lpb_case(name, seed)
        code, regs = st_.code, list(st_.regs)
        first = ref_load_cap(mem.data, mem.tags, PAIR_AT)
        second = ref_load_cap(mem.data, mem.tags, PAIR_AT + CAP_SLOT)
        if not first.tag:
            want, outcome = Fault(FaultKind.TAG, PAIR_AT, 0, CAP_SLOT), "first untagged"
        elif not second.tag:
            want = Fault(FaultKind.TAG, PAIR_AT + CAP_SLOT, 0, CAP_SLOT)
            outcome = "second untagged"
        else:
            kind = ref_check_access(first, first.address, 1, int(Perm.EXECUTE))
            want = None if kind is None else Fault(kind, first.address, 0)
            outcome = kind or "retired"
        outcomes[outcome] += 1
        run(st_, mem, program, max_steps=1)
        assert st_.fault == want, (name, seed)
        if want is None:
            assert same(st_.code, first) and st_.pc == first.address, (name, seed)
            assert same(st_.regs[DEST], second), (name, seed)
            assert st_.regs[REG_LINK] == set_address(code, 1)
            assert st_.regs[SRC] == unseal(regs[SRC])
            assert st_.switches == 1
        else:
            assert (st_.code, st_.pc, st_.regs, st_.switches) == (code, 0, regs, 0)
    # Each case reaches the outcomes it is there for.
    expect = {
        "a granule of the first slot untagged": {"first untagged"},
        "a granule of the second slot untagged": {"second untagged"},
        "an all-zero untagged slot": {"first untagged", "second untagged"},
    }.get(name, {"retired", FaultKind.SEAL, FaultKind.PERMISSION, FaultKind.BOUNDS})
    assert expect <= set(outcomes), outcomes


# --------------------------------------------------------------------------
# No builder lets its mutable twin out: after a round trip, a fuzz run and a
# scenario parse, every value the machine and the parser hold is exactly its
# record type.

def fixture(name):
    return ir.files("capcomp").joinpath("fixtures", name).read_text()


def test_no_builder_lets_its_mutable_twin_out(monkeypatch):
    img = boot_init(compute_layout(parse_config(fixture("three_comp_shared.cfg"))))
    machine = img.machine

    def assert_all_records():
        assert all(type(c) is Capability for c in machine.regs)
        assert type(machine.ddc) is Capability and type(machine.code) is Capability
        assert all(type(ins) is Ins for ins in img.program)

    machine.events = []
    entry = install_function(img, "codec", [addi(0, 0, 1), retl()])
    call_compartment(img, GateDescriptor("app", "codec", entry, dest=0), [41])
    assert machine.fault is None and machine.regs[0].address == 42
    assert_all_records()
    faults = [ev[3] for ev in machine.events if ev[0] == "step" and ev[3] is not None]
    machine.events = None

    real = runtime.run

    def recording(st, mem, program, max_steps=100_000):
        real(st, mem, program, max_steps)
        if st.fault is not None:
            faults.append(st.fault)
        return st

    monkeypatch.setattr(runtime, "run", recording)
    assert fuzz_isolation(img, sequences=200, seed=7).sequences == 200
    assert len(faults) > 100                 # armed: most sequences fault
    assert all(type(f) is Fault for f in faults)
    assert_all_records()

    sc = parse_scenario(fixture("libsodium_hex.scn"))
    assert len(sc.fns) == 3 and len(sc.calls) == 2
    assert all(type(fn) is ScenarioFn for fn in sc.fns)
    assert all(type(c) is ScenarioCall for c in sc.calls)
