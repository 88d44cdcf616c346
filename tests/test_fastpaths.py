"""The int-mask permission path and the struct-packed capability slots,
checked against reference implementations: the IntFlag and
`dataclasses.replace` derivations they replaced, and the byte-string
record codec (`serialize` / `deserialize`)."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from capcomp.capability import (
    ADDR_MASK,
    OTYPE_MAX,
    PERMS,
    PERM_ALL,
    RECORD_LEN,
    TOP_MAX,
    Capability,
    FaultKind,
    Perm,
    check_access,
    deserialize,
    restrict_perms,
    seal,
    serialize,
    set_address,
    unseal,
)
from capcomp.memory import CAP_SLOT, GRANULE, TaggedMemory


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
    """Equal fields, and the very same canonical Perm member."""
    return a == b and a.perms is b.perms and type(a.tag) is type(b.tag)


CAPS = {
    "unsealed": Capability(0x1000, 0x2000, 0x1800, PERM_ALL, 0, True),
    "sealed": Capability(0x1000, 0x2000, 0x1800, PERM_ALL, 9, True),
    "untagged": Capability(0x1000, 0x2000, 0x1800, PERM_ALL, 0, False),
}


def test_perm_table_holds_the_canonical_members():
    assert len(PERMS) == 64
    for i, p in enumerate(PERMS):
        assert p is Perm(i)


@pytest.mark.parametrize("kind", sorted(CAPS))
def test_check_access_matches_intflag_for_every_perm_pair(kind):
    for perms in range(64):
        c = dataclasses.replace(CAPS[kind], perms=Perm(perms))
        for need in range(64):
            for addr, length in ((0x1800, 8), (0x1FF9, 8), (0x0FFF, 1)):
                want = ref_check_access(c, addr, length, need)
                assert check_access(c, addr, length, need) is want
                assert check_access(c, addr, length, Perm(need)) is want


@pytest.mark.parametrize("kind", sorted(CAPS))
def test_restrict_perms_matches_intflag(kind):
    for perms in range(64):
        c = dataclasses.replace(CAPS[kind], perms=Perm(perms))
        for keep in range(-64, 256):
            assert same(restrict_perms(c, keep), ref_restrict_perms(c, keep))
        for keep in range(64):
            assert same(restrict_perms(c, Perm(keep)), ref_restrict_perms(c, keep))


def test_restrict_perms_keeps_bits_outside_the_table():
    c = Capability(0, 64, 0, Perm(127), 0, True)
    assert same(restrict_perms(c, 0xC1), ref_restrict_perms(c, 0xC1))
    assert restrict_perms(c, 0xC1).perms == Perm(65)


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
    perms=st.sampled_from(PERMS),
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
