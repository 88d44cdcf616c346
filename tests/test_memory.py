"""Tagged memory: granule bookkeeping, capability slots, and the rule that
raw byte traffic can never forge a valid capability."""

import pytest

from capcomp.capability import PERM_ALL, Perm, make_root, seal, serialize
from capcomp.isa import INT_WIDTH
from capcomp.memory import (
    AddressError,
    AlignmentError,
    CAP_SLOT,
    GRANULE,
    SLOT,
    WORD,
    TaggedMemory,
)


def test_constants():
    assert GRANULE == 16
    assert CAP_SLOT == 32
    # The data path's formats move exactly one integer and one slot; the
    # import-time asserts beside them vanish under -O.
    assert WORD.size == INT_WIDTH
    assert SLOT.size == CAP_SLOT


def test_byte_round_trip():
    m = TaggedMemory(1024)
    m.write_bytes(100, b"hello world")
    assert m.read_bytes(100, 11) == b"hello world"
    assert m.read_bytes(99, 1) == b"\x00"


def test_zero_length_write_is_noop():
    m = TaggedMemory(256)
    c = make_root(0, 64, PERM_ALL)
    m.store_cap(0, c)
    m.write_bytes(0, b"")
    assert m.tags[0 // GRANULE]          # an empty write clears nothing


def test_out_of_range_access():
    m = TaggedMemory(256)
    with pytest.raises(AddressError):
        m.read_bytes(250, 8)
    with pytest.raises(AddressError):
        m.write_bytes(-1, b"x")
    with pytest.raises(AddressError):
        m.store_cap(256, make_root(0, 8, Perm.LOAD))


def test_store_cap_alignment():
    # slots are naturally aligned; half-slot offsets would let records
    # interleave and share tag granules
    m = TaggedMemory(256)
    with pytest.raises(AlignmentError):
        m.store_cap(8, make_root(0, 8, Perm.LOAD))
    with pytest.raises(AlignmentError):
        m.load_cap(24)
    with pytest.raises(AlignmentError):
        m.load_cap(16)
    m.load_cap(32)


def test_cap_round_trip_exact():
    m = TaggedMemory(1024)
    c = seal(make_root(0x40, 0x140, Perm.LOAD | Perm.STORE_CAP), 77)
    m.store_cap(64, c)
    got = m.load_cap(64)
    assert got == c and got.tag


def test_tag_lives_in_the_granule_not_the_bytes():
    m = TaggedMemory(1024)
    c = make_root(0x40, 0x140, PERM_ALL)
    m.store_cap(64, c)
    assert m.tags[64 // GRANULE]
    # writing the identical record bytes by hand must not set the tag
    m.write_bytes(96, serialize(c))
    assert not m.tags[96 // GRANULE]
    got = m.load_cap(96)
    assert not got.tag
    assert (got.base, got.top, got.address) == (c.base, c.top, c.address)


def test_byte_write_clears_overlapping_tags():
    m = TaggedMemory(1024)
    c = make_root(0, 512, PERM_ALL)
    m.store_cap(64, c)
    m.store_cap(96, c)
    # one byte into the first slot's first granule
    m.write_bytes(70, b"\xff")
    assert not m.load_cap(64).tag
    assert m.load_cap(96).tag        # neighbour slot untouched
    # a write spanning a granule boundary clears both sides
    m.store_cap(64, c)
    m.write_bytes(95, b"\x00\x00")   # bytes 95 and 96
    assert not m.tags[80 // GRANULE]     # granule [80, 96) of the slot at 64
    assert not m.load_cap(64).tag
    assert not m.load_cap(96).tag


def test_cap_tag_covers_both_granules():
    # the record's upper bound, cursor, permission and seal fields live in
    # the second granule; a byte write there must kill the slot too
    m = TaggedMemory(1024)
    m.store_cap(64, make_root(0, 512, PERM_ALL))
    assert m.tags[64 // GRANULE] and m.tags[(64 + GRANULE) // GRANULE]
    m.write_bytes(64 + GRANULE + 3, b"\xff")
    assert not m.load_cap(64).tag


def test_storing_untagged_cap_clears_a_present_tag():
    m = TaggedMemory(1024)
    m.store_cap(64, make_root(0, 512, PERM_ALL))
    from capcomp.capability import int_cap
    m.store_cap(64, int_cap(9))
    assert not m.load_cap(64).tag
    assert m.load_cap(64).address == 9


def test_unforgeability_focused():
    """Every single-byte overwrite anywhere in a slot clears its validity."""
    m = TaggedMemory(4096)
    for slot in range(0, 4096, CAP_SLOT):
        m.store_cap(slot, make_root(0, 4096, PERM_ALL))
    for slot in range(0, 4096, CAP_SLOT):
        for b in range(CAP_SLOT):
            m.store_cap(slot, make_root(0, 4096, PERM_ALL))
            m.write_bytes(slot + b, b"\x5a")
            assert not m.load_cap(slot).tag, f"tag survived byte write at {slot + b}"
