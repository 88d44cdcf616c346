"""Capability value semantics: derivation monotonicity, sealing, access
checks, and the flat serialization record."""

import random
import struct
import sys

import pytest
from hypothesis import given, settings, strategies as st

from capcomp.capability import (
    ADDR_MASK,
    Capability,
    FaultKind,
    NULL_CAP,
    PERM_ALL,
    Perm,
    RECORD_LEN,
    TOP_MAX,
    check_access,
    deserialize,
    format_perms,
    int_cap,
    make_root,
    restrict_perms,
    seal,
    serialize,
    set_address,
    set_bounds,
    unseal,
)


# --------------------------------------------------------------------------
# Oracle: an independent packer for the flat record, written against the
# documented field layout, not against the implementation.

def oracle_pack(c: Capability) -> bytes:
    return struct.pack("<B", 1 if c.tag else 0) \
        + struct.pack("<Q", c.base) \
        + c.top.to_bytes(9, "little") \
        + struct.pack("<Q", c.address) \
        + struct.pack("<B", int(c.perms)) \
        + struct.pack("<H", c.otype)


def rand_cap(rng: random.Random) -> Capability:
    base = rng.randrange(0, 1 << 48)
    top = rng.randrange(base, min(base + (1 << 20), TOP_MAX) + 1)
    addr = rng.randrange(0, 1 << 48)
    return Capability(base, top, addr, Perm(rng.randrange(64)),
                      rng.randrange(0, 1 << 16), bool(rng.randrange(2)))


def test_record_layout_matches_oracle():
    rng = random.Random(7)
    for _ in range(500):
        c = rand_cap(rng)
        assert serialize(c) == oracle_pack(c)
        assert len(serialize(c)) == RECORD_LEN == 29


def test_record_round_trip():
    rng = random.Random(8)
    for _ in range(500):
        c = rand_cap(rng)
        assert deserialize(serialize(c)) == c


@given(st.binary(min_size=29, max_size=29))
def test_deserialize_is_total(blob):
    c = deserialize(blob)          # must never raise on 29 bytes of anything
    assert 0 <= c.top < 2 * TOP_MAX
    assert c.perms & ~int(PERM_ALL) == 0


def test_deserialize_rejects_wrong_length():
    with pytest.raises(ValueError):
        deserialize(b"\x00" * 28)
    with pytest.raises(ValueError):
        deserialize(b"\x00" * 33)


# --------------------------------------------------------------------------
# Construction

def test_make_root():
    c = make_root(0x1000, 0x2000, Perm.LOAD | Perm.STORE)
    assert c.tag and not c.sealed
    assert (c.base, c.top, c.address) == (0x1000, 0x2000, 0x1000)
    assert c.perms == Perm.LOAD | Perm.STORE


def test_make_root_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        make_root(0x2000, 0x1000, Perm.LOAD)


def test_int_cap_is_untagged():
    c = int_cap(12345)
    assert not c.tag and c.address == 12345
    assert not NULL_CAP.tag and NULL_CAP.address == 0


# --------------------------------------------------------------------------
# Derivation rules

ROOT = make_root(0x1000, 0x9000, PERM_ALL)


def test_narrowing_keeps_tag_and_moves_cursor():
    c = set_bounds(ROOT, 0x2000, 0x3000)
    assert c.tag
    assert (c.base, c.top, c.address) == (0x2000, 0x3000, 0x2000)
    assert c.perms == ROOT.perms


def test_widening_clears_tag():
    low = set_bounds(ROOT, 0x0800, 0x3000)    # extends below the base
    high = set_bounds(ROOT, 0x2000, 0xA000)   # extends past the top
    assert not low.tag and not high.tag


def test_inverted_request_clears_tag():
    assert not set_bounds(ROOT, 0x3000, 0x2000).tag


def test_set_bounds_on_sealed_or_untagged_clears_tag():
    assert not set_bounds(seal(ROOT, 5), 0x2000, 0x3000).tag
    bare = Capability(ROOT.base, ROOT.top, ROOT.address, ROOT.perms, 0, False)
    assert not set_bounds(bare, 0x2000, 0x3000).tag


def test_set_address_survives_out_of_bounds_cursor():
    # moving the cursor out of range is representable; the fault comes at use
    c = set_address(ROOT, 0xFFFF_0000)
    assert c.tag and c.address == 0xFFFF_0000
    assert check_access(c, c.address, 1, Perm.LOAD) is FaultKind.BOUNDS


def test_set_address_on_sealed_clears_tag():
    s = seal(ROOT, 9)
    assert not set_address(s, 0x1000).tag


def test_restrict_perms_intersects():
    c = restrict_perms(ROOT, Perm.LOAD | Perm.EXECUTE)
    assert c.perms == Perm.LOAD | Perm.EXECUTE and c.tag
    # attempting to add a permission the source lacks cannot widen
    narrow = restrict_perms(ROOT, Perm.LOAD)
    again = restrict_perms(narrow, Perm.LOAD | Perm.STORE)
    assert again.perms == Perm.LOAD


def test_restrict_perms_on_sealed_clears_tag():
    assert not restrict_perms(seal(ROOT, 3), Perm.LOAD).tag


# --------------------------------------------------------------------------
# Sealing

def test_seal_unseal_round_trip():
    s = seal(ROOT, 42)
    assert s.tag and s.sealed and s.otype == 42
    u = unseal(s)
    assert u == ROOT


def test_seal_rejects_reserved_otypes():
    with pytest.raises(ValueError):
        seal(ROOT, 0)
    with pytest.raises(ValueError):
        seal(ROOT, 0x10000)


def test_seal_of_sealed_or_untagged_gives_untagged():
    assert not seal(seal(ROOT, 1), 2).tag
    assert not seal(int_cap(5), 1).tag


def test_unseal_requires_sealed():
    with pytest.raises(ValueError):
        unseal(ROOT)


# --------------------------------------------------------------------------
# Access checks and fault priority

def test_access_inside_bounds_ok():
    assert check_access(ROOT, 0x1000, 8, Perm.LOAD) is None
    assert check_access(ROOT, 0x8FFF, 1, Perm.STORE) is None


def test_access_bounds_edges():
    assert check_access(ROOT, 0x0FFF, 1, Perm.LOAD) is FaultKind.BOUNDS
    assert check_access(ROOT, 0x9000, 1, Perm.LOAD) is FaultKind.BOUNDS
    assert check_access(ROOT, 0x8FF9, 8, Perm.LOAD) is FaultKind.BOUNDS  # spans top
    assert check_access(ROOT, 0x8FF8, 8, Perm.LOAD) is None


def test_fault_priority_order():
    bad = Capability(0x1000, 0x9000, 0xFFFF_0000, Perm(0), 7, False)
    # untagged beats everything
    assert check_access(bad, bad.address, 1, Perm.LOAD) is FaultKind.TAG
    # tagged + sealed beats permission and bounds
    sealed = Capability(0x1000, 0x9000, 0xFFFF_0000, Perm(0), 7, True)
    assert check_access(sealed, sealed.address, 1, Perm.LOAD) is FaultKind.SEAL
    # permission beats bounds
    noperm = Capability(0x1000, 0x9000, 0xFFFF_0000, Perm.STORE, 0, True)
    assert check_access(noperm, noperm.address, 1, Perm.LOAD) is FaultKind.PERMISSION
    # bounds reported last
    inb = Capability(0x1000, 0x9000, 0xFFFF_0000, Perm.LOAD, 0, True)
    assert check_access(inb, inb.address, 1, Perm.LOAD) is FaultKind.BOUNDS


def test_multi_permission_requirement():
    c = restrict_perms(ROOT, Perm.LOAD)
    assert check_access(c, 0x1000, 8, Perm.LOAD | Perm.STORE) is FaultKind.PERMISSION


# --------------------------------------------------------------------------
# Property: derivation is monotone.  Random chains of the four deriving
# operations can never produce a tagged capability whose authority exceeds
# the root it came from.

_op_strategy = st.lists(
    st.tuples(st.sampled_from(["bounds", "addr", "perms", "seal", "unseal"]),
              st.integers(0, 1 << 20), st.integers(0, 1 << 20)),
    min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(ops=_op_strategy)
def test_derivation_monotonicity(ops):
    root = make_root(0x4000, 0x8000, PERM_ALL)
    c = root
    for kind, x, y in ops:
        if kind == "bounds":
            c = set_bounds(c, 0x4000 + (x % 0x6000), 0x4000 + (y % 0x6000))
        elif kind == "addr":
            c = set_address(c, x)
        elif kind == "perms":
            c = restrict_perms(c, Perm(x % 64))
        elif kind == "seal":
            c = seal(c, 1 + (x % 0xFFFF))
        elif kind == "unseal" and c.sealed:
            c = unseal(c)
        if c.tag:
            assert root.base <= c.base and c.top <= root.top
            assert (c.perms & ~root.perms) == Perm(0)
    # a tagged survivor still checks correctly against its own bounds
    if c.tag and not c.sealed and c.perms & Perm.LOAD and c.base < c.top:
        assert check_access(c, c.base, 1, Perm.LOAD) is None


@settings(max_examples=200, deadline=None)
@given(otype=st.integers(1, 0xFFFF), addr=st.integers(0, ADDR_MASK))
def test_sealed_values_are_opaque(otype, addr):
    s = seal(ROOT, otype)
    # every mutating derivation on a sealed value yields an untagged result
    assert not set_address(s, addr).tag
    assert not set_bounds(s, s.base, s.top).tag
    assert not restrict_perms(s, PERM_ALL).tag
    assert not seal(s, otype).tag
    # and dereference is refused before any other consideration but the tag
    assert check_access(s, s.base, 1, Perm.LOAD) is FaultKind.SEAL


# --------------------------------------------------------------------------
# The one printer of a permission mask.

BIT_NAMES = ("LOAD", "STORE", "EXECUTE", "LOAD_CAP", "STORE_CAP", "INVOKE")


def test_format_perms_names_each_bit_in_ascending_order():
    for m in range(64):
        names = [name for bit, name in enumerate(BIT_NAMES) if m >> bit & 1]
        want = f"<Perm.{'|'.join(names)}: {m}>" if names else f"<Perm: {m}>"
        assert format_perms(m) == want
        assert format_perms(Perm(m)) == want


def test_format_perms_prints_unnamed_bits_as_one_number():
    assert format_perms(64) == "<Perm: 64>"
    assert format_perms(65) == "<Perm.LOAD|64: 65>"
    assert format_perms(0xC1) == "<Perm.LOAD|192: 193>"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="repr of a composite flag differs")
def test_format_perms_is_the_311_repr():
    for m in [*range(64), 64, 65, 127, 0xC1, 256]:
        assert format_perms(m) == repr(Perm(m))


def test_capability_repr_prints_perms_through_format_perms():
    c = make_root(0x10, 0x20, Perm.LOAD | Perm.STORE_CAP)
    assert repr(c) == "Cap[0x10,0x20)@0x10 <Perm.LOAD|STORE_CAP: 17> T"
