"""Byte-addressable memory with per-granule validity tags.

Memory is split into 16-byte granules, each carrying one tag bit.  A stored
capability occupies two granules (its flat record zero-padded to 32 bytes),
and both granules carry its tag; a load yields a valid capability only when
both tags are set.  Any plain byte write clears the tags of every granule it
overlaps, which is what makes capabilities unforgeable: bytes alone can
never conjure a set tag.

The data path's two byte formats are owned here.  An integer word is
`WORD`, INT_WIDTH bytes little-endian, which the machine's integer-access
handler packs into and unpacks from memory in place.  A capability slot is
`SLOT`, the flat record of `capability.serialize` (tag, base, top as its
low 8 bytes and its high byte, address, perms, otype) then 3 bytes of zero
padding, and `write_slot` and `read_slot` are its one codec: the only code
the program runs that maps a `Capability` onto the record.
`TaggedMemory.store_cap` and `load_cap`, the machine's capability-access
handler, its slot run and its load-pair-branch all call them once they have
made their own alignment and range tests, so the codec tests neither.
`capability.serialize` and `deserialize` spell the record out
independently, as the reference the tests compare the codec with.

The null capability is one object on the slot path.  `write_slot` stores
`NULL_CAP` itself as the constant `NULL_RECORD` without packing, and
`read_slot` returns `NULL_CAP` itself for a slot that decodes to null.  The
gate's scrub stores of r16 and its spills of dead caller registers are such
stores, and its restores of those spills such loads, so a restored register
is `NULL_CAP` and the next crossing's spill of it takes the shortcut again.
The rule reads only the slot's bytes and tags, so every value, byte and tag
is what packing and unpacking would give.

A memory's `data` is a private anonymous mapping, not a `bytearray`.  The
kernel supplies its zeroed pages on first touch, so a page nothing writes
costs no memory and no zero-fill, and the data of a booted 1 GiB image
holds only the few pages boot wrote.  An mmap is not a bytearray, though:
its slices are `bytes`, iterating it yields 1-byte `bytes`, and `==`
compares identity, so read it whole with `bytes(mem.data)`.  `tags`
stays a `bytearray`, whose item stores are the faster on the hot path and
whose items iterate as ints.
"""

from __future__ import annotations

import mmap
import struct

from .capability import ADDR_BITS, ADDR_MASK, NULL_CAP, PERM_ALL, TOP_MAX, Capability, _CapBuilder
from .isa import INT_WIDTH

GRANULE = 16
CAP_SLOT = 2 * GRANULE          # in-memory footprint of one capability
DEFAULT_SIZE = 1 << 20         # 1 MiB: the default of the library and the CLI

WORD = struct.Struct("<Q")
assert WORD.size == INT_WIDTH
SLOT = struct.Struct("<BQQBQBH3x")
assert SLOT.size == CAP_SLOT
copy_slot = struct.Struct(f"{CAP_SLOT}s").pack_into
PERM_BITS = int(PERM_ALL)       # the perms bits a loaded slot keeps
NULL_RECORD = SLOT.pack(0, 0, 0, 0, 0, 0, 0)
_pack_slot, _unpack_slot = SLOT.pack, SLOT.unpack_from


def write_slot(mem: TaggedMemory, addr: int, c: Capability) -> None:
    """Store `c` in the slot at `addr` and set both its granule tags to
    `c.tag`; the caller has tested that `addr` is CAP_SLOT-aligned and in
    memory.

    `NULL_CAP` itself is written as `NULL_RECORD` (32 zero bytes) with both
    tags clear, without packing.  Any other capability is packed whole with
    `SLOT.pack` and then copied with `copy_slot`.  `SLOT.pack_into` would
    zero-fill the slot and write field by field before finding a field too
    wide for the record, clobbering the slot it then refuses to store;
    packing first makes such a capability raise OverflowError before any
    byte is written.
    """
    tags = mem.tags
    g = addr // GRANULE
    if c is NULL_CAP:
        copy_slot(mem.data, addr, NULL_RECORD)
        tags[g] = tags[g + 1] = 0
        return
    t = 1 if c.tag else 0
    top = c.top
    try:
        record = _pack_slot(t, c.base, top & ADDR_MASK, top >> ADDR_BITS, c.address,
                            c.perms & 0xFF, c.otype)
    except struct.error as e:
        raise OverflowError(f"capability field out of range for its record: {e}") from None
    copy_slot(mem.data, addr, record)
    tags[g] = tags[g + 1] = t


def read_slot(mem: TaggedMemory, addr: int) -> Capability:
    """Decode the slot at `addr`; the caller has tested that `addr` is
    CAP_SLOT-aligned and in memory.

    Never traps on content: raw bytes decode to a capability, tagged only
    when both granule tags are set.  Top is 65 bits wide, as `deserialize`
    reads it, and perms keep only the `PERM_BITS`.  A slot that decodes to
    base, top, address, perms and otype all 0, with its two granule tags
    not both set, loads as `NULL_CAP` itself.
    """
    _, base, top, top_high, address, perms, otype = _unpack_slot(mem.data, addr)
    if top_high & 1:
        top += TOP_MAX
    perms &= PERM_BITS
    tags = mem.tags
    g = addr // GRANULE
    tag = tags[g] != 0 and tags[g + 1] != 0
    if tag or base or top or address or perms or otype:
        return _CapBuilder(base, top, address, perms, otype, tag)
    return NULL_CAP


class AddressError(Exception):
    """Raised when an access falls outside the memory array."""


class AlignmentError(Exception):
    """Raised when a capability load/store is not granule-aligned."""


class TaggedMemory:
    """A flat byte array plus one tag bit per 16-byte granule.

    `data` is a private anonymous mapping, read as the module docstring
    says.  It is `mmap.ACCESS_COPY`, so MAP_PRIVATE: a plain anonymous mmap
    is MAP_SHARED on Unix, and reading all of a shared map, as
    `bytes(mem.data)` does, makes all of it resident.  `tags` is a
    `bytearray` of 0/1, one per granule.
    """

    __slots__ = ("size", "data", "tags")

    def __init__(self, size: int = DEFAULT_SIZE):
        if size <= 0 or size % GRANULE != 0:
            raise ValueError(f"memory size must be a positive multiple of {GRANULE}")
        self.size = size
        self.data = mmap.mmap(-1, size, access=mmap.ACCESS_COPY)
        self.tags = bytearray(size // GRANULE)   # 0/1 per granule

    def _check_range(self, addr: int, length: int) -> None:
        # The capability load/store paths test the same range inline and
        # call this only to raise.
        if addr < 0 or length < 0 or addr + length > self.size:
            raise AddressError(f"access [{addr:#x}, {addr + length:#x}) outside memory of {self.size:#x}")

    def read_bytes(self, addr: int, length: int) -> bytes:
        self._check_range(addr, length)
        return bytes(self.data[addr:addr + length])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        """Write raw bytes, clearing the tag of every overlapped granule.

        A zero-length write is a no-op and clears nothing.
        """
        length = len(payload)
        self._check_range(addr, length)
        if length == 0:
            return
        self.data[addr:addr + length] = payload
        first = addr // GRANULE
        last = (addr + length - 1) // GRANULE
        for g in range(first, last + 1):
            self.tags[g] = 0

    def store_cap(self, addr: int, c: Capability) -> None:
        """Store a capability at a naturally aligned 32-byte slot.

        Both granules of the slot carry the capability's tag.  The record
        spans two granules, so a single-tag scheme would let a byte write
        into the second granule corrupt the upper bound, cursor, permission
        and seal fields while the slot stayed valid.  Natural alignment also
        keeps slots from interleaving at half-slot offsets, which would let
        one legitimate store re-tag the tail of a neighbouring record.
        """
        if addr % CAP_SLOT != 0:
            raise AlignmentError(f"capability store at {addr:#x} not {CAP_SLOT}-aligned")
        if addr < 0 or addr + CAP_SLOT > self.size:
            self._check_range(addr, CAP_SLOT)
        write_slot(self, addr, c)

    def load_cap(self, addr: int) -> Capability:
        """Load a capability from a naturally aligned 32-byte slot.

        Never traps on content: raw bytes decode to an untagged capability.
        The result is valid only when both granule tags survived, so a byte
        write anywhere in the slot kills it and forged records stay dead.
        A slot that decodes to the null capability loads as NULL_CAP itself.
        """
        if addr % CAP_SLOT != 0:
            raise AlignmentError(f"capability load at {addr:#x} not {CAP_SLOT}-aligned")
        if addr < 0 or addr + CAP_SLOT > self.size:
            self._check_range(addr, CAP_SLOT)
        return read_slot(self, addr)
