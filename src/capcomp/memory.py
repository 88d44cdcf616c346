"""Byte-addressable memory with per-granule validity tags.

Memory is split into 16-byte granules, each carrying one tag bit.  A stored
capability occupies two granules (its flat record zero-padded to 32 bytes),
and both granules carry its tag; a load yields a valid capability only when
both tags are set.  Any plain byte write clears the tags of every granule it
overlaps, which is what makes capabilities unforgeable: bytes alone can
never conjure a set tag.
"""

from __future__ import annotations

import struct

from .capability import ADDR_BITS, ADDR_MASK, PERMS, PERM_ALL, TOP_MAX, Capability

GRANULE = 16
CAP_SLOT = 2 * GRANULE          # in-memory footprint of one capability
DEFAULT_SIZE = 1 << 24

# One capability slot: the flat record of `capability.serialize` (tag, base,
# top as its low 8 bytes and its high byte, address, perms, otype), then 3
# bytes of zero padding.
_SLOT = struct.Struct("<BQQBQBH3x")
_PERM_BITS = int(PERM_ALL)


class AddressError(Exception):
    """Raised when an access falls outside the memory array."""


class AlignmentError(Exception):
    """Raised when a capability load/store is not granule-aligned."""


class TaggedMemory:
    """A flat byte array plus one tag bit per 16-byte granule."""

    __slots__ = ("size", "data", "tags")

    def __init__(self, size: int = DEFAULT_SIZE):
        if size <= 0 or size % GRANULE != 0:
            raise ValueError(f"memory size must be a positive multiple of {GRANULE}")
        self.size = size
        self.data = bytearray(size)
        self.tags = bytearray(size // GRANULE)   # 0/1 per granule

    def _check_range(self, addr: int, length: int) -> None:
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
        self._check_range(addr, CAP_SLOT)
        t = 1 if c.tag else 0
        top = c.top
        try:
            # Packed whole before the write, so a field out of range leaves
            # the slot untouched.
            record = _SLOT.pack(t, c.base, top & ADDR_MASK, top >> ADDR_BITS, c.address,
                                int(c.perms) & 0xFF, c.otype)
        except struct.error as e:
            raise OverflowError(f"capability field out of range for its record: {e}") from None
        self.data[addr:addr + CAP_SLOT] = record
        self.tags[addr // GRANULE] = t
        self.tags[addr // GRANULE + 1] = t

    def load_cap(self, addr: int) -> Capability:
        """Load a capability from a naturally aligned 32-byte slot.

        Never traps on content: raw bytes decode to an untagged capability.
        The result is valid only when both granule tags survived, so a byte
        write anywhere in the slot kills it and forged records stay dead.
        """
        if addr % CAP_SLOT != 0:
            raise AlignmentError(f"capability load at {addr:#x} not {CAP_SLOT}-aligned")
        self._check_range(addr, CAP_SLOT)
        _, base, top, top_high, address, perms, otype = _SLOT.unpack_from(self.data, addr)
        if top_high & 1:         # top is 65 bits wide, like `deserialize` reads it
            top += TOP_MAX
        g = addr // GRANULE
        return Capability(base, top, address, PERMS[perms & _PERM_BITS], otype,
                          self.tags[g] != 0 and self.tags[g + 1] != 0)

    def granule_tag(self, addr: int) -> bool:
        self._check_range(addr, 1)
        return self.tags[addr // GRANULE] != 0

    def dump_hex(self, addr: int, length: int) -> str:
        """Render one line per granule: address, 16 hex bytes, tag marker."""
        self._check_range(addr, length)
        start = (addr // GRANULE) * GRANULE
        end = addr + length
        lines = []
        g = start
        while g < end:
            row = self.data[g:g + GRANULE]
            hexpart = " ".join(f"{b:02x}" for b in row)
            t = "T" if self.tags[g // GRANULE] else "-"
            lines.append(f"{g:08x}: {hexpart}  {t}")
            g += GRANULE
        return "\n".join(lines)
