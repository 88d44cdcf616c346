"""Hardware capability values and their derivation algebra.

A capability is a fat pointer: bounds [base, top), a cursor (address), a
permission set, a sealing type, and a validity tag.  Every derivation is
monotonic: no operation can widen bounds or add permissions, and any attempt
to do so yields an untagged result that authorizes nothing.  Sealed
capabilities are opaque tokens; mutating one also clears the tag.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

ADDR_BITS = 64
ADDR_MASK = (1 << ADDR_BITS) - 1
TOP_MAX = 1 << ADDR_BITS            # top is a 65-bit quantity so [0, 2^64) is expressible
OTYPE_UNSEALED = 0
OTYPE_MAX = (1 << 16) - 1

# Debug serialization: tag(1) | base(8) | top(9) | address(8) | perms(1) | otype(2),
# all little-endian.
RECORD_LEN = 29


class Perm(enum.IntFlag):
    """Permission bits a capability may carry."""

    LOAD = 1
    STORE = 2
    EXECUTE = 4
    LOAD_CAP = 8
    STORE_CAP = 16
    INVOKE = 32


PERM_ALL = Perm(63)
PERM_NONE = Perm(0)

# Every permission set as its canonical member: PERMS[i] is Perm(i).  The
# hot paths compute permission sets as plain ints and look the result up
# here, so no IntFlag arithmetic runs per access.
PERMS = tuple(Perm(i) for i in range(int(PERM_ALL) + 1))
_int_and = int.__and__     # AND of two ints, Perm operands included, as a plain int


class FaultKind(enum.Enum):
    """Reasons a capability check or memory operation can fail.

    The first four are ordered: when several conditions fail at once, the
    highest-priority kind is reported (tag, then seal, then permission,
    then bounds).
    """

    TAG = "TagFault"
    SEAL = "SealFault"
    PERMISSION = "PermissionFault"
    BOUNDS = "BoundsFault"
    ALIGNMENT = "AlignmentFault"
    ADDRESS = "AddressError"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class Capability:
    """An immutable capability value.

    base/top delimit the authorized range [base, top); address is the cursor
    and may sit outside the bounds (it is checked at use, not at move).
    otype 0 means unsealed; any other value marks the capability sealed.
    tag distinguishes a live capability from plain bytes: untagged values
    carry integers around but never authorize an access.
    """

    base: int
    top: int
    address: int
    perms: Perm
    otype: int = OTYPE_UNSEALED
    tag: bool = False

    def __init__(self, base: int, top: int, address: int, perms: Perm,
                 otype: int = OTYPE_UNSEALED, tag: bool = False):
        # The interpreter builds a capability on nearly every step.  Setting
        # the fields through their slot descriptors costs about half of the
        # object.__setattr__ calls the generated frozen __init__ makes.
        _set_base(self, base)
        _set_top(self, top)
        _set_address(self, address)
        _set_perms(self, perms)
        _set_otype(self, otype)
        _set_tag(self, tag)

    @property
    def sealed(self) -> bool:
        return self.otype != OTYPE_UNSEALED

    def length(self) -> int:
        return self.top - self.base

    def __repr__(self) -> str:
        t = "T" if self.tag else "-"
        s = f",otype={self.otype}" if self.sealed else ""
        return f"Cap[{self.base:#x},{self.top:#x})@{self.address:#x} {self.perms!r} {t}{s}"


_set_base, _set_top, _set_address, _set_perms, _set_otype, _set_tag = (
    Capability.__dict__[f].__set__ for f in ("base", "top", "address", "perms", "otype", "tag"))


def int_cap(value: int) -> Capability:
    """Wrap a plain integer as an untagged capability (the register model)."""
    return Capability(0, 0, value & ADDR_MASK, PERM_NONE, OTYPE_UNSEALED, False)


NULL_CAP = int_cap(0)


def make_root(base: int, top: int, perms: Perm) -> Capability:
    """Construct a root capability out of thin air.

    Only boot-time setup may call this; everything else must derive.
    """
    if not (0 <= base <= top <= TOP_MAX):
        raise ValueError(f"invalid root bounds [{base:#x}, {top:#x})")
    return Capability(base, top, base, Perm(perms), OTYPE_UNSEALED, True)


def set_bounds(c: Capability, new_base: int, new_top: int) -> Capability:
    """Narrow a capability to [new_base, new_top); cursor moves to new_base.

    Any widening attempt, inverted bounds, sealed or untagged source yields
    an untagged result instead of trapping.
    """
    ok = (
        c.tag
        and not c.sealed
        and 0 <= new_base <= new_top <= TOP_MAX
        and c.base <= new_base
        and new_top <= c.top
    )
    base = min(max(new_base, 0), ADDR_MASK)
    top = min(max(new_top, 0), TOP_MAX)
    return Capability(base, max(top, base), base, c.perms, OTYPE_UNSEALED, ok)


def set_address(c: Capability, address: int) -> Capability:
    """Move the cursor. The tag survives even if the cursor leaves the bounds
    (the violation is caught at use); moving a sealed capability's cursor
    clears the tag instead."""
    return Capability(c.base, c.top, address & ADDR_MASK, c.perms, c.otype,
                      c.tag and c.otype == OTYPE_UNSEALED)


def restrict_perms(c: Capability, keep: Perm) -> Capability:
    """Intersect the permission set with `keep` (a Perm or an int mask);
    sealed sources lose the tag."""
    perms = _int_and(c.perms, keep)
    return Capability(c.base, c.top, c.address,
                      PERMS[perms] if perms < len(PERMS) else Perm(perms),
                      c.otype, c.tag and c.otype == OTYPE_UNSEALED)


def seal(c: Capability, otype: int) -> Capability:
    """Seal a capability with a nonzero object type, making it immutable and
    non-dereferenceable until unsealed. Sealing an already-sealed or untagged
    capability yields an untagged result."""
    if not (OTYPE_UNSEALED < otype <= OTYPE_MAX):
        raise ValueError(f"otype must be in [1, {OTYPE_MAX}], got {otype}")
    return Capability(c.base, c.top, c.address, c.perms, otype,
                      c.tag and c.otype == OTYPE_UNSEALED)


def unseal(c: Capability) -> Capability:
    """Remove the seal, restoring a usable capability.

    Round-trips exactly: unseal(seal(c, t)) == c.  Unsealing an unsealed
    capability is a programming error, not a machine fault.
    """
    if not c.sealed:
        raise ValueError("cannot unseal an unsealed capability")
    return Capability(c.base, c.top, c.address, c.perms, OTYPE_UNSEALED, c.tag)


def check_access(c: Capability, addr: int, length: int, need: Perm) -> FaultKind | None:
    """Decide whether `c` authorizes touching [addr, addr+length) with `need`.

    Returns None when the access is allowed, otherwise the highest-priority
    fault kind: tag, then seal, then permission, then bounds.  `need` is a
    Perm or an int mask.
    """
    if length < 1:
        raise ValueError("access length must be >= 1")
    if not c.tag:
        return FaultKind.TAG
    if c.otype != OTYPE_UNSEALED:
        return FaultKind.SEAL
    if _int_and(c.perms, need) != need:
        return FaultKind.PERMISSION
    if addr < c.base or addr + length > c.top:
        return FaultKind.BOUNDS
    return None


def serialize(c: Capability) -> bytes:
    """Pack a capability into its flat debug record.

    This and `deserialize` are the reference codec: `TaggedMemory` packs
    and unpacks the same layout in one step with a precompiled struct.
    """
    return (
        bytes([1 if c.tag else 0])
        + c.base.to_bytes(8, "little")
        + c.top.to_bytes(9, "little")
        + c.address.to_bytes(8, "little")
        + bytes([int(c.perms) & 0xFF])
        + c.otype.to_bytes(2, "little")
    )


def deserialize(record: bytes) -> Capability:
    """Unpack a flat record. Total for arbitrary bytes: garbage decodes to a
    (possibly nonsense) capability value; the tag byte is honored only by
    callers that have an independent source of truth for it."""
    if len(record) != RECORD_LEN:
        raise ValueError(f"capability record must be {RECORD_LEN} bytes, got {len(record)}")
    tag = record[0] != 0
    base = int.from_bytes(record[1:9], "little")
    top = int.from_bytes(record[9:18], "little") & (TOP_MAX * 2 - 1)
    address = int.from_bytes(record[18:26], "little")
    perms = Perm(record[26] & int(PERM_ALL))
    otype = int.from_bytes(record[27:29], "little")
    return Capability(base, top, address, perms, otype, tag)
