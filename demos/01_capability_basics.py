"""Walkthrough of the capability type and the tagged memory that guards it.

Run from the repository root after an editable install:

    python3 demos/01_capability_basics.py
"""

from capcomp.capability import (
    PERM_ALL,
    Perm,
    format_perms,
    make_root,
    restrict_perms,
    seal,
    serialize,
    set_address,
    set_bounds,
    unseal,
)
from capcomp.memory import CAP_SLOT, TaggedMemory


def show(label, c):
    state = "sealed" if c.sealed else "unsealed"
    print(f"  {label:<28} tag={int(c.tag)} [{c.base:#x}, {c.top:#x}) "
          f"addr={c.address:#x} perms={format_perms(c.perms)} {state}")


def main():
    print("1. Roots and monotone derivation")
    root = make_root(0x1000, 0x5000, PERM_ALL)
    show("root", root)

    window = set_bounds(root, 0x2000, 0x3000)
    show("narrowed to a window", window)

    ro = restrict_perms(window, Perm.LOAD)
    show("load-only view", ro)

    cursor = set_address(ro, 0x2040)
    show("cursor moved inside", cursor)

    # widening is not an error, it just hands back a dead capability
    widened = set_bounds(window, 0x0, 0x10000)
    show("attempted widening", widened)
    assert not widened.tag

    print()
    print("2. Sealing: opaque tokens for controlled entry")
    token = seal(set_address(root, 0x1100), otype=7)
    show("sealed entry token", token)
    show("sealed token after mutation", set_address(token, 0x1108))
    show("after unseal", unseal(token))

    print()
    print("3. Tags live beside memory, not in it")
    mem = TaggedMemory(4096)
    mem.store_cap(0, window)
    tag = int(mem.load_cap(0).tag)
    print(f"  stored the window at slot 0; load tag = {tag}")
    assert tag == 1

    mem.write_bytes(17, b"\xff")        # one stray byte inside the slot
    tag = int(mem.load_cap(0).tag)
    print(f"  after a 1-byte raw write into the slot: load tag = {tag}")
    assert tag == 0

    record = serialize(window)
    mem.write_bytes(CAP_SLOT, record)   # bit-identical bytes, no store_cap
    tag = int(mem.load_cap(CAP_SLOT).tag)
    print(f"  bit-identical record written as plain bytes: load tag = {tag}")
    assert tag == 0
    print()
    print("Raw data can describe a capability but can never become one.")


if __name__ == "__main__":
    main()
