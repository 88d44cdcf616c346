"""The isolation fuzzer's random stream, pinned.

Every `FuzzReport` field of `fuzz_isolation`, for three seeds on each bundled
configuration and on `FUZZ_CONFIG`.  The harness draws the sequence length,
then the instructions, then the r4 address from one `random.Random(seed)`;
any change to those calls, to their order, or to the machine's behaviour
moves these numbers.  Fault kinds are pinned in first-seen order, which
`capcomp verify` uses to break ties in its tally.
"""

import importlib.resources as ir

import pytest

from capcomp.layout import boot_init, compute_layout, parse_config
from capcomp.runtime import FUZZ_CONFIG, fuzz_isolation

SEQUENCES = 500

# (config, seed): (sequences, steps, switches, faults in first-seen order, violations)
PINNED = {
    ("two_comp", 3): (500, 321, 4, [("BoundsFault", 129), ("PermissionFault", 75), ("TagFault", 237), ("AlignmentFault", 16), ("SealFault", 2)], []),
    ("two_comp", 41): (500, 435, 21, [("TagFault", 213), ("PermissionFault", 85), ("BoundsFault", 146), ("AlignmentFault", 13), ("SealFault", 16)], []),
    ("two_comp", 1009): (500, 380, 15, [("BoundsFault", 144), ("TagFault", 219), ("PermissionFault", 67), ("SealFault", 16), ("AlignmentFault", 24)], []),
    ("three_comp_shared", 3): (500, 353, 6, [("BoundsFault", 133), ("TagFault", 236), ("PermissionFault", 69), ("AlignmentFault", 23), ("SealFault", 4)], []),
    ("three_comp_shared", 41): (500, 334, 9, [("TagFault", 226), ("PermissionFault", 65), ("BoundsFault", 138), ("AlignmentFault", 24), ("SealFault", 18)], []),
    ("three_comp_shared", 1009): (500, 429, 20, [("BoundsFault", 139), ("TagFault", 227), ("PermissionFault", 71), ("AlignmentFault", 23), ("SealFault", 14)], []),
    ("sandbox_host", 3): (500, 362, 9, [("BoundsFault", 124), ("PermissionFault", 75), ("TagFault", 236), ("AlignmentFault", 19), ("SealFault", 5)], []),
    ("sandbox_host", 41): (500, 407, 18, [("TagFault", 221), ("PermissionFault", 78), ("BoundsFault", 146), ("AlignmentFault", 15), ("SealFault", 13)], []),
    ("sandbox_host", 1009): (500, 366, 11, [("BoundsFault", 128), ("TagFault", 233), ("PermissionFault", 65), ("SealFault", 16), ("AlignmentFault", 24)], []),
    ("FUZZ_CONFIG", 3): (500, 382, 11, [("BoundsFault", 131), ("PermissionFault", 75), ("TagFault", 220), ("AlignmentFault", 22), ("SealFault", 7)], []),
    ("FUZZ_CONFIG", 41): (500, 403, 17, [("TagFault", 216), ("PermissionFault", 80), ("BoundsFault", 148), ("AlignmentFault", 15), ("SealFault", 15)], []),
    ("FUZZ_CONFIG", 1009): (500, 427, 17, [("BoundsFault", 120), ("TagFault", 228), ("PermissionFault", 69), ("SealFault", 20), ("AlignmentFault", 29)], []),
}


def config_text(name):
    if name == "FUZZ_CONFIG":
        return FUZZ_CONFIG
    return ir.files("capcomp").joinpath("fixtures", f"{name}.cfg").read_text()


@pytest.mark.parametrize("name, seed", sorted(PINNED))
def test_fuzz_report_is_pinned(name, seed):
    img = boot_init(compute_layout(parse_config(config_text(name)), memory_size=1 << 20))
    rep = fuzz_isolation(img, sequences=SEQUENCES, seed=seed)
    got = (rep.sequences, rep.steps, rep.switches, list(rep.faults.items()), rep.violations)
    assert got == PINNED[name, seed]
