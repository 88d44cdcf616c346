"""Boot a two-compartment image and drive one gated call end to end.

Shows the memory layout, the call/return instruction stream, the switch
counters, and the per-phase latency of a single domain crossing.

    python3 demos/02_boot_and_round_trip.py
"""

import importlib.resources

from capcomp.capability import set_address
from capcomp.isa import addi, halt, retl
from capcomp.layout import (
    boot_init,
    compute_layout,
    format_region_table,
    install_function,
    parse_config,
)
from capcomp.machine import run
from capcomp.runtime import GateDescriptor, emit_gate_sequence
from capcomp.workload import format_breakdown, switch_breakdown


def fixture(name):
    return importlib.resources.files("capcomp").joinpath(
        "fixtures", name).read_text()


def main():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    print("1. Placement: every byte of the image accounted for")
    print(format_region_table(plan))

    img = boot_init(plan)
    print()
    print("2. One cross-compartment call: app asks lib to add 1")
    entry = install_function(img, "lib", [addi(0, 0, 1), retl()])
    gate = GateDescriptor(caller="app", callee="lib", entry=entry, dest=0)
    code = emit_gate_sequence(plan, gate, [41])
    site = install_function(img, "app", list(code.instructions) + [halt()])

    st = img.machine
    st.pcc = set_address(img.pcc_caps["app"], site)
    run(st, img.mem, img.program)
    assert st.halted and st.fault is None

    switches = st.switches
    print(f"  result r0 = {st.regs[0].address}")
    print(f"  domain switches: {switches} (call + return)")
    print(f"  instructions retired: {st.instructions_retired}")

    print()
    print("3. Where a single switch spends its time")
    for cold in (False, True):
        print(format_breakdown(switch_breakdown(cold=cold),
                               "cold miss" if cold else "hot"))
        print()


if __name__ == "__main__":
    main()
