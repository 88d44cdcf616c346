"""Command-line front end.

Subcommands:
  layout     plan a configuration and print the region map
  boot-dump  boot a configuration and decode the protected structures
  verify     audit a layout and fuzz the isolation property
  run        traverse a scenario and estimate switching overhead
  micro      single-switch latency breakdown under the cycle weights
  trace      execute one cross-compartment round trip, one line per step

Exit codes: 0 success, 1 findings (audit problems, confinement violations,
an unexpected fault), 2 bad input.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources

from .capability import set_address
from .layout import (
    ConfigError,
    LayoutError,
    OFF_DDC,
    OFF_PCC,
    OFF_SP,
    OFF_TRAMP,
    TABLE_ENTRY,
    audit_plan,
    boot_init,
    compute_layout,
    format_region_records,
    format_region_table,
    install_function,
    parse_config,
)
from .isa import retl, halt
from .machine import run
from .runtime import (
    GateDescriptor,
    GateError,
    emit_gate_sequence,
    fuzz_isolation,
)
from .workload import (
    CostModel,
    ScenarioError,
    emit_report,
    estimate_overhead,
    format_breakdown,
    format_report_table,
    parse_scenario,
    run_scenario,
    switch_breakdown,
    PHASES,
)


def _bundled_names() -> list[str]:
    try:
        root = resources.files("capcomp") / "fixtures"
        return sorted(p.name for p in root.iterdir() if p.is_file())
    except (FileNotFoundError, ModuleNotFoundError):
        return []


def _read_input(path: str) -> str:
    """Read a file from disk, falling back to the bundled fixtures."""
    import os
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    candidate = resources.files("capcomp") / "fixtures" / path
    try:
        return candidate.read_text(encoding="utf-8")
    except (FileNotFoundError, IsADirectoryError):
        pass
    names = ", ".join(_bundled_names()) or "none"
    raise FileNotFoundError(f"no file {path!r} on disk or in bundled fixtures ({names})")


def _parse_cost(spec: str | None) -> CostModel:
    cm = CostModel()
    if not spec:
        return cm
    fields = {}
    for part in spec.split(","):
        key, _, val = part.partition("=")
        key = key.strip()
        if key == "hotfrac":
            key = "hot_fraction"
        if key not in ("hot", "cold", "hot_fraction", "promotion"):
            raise ValueError(f"unknown cost field {key!r}")
        try:
            fields[key] = float(val)
        except ValueError:
            raise ValueError(f"bad number for {key!r}: {val!r}") from None
    if not 0.0 <= fields.get("hot_fraction", cm.hot_fraction) <= 1.0:
        raise ValueError("hot_fraction must lie in [0, 1]")
    import dataclasses
    return dataclasses.replace(cm, **fields)


def cmd_layout(args) -> int:
    plan = compute_layout(parse_config(_read_input(args.config)), args.memory_size)
    if args.format == "records":
        print(format_region_records(plan))
    else:
        print(format_region_table(plan))
    if not args.no_audit:
        problems = audit_plan(plan)
        if problems:
            for p in problems:
                print(f"audit: {p}", file=sys.stderr)
            return 1
        print(f"\naudit clean; {len(plan.regions)} regions, "
              f"{plan.data_top} data bytes, {plan.total_code_slots} code slots")
    return 0


def cmd_boot_dump(args) -> int:
    plan = compute_layout(parse_config(_read_input(args.config)), args.memory_size)
    img = boot_init(plan)
    print(format_region_table(plan))
    print()
    print("capability table:")
    for name in plan.comp_ids:
        slot = img.table_slot(name)
        pcc = img.mem.load_cap(slot + OFF_PCC)
        ddc = img.mem.load_cap(slot + OFF_DDC)
        sp = int.from_bytes(img.mem.read_bytes(slot + OFF_SP, 8), "little")
        tr = int.from_bytes(img.mem.read_bytes(slot + OFF_TRAMP, 8), "little")
        kind = "sandbox" if name in plan.sandboxes else "compartment"
        print(f"  {name} ({kind}, id {plan.comp_ids[name]}) at {slot:#x}:")
        print(f"    pcc  [{pcc.base:#x}, {pcc.top:#x}) perms={pcc.perms!r} tag={pcc.tag}")
        print(f"    ddc  [{ddc.base:#x}, {ddc.top:#x}) perms={ddc.perms!r} tag={ddc.tag}")
        print(f"    resume sp {sp:#x}, trampoline entry {tr}")
    print()
    print("switcher pair:")
    first = img.mem.load_cap(plan.pair_addr)
    second = img.mem.load_cap(plan.pair_addr + 32)
    print(f"  branch target [{first.base}, {first.top}) addr={first.address} tag={first.tag}")
    print(f"  locator [{second.base:#x}, {second.top:#x}) tag={second.tag}")
    print()
    print("sealed entry capabilities:")
    for c in plan.config.compartments:
        cap = img.mem.load_cap(plan.sealed_cap_addr(c.name))
        print(f"  {c.name}: at {plan.sealed_cap_addr(c.name):#x} otype={cap.otype} "
              f"tag={cap.tag} sealed={cap.sealed}")
    tagged = sum(1 for t in img.mem.tags if t)
    print(f"\n{tagged} tagged granules after boot")
    return 0


def cmd_verify(args) -> int:
    plan = compute_layout(parse_config(_read_input(args.config)), args.memory_size)
    problems = audit_plan(plan)
    for p in problems:
        print(f"audit: {p}", file=sys.stderr)
    img = boot_init(plan)
    rep = fuzz_isolation(img, sequences=args.fuzz, seed=args.seed)
    print(f"fuzzed {rep.sequences} sequences ({rep.steps} retired instructions, "
          f"{rep.switches} domain switches)")
    for kind in sorted(rep.faults, key=rep.faults.get, reverse=True):
        print(f"  {kind}: {rep.faults[kind]}")
    if rep.violations:
        for v in rep.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1
    print("confinement holds: no access escaped its compartment view")
    return 1 if problems else 0


def cmd_run(args) -> int:
    sc = parse_scenario(_read_input(args.scenario))
    if args.cpi is not None:
        if not args.cpi > 0:
            raise ScenarioError("cpi must be positive")
        sc = type(sc)(sc.name, sc.fns, sc.calls, sc.iterations, args.cpi)
    cm = _parse_cost(args.cost)
    summary = run_scenario(sc)
    est = estimate_overhead(summary, cm)
    if args.format == "records":
        print(emit_report(summary, est, cm))
    else:
        print(format_report_table(summary, est, cm))
    return 0


def cmd_micro(args) -> int:
    bd = switch_breakdown(cold=args.cold)
    label = "cold" if args.cold else "hot"
    if args.format == "records":
        for p in PHASES:
            print(f"phase name={p} instructions={bd.phase_instructions[p]} "
                  f"cycles={bd.phase_cycles[p]:.3f}")
        print(f"total kind={label} cycles={bd.total:.3f}")
    else:
        print(format_breakdown(bd, label))
        print(f"\nlargest phase: {bd.largest_phase()}")
    return 0


def cmd_trace(args) -> int:
    plan = compute_layout(parse_config(_read_input(args.config)), args.memory_size)
    comps = [c.name for c in plan.config.compartments]
    caller = args.caller or comps[0]
    callee = args.callee or (comps[1] if len(comps) > 1 else None)
    if callee is None or caller == callee:
        raise ConfigError("trace needs two distinct compartments; "
                          "pass --caller/--callee")
    img = boot_init(plan)
    from .isa import addi
    entry = install_function(img, callee, [addi(0, 0, 1), retl()])
    gate = GateDescriptor(caller, callee, entry, dest=0)
    code = emit_gate_sequence(plan, gate, [int(a) for a in args.args])
    site = install_function(img, caller, list(code.instructions) + [halt()])
    st = img.machine
    st.pcc = set_address(st.pcc, site)
    lines: list[str] = []
    run(st, img.mem, img.program, max_steps=10_000, trace=lines)
    for line in lines:
        print(line)
    if st.fault is not None:
        print(f"faulted: {st.fault}", file=sys.stderr)
        return 1
    print(f"\nround trip complete: r0 = {st.regs[0].address}, "
          f"{st.switches} switches, "
          f"{st.instructions_retired} instructions")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="capcomp",
        description="compartmentalization simulator and switching-cost analyzer")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_mem(p):
        p.add_argument("--memory-size", type=lambda s: int(s, 0), default=1 << 20,
                       help="simulated data memory bytes (default 1 MiB)")

    p = sub.add_parser("layout", help="plan a configuration, print the region map")
    p.add_argument("config")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--no-audit", action="store_true")
    add_mem(p)
    p.set_defaults(fn=cmd_layout)

    p = sub.add_parser("boot-dump", help="boot and decode the protected structures")
    p.add_argument("config")
    add_mem(p)
    p.set_defaults(fn=cmd_boot_dump)

    p = sub.add_parser("verify", help="audit the layout and fuzz isolation")
    p.add_argument("config")
    p.add_argument("--fuzz", type=int, default=10_000, metavar="N",
                   help="random sequences to run (default 10000)")
    p.add_argument("--seed", type=int, default=0)
    add_mem(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("run", help="estimate switching overhead for a scenario")
    p.add_argument("scenario")
    p.add_argument("--cost", metavar="K=V,...",
                   help="override hot,cold,hotfrac,promotion")
    p.add_argument("--cpi", type=float, help="override the scenario baseline cpi")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("micro", help="single-switch latency breakdown")
    p.add_argument("--cold", action="store_true", help="use cold-cache weights")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("trace", help="trace one gate round trip")
    p.add_argument("config")
    p.add_argument("--caller")
    p.add_argument("--callee")
    p.add_argument("--args", nargs="*", default=["41"],
                   help="integer arguments for the call (default 41)")
    add_mem(p)
    p.set_defaults(fn=cmd_trace)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ScenarioError, GateError, LayoutError,
            FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
