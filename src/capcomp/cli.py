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
import dataclasses
import functools
import math
import pathlib
import sys
from importlib import resources

from .capability import ADDR_MASK, format_perms
from .layout import (
    MAX_MEMORY_SIZE,
    ConfigError,
    LayoutError,
    OFF_DDC,
    OFF_PCC,
    OFF_SP,
    OFF_TRAMP,
    PAIR_ADDR,
    audit_plan,
    boot_init,
    clip_token,
    compute_layout,
    format_region_records,
    format_region_table,
    install_function,
    parse_config,
    read_int,
)
from .isa import addi, retl
from .machine import format_trace
from .memory import CAP_SLOT, DEFAULT_SIZE
from .runtime import (
    GateDescriptor,
    GateError,
    call_compartment,
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
    """Read a file from disk, else from the bundled fixtures.  A path that
    names neither raises FileNotFoundError; one that cannot be read, ValueError."""
    for source in (pathlib.Path(path), resources.files("capcomp") / "fixtures" / path):
        try:
            return source.read_text(encoding="utf-8")
        except (FileNotFoundError, IsADirectoryError):
            pass
        except OSError as e:
            raise ValueError(f"cannot read {clip_token(path)!r}: {e.strerror or type(e).__name__}") from None
    names = ", ".join(_bundled_names()) or "none"
    raise FileNotFoundError(f"no file {clip_token(path)!r} on disk or in bundled fixtures ({names})")


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
            raise ValueError(f"unknown cost field {clip_token(key)!r}")
        if key in fields:
            raise ValueError(f"cost field {clip_token(key)!r} given twice")
        try:
            fields[key] = float(val)
        except ValueError:
            raise ValueError(f"bad number for {clip_token(key)!r}: {clip_token(val)!r}") from None
    return dataclasses.replace(cm, **fields)     # CostModel rejects bad values


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
        print(f"    pcc  [{pcc.base:#x}, {pcc.top:#x}) perms={format_perms(pcc.perms)} tag={pcc.tag}")
        print(f"    ddc  [{ddc.base:#x}, {ddc.top:#x}) perms={format_perms(ddc.perms)} tag={ddc.tag}")
        print(f"    resume sp {sp:#x}, trampoline entry {tr}")
    print()
    print("switcher pair:")
    first = img.mem.load_cap(PAIR_ADDR)
    second = img.mem.load_cap(PAIR_ADDR + CAP_SLOT)
    print(f"  branch target [{first.base}, {first.top}) addr={first.address} tag={first.tag}")
    print(f"  locator [{second.base:#x}, {second.top:#x}) tag={second.tag}")
    print()
    print("sealed entry capabilities:")
    for c in plan.config.compartments:
        cap = img.mem.load_cap(plan.sealed_cap_addr(c.name))
        print(f"  {c.name}: at {plan.sealed_cap_addr(c.name):#x} otype={cap.otype} "
              f"tag={cap.tag} sealed={cap.sealed}")
    tags = img.mem.tags
    tagged = len(tags) - tags.count(0)     # each tag is 0 or 1
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
    if args.cpi is not None and not 0 < args.cpi < math.inf:
        raise ScenarioError("cpi must be positive and finite")
    cm = _parse_cost(args.cost)
    summary = run_scenario(sc)
    if args.cpi is not None:
        # The override goes on the totals, so the parsed graph is walked once.
        summary = dataclasses.replace(summary, cpi=args.cpi)
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
    call_args = []
    for tok in args.args:
        a = read_int(tok, 10, ValueError, "trace argument: ")
        if a is None:
            raise ValueError(f"invalid literal for int() with base 10: {clip_token(tok)!r}")
        if not 0 <= a <= ADDR_MASK:
            raise ValueError(f"trace argument {clip_token(str(a))} outside [0, 2^64)")
        call_args.append(a)
    plan = compute_layout(parse_config(_read_input(args.config)), args.memory_size)
    comps = [c.name for c in plan.config.compartments]
    caller = args.caller or comps[0]
    callee = args.callee or (comps[1] if len(comps) > 1 else None)
    if callee is None or caller == callee:
        raise ConfigError("trace needs two distinct compartments; "
                          "pass --caller/--callee")
    img = boot_init(plan)
    img.enter(caller)
    entry = install_function(img, callee, [addi(0, 0, 1), retl()])
    st = img.machine
    st.events = []
    call_compartment(img, GateDescriptor(caller, callee, entry, dest=0),
                     call_args, max_steps=10_000)
    for line in format_trace(st.events, img.program):
        print(line)
    if st.fault is not None:
        print(f"faulted: {st.fault}", file=sys.stderr)
        return 1
    print(f"\nround trip complete: r0 = {st.regs[0].address}, "
          f"{st.switches} switches, "
          f"{st.instructions_retired} instructions")
    return 0


def _int_option(tok: str, base: int = 10) -> int:
    """An integer option's value, read by `read_int`; a bad one echoes
    `clip_token(tok)`."""
    value = read_int(tok, base, argparse.ArgumentTypeError)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {clip_token(tok)!r}")
    return value


def _float_option(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {clip_token(tok)!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="capcomp",
        description="compartmentalization simulator and switching-cost analyzer")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_mem(p):
        p.add_argument("--memory-size", type=functools.partial(_int_option, base=0),
                       default=DEFAULT_SIZE,
                       help=f"simulated data memory bytes (default {DEFAULT_SIZE >> 20} MiB, "
                            f"at most {MAX_MEMORY_SIZE >> 30} GiB)")

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
    p.add_argument("--fuzz", type=_int_option, default=10_000, metavar="N",
                   help="random sequences to run (default 10000)")
    p.add_argument("--seed", type=_int_option, default=0,
                   help="seed of the random sequences, at least 0 (default 0)")
    add_mem(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("run", help="estimate switching overhead for a scenario")
    p.add_argument("scenario")
    p.add_argument("--cost", metavar="K=V,...",
                   help="override hot,cold,hotfrac,promotion")
    p.add_argument("--cpi", type=_float_option, help="override the scenario baseline cpi")
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
                   help="integer arguments for the call, each in [0, 2^64) (default 41)")
    add_mem(p)
    p.set_defaults(fn=cmd_trace)

    return ap


# One parser per process: `main` may be called many times in one process,
# and parsing leaves nothing behind in the parser.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ScenarioError, GateError, LayoutError,
            FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
