"""Top-level acceptance battery.

Every test here exercises one numbered end-to-end property at full volume and
at its stated tolerance, independent of the unit suites.  Each prints a single
`criterion N: PASS` line on success (visible with `pytest -s`); a failing
assertion is the corresponding FAIL line.  Volumes and time budgets are part
of the properties and are asserted, not aspirational.
"""

import itertools
import random
import time

import pytest

from capcomp.capability import (
    NULL_CAP,
    PERM_ALL,
    Perm,
    make_root,
    restrict_perms,
    seal,
    serialize,
    set_address,
    set_bounds,
    unseal,
)
from capcomp.capability import FaultKind
from capcomp.capability import int_cap
from capcomp.isa import (
    REG_SHARED,
    REG_ZERO,
    addi,
    halt,
    ldi,
    mov,
    movi,
    retl,
    sti,
)
from capcomp.layout import (
    InfeasibleOverlap,
    audit_plan,
    boot_init,
    comp_alloc,
    compute_layout,
    install_function,
    parse_config,
)
from capcomp.machine import MachineState, run
from capcomp.memory import CAP_SLOT, GRANULE, TaggedMemory
from capcomp.runtime import (
    GateDescriptor,
    RegionArg,
    SandboxParam,
    SandboxSignature,
    emit_gate_sequence,
    fuzz_isolation,
    gate_call,
    sandbox_call,
    switcher_switch,
    trampoline_enter,
)
from capcomp.workload import (
    CostModel,
    ScenarioSummary,
    estimate_overhead,
    parse_scenario,
    run_scenario,
    switch_breakdown,
)


def fixture(name):
    import importlib.resources as ir
    return ir.files("capcomp").joinpath("fixtures", name).read_text()


# ---------------------------------------------------------------------------
# 1. Randomized derivation chains never widen authority


def test_01_derivation_chains_are_monotone():
    rng = random.Random(0)
    t0 = time.monotonic()
    violations = 0
    for _ in range(10_000):
        base = rng.randrange(0, 1 << 48)
        cap = make_root(base, base + rng.randrange(1, 1 << 16), PERM_ALL)
        for _ in range(8):
            parent = cap
            choice = rng.randrange(5)
            if choice == 0:
                # mix honest narrowings with deliberate widening attempts
                nb = rng.randrange(max(parent.base - 64, 0), parent.top + 64)
                d = set_bounds(parent, nb, nb + rng.randrange(0, 1 << 12))
            elif choice == 1:
                d = restrict_perms(parent, Perm(rng.randrange(64)))
            elif choice == 2:
                d = set_address(parent, rng.randrange(0, 1 << 49))
            elif choice == 3:
                d = seal(parent, rng.randrange(1, 16)) if not parent.sealed else parent
            else:
                d = unseal(parent) if parent.sealed else parent
            if d.tag and not (parent.base <= d.base and d.top <= parent.top
                              and not (d.perms & ~parent.perms)):
                violations += 1
            if d.tag:
                cap = d
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 5.0, f"derivation volume run took {elapsed:.2f}s"
    print(f"criterion 1: PASS  10000 chains x 8 derivations, "
          f"0 widenings survived, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Raw byte traffic can never yield a valid capability


def test_02_byte_writes_always_untag():
    mem = TaggedMemory(4096)
    violations = 0
    for slot in range(0, 4096, CAP_SLOT):
        for b in range(CAP_SLOT):
            mem.store_cap(slot, make_root(0, 4096, PERM_ALL))
            assert mem.tags[(slot + b) // GRANULE]     # precondition: granule tagged
            mem.write_bytes(slot + b, bytes([(slot + b) & 0xFF]))
            if mem.tags[(slot + b) // GRANULE]:
                violations += 1
            if mem.load_cap(slot).tag:
                violations += 1
    # hand-written record bytes, bit-identical to a real one, stay dead
    record = serialize(make_root(0, 4096, PERM_ALL))
    for slot in (0, 512, 4032):
        mem.write_bytes(slot, record)
        if mem.load_cap(slot).tag:
            violations += 1
    assert violations == 0
    print("criterion 2: PASS  4096 exhaustive single-byte overwrites, "
          "0 tags survived, raw records stay untagged")


# ---------------------------------------------------------------------------
# 3. Isolation under random instruction fuzz


def test_03_fuzz_never_escapes_compartment_view():
    img = boot_init(compute_layout(parse_config(fixture("two_comp.cfg")),
                                   memory_size=1 << 16))
    t0 = time.monotonic()
    rep = fuzz_isolation(img, sequences=100_000, seed=0)
    elapsed = time.monotonic() - t0
    # with no shared regions each view is exactly the compartment's private
    # span, so a clean run means the switcher area, the capability table and
    # the other span were never reached without a fault
    assert rep.sequences == 100_000
    assert rep.violations == []
    assert sum(rep.faults.values()) > 0
    assert elapsed < 60.0, f"fuzz took {elapsed:.2f}s"
    print(f"criterion 3: PASS  {rep.sequences} sequences, {rep.steps} retired, "
          f"{rep.switches} switches, 0 escapes, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Randomized gate round trips restore state bit-exactly


CFG4 = """
compartment c0 code=512 data=256 stack=4096 heap=256
compartment c1 code=512 data=256 stack=4096 heap=256
compartment c2 code=512 data=256 stack=4096 heap=256
compartment c3 code=512 data=256 stack=4096 heap=256
"""


def _equal_outside(a, b, excluded):
    pos = 0
    for lo, hi in sorted(excluded):
        if a[pos:lo] != b[pos:lo]:
            return False
        pos = hi
    return a[pos:] == b[pos:]


def test_04_round_trip_state_diff_is_empty():
    plan = compute_layout(parse_config(CFG4), memory_size=1 << 16)
    comps = ["c0", "c1", "c2", "c3"]
    excluded = [(plan.region(f"{c}.data").base, plan.region(f"{c}.heap").top)
                for c in comps[1:]]                          # callee-private spans
    excluded_g = [(lo // 16, (hi + 15) // 16) for lo, hi in excluded]
    rng = random.Random(4)
    t0 = time.monotonic()

    for trial in range(1000):
        depth = rng.randrange(1, 4)
        chain = ["c0"]
        for _ in range(depth):
            chain.append(rng.choice([c for c in comps if c != chain[-1]]))

        img = boot_init(plan)
        st = img.machine
        k_add = rng.randrange(1, 10)
        leaf = chain[-1]
        entry = install_function(img, leaf, [
            movi(1, plan.region(f"{leaf}.heap").base),
            addi(0, 0, k_add),
            sti(0, 1, 0),            # callee-private write that may persist
            retl(),
        ])
        inner_arg = None
        for mid, nxt in zip(reversed(chain[1:-1]), reversed(chain[2:])):
            arg = rng.randrange(0, 100)
            inner_arg = arg if inner_arg is None else inner_arg
            code = emit_gate_sequence(plan, GateDescriptor(mid, nxt, entry, dest=0),
                                      [arg])
            entry = install_function(img, mid, list(code.instructions) + [retl()])
        args = [rng.randrange(0, 100) for _ in range(rng.randrange(1, 4))]
        dest = rng.choice([None, 0, 5, 8, 27])
        code = emit_gate_sequence(plan, GateDescriptor("c0", chain[1], entry,
                                                       dest=dest), args)
        site = install_function(img, "c0", list(code.instructions) + [halt()])

        # priming run settles the root's resume slot at its fixed point
        st.pcc = set_address(st.pcc, site)      # boot left the machine in c0
        run(st, img.mem, img.program, max_steps=50_000)
        assert st.halted and st.fault is None, (trial, st.fault)

        st.pcc = set_address(st.pcc, site)
        st.halted = False
        pre_regs = list(st.regs)
        pre_ddc = st.ddc
        pre_mem = bytes(img.mem.data)
        pre_tags = bytes(img.mem.tags)
        sw0 = st.switches

        run(st, img.mem, img.program, max_steps=50_000)
        assert st.halted and st.fault is None, (trial, st.fault)
        assert st.switches - sw0 == 2 * depth

        if dest is not None:
            want = (args[0] if depth == 1 else inner_arg) + k_add
            assert st.regs[dest].address == want, (trial, chain, dest)
        for r in range(32):
            if dest is not None and r == dest:
                continue
            assert st.regs[r] == pre_regs[r], (trial, r)
        assert st.ddc == pre_ddc, trial
        assert _equal_outside(bytes(img.mem.data), pre_mem, excluded), \
            (trial, chain, dest)
        assert _equal_outside(bytes(img.mem.tags), pre_tags, excluded_g), trial
    elapsed = time.monotonic() - t0
    print(f"criterion 4: PASS  1000 randomized trees (depth <= 3), "
          f"post-return diff empty outside allowed set, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. Sharing semantics: overlap windows and sandbox argument capabilities


def test_05_overlap_window_boundaries_exact():
    plan = compute_layout(parse_config(fixture("three_comp_shared.cfg")))
    img = boot_init(plan)
    comps = ["app", "codec", "store"]

    # independent recomputation of each view: private span widened by the
    # overlap windows the compartment owns
    windows = [s for s in plan.config.shared if s.mode == "overlap"]
    views = {}
    for c in comps:
        lo, hi = plan.region(f"{c}.data").base, plan.region(f"{c}.heap").top
        for s in windows:
            if c in (s.a, s.b):
                w = plan.region(s.name)
                lo, hi = min(lo, w.base), max(hi, w.top)
        views[c] = (lo, hi)

    ld_site, st_site = {}, {}
    for c in comps:
        ld_site[c] = install_function(img, c, [ldi(3, 2, 0), halt()])
        st_site[c] = install_function(img, c, [sti(1, 2, 0), halt()])

    def probe(comp, addr, write):
        st = img.machine
        img.enter(comp)
        st.pcc = set_address(st.pcc, st_site[comp] if write else ld_site[comp])
        st.regs[1] = int_cap(0x5A5A5A5A)
        st.regs[2] = int_cap(addr)
        st.regs[REG_SHARED] = NULL_CAP     # only the ddc decides
        st.fault = None
        st.halted = False
        run(st, img.mem, img.program, max_steps=8)
        return st.fault

    checked = 0
    assert len(windows) == 2
    for s in windows:
        w, owners = s.name, (s.a, s.b)
        lo, hi = plan.region(w).base, plan.region(w).top
        third = next(c for c in comps if c not in owners)
        # accesses are 8 bytes wide, so each boundary gets one probe fully
        # inside and one crossing it by exactly one byte
        for addr in (lo - 1, lo, hi - 8, hi - 7):
            for comp in comps:
                for write in (False, True):
                    vlo, vhi = views[comp]
                    want_ok = vlo <= addr and addr + 8 <= vhi
                    fault = probe(comp, addr, write)
                    checked += 1
                    if want_ok:
                        assert fault is None, (w, comp, addr, write)
                        if write:
                            got = int.from_bytes(img.mem.read_bytes(addr, 8),
                                                 "little")
                            assert got == 0x5A5A5A5A
                    else:
                        assert fault is not None, (w, comp, addr, write)
                        assert fault.kind is FaultKind.BOUNDS and fault.ddc_access
        # the headline facts, independent of the view computation
        for comp in owners:
            assert probe(comp, lo, False) is None
            assert probe(comp, hi - 8, True) is None
        for addr in (lo - 1, lo, hi - 8, hi - 7):
            assert probe(third, addr, False) is not None
            assert probe(third, addr, True) is not None
    print(f"criterion 5a: PASS  2 windows x 4 boundary probes x 3 compartments "
          f"x load/store ({checked} probes), both owners in, third out")


def test_05_sandbox_argument_capability_exact():
    def fresh():
        return boot_init(compute_layout(parse_config(fixture("sandbox_host.cfg"))))

    # the region capability that arrives in r0 is exactly [p, p+len)
    img = fresh()
    buf = comp_alloc(img, "host", 64)
    entry = install_function(img, "parse_header", [retl()])
    gate = GateDescriptor("host", "parse_header", entry, dest=0)
    gate_call(img, gate, [RegionArg(buf, 64, Perm.LOAD)])
    switcher_switch(img)
    trampoline_enter(img)
    arg = img.machine.regs[0]
    assert arg.tag and not arg.sealed
    assert (arg.base, arg.top) == (buf, buf + 64)
    assert arg.perms == Perm.LOAD

    # boundary probes through the capability operand, one byte each side
    for off, ok in ((-1, False), (0, True), (56, True), (57, False)):
        img = fresh()
        buf = comp_alloc(img, "host", 64)
        img.mem.write_bytes(buf, (1234).to_bytes(8, "little"))
        img.mem.write_bytes(buf + 56, (5678).to_bytes(8, "little"))
        entry = install_function(img, "parse_header",
                                 [ldi(8, 0, off, cap=True), mov(0, 8), retl()])
        sig = SandboxSignature("parse_header", entry,
                               (SandboxParam("region", 64, Perm.LOAD),), dest=0)
        st = sandbox_call(img, sig, [buf])
        if ok:
            assert st.fault is None
            assert st.regs[0].address == (1234 if off == 0 else 5678)
        else:
            assert st.fault is not None
            assert st.fault.kind is FaultKind.BOUNDS and not st.fault.ddc_access

    # a read-only region rejects stores outright
    img = fresh()
    buf = comp_alloc(img, "host", 64)
    entry = install_function(img, "parse_header",
                             [sti(1, 0, 0, cap=True), retl()])
    sig = SandboxSignature("parse_header", entry,
                           (SandboxParam("region", 64, Perm.LOAD),))
    st = sandbox_call(img, sig, [buf])
    assert st.fault is not None and st.fault.kind is FaultKind.PERMISSION

    # the host's view covers the sandbox scratch: host reads sandbox memory
    img = fresh()
    scratch = img.plan.region("parse_header.scratch")
    img.mem.write_bytes(scratch.base, b"\x2a")
    site = install_function(img, "host",
                            [movi(1, scratch.base), ldi(2, 1, 0), halt()])
    st = img.machine
    st.pcc = set_address(st.pcc, site)
    run(st, img.mem, img.program)
    assert st.fault is None and st.regs[2].address == 0x2A
    print("criterion 5b: PASS  region capability exactly [p, p+len), "
          "+/-1 byte probes fault, host reads sandbox scratch")


# ---------------------------------------------------------------------------
# 6. Exception-sharing swap counter vs hand-traced fixtures


def _sharing_machine():
    st = MachineState()
    st.pcc = make_root(0, 1 << 20, Perm.EXECUTE)
    st.ddc = make_root(0, 1024, PERM_ALL)
    st.switcher_bounds = (1 << 18, 1 << 18)    # nothing privileged here
    st.regs[REG_SHARED] = make_root(4096, 4352, PERM_ALL)
    return st, TaggedMemory(8192)


def test_06_swap_counter_matches_hand_traces():
    # fixture A: shared store (swap in), private store (swap back),
    # shared load (swap in again) -> 3
    st, mem = _sharing_machine()
    run(st, mem, [movi(1, 4096), movi(2, 11), sti(2, 1), movi(3, 512),
                  sti(2, 3), ldi(4, 1), halt()])
    assert st.fault is None and st.halted
    assert st.ddc_swap_events == 3
    assert st.regs[4].address == 11

    # fixture B: five consecutive shared stores cost one swap, the final
    # private load swaps back -> 2
    st, mem = _sharing_machine()
    prog = [movi(1, 4096), movi(2, 7)]
    prog += [sti(2, 1, 8 * i) for i in range(5)]
    prog += [ldi(3, REG_ZERO, 64), halt()]
    run(st, mem, prog)
    assert st.fault is None and st.ddc_swap_events == 2
    assert all(mem.read_bytes(4096 + 8 * i, 1) == b"\x07" for i in range(5))

    # fixture C: private traffic only -> 0, and a true out-of-view store
    # stays a fault instead of being rescued
    st, mem = _sharing_machine()
    run(st, mem, [movi(1, 128), movi(2, 3), sti(2, 1), ldi(3, 1), halt()])
    assert st.fault is None and st.ddc_swap_events == 0
    st, mem = _sharing_machine()
    run(st, mem, [movi(1, 6000), sti(1, 1), halt()])
    assert st.fault is not None and st.fault.kind is FaultKind.BOUNDS
    assert st.ddc_swap_events == 0
    print("criterion 6: PASS  swap counter 3/2/0 on the hand-traced fixtures, "
          "true violations never rescued")


# ---------------------------------------------------------------------------
# 7. Modeled overheads order and land near the hardware reference points


def test_07_scenario_overheads_match_reference_ordering():
    pct = {}
    for name in ("libsodium_hex.scn", "libsodium_chacha_only.scn",
                 "libsodium_all.scn"):
        summary = run_scenario(parse_scenario(fixture(name)))
        pct[name] = estimate_overhead(summary).percent
    chacha = pct["libsodium_chacha_only.scn"]
    hexpct = pct["libsodium_hex.scn"]
    allpct = pct["libsodium_all.scn"]
    assert chacha > allpct > hexpct
    # hardware reference points the fixtures are calibrated against
    assert abs(chacha - 12.207) / 12.207 <= 0.40
    assert abs(hexpct - 0.144) / 0.144 <= 0.40
    print(f"criterion 7: PASS  ordering {chacha:.3f}% > {allpct:.3f}% > "
          f"{hexpct:.3f}%, endpoints within 40% of 12.207 / 0.144")


# ---------------------------------------------------------------------------
# 8. Cost model reproduces overhead = frequency x latency / cpi


def test_08_cost_model_consistency():
    t0 = time.monotonic()
    cm = CostModel(hot=400.0, cold=950.0, hot_fraction=1.0)

    def synthetic(per_1k, cpi):
        return ScenarioSummary("synthetic", 1, cpi, 1_000_000,
                               int(per_1k * 1000), 0, ())

    dense = estimate_overhead(synthetic(2.49, 0.83), cm)
    assert dense.switches_per_1k == pytest.approx(2.49)
    assert abs(dense.percent - 119.9) <= 5.0
    sparse = estimate_overhead(synthetic(0.669, 2.2), cm)
    assert abs(sparse.percent - 12.2) <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 8: PASS  2.49/1k @ cpi 0.83 -> {dense.percent:.1f}% "
          f"(119.9 +/- 5), 0.669/1k @ cpi 2.2 -> {sparse.percent:.2f}% "
          f"(12.2 +/- 1), {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 9. Single-switch latency bands and partition


def test_09_switch_latency_bands():
    hot = switch_breakdown(cold=False)
    cold = switch_breakdown(cold=True)
    assert 300.0 <= hot.total <= 400.0
    assert 900.0 <= cold.total <= 1000.0
    for bd in (hot, cold):
        parts = sum(v for p, v in bd.phase_cycles.items() if p != "callee_body")
        assert bd.total == pytest.approx(parts)
        assert bd.instructions == sum(bd.phase_instructions.values())
    print(f"criterion 9: PASS  hot {hot.total:.1f} in [300, 400], "
          f"cold {cold.total:.1f} in [900, 1000], phases partition the totals")


# ---------------------------------------------------------------------------
# 10. Placement feasibility equals the brute-force adjacency oracle


def _config_text(n, edges):
    lines = [f"compartment k{i} code=64 data=64 stack=64 heap=0"
             for i in range(n)]
    for j, (a, b) in enumerate(edges):
        lines.append(f"shared w{j} size=32 between k{a},k{b} mode=overlap")
    return "\n".join(lines)


def _orderable(n, edges):
    if not edges:
        return True
    for perm in itertools.permutations(range(n)):
        pos = {c: i for i, c in enumerate(perm)}
        if all(abs(pos[a] - pos[b]) == 1 for a, b in edges):
            return True
    return False


def test_10_layout_feasibility_matches_oracle():
    total = feasible = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(0, 4):
            for edges in itertools.combinations(pairs, k):
                total += 1
                try:
                    plan = compute_layout(parse_config(_config_text(n, edges)),
                                          memory_size=1 << 16)
                    got = True
                except InfeasibleOverlap:
                    got = False
                assert got == _orderable(n, edges), (n, edges)
                if got:
                    feasible += 1
                    assert audit_plan(plan) == [], (n, edges)
    assert total == 229
    print(f"criterion 10: PASS  {total} enumerated configurations "
          f"(<= 5 compartments, <= 3 windows), {feasible} feasible, "
          f"feasibility == oracle, all plans audit clean")
