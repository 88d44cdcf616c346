"""Configuration parsing, deterministic placement, the overlap-adjacency
ordering, boot-image construction, and the structural audit."""

import itertools

import pytest

from capcomp.capability import Perm
from capcomp.layout import (
    AllocError,
    ConfigError,
    InfeasibleOverlap,
    LayoutError,
    OFF_DDC,
    OFF_PCC,
    OFF_SP,
    OFF_TRAMP,
    SANDBOX_CODE,
    SANDBOX_SCRATCH,
    SWITCHER_CODE_SLOTS,
    TABLE_ENTRY,
    TRAMP_SLOTS,
    audit_plan,
    boot_init,
    comp_alloc,
    compute_layout,
    format_region_records,
    format_region_table,
    install_function,
    parse_config,
    shared_alloc,
)
from capcomp.isa import halt, nop


def fixture(name):
    import importlib.resources as ir
    return ir.files("capcomp").joinpath("fixtures", name).read_text()


def mini_cfg(n_comps, edges=(), mode="overlap"):
    lines = [f"compartment c{i} code=128 data=64 stack=64 heap=64" for i in range(n_comps)]
    for k, (a, b) in enumerate(edges):
        lines.append(f"shared s{k} size=32 between c{a},c{b} mode={mode}")
    return parse_config("\n".join(lines))


# --------------------------------------------------------------------------
# Parsing

def test_parse_two_comp_fixture():
    cfg = parse_config(fixture("two_comp.cfg"))
    assert [c.name for c in cfg.compartments] == ["app", "lib"]
    assert cfg.compartment("app").stack == 8192
    assert cfg.shared == () and cfg.sandboxes == ()


def test_parse_comments_and_blanks():
    cfg = parse_config("# top\n\ncompartment a code=64 data=32 stack=32 heap=0  # tail\n")
    assert cfg.compartments[0].heap == 0


@pytest.mark.parametrize("text,line", [
    ("compartment a code=64 data=32 stack=32", 1),
    ("\ncompartment 9bad code=64 data=32 stack=32 heap=0", 2),
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "compartment a code=64 data=32 stack=32 heap=0", 2),
    ("compartment a code=63 data=32 stack=32 heap=0", 1),      # not granule aligned
    ("compartment a code=64 data=32 stack=32 heap=-16", 1),
    ("compartment a code=64 data=32 stack=32 heap=zz", 1),
    ("compartment a code=64 stack=32 data=32 heap=0", 1),      # keys out of order
    ("flooble a b c", 1),
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "shared s size=32 among a,b mode=overlap", 2),
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "shared s size=32 between a,a mode=overlap", 2),
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "shared s size=32 between a,b mode=telepathy", 2),
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "sandbox f", 2),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ConfigError, match=f"line {line}"):
        parse_config(text)


def test_parse_rejects_unknown_references():
    with pytest.raises(ConfigError, match="unknown compartment"):
        parse_config("compartment a code=64 data=32 stack=32 heap=0\n"
                     "shared s size=32 between a,ghost mode=overlap")
    with pytest.raises(ConfigError, match="unknown host"):
        parse_config("compartment a code=64 data=32 stack=32 heap=0\n"
                     "sandbox f host=ghost")
    with pytest.raises(ConfigError, match="no compartments"):
        parse_config("# nothing here\n")


def test_parse_hex_sizes():
    cfg = parse_config("compartment a code=0x40 data=0x20 stack=0x20 heap=0x0")
    assert cfg.compartments[0].code == 64


# --------------------------------------------------------------------------
# Adjacency ordering, checked against a brute-force oracle

def oracle_feasible(n, edges):
    """An overlap set is placeable iff some ordering of the compartments puts
    every sharing pair next to each other."""
    need = {frozenset(e) for e in edges}
    for perm in itertools.permutations(range(n)):
        adjacent = {frozenset((perm[i], perm[i + 1])) for i in range(n - 1)}
        if need <= adjacent:
            return True
    return False


def planner_feasible(n, edges):
    try:
        compute_layout(mini_cfg(n, edges))
        return True
    except InfeasibleOverlap:
        return False


@pytest.mark.parametrize("n,edges,feasible", [
    (2, [(0, 1)], True),
    (3, [(0, 1), (1, 2)], True),                  # path
    (4, [(0, 1), (1, 2), (2, 3)], True),
    (4, [(0, 1), (2, 3)], True),                  # disjoint edges
    (4, [(0, 1), (0, 2), (0, 3)], False),         # degree-3 star
    (3, [(0, 1), (1, 2), (0, 2)], False),         # triangle
    (4, [(0, 1), (1, 2), (2, 3), (3, 0)], False), # 4-cycle
    (5, [(0, 2), (2, 4), (1, 3)], True),          # two independent paths
])
def test_adjacency_matches_oracle(n, edges, feasible):
    assert oracle_feasible(n, edges) == feasible
    assert planner_feasible(n, edges) == feasible


def test_adjacency_order_is_deterministic_and_valid():
    cfg = mini_cfg(5, [(3, 1), (1, 4)])
    orders = {tuple(compute_layout(cfg).placement_order) for _ in range(5)}
    assert len(orders) == 1
    order = next(iter(orders))
    # both sharing pairs really are adjacent in the chosen order
    pos = {name: i for i, name in enumerate(order)}
    assert abs(pos["c3"] - pos["c1"]) == 1
    assert abs(pos["c1"] - pos["c4"]) == 1


def test_parallel_shared_regions_between_one_pair():
    cfg = mini_cfg(2, [(0, 1), (0, 1)])
    plan = compute_layout(cfg)
    assert audit_plan(plan) == []
    (b0, t0), (b1, t1) = plan.shared_bounds["s0"], plan.shared_bounds["s1"]
    assert t0 == b1                     # stacked between the two spans
    assert plan.ddc_bounds["c0"][1] == t1
    assert plan.ddc_bounds["c1"][0] == b0


def test_exception_mode_never_constrains_order():
    # a triangle of exception regions is fine: they sit outside all spans
    plan = compute_layout(mini_cfg(3, [(0, 1), (1, 2), (0, 2)], mode="exception"))
    assert audit_plan(plan) == []
    for name in ("c0", "c1", "c2"):
        assert plan.ddc_bounds[name] == plan.span_bounds[name]


# --------------------------------------------------------------------------
# Frozen placement numbers for the bundled two-compartment fixture

def test_two_comp_frozen_placement():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    byname = {r.name: (r.base, r.top) for r in plan.regions}
    assert byname["switcher_code"] == (0, 64)
    assert byname["app.code"] == (64, 576)
    assert byname["lib.code"] == (576, 1088)
    assert byname["switcher_data"] == (0, 64)
    assert byname["cap_table"] == (64, 64 + 2 * TABLE_ENTRY)
    assert byname["app.data"] == (0x140, 0x340)
    assert byname["app.stack"] == (0x340, 0x2340)
    assert byname["app.heap"] == (0x2340, 0x3340)
    assert byname["lib.data"] == (0x3340, 0x3540)
    assert byname["lib.stack"] == (0x3540, 0x5540)
    assert byname["lib.heap"] == (0x5540, 0x6540)
    assert len(plan.regions) == 11
    assert plan.total_code_slots == 1088
    assert plan.data_top == 0x6540
    assert plan.ddc_bounds == {"app": (0x140, 0x3340), "lib": (0x3340, 0x6540)}
    assert audit_plan(plan) == []


def test_three_comp_chained_windows():
    plan = compute_layout(parse_config(fixture("three_comp_shared.cfg")))
    assert plan.placement_order == ["app", "codec", "store"]
    # each owner's ddc is widened exactly over its adjacent window
    assert plan.shared_bounds["inbuf"] == (0x33C0, 0x37C0)
    assert plan.shared_bounds["outbuf"] == (0x61C0, 0x65C0)
    assert plan.ddc_bounds["app"] == (0x1C0, 0x37C0)
    assert plan.ddc_bounds["codec"] == (0x33C0, 0x65C0)
    assert plan.ddc_bounds["store"] == (0x61C0, 0x8FC0)
    # the exception-mode mailbox is beyond every span and every ddc
    mb_lo, mb_hi = plan.shared_bounds["mailbox"]
    assert mb_lo == 0x8FC0
    for name in plan.placement_order:
        assert plan.ddc_bounds[name][1] <= mb_lo
    assert audit_plan(plan) == []


def test_sandbox_carving():
    plan = compute_layout(parse_config(fixture("sandbox_host.cfg")))
    assert set(plan.sandboxes) == {"parse_header", "decode_frame"}
    ph = plan.sandboxes["parse_header"]
    assert (ph.code_base, ph.code_top) == (448, 448 + SANDBOX_CODE)
    assert (ph.scratch_base, ph.scratch_top) == (17472, 17472 + SANDBOX_SCRATCH)
    # scratch is carved out of the host heap, inside the host span
    hlo, hhi = plan.span_bounds["host"]
    assert hlo <= ph.scratch_base and ph.scratch_top <= hhi
    assert plan.heap_bounds["host"][1] <= ph.scratch_base
    assert plan.comp_ids == {"host": 0, "peer": 1, "parse_header": 2, "decode_frame": 3}
    assert audit_plan(plan) == []


def test_sandbox_host_heap_too_small():
    with pytest.raises(LayoutError, match="heap too small"):
        compute_layout(parse_config(
            "compartment h code=256 data=64 stack=64 heap=4096\n"
            "sandbox f host=h"))


def test_sandbox_host_code_too_small():
    with pytest.raises(LayoutError, match="code region too small"):
        compute_layout(parse_config(
            "compartment h code=64 data=64 stack=64 heap=8192\n"
            "sandbox f host=h"))


def test_memory_budget_respected():
    cfg = parse_config("compartment a code=64 data=32 stack=32 heap=1048576")
    with pytest.raises(LayoutError, match="memory holds"):
        compute_layout(cfg, memory_size=4096)


def test_format_region_table_and_records():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    table = format_region_table(plan)
    lines = table.splitlines()
    assert lines[0].split() == ["region", "kind", "base", "top", "owners"]
    assert len(lines) == 2 + len(plan.regions)
    records = format_region_records(plan)
    assert all(l.startswith("region name=") for l in records.splitlines())
    assert "name=app.stack kind=stack base=832 top=9024 owners=app" in records


# --------------------------------------------------------------------------
# Boot image

def test_boot_table_entries_decoded():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    img = boot_init(plan)
    for name in ("app", "lib"):
        slot = img.table_slot(name)
        pcc = img.mem.load_cap(slot + OFF_PCC)
        ddc = img.mem.load_cap(slot + OFF_DDC)
        sp = int.from_bytes(img.mem.read_bytes(slot + OFF_SP, 8), "little")
        tramp = int.from_bytes(img.mem.read_bytes(slot + OFF_TRAMP, 8), "little")
        assert pcc.tag and (pcc.base, pcc.top) == plan.code_bounds[name]
        assert pcc.perms & Perm.EXECUTE
        assert ddc.tag and (ddc.base, ddc.top) == plan.ddc_bounds[name]
        assert not ddc.perms & Perm.EXECUTE
        assert sp == plan.stack_top[name]
        assert tramp == plan.code_bounds[name][0]


def test_code_capability_cannot_read_data():
    """Code slots and data bytes are numbered from 0 in separate spaces, so a
    code capability that could load would read whatever data sits at the
    addresses of its slots.  Three instructions in codec reach app's data at
    those addresses through the link register: the load must fault."""
    from capcomp.capability import FaultKind, set_address
    from capcomp.isa import REG_LINK, calll, ldi, movi
    from capcomp.machine import run

    plan = compute_layout(parse_config(fixture("three_comp_shared.cfg")),
                          memory_size=1 << 20)
    img = boot_init(plan)
    code_lo, code_hi = plan.code_bounds["codec"]
    app_lo, app_hi = plan.ddc_bounds["app"]
    target = max(code_lo, app_lo)
    assert target + 8 <= min(code_hi, app_hi)      # app data under codec's slots
    img.mem.write_bytes(target, (0x5EC2E7).to_bytes(8, "little"))
    site = img.user_entry("codec")
    install_function(img, "codec", [
        movi(1, site + 2),
        calll(1),                                   # link register: codec's pcc
        ldi(5, REG_LINK, target - (site + 2), cap=True),
        halt(),
    ], at=site)
    st = img.machine
    st.pcc = set_address(img.pcc_caps["codec"], site)
    st.ddc = img.ddc_caps["codec"]
    st.current_compartment = plan.comp_ids["codec"]
    run(st, img.mem, img.program, max_steps=10)
    assert st.fault is not None and st.fault.kind is FaultKind.PERMISSION
    assert st.fault.pc == site + 2 and st.fault.addr == target
    assert st.regs[5].address != 0x5EC2E7


def test_boot_switcher_pair_and_sealed_entries():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    img = boot_init(plan)
    sw_pcc = img.mem.load_cap(plan.pair_addr)
    locator = img.mem.load_cap(plan.pair_addr + 32)
    assert sw_pcc.tag and (sw_pcc.base, sw_pcc.top) == (0, SWITCHER_CODE_SLOTS)
    # the locator covers switcher data plus the whole table, nothing more
    assert locator.tag and locator.base == 0
    assert locator.top == plan.table_base + len(plan.comp_ids) * TABLE_ENTRY
    for name in ("app", "lib"):
        sealed = img.mem.load_cap(plan.sealed_cap_addr(name))
        assert sealed.tag and sealed.sealed
        assert sealed.otype == 2 + plan.comp_ids[name]
        assert (sealed.base, sealed.top) == (plan.pair_addr, plan.pair_addr + 64)


def test_boot_machine_initial_state():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    img = boot_init(plan)
    st = img.machine
    assert st.current_compartment == 0
    assert st.pcc.address == plan.code_bounds["app"][0] + TRAMP_SLOTS
    assert (st.ddc.base, st.ddc.top) == plan.ddc_bounds["app"]
    assert st.switcher_bounds == (0, SWITCHER_CODE_SLOTS)
    assert st.regs[31].address == plan.stack_top["app"]
    assert st.lpb_otypes == frozenset({1, 2, 3})
    assert len(img.program) == plan.total_code_slots
    assert all(ins is not None for ins in img.program)


def test_boot_exception_region_arms_r18():
    plan = compute_layout(parse_config(fixture("three_comp_shared.cfg")))
    img = boot_init(plan)
    st = img.machine
    assert st.exception_sharing
    lo, hi = plan.shared_bounds["mailbox"]
    assert (st.regs[18].base, st.regs[18].top) == (lo, hi)


def test_boot_tagged_granules_are_only_the_planted_ones():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    img = boot_init(plan)
    tagged = [i * 16 for i, t in enumerate(img.mem.tags) if t]
    # pair (2 caps), 2 table entries (2 caps each), 2 sealed entries;
    # every capability slot tags both of its granules
    assert len(tagged) == 2 * (2 + 2 * 2 + 2)


# --------------------------------------------------------------------------
# Allocators and code installation

def img_two():
    return boot_init(compute_layout(parse_config(fixture("two_comp.cfg"))))


def test_comp_alloc_bump_and_exhaustion():
    img = img_two()
    lo, hi = img.plan.heap_bounds["app"]
    a = comp_alloc(img, "app", 1)
    b = comp_alloc(img, "app", 33)
    assert a == lo and b == lo + 32 and img.heap_ptrs["app"] == lo + 96
    with pytest.raises(AllocError, match="exhausted"):
        comp_alloc(img, "app", hi - lo)
    with pytest.raises(AllocError, match="unknown"):
        comp_alloc(img, "ghost", 16)


def test_shared_alloc():
    img = boot_init(compute_layout(parse_config(fixture("three_comp_shared.cfg"))))
    lo, hi = img.plan.shared_bounds["inbuf"]
    assert shared_alloc(img, "inbuf", 16) == lo
    with pytest.raises(AllocError):
        shared_alloc(img, "inbuf", hi - lo)
    with pytest.raises(AllocError):
        shared_alloc(img, "nope", 16)


def test_install_function_bump_and_fixed():
    img = img_two()
    base, top = img.plan.code_bounds["app"]
    e1 = install_function(img, "app", [nop(), halt()])
    assert e1 == base + TRAMP_SLOTS
    e2 = install_function(img, "app", [halt()])
    assert e2 == e1 + 2
    ptr_before = img.user_code_ptrs["app"]
    fixed = install_function(img, "app", [nop(), nop(), halt()], at=top - 3)
    assert fixed == top - 3 and img.user_code_ptrs["app"] == ptr_before
    with pytest.raises(LayoutError, match="outside"):
        install_function(img, "app", [halt()], at=base)          # tramp slots
    with pytest.raises(LayoutError, match="outside"):
        install_function(img, "app", [nop(), halt()], at=top - 1)
    with pytest.raises(LayoutError, match="exhausted"):
        install_function(img, "app", [nop()] * (top - base))
    with pytest.raises(LayoutError, match="unknown"):
        install_function(img, "ghost", [halt()])


def test_audit_detects_planted_corruption():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    plan.ddc_bounds["app"] = (0, plan.ddc_bounds["app"][1])      # sees the table
    problems = audit_plan(plan)
    assert any("can see" in p for p in problems)
    assert any("ddc of app is" in p for p in problems)
