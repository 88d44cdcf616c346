"""Configuration parsing, deterministic placement, the overlap-adjacency
ordering, boot-image construction, and the structural audit."""

import dataclasses
import itertools

import pytest

from capcomp.capability import Perm
from capcomp.layout import (
    AllocError,
    ConfigError,
    InfeasibleOverlap,
    LayoutError,
    LayoutPlan,
    MAX_INT_LEN,
    MAX_MEMORY_SIZE,
    OFF_DDC,
    OFF_PCC,
    OFF_SP,
    OFF_TRAMP,
    PAIR_ADDR,
    SANDBOX_CODE,
    SANDBOX_SCRATCH,
    SWITCHER_CODE_SLOTS,
    TABLE_BASE,
    TABLE_ENTRY,
    TRAMP_SLOTS,
    audit_plan,
    boot_init,
    comp_alloc,
    compute_layout,
    format_region_records,
    format_region_table,
    install_function,
    SharedDecl,
    parse_config,
    shared_alloc,
)
from capcomp.isa import halt, nop
from capcomp.memory import GRANULE


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
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "compartment b code=64 data=32 stack=32 heap=0\n"
     "shared s size=32 between a,b mode=overlap\n"
     "shared s size=32 between a,b mode=overlap", 4),         # duplicate shared name
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "sandbox f host=a\nsandbox f host=a", 3),               # duplicate sandbox name
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "shared s size=32 between a mode=overlap", 2),           # one compartment
    ("compartment a code=64 data=32 stack=32 heap=0\n"
     "sandbox f hst=a", 2),                                   # host= misspelt
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ConfigError, match=f"line {line}"):
        parse_config(text)


LONG = "1" + "0" * MAX_INT_LEN         # one character over the bound


@pytest.mark.parametrize("text", [
    f"compartment app code={LONG} data=512 stack=512 heap=0",
    f"compartment app code=512 data=512 stack=512 heap={LONG}",
    "compartment a code=64 data=32 stack=32 heap=0\n"
    f"compartment b code=64 data=32 stack=32 heap=0\nshared s size={LONG} between a,b mode=overlap",
], ids=["code", "heap", "size"])
def test_config_integer_over_the_length_bound_is_named_as_such(text):
    # the integer is well formed; CPython's own int-string limit used to
    # report it as a bad integer, in a message that echoed all of it
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    line = text.count("\n") + 1
    assert str(exc.value) == f"line {line}: integer longer than 4300 characters"


@pytest.mark.parametrize("text,message", [
    # each attribute's key, length and value are checked before the next one's
    (f"compartment app code={LONG} dta=512 stack=512 heap=0",
     "line 1: integer longer than 4300 characters"),
    (f"compartment app cod=512 data=512 stack=512 heap={LONG}",
     "line 1: expected code=<n>, got 'cod=512'"),
], ids=["long value first", "misnamed key first"])
def test_config_misnamed_key_and_long_value_on_one_line(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message


def test_config_integer_at_the_length_bound_parses():
    n = "1" + "0" * (MAX_INT_LEN - 1)
    cfg = parse_config(f"compartment app code={n} data=512 stack=512 heap=0")
    assert cfg.compartment("app").code == int(n)


ECHOED = "x" * 64            # the most of a token an error echoes
CUT = ECHOED + "y" * 4000    # under the integer bound, so a bad integer is echoed
COMPS = ("compartment a code=64 data=32 stack=32 heap=0\n"
         "compartment b code=64 data=32 stack=32 heap=0\n")


@pytest.mark.parametrize("text,message", [
    # a misspelt key, which the error echoed whole (4,338 characters here)
    ("compartment app cod=1" + "0" * 4300 + " data=512 stack=512 heap=0",
     f"line 1: expected code=<n>, got 'cod={'1' + '0' * 59}...'"),
    (f"compartment app code=64 data=x{CUT} stack=512 heap=0",
     f"line 1: bad integer in 'data=x{ECHOED[6:]}...'"),
    (f"compartment a{CUT}! code=64 data=32 stack=32 heap=0",
     f"line 1: bad compartment name 'a{ECHOED[1:]}...'"),
    (f"{COMPS}compartment {CUT} code=64 data=32 stack=32 heap=0\n"
     f"compartment {CUT} code=64 data=32 stack=32 heap=0",
     f"line 4: duplicate name '{ECHOED}...'"),
    (f"{COMPS}shared {CUT}! size=32 between a,b mode=overlap",
     f"line 3: bad shared region name '{ECHOED}...'"),
    (f"{COMPS}sandbox {CUT}! host=a", f"line 3: bad sandbox name '{ECHOED}...'"),
    (f"{CUT} a", f"line 1: unknown directive '{ECHOED}...'"),
    (f"{COMPS}shared {CUT} size=32 between a,{CUT}y mode=overlap",
     f"shared region '{ECHOED}...' names unknown compartment '{ECHOED}...'"),
    (f"{COMPS}sandbox {CUT} host={CUT}y",
     f"sandbox '{ECHOED}...' names unknown host '{ECHOED}...'"),
    (f"{COMPS}compartment {CUT} code=64 data=32 stack=32 heap=0\n"
     f"shared {CUT}m1 size=32 between a,{CUT} mode=exception\n"
     f"shared {CUT}m2 size=32 between b,{CUT} mode=exception",
     f"compartment '{ECHOED}...' owns two exception regions, '{ECHOED}...' and '{ECHOED}...'; "
     "at most one is supported"),
    # 64 characters are echoed whole
    (f"{ECHOED} a", f"line 1: unknown directive '{ECHOED}'"),
], ids=["key", "bad integer", "bad name", "duplicate", "bad shared name", "bad sandbox name",
        "directive", "unknown compartment", "unknown host", "two exception regions",
        "at the bound"])
def test_config_echoed_token_is_cut_to_64_characters(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message


def test_parse_rejects_unknown_references():
    with pytest.raises(ConfigError, match="unknown compartment"):
        parse_config("compartment a code=64 data=32 stack=32 heap=0\n"
                     "shared s size=32 between a,ghost mode=overlap")
    with pytest.raises(ConfigError, match="unknown host"):
        parse_config("compartment a code=64 data=32 stack=32 heap=0\n"
                     "sandbox f host=ghost")
    with pytest.raises(ConfigError, match="no compartments"):
        parse_config("# nothing here\n")


def test_parse_rejects_two_exception_regions_for_one_compartment():
    comps = ("compartment a code=64 data=32 stack=32 heap=0\n"
             "compartment b code=64 data=32 stack=32 heap=0\n"
             "compartment c code=64 data=32 stack=32 heap=0\n")
    with pytest.raises(ConfigError, match="'b' owns two exception regions, 'm1' and 'm2'"):
        parse_config(comps + "shared m1 size=32 between a,b mode=exception\n"
                             "shared m2 size=32 between b,c mode=exception\n")
    # One exception region each, and overlap windows beside them, still parse.
    cfg = parse_config(comps + "shared m1 size=32 between a,b mode=exception\n"
                               "shared w size=32 between b,c mode=overlap\n")
    assert [s.name for s in cfg.shared] == ["m1", "w"]


@pytest.mark.parametrize("name", ["cap_table", "switcher_data", "switcher_code"])
def test_shared_region_cannot_take_a_switcher_region_name(name):
    # Accepted, this gave two regions one name, and `plan.region` found the
    # later one: the audit reported app's ddc seeing the capability table.
    with pytest.raises(ConfigError, match=f"line 3: '{name}' names the switcher's own region"):
        parse_config("compartment app code=512 data=512 stack=512 heap=0\n"
                     "compartment lib code=512 data=512 stack=512 heap=0\n"
                     f"shared {name} size=64 between app,lib mode=overlap\n")


def test_planner_refuses_two_regions_with_one_name():
    cfg = parse_config(fixture("two_comp.cfg"))
    cfg = dataclasses.replace(cfg, shared=(SharedDecl("cap_table", 64, "app", "lib", "overlap"),))
    with pytest.raises(LayoutError, match="two regions are named 'cap_table'"):
        compute_layout(cfg)


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
    # Exception regions sit outside all spans.  With a compartment owning at
    # most one of them, they close the overlap path c0-c1-c2 into a triangle
    # that overlap windows alone could not place.
    def cfg(mode):
        lines = [f"compartment c{i} code=128 data=64 stack=64 heap=64" for i in range(4)]
        lines += ["shared w0 size=32 between c0,c1 mode=overlap",
                  "shared w1 size=32 between c1,c2 mode=overlap",
                  f"shared x0 size=32 between c0,c2 mode={mode}",
                  f"shared x1 size=32 between c1,c3 mode={mode}"]
        return parse_config("\n".join(lines))

    with pytest.raises(InfeasibleOverlap):
        compute_layout(cfg("overlap"))
    plan = compute_layout(cfg("exception"))
    assert audit_plan(plan) == []
    assert plan.ddc_bounds["c3"] == (plan.region("c3.data").base, plan.region("c3.heap").top)
    for region in ("x0", "x1"):
        lo, hi = plan.shared_bounds[region]
        for name in ("c0", "c1", "c2", "c3"):
            d_lo, d_hi = plan.ddc_bounds[name]
            assert hi <= d_lo or d_hi <= lo


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
    assert plan.sandboxes["parse_header"].host == "host"
    code, scratch = plan.region("parse_header.code"), plan.region("parse_header.scratch")
    assert (code.base, code.top) == (448, 448 + SANDBOX_CODE)
    assert (scratch.base, scratch.top) == (17472, 17472 + SANDBOX_SCRATCH)
    # scratch is carved out of the host heap, inside the host's declared extent
    hlo = plan.region("host.data").base
    hhi = plan.region("host.heap").base + plan.config.compartment("host").heap
    assert hlo <= scratch.base and scratch.top <= hhi
    assert plan.region("host.heap").top <= scratch.base
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


def test_code_space_bounded_by_memory_size():
    # boot fills one program slot per code slot: 64 switcher slots plus
    # 4032 fill 4096, and 16 more do not fit
    fits = parse_config("compartment a code=4032 data=32 stack=32 heap=0")
    assert compute_layout(fits, memory_size=4096).total_code_slots == 4096
    over = parse_config("compartment a code=4048 data=32 stack=32 heap=0")
    with pytest.raises(LayoutError) as exc:
        compute_layout(over, memory_size=4096)
    assert str(exc.value) == "code needs 0x1010 slots, memory holds 0x1000"


def test_memory_size_bounded_by_the_maximum():
    # planning allocates nothing, so the maximum itself is cheap to accept
    cfg = parse_config("compartment a code=64 data=32 stack=32 heap=0")
    assert MAX_MEMORY_SIZE == 1 << 30
    assert compute_layout(cfg, memory_size=MAX_MEMORY_SIZE).memory_size == MAX_MEMORY_SIZE
    with pytest.raises(LayoutError) as exc:
        compute_layout(cfg, memory_size=MAX_MEMORY_SIZE + GRANULE)
    assert str(exc.value) == "memory size must be at most 0x40000000"


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

@pytest.mark.parametrize("cfg", ["two_comp.cfg", "three_comp_shared.cfg", "sandbox_host.cfg"])
def test_boot_table_entries_decoded(cfg):
    # Every entity's table ddc is its entry in the plan's one view map; a
    # sandbox's view is its scratch, whose top is also its resume sp.
    plan = compute_layout(parse_config(fixture(cfg)))
    img = boot_init(plan)
    for name in plan.comp_ids:
        code = plan.region(f"{name}.code")
        stack = plan.region(f"{name}.scratch" if name in plan.sandboxes else f"{name}.stack")
        slot = img.table_slot(name)
        pcc = img.mem.load_cap(slot + OFF_PCC)
        ddc = img.mem.load_cap(slot + OFF_DDC)
        sp = int.from_bytes(img.mem.read_bytes(slot + OFF_SP, 8), "little")
        tramp = int.from_bytes(img.mem.read_bytes(slot + OFF_TRAMP, 8), "little")
        assert pcc.tag and (pcc.base, pcc.top) == (code.base, code.top)
        assert pcc.perms & Perm.EXECUTE
        assert ddc.tag and (ddc.base, ddc.top) == plan.ddc_bounds[name]
        if name in plan.sandboxes:
            assert (ddc.base, ddc.top) == (stack.base, stack.top)
        assert not ddc.perms & Perm.EXECUTE
        assert sp == stack.top
        assert tramp == code.base


@pytest.mark.parametrize("cfg", ["two_comp.cfg", "three_comp_shared.cfg", "sandbox_host.cfg"])
def test_every_pcc_is_exactly_its_code_region(cfg):
    # A host's pcc stops where its sandboxes' code slices begin, so host code
    # cannot reach sandbox code and run it under the host's ddc.
    plan = compute_layout(parse_config(fixture(cfg)))
    img = boot_init(plan)
    for name in plan.comp_ids:
        code = plan.region(f"{name}.code")
        pcc = img.mem.load_cap(img.table_slot(name) + OFF_PCC)
        assert (pcc.base, pcc.top) == (code.base, code.top)
    regions = sorted(img.machine.code_regions)
    assert len(regions) == len(plan.comp_ids)
    for (_, top, _), (base, _, _) in zip(regions, regions[1:]):
        assert top <= base


def test_code_capability_cannot_read_data():
    """Code slots and data bytes are numbered from 0 in separate spaces, so a
    code capability that could load would read whatever data sits at the
    addresses of its slots.  Three instructions in codec reach app's data at
    those addresses through the link register: the load must fault."""
    from capcomp.capability import FaultKind
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
    img.enter("codec")
    st.pc = site
    run(st, img.mem, img.program, max_steps=10)
    assert st.fault is not None and st.fault.kind is FaultKind.PERMISSION
    assert st.fault.pc == site + 2 and st.fault.addr == target
    assert st.regs[5].address != 0x5EC2E7


def test_boot_switcher_pair_and_sealed_entries():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    img = boot_init(plan)
    sw_pcc = img.mem.load_cap(PAIR_ADDR)
    locator = img.mem.load_cap(PAIR_ADDR + 32)
    assert sw_pcc.tag and (sw_pcc.base, sw_pcc.top) == (0, SWITCHER_CODE_SLOTS)
    # the locator covers switcher data plus the whole table, nothing more
    assert locator.tag and locator.base == 0
    assert locator.top == TABLE_BASE + len(plan.comp_ids) * TABLE_ENTRY
    for name in ("app", "lib"):
        sealed = img.mem.load_cap(plan.sealed_cap_addr(name))
        assert sealed.tag and sealed.sealed
        assert sealed.otype == 2 + plan.comp_ids[name]
        assert (sealed.base, sealed.top) == (PAIR_ADDR, PAIR_ADDR + 64)


def test_boot_machine_initial_state():
    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    img = boot_init(plan)
    st = img.machine
    assert st.current_compartment == 0
    assert st.pcc.address == plan.code_bounds["app"][0] + TRAMP_SLOTS
    assert (st.ddc.base, st.ddc.top) == plan.ddc_bounds["app"]
    assert st.switcher_bounds == (0, SWITCHER_CODE_SLOTS)
    assert st.regs[31].address == plan.region("app.stack").top
    assert st.lpb_otypes == frozenset({1, 2, 3})
    assert len(img.program) == plan.total_code_slots
    assert all(ins is not None for ins in img.program)


def test_boot_exception_region_arms_r18():
    plan = compute_layout(parse_config(fixture("three_comp_shared.cfg")))
    img = boot_init(plan)
    st = img.machine
    lo, hi = plan.shared_bounds["mailbox"]
    assert st.regs[18].tag and (st.regs[18].base, st.regs[18].top) == (lo, hi)


@pytest.mark.parametrize("name", ["two_comp.cfg", "three_comp_shared.cfg",
                                  "sandbox_host.cfg"])
def test_enter_puts_each_compartments_exception_region_in_r18(name):
    """exception_regions names the owners of each exception-mode region and
    nobody else; entering any compartment arms r18 over its region, or
    leaves r18 null where it owns none."""
    from capcomp.capability import NULL_CAP

    cfg = parse_config(fixture(name))
    plan = compute_layout(cfg)
    owners = {owner: s.name for s in cfg.shared if s.mode == "exception"
              for owner in (s.a, s.b)}
    assert {c: r.name for c, r in plan.exception_regions.items()} == owners
    img = boot_init(plan)
    for comp in cfg.compartments:
        img.enter(comp.name)
        r18 = img.machine.regs[18]
        if comp.name in owners:
            assert r18.tag and (r18.base, r18.top) == plan.shared_bounds[owners[comp.name]]
        else:
            assert r18 == NULL_CAP


def test_boot_without_exception_region_keeps_bounds_misses_faults():
    """r18 alone decides whether a ddc bounds miss may swap: two_comp.cfg has
    no exception region, so app enters with r18 null and a legacy store
    into lib's data stays a fault."""
    from capcomp.capability import NULL_CAP, FaultKind
    from capcomp.isa import movi, sti
    from capcomp.machine import Fault, run

    plan = compute_layout(parse_config(fixture("two_comp.cfg")))
    img = boot_init(plan)
    st = img.machine
    assert st.regs[18] == NULL_CAP and not st.regs[18].tag
    target = plan.ddc_bounds["lib"][0]
    site = install_function(img, "app", [movi(2, target), sti(1, 2, 0), halt()])
    st.pc = site
    run(st, img.mem, img.program, max_steps=10)
    assert st.fault == Fault(FaultKind.BOUNDS, target, site + 1, 8, ddc_access=True)
    assert st.ddc_swap_events == 0 and st.regs[18] == NULL_CAP


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
    heap = img.plan.region("app.heap")
    lo, hi = heap.base, heap.top
    a = comp_alloc(img, "app", 1)
    b = comp_alloc(img, "app", 33)
    assert a == lo and b == lo + 32 and img.next_free["app.heap"] == lo + 96
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
    ptr_before = img.next_free["app.code"]
    fixed = install_function(img, "app", [nop(), nop(), halt()], at=top - 3)
    assert fixed == top - 3 and img.next_free["app.code"] == ptr_before
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
    data, table = plan.region("app.data"), plan.region("cap_table")
    planted = dataclasses.replace(data, base=table.base)        # app's span over the table
    plan = dataclasses.replace(
        plan, regions=[planted if r is data else r for r in plan.regions])
    problems = audit_plan(plan)
    assert "regions cap_table and app.data overlap" in problems
    assert "ddc of app can see cap_table" in problems


def plant(plan, name, **fields):
    """`plan` with region `name`'s fields replaced."""
    return dataclasses.replace(plan, regions=[
        dataclasses.replace(r, **fields) if r.name == name else r for r in plan.regions])


@pytest.mark.parametrize("region,into_heap,finding", [
    ("app.stack", False, "region app.stack is empty or inverted"),
    ("mailbox", True, "exception region mailbox visible to ddc of app"),
    ("outbuf", True, "non-owner app ddc touches shared region outbuf"),
])
def test_audit_detects_planted_view_breaks(region, into_heap, finding):
    # an emptied stack, or a shared region moved to the start of app's heap
    plan = compute_layout(parse_config(fixture("three_comp_shared.cfg")))
    assert audit_plan(plan) == []
    r = plan.region(region)
    if into_heap:
        base = plan.region("app.heap").base
        plan = plant(plan, region, base=base, top=base + r.top - r.base)
    else:
        plan = plant(plan, region, top=r.base)
    assert finding in audit_plan(plan)


def test_plan_stores_only_its_config_memory_size_and_regions():
    init = [f.name for f in dataclasses.fields(LayoutPlan) if f.init]
    assert init == ["config", "memory_size", "regions"]


def test_replaced_plan_derives_ddc_bounds_from_its_regions():
    # inbuf shrinks from below, so it no longer abuts app's span: app's view
    # stops at its own heap top, and codec's starts at the moved window
    plan = compute_layout(parse_config(fixture("three_comp_shared.cfg")))
    inbuf = plan.region("inbuf")
    moved = dataclasses.replace(inbuf, base=inbuf.base + 0x100)
    plan = dataclasses.replace(
        plan, regions=[moved if r is inbuf else r for r in plan.regions])
    assert plan.region("inbuf") == moved
    assert plan.ddc_bounds["app"] == (plan.region("app.data").base,
                                      plan.region("app.heap").top)
    assert plan.ddc_bounds["codec"][0] == moved.base
    assert "owner app ddc misses shared region inbuf" in audit_plan(plan)


def test_host_code_bounds_are_its_pcc():
    # A host's code bounds are its own region, the range its pcc covers and
    # install_function accepts; its sandboxes' slices lie beyond it.
    plan = compute_layout(parse_config(fixture("sandbox_host.cfg")))
    img = boot_init(plan)
    at = plan.code_bounds["host"][1] - 20
    assert install_function(img, "host", [halt()], at=at) == at
    pcc = img.mem.load_cap(img.table_slot("host") + OFF_PCC)
    assert plan.code_bounds["host"] == (pcc.base, pcc.top) == (64, 448)


@pytest.mark.parametrize("sandbox,field,values,finding", [
    ("parse_header", "code", (0, SANDBOX_CODE), "code escapes host code region"),
    ("parse_header", "code", (576, 576 + SANDBOX_CODE), "code escapes host code region"),
    ("parse_header", "scratch", (0x40, 0x40 + SANDBOX_SCRATCH), "scratch escapes host span"),
    # The last sandbox's scratch ends the host's span, so it must be checked
    # against the host's declared extent, not against that span.
    ("decode_frame", "scratch", (0x20000, 0x21000), "scratch escapes host span"),
])
def test_audit_detects_sandbox_escaping_its_host(sandbox, field, values, finding):
    plan = compute_layout(parse_config(fixture("sandbox_host.cfg")))
    assert audit_plan(plan) == []
    moved = f"{sandbox}.{field}"
    base, top = values
    plan = dataclasses.replace(plan, regions=[
        dataclasses.replace(r, base=base, top=top) if r.name == moved else r
        for r in plan.regions])
    assert f"sandbox {sandbox} {finding}" in audit_plan(plan)


def test_audit_checks_each_sandbox_view_for_switcher_invisibility():
    # A sandbox's view is its scratch, which boot writes as its ddc, so a
    # scratch planted over the switcher's data is seen by the ddc checks.
    plan = compute_layout(parse_config(fixture("sandbox_host.cfg")))
    plan = dataclasses.replace(plan, regions=[
        dataclasses.replace(r, base=0, top=SANDBOX_SCRATCH) if r.name == "parse_header.scratch"
        else r for r in plan.regions])
    assert plan.ddc_bounds["parse_header"] == (0, SANDBOX_SCRATCH)
    seen = [p for p in audit_plan(plan) if p.startswith("ddc of ")]
    assert seen == ["ddc of parse_header can see switcher_data",
                    "ddc of parse_header can see cap_table"]


@pytest.mark.parametrize("name", ["parse_header", "ghost"])
def test_enter_rejects_what_is_not_a_compartment(name):
    img = boot_init(compute_layout(parse_config(fixture("sandbox_host.cfg"))))
    with pytest.raises(LayoutError, match=f"'{name}' is not a compartment"):
        img.enter(name)


# --------------------------------------------------------------------------
# Snapshots

BUNDLED_CFGS = ["two_comp.cfg", "three_comp_shared.cfg", "sandbox_host.cfg"]


def image_state(img):
    """Everything an image holds that a run can change, as values: every
    `MachineState` field by name (lists copied), memory data and tags, the
    program and the allocation pointers."""
    from capcomp.machine import MachineState

    st = img.machine
    machine = {}
    for f in dataclasses.fields(MachineState):
        value = getattr(st, f.name)
        machine[f.name] = list(value) if isinstance(value, list) else value
    return (machine, bytes(img.mem.data), bytes(img.mem.tags),
            list(img.program), dict(img.next_free))


def round_trip_gate(img):
    """A gate from the first compartment to the second, into a function
    that returns its argument plus one."""
    from capcomp.isa import addi, retl
    from capcomp.runtime import GateDescriptor

    caller, callee = (c.name for c in img.plan.config.compartments[:2])
    entry = install_function(img, callee, [addi(0, 0, 1), retl()])
    return GateDescriptor(caller, callee, entry, dest=0)


def lived_in_image(cfg):
    """A booted image after one gated round trip with the event list on,
    then with the fault and swap count set by hand: every `MachineState`
    field is away from its default, so a field that a snapshot drops
    shows."""
    from capcomp.capability import FaultKind
    from capcomp.machine import Fault, MachineState
    from capcomp.runtime import call_compartment

    img = boot_init(compute_layout(parse_config(fixture(cfg))))
    st = img.machine
    st.events = []
    call_compartment(img, round_trip_gate(img), [41])
    assert st.halted and st.regs[0].address == 42
    st.fault = Fault(FaultKind.BOUNDS, 0x40, st.pc, 8)
    st.ddc_swap_events += 1
    bare = MachineState()
    for f in dataclasses.fields(MachineState):
        assert getattr(st, f.name) != getattr(bare, f.name), f.name
    return img


def scribble(img):
    """Change every part of `img` that a snapshot holds: memory bytes and a
    tag, the program, `next_free`, and every `MachineState` field that is
    away from its default, which it puts back there."""
    from capcomp.machine import MachineState

    heap = next(r for r in img.plan.regions if r.kind == "heap")
    img.mem.write_bytes(heap.base, b"\xa5" * 64)
    img.mem.store_cap(TABLE_BASE, img.mem.load_cap(TABLE_BASE + OFF_DDC))
    img.program.append(nop())
    img.next_free[heap.name] += GRANULE
    img.next_free["scribbled"] = 0
    bare = MachineState()
    for f in dataclasses.fields(MachineState):
        setattr(img.machine, f.name, getattr(bare, f.name))


@pytest.mark.parametrize("cfg", BUNDLED_CFGS)
def test_snapshot_image_equals_the_image_it_was_taken_from(cfg):
    booted = boot_init(compute_layout(parse_config(fixture(cfg))))
    for img in (booted, lived_in_image(cfg)):
        snap = img.snapshot()
        assert image_state(snap.image()) == image_state(img)
        assert snap.image().plan is img.plan


@pytest.mark.parametrize("cfg", BUNDLED_CFGS)
def test_snapshot_restore_puts_an_image_back_in_place(cfg):
    """A restore of a scribbled image gives the state the snapshot was
    taken in, which is what `image()` gives, in the objects the image
    already held; in the lived-in image every machine field was
    scribbled."""
    booted = boot_init(compute_layout(parse_config(fixture(cfg))))
    for img in (booted, lived_in_image(cfg)):
        snap, before = img.snapshot(), image_state(img)
        scribble(img)
        assert image_state(img) != before
        held = (img.plan, img.mem, img.machine, img.program, img.next_free)
        snap.restore(img)
        assert image_state(img) == before == image_state(snap.image())
        now = (img.plan, img.mem, img.machine, img.program, img.next_free)
        assert all(a is b for a, b in zip(held, now))


def test_snapshot_restore_refuses_an_image_of_another_plan():
    """Even a plan equal in every region is another plan: restore raises
    and writes nothing."""
    snap = boot_init(compute_layout(parse_config(fixture("two_comp.cfg")))).snapshot()
    for cfg in ("two_comp.cfg", "three_comp_shared.cfg"):
        other = boot_init(compute_layout(parse_config(fixture(cfg))))
        before = image_state(other)
        with pytest.raises(ValueError, match="another plan"):
            snap.restore(other)
        assert image_state(other) == before


def mutable_parts(img):
    """Every mutable object an image holds, by where it sits."""
    st = img.machine
    parts = {"mem.data": img.mem.data, "mem.tags": img.mem.tags,
             "program": img.program, "next_free": img.next_free}
    for f in dataclasses.fields(st):
        value = getattr(st, f.name)
        if isinstance(value, (list, dict, bytearray)):
            parts[f.name] = value
    return parts


@pytest.mark.parametrize("cfg", BUNDLED_CFGS)
def test_snapshot_images_share_nothing_mutable(cfg):
    """Running, allocating, installing, storing and recording in one image
    built from a snapshot, and in the image the snapshot was taken from,
    leaves the snapshot and a second image from it unchanged."""
    from capcomp.runtime import call_compartment

    img = boot_init(compute_layout(parse_config(fixture(cfg))))
    img.machine.events = []
    gate = round_trip_gate(img)
    snap = img.snapshot()
    before = image_state(img)
    first, second = snap.image(), snap.image()

    images = (img, first, second)
    for x, y in itertools.combinations(images, 2):
        shared = [k for k, v in mutable_parts(x).items() if v is mutable_parts(y)[k]]
        assert shared == []

    for changed in (img, first):
        st = changed.machine
        call_compartment(changed, gate, [41])
        assert st.halted and st.fault is None and st.regs[0].address == 42
        heap = comp_alloc(changed, gate.caller, 64)
        install_function(changed, gate.callee, [nop(), halt()])
        changed.mem.store_cap(heap, st.ddc)
        st.events.append(("step", 1, 1, None))
        assert image_state(changed) != before

    assert image_state(snap.image()) == before
    assert image_state(second) == before
