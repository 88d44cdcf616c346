"""Every per-name view of a `LayoutPlan`, checked against a reference
planner: the `compute_layout` that filled one dict per view alongside the
region list, as it placed each region.  The reference keeps the dicts of
views the plan no longer has; each is checked against the regions."""

import itertools
import re
from types import SimpleNamespace

import pytest

from capcomp.layout import (
    PAIR_ADDR,
    SANDBOX_CODE,
    SANDBOX_SCRATCH,
    SWITCHER_CODE,
    SWITCHER_CODE_SLOTS,
    SWITCHER_DATA_SIZE,
    TABLE_BASE,
    TABLE_ENTRY,
    TRAMP_SLOTS,
    InfeasibleOverlap,
    LayoutError,
    Region,
    _order_for_adjacency,
    compute_layout,
    parse_config,
)
from capcomp.memory import CAP_SLOT, DEFAULT_SIZE

from test_acceptance import _config_text


def fixture(name):
    import importlib.resources as ir
    return ir.files("capcomp").joinpath("fixtures", name).read_text()


# --------------------------------------------------------------------------
# Reference: the planner that built every view as its own dict.

def ref_compute_layout(cfg, memory_size=DEFAULT_SIZE):
    order = _order_for_adjacency(cfg)
    comp_ids = {c.name: i for i, c in enumerate(cfg.compartments)}
    next_id = len(cfg.compartments)
    sandbox_ids = {}
    for sb in cfg.sandboxes:
        sandbox_ids[sb.name] = next_id
        next_id += 1

    by_host = {}
    for sb in cfg.sandboxes:
        by_host.setdefault(sb.host, []).append(sb)

    regions = []

    code_cursor = SWITCHER_CODE_SLOTS
    regions.append(Region("switcher_code", "switcher_code", 0, SWITCHER_CODE_SLOTS, ()))
    code_bounds = {}
    for name in order:
        decl = cfg.compartment(name)
        carve = len(by_host.get(name, ())) * SANDBOX_CODE
        if decl.code < TRAMP_SLOTS + 9 + carve:
            raise LayoutError(
                f"compartment {name!r} code region too small for its trampoline and fuzz site"
                + (" plus its sandboxes" if carve else ""))
        base, top = code_cursor, code_cursor + decl.code
        code_bounds[name] = (base, top)
        own_top = top - carve
        regions.append(Region(f"{name}.code", "code", base, own_top, (name,)))
        slice_base = own_top
        for sb in by_host.get(name, ()):
            regions.append(Region(f"{sb.name}.code", "code",
                                  slice_base, slice_base + SANDBOX_CODE, (sb.name,)))
            slice_base += SANDBOX_CODE
        code_cursor = top
    total_code_slots = code_cursor

    regions.append(Region("switcher_data", "switcher_data", 0, SWITCHER_DATA_SIZE, ()))
    table_base = SWITCHER_DATA_SIZE
    table_size = next_id * TABLE_ENTRY
    regions.append(Region("cap_table", "cap_table", table_base, table_base + table_size, ()))
    cursor = table_base + table_size

    overlap_between = {}
    for s in cfg.shared:
        if s.mode == "overlap":
            overlap_between.setdefault(frozenset((s.a, s.b)), []).append(s)

    span_bounds = {}
    data_base = {}
    stack_top = {}
    heap_bounds = {}
    shared_bounds = {}
    low_window = {}
    high_window = {}

    for pos, name in enumerate(order):
        decl = cfg.compartment(name)
        sbs = by_host.get(name, ())
        carve = len(sbs) * SANDBOX_SCRATCH
        if sbs and decl.heap < carve + CAP_SLOT:
            raise LayoutError(
                f"compartment {name!r} heap too small to host {len(sbs)} sandbox(es)")
        span_base = cursor
        data_base[name] = cursor
        regions.append(Region(f"{name}.data", "data", cursor, cursor + decl.data, (name,)))
        cursor += decl.data
        regions.append(Region(f"{name}.stack", "stack", cursor, cursor + decl.stack, (name,)))
        cursor += decl.stack
        stack_top[name] = cursor
        heap_top = cursor + decl.heap - carve
        regions.append(Region(f"{name}.heap", "heap", cursor, heap_top, (name,)))
        heap_bounds[name] = (cursor, heap_top)
        cursor += decl.heap - carve
        for sb in sbs:
            regions.append(Region(f"{sb.name}.scratch", "scratch",
                                  cursor, cursor + SANDBOX_SCRATCH, (sb.name,)))
            cursor += SANDBOX_SCRATCH
        span_bounds[name] = (span_base, cursor)

        if pos + 1 < len(order):
            pair = frozenset((name, order[pos + 1]))
            for s in overlap_between.get(pair, ()):
                shared_bounds[s.name] = (cursor, cursor + s.size)
                regions.append(Region(s.name, "shared", cursor, cursor + s.size, (s.a, s.b)))
                high_window[name] = cursor + s.size
                low_window[order[pos + 1]] = min(
                    low_window.get(order[pos + 1], cursor), cursor)
                cursor += s.size

    exception_regions = {}
    for s in cfg.shared:
        if s.mode == "exception":
            shared_bounds[s.name] = (cursor, cursor + s.size)
            regions.append(Region(s.name, "shared", cursor, cursor + s.size, (s.a, s.b)))
            exception_regions[s.a] = exception_regions[s.b] = regions[-1]
            cursor += s.size

    if cursor > memory_size:
        raise LayoutError(f"layout needs {cursor:#x} bytes, memory holds {memory_size:#x}")

    ddc_bounds = {}
    for name in order:
        lo, hi = span_bounds[name]
        ddc_bounds[name] = (low_window.get(name, lo), high_window.get(name, hi))

    return SimpleNamespace(
        regions=regions,
        placement_order=order,
        comp_ids={**comp_ids, **sandbox_ids},
        code_bounds=code_bounds,
        span_bounds=span_bounds,
        ddc_bounds=ddc_bounds,
        data_base=data_base,
        stack_top=stack_top,
        heap_bounds=heap_bounds,
        shared_bounds=shared_bounds,
        exception_regions=exception_regions,
        shared_mode={s.name: s.mode for s in cfg.shared},
        shared_owners={s.name: (s.a, s.b) for s in cfg.shared},
        sandboxes={sb.name: sb for sb in cfg.sandboxes},
        table_base=table_base,
        pair_addr=0,
        switcher_code=(0, SWITCHER_CODE_SLOTS),
        total_code_slots=total_code_slots,
        data_top=cursor,
    )


def expected_code_bounds(ref):
    # The one planned change: a host's code bounds are its own `<name>.code`
    # region, the range of its pcc, without its sandboxes' slices.
    own = {r.name: (r.base, r.top) for r in ref.regions}
    hosts = {sb.host for sb in ref.sandboxes.values()}
    return {name: own[f"{name}.code"] if name in hosts else bounds
            for name, bounds in ref.code_bounds.items()}


def expected_ddc_bounds(ref):
    # The second planned change: the view map holds every entity, so beside
    # each compartment's widened span it has each sandbox's scratch.
    own = {r.name: (r.base, r.top) for r in ref.regions}
    return {**ref.ddc_bounds, **{sb: own[f"{sb}.scratch"] for sb in ref.sandboxes}}


def assert_views_match(plan, ref):
    assert plan.regions == ref.regions
    for r in ref.regions:
        assert plan.region(r.name) == r
    with pytest.raises(KeyError):
        plan.region("ghost")
    assert plan.code_bounds == expected_code_bounds(ref)
    assert plan.ddc_bounds == expected_ddc_bounds(ref)
    for view in ("placement_order", "comp_ids", "shared_bounds",
                 "exception_regions", "sandboxes", "total_code_slots", "data_top"):
        assert getattr(plan, view) == getattr(ref, view), view
    # The switcher's places, the same in every plan.
    assert (TABLE_BASE, PAIR_ADDR, SWITCHER_CODE) == (ref.table_base, ref.pair_addr,
                                                      ref.switcher_code)

    # The per-name views the plan no longer keeps, read off its regions.
    for name in ref.placement_order:
        span = [f"{name}.data", f"{name}.stack", f"{name}.heap"] + [
            f"{sb}.scratch" for sb, decl in ref.sandboxes.items() if decl.host == name]
        assert ref.span_bounds[name] == (plan.region(span[0]).base,
                                         plan.region(span[-1]).top), name
        assert ref.data_base[name] == plan.region(f"{name}.data").base, name
        assert ref.stack_top[name] == plan.region(f"{name}.stack").top, name
        heap = plan.region(f"{name}.heap")
        assert ref.heap_bounds[name] == (heap.base, heap.top), name
    assert ref.shared_mode == {s.name: s.mode for s in plan.config.shared}
    assert ref.shared_owners == {s.name: plan.region(s.name).owners
                                 for s in plan.config.shared}


# --------------------------------------------------------------------------
# Inputs

TWO_SANDBOXES_TWO_WINDOWS = """
compartment host code=512 data=256 stack=1024 heap=8448
compartment peer code=256 data=128 stack=512 heap=256
compartment tail code=64 data=64 stack=64 heap=0
shared w0 size=64 between host,peer mode=overlap
shared w1 size=96 between peer,host mode=overlap
shared box size=32 between host,tail mode=exception
sandbox parse host=host
sandbox decode host=host
"""


@pytest.mark.parametrize("name", ["two_comp.cfg", "three_comp_shared.cfg", "sandbox_host.cfg"])
def test_bundled_configs_match_the_reference(name):
    cfg = parse_config(fixture(name))
    assert_views_match(compute_layout(cfg), ref_compute_layout(cfg))


def test_host_with_two_sandboxes_and_two_windows_matches_the_reference():
    cfg = parse_config(TWO_SANDBOXES_TWO_WINDOWS)
    plan, ref = compute_layout(cfg), ref_compute_layout(cfg)
    assert len(ref.sandboxes) == 2
    assert ref.shared_bounds["w0"][1] == ref.shared_bounds["w1"][0]
    assert_views_match(plan, ref)


@pytest.mark.parametrize("sandboxes", [1, 2])
def test_code_floor_boundary_matches_the_reference(sandboxes):
    # code sizes are multiples of 16: a host's own region of 16 slots is
    # refused, one of 32 accepted
    carve = sandboxes * SANDBOX_CODE
    heap = sandboxes * SANDBOX_SCRATCH + CAP_SLOT
    for code, fits in ((16 + carve, False), (32 + carve, True)):
        cfg = parse_config(
            f"compartment host code={code} data=64 stack=64 heap={heap}\n"
            + "".join(f"sandbox s{i} host=host\n" for i in range(sandboxes)))
        try:
            ref = ref_compute_layout(cfg)
        except LayoutError as e:
            assert not fits
            with pytest.raises(LayoutError, match=re.escape(str(e))):
                compute_layout(cfg)
        else:
            assert fits
            assert_views_match(compute_layout(cfg), ref)


def test_enumerated_configs_match_the_reference():
    checked = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(0, 4):
            for edges in itertools.combinations(pairs, k):
                cfg = parse_config(_config_text(n, edges))
                try:
                    ref = ref_compute_layout(cfg, memory_size=1 << 16)
                except InfeasibleOverlap as e:
                    with pytest.raises(InfeasibleOverlap, match=re.escape(str(e))):
                        compute_layout(cfg, memory_size=1 << 16)
                else:
                    assert_views_match(compute_layout(cfg, memory_size=1 << 16), ref)
                checked += 1
    assert checked == 229
