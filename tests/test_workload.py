"""Scenario language, call-graph traversal accounting, the transition cost
model, the instrumented single-switch breakdown, and report round trips.

The one-pass traversal in run_scenario, which walks the fns callers before
callees and carries each fn's execution count, is checked against a naive
oracle that expands every call individually, and against closed forms on
call chains deeper than Python's recursion limit.  The breakdown cycle totals
are checked two ways: against a static recomputation from the emitted
instruction streams and against frozen values derived from that oracle.
"""

import dataclasses
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from capcomp.workload import (
    COLD_DEFAULT,
    COLD_WEIGHTS,
    CostModel,
    HOT_DEFAULT,
    HOT_WEIGHTS,
    MAX_INT_LEN,
    PHASES,
    SWITCH_PHASES,
    Scenario,
    ScenarioCall,
    ScenarioError,
    ScenarioFn,
    ScenarioSummary,
    emit_report,
    estimate_overhead,
    format_breakdown,
    format_report_table,
    parse_report,
    parse_scenario,
    run_scenario,
    switch_breakdown,
)


def fixture(name):
    import importlib.resources as ir
    return ir.files("capcomp").joinpath("fixtures", name).read_text()


# ---------------------------------------------------------------------------
# Parsing


BASIC = """
scenario demo
fn main comp=app instr=100      # entry point, declared first
fn helper comp=lib instr=40

call main helper count=3
iterations 5
cpi 1.5
"""


def test_parse_basic_scenario():
    sc = parse_scenario(BASIC)
    assert sc.name == "demo"
    assert [f.name for f in sc.fns] == ["main", "helper"]
    assert sc.fns[0].comp == "app" and sc.fns[0].instr == 100
    assert sc.calls == (ScenarioCall("main", "helper", 3, 0),)
    assert sc.iterations == 5
    assert sc.cpi == 1.5
    assert sc.root == "main"
    assert sc.fns[1].comp == "lib"


def test_parse_accepts_hex_integers():
    sc = parse_scenario("fn a comp=x instr=0x40\n"
                        "fn b comp=y instr=2\n"
                        "call a b count=0x2\n")
    assert sc.fns[0].instr == 64
    assert sc.calls[0].count == 2


def test_parse_defaults():
    sc = parse_scenario("fn solo comp=only instr=9\n", name="fallback")
    assert sc.name == "fallback"
    assert sc.iterations == 1 and sc.cpi == 1.0
    assert sc.calls == ()


@pytest.mark.parametrize("text,fragment", [
    ("scenario a b\nfn f comp=c instr=1", "scenario takes one name"),
    ("fn f comp=c", "expected fn <name> comp=<c> instr=<n>"),
    ("fn f comp=c instr=1\nfn f comp=d instr=2", "duplicate fn 'f'"),
    ("fn f co=c instr=1", "expected comp=..."),
    ("fn g comp= instr=2", "line 1: empty compartment name"),
    ("fn f comp=c instr=zz", "bad instruction count"),
    ("fn f comp=c instr=-4", "negative instruction count"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b", "expected call"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=x", "bad integer"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=0",
     "count must be positive"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=1 promote=-1",
     "promote must be non-negative"),
    ("fn a comp=c instr=1\niterations 0", "iterations must be positive"),
    ("fn a comp=c instr=1\niterations x", "bad integer 'x'"),
    ("fn a comp=c instr=1\ncpi 0", "cpi must be positive"),
    ("fn a comp=c instr=1\ncpi abc", "bad number 'abc'"),
    ("fn a comp=c instr=1\ncpi inf", "cpi must be positive and finite"),
    ("fn a comp=c instr=1\ncpi nan", "cpi must be positive and finite"),
    ("wibble 3", "unknown directive 'wibble'"),
    ("# only a comment\n", "declares no functions"),
    ("fn a comp=c instr=1\ncall a b count=1", "unknown fn 'b'"),
    ("fn b comp=c instr=1\ncall a b count=1", "unknown fn 'a'"),
])
def test_parse_rejections(text, fragment):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert fragment in str(exc.value)


def test_parse_error_carries_line_number():
    with pytest.raises(ScenarioError, match=r"^line 3:"):
        parse_scenario("scenario t\nfn a comp=c instr=1\nfn a comp=c instr=1\n")


def test_cycle_detection_names_the_loop():
    text = ("fn a comp=x instr=1\nfn b comp=y instr=1\n"
            "call a b count=1\ncall b a count=1\n")
    with pytest.raises(ScenarioError, match=r"cycle: a -> b -> a"):
        parse_scenario(text)


def test_self_call_is_a_cycle():
    with pytest.raises(ScenarioError, match=r"cycle: a -> a"):
        parse_scenario("fn a comp=x instr=1\ncall a a count=1\n")


@pytest.mark.parametrize("text,message", [
    ("scenario a b\nfn f comp=c instr=1", "line 1: scenario takes one name"),
    ("fn f comp=c", "line 1: expected fn <name> comp=<c> instr=<n>"),
    ("fn f comp=c instr=1\nfn f comp=d instr=2", "line 2: duplicate fn 'f'"),
    ("fn f co=c instr=1", "line 1: expected comp=..., got 'co=c'"),
    # a misnamed numeric key is reported by its name, not as a bad number
    ("fn f comp=c inst=1", "line 1: expected instr=..., got 'inst=1'"),
    ("fn f comp=c instr=zz", "line 1: bad instruction count"),
    ("fn f comp=c instr=-4", "line 1: negative instruction count"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b",
     "line 3: expected call <from> <to> count=<k> [promote=<n>]"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b cnt=1",
     "line 3: expected count=..., got 'cnt=1'"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=1 pro=1",
     "line 3: expected promote=..., got 'pro=1'"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=x", "line 3: bad integer"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=0",
     "line 3: count must be positive"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=1 promote=-1",
     "line 3: promote must be non-negative"),
    ("fn a comp=c instr=1\niterations 0", "line 2: iterations must be positive"),
    ("fn a comp=c instr=1\niterations x", "line 2: bad integer 'x'"),
    ("fn a comp=c instr=1\niterations", "line 2: iterations takes one integer"),
    ("fn a comp=c instr=1\ncpi 0", "line 2: cpi must be positive and finite"),
    ("fn a comp=c instr=1\ncpi abc", "line 2: bad number 'abc'"),
    ("fn a comp=c instr=1\ncpi inf", "line 2: cpi must be positive and finite"),
    ("fn a comp=c instr=1\ncpi nan", "line 2: cpi must be positive and finite"),
    ("fn a comp=c instr=1\ncpi 1 2", "line 2: cpi takes one number"),
    ("wibble 3", "line 1: unknown directive 'wibble'"),
    ("# only a comment\n", "line 1: scenario declares no functions"),
    ("fn a comp=c instr=1\ncall a b count=1", "call references unknown fn 'b'"),
    ("fn b comp=c instr=1\ncall a b count=1", "call references unknown fn 'a'"),
    ("fn a comp=c instr=1\ncall x y count=1", "call references unknown fn 'x'"),
    # unknown names are reported before cycles
    ("fn a comp=c instr=1\ncall a a count=1\ncall a z count=1",
     "call references unknown fn 'z'"),
    # a line that breaks two rules is reported by the first rule checked
    ("fn f comp=c instr=1\nfn f co=d instr=2", "line 2: duplicate fn 'f'"),
    ("fn g comp= inst=2", "line 1: empty compartment name"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b cnt=x pro=1",
     "line 3: expected count=..., got 'cnt=x'"),
    # both keys are checked before either value is read as an integer
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=x pro=1",
     "line 3: expected promote=..., got 'pro=1'"),
    ("fn a comp=c instr=1\nfn b comp=d instr=1\ncall a b count=0 promote=-1",
     "line 3: count must be positive"),
])
def test_parse_rejection_messages(text, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


LONG = "1" + "0" * MAX_INT_LEN         # one character over the bound
LONG_INT_TEXTS = {
    "instr": f"fn a comp=x instr={LONG}",
    "count": f"fn a comp=x instr=1\nfn b comp=y instr=1\ncall a b count={LONG}",
    "promote": f"fn a comp=x instr=1\nfn b comp=y instr=1\ncall a b count=1 promote={LONG}",
    "iterations": f"fn a comp=x instr=1\niterations {LONG}",
}


@pytest.fixture(params=["default", "unlimited"])
def int_str_limit(request):
    """Run once at the interpreter's own int-string limit, and once with the
    limit lifted where the interpreter has one."""
    if request.param == "unlimited":
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no int-string limit")
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        request.addfinalizer(lambda: sys.set_int_max_str_digits(old))


@pytest.mark.parametrize("field", sorted(LONG_INT_TEXTS))
def test_an_integer_over_the_length_bound_is_named_as_such(int_str_limit, field):
    # the integer is well formed; before the bound, CPython's own limit
    # reported it as a bad integer, and an interpreter without one took it
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(LONG_INT_TEXTS[field])
    line = LONG_INT_TEXTS[field].count("\n") + 1
    assert str(exc.value) == f"line {line}: integer longer than 4300 characters"


def test_an_integer_at_the_length_bound_parses():
    n = "1" + "0" * (MAX_INT_LEN - 1)
    sc = parse_scenario(f"fn a comp=x instr={n}\nfn b comp=y instr=1\n"
                        f"call a b count={n} promote={n}\niterations {n}\n")
    assert sc.fns[0].instr == sc.calls[0].count == sc.calls[0].promote == sc.iterations == int(n)


@pytest.mark.parametrize("text,message", [
    # the bound is a rule of the text: both keys are checked first, and the
    # length before either value is read as an integer
    (f"fn a comp=x instr=1\nfn b comp=y instr=1\ncall a b count={LONG} pro=1",
     "line 3: expected promote=..., got 'pro=1'"),
    (f"fn a comp=x instr=1\nfn b comp=y instr=1\ncall a b count=x promote={LONG}",
     "line 3: integer longer than 4300 characters"),
    (f"fn a comp=x instr=1\nfn a comp=y instr={LONG}", "line 2: duplicate fn 'a'"),
    (f"fn a comp=x inst={LONG}", f"line 1: expected instr=..., got 'inst={LONG}'"),
], ids=["promote key", "count value", "duplicate fn", "instr key"])
def test_the_length_bound_keeps_the_order_of_the_checks(text, message):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


def test_parse_whitespace_comments_and_repeats():
    sc = parse_scenario("  scenario first   # named twice\n"
                        "\tscenario second\n"
                        "\n"
                        "   # a whole-line comment\n"
                        "fn a\tcomp=x   instr=3#no space before the comment\n"
                        "iterations 2\niterations 0x3\n"
                        "cpi 2\ncpi 1e0\n")
    assert sc == Scenario("second", (ScenarioFn("a", "x", 3),), (), 3, 1.0)


def test_cycle_message_follows_declaration_and_call_order():
    # the first cycle found from the first declared fn, callees in call order
    text = ("fn a comp=x instr=1\nfn b comp=x instr=1\nfn c comp=x instr=1\n"
            "fn d comp=x instr=1\n"
            "call a b count=1\ncall b d count=1\ncall b c count=1\n"
            "call c b count=1\ncall d a count=1\n")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == "call graph has a cycle: a -> b -> d -> a"
    # a cycle no path from the entry point reaches is still rejected
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("fn a comp=x instr=1\nfn b comp=x instr=1\n"
                       "fn c comp=x instr=1\ncall b c count=1\ncall c b count=1\n")
    assert str(exc.value) == "call graph has a cycle: b -> c -> b"


BUNDLED = {
    "libsodium_all.scn": Scenario(
        "libsodium_all",
        (ScenarioFn("main", "app", 4409), ScenarioFn("secretbox_easy", "sodium", 17300)),
        (ScenarioCall("main", "secretbox_easy", 5),), 1, 2.2),
    "libsodium_chacha_only.scn": Scenario(
        "libsodium_chacha_only",
        (ScenarioFn("main", "app", 6600), ScenarioFn("chacha20_xor", "sodium", 2888)),
        (ScenarioCall("main", "chacha20_xor", 65),), 1, 2.2),
    "libsodium_hex.scn": Scenario(
        "libsodium_hex",
        (ScenarioFn("main", "app", 500000), ScenarioFn("hex2bin", "sodium", 2525),
         ScenarioFn("bin2hex", "sodium", 2525)),
        (ScenarioCall("main", "hex2bin", 1), ScenarioCall("main", "bin2hex", 1)), 1, 2.2),
    "promote_pipeline.scn": Scenario(
        "promote_pipeline",
        (ScenarioFn("driver", "app", 20000), ScenarioFn("stage", "filter", 1500)),
        (ScenarioCall("driver", "stage", 24, 1),), 10, 1.1),
    "sqlite_fs.scn": Scenario(
        "sqlite_fs",
        (ScenarioFn("query", "sqlite", 24257), ScenarioFn("vfs_io", "vfs", 500)),
        (ScenarioCall("query", "vfs_io", 80),), 1, 0.83),
}


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_scenarios_parse_to_reference(name):
    sc = parse_scenario(fixture(name))
    assert sc == BUNDLED[name]
    assert hash(sc) == hash(BUNDLED[name])
    assert sc.fns[0] == ScenarioFn(*dataclasses.astuple(BUNDLED[name].fns[0]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.fns[0].instr = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc.calls[0].count = 1
    assert not hasattr(sc.calls[0], "__dict__")


# ---------------------------------------------------------------------------
# Traversal accounting


CHAIN = """
scenario chain
fn top comp=a instr=10
fn mid comp=b instr=7
fn leaf comp=b instr=3
call top mid count=2 promote=1
call mid leaf count=3
iterations 4
"""


def test_run_scenario_hand_traced_chain():
    # one top execution: 10 + 2*(7 + 3*3) = 42 instructions
    # top->mid crosses a|b twice per call, mid->leaf stays inside b
    s = run_scenario(parse_scenario(CHAIN))
    assert s.instructions == 4 * 42
    assert s.transitions == 4 * 4
    assert s.promotions == 4 * 2
    assert s.edge_crossings == (("top", "mid", 16),)
    assert s.switches_per_1k == pytest.approx(1000.0 * 16 / 168)


def test_same_compartment_calls_are_free():
    s = run_scenario(parse_scenario(
        "fn a comp=one instr=5\nfn b comp=one instr=5\ncall a b count=100\n"))
    assert s.instructions == 505
    assert s.transitions == 0
    assert s.edge_crossings == ()


def test_diamond_counts_shared_subtree_once_per_arrival():
    text = ("fn a comp=p instr=1\nfn b comp=q instr=1\nfn c comp=r instr=1\n"
            "fn d comp=p instr=1\n"
            "call a b count=1\ncall a c count=1\n"
            "call b d count=1\ncall c d count=1\n")
    s = run_scenario(parse_scenario(text))
    assert s.instructions == 5          # a, b, c and two arrivals at d
    assert s.transitions == 8           # every edge crosses, twice each
    assert sorted(s.edge_crossings) == [
        ("a", "b", 2), ("a", "c", 2), ("b", "d", 2), ("c", "d", 2)]


def test_zero_instruction_scenario_has_no_defined_rate():
    s = run_scenario(parse_scenario("fn a comp=x instr=0\n"))
    assert s.instructions == 0
    with pytest.raises(ZeroDivisionError):
        s.switches_per_1k
    with pytest.raises(ScenarioError, match="overhead undefined"):
        estimate_overhead(s)


def _naive_summary(sc):
    """Expand every call individually; no memoization anywhere."""
    comp = {f.name: f.comp for f in sc.fns}
    instr = {f.name: f.instr for f in sc.fns}
    by_caller = {}
    for c in sc.calls:
        by_caller.setdefault(c.caller, []).append(c)
    tot = {"i": 0, "s": 0, "p": 0}
    edges = {}

    def walk(fn):
        tot["i"] += instr[fn]
        for c in by_caller.get(fn, ()):
            for _ in range(c.count):
                tot["p"] += c.promote
                if comp[fn] != comp[c.callee]:
                    tot["s"] += 2
                    edges[(fn, c.callee)] = edges.get((fn, c.callee), 0) + 2
                walk(c.callee)

    for _ in range(sc.iterations):
        walk(sc.root)
    crossings = tuple(sorted((f, g, n) for (f, g), n in edges.items()))
    return tot["i"], tot["s"], tot["p"], crossings


@st.composite
def scenario_texts(draw):
    n = draw(st.integers(1, 6))
    lines = ["scenario prop"]
    for i in range(n):
        comp = draw(st.sampled_from(["c0", "c1", "c2"]))
        lines.append(f"fn f{i} comp={comp} instr={draw(st.integers(0, 300))}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=8)):
            cnt = draw(st.integers(1, 3))
            pro = draw(st.integers(0, 2))
            lines.append(f"call f{i} f{j} count={cnt} promote={pro}")
    lines.append(f"iterations {draw(st.integers(1, 3))}")
    return "\n".join(lines)


@settings(deadline=None, max_examples=150)
@given(scenario_texts())
def test_memoized_traversal_matches_naive_expansion(text):
    sc = parse_scenario(text)
    s = run_scenario(sc)
    i, sw, p, edges = _naive_summary(sc)
    assert (s.instructions, s.transitions, s.promotions) == (i, sw, p)
    assert s.edge_crossings == edges


@st.composite
def any_direction_scenario_texts(draw):
    """Up to 12 fns with calls in either direction; some texts are cyclic."""
    n = draw(st.integers(1, 12))
    lines = ["scenario prop"]
    for i in range(n):
        comp = draw(st.sampled_from(["c0", "c1", "c2"]))
        lines.append(f"fn f{i} comp={comp} instr={draw(st.integers(0, 300))}")
    if n > 1:
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for i, j in draw(st.lists(st.sampled_from(pairs), max_size=10)):
            cnt = draw(st.integers(1, 3))
            pro = draw(st.integers(0, 2))
            lines.append(f"call f{i} f{j} count={cnt} promote={pro}")
    lines.append(f"iterations {draw(st.integers(1, 3))}")
    return "\n".join(lines)


@settings(deadline=None, max_examples=150)
@given(any_direction_scenario_texts())
def test_traversal_matches_naive_expansion_in_any_call_direction(text):
    try:
        sc = parse_scenario(text)
    except ScenarioError as e:
        assert str(e).startswith("call graph has a cycle: ")
        assume(False)
    s = run_scenario(sc)
    i, sw, p, edges = _naive_summary(sc)
    assert (s.instructions, s.transitions, s.promotions) == (i, sw, p)
    assert s.edge_crossings == edges


DEEP = 5000


def chain_text(n, cycle=False):
    """f0 -> f1 -> ... -> f(n-1), alternating two compartments; f_i runs
    i instructions, and every call promotes one allocation."""
    lines = ["scenario chain", "iterations 3"]
    lines += [f"fn f{i} comp=c{i % 2} instr={i}" for i in range(n)]
    lines += [f"call f{i} f{i + 1} count=1 promote=1" for i in range(n - 1)]
    if cycle:
        lines.append(f"call f{n - 1} f0 count=1")
    return "\n".join(lines) + "\n"


def test_deep_chain_parses_and_runs_without_a_recursion_limit():
    s = run_scenario(parse_scenario(chain_text(DEEP)))
    assert s.instructions == 3 * DEEP * (DEEP - 1) // 2
    assert s.transitions == 3 * 2 * (DEEP - 1)
    assert s.promotions == 3 * (DEEP - 1)
    assert s.edge_crossings == tuple(sorted(
        (f"f{i}", f"f{i + 1}", 6) for i in range(DEEP - 1)))


def test_deep_chain_through_the_cli(tmp_path, capsys):
    from capcomp.cli import main

    path = tmp_path / "chain.scn"
    path.write_text(chain_text(DEEP))
    assert main(["run", str(path), "--format", "records"]) == 0
    out = capsys.readouterr().out
    assert f"transitions={3 * 2 * (DEEP - 1)} " in out
    assert out.count("\nedge ") == DEEP - 1


def test_deep_cycle_is_rejected_and_named():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(chain_text(DEEP, cycle=True))
    names = [f"f{i}" for i in range(DEEP)] + ["f0"]
    assert str(exc.value) == "call graph has a cycle: " + " -> ".join(names)


def test_run_scenario_rejects_a_hand_built_cycle():
    sc = Scenario("loop", (ScenarioFn("a", "x", 1), ScenarioFn("b", "y", 1)),
                  (ScenarioCall("a", "b", 1), ScenarioCall("b", "a", 1)))
    with pytest.raises(ScenarioError, match=r"^call graph has a cycle: a -> b -> a$"):
        run_scenario(sc)


# ---------------------------------------------------------------------------
# One walk per Scenario value


def count_walks(monkeypatch):
    """Record the Scenario of every depth-first search from now on."""
    from capcomp import workload

    walks = []
    search = workload._search_order

    def counted(sc):
        walks.append(sc)
        return search(sc)

    monkeypatch.setattr(workload, "_search_order", counted)
    return walks


def test_parse_then_run_walks_the_graph_once(monkeypatch):
    walks = count_walks(monkeypatch)
    sc = parse_scenario(CHAIN)
    assert len(walks) == 1 and walks[0] is sc
    first = run_scenario(sc)
    assert run_scenario(sc) == first
    assert len(walks) == 1
    assert (first.instructions, first.transitions, first.promotions) == (168, 16, 8)


def test_a_hand_built_scenario_walks_once_inside_run_scenario(monkeypatch):
    walks = count_walks(monkeypatch)
    sc = Scenario("hand", (ScenarioFn("a", "x", 1), ScenarioFn("b", "y", 2)),
                  (ScenarioCall("a", "b", 3),))
    assert walks == [] and sc._order is None
    assert run_scenario(sc).instructions == 7
    assert run_scenario(sc).transitions == 6
    assert len(walks) == 1 and walks[0] is sc


def test_a_hand_built_cycle_stores_nothing_and_raises_every_time(monkeypatch):
    walks = count_walks(monkeypatch)
    sc = Scenario("loop", (ScenarioFn("a", "x", 1),), (ScenarioCall("a", "a", 1),))
    for _ in range(2):
        with pytest.raises(ScenarioError, match=r"^call graph has a cycle: a -> a$"):
            run_scenario(sc)
    assert sc._order is None and len(walks) == 2


def test_stored_order_is_tuples_left_out_of_eq_hash_and_repr():
    sc = parse_scenario(CHAIN)
    order = sc._order
    assert type(order) is tuple
    for item in order:
        assert type(item) is tuple and len(item) == 2
        fn, calls = item
        assert type(fn) is ScenarioFn
        assert type(calls) is tuple
        assert all(type(c) is ScenarioCall for c in calls)
    assert [(f.name, [c.callee for c in calls]) for f, calls in order] == [
        ("top", ["mid"]), ("mid", ["leaf"]), ("leaf", [])]

    fresh = Scenario(sc.name, sc.fns, sc.calls, sc.iterations, sc.cpi)
    assert fresh._order is None
    assert fresh == sc and hash(fresh) == hash(sc) and repr(fresh) == repr(sc)
    assert "_order" not in repr(sc)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sc._order = None
    with pytest.raises(TypeError):
        Scenario(sc.name, sc.fns, sc.calls, _order=order)


def test_replace_starts_without_the_order_and_walks_again(monkeypatch):
    sc = parse_scenario(CHAIN)
    walks = count_walks(monkeypatch)
    copy = dataclasses.replace(sc, cpi=2.0)
    assert copy._order is None
    s = run_scenario(copy)
    assert len(walks) == 1 and walks[0] is copy
    assert copy._order == sc._order
    assert s.cpi == 2.0
    assert dataclasses.replace(s, cpi=sc.cpi) == run_scenario(sc)


@settings(deadline=None, max_examples=100)
@given(any_direction_scenario_texts())
def test_stored_order_gives_the_summary_of_a_fresh_copy(text):
    try:
        sc = parse_scenario(text)
    except ScenarioError as e:
        assert str(e).startswith("call graph has a cycle: ")
        assume(False)
    assert sc._order is not None
    fresh = dataclasses.replace(sc)
    assert fresh._order is None
    assert run_scenario(sc) == run_scenario(fresh)
    assert fresh._order == sc._order


def test_root_with_callers_runs_once_per_iteration():
    # the entry point is the first declared fn, even when another fn calls it
    text = ("fn main comp=a instr=10\nfn boot comp=b instr=1000\n"
            "call boot main count=5\niterations 3\n")
    s = run_scenario(parse_scenario(text))
    assert (s.instructions, s.transitions, s.promotions) == (30, 0, 0)
    assert s.edge_crossings == ()


def test_unreachable_fns_add_nothing_and_leave_no_edges():
    text = ("fn main comp=a instr=10\nfn leaf comp=b instr=4\n"
            "fn orphan comp=c instr=1000\nfn orphan_leaf comp=d instr=7\n"
            "call main leaf count=2\n"
            "call orphan orphan_leaf count=9 promote=3\n"
            "call orphan leaf count=4 promote=1\n")
    s = run_scenario(parse_scenario(text))
    assert (s.instructions, s.transitions, s.promotions) == (18, 4, 0)
    assert s.edge_crossings == (("main", "leaf", 4),)


def test_repeated_call_lines_sum_their_counts():
    text = ("fn main comp=a instr=1\nfn leaf comp=b instr=10\n"
            "call main leaf count=2 promote=1\ncall main leaf count=3\n"
            "iterations 2\n")
    s = run_scenario(parse_scenario(text))
    assert s.instructions == 2 * (1 + 5 * 10)
    assert s.transitions == 2 * 2 * 5
    assert s.promotions == 2 * 2
    assert s.edge_crossings == (("main", "leaf", 20),)


# ---------------------------------------------------------------------------
# Cost model


def summary(instr, trans, promos=0, cpi=1.0):
    return ScenarioSummary("synthetic", 1, cpi, instr, trans, promos, ())


def test_cost_model_defaults():
    cm = CostModel()
    assert (cm.hot, cm.cold, cm.hot_fraction, cm.promotion) == \
        (400.0, 950.0, 0.999, 250.0)
    assert cm.effective_switch() == pytest.approx(400.55)


def test_effective_switch_blends_hot_and_cold():
    cm = CostModel(hot=100.0, cold=900.0, hot_fraction=0.75)
    assert cm.effective_switch() == pytest.approx(300.0)


def test_overhead_pure_hot_dense_switching():
    # 2.49 switches per 1k instructions at cpi 0.83, every switch hot
    cm = CostModel(hot=400.0, cold=950.0, hot_fraction=1.0)
    est = estimate_overhead(summary(1_000_000, 2490, cpi=0.83), cm)
    assert est.switches_per_1k == pytest.approx(2.49)
    assert est.percent == pytest.approx(120.0)


def test_overhead_pure_hot_sparse_switching():
    cm = CostModel(hot=400.0, cold=950.0, hot_fraction=1.0)
    est = estimate_overhead(summary(1_000_000, 669, cpi=2.2), cm)
    assert est.percent == pytest.approx(100.0 * 669 * 400 / 2_200_000)
    assert est.percent == pytest.approx(12.164, abs=5e-4)


def test_overhead_charges_promotions():
    est = estimate_overhead(summary(1000, 2, promos=4))
    assert est.extra_cycles == pytest.approx(2 * 400.55 + 4 * 250.0)
    assert est.baseline_cycles == pytest.approx(1000.0)
    assert est.percent == pytest.approx(180.11)


def test_overhead_reads_the_summary_cpi():
    assert estimate_overhead(summary(10_000, 10, cpi=2.0)).percent == \
        pytest.approx(estimate_overhead(summary(10_000, 10, cpi=1.0)).percent / 2)
    with pytest.raises(ScenarioError, match="cpi must be positive"):
        estimate_overhead(summary(10_000, 10, cpi=0.0))


@pytest.mark.parametrize("cpi", [float("inf"), float("nan")])
def test_overhead_rejects_non_finite_cpi(cpi):
    with pytest.raises(ScenarioError, match="cpi must be positive and finite"):
        estimate_overhead(summary(10_000, 10, cpi=cpi))


@pytest.mark.parametrize("field", ["hot", "cold", "promotion"])
@pytest.mark.parametrize("value", [-400.0, -1e-9, float("nan"), float("inf"), float("-inf")])
def test_cost_model_rejects_negative_and_non_finite_costs(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite cost >= 0"):
        CostModel(**{field: value})


@pytest.mark.parametrize("value", [-0.1, 1.5, float("nan")])
def test_cost_model_rejects_hot_fraction_outside_unit_interval(value):
    with pytest.raises(ValueError, match=r"hot_fraction must lie in \[0, 1\]"):
        CostModel(hot_fraction=value)


def test_cost_model_accepts_zero_costs():
    cm = CostModel(hot=0.0, cold=0.0, hot_fraction=0.0, promotion=0.0)
    assert estimate_overhead(summary(1000, 2, promos=4), cm).percent == 0.0


TOO_LARGE = "^scenario totals too large for a finite overhead$"


def huge_text(count_zeros=0, instr_zeros=0):
    return (f"fn a comp=x instr=1{'0' * instr_zeros}\nfn b comp=y instr=1\n"
            f"call a b count=1{'0' * count_zeros}\n")


@pytest.mark.parametrize("count_zeros,instr_zeros", [
    (306, 0),       # every float result overflows to inf
    (330, 0),       # the transitions do not convert to a float
    (0, 400),       # the instructions do not convert to a float
])
def test_overhead_rejects_scenario_totals_too_large_for_a_float(count_zeros, instr_zeros):
    s = run_scenario(parse_scenario(huge_text(count_zeros, instr_zeros)))
    with pytest.raises(ScenarioError, match=TOO_LARGE):
        estimate_overhead(s)


@pytest.mark.parametrize("count_zeros,instr_zeros", [(330, 0), (0, 400)])
def test_rate_of_totals_that_do_not_convert_to_a_float_is_a_scenario_error(count_zeros,
                                                                          instr_zeros):
    # a library caller reading the property gets the error `estimate_overhead`
    # raises, not a bare OverflowError
    s = run_scenario(parse_scenario(huge_text(count_zeros, instr_zeros)))
    with pytest.raises(ScenarioError, match=TOO_LARGE):
        s.switches_per_1k


FREE = CostModel(hot=0.0, cold=0.0, promotion=0.0)


@pytest.mark.parametrize("s,cm", [
    (summary(1, 10**306), FREE),                          # switches_per_1k alone
    (summary(10**300, 0, promos=10**307), CostModel()),   # extra_cycles and percent
    (summary(10**308, 0, cpi=2.0), CostModel()),          # baseline_cycles alone
    (summary(1, 10**303, cpi=1e-10), CostModel()),        # percent alone
], ids=["rate", "extra", "baseline", "percent"])
def test_overhead_rejects_each_non_finite_result(s, cm):
    with pytest.raises(ScenarioError, match=TOO_LARGE):
        estimate_overhead(s, cm)


def test_overhead_just_below_the_float_range_is_finite():
    est = estimate_overhead(run_scenario(parse_scenario(huge_text(count_zeros=300))))
    assert est.switches == 2 * 10**300
    assert est.percent == pytest.approx(100.0 * 2e300 * 400.55 / (1 + 1e300))


# ---------------------------------------------------------------------------
# Bundled fixture scenarios, totals frozen


FIXTURE_FACTS = [
    # file, instructions, transitions, promotions, cpi, rate str, percent str
    ("libsodium_hex.scn", 505050, 4, 0, 2.2, "0.008", "0.144"),
    ("libsodium_chacha_only.scn", 194320, 130, 0, 2.2, "0.669", "12.180"),
    ("libsodium_all.scn", 90909, 10, 0, 2.2, "0.110", "2.003"),
    ("sqlite_fs.scn", 64257, 160, 0, 0.83, "2.490", "120.165"),
    ("promote_pipeline.scn", 560000, 480, 240, 1.1, "0.857", "40.952"),
]


@pytest.mark.parametrize("name,instr,trans,promos,cpi,rate,pct", FIXTURE_FACTS)
def test_fixture_scenario_totals(name, instr, trans, promos, cpi, rate, pct):
    s = run_scenario(parse_scenario(fixture(name)))
    assert s.name == name.removesuffix(".scn")
    assert s.instructions == instr
    assert s.transitions == trans
    assert s.promotions == promos
    assert s.cpi == cpi
    est = estimate_overhead(s)
    assert f"{est.switches_per_1k:.3f}" == rate
    assert f"{est.percent:.3f}" == pct


def test_fixture_overheads_order_by_switch_density():
    pcts = {}
    for name in ("libsodium_hex.scn", "libsodium_chacha_only.scn",
                 "libsodium_all.scn"):
        s = run_scenario(parse_scenario(fixture(name)))
        pcts[name] = estimate_overhead(s).percent
    assert pcts["libsodium_chacha_only.scn"] > pcts["libsodium_all.scn"] \
        > pcts["libsodium_hex.scn"]


def test_fixture_edge_crossings():
    s = run_scenario(parse_scenario(fixture("libsodium_hex.scn")))
    assert s.edge_crossings == (("main", "bin2hex", 2), ("main", "hex2bin", 2))
    s = run_scenario(parse_scenario(fixture("sqlite_fs.scn")))
    assert s.edge_crossings == (("query", "vfs_io", 160),)


# ---------------------------------------------------------------------------
# Single-switch breakdown


EXPECT_COUNTS = {
    "gate_prologue": 37,
    "switcher": 61,
    "trampoline_enter": 4,
    "callee_body": 1,
    "trampoline_return": 4,
    "gate_epilogue": 62,
}


def test_breakdown_phase_instruction_counts():
    bd = switch_breakdown()
    assert bd.phase_instructions == EXPECT_COUNTS
    assert bd.instructions == sum(EXPECT_COUNTS.values()) == 169
    # cold run retires the identical instruction stream
    assert switch_breakdown(cold=True).phase_instructions == EXPECT_COUNTS


def test_breakdown_hot_cycles():
    bd = switch_breakdown()
    assert bd.phase_cycles["gate_prologue"] == pytest.approx(70.2)
    assert bd.phase_cycles["switcher"] == pytest.approx(199.2)
    assert bd.phase_cycles["trampoline_enter"] == pytest.approx(2.8)
    assert bd.phase_cycles["trampoline_return"] == pytest.approx(47.1)
    assert bd.phase_cycles["gate_epilogue"] == pytest.approx(43.4)
    assert bd.phase_cycles["callee_body"] == pytest.approx(0.7)
    assert bd.total == pytest.approx(362.7)


def test_breakdown_cold_cycles():
    bd = switch_breakdown(cold=True)
    assert bd.phase_cycles["gate_prologue"] == pytest.approx(177.6)
    assert bd.phase_cycles["switcher"] == pytest.approx(529.6)
    assert bd.phase_cycles["trampoline_enter"] == pytest.approx(6.4)
    assert bd.phase_cycles["trampoline_return"] == pytest.approx(124.8)
    assert bd.phase_cycles["gate_epilogue"] == pytest.approx(99.2)
    assert bd.phase_cycles["callee_body"] == pytest.approx(1.6)
    assert bd.total == pytest.approx(937.6)


def test_breakdown_total_partitions_switch_phases():
    for cold in (False, True):
        bd = switch_breakdown(cold=cold)
        assert bd.total == pytest.approx(
            sum(bd.phase_cycles[p] for p in SWITCH_PHASES))
        assert bd.instructions == sum(bd.phase_instructions.values())
        assert bd.largest_phase() == "switcher"


def test_breakdown_totals_sit_in_the_expected_bands():
    assert 300.0 <= switch_breakdown().total <= 400.0
    assert 900.0 <= switch_breakdown(cold=True).total <= 1000.0


def test_breakdown_matches_static_op_composition():
    """Recompute every phase's cycle bill from the emitted instruction
    streams; the instrumented execution must agree."""
    from capcomp.isa import retl
    from capcomp.layout import compute_layout, parse_config
    from capcomp.runtime import (
        GateDescriptor,
        TRAMP_ENTER_SLOTS,
        emit_gate_sequence,
        emit_switcher,
        emit_trampoline,
    )

    plan = compute_layout(parse_config(
        "compartment origin code=256 data=256 stack=4096 heap=256\n"
        "compartment target code=256 data=256 stack=4096 heap=256\n"),
        memory_size=1 << 16)
    code = emit_gate_sequence(
        plan, GateDescriptor("origin", "target", plan.code_bounds["target"][0],
                             dest=0), [0])
    tramp = emit_trampoline()
    phase_ops = {
        "gate_prologue": [i.op for i in code.instructions[:code.prologue_len]],
        "switcher": [i.op for i in emit_switcher(plan)],
        "trampoline_enter": [i.op for i in tramp[:TRAMP_ENTER_SLOTS]],
        "callee_body": [retl().op],
        "trampoline_return": [i.op for i in tramp[TRAMP_ENTER_SLOTS:]],
        "gate_epilogue": [i.op for i in code.instructions[code.prologue_len:]],
    }
    for cold, table, default in ((False, HOT_WEIGHTS, HOT_DEFAULT),
                                 (True, COLD_WEIGHTS, COLD_DEFAULT)):
        bd = switch_breakdown(cold=cold)
        for phase, ops in phase_ops.items():
            assert bd.phase_instructions[phase] == len(ops)
            want = sum(table.get(op, default) for op in ops)
            assert bd.phase_cycles[phase] == pytest.approx(want), (cold, phase)


def test_breakdown_prices_one_round_trip_of_two_transitions():
    """`capcomp micro` weighs one round trip, and a round trip is two
    transitions: the switcher's call leg and its return leg, one domain
    switch each.  `CostModel.hot` is charged per transition, so one
    cross-compartment call costs 2 * hot in the model."""
    from capcomp.isa import retl
    from capcomp.layout import boot_init, compute_layout, install_function, parse_config
    from capcomp.runtime import (GateDescriptor, SWITCHER_END, SWITCHER_RET_ENTRY,
                                 call_compartment)
    from capcomp.workload import _BREAKDOWN_CONFIG

    bd = switch_breakdown()
    # both legs of the switcher run once each
    assert bd.phase_instructions["switcher"] == SWITCHER_END
    assert 0 < SWITCHER_RET_ENTRY < SWITCHER_END

    img = boot_init(compute_layout(parse_config(_BREAKDOWN_CONFIG), memory_size=1 << 16))
    entry = install_function(img, "target", [retl()])
    before = img.machine.switches
    st_ = call_compartment(img, GateDescriptor("origin", "target", entry, dest=0), [0])
    assert st_.fault is None
    assert st_.switches - before == 2

    one_call = run_scenario(parse_scenario(
        "fn a comp=origin instr=1\nfn b comp=target instr=1\ncall a b count=1\n"))
    assert one_call.transitions == 2
    cm = CostModel(hot_fraction=1.0, promotion=0.0)
    assert estimate_overhead(one_call, cm).extra_cycles == 2 * cm.hot
    assert bd.total / one_call.transitions == pytest.approx(181.35)


def reference_breakdown(cold):
    """The breakdown on a freshly parsed, planned and booted image: the same
    phase helpers in the same order, each retired step weighed from the
    op-keyed tables with a per-step `+=`."""
    from capcomp.isa import Op, retl
    from capcomp.layout import boot_init, compute_layout, install_function, parse_config
    from capcomp.machine import run
    from capcomp.runtime import (GateDescriptor, gate_call, switcher_switch,
                                 trampoline_enter, trampoline_return)
    from capcomp.workload import SwitchBreakdown, _BREAKDOWN_CONFIG

    img = boot_init(compute_layout(parse_config(_BREAKDOWN_CONFIG), memory_size=1 << 16))
    st = img.machine
    gate = GateDescriptor("origin", "target", install_function(img, "target", [retl()]), dest=0)
    phases = (
        ("gate_prologue", lambda: gate_call(img, gate, [0])),
        ("switcher", lambda: switcher_switch(img)),
        ("trampoline_enter", lambda: trampoline_enter(img)),
        ("callee_body", lambda: run(st, img.mem, img.program, max_steps=1)),
        ("trampoline_return", lambda: trampoline_return(img)),
        ("switcher", lambda: switcher_switch(img)),
        ("gate_epilogue", lambda: run(st, img.mem, img.program, max_steps=10_000)),
    )
    weights, default = (COLD_WEIGHTS, COLD_DEFAULT) if cold else (HOT_WEIGHTS, HOT_DEFAULT)
    cycles = dict.fromkeys(PHASES, 0.0)
    counts = dict.fromkeys(PHASES, 0)
    for phase, run_phase in phases:
        st.events = []
        run_phase()
        assert st.fault is None
        for ev in st.events:
            op = img.program[ev[1]].op
            if ev[0] == "step" and op is not Op.HALT:
                cycles[phase] += weights.get(op, default)
                counts[phase] += 1
    return SwitchBreakdown(cycles, counts, sum(cycles[p] for p in SWITCH_PHASES),
                           sum(counts.values()))


def test_breakdown_is_history_free(capsys):
    """Each call gives exactly what a freshly booted image gives, whatever
    ran before it in the process: the other weight table, `capcomp micro`,
    or a caller writing into an earlier result's dicts."""
    from capcomp.cli import main

    hot, cold = reference_breakdown(False), reference_breakdown(True)
    assert hot.total == pytest.approx(362.7) and cold.total == pytest.approx(937.6)
    assert switch_breakdown() == hot
    assert switch_breakdown(cold=True) == cold
    assert switch_breakdown() == hot

    assert main(["micro", "--cold"]) == 0
    assert "937.6" in capsys.readouterr().out
    assert switch_breakdown() == hot

    for bd in (switch_breakdown(), switch_breakdown(cold=True)):
        bd.phase_cycles["switcher"] += 1.0
        bd.phase_cycles.pop("callee_body")
        bd.phase_instructions["switcher"] = 0
    assert switch_breakdown() == hot
    assert switch_breakdown(cold=True) == cold


def test_format_breakdown_table():
    text = format_breakdown(switch_breakdown(), "steady state")
    assert text.startswith("single-switch latency, steady state:")
    for phase in PHASES:
        assert phase in text
    assert "switch total (callee excluded)" in text
    assert "362.7" in text


# ---------------------------------------------------------------------------
# Reports


def test_report_round_trip():
    s = run_scenario(parse_scenario(fixture("sqlite_fs.scn")))
    cm = CostModel()
    est = estimate_overhead(s, cm)
    parsed = parse_report(emit_report(s, est, cm))
    assert parsed["scenario"]["name"] == "sqlite_fs"
    assert int(parsed["scenario"]["iterations"]) == s.iterations
    assert int(parsed["totals"]["instructions"]) == 64257
    assert int(parsed["totals"]["transitions"]) == 160
    assert int(parsed["totals"]["promotions"]) == 0
    assert parsed["rate"]["switches_per_1k"] == "2.490"
    assert float(parsed["cost"]["hot"]) == cm.hot
    assert float(parsed["cost"]["hot_fraction"]) == cm.hot_fraction
    assert float(parsed["cost"]["cpi"]) == 0.83
    assert parsed["overhead"]["percent"] == "120.165"
    assert parsed["edges"] == [("query", "vfs_io", 160)]


def test_parse_report_odd_input():
    text = ("totals a=1 a=2\n"              # a repeated key: the last wins
            "odd a=b=c k=x-y=3\n"           # '=' inside a value
            "dash x-y=3\n"                  # the key match starts after '-'
            "bare word k=v\n"               # a token with no '=' is skipped
            "\n   \n"
            "   cost hot=1 \t cold=2\n"     # leading whitespace, tabs
            "edge from=a to=b crossings=3\n"
            "edge from=a to=b crossings=4\n"
            "lonely\n")
    assert parse_report(text) == {
        "edges": [("a", "b", 3), ("a", "b", 4)],
        "totals": {"a": "2"},
        "odd": {"a": "b=c", "k": "x-y=3"},
        "dash": {"y": "3"},
        "bare": {"k": "v"},
        "cost": {"hot": "1", "cold": "2"},
        "lonely": {},
    }
    assert parse_report("") == {"edges": []}


def test_report_table_facts():
    s = run_scenario(parse_scenario(fixture("sqlite_fs.scn")))
    cm = CostModel()
    text = format_report_table(s, estimate_overhead(s, cm), cm)
    assert "switches per 1k instr" in text and "2.490" in text
    assert "effective switch cost" in text and "400.55 cycles" in text
    assert "overhead" in text and "120.165 %" in text
    assert "query -> vfs_io: 160" in text
