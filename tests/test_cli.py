"""End-to-end checks of the command-line front end: exit codes and the
load-bearing lines of each subcommand's output."""

import importlib.resources as ir

import pytest

from capcomp import layout
from capcomp.capability import Perm
from capcomp.cli import build_parser, main
from capcomp.layout import compute_layout, parse_config
from capcomp.memory import TaggedMemory


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_layout_table_and_audit(capsys):
    code, out, err = run_cli(capsys, "layout", "two_comp.cfg")
    assert code == 0 and err == ""
    assert "switcher_code" in out and "app.heap" in out
    assert "audit clean; 11 regions" in out


def test_layout_records_format(capsys):
    code, out, _ = run_cli(capsys, "layout", "two_comp.cfg",
                           "--format", "records", "--no-audit")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert all(l.startswith("region name=") for l in lines)
    assert "region name=app.code kind=code base=64 top=576 owners=app" in lines


def test_layout_missing_file_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "layout", "no_such_file.cfg")
    assert code == 2
    assert err.startswith("error:") and "bundled fixtures" in err


def test_layout_directory_is_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "layout", str(tmp_path))
    assert code == 2
    assert err.startswith("error:") and "bundled fixtures" in err


def test_layout_shared_region_named_cap_table_is_exit_2(capsys, tmp_path):
    cfg = tmp_path / "clash.cfg"
    cfg.write_text("compartment app code=512 data=512 stack=512 heap=0\n"
                   "compartment lib code=512 data=512 stack=512 heap=0\n"
                   "shared cap_table size=64 between app,lib mode=overlap\n")
    code, out, err = run_cli(capsys, "layout", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: line 3: 'cap_table' names the switcher's own region\n"


def test_layout_memory_size_accepts_hex(capsys):
    code, out, _ = run_cli(capsys, "layout", "two_comp.cfg",
                           "--memory-size", "0x10000")
    assert code == 0


def test_one_memory_size_default():
    cfg = parse_config(ir.files("capcomp").joinpath("fixtures", "two_comp.cfg").read_text())
    cli_default = build_parser().parse_args(["layout", "two_comp.cfg"]).memory_size
    assert compute_layout(cfg).memory_size == TaggedMemory().size == cli_default


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


def test_boot_dump_decodes_protected_structures(capsys):
    code, out, _ = run_cli(capsys, "boot-dump", "two_comp.cfg")
    assert code == 0
    assert "capability table:" in out
    assert "app (compartment, id 0)" in out
    assert "switcher pair:" in out
    assert "sealed entry capabilities:" in out
    assert "tagged granules after boot" in out


def test_verify_clean_config(capsys):
    code, out, err = run_cli(capsys, "verify", "two_comp.cfg", "--fuzz", "60")
    assert code == 0 and err == ""
    assert "fuzzed 60 sequences" in out
    assert "confinement holds" in out


def test_verify_negative_fuzz_count_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "verify", "two_comp.cfg", "--fuzz", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "-5" in err


def test_verify_without_fuzzing_is_valid(capsys):
    code, out, err = run_cli(capsys, "verify", "two_comp.cfg", "--fuzz", "0")
    assert code == 0 and err == ""
    assert "fuzzed 0 sequences" in out


def test_verify_code_capabilities_do_not_read_data(capsys):
    # Sequence 466 of this fuzz seed loads a code capability that an earlier
    # sequence left on codec's stack, and reads app's data through it
    # whenever code capabilities carry LOAD.
    code, out, err = run_cli(capsys, "verify", "three_comp_shared.cfg", "--fuzz", "2000",
                             "--seed", "10465", "--memory-size", "0x100000")
    assert code == 0 and err == ""
    assert "confinement holds" in out


def test_verify_code_capabilities_guard_is_armed(capsys, monkeypatch):
    # The guard above holds only while its seed still reaches that load:
    # with LOAD back on code capabilities, the same run must report the read.
    monkeypatch.setattr(layout, "PCC_PERMS", Perm.EXECUTE | Perm.LOAD)
    code, out, err = run_cli(capsys, "verify", "three_comp_shared.cfg", "--fuzz", "2000",
                             "--seed", "10465", "--memory-size", "0x100000")
    assert code == 1
    assert err == "violation: sequence 466: pc 585 (codec) read [0x2cf, 0x2d7) outside its view\n"


def test_run_table(capsys):
    code, out, _ = run_cli(capsys, "run", "sqlite_fs.scn")
    assert code == 0
    assert "2.490" in out
    assert "120.165 %" in out
    assert "query -> vfs_io: 160" in out


def test_run_records(capsys):
    code, out, _ = run_cli(capsys, "run", "sqlite_fs.scn", "--format", "records")
    assert code == 0
    assert "rate switches_per_1k=2.490" in out
    assert "edge from=query to=vfs_io crossings=160" in out


def test_run_cost_override(capsys):
    code, out, _ = run_cli(capsys, "run", "sqlite_fs.scn",
                           "--cost", "hot=400,hotfrac=1.0",
                           "--format", "records")
    assert code == 0
    assert "hot_fraction=1.0" in out
    assert "percent=120.000" in out


@pytest.mark.parametrize("spec,fragment", [
    ("hot=abc", "bad number"),
    ("wibble=3", "unknown cost field"),
    ("hotfrac=1.5", "hot_fraction must lie in [0, 1]"),
    ("hot=1,hot=2", "cost field 'hot' given twice"),
    ("hotfrac=0.5,hot_fraction=0.9", "cost field 'hot_fraction' given twice"),
])
def test_run_bad_cost_is_exit_2(capsys, spec, fragment):
    code, out, err = run_cli(capsys, "run", "sqlite_fs.scn", "--cost", spec)
    assert code == 2
    assert fragment in err


@pytest.mark.parametrize("args,fragment", [
    (("--cost", "hot=-400"), "hot must be a finite cost >= 0"),
    (("--cost", "promotion=nan"), "promotion must be a finite cost >= 0"),
    (("--cost", "cold=inf"), "cold must be a finite cost >= 0"),
    (("--cpi", "inf"), "cpi must be positive and finite"),
    (("--cpi", "nan"), "cpi must be positive and finite"),
])
def test_run_rejects_negative_or_non_finite_costs(capsys, args, fragment):
    code, out, err = run_cli(capsys, "run", "libsodium_hex.scn", *args)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {fragment}")


def test_run_cpi_override(capsys):
    code, out, _ = run_cli(capsys, "run", "sqlite_fs.scn",
                           "--cpi", "2.2", "--format", "records")
    assert code == 0
    assert "cpi=2.2" in out
    code, _, err = run_cli(capsys, "run", "sqlite_fs.scn", "--cpi", "0")
    assert code == 2 and "cpi must be positive" in err


@pytest.mark.parametrize("args", [(), ("--cpi", "2.2")])
def test_run_walks_the_scenario_graph_once(capsys, monkeypatch, args):
    from capcomp import workload

    walks = []
    search = workload._search_order
    monkeypatch.setattr(workload, "_search_order", lambda sc: walks.append(sc) or search(sc))
    code, out, _ = run_cli(capsys, "run", "sqlite_fs.scn", "--format", "records", *args)
    assert code == 0 and "transitions=160 " in out
    assert len(walks) == 1


def test_run_bad_scenario_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "broken.scn"
    bad.write_text("fn a comp=x instr=1\ncall a a count=1\n")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "cycle" in err


def test_micro_hot_table(capsys):
    code, out, _ = run_cli(capsys, "micro")
    assert code == 0
    assert out.startswith("single-switch latency, hot:")
    assert "362.7" in out
    assert "largest phase: switcher" in out


def test_micro_cold_records(capsys):
    code, out, _ = run_cli(capsys, "micro", "--cold", "--format", "records")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for l in lines if l.startswith("phase name=")) == 6
    assert "phase name=switcher instructions=61 cycles=529.600" in lines
    assert lines[-1] == "total kind=cold cycles=937.600"


def test_trace_round_trip(capsys):
    code, out, err = run_cli(capsys, "trace", "two_comp.cfg")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0].startswith("0 | ")
    assert "round trip complete: r0 = 42, 2 switches" in out


def test_trace_argument_flows_through(capsys):
    code, out, _ = run_cli(capsys, "trace", "two_comp.cfg", "--args", "5")
    assert code == 0
    assert "r0 = 6" in out


@pytest.mark.parametrize("arg", ["18446744073709551616", "99999999999999999999999", "-5"])
def test_trace_argument_outside_64_bits_is_exit_2(capsys, arg):
    code, out, err = run_cli(capsys, "trace", "two_comp.cfg", f"--args={arg}")
    assert code == 2 and out == ""
    assert err == f"error: trace argument {arg} outside [0, 2^64)\n"


def test_trace_argument_at_the_top_of_64_bits_is_accepted(capsys):
    # the callee's increment wraps round the address space
    code, out, _ = run_cli(capsys, "trace", "two_comp.cfg", "--args", str((1 << 64) - 1))
    assert code == 0
    assert "r0 = 0, 2 switches" in out


@pytest.mark.parametrize("config, caller, callee", [
    ("two_comp.cfg", "lib", "app"),
    ("three_comp_shared.cfg", "codec", "store"),
    ("three_comp_shared.cfg", "store", "app"),
])
def test_trace_from_any_caller(capsys, config, caller, callee):
    code, out, err = run_cli(capsys, "trace", config, "--caller", caller, "--callee", callee)
    assert code == 0 and err == ""
    plan = compute_layout(parse_config(ir.files("capcomp").joinpath("fixtures", config)
                                       .read_text()))
    assert out.splitlines()[0].endswith(f" | c{plan.comp_ids[caller]}")
    assert out.endswith("round trip complete: r0 = 42, 2 switches, 171 instructions\n")


def test_trace_unknown_caller_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "trace", "two_comp.cfg", "--caller", "nope")
    assert code == 2
    assert err.startswith("error: ") and "'nope'" in err


def test_trace_needs_two_compartments(capsys, tmp_path):
    cfg = tmp_path / "solo.cfg"
    cfg.write_text("compartment only code=64 data=64 stack=4096 heap=0\n")
    code, _, err = run_cli(capsys, "trace", str(cfg))
    assert code == 2
    assert "two distinct compartments" in err


def test_run_empty_compartment_name_is_exit_2(capsys, tmp_path):
    scn = tmp_path / "empty_comp.scn"
    scn.write_text("fn f comp=app instr=1\nfn g comp= instr=2\ncall f g count=1\n")
    code, out, err = run_cli(capsys, "run", str(scn))
    assert code == 2 and out == ""
    assert err == "error: line 2: empty compartment name\n"


def test_run_integer_over_the_length_bound_is_exit_2(capsys, tmp_path):
    scn = tmp_path / "long_int.scn"
    scn.write_text("fn a comp=x instr=1" + "0" * 4300 + "\n")
    code, out, err = run_cli(capsys, "run", str(scn))
    assert code == 2 and out == ""
    assert err == "error: line 1: integer longer than 4300 characters\n"


@pytest.mark.parametrize("fmt", ["table", "records"])
@pytest.mark.parametrize("count_zeros,instr_zeros", [(306, 0), (330, 0), (0, 400)])
def test_run_scenario_too_large_for_a_float_is_exit_2(capsys, tmp_path, fmt,
                                                       count_zeros, instr_zeros):
    # 306 zeros used to print "overhead inf %" and exit 0; 330 zeros, or
    # 400 on the instruction count, used to end in an OverflowError traceback
    scn = tmp_path / "huge.scn"
    scn.write_text(f"fn a comp=x instr=1{'0' * instr_zeros}\nfn b comp=y instr=1\n"
                   f"call a b count=1{'0' * count_zeros}\n")
    code, out, err = run_cli(capsys, "run", str(scn), "--format", fmt)
    assert code == 2 and out == ""
    assert err == "error: scenario totals too large for a finite overhead\n"


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["layout", "boot-dump", "verify"])
@pytest.mark.parametrize("size", ["0x6548", "0", "-0x100"])
def test_memory_size_not_a_granule_multiple_is_exit_2(capsys, command, size):
    code, out, err = run_cli(capsys, command, "two_comp.cfg", f"--memory-size={size}")
    assert code == 2 and out == ""
    assert err == "error: memory size must be a positive multiple of 16\n"
