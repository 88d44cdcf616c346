"""End-to-end checks of the command-line front end: exit codes and the
load-bearing lines of each subcommand's output."""

import importlib.resources as ir
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capcomp
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


ECHOED = "x" * 64            # the most of a token an error echoes
CUT = ECHOED + "y" * 4000    # under the integer bound


@pytest.mark.parametrize("command", ["layout", "run"])
def test_unreadable_input_is_exit_2(capsys, command):
    # a name longer than the file system allows: neither on disk nor a fixture
    code, out, err = run_cli(capsys, command, CUT)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read '{ECHOED}...': ") and len(err) < 120


def test_missing_input_echoes_a_long_path_cut(capsys):
    path = "d/" * 40 + "x.cfg"
    code, _, err = run_cli(capsys, "layout", path)
    assert code == 2
    assert err.startswith(f"error: no file '{path[:64]}...' on disk or in bundled fixtures (")


def test_layout_shared_region_named_cap_table_is_exit_2(capsys, tmp_path):
    cfg = tmp_path / "clash.cfg"
    cfg.write_text("compartment app code=512 data=512 stack=512 heap=0\n"
                   "compartment lib code=512 data=512 stack=512 heap=0\n"
                   "shared cap_table size=64 between app,lib mode=overlap\n")
    code, out, err = run_cli(capsys, "layout", str(cfg))
    assert code == 2 and out == ""
    assert err == "error: line 3: 'cap_table' names the switcher's own region\n"


def test_layout_and_verify_agree_on_a_host_at_the_code_floor(capsys, tmp_path):
    # host's own code region is 80 - 64 = 16 slots: the trampoline's 8 and
    # a fuzz site of 8 with no slot left for its halt
    cfg = tmp_path / "floor.cfg"
    cfg.write_text("compartment host code=80 data=512 stack=512 heap=4160\n"
                   "compartment peer code=512 data=512 stack=512 heap=0\n"
                   "sandbox sb host=host\n")
    layout_code, _, layout_err = run_cli(capsys, "layout", str(cfg))
    verify_code, _, verify_err = run_cli(capsys, "verify", str(cfg), "--fuzz", "10")
    assert layout_code == verify_code == 2
    assert layout_err == verify_err == (
        "error: compartment 'host' code region too small for its trampoline and fuzz site"
        " plus its sandboxes\n")


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


def test_verify_negative_seed_is_exit_2(capsys):
    # it would otherwise fuzz exactly as --seed 7 does, and exit 0
    code, out, err = run_cli(capsys, "verify", "two_comp.cfg", "--fuzz", "2000", "--seed", "-7")
    assert code == 2 and out == ""
    assert err == "error: seed must be at least 0, not -7\n"
    code, out, err = run_cli(capsys, "verify", "two_comp.cfg", "--fuzz", "0", "--seed", "0")
    assert code == 0 and err == ""


def test_verify_seed_help_names_its_default_and_range(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "--seed SEED seed of the random sequences, at least 0 (default 0)" in help_text


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


@pytest.mark.parametrize("spec,message", [
    (f"hot={CUT}", f"bad number for 'hot': '{ECHOED}...'"),
    (f"{CUT}=1", f"unknown cost field '{ECHOED}...'"),
    # 64 characters are echoed whole
    (f"hot={ECHOED}", f"bad number for 'hot': '{ECHOED}'"),
    (f"{ECHOED}=1", f"unknown cost field '{ECHOED}'"),
], ids=["value", "key", "value at the bound", "key at the bound"])
def test_a_cost_error_echoes_a_token_cut_to_64_characters(capsys, spec, message):
    code, out, err = run_cli(capsys, "run", "sqlite_fs.scn", "--cost", spec)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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


LONG_ARG = "1" + "0" * 4000


@pytest.mark.parametrize("arg, message", [
    (LONG_ARG, f"trace argument {LONG_ARG[:64]}... outside [0, 2^64)"),
    # the length bound is checked before conversion, on every Python version
    ("1" + "0" * 4300, "trace argument: integer longer than 4300 characters"),
    ("-" + "1" * 4300, "trace argument: integer longer than 4300 characters"),
    ("1" * 4300, f"trace argument {'1' * 64}... outside [0, 2^64)"),
    (CUT, f"invalid literal for int() with base 10: '{ECHOED}...'"),
    ("abc", "invalid literal for int() with base 10: 'abc'"),
], ids=["long", "over the bound", "signed over the bound", "at the bound", "long literal",
        "short literal"])
def test_a_trace_argument_error_is_bounded(capsys, arg, message):
    code, out, err = run_cli(capsys, "trace", "two_comp.cfg", f"--args={arg}")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("option, message", [
    ("--caller", f"error: '{'x' * 64}...' is not a compartment\n"),
    ("--callee", f"error: unknown code owner '{'x' * 64}...'\n"),
], ids=["caller", "callee"])
def test_trace_echoes_a_long_compartment_name_cut(capsys, option, message):
    code, out, err = run_cli(capsys, "trace", "two_comp.cfg", option, "x" * 200)
    assert code == 2 and out == ""
    assert err == message


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


@pytest.mark.parametrize("command", ["layout", "boot-dump"])
def test_code_space_larger_than_memory_is_exit_2(capsys, tmp_path, command):
    # layout used to pass the audit, and boot-dump to end in an
    # OverflowError traceback building one program slot per code slot
    cfg = tmp_path / "huge_code.cfg"
    cfg.write_text(f"compartment app code={10 ** 30} data=512 stack=512 heap=0\n")
    code, out, err = run_cli(capsys, command, str(cfg))
    assert code == 2 and out == ""
    assert err == f"error: code needs {10 ** 30 + 64:#x} slots, memory holds 0x100000\n"


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


# a granule multiple too large for an index: the plan rejects it, so boot
# never asks for the bytes
OVER_THE_MAXIMUM = "0x1" + "0" * 20


@pytest.mark.parametrize("command", ["layout", "boot-dump", "verify"])
def test_memory_size_over_the_maximum_is_exit_2(capsys, command):
    code, out, err = run_cli(capsys, command, "two_comp.cfg", f"--memory-size={OVER_THE_MAXIMUM}")
    assert code == 2 and out == ""
    assert err == "error: memory size must be at most 0x40000000\n"


def test_memory_size_help_names_the_maximum(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["boot-dump", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert exc.value.code == 0
    assert "(default 1 MiB, at most 1 GiB)" in out


# One verify in a fresh process; prints its exit code and its peak RSS as
# `ru_maxrss` reports it.  Linux carries a process's peak RSS over exec into
# the program it starts, so a probe started from the test process would
# report at least the test process's own peak.  It is started through
# `LAUNCHER`, a bare interpreter whose peak is far below the probe's.
LAUNCHER = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
PEAK_RSS_PROBE = """
import contextlib, io, resource, sys
from capcomp import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "three_comp_shared.cfg", "--fuzz", "200",
                     "--memory-size", sys.argv[1]])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_memory_that_is_never_touched_costs_nothing():
    """A 256 MiB verify peaks less than 64 MiB above a 1 MiB one: boot and
    fuzzing touch a few pages of data, and the 16 MiB tag array is the one
    cost that grows with the size."""
    pytest.importorskip("resource")
    src = str(Path(capcomp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    peaks = []
    for size in ("0x100000", "0x10000000"):
        argv = [sys.executable, "-c", LAUNCHER, sys.executable, "-c", PEAK_RSS_PROBE, size]
        out = subprocess.run(argv, env=env, capture_output=True, text=True,
                             check=True).stdout
        code, peak = map(int, out.split())
        assert code == 0
        peaks.append(peak)
    unit = 1 if sys.platform == "darwin" else 1024    # ru_maxrss: bytes or KiB
    assert (peaks[1] - peaks[0]) * unit < 64 << 20


@pytest.fixture(params=["default int-string limit", "no int-string limit"])
def int_str_limit(request):
    """CPython's default int-string limit (3.11+), then none, as on 3.10."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if request.param == "default int-string limit" or set_limit is None:
        yield
        return
    old = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(old)


OVER_THE_BOUND = "1" + "0" * 5000
# negative, so that where it was converted it failed at once
NEGATIVE_OVER_THE_BOUND = "-" + "1" * 5000


@pytest.mark.parametrize("argv, message", [
    (("verify", "two_comp.cfg", "--fuzz", "0", "--seed", OVER_THE_BOUND),
     "argument --seed: integer longer than 4300 characters"),
    (("verify", "two_comp.cfg", "--fuzz", NEGATIVE_OVER_THE_BOUND),
     "argument --fuzz: integer longer than 4300 characters"),
    (("layout", "two_comp.cfg", "--memory-size", NEGATIVE_OVER_THE_BOUND),
     "argument --memory-size: integer longer than 4300 characters"),
    (("verify", "two_comp.cfg", "--seed", CUT), f"argument --seed: invalid int value: '{ECHOED}...'"),
    (("boot-dump", "two_comp.cfg", "--memory-size", "zz"),
     "argument --memory-size: invalid int value: 'zz'"),
    (("run", "sqlite_fs.scn", "--cpi", CUT), f"argument --cpi: invalid float value: '{ECHOED}...'"),
], ids=["seed", "fuzz", "memory size", "long literal", "short literal", "cpi"])
def test_an_option_error_is_short_on_every_python(capsys, int_str_limit, argv, message):
    # the length bound is checked before conversion, and a bad value is
    # echoed cut by `clip_token`
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.splitlines()[-1] == f"capcomp {argv[0]}: error: {message}"
    assert len(err.splitlines()[-1]) <= 200 and len(err) <= 400


def test_an_integer_option_at_the_bound_is_accepted(capsys, int_str_limit):
    code, out, _ = run_cli(capsys, "verify", "two_comp.cfg", "--fuzz", "0", "--seed", "1" * 4300)
    assert code == 0 and out.startswith("fuzzed 0 sequences")
