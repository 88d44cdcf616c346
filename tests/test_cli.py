"""End-to-end checks of the command-line front end: exit codes and the
load-bearing lines of each subcommand's output."""

import pytest

from capcomp.cli import main


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


def test_layout_memory_size_accepts_hex(capsys):
    code, out, _ = run_cli(capsys, "layout", "two_comp.cfg",
                           "--memory-size", "0x10000")
    assert code == 0


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


def test_verify_code_capabilities_do_not_read_data(capsys):
    # Sequence 793 of this fuzz seed reads app's data in codec through a
    # code capability whenever code capabilities carry LOAD.
    code, out, err = run_cli(capsys, "verify", "three_comp_shared.cfg", "--fuzz", "2000",
                             "--seed", "905002810", "--memory-size", "0x100000")
    assert code == 0 and err == ""
    assert "confinement holds" in out


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
])
def test_run_bad_cost_is_exit_2(capsys, spec, fragment):
    code, out, err = run_cli(capsys, "run", "sqlite_fs.scn", "--cost", spec)
    assert code == 2
    assert fragment in err


def test_run_cpi_override(capsys):
    code, out, _ = run_cli(capsys, "run", "sqlite_fs.scn",
                           "--cpi", "2.2", "--format", "records")
    assert code == 0
    assert "cpi=2.2" in out
    code, _, err = run_cli(capsys, "run", "sqlite_fs.scn", "--cpi", "0")
    assert code == 2 and "cpi must be positive" in err


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


def test_trace_needs_two_compartments(capsys, tmp_path):
    cfg = tmp_path / "solo.cfg"
    cfg.write_text("compartment only code=64 data=64 stack=4096 heap=0\n")
    code, _, err = run_cli(capsys, "trace", str(cfg))
    assert code == 2
    assert "two distinct compartments" in err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
