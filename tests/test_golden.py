"""Byte-for-byte CLI output, checked against the files in tests/golden/.

Each case runs one `capcomp` command in-process and compares its exit code,
stdout and stderr with `golden/<case>.txt`.  After a deliberate change to
the output, regenerate the files, those of `CI_CASES` in `golden/ci/`
included, with `PYTHONPATH=src python tests/test_golden.py` and review the
diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from capcomp.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = ("two_comp", "three_comp_shared", "sandbox_host")
SCENARIOS = ("libsodium_all", "libsodium_chacha_only", "libsodium_hex",
             "promote_pipeline", "sqlite_fs")

CASES: dict[str, list[str]] = {}
for _c in CONFIGS:
    CASES[f"layout_{_c}"] = ["layout", f"{_c}.cfg"]
    CASES[f"layout_records_{_c}"] = ["layout", f"{_c}.cfg", "--format", "records"]
    CASES[f"boot_dump_{_c}"] = ["boot-dump", f"{_c}.cfg"]
    CASES[f"verify_{_c}"] = ["verify", f"{_c}.cfg", "--fuzz", "2000", "--seed", "7"]
    CASES[f"trace_{_c}"] = ["trace", f"{_c}.cfg"]
for _s in SCENARIOS:
    CASES[f"run_{_s}"] = ["run", f"{_s}.scn"]
    CASES[f"run_records_{_s}"] = ["run", f"{_s}.scn", "--format", "records"]
CASES["micro_hot"] = ["micro"]
CASES["micro_hot_records"] = ["micro", "--format", "records"]
CASES["micro_cold"] = ["micro", "--cold"]
CASES["micro_cold_records"] = ["micro", "--cold", "--format", "records"]

# The long verify runs CI checks through the installed console script, in
# golden/ci/.  They take seconds each, so Tier-1 does not run them; the
# `__main__` block below writes them with the rest.
CI_CASES: dict[str, list[str]] = {
    f"verify_{cfg}_{n}_seed{seed}": ["verify", f"{cfg}.cfg", "--fuzz", str(n), "--seed", str(seed)]
    for cfg, n, seed in [("two_comp", 200, 7), ("two_comp", 100000, 3),
                         ("sandbox_host", 100000, 67), ("three_comp_shared", 20000, 7)]
}


def render(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    text = f"$ capcomp {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}"
    if err.getvalue():
        text += f"--- stderr\n{err.getvalue()}"
    return text


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case):
    expected = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert render(CASES[case]) == expected


def failing_calls() -> None:
    """Two calls that end in errors: a missing file (exit 2 from `main`) and
    a missing argument (argparse's `SystemExit(2)`)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["layout", "no_such_file.cfg"]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["verify"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert "no_such_file.cfg" in err.getvalue() and "required" in err.getvalue()


@pytest.mark.parametrize("case", sorted(CASES))
def test_repeated_calls_print_the_same_output(case):
    # A process may call `main` many times; nothing one call leaves behind,
    # failed calls included, may change what the next one prints.
    first = render(CASES[case])
    failing_calls()
    assert render(CASES[case]) == first


if __name__ == "__main__":
    (GOLDEN / "ci").mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()) + sorted((f"ci/{n}", a) for n, a in CI_CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
        print(f"wrote {name}.txt", file=sys.stderr)
