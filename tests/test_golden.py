"""Byte-for-byte CLI output, checked against the files in tests/golden/.

Each case runs one `capcomp` command in-process and compares its exit code,
stdout and stderr with `golden/<case>.txt`.  After a deliberate change to
the output, regenerate the files with `python tests/test_golden.py` and
review the diff.
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


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(render(argv), encoding="utf-8")
        print(f"wrote {name}.txt", file=sys.stderr)
