"""Byte-identical CLI output against the recorded golden file.

``tests/golden/cli.json`` holds the exit status and stdout of a fixed set
of ``compare``, ``max-observers`` and ``witness-eval`` commands, each run
in-process through ``cli.main``.  A command that exits 0 writes nothing to
stderr, and no command prints a traceback.  Regenerate it, only when an output change
is intended, from the repository root with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from seqwitness import cli

FORMATS = ("json", "csv", "text")
GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def compare_commands():
    """Every table and format at 6/8/10/12 digits, with and without paper
    rounding: 72 commands."""
    cmds = []
    for table in ("1", "2", "both"):
        for fmt in FORMATS:
            for digits in (6, 8, 10, 12):
                for paper in (False, True):
                    argv = ["compare", "--table", table, "--format", fmt,
                            "--digits", str(digits)]
                    cmds.append(argv + ["--paper-rounding"] if paper else argv)
    return cmds


def max_observer_commands():
    cmds = []
    for alices in (1, 2, 3, 4):
        for fmt in FORMATS:
            for digits in (6, 12):
                cmds.append(["max-observers", "--alices", str(alices), "--bobs", "20",
                             "--state", "bell", "--format", fmt, "--digits", str(digits)])
        cmds.append(["max-observers", "--alices", str(alices), "--bobs", "20",
                     "--state", "bell", "--paper-rounding"])
    for state in (["werner", "--p", "0.9"], ["pure", "--theta", "0.5"],
                  ["colored", "--p", "0.95"]):
        for alices in (1, 2, 3, 4):
            for fmt in FORMATS:
                cmds.append(["max-observers", "--alices", str(alices), "--bobs", "12",
                             "--state", *state, "--format", fmt])
    cmds += [
        ["max-observers", "--alices", "2", "--bobs", "5", "--state", "pure",
         "--theta", "1e-9"],
        ["max-observers", "--alices", "1", "--bobs", "5", "--state", "werner",
         "--p", "0.5"],
        ["max-observers", "--alices", "2", "--bobs", "20", "--state", "werner",
         "--p", "0.8", "--epsilon1", "0.03", "--epsilon", "0.01", "--digits", "10"],
        ["max-observers", "--alices", "1", "--bobs", "20", "--state", "pure",
         "--theta", "0.7", "--paper-rounding", "--format", "csv"],
        ["max-observers", "--alices", "0", "--state", "bell"],
    ]
    return cmds


def witness_eval_commands():
    cmds = []
    families = (["bell"], ["werner", "--p", "0.7"], ["colored", "--p", "0.85"],
                ["pure", "--theta", "0.3"])
    for i, family in enumerate(families):
        for j, fmt in enumerate(FORMATS):
            xi, lam = (1.0, 0.9, 0.73, 0.41)[i], (1.0, 0.8, 0.66)[j]
            cmds.append(["witness-eval", "--state", *family, "--xi", repr(xi),
                         "--lambda", repr(lam), "--format", fmt,
                         "--digits", str(6 + 2 * j)])
    cmds.append(["witness-eval", "--state", "werner", "--p", "0.9", "--xi", "0"])
    return cmds


def all_commands():
    return compare_commands() + max_observer_commands() + witness_eval_commands()


def run(argv):
    """(exit status, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejected the flags
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def record():
    entries = []
    for argv in all_commands():
        code, stdout, _ = run(argv)
        entries.append({"argv": argv, "exit": code, "stdout": stdout})
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}")


ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else []


def test_golden_file_covers_the_command_set():
    counts = Counter(entry["argv"][0] for entry in ENTRIES)
    assert counts["compare"] == 72
    assert counts["max-observers"] >= 60
    assert counts["witness-eval"] >= 9
    assert [entry["argv"] for entry in ENTRIES] == all_commands()


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: " ".join(e["argv"]))
def test_cli_output_matches_golden(entry):
    code, stdout, stderr = run(entry["argv"])
    assert (code, stdout) == (entry["exit"], entry["stdout"])
    assert "Traceback" not in stderr
    if code == 0:
        assert stderr == ""


if __name__ == "__main__":
    record()
