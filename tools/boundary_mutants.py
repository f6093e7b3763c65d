"""Boundary-mutation audit: which comparison directions does no test check?

Each mutant swaps one ``<`` with ``<=``, or one ``>`` with ``>=``, in one
module of ``src/seqwitness``, and runs the tier-1 suite on it with ``-x``.
A mutant the suite still passes "survives": no test tells the two sides of
that boundary apart.  The mutants are made in a temporary copy of the tree;
the source tree is never edited.  Mutated modules are written with
``ast.unparse``, so the unmutated module is first unparsed the same way and
must pass the suite.

A survivor listed in ``tools/equivalent_mutants.txt`` is reported as
equivalent, with its reason: both sides of its boundary give the same
answer.  Any other survivor is reported as unexplained, and the exit code
is 1 when there is one.  An id embeds the comparison's text and its owning
def, so an edit to either leaves the listed reason behind: a listed entry
of a named module that names no current mutant is reported as stale, and
also makes the exit code 1, with ``--list`` too.

    python tools/boundary_mutants.py sequential resource
    python tools/boundary_mutants.py --list cli        # mutant ids, no runs

A module's run takes one tier-1 suite per surviving mutant and less per
killed one; four modules took about 20 minutes on a 2-vCPU machine.
Standard library only; the suite itself needs pytest, as tier-1 does.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "seqwitness"
EQUIVALENTS = Path(__file__).with_name("equivalent_mutants.txt")
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
# what the copy needs to run tier-1 (tests read perfbench/checks.py); caches
# and benchmark run outputs stay behind
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


def _owners(tree: ast.Module) -> dict[int, str]:
    """Qualified name of the def or class enclosing each node, by id."""
    owner: dict[int, str] = {}

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
            owner[id(child)] = inner or "<module>"
            visit(child, inner)

    visit(tree, "")
    return owner


def mutants(module: str, source: str):
    """(id, mutated source) for each boundary swap in ``module``'s source.
    An id reads ``module.owner | comparison | mutated comparison``, with
    ``#k`` after the owner when the same swap occurs k times in it."""
    tree = ast.parse(source)
    owner = _owners(tree)
    sites = [(node, index) for node in ast.walk(tree) if isinstance(node, ast.Compare)
             for index, op in enumerate(node.ops) if type(op) in SWAP]
    # ast.walk is breadth-first; report in source order
    sites.sort(key=lambda site: (site[0].lineno, site[0].col_offset, site[1]))
    seen: dict[str, int] = {}
    for node, index in sites:
        original = node.ops[index]
        text = ast.unparse(node)
        node.ops[index] = SWAP[type(original)]()
        try:
            ident = f"{module}.{owner[id(node)]}"
            swap = f"{text} | {ast.unparse(node)}"
            seen[ident + swap] = count = seen.get(ident + swap, 0) + 1
            yield f"{ident}{f'#{count}' if count > 1 else ''} | {swap}", ast.unparse(tree)
        finally:
            node.ops[index] = original


def read_equivalents(path: Path = EQUIVALENTS) -> dict[str, str]:
    """Mutant id -> reason, from ``id | reason`` lines; # starts a comment line."""
    listed = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        ident, sep, reason = line.rpartition(" | ")
        if not sep or ident.count(" | ") != 2 or not reason:
            raise SystemExit(f"{path}:{lineno}: expected 'owner | comparison | mutant | reason'")
        listed[ident] = reason
    return listed


def suite_passes(tree: Path) -> bool:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module names under src/seqwitness")
    parser.add_argument("--list", action="store_true", help="print mutant ids and exit")
    args = parser.parse_args(argv)
    sources = {m: (ROOT / PACKAGE / f"{m}.py").read_text(encoding="utf-8") for m in args.modules}
    current = [ident for module, source in sources.items() for ident, _ in mutants(module, source)]
    equivalents = read_equivalents()
    stale = [ident for ident in equivalents
             if ident.partition(".")[0] in sources and ident not in current]
    for ident in stale:
        print(f"stale entry in {EQUIVALENTS.name}, no such mutant: {ident}", file=sys.stderr)
    if args.list:
        print("\n".join(current))
        return 1 if stale else 0

    unexplained = len(stale)
    with tempfile.TemporaryDirectory(prefix="boundary-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.egg-info", "out"))
            else:
                shutil.copy2(src, tree / name)
        for module, source in sources.items():
            target = tree / PACKAGE / f"{module}.py"
            target.write_text(ast.unparse(ast.parse(source)), encoding="utf-8")
            if not suite_passes(tree):
                print(f"{module}: the unparsed, unmutated module fails the suite", flush=True)
                return 2
            total = survived = 0
            for ident, mutated in mutants(module, source):
                target.write_text(mutated, encoding="utf-8")
                total += 1
                if suite_passes(tree):
                    survived += 1
                    reason = equivalents.get(ident)
                    unexplained += reason is None
                    status = f"equivalent: {reason}" if reason else "SURVIVED"
                else:
                    status = "killed"
                print(f"{ident}: {status}", flush=True)
            target.write_text(source, encoding="utf-8")
            print(f"{module}: {survived} of {total} mutants survived", flush=True)
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
