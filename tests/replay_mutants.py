"""Replay the mutants of tests/mutants.py, one at a time, on a temporary copy of src and tests.

    python tests/replay_mutants.py            # every mutant, MUTANTS then STATISTICAL
    python tests/replay_mutants.py 0 3        # mutants 0 and 3 only, numbered across both tuples
    python tests/replay_mutants.py --discover 3   # every tier-1 test that mutant 3 fails

For each mutant it copies src and tests to a fresh temporary directory,
applies the one edit (whose text must occur once in its file), and runs
only the mutant's named tests there.  A mutant is caught when every named
test fails (a parametrized test, when one of its cases fails); the
unmutated copy must pass the same tests first, so a catch is the mutant's
doing.  The exit status is 0 when every mutant replayed is caught.  Not
part of the tier-1 suite: each mutant costs two pytest starts.

--discover INDEX applies one mutant to a copy of the whole tree and runs
the tier-1 suite there without tests/test_golden.py (a golden fails on any
change of output, right or wrong), then prints the node id of every test
that fails: the candidates to name in the mutant's tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS, STATISTICAL, Mutant

REPLAYED = MUTANTS + STATISTICAL

ROOT = Path(__file__).resolve().parents[1]


def _failed(tree: Path, tests) -> set[str]:
    """The node ids of the failing tests among tests (pytest arguments), run in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *tests]
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        raise RuntimeError(f"pytest exit status {out.returncode}: {out.stdout[-500:]}")
    return {
        line.split(" ", 1)[1].split(" - ")[0]
        for line in out.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }


def _copy(tmp: str, parts) -> Path:
    """A fresh copy of the parts of the repository (directories or files) in tmp."""
    tree = Path(tmp)
    for part in parts:
        if (ROOT / part).is_dir():
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy(ROOT / part, tree)
    return tree


def _mutate(tree: Path, mutant: Mutant) -> None:
    """Apply the mutant's one edit in tree; RuntimeError unless its text occurs once."""
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise RuntimeError(f"the text to replace occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def replay(index: int) -> str:
    """'caught', 'SURVIVED' with the named tests that passed, or the replay error of mutant index."""
    mutant = REPLAYED[index]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy(tmp, ("src", "tests", "pyproject.toml"))
        try:
            if _failed(tree, mutant.tests):
                return "error: the unmutated copy fails the named tests"
            _mutate(tree, mutant)
            failed = _failed(tree, mutant.tests)
        except RuntimeError as err:
            return f"error: {err}"
    passed = [test for test in mutant.tests if not any(f == test or f.startswith(test + "[") for f in failed)]
    return f"SURVIVED {passed}" if passed else "caught"


def discover(index: int) -> list[str]:
    """The node ids of the tier-1 tests outside tests/test_golden.py that fail with mutant index applied."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = _copy(tmp, ("src", "tests", "demos", "perfbench", "pyproject.toml", "README.md"))
        _mutate(tree, REPLAYED[index])
        return sorted(_failed(tree, ["--continue-on-collection-errors", "--ignore=tests/test_golden.py"]))


def main(argv: list[str]) -> int:
    if argv[:1] == ["--discover"] and len(argv) == 2:
        index = int(argv[1])
        failed = discover(index)
        print(f"{index:2d} {REPLAYED[index].what}: {len(failed)} failing", flush=True)
        print("\n".join(failed))
        return 0
    caught = True
    for index in [int(arg) for arg in argv] or range(len(REPLAYED)):
        result = replay(index)
        caught &= result == "caught"
        print(f"{index:2d} {REPLAYED[index].what}: {result}", flush=True)
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
