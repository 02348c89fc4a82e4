"""Replay the mutants of tests/mutants.py, one at a time, on a temporary copy of src and tests.

    python tests/replay_mutants.py            # every mutant, MUTANTS then STATISTICAL
    python tests/replay_mutants.py 0 3        # mutants 0 and 3 only, numbered across both tuples

For each mutant it copies src and tests to a fresh temporary directory,
applies the one edit (whose text must occur once in its file), and runs
only the mutant's named tests there.  A mutant is caught when every named
test fails (a parametrized test, when one of its cases fails); the
unmutated copy must pass the same tests first, so a catch is the mutant's
doing.  The exit status is 0 when every mutant replayed is caught.  Not
part of the tier-1 suite: each mutant costs two pytest starts.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from mutants import MUTANTS, STATISTICAL

REPLAYED = MUTANTS + STATISTICAL

ROOT = Path(__file__).resolve().parents[1]


def _failed(tree: Path, tests) -> set[str]:
    """The node ids of the failing tests among tests, run in tree."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    argv = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        raise RuntimeError(f"pytest exit status {out.returncode}: {out.stdout[-500:]}")
    return {line.split()[1] for line in out.stdout.splitlines() if line.startswith("FAILED ")}


def replay(index: int) -> str:
    """'caught', 'SURVIVED' with the named tests that passed, or the replay error of mutant index."""
    mutant = REPLAYED[index]
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        try:
            if _failed(tree, mutant.tests):
                return "error: the unmutated copy fails the named tests"
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                return f"error: the text to replace occurs {text.count(mutant.old)} times in {mutant.file}"
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            failed = _failed(tree, mutant.tests)
        except RuntimeError as err:
            return f"error: {err}"
    passed = [test for test in mutant.tests if not any(f == test or f.startswith(test + "[") for f in failed)]
    return f"SURVIVED {passed}" if passed else "caught"


def main(argv: list[str]) -> int:
    caught = True
    for index in [int(arg) for arg in argv] or range(len(REPLAYED)):
        result = replay(index)
        caught &= result == "caught"
        print(f"{index:2d} {REPLAYED[index].what}: {result}", flush=True)
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
