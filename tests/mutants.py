"""The mutation table: each row plants one fault in a copy of ``src`` and
names a test that must fail on it.

Run from the repository root, with the standard library and pytest only:

    python tests/mutants.py         # every row
    python tests/mutants.py 1 3     # rows by number

Each row is (file under ``src/dynkin``, exact text, replacement, the test
expected to kill it).  For every row the script copies ``src`` to a
temporary folder, checks that ``import dynkin`` loads the copy with it
first on ``PYTHONPATH`` (so an installed package cannot stand in for it),
replaces the text there, and runs ``python -m pytest -x`` on each test the
table names.  Row 0 is the unmutated copy, on which every test
must pass.  It prints a kill matrix, one line per row and one column per
test: ``K`` where the test failed, ``.`` where it passed, and ``*`` marks
the expected test.  A row whose expected test passes survived, and the
script exits 1.

The tier-1 suite does not run this script (the CI workflow runs it as a
step of its own, on one interpreter); it checks only that each row's text
occurs exactly once in ``src``, so the table cannot rot silently.  A
surviving mutant is a finding to record, not a row to delete.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # under src/dynkin
    text: str  # occurs exactly once in src
    replacement: str
    test: str  # the test id expected to kill it, from the repository root


MUTANTS = (
    # the root-only split places its copy after the input's nodes, not
    # second in breadth-first order
    Mutant(
        "core.py",
        "new_tree = EventTree(root, [root, copy_id, *below], depth, children)",
        "new_tree = EventTree(root, [root, *below, copy_id], depth, children)",
        "tests/test_core.py::test_split_frames_matches_the_reference_split_on_every_built_tree",
    ),
    # the root-only split of a leaf root leaves the terminal payoffs on the root
    Mutant(
        "core.py",
        "    if not kids_of.get(root):\n        for table in terminal.values():",
        "    if False:\n        for table in terminal.values():",
        "tests/test_core.py::test_split_frames_matches_the_reference_split_on_every_built_tree",
    ),
    # check_convexity's high end takes Y on a tie: max(-0.0, 0.0) is -0.0
    Mutant(
        "zerosum.py",
        "hi = y if y > x else x",
        "hi = y if y >= x else x",
        "tests/test_zerosum.py::TestPureOptimal::test_convexity_error_words_a_signed_zero_tie_as_min_and_max",
    ),
    # check_convexity's low end takes Y on a tie: min(0.0, -0.0) is 0.0
    Mutant(
        "zerosum.py",
        "lo = y if y < x else x",
        "lo = y if y <= x else x",
        "tests/test_zerosum.py::TestPureOptimal::test_convexity_error_words_a_signed_zero_tie_as_min_and_max",
    ),
    # validate_instance no longer requires nodes to list every node with a
    # depth once, only to be the breadth-first listing of the child lists
    Mutant(
        "core.py",
        "if len(nodes) != len(depth) or depth.keys() != set(nodes) or order != nodes:",
        "if order != nodes:",
        "tests/test_core.py::test_a_node_list_that_is_not_the_breadth_first_listing_is_an_instance_issue[child-listed-twice]",
    ),
    # player 1 waits at a contested A6 node on a weak preference
    Mutant(
        "equilibrium.py",
        "if _strict_gt(s1.opp[q], s1.sim[q], tol):",
        "if _weak_ge(s1.opp[q], s1.sim[q], tol):",
        "tests/test_equilibrium.py::TestConstruct::test_where_both_hit_player_1_waits_only_on_a_strict_preference",
    ),
    # the dual stage grid reads each cell as (antagonist, protagonist)
    Mutant(
        "zerosum.py",
        "[[(r, c) for c in PLAYER_ACTIONS] for r in DEVIATOR_ACTIONS]",
        "[[(c, r) for c in PLAYER_ACTIONS] for r in DEVIATOR_ACTIONS]",
        "tests/test_acceptance.py::test_criterion_2_stage_orientations_agree",
    ),
    # the invariant runner compares each saddle value with itself, not with
    # the reported value
    Mutant(
        "verify.py",
        "minimax += map(abs, map(sub, saddle, map(v.__getitem__, back)))",
        "minimax += map(abs, map(sub, saddle, saddle))",
        "tests/test_verify.py::TestInvariantRunner::test_minimax_agreement_checks_player_two_at_every_node",
    ),
    # validate_instance no longer requires nodes to be the breadth-first
    # listing of the child lists
    Mutant(
        "core.py",
        "depth.keys() != set(nodes) or order != nodes:",
        "depth.keys() != set(nodes):",
        "tests/test_core.py::test_a_node_list_that_is_not_the_breadth_first_listing_is_an_instance_issue[swapped]",
    ),
)


def _env(src: Path) -> dict[str, str]:
    """This process's environment with ``src`` first on ``PYTHONPATH``."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def _shadows(src: Path) -> bool:
    """Whether ``import dynkin`` loads the package in ``src``.  An installed
    ``dynkin`` must not take its place: ``pip install -e .`` puts the
    checkout's ``src`` on the path through a ``.pth`` file, which comes
    after ``PYTHONPATH``."""
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import dynkin; print(dynkin.__file__)"],  # -B: no bytecode to outlive a mutation
        cwd=ROOT, env=_env(src), capture_output=True, text=True, check=True,
    )
    return Path(proc.stdout.strip()).resolve().is_relative_to(src.resolve())


def _run(src: Path, test: str) -> tuple[bool, float]:
    """Whether ``test`` fails on the package in ``src``, and its seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
        cwd=ROOT, env=_env(src), capture_output=True, text=True, timeout=600,
    )
    if proc.returncode not in (0, 1):  # 2-5: interrupted, internal error, usage, no tests
        raise RuntimeError(f"pytest exited {proc.returncode} on {test}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == 1, time.perf_counter() - start


def main(argv: list[str]) -> int:
    rows = [int(arg) for arg in argv] or list(range(len(MUTANTS) + 1))
    tests = list(dict.fromkeys(m.test for m in MUTANTS))
    print("tests:")
    for k, test in enumerate(tests, 1):
        print(f"  t{k} {test}")
    print("row  " + "".join(f"t{k:<3}" for k in range(1, len(tests) + 1)) + "verdict    seconds  mutant")
    survived = 0
    for row in rows:
        with tempfile.TemporaryDirectory() as scratch:
            src = Path(scratch) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
            if not _shadows(src):
                raise SystemExit(f"row {row}: import dynkin does not load the copy in {src}")
            if row:
                mutant = MUTANTS[row - 1]
                path = src / "dynkin" / mutant.file
                text = path.read_text(encoding="utf-8")
                if text.count(mutant.text) != 1:
                    raise SystemExit(f"row {row}: the text occurs {text.count(mutant.text)} times in {mutant.file}")
                path.write_text(text.replace(mutant.text, mutant.replacement), encoding="utf-8")
            kills, seconds = zip(*(_run(src, test) for test in tests))
        cells = []
        for test, killed in zip(tests, kills):
            mark = "K" if killed else "."
            expected = bool(row) and test == MUTANTS[row - 1].test
            cells.append(f"{mark}{'*' if expected else ' '}  ")
        if row:
            killed = kills[tests.index(MUTANTS[row - 1].test)]
            verdict = "killed" if killed else "SURVIVED"
            mutant = MUTANTS[row - 1]
            shown = f"{mutant.file}: {mutant.text.strip().splitlines()[0]} -> {mutant.replacement.strip().splitlines()[0]}"
        else:
            killed = not any(kills)
            verdict = "clean" if killed else "FAILS"
            shown = "(unmutated src)"
        survived += not killed
        print(f"{row:<4} " + "".join(cells) + f"{verdict:<10} {sum(seconds):7.1f}  {shown}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
