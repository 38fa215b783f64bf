"""Self-test of the benchmark's checkers: each must reject a corrupted output.

Run from the repository root:

    python3 perfbench/selftest.py

It first confirms that every checker accepts the engine's true outputs, then
feeds each one an output with a single corruption and expects a reported
failure.  Exit code 0 means every corruption was caught.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent


def main() -> int:
    if not (ROOT / "src" / "dynkin" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import dynkin

    import checks

    # random depth 7 seed 53: an A6 root whose split grows 313 -> 935 nodes,
    # with a nonzero certified gap for player 2
    tree, payoffs = dynkin.generate(dynkin.GeneratorSpec(family="random", depth=7, branching=3, seed=53))
    eta = 0.05
    report = dynkin.construct(tree, payoffs, eta)
    source = checks.game_from_objects(tree, payoffs)
    split = checks.game_from_objects(report.tree, report.payoffs)
    mixes = (dict(report.profile.player1), dict(report.profile.player2))
    payoff = (report.payoff.g1, report.payoff.g2)
    gaps = (report.gap1, report.gap2)
    label = report.case_trace[0].label
    values = {i: dynkin.solve_value_process(tree, payoffs, i).value for i in (1, 2)}

    def report_problems(**change) -> list:
        args = dict(source=source, split=split, mixes=mixes, payoff=payoff, gaps=gaps, eta=eta, root_label=label)
        args.update(change)
        return checks.check_report(**args)

    root = split.root
    flipped = (mixes[0] | {root: (0.0, 0.0, 1.0) if mixes[0][root] != (0.0, 0.0, 1.0) else (1.0, 0.0, 0.0)}, mixes[1])
    nudged_split = copy.deepcopy(split)
    nudged_split.pay["X1"][root] += 1e-6
    nudged_value = dict(values[1])
    nudged_value[tree.nodes[len(tree.nodes) // 2]] += 1e-6
    halves = ({n: (0.5, 0.0, 0.5) for n in split.order}, mixes[1])

    cases = {
        "true report passes": (report_problems(), False),
        "true values pass": (checks.check_stage_values(source, 1, values[1]) + checks.check_stage_values(source, 2, values[2]), False),
        "one profile mix changed": (report_problems(mixes=flipped), True),
        "payoff nudged by 1e-6": (report_problems(payoff=(payoff[0] + 1e-6, payoff[1])), True),
        "gap altered": (report_problems(gaps=(gaps[0], gaps[1] + 1e-3)), True),
        "gap above 13*eta": (report_problems(eta=1e-4), True),
        "root label of the wrong region": (report_problems(root_label="A1" if label == "A6" else "A6"), True),
        "split changed a payoff": (report_problems(split=nudged_split), True),
        "pure profile with a 1/2 mix": (report_problems(mixes=halves, pure=True), True),
        "one stage value nudged by 1e-6": (checks.check_stage_values(source, 1, nudged_value), True),
        "brute force off by one ulp": (checks.check_equal("value", 0.1, 0.1 + 2**-56), True),
    }

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        csv_path = Path(tmp) / "values.csv"
        nodes = list(tree.nodes)
        hits = (set(), set())
        dynkin.toolkit.write_report_csv(csv_path, tree, values[1], values[2], *hits)
        cases["true values.csv passes"] = (checks.check_values_csv(source, csv_path), False)
        bad = dict(values[2])
        bad[nodes[-1]] += 1e-6
        dynkin.toolkit.write_report_csv(csv_path, tree, values[1], bad, *hits)
        cases["values.csv with one value nudged"] = (checks.check_values_csv(source, csv_path), True)

    failed = 0
    for name, (problems, expect_problem) in cases.items():
        ok = bool(problems) == expect_problem
        failed += not ok
        detail = problems[0] if problems else "no problem reported"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    print(f"{len(cases) - failed} of {len(cases)} checker cases behave as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
