"""Command-line pipeline: generate, solve, equilibrium, verify, invariants.

--tol is the absolute tolerance of the hitting and root-region tests in
solve, equilibrium and invariants alike.

Exit codes: 0 success, 1 usage (including an --eta, --gap-threshold or
--range that is not a finite number above zero, a --tol that is not a finite
number at or above zero, a --depth below 0 or a --branching below 1, a
generate whose game would hold a payoff above core.PAYOFF_LIMIT, which writes
no file, and --pure on a game that breaks convexity, or whose Z lies above
max(X, Y) by no more than --tol where a punishment would be a uniform stop),
2 schema violation
(including a file that is not readable JSON, a payoff above
core.PAYOFF_LIMIT, a profile that does not fit its tree, and a report
without second_half, whose second_half does not map each of its game nodes
to the copy the split inserts below it, or whose instance is not the game
split at those nodes), 3 invariant failure, 4 deviation gap above
threshold, 5 internal model violation.

Each command checks its game once, in ``toolkit.load``; equilibrium and
invariants then run the engine's private bodies (``equilibrium._construct``,
``verify._check_invariants``), which do not check the game again.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from typing import Optional

from .core import ConvexityError, EventTree, InstanceError, ModelViolationError, PayoffProcess, ProfileError, require_tol, split_frames
from .equilibrium import _construct, classify
from .toolkit import (
    FAMILIES,
    GeneratorSpec,
    SchemaError,
    generate,
    instance_to_doc,
    load,
    profile_from_doc,
    profile_to_doc,
    read_doc,
    save,
    write_doc,
    write_report_csv,
)
from .verify import _check_invariants, deviation_gap
from .zerosum import hitting_time, solve_value_process

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEMA = 2
EXIT_INVARIANT = 3
EXIT_GAP = 4
EXIT_MODEL = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(text: str) -> float:
    """Argument type for --eta and --gap-threshold: a finite number above zero."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number above zero, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """Argument type for --tol: a finite number at or above zero (``require_tol``)."""
    value = float(text)
    try:
        require_tol(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call:
    parsing leaves it unchanged, so every later call reuses it."""
    parser = _Parser(prog="dynkin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a seeded instance file")
    gen.add_argument("--family", choices=FAMILIES, default="random")
    gen.add_argument("--depth", type=int, default=3)
    gen.add_argument("--branching", type=int, default=2)
    gen.add_argument("--range", dest="payoff_range", type=float, default=1.0)
    gen.add_argument("--zero-sum", action="store_true")
    gen.add_argument("--convexity", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="emit both value processes as CSV")
    solve.add_argument("instance")
    solve.add_argument("--eta", type=_positive, default=0.05)
    solve.add_argument("--tol", type=_tolerance, default=None)
    solve.add_argument("--out", required=True)

    eq = sub.add_parser("equilibrium", help="construct and certify a profile")
    eq.add_argument("instance")
    eq.add_argument("--eta", type=_positive, default=0.05)
    eq.add_argument("--tol", type=_tolerance, default=None)
    eq.add_argument("--pure", action="store_true")
    eq.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="certify a provided profile")
    ver.add_argument("instance")
    ver.add_argument("--profile", help="profile JSON; defaults to one embedded in the instance")
    ver.add_argument("--eta", type=_positive, default=0.05)
    ver.add_argument("--gap-threshold", type=_positive, default=None)

    inv = sub.add_parser("invariants", help="run the solver invariant suite")
    inv.add_argument("instance")
    inv.add_argument("--eta", type=_positive, default=0.05)
    inv.add_argument("--tol", type=_tolerance, default=None)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        family=args.family,
        depth=args.depth,
        branching=args.branching,
        payoff_range=args.payoff_range,
        zero_sum=args.zero_sum,
        convexity=args.convexity,
        seed=args.seed,
    )
    try:
        tree, payoffs = generate(spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    save(args.out, tree, payoffs)
    print(f"wrote {args.out}: {len(tree.nodes)} nodes, horizon {tree.horizon}")
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    # as in construct, --tol is resolved once and reaches the hitting and root
    # tests; the solver has none
    tree, payoffs, _ = load(args.instance)
    tol = payoffs.tolerance(args.tol)
    v1 = solve_value_process(tree, payoffs, 1)
    v2 = solve_value_process(tree, payoffs, 2)
    h1 = hitting_time(tree, payoffs, v1, args.eta, tol)
    h2 = hitting_time(tree, payoffs, v2, args.eta, tol)
    case = classify(tree, payoffs, v1, v2, tol=tol)
    write_report_csv(
        args.out,
        tree,
        v1.value,
        v2.value,
        h1.hits(),
        h2.hits(),
        cases={case.node: case.label},
    )
    print(f"wrote {args.out}: root v1={v1.value[tree.root]!r} v2={v2.value[tree.root]!r} case={case.label}")
    return EXIT_OK


def _cmd_equilibrium(args: argparse.Namespace) -> int:
    tree, payoffs, _ = load(args.instance)
    report = _construct(tree, payoffs, args.eta, args.tol, pure=args.pure)
    doc = {
        "eta": report.eta,
        "tol": report.tol,
        "case_trace": [{"label": c.label, "node": c.node} for c in report.case_trace],
        "payoff": [report.payoff.g1, report.payoff.g2],
        "gaps": {
            "player1": _cert_doc(report.certificates[0]),
            "player2": _cert_doc(report.certificates[1]),
        },
        "profile": profile_to_doc(report.profile),
        "instance": instance_to_doc(report.tree, report.payoffs),
        "second_half": report.second_half,
    }
    write_doc(args.out, doc)
    print(
        f"wrote {args.out}: case={report.case_trace[0].label} "
        f"payoff=({report.payoff.g1:.6g}, {report.payoff.g2:.6g}) "
        f"gaps=({report.gap1:.3g}, {report.gap2:.3g})"
    )
    return EXIT_OK


def _cert_doc(cert) -> dict:
    return {
        "best_response": cert.best_response_value,
        "path_value": cert.path_value,
        "gap": cert.gap,
        "raw_gap": cert.raw_gap,
    }


def _report_instance(doc: dict, tree: EventTree, payoffs: PayoffProcess) -> tuple[EventTree, PayoffProcess]:
    """The frame-split instance a report's profile lives on.

    The split is rebuilt from the game at the report's ``second_half`` nodes;
    each of them must map to the copy the split inserted below it, and the
    report's embedded instance must equal the split entry for entry.
    """
    targets = doc.get("second_half")
    inserted = None
    if isinstance(targets, dict) and all(map(tree.depth.__contains__, targets)):
        stree, spay, inserted = split_frames(tree, payoffs, list(targets))
    if inserted is None or any(inserted[node] != copy for node, copy in targets.items()):
        raise SchemaError("report: second_half must map game nodes to their split copies")
    if instance_to_doc(stree, spay) != doc["instance"]:
        raise SchemaError("report instance differs from the game split at its second_half nodes")
    return stree, spay


def _cmd_verify(args: argparse.Namespace) -> int:
    tree, payoffs, profile = load(args.instance)
    if args.profile:
        doc = read_doc(args.profile)
        if not isinstance(doc, dict):
            raise SchemaError(f"{args.profile}: expected an object")
        profile = profile_from_doc(doc.get("profile", doc))
        if "instance" in doc:
            tree, payoffs = _report_instance(doc, tree, payoffs)
    if profile is None:
        print("error: no profile embedded in the instance and none provided", file=sys.stderr)
        return EXIT_USAGE
    cert1, cert2 = deviation_gap(tree, payoffs, profile)
    threshold = args.gap_threshold
    if threshold is None:
        threshold = 13.0 * args.eta + 1e-6 * max(1.0, payoffs.payoff_range)
    print(f"gap1={cert1.gap!r} gap2={cert2.gap!r} threshold={threshold!r}")
    if cert1.gap > threshold or cert2.gap > threshold:
        return EXIT_GAP
    return EXIT_OK


def _cmd_invariants(args: argparse.Namespace) -> int:
    tree, payoffs, _ = load(args.instance)
    report = _check_invariants(tree, payoffs, args.eta, args.tol)
    for check in report.checks:
        status = "pass" if check.passed else "FAIL"
        witness = f" at {check.witness}" if check.witness else ""
        print(f"{status} {check.name}: worst={check.worst!r}{witness}")
    return EXIT_OK if report.all_pass else EXIT_INVARIANT


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "equilibrium": _cmd_equilibrium,
    "verify": _cmd_verify,
    "invariants": _cmd_invariants,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConvexityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, ProfileError, InstanceError) as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ModelViolationError as exc:
        print(f"model violation: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
