"""Inputs and operations of the four workloads.

An operation takes one instance through its workload's pipeline.  Only the
calls into the engine are timed; the independent checks run after them.
Every operation returns an ``Outcome``.
"""

from __future__ import annotations

import io
import json
import os
import random
import re
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import dynkin
import dynkin.cli

import checks

FAMILIES = ("random", "war-of-attrition", "preemption")
ETA = 0.05


@dataclass
class Outcome:
    parts: list  # wall seconds of each timed engine call, in a fixed order
    nodes: int  # input-tree nodes
    report_nodes: int  # nodes of the trees the certified profiles live on
    problems: list = field(default_factory=list)  # wrong outputs
    failure: Optional[str] = None  # the known verify fault, when it bites
    level: float = 1.0  # machine speed around the operation (reference.py)

    @property
    def seconds(self) -> float:
        return sum(self.parts)


@dataclass
class Op:
    name: str
    run: Callable[["Context"], Outcome]


@dataclass
class Context:
    root: Path
    tracer: object = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()


# ---------------------------------------------------------------------------
# ladder: construct over a seeded ladder of sizes, families and root regions

# (family, depth, root region, variant); a region is "A" (player 1 moves
# first) or "M" (mirrored).  A6 roots are left to the a6-split workload.
# The variants sit at depth 6, so nine operations of like cost surround the
# median one and op_ms_p50 does not jump between rungs from seed to seed.
LADDER = (
    [(family, depth, "A", None) for family in FAMILIES for depth in range(4, 9)]
    + [("random", 5, "M", None), ("war-of-attrition", 5, "M", None), ("war-of-attrition", 7, "M", None), ("random", 8, "M", None)]
    + [(family, 6, "A", "convexity") for family in FAMILIES]
    + [(family, 6, "A", "zero_sum") for family in FAMILIES]
)
# Each rung draws a fixed number of candidates, so set-up does about the same
# work on every seed, and keeps the one of the wanted root region closest in
# size to 2**(depth+1) - 1 nodes; it draws more only if none is in the region.
# Shallow rungs draw more candidates (they are cheap), which keeps the sizes
# near the middle of the ladder, and so the median operation, steady.  M roots
# are rarer than A roots, so M rungs draw at least 24.  Regions come from the
# independent values.
MIN_DRAWS = {"A": 8, "M": 24}
# With 4096 candidate nodes per rung (8 draws at depth 8), report_nodes
# spread by 8% over ten seeds; with 8192, by 6%.
DRAW_BUDGET = 8192  # candidate nodes per rung


def _ladder_instance(rng: random.Random, family: str, depth: int, region: str, variant: Optional[str]):
    target = 2 ** (depth + 1) - 1
    draws = max(MIN_DRAWS[region], min(48, DRAW_BUDGET // target))
    tried = 0
    while True:
        candidates = []
        for _ in range(draws):
            spec = dynkin.GeneratorSpec(
                family=family,
                depth=depth,
                branching=3,
                seed=rng.randrange(1 << 30),
                convexity=variant == "convexity",
                zero_sum=variant == "zero_sum",
            )
            candidates.append((spec, *dynkin.toolkit.generate(spec)))
        candidates.sort(key=lambda c: (abs(len(c[1].nodes) - target), c[0].seed))
        for spec, tree, payoffs in candidates:
            game = checks.game_from_objects(tree, payoffs)
            if checks.root_region(game, checks.value_process(game, 1), checks.value_process(game, 2)) == region:
                return spec, tree, payoffs, game
        tried += len(candidates)
        if tried >= 100 * draws:
            raise RuntimeError(f"no {family} depth {depth} candidate has a root in region {region}")


def _construct_op(name, tree, payoffs, game, eta, pure=False) -> Op:
    def run(ctx: Context) -> Outcome:
        build = dynkin.equilibrium.construct_pure if pure else dynkin.equilibrium.construct
        start = time.perf_counter()
        report = build(tree, payoffs, eta)
        seconds = time.perf_counter() - start
        problems = checks.check_report(
            game,
            checks.game_from_objects(report.tree, report.payoffs),
            (report.profile.player1, report.profile.player2),
            (report.payoff.g1, report.payoff.g2),
            (report.gap1, report.gap2),
            eta,
            report.case_trace[0].label,
            pure,
        )
        return Outcome([seconds], len(tree.nodes), len(report.tree.nodes), problems)

    return Op(name, run)


def ladder(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    ops = []
    for family, depth, region, variant in LADDER:
        spec, tree, payoffs, game = _ladder_instance(rng, family, depth, region, variant)
        name = f"{family}-d{depth}-{region}{'-' + variant if variant else ''}-s{spec.seed}"
        ops.append(_construct_op(name, tree, payoffs, game, ETA, pure=variant == "convexity"))
    return ops


# ---------------------------------------------------------------------------
# a6-split: named A6-root instances whose frame split grows the tree

A6_NAMED = [(6, s) for s in (56, 41, 64, 48, 103)] + [(7, s) for s in (53, 26, 48, 106)]
A6_ETAS = (0.02, 0.05, 0.1)  # every named instance splits to the same tree at each


def a6_split(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    ops = []
    for depth, gseed in A6_NAMED:
        tree, payoffs = dynkin.toolkit.generate(dynkin.GeneratorSpec(family="random", depth=depth, branching=3, seed=gseed))
        eta = rng.choice(A6_ETAS)
        game = checks.game_from_objects(tree, payoffs)
        ops.append(_construct_op(f"random-d{depth}-s{gseed}-eta{eta}", tree, payoffs, game, eta))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli-files: the README workflow, one dynkin.cli.main(argv) call per command

# Fixed files, so that the verify fault fails the same operations on every
# seed: the first two hit it, the others do not.  A few hundred nodes each,
# so that a run holds enough rounds for a steady median time per command.
CLI_NAMED = (
    ("random", 7, 4),  # A1 root, 213 nodes
    ("random", 7, 62),  # A6 root, 257 -> 517 nodes
    ("random", 8, 44),  # A6 root, 211 -> 328 nodes
    ("war-of-attrition", 8, 16),  # 290 nodes
    ("preemption", 8, 18),  # 289 nodes
)
GAP_LINE = re.compile(r"gap1=(\S+) gap2=(\S+)")


def _cli(ctx: Context, argv: list) -> tuple:
    """Run one dynkin command in this process; return (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()), ctx.span("cli." + argv[0]):
        code = dynkin.cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def _cli_op(name: str, game_path: Path, game: checks.Game, workdir: Path) -> Op:
    report_path = workdir / f"{name}.report.json"
    values_path = workdir / f"{name}.values.csv"
    eta = str(ETA)

    def run(ctx: Context) -> Outcome:
        problems = []
        code, _, dt = _cli(ctx, ["equilibrium", str(game_path), "--eta", eta, "--out", str(report_path)])
        parts = [dt]
        if code != 0:
            return Outcome(parts, len(game.order), 0, [f"equilibrium exited {code}"])
        report = json.loads(report_path.read_text(encoding="utf-8"))
        split = checks.game_from_doc(report["instance"])
        gaps = (report["gaps"]["player1"]["gap"], report["gaps"]["player2"]["gap"])
        problems += checks.check_report(
            game,
            split,
            (report["profile"]["player1"], report["profile"]["player2"]),
            tuple(report["payoff"]),
            gaps,
            ETA,
            report["case_trace"][0]["label"],
        )

        code, out, dt = _cli(ctx, ["verify", str(game_path), "--profile", str(report_path), "--eta", eta])
        parts.append(dt)
        failure = None
        match = GAP_LINE.search(out)
        if code not in (0, 4) or match is None:
            problems.append(f"verify exited {code} with output {out.strip()!r}")
        else:
            verified = (float(match.group(1)), float(match.group(2)))
            if not all(checks.close(a, b, game.scale) for a, b in zip(verified, gaps)):
                failure = (
                    f"verify checks the split-tree profile against the unsplit game: "
                    f"gaps {verified} vs the report's {gaps}"
                )
            elif code != 0:
                problems.append(f"verify exited {code} on gaps {verified}")

        code, out, dt = _cli(ctx, ["invariants", str(game_path), "--eta", eta])
        parts.append(dt)
        if code != 0:
            problems.append(f"invariants exited {code}: {out.strip()[-200:]!r}")

        code, _, dt = _cli(ctx, ["solve", str(game_path), "--eta", eta, "--out", str(values_path)])
        parts.append(dt)
        if code != 0:
            problems.append(f"solve exited {code}")
        else:
            problems += checks.check_values_csv(game, values_path)
        return Outcome(parts, len(game.order), len(split.order), problems, failure)

    return Op(name, run)


def cli_files(seed: int, workdir: Path) -> list:
    ops = []
    for family, depth, gseed in CLI_NAMED:
        name = f"{family}-d{depth}-s{gseed}"
        tree, payoffs = dynkin.toolkit.generate(dynkin.GeneratorSpec(family=family, depth=depth, branching=3, seed=gseed))
        path = workdir / f"{name}.json"
        dynkin.toolkit.save(path, tree, payoffs)
        game = checks.game_from_doc(json.loads(path.read_text(encoding="utf-8")))
        ops.append(_cli_op(name, path, game, workdir))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle: brute-force enumerators against the dynamic programs, exactly

# Small trees; every probability is a power of two, so sums are exact.  The
# largest has 6 nodes: on a 7-node tree one brute_force_value call takes
# seconds, and a run would hold too few rounds for a steady median time.
ORACLE_SHAPES = (
    {},
    {"r": [("a", 1.0)]},
    {"r": [("a", 1.0)], "a": [("b", 1.0)]},
    {"r": [("a", 0.5), ("b", 0.5)]},
    {"r": [("a", 0.25), ("b", 0.75)]},
    {"r": [("a", 0.25), ("b", 0.25), ("c", 0.5)]},
    {"r": [("a", 1.0)], "a": [("b", 0.5), ("c", 0.5)]},
    {"r": [("a", 0.5), ("b", 0.5)], "a": [("c", 1.0)], "b": [("d", 1.0)]},
    {"r": [("a", 0.5), ("b", 0.5)], "a": [("c", 0.25), ("d", 0.75)], "b": [("e", 1.0)]},
)
# Dyadic mixes in which every action has weight: the enumerators skip rules
# of probability zero, so zero weights would make their work depend on the
# seed rather than on the shape.
DYADIC_MIXES = (
    (0.25, 0.25, 0.5),
    (0.25, 0.5, 0.25),
    (0.5, 0.25, 0.25),
    (0.125, 0.375, 0.5),
    (0.375, 0.125, 0.5),
    (0.5, 0.375, 0.125),
)


def _oracle_op(name: str, tree, payoffs, profile) -> Op:
    game = checks.game_from_objects(tree, payoffs)
    root = tree.root
    sides = (profile.player1, profile.player2)

    def run(ctx: Context) -> Outcome:
        verify = dynkin.verify
        parts = []

        def timed(fn, *args):
            start = time.perf_counter()
            result = fn(*args)
            parts.append(time.perf_counter() - start)
            return result

        payoff_bf = timed(verify.brute_force_payoff, tree, payoffs, profile)
        payoff_dp = timed(dynkin.core.evaluate_profile, tree, payoffs, profile)
        replies = []
        for deviator in (1, 2):
            opponent = sides[2 - deviator]
            replies.append(
                (
                    timed(verify.brute_force_best_response, tree, payoffs, opponent, deviator),
                    timed(verify.best_response, tree, payoffs, opponent, deviator)[0][root],
                )
            )
        values = []
        for player in (1, 2):
            values.append(
                (
                    timed(verify.brute_force_value, tree, payoffs, player),
                    timed(dynkin.zerosum.solve_value_process, tree, payoffs, player),
                )
            )

        problems = checks.check_equal("payoff", tuple(payoff_bf), tuple(payoff_dp))
        own = checks.evaluate(game, sides[0], sides[1])
        if not all(checks.close(a, b, game.scale) for a, b in zip(own, payoff_dp)):
            problems.append(f"payoff {tuple(payoff_dp)} != independent {own}")
        for deviator, (bf, dp) in zip((1, 2), replies):
            problems += checks.check_equal(f"best response {deviator}", bf, dp)
            mine = checks.best_response_value(game, sides[2 - deviator], deviator)
            if not checks.close(mine, dp, game.scale):
                problems.append(f"best response {deviator}: {dp!r} != independent {mine!r}")
        for player, (bf, process) in zip((1, 2), values):
            problems += checks.check_equal(f"value {player}", bf, process.value[root])
            problems += checks.check_stage_values(game, player, process.value)
        return Outcome(parts, len(tree.nodes), len(tree.nodes), problems)

    return Op(name, run)


def oracle(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    ops = []
    for k, shape in enumerate(ORACLE_SHAPES):
        tree = dynkin.core.EventTree.build("r", shape)

        def dyadic() -> float:
            return rng.randrange(-16, 17) / 8.0

        tables = {key: {n: dyadic() for n in tree.nodes} for key in ("x1", "y1", "z1", "x2", "y2", "z2")}
        terminal = {key: {n: dyadic() for n in tree.leaves} for key in ("xi1", "xi2")}
        payoffs = dynkin.core.PayoffProcess(**tables, **terminal)
        profile = dynkin.core.BehavioralProfile(
            player1={n: rng.choice(DYADIC_MIXES) for n in tree.nodes},
            player2={n: rng.choice(DYADIC_MIXES) for n in tree.nodes},
        )
        ops.append(_oracle_op(f"shape{k}-{len(tree.nodes)}nodes", tree, payoffs, profile))
    return ops


WORKLOADS = {
    "ladder": ladder,
    "a6-split": a6_split,
    "cli-files": cli_files,
    "oracle": oracle,
}
