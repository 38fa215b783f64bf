"""Golden outputs: one SHA-256 over the engine's results on a seeded exact corpus.

Every probability is 1, 1/2, 1/4 or 3/4, every payoff a multiple of 1/8 in
[-2, 2] and ``eta`` is 1/16, so every sum and product the engine forms is
exact in binary and the digest is the same on any Python version and under
any ``PYTHONHASHSEED``.  A change that moves any case trace, profile,
payoff, certificate, invariant figure or value process by one ulp moves the
digest.  One more digest per game covers the ``dynkin`` commands on a few
of these games and on generated chains, whose every probability is exactly 1.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from dynkin import (
    ConvexityError,
    EventTree,
    PayoffProcess,
    check_invariants,
    construct,
    construct_pure,
    save,
    solve_value_process,
)
from dynkin.cli import main

from helpers import assert_records_pinned

ETA = 1 / 16
GAMES = 120
# Child probabilities of a node with one, two or three children.
_SPLITS = (
    ((1.0,),),
    ((0.5, 0.5), (0.25, 0.75), (0.75, 0.25)),
    ((0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5)),
)
GOLDEN_SHA256 = "7b25bb0082cafd9b7e6df47a79c0fdb64c6ac8f063ca586498757b4ee2d1f8f2"
# Each game's short digest (``helpers.record_digests``), in seed order.
GOLDEN_RECORD_DIGESTS = (
    "3fb7abb3a71e4efd", "7e973192450efd12", "dd170fd2c2c2ef6a", "d3ef41b40e07a0f2", "883ac68e478c85b4",
    "93f01079acba07f1", "c202d1bf20ad523e", "1ec24113b83b98b7", "10ddd839030b1a50", "8614af036ee55c59",
    "c27bb1b2d4d95a37", "667894a0fabc6391", "63e8e6bbdf3fe22a", "77cea69398697238", "4620cb036a615fbc",
    "749bd4963839db2d", "2fcb3b448d614e87", "75ffb583a8c67c6b", "58c6530a47d23ea4", "316e1101ca1dc9e1",
    "50a43b761f32cec3", "0e90087abfe646ce", "75aa2be29ba54676", "4c317a38392cbebb", "7258fb09aff8e0fd",
    "18a6d5d0d33bc832", "5ebbc2af89128530", "64046ee5ceac8c7b", "672282f7bc31d09b", "0ff0be1c2df8ffac",
    "80141680cbfacb7e", "0da52ab7da348527", "15d20457280a9cd7", "cbb736eb0da7df0a", "01514835d8150ad5",
    "39e84bb61108c625", "49c352714ce44e2b", "a210bd99491eec57", "b0e209a76d020319", "ab10d10722a9c5a6",
    "0717dd3313b03e4d", "1e5c205b50bfd2d2", "855b232b79633fd2", "b22aaf9a7cf6297d", "d14d2492982182b0",
    "ceb10cfefbcf08b1", "1c76f8e2794b9c13", "12170376d9b453d7", "52ff2e1baa349945", "19d8ffde3ebc702c",
    "66152cb69049df90", "86ccf205bd267880", "148ed1c99f6ebb72", "83b38627251644d4", "517a1e87547c9025",
    "c037ef4530c59a59", "753b939646664dad", "1ed3f488304dcd0e", "cfe89fecbe6fb166", "c9e1c2d45eee026e",
    "65187508793eff11", "b48ad0f1920a0a2a", "23ea8b326465b297", "9312c94d9ca35e05", "9ada74be080460a3",
    "fea176376d836d9d", "2c68999659b4d2f3", "228949e3ceca7bc7", "c07dd24cb2ef4ea8", "ec31dbfe39c0267c",
    "6bc414bbaeba5a27", "4a2bdcb73fccd19e", "ec7ca8029fdeb934", "e3e680a11ed24359", "6064b4c1e4617992",
    "29e01db5c560caf6", "0e138fab5eac9b86", "6322eaf0ebdb0437", "0be29aca36f5264e", "34f71a5b75372cc2",
    "f4f3714a073a28af", "079ef87a0f4073c8", "32774c3c5708bcdc", "858f5fed1ea89a34", "438f24bb84bc70b2",
    "de7b726e15837ccf", "6ca717c341ff7063", "cabfb8b1f16fc7d3", "fe43145a02037557", "a5af2d1c08318a12",
    "5ae510ba26a419a3", "fe72a9d296c2a24c", "6c6e2b3b1d419ef1", "2222e3b2664a57a6", "0e262819275b3b36",
    "2522d05a74cd5389", "6edd3a5007af67dd", "35bb8159d7a7dfd6", "94f675d9d01e7737", "361f8078fefc8240",
    "46caae2d7b8b1df9", "71ee41511b0f4126", "a2781c32de43f712", "a0190bb4e4832ff2", "173889d0b476e71c",
    "da07a15b23c952af", "6e8983aa9bf3a4f1", "02cc44f29470d11d", "27c8ddf901708e97", "a3b94999a124e1ff",
    "615681d8a6480493", "f9673be8dd538b46", "20dc4cd8c7983791", "55c7b56025563a2c", "1f06f1d69ecb5869",
    "a4fdffba5df5dd9e", "97d97ca8a379c546", "92c406e1494fd7b3", "929af39e81dfff40", "edd23ee203db9d36",
)
# The root regions and A6 sub-cases the corpus reaches; a corpus change that
# loses one of them weakens the digest.
REACHED = {"A1", "A2", "A3", "A4", "M1", "M2", "M4", "A6", "A61", "A62", "A63", "A64", "A65", "A66"}


def golden_game(seed: int) -> tuple[EventTree, PayoffProcess]:
    """Depth 1 to 6, branching up to 3; every odd-seeded game is convex."""
    rng = random.Random(seed)
    depth = 1 + seed % 6
    branching = 1 + seed // 6 % 3
    children: dict[str, list[tuple[str, float]]] = {}
    frontier = ["n0"]
    for _ in range(depth):
        below = []
        for node in frontier:
            probs = rng.choice(_SPLITS[max(rng.randrange(branching), rng.randrange(branching))])
            kids = [(f"{node}.{k}", p) for k, p in enumerate(probs)]
            children[node] = kids
            below.extend(kid for kid, _ in kids)
        frontier = below
    tree = EventTree.build("n0", children)

    # in every fourth game stopping first pays at most 0 and being stopped on
    # at least 0, so both players tend to wait and some paths never hit
    waiting = seed % 4 == 2
    low, high = ((-16, 1), (0, 17)) if waiting else ((-16, 17), (-16, 17))

    def eighths(span: tuple[int, int] = (-16, 17)) -> float:
        return rng.randrange(*span) / 8

    tables = {name: {n: eighths() for n in tree.nodes} for name in ("z1", "z2")}
    for name, span in (("x1", low), ("y1", high), ("x2", high), ("y2", low)):
        tables[name] = {n: eighths(span) for n in tree.nodes}
    if seed % 2:
        for x, y, z in (("x1", "y1", "z1"), ("x2", "y2", "z2")):
            for n in tree.nodes:
                lo, hi = sorted((tables[x][n], tables[y][n]))
                tables[z][n] = min(max(tables[z][n], lo), hi)
    terminal = {name: {n: eighths(high) for n in tree.leaves} for name in ("xi1", "xi2")}
    return tree, PayoffProcess(**tables, **terminal)


def _hex(value: float) -> str:
    return float.hex(float(value))


def _mix(mix) -> str:
    return ",".join(map(_hex, mix))


def _report_lines(report) -> list[str]:
    lines = [f"case {c.label} {c.node}" for c in report.case_trace]
    for player, side in ((1, report.profile.player1), (2, report.profile.player2)):
        lines.extend(f"mix{player} {n} {_mix(m)}" for n, m in sorted(side.items()))
    lines.append(f"payoff {_hex(report.payoff.g1)} {_hex(report.payoff.g2)}")
    for cert in report.certificates:
        lines.append(
            f"cert{cert.player} {_hex(cert.best_response_value)} {_hex(cert.path_value)} "
            f"{_hex(cert.gap)} {_hex(cert.raw_gap)}"
        )
        lines.extend(f"br{cert.player} {n} {a.value}" for n, a in sorted(cert.strategy.items()))
    return lines


def golden_lines(tree: EventTree, payoffs: PayoffProcess) -> list[str]:
    lines = _report_lines(construct(tree, payoffs, ETA))
    try:
        lines.extend("pure " + line for line in _report_lines(construct_pure(tree, payoffs, ETA)))
    except ConvexityError as exc:
        lines.append(f"pure ConvexityError {exc}")
    for check in check_invariants(tree, payoffs, ETA).checks:
        lines.append(f"check {check.name} {check.passed} {_hex(check.worst)} {check.witness}")
    for player in (1, 2):
        process = solve_value_process(tree, payoffs, player)
        lines.extend(f"v{player} {n} {_hex(v)} {_mix(process.min_mix[n])}" for n, v in process.value.items())
    return lines


def _headline(record: bytes) -> str:
    """A golden record's case trace and payoff lines, joined by ``; ``."""
    return "; ".join(line for line in record.decode().splitlines() if line.startswith(("case ", "payoff ")))


def test_golden_digest_of_the_exact_corpus():
    digest = hashlib.sha256()
    labels = set()
    records = []  # one per game: its lines and the blank-line separator
    for seed in range(GAMES):
        tree, payoffs = golden_game(seed)
        lines = golden_lines(tree, payoffs)
        labels.update(line.split()[1] for line in lines if line.startswith("case "))
        records.append("\n".join(lines).encode() + b"\n\n")
        digest.update(records[-1])
    assert labels >= REACHED
    names = [f"golden_game({seed})" for seed in range(GAMES)]
    assert_records_pinned(records, GOLDEN_SHA256, GOLDEN_RECORD_DIGESTS, _headline, names)
    assert digest.hexdigest() == GOLDEN_SHA256


# ---------------------------------------------------------------------------
# The CLI workflow: every command's exit code, printed lines and files.

# ``generate`` argv tails.  Chains (branching 1) give every child probability
# exactly 1.0, so the generated bytes do not depend on how ``sum`` rounds.
CLI_GENERATED = (
    ("--family", "random", "--seed", "1"),
    ("--family", "random", "--seed", "3", "--convexity"),
    ("--family", "war-of-attrition", "--seed", "1"),
    ("--family", "preemption", "--seed", "0", "--convexity"),
)
# ``golden_game`` seeds, saved as game files: A6 roots with each split case,
# an A2 and an M1 root, branching up to 3; the odd seeds are convex.
CLI_GOLDEN = (9, 10, 15, 31, 44)
# One SHA-256 per game, keyed by its ``generate`` argv tail or golden seed.
CLI_SHA256 = {
    "--family random --seed 1": "1decca11cbf192b1a325b5300f394bd7a0a15509edb424cb599409785720209b",
    "--family random --seed 3 --convexity": "4854a159e5580e2204f7bd996d02b14d1e1a2b07545197905dc2a81d69b688f9",
    "--family war-of-attrition --seed 1": "e602fa0edabb8f5907436a2c4bc64e1bf5b00ca9a98ca1040d357650a8f5914f",
    "--family preemption --seed 0 --convexity": "a1d6eaa4a93429d66e92dedf3462a1df6424b9514ec479533a213d61a15f187d",
    "golden 9": "7edb659b5493e342196a43a894e26a484435554d77ea264638468f16d2fe2385",
    "golden 10": "f51003906b72446f431390efe56d9cc3f3a4524c7dd82a1892bffafb19ceaecd",
    "golden 15": "f8af581bcb462fcc17120a520dc23a98b462d0d2161df4cc9858864c291d9c4f",
    "golden 31": "203dc356d17d7c712ff61d506d13fc8e9f9127bda706247d22af2f6a2ffa3a26",
    "golden 44": "49bfc52aceecebef848f158b653b8f131901cd957fb2944905294724ff079c68",
}


def _hex_doc(value):
    """A parsed document with every float written as ``float.hex``."""
    if isinstance(value, float):
        return float.hex(value)
    if isinstance(value, dict):
        return {key: _hex_doc(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hex_doc(item) for item in value]
    return value


def cli_lines(capsys, game: str) -> list[str]:
    """Run every command that reads ``game`` and word what each one left."""
    lines = []

    def run(*argv: str) -> None:
        code = main(list(argv))
        captured = capsys.readouterr()
        lines.append(f"$ {' '.join(argv)} -> {code}\n{captured.out}{captured.err}")

    def report(path: str) -> None:
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                lines.append(json.dumps(_hex_doc(json.load(handle)), sort_keys=True))
            os.remove(path)

    run("equilibrium", game, "--eta", "0.05", "--out", "report.json")
    run("verify", game, "--profile", "report.json", "--eta", "0.05")
    run("verify", game, "--profile", "report.json", "--gap-threshold", "1e-12")
    report("report.json")
    run("equilibrium", game, "--eta", "0.05", "--pure", "--out", "pure.json")
    if os.path.exists("pure.json"):
        run("verify", game, "--profile", "pure.json", "--eta", "0.05")
    report("pure.json")
    run("invariants", game, "--eta", "0.05")
    run("solve", game, "--eta", "0.05", "--out", "values.csv")
    with open("values.csv", "rb") as handle:
        lines.append(handle.read().hex())
    return lines


def test_cli_digest(tmp_path, monkeypatch, capsys):
    """One SHA-256 per game over the CLI workflow on small seeded games:
    ``generate``, then ``equilibrium`` with and without ``--pure``, ``verify
    --profile``, ``invariants`` and ``solve``.  Each hashes the game's
    ``generate`` line (for a generated chain), its bytes, and each exit code
    and printed line, the CSV bytes and each report parsed with its floats as
    ``float.hex``, so a report's layout may change but not its content, and a
    change shows which games it moves."""
    monkeypatch.chdir(tmp_path)  # printed paths are relative
    games = {}
    for k, tail in enumerate(CLI_GENERATED):
        game = f"g{k}.json"
        code = main(["generate", "--depth", "5", "--branching", "1", *tail, "--out", game])
        games[" ".join(tail)] = (game, f"{code} {capsys.readouterr().out}")
    for seed in CLI_GOLDEN:
        game = f"golden{seed}.json"
        save(game, *golden_game(seed))
        games[f"golden {seed}"] = (game, "")
    digests = {}
    for key, (game, generated) in games.items():
        digest = hashlib.sha256(generated.encode())
        with open(game, "rb") as handle:
            digest.update(handle.read())
        digest.update("\n".join(cli_lines(capsys, game)).encode())
        digests[key] = digest.hexdigest()
    assert digests == CLI_SHA256
