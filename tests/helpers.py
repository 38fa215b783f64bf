"""Shared instance builders for the test suite."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import reprlib
import sys
from collections.abc import Mapping, Sequence
from typing import Callable, Container, Iterator, Optional

from dynkin import (
    BehavioralProfile,
    EventTree,
    GeneratorSpec,
    HittingTime,
    InstanceError,
    ModelViolationError,
    PayoffPair,
    PayoffProcess,
    ValueProcess,
    generate,
)
from dynkin.core import (
    ATOM_MIX,
    DEVIATOR_ACTIONS,
    PAYOFF_LIMIT,
    PLAYER_ACTIONS,
    PROB_TOL,
    UNIFORM_MIX,
    WAIT_MIX,
    STOP_ORDER,
    Mix,
    Outcome,
    StageAction,
    deviator_lines,
    require_player,
)
from dynkin.zerosum import check_convexity


def uniform_tree(depth: int, branching: int = 2) -> EventTree:
    """Complete tree with equal child probabilities."""
    children: dict[str, list[tuple[str, float]]] = {}
    counter = 0
    frontier = ["n0"]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            kids = []
            for _ in range(branching):
                counter += 1
                kids.append((f"n{counter}", 1.0 / branching))
            children[node] = kids
            nxt.extend(k for k, _ in kids)
        frontier = nxt
    return EventTree.build("n0", children)


def chain_tree(depth: int) -> EventTree:
    children = {f"n{d}": [(f"n{d + 1}", 1.0)] for d in range(depth)}
    return EventTree.build("n0", children)


def constant_payoffs(
    tree: EventTree,
    x: float,
    y: float,
    z: float,
    xi: float,
    zero_sum: bool = True,
    x2: float | None = None,
    y2: float | None = None,
    z2: float | None = None,
    xi2: float | None = None,
) -> PayoffProcess:
    """Node-constant payoffs; player 2 defaults to the zero-sum complement."""
    if x2 is None:
        x2, y2, z2, xi2 = (-x, -y, -z, -xi) if zero_sum else (x, y, z, xi)
    nodes = tree.nodes
    leaves = tree.leaves
    return PayoffProcess(
        x1={n: x for n in nodes},
        y1={n: y for n in nodes},
        z1={n: z for n in nodes},
        x2={n: x2 for n in nodes},
        y2={n: y2 for n in nodes},
        z2={n: z2 for n in nodes},
        xi1={n: xi for n in leaves},
        xi2={n: xi2 for n in leaves},
    )


def single_node_payoffs(x1, y1, z1, xi1, x2, y2, z2, xi2) -> tuple[EventTree, PayoffProcess]:
    tree = EventTree.build("n0", {})
    return tree, PayoffProcess(
        x1={"n0": x1},
        y1={"n0": y1},
        z1={"n0": z1},
        x2={"n0": x2},
        y2={"n0": y2},
        z2={"n0": z2},
        xi1={"n0": xi1},
        xi2={"n0": xi2},
    )


def corpus(
    count: int,
    seed0: int = 0,
    depth_lo: int = 2,
    depth_hi: int = 6,
    branching_hi: int = 3,
    families: tuple[str, ...] = ("random", "war-of-attrition", "preemption"),
    **spec_kw,
) -> list[tuple[EventTree, PayoffProcess]]:
    """Deterministic mixed-family corpus; same arguments give the same list."""
    out = []
    span = depth_hi - depth_lo + 1
    for k in range(count):
        spec = GeneratorSpec(
            family=families[k % len(families)],
            depth=depth_lo + k % span,
            branching=1 + k % branching_hi,
            seed=seed0 + k,
            **spec_kw,
        )
        out.append(generate(spec))
    return out


# Tree shapes for the exact brute-force corpus: small enough to enumerate.
DYADIC_SHAPES: list[dict[str, list[tuple[str, float]]]] = [
    {},
    {"r": [("a", 1.0)]},
    {"r": [("a", 1.0)], "a": [("b", 1.0)]},
    {"r": [("a", 0.5), ("b", 0.5)]},
    {"r": [("a", 0.25), ("b", 0.75)]},
    {"r": [("a", 0.25), ("b", 0.25), ("c", 0.5)]},
    {"r": [("a", 1.0)], "a": [("b", 0.5), ("c", 0.5)]},
    {"r": [("a", 0.5), ("b", 0.5)], "a": [("c", 1.0)], "b": [("d", 1.0)]},
    {"r": [("a", 0.5), ("b", 0.5)], "a": [("c", 0.5), ("d", 0.5)], "b": [("e", 0.25), ("f", 0.75)]},
    {"r": [("a", 0.5), ("b", 0.5)], "a": [("c", 0.25), ("d", 0.75)], "b": [("e", 1.0)]},
]


def dyadic_instance(shape: dict, seed: int) -> tuple[EventTree, PayoffProcess]:
    """Small instance whose payoffs and probabilities are exact in binary."""
    tree = EventTree.build("r", shape)
    rng = random.Random(seed)

    def dy() -> float:
        return rng.randrange(-16, 17) / 8.0

    tables = {k: {n: dy() for n in tree.nodes} for k in ("x1", "y1", "z1", "x2", "y2", "z2")}
    terms = {k: {n: dy() for n in tree.leaves} for k in ("xi1", "xi2")}
    return tree, PayoffProcess(**tables, **terms)


DYADIC_MIXES = [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.5, 0.5, 0.0),
    (0.5, 0.0, 0.5),
    (0.0, 0.5, 0.5),
    (0.25, 0.25, 0.5),
    (0.25, 0.5, 0.25),
]


def dyadic_mixes(tree: EventTree, seed: int) -> dict[str, tuple[float, float, float]]:
    rng = random.Random(seed)
    return {n: DYADIC_MIXES[rng.randrange(len(DYADIC_MIXES))] for n in tree.nodes}


def zero_sum_push_table(
    tree: EventTree, payoffs: PayoffProcess, fragment: dict, player: int
) -> dict[str, float]:
    """Per-node worst payoff for ``player`` using ``fragment`` against a
    minimizing opponent, by exact backward induction over pure stops."""
    if player == 1:
        own, opp, sim, xi = payoffs.x1, payoffs.y1, payoffs.z1, payoffs.xi1
    else:
        own, opp, sim, xi = payoffs.y2, payoffs.x2, payoffs.z2, payoffs.xi2
    vals: dict[str, float] = {}
    for node in reversed(tree.nodes):
        if tree.is_leaf(node):
            cont = xi[node]
        else:
            cont = sum(p * vals[c] for c, p in tree.children[node])
        a, u, w = fragment[node]
        vals[node] = min(
            a * sim[node] + (u + w) * opp[node],
            a * own[node] + (u + w) * opp[node],
            (a + u) * own[node] + w * opp[node],
            (a + u) * own[node] + w * cont,
        )
    return vals


def zero_sum_push(
    tree: EventTree, payoffs: PayoffProcess, fragment: dict, player: int
) -> float:
    return zero_sum_push_table(tree, payoffs, fragment, player)[tree.root]


def stop_outcome(a1: StageAction, a2: StageAction) -> Outcome:
    """``STOP_ORDER``'s outcome for player 1 playing ``a1`` and player 2
    ``a2``; a pair with no defined order is a ``ValueError``."""
    outcome = STOP_ORDER[a1, a2]
    if outcome is None:
        raise ValueError(f"({a1.value}, {a2.value}) has no defined stop order")
    return outcome


def outcome_payoff(outcome: Outcome, payoffs: PayoffProcess, node: str) -> PayoffPair:
    """Both players' payoffs at ``node`` when its frame ends in a stop.

    ``Outcome.SURVIVAL`` pays the continuation, which is no payoff of the
    node: a ``ValueError``.
    """
    if outcome is Outcome.PLAYER1_FIRST:
        return PayoffPair(payoffs.x1[node], payoffs.x2[node])
    if outcome is Outcome.PLAYER2_FIRST:
        return PayoffPair(payoffs.y1[node], payoffs.y2[node])
    if outcome is Outcome.SIMULTANEOUS:
        return PayoffPair(payoffs.z1[node], payoffs.z2[node])
    if outcome is Outcome.TIE:
        return PayoffPair(
            0.5 * (payoffs.x1[node] + payoffs.y1[node]),
            0.5 * (payoffs.x2[node] + payoffs.y2[node]),
        )
    raise ValueError(f"node {node}: survival pays the continuation, not a payoff of the node")


def outcome_kernel(
    a1: StageAction,
    a2: StageAction,
    payoffs: PayoffProcess,
    node: str,
    continuation: Optional[PayoffPair] = None,
) -> PayoffPair:
    """Resolve one frame: who stops first (``stop_outcome``) and what both
    players receive (``outcome_payoff`` for a stop).

    ``continuation`` is the value pair of surviving the frame; only (wait,
    wait) reads it, and needs it: survival pays the continuation.  It is
    the stop-order reference the stage formulas are checked against, action
    pair by action pair.
    ``zerosum.stage_matrices`` resolves its action pairs through the
    ``STOP_ORDER`` table that ``stop_outcome`` reads, once, at import, and
    the brute-force oracles read it once per cell.
    """
    try:
        outcome = stop_outcome(a1, a2)
    except ValueError as exc:
        raise ValueError(f"node {node}: {exc}") from None
    if outcome is Outcome.SURVIVAL:
        if continuation is None:
            raise ValueError(f"node {node}: (wait, wait) needs a continuation")
        return continuation
    return outcome_payoff(outcome, payoffs, node)


def kernel_profile_value(
    tree: EventTree, payoffs: PayoffProcess, profile: BehavioralProfile
) -> PayoffPair:
    """Expected payoffs of a profile by summing ``outcome_kernel`` over the
    nine stage action pairs at every node, each weighted by both mixes."""
    table: dict[str, PayoffPair] = {}
    for node in reversed(tree.nodes):
        if tree.is_leaf(node):
            cont = PayoffPair(payoffs.xi1[node], payoffs.xi2[node])
        else:
            c1 = c2 = 0.0
            for child, p in tree.children[node]:
                c1 += p * table[child].g1
                c2 += p * table[child].g2
            cont = PayoffPair(c1, c2)
        g1 = g2 = 0.0
        for a1, w1 in zip(PLAYER_ACTIONS, profile.player1[node]):
            for a2, w2 in zip(PLAYER_ACTIONS, profile.player2[node]):
                if w1 * w2 != 0.0:
                    pair = outcome_kernel(a1, a2, payoffs, node, continuation=cont)
                    g1 += w1 * w2 * pair.g1
                    g2 += w1 * w2 * pair.g2
        table[node] = PayoffPair(g1, g2)
    return table[tree.root]


def reference_stage_matrices(
    payoffs: PayoffProcess, node: str, continuation: float, player: int
) -> tuple[tuple[tuple[float, ...], ...], tuple[tuple[float, ...], ...]]:
    """One protagonist's primal and dual stage matrices, built entry by entry
    with 24 ``outcome_kernel`` calls: the reference that
    ``zerosum.stage_matrices``, one kernel table for both players, must equal.

    Primal: protagonist mixes rows (atom, uniform, wait) against the
    antagonist's pure columns (atom, early, late, wait).  Dual: the roles are
    transposed, the antagonist mixing (atom, uniform, wait) columns against
    protagonist pure rows.
    """
    require_player(player)
    cont = PayoffPair(continuation, continuation)

    def entry(a1: StageAction, a2: StageAction) -> float:
        pair = outcome_kernel(a1, a2, payoffs, node, continuation=cont)
        return pair.g1 if player == 1 else pair.g2

    if player == 1:
        primal = tuple(tuple(entry(r, c) for c in DEVIATOR_ACTIONS) for r in PLAYER_ACTIONS)
        dual = tuple(tuple(entry(r, c) for c in PLAYER_ACTIONS) for r in DEVIATOR_ACTIONS)
    else:
        primal = tuple(tuple(entry(c, r) for c in DEVIATOR_ACTIONS) for r in PLAYER_ACTIONS)
        dual = tuple(tuple(entry(c, r) for c in PLAYER_ACTIONS) for r in DEVIATOR_ACTIONS)
    return primal, dual


def column_matrix(matrices: Sequence) -> tuple[tuple[list[float], ...], ...]:
    """Per-node matrices of one shape as one matrix of columns, a fresh list
    per cell: entry ``k`` of each cell is that cell of ``matrices[k]``."""
    rows, cols = len(matrices[0]), len(matrices[0][0])
    return tuple(tuple([m[r][c] for m in matrices] for c in range(cols)) for r in range(rows))


def reference_stage_columns(payoffs: PayoffProcess, nodes: list[str], continuation: PayoffPair):
    """``zerosum.stage_columns`` assembled from ``reference_stage_matrices``,
    node by node, each cell a fresh list: no two cells share a column."""
    per_node = [
        (reference_stage_matrices(payoffs, node, c1, 1), reference_stage_matrices(payoffs, node, c2, 2))
        for node, c1, c2 in zip(nodes, *continuation)
    ]
    return tuple(
        tuple(column_matrix([matrices[player][orientation] for matrices in per_node]) for orientation in (0, 1))
        for player in (0, 1)
    )


def reference_solve_matrix_game(matrix) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """``solve_matrix_game`` with its mixes built by generator expressions:
    the reference it must equal, value and mixes, on every matrix."""
    rows = [tuple(r) for r in matrix]
    row_guarantee = list(map(min, rows))
    col_exposure = list(map(max, zip(*rows)))
    lower = max(row_guarantee)
    upper = min(col_exposure)
    if lower != upper:
        raise ModelViolationError(f"matrix game has no pure saddle point: {lower!r} < {upper!r}")
    r = row_guarantee.index(lower)
    c = col_exposure.index(upper)
    row_mix = tuple(1.0 if i == r else 0.0 for i in range(len(row_guarantee)))
    col_mix = tuple(1.0 if j == c else 0.0 for j in range(len(col_exposure)))
    return lower, row_mix, col_mix


def reference_stage_value(x: float, y: float, z: float, cont: float) -> tuple[float, Mix, Mix]:
    """The stage value from the builtins: the lower value as the ``max`` of
    the row guarantees, the upper as the ``min`` of the column exposures, each
    mix at the first action reaching it (``.index``).  ``zerosum.stage_value``
    must return the same float and the same minimizer's mix object."""
    rows = (min(z, x), min(y, x), min(y, cont))
    cols = (max(z, y), max(x, y), max(x, cont))
    lo, hi = max(rows), min(cols)
    if lo != hi:
        raise ModelViolationError(f"stage game has no saddle point: {lo!r} vs {hi!r}")
    mixes = (ATOM_MIX, UNIFORM_MIX, WAIT_MIX)
    return lo, mixes[rows.index(lo)], mixes[cols.index(hi)]


def reference_tree_maps(root: str, children: dict[str, list[tuple[str, float]]]) -> dict[str, object]:
    """The two-pass derivation ``EventTree.build`` does in one sweep: a
    breadth-first pass for the order and depths, a set for the reachability
    check and a copy of every child list, then a second pass over the copy
    for the leaves and the horizon, the deepest leaf's depth.  Each map comes
    back as its items in insertion order; the errors are worded as
    ``build``'s."""
    depth = {root: 0}
    order = [root]
    for node in order:
        for child, _ in children.get(node, ()):
            if child == root:
                raise InstanceError(f"node {worded_id(root)!r} is the root, yet node {worded_id(node)!r} lists it as a child")
            if child in depth:
                raise InstanceError(f"node {worded_id(child)!r} has more than one parent")
            depth[child] = depth[node] + 1
            order.append(child)
    known = set(order)
    for node in children:
        if node not in known:
            raise InstanceError(f"node {worded_id(node)!r} is not reachable from the root")
    full = {n: list(children.get(n, [])) for n in order}
    return {
        "nodes": order,
        "depth": list(depth.items()),
        "children": list(full.items()),
        "leaves": [n for n in order if not full.get(n)],
        "horizon": max(depth[n] for n in order if not full.get(n)),
    }


def tree_maps(tree: EventTree) -> dict[str, object]:
    """A built tree's maps in the form of ``reference_tree_maps``."""
    return {
        "nodes": tree.nodes,
        "depth": list(tree.depth.items()),
        "children": list(tree.children.items()),
        "leaves": tree.leaves,
        "horizon": tree.horizon,
    }


def reference_split_frames(
    tree: EventTree, payoffs: PayoffProcess, targets: Sequence[str]
) -> tuple[EventTree, PayoffProcess, dict[str, str]]:
    """``split_frames`` by its rule, step by step: insert a copy below each
    distinct target in turn, under the first free id of ``{node}b``,
    ``{node}b1``, ...; pad each leaf whose root path holds fewer targets
    than the most with that many copies, one below another, moving its
    terminal payoffs to the last; then derive the tree with
    ``EventTree.build``.  Both of ``split_frames``' paths must give the same
    fields, in the same order."""
    children = {node: list(tree.children.get(node, ())) for node in tree.nodes}
    tables = {field: dict(getattr(payoffs, field)) for field in PayoffProcess.__slots__}
    inserted: dict[str, str] = {}

    def insert_below(node: str) -> str:
        copy = next(c for c in (f"{node}b" if k == 0 else f"{node}b{k}" for k in itertools.count()) if c not in children)
        children[copy], children[node] = children[node], [(copy, 1.0)]
        for field in ("x1", "y1", "z1", "x2", "y2", "z2"):
            tables[field][copy] = tables[field][node]
        inserted[node] = copy
        return copy

    unique = list(dict.fromkeys(targets))
    up = parents(tree)

    def on_path(leaf: Optional[str]) -> int:
        count = 0
        while leaf is not None:
            count += leaf in unique
            leaf = up[leaf]
        return count

    counts = {leaf: on_path(leaf) for leaf in tree.leaves}
    most = max(counts.values())
    for node in unique:
        insert_below(node)
    for leaf, count in counts.items():
        bottom = inserted.get(leaf, leaf)
        for _ in range(most - count):
            bottom = insert_below(bottom)
        if bottom != leaf:
            for field in ("xi1", "xi2"):
                tables[field][bottom] = tables[field].pop(leaf)
    return EventTree.build(tree.root, children), PayoffProcess(**tables), inserted


def parents(tree: EventTree) -> dict[str, Optional[str]]:
    """Each node's parent, the root's None, read off the child lists."""
    up: dict[str, Optional[str]] = {tree.root: None}
    for node in tree.nodes:
        for child, _ in tree.children.get(node, ()):
            up[child] = node
    return up


def reference_walk(tree: EventTree, start: str, stop: Container[str] = ()) -> Iterator[str]:
    """Breadth-first nodes from ``start``, not below ``stop`` nodes, as a
    generator; ``EventTree.walk`` must return the same list."""
    order = [start]
    for node in order:
        yield node
        if node not in stop:
            order.extend(child for child, _ in tree.children.get(node, ()))


def _stop_rules(
    tree: EventTree, node: str, actions: tuple[StageAction, ...]
) -> Iterator[dict[str, StageAction]]:
    """All reduced stopping rules on the subtree: a first-stop antichain with
    one action each; the empty rule never stops.  ``verify._PathTable.rules``
    must list the same rules in the same order."""
    for act in actions:
        yield {node: act}
    kids = tree.children.get(node, ())
    if not kids:
        yield {}
        return
    child_rules = [list(_stop_rules(tree, child, actions)) for child, _ in kids]
    for combo in itertools.product(*child_rules):
        merged: dict[str, StageAction] = {}
        for part in combo:
            merged.update(part)
        yield merged


def reference_first_stops(
    paths: list[list[str]], actions: tuple[StageAction, ...], rule: dict[str, StageAction]
) -> tuple[int, ...]:
    """A rule's first-stop index on every path, by a scan of each path from
    the root: ``k * len(actions)`` plus the action's place at the first node
    ``k`` the rule names, else ``len(path) * len(actions)`` for no stop.
    ``verify._PathTable.firsts`` must hold the same tuple for the rule."""
    width = len(actions)
    ids = []
    for path in paths:
        k = next((k for k, node in enumerate(path) if node in rule), len(path))
        ids.append(k * width + (actions.index(rule[path[k]]) if k < len(path) else 0))
    return tuple(ids)


def record_digests(records: Sequence[bytes]) -> list[str]:
    """A short digest per record of a pinned corpus: the first 16 hex
    digits of its SHA-256."""
    return [hashlib.sha256(record).hexdigest()[:16] for record in records]


def assert_records_pinned(
    records: Sequence[bytes],
    corpus_sha256: str,
    pinned: Sequence[str],
    show: Callable[[bytes], str] = bytes.decode,
    names: Sequence[str] = (),
) -> None:
    """Pass when the SHA-256 over ``records`` (one update per record) is
    ``corpus_sha256``; else fail naming the first record whose short digest
    (``record_digests``) differs from ``pinned``, with its entry of
    ``names`` (if any) and ``show(record)``, so a broken digest points at one
    record instead of printing two hashes."""
    corpus = hashlib.sha256(b"".join(records)).hexdigest()
    if corpus == corpus_sha256:
        return
    got = record_digests(records)
    for k, (digest, expected) in enumerate(itertools.zip_longest(got, pinned)):
        if digest != expected:
            named = f" ({names[k]})" if k < len(names) else ""
            shown = "no record" if digest is None else show(records[k])
            raise AssertionError(
                f"corpus digest {corpus} != {corpus_sha256}: record {k}{named} is the first to differ "
                f"(digest {digest}, pinned {expected}): {shown}"
            )
    raise AssertionError(
        f"corpus digest {corpus} != {corpus_sha256}, yet all {len(got)} record digests match: the pins are stale"
    )


def is_number(value: object) -> bool:
    """A float, or an int in the float range; a bool is not a number."""
    if isinstance(value, bool):
        return False
    if isinstance(value, float):
        return True
    return isinstance(value, int) and -sys.float_info.max <= value <= sys.float_info.max


def worded_id(node: object) -> str:
    """How an issue words a node id: as it is, cut to 60 characters."""
    text = str(node)
    return text if len(text) <= 60 else text[:57] + "..."


def worded(value: object) -> str:
    """How an issue words a value: its ``reprlib`` form, cut as an id is."""
    return worded_id(reprlib.repr(value))


def instance_issues(tree: EventTree, payoffs: PayoffProcess) -> list[str]:
    """Every structural issue, in node order: the node-by-node reference
    ``validate_instance`` must agree with."""
    listed: dict[str, int] = {}
    for node in tree.nodes:
        listed[node] = listed.get(node, 0) + 1
        if listed[node] > 1:
            return [f"node {worded_id(node)}: listed more than once in the tree's nodes"]
        if node not in tree.depth:
            return [f"node {worded_id(node)}: in the tree's nodes, yet has no depth"]
    for node in tree.depth:
        if node not in listed:
            return [f"node {worded_id(node)}: has a depth, yet is not in the tree's nodes"]
    # the nodes must be the root, then the children of each listed node in turn
    reached = [tree.root]
    for node in tree.nodes:
        for child, _ in tree.children.get(node) or ():
            reached.append(child)
    for k, node in enumerate(reached):
        if k == len(tree.nodes) or tree.nodes[k] != node:
            return [f"node {worded_id(node)}: place {k} of the breadth-first listing of the child lists, not of the tree's nodes"]
    if len(tree.nodes) > len(reached):
        return [f"node {worded_id(tree.nodes[len(reached)])}: in the tree's nodes, yet not reached from the root"]
    issues: list[str] = []
    horizon = tree.horizon
    for node in tree.nodes:
        kids = tree.children.get(node, [])
        if kids:
            if all(is_number(p) for _, p in kids):
                total = sum(p for _, p in kids)
                if abs(total - 1.0) > PROB_TOL:
                    issues.append(f"node {worded_id(node)}: child probabilities sum to {total!r}, not 1")
            for child, p in kids:
                if not is_number(p):
                    issues.append(f"node {worded_id(node)}: probability {worded(p)} for child {worded_id(child)} is not a number")
                elif not (0.0 < p <= 1.0):
                    issues.append(f"node {worded_id(node)}: probability {p!r} for child {worded_id(child)} not in (0, 1]")
                if tree.depth[child] != tree.depth[node] + 1:
                    issues.append(f"node {worded_id(child)}: depth {tree.depth[child]} inconsistent with parent")
        else:
            if tree.depth[node] != horizon:
                issues.append(f"node {worded_id(node)}: leaf at depth {tree.depth[node]}, horizon is {horizon} (non-uniform horizon)")
            for name, table in (("xi1", payoffs.xi1), ("xi2", payoffs.xi2)):
                if node not in table:
                    issues.append(f"node {worded_id(node)}: missing terminal payoff {name}")
                elif not is_number(table[node]):
                    issues.append(f"node {worded_id(node)}: terminal payoff {name} {worded(table[node])} is not a number")
                elif not math.isfinite(table[node]):
                    issues.append(f"node {worded_id(node)}: non-finite terminal payoff {name}")
                elif abs(table[node]) > PAYOFF_LIMIT:
                    issues.append(f"node {worded_id(node)}: terminal payoff {name} {table[node]!r} is above the payoff limit {PAYOFF_LIMIT!r}")
        for name, table in (
            ("X1", payoffs.x1),
            ("Y1", payoffs.y1),
            ("Z1", payoffs.z1),
            ("X2", payoffs.x2),
            ("Y2", payoffs.y2),
            ("Z2", payoffs.z2),
        ):
            if node not in table:
                issues.append(f"node {worded_id(node)}: missing payoff {name}")
            elif not is_number(table[node]):
                issues.append(f"node {worded_id(node)}: payoff {name} {worded(table[node])} is not a number")
            elif not math.isfinite(table[node]):
                issues.append(f"node {worded_id(node)}: non-finite payoff {name}")
            elif abs(table[node]) > PAYOFF_LIMIT:
                issues.append(f"node {worded_id(node)}: payoff {name} {table[node]!r} is above the payoff limit {PAYOFF_LIMIT!r}")
    return issues


def profile_issues(tree: EventTree, profile: BehavioralProfile) -> list[str]:
    """Every issue of the profile, player by player in node order: the
    node-by-node reference ``validate_profile`` must agree with."""
    issues: list[str] = []
    for player, side in ((1, profile.player1), (2, profile.player2)):
        if not isinstance(side, Mapping):
            issues.append(f"player {player} profile is a {type(side).__name__}, not a mapping of nodes to distributions")
            continue
        issues.extend(
            f"node {worded_id(node)}: not in the tree, yet player {player} has a distribution there"
            for node in side
            if node not in tree.depth
        )
        for node in tree.nodes:
            mix = side.get(node)
            if mix is None:
                issues.append(f"node {worded_id(node)}: player {player} has no stage distribution")
                continue
            if (
                not isinstance(mix, Sequence)
                or len(mix) != 3
                or not all(map(is_number, mix))
                or any(p < -PROB_TOL for p in mix)
            ):
                issues.append(f"node {worded_id(node)}: player {player} distribution {worded(mix)} malformed")
                continue
            if abs(sum(mix) - 1.0) > PROB_TOL:
                issues.append(f"node {worded_id(node)}: player {player} distribution sums to {sum(mix)!r}")
            elif not all(map(math.isfinite, mix)):  # a NaN passes both tests above
                issues.append(f"node {worded_id(node)}: player {player} distribution {mix!r} is not finite")
    return issues


def root_call(tree: EventTree, player: int) -> int:
    """The index of ``player``'s ``deviator_lines`` call at the root in
    ``deviation_gap``, which runs one backward pass per player, player 1's
    first, each making one call per node and visiting the root last."""
    return player * len(tree.nodes) - 1


def poisoned_deviator_lines(target: int, line: int, poison: float):
    """``deviator_lines`` whose ``target``-th call returns ``poison`` as its
    ``line``-th line (atom, early, late, wait, then the reply wait line)."""
    calls = itertools.count()

    def lines(*args):
        out = deviator_lines(*args)
        if next(calls) == target:
            out = out[:line] + (poison,) + out[line + 1 :]
        return out

    return lines


def extend_profile(profile: BehavioralProfile, tree: EventTree) -> BehavioralProfile:
    """Extend a pre-split profile to a split tree with wait/wait on new nodes."""
    out = BehavioralProfile.waiting(tree)
    out.player1.update(profile.player1)
    out.player2.update(profile.player2)
    return out


def mirror(tree: EventTree, payoffs: PayoffProcess) -> tuple[EventTree, PayoffProcess]:
    """Swap the players' indices and first-stopper roles.  An involution: the
    reference for the player swap that ``PayoffProcess.side`` performs."""
    mirrored = PayoffProcess(
        x1=dict(payoffs.y2),
        y1=dict(payoffs.x2),
        z1=dict(payoffs.z2),
        x2=dict(payoffs.y1),
        y2=dict(payoffs.x1),
        z2=dict(payoffs.z1),
        xi1=dict(payoffs.xi2),
        xi2=dict(payoffs.xi1),
    )
    return tree, mirrored


# The paper's guarantee lemma: each player secures value - eta by waiting to
# the hitting antichain and stopping there.  ``construct`` places its stops
# from its case table instead; these are the strategies the lemma names.


def _stop_action(
    payoffs: PayoffProcess, value: ValueProcess, node: str, eta: float, tol: float
) -> Mix:
    # The delay masks the stop unless the opponent-first payoff is too small,
    # in which case the simultaneous payoff must carry the guarantee.
    opp = payoffs.side(value.player).opp[node]
    if (value.value[node] - eta) - opp > tol:
        return ATOM_MIX
    return UNIFORM_MIX


def simple_optimal_strategy(
    tree: EventTree,
    payoffs: PayoffProcess,
    value: ValueProcess,
    hitting: HittingTime,
    eta: float,
    tol: Optional[float] = None,
) -> dict[str, Mix]:
    """One player's guarantee strategy: wait to the hitting antichain, then
    stop there with an atom or a one-frame uniform delay.

    Against any opponent play, the best the opponent can push this player
    below is value(root) - eta, up to tolerance; the fragment covers the whole
    tree (waiting on never-hit paths and below the antichain).
    """
    if hitting.player != value.player:
        raise ValueError("hitting time and value process belong to different players")
    tol = payoffs.tolerance() if tol is None else tol
    fragment = {n: WAIT_MIX for n in tree.nodes}
    for q in hitting.antichain:
        fragment[q] = _stop_action(payoffs, value, q, eta, tol)
    return fragment


def pure_optimal_strategy(
    tree: EventTree,
    payoffs: PayoffProcess,
    value: ValueProcess,
    hitting: HittingTime,
    eta: float,
    tol: Optional[float] = None,
) -> dict[str, Mix]:
    """Deterministic variant of the guarantee strategy: atoms at the antichain.

    Sound only when the simultaneous payoff lies between the two unilateral
    ones at every node, which is checked.
    """
    tol = payoffs.tolerance() if tol is None else tol
    check_convexity(payoffs, tree, value.player, tol)
    fragment = {n: WAIT_MIX for n in tree.nodes}
    for q in hitting.antichain:
        fragment[q] = ATOM_MIX
    return fragment
