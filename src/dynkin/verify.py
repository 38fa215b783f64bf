"""Exact certification: best responses, deviation gaps, invariants, oracles.

A lone deviator facing a mixture of (atom, uniform, wait) gets a payoff that
is affine in their stop position inside the frame, so only the endpoint
limits matter: the deviator's action set is (atom, early, late, wait) and the
best response is an exact backward dynamic program over
``core.deviator_lines``, the same stage lines that ``evaluate_profile``
prices the profile from.  ``deviation_gap`` runs both programs for both
players in one backward pass, one ``deviator_lines`` call per player and
node pricing both; ``best_response`` and
``core.evaluate_profile_table`` stay as the one-program references that the
tests and the brute-force oracles hold it to.  The invariant runner checks
frame-split invariance on one split of every frame of the input.

Brute-force enumerators over explicit stopping rules provide independent
cross-checks on small trees.  Each call builds one table of the tree's
root-to-leaf paths, each with its probability from one upward walk per leaf,
every rule's first stop on each path, and each path's payoff terms per pair
of first stops; the rules it enumerates are exactly the reduced stopping
rules of ``_stop_rules``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .core import (
    DEVIATOR_ACTIONS,
    BehavioralProfile,
    EventTree,
    Mix,
    ModelViolationError,
    PayoffPair,
    PayoffProcess,
    ProfileError,
    StageAction,
    _worded_id,
    deviator_lines,
    outcome_payoff,
    require_player,
    require_valid,
    split_frames,
    stop_outcome,
    validate_profile,
)
from .zerosum import (
    _saddle_value,
    hitting_time,
    solve_value_process,
    stage_matrices,
)

BRUTE_FORCE_NODE_LIMIT = 10

_ATOM, _EARLY, _LATE, _WAIT = DEVIATOR_ACTIONS


@dataclass
class GapCertificate:
    """One player's certified deviation gap, with the witnessing strategy."""

    player: int
    best_response_value: float
    path_value: float
    gap: float
    raw_gap: float
    strategy: dict[str, StageAction]


@dataclass
class InvariantCheck:
    name: str
    passed: bool
    worst: float
    witness: Optional[str]


@dataclass
class InvariantReport:
    checks: list[InvariantCheck]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[InvariantCheck]:
        return [c for c in self.checks if not c.passed]


def best_response(
    tree: EventTree,
    payoffs: PayoffProcess,
    opponent: dict[str, Mix],
    deviator: int,
) -> tuple[dict[str, float], dict[str, StageAction]]:
    """Exact best-response values and a pure argmax strategy per node.

    ``opponent`` is the other player's per-node (atom, uniform, wait)
    distribution, defined on the whole tree.  Ties go to the earlier action
    in the order atom < early < late < wait.  A line that is not finite is
    a model violation: ``max`` would drop a NaN that is not the first line.
    """
    stop, opp, sim, xi = payoffs.side(deviator)
    values: dict[str, float] = {}
    strategy: dict[str, StageAction] = {}
    for node in reversed(tree.nodes):
        cont = tree.continuation(node, values, xi)
        atom, early, late, _, wait = deviator_lines(stop[node], opp[node], sim[node], opponent[node], cont, cont)
        lines = (atom, early, late, wait)
        if not all(map(math.isfinite, lines)):
            raise ModelViolationError(
                f"player {deviator}: best-response lines {lines!r} at node {_worded_id(node)} are not all finite"
            )
        best = max(lines)
        values[node] = best
        strategy[node] = DEVIATOR_ACTIONS[lines.index(best)]
    return values, strategy


def deviation_gap(
    tree: EventTree, payoffs: PayoffProcess, profile: BehavioralProfile
) -> tuple[GapCertificate, GapCertificate]:
    """Certified gaps for both players, recomputed from scratch.

    One backward pass serves both players.  At each node one loop over the
    children adds up four continuations, the profile's and the best
    response's for each player, and one ``deviator_lines`` call per player,
    player 1's first, prices the stage at both of that player's
    continuations: the profile's value as in ``evaluate_profile_table`` (the
    player's lines weighed by their own mix) and the best response as in
    ``best_response`` (the largest line, found by comparisons, ties to the
    earlier action).  The profile is validated once.

    Raw gaps can dip slightly negative through best-response ties; the
    reported gap is clamped at zero with the raw value kept alongside.  A raw
    gap that is not finite is a model violation, never a certified zero.
    Every line reaches that test: the profile's value weighs the atom,
    early, late and wait lines (0.0 times NaN or an infinity is NaN), and
    the best reply starts from the reply line and lets each earlier line
    take over only when it is at least as large, which a NaN never is.  So
    a NaN line carries up to the root, and on finite lines the best reply
    is still the first largest line.
    """
    issues = validate_profile(tree, profile)
    if issues:
        raise ProfileError(issues[0])
    s1, s2 = payoffs.side(1), payoffs.side(2)
    mixes1, mixes2 = profile.player1, profile.player2
    kids_of = tree.children.get
    path1: dict[str, float] = {}
    path2: dict[str, float] = {}
    best1: dict[str, float] = {}
    best2: dict[str, float] = {}
    strategy1: dict[str, StageAction] = {}
    strategy2: dict[str, StageAction] = {}
    for node in reversed(tree.nodes):
        kids = kids_of(node)
        if kids:
            c1 = c2 = b1 = b2 = 0.0
            for child, p in kids:
                c1 += p * path1[child]
                c2 += p * path2[child]
                b1 += p * best1[child]
                b2 += p * best2[child]
        else:
            c1 = b1 = s1.xi[node]
            c2 = b2 = s2.xi[node]
        a1, u1, w1 = mix1 = mixes1[node]
        a2, u2, w2 = mix2 = mixes2[node]
        atom, early, late, wait, reply = deviator_lines(s1.stop[node], s1.opp[node], s1.sim[node], mix2, c1, b1)
        path1[node] = a1 * atom + u1 * (0.5 * (early + late)) + w1 * wait
        best, action = reply, _WAIT
        if late >= best:
            best, action = late, _LATE
        if early >= best:
            best, action = early, _EARLY
        if atom >= best:
            best, action = atom, _ATOM
        best1[node] = best
        strategy1[node] = action
        atom, early, late, wait, reply = deviator_lines(s2.stop[node], s2.opp[node], s2.sim[node], mix1, c2, b2)
        path2[node] = a2 * atom + u2 * (0.5 * (early + late)) + w2 * wait
        best, action = reply, _WAIT
        if late >= best:
            best, action = late, _LATE
        if early >= best:
            best, action = early, _EARLY
        if atom >= best:
            best, action = atom, _ATOM
        best2[node] = best
        strategy2[node] = action
    root = tree.root
    certificates = []
    for player, best, path_value, strategy in (
        (1, best1[root], path1[root], strategy1),
        (2, best2[root], path2[root], strategy2),
    ):
        raw = best - path_value
        if not math.isfinite(raw):
            raise ModelViolationError(
                f"player {player}: deviation gap {raw!r} is not finite "
                f"(best response {best!r}, profile {path_value!r})"
            )
        certificates.append(
            GapCertificate(
                player=player,
                best_response_value=best,
                path_value=path_value,
                gap=max(0.0, raw),
                raw_gap=raw,
                strategy=strategy,
            )
        )
    return certificates[0], certificates[1]


# ---------------------------------------------------------------------------
# Brute-force oracles (small trees only)


def _check_size(tree: EventTree) -> None:
    if len(tree.nodes) > BRUTE_FORCE_NODE_LIMIT:
        raise ValueError(
            f"brute force refused: {len(tree.nodes)} nodes exceeds {BRUTE_FORCE_NODE_LIMIT}"
        )


def _stop_rules(
    tree: EventTree, node: str, actions: tuple[StageAction, ...]
) -> Iterator[dict[str, StageAction]]:
    """All reduced stopping rules on the subtree: a first-stop antichain with
    one action each; the empty rule never stops."""
    for act in actions:
        yield {node: act}
    kids = tree.children.get(node, ())
    if not kids:
        yield {}
        return
    child_rules = [list(_stop_rules(tree, child, actions)) for child, _ in kids]
    for combo in product(*child_rules):
        merged: dict[str, StageAction] = {}
        for part in combo:
            merged.update(part)
        yield merged


_Stop = tuple[int, Optional[StageAction]]


class _PathTable:
    """The root-to-leaf paths of one brute-force call, built once.

    ``stops[p]`` lists every first stop a rule over ``actions`` can make on
    path ``p``: ``(k, act)`` at the path's k-th node, then ``(len(path), None)``
    for no stop.  A rule is reduced to its index into that list on each path.
    """

    def __init__(self, tree: EventTree, actions: tuple[StageAction, ...]) -> None:
        self.actions = actions
        self.paths: list[list[str]] = []
        self.probs: list[float] = []
        for leaf in tree.leaves:  # one upward walk per leaf, in leaf order
            path, prob = [leaf], 1.0
            while (up := tree.parent[path[-1]]) is not None:
                prob *= tree._edge[path[-1]]  # from the leaf up to the root
                path.append(up)
            path.reverse()
            self.paths.append(path)
            self.probs.append(prob)
        self.stops: list[list[_Stop]] = [
            [(k, act) for k in range(len(path)) for act in actions] + [(len(path), None)]
            for path in self.paths
        ]

    def first_stops(self, rule: dict[str, StageAction]) -> tuple[int, ...]:
        """The index of the rule's first stop on every path."""
        width = len(self.actions)
        ids = []
        for path in self.paths:
            k = next((k for k, node in enumerate(path) if node in rule), len(path))
            ids.append(k * width + (self.actions.index(rule[path[k]]) if k < len(path) else 0))
        return tuple(ids)


def _pure_path_payoff(
    payoffs: PayoffProcess,
    path: list[str],
    stop1: _Stop,
    stop2: _Stop,
    ambiguous: str,
) -> PayoffPair:
    """Payoff pair on one path for two explicit stopping rules.

    Stops at the same node with the same interior limit (two earlies or two
    lates) have no canonical order; ``ambiguous`` selects the resolution:
    the ordering parameter is chosen against player 1 ("min1"), against
    player 2 ("min2"), or the case is rejected ("forbid").
    """
    k1, a1 = stop1
    k2, a2 = stop2
    leaf = path[-1]
    if a1 is None and a2 is None:
        return PayoffPair(payoffs.xi1[leaf], payoffs.xi2[leaf])
    if k1 < k2 or (k1 == k2 and a2 is None):
        node = path[k1]
        return PayoffPair(payoffs.x1[node], payoffs.x2[node])
    if k2 < k1 or (k1 == k2 and a1 is None):
        node = path[k2]
        return PayoffPair(payoffs.y1[node], payoffs.y2[node])
    node = path[k1]
    try:
        outcome = stop_outcome(a1, a2)
    except ValueError:  # two earlies or two lates
        first = PayoffPair(payoffs.x1[node], payoffs.x2[node])
        second = PayoffPair(payoffs.y1[node], payoffs.y2[node])
        if ambiguous == "min1":
            return first if first.g1 <= second.g1 else second
        if ambiguous == "min2":
            return first if first.g2 <= second.g2 else second
        raise ValueError(f"node {node}: unresolved stop order for ({a1.value}, {a2.value})") from None
    return outcome_payoff(outcome, payoffs, node)


def _own_payoff(
    payoffs: PayoffProcess, path: list[str], mine: _Stop, theirs: _Stop, player: int, ambiguous: str
) -> float:
    """``player``'s payoff on one path when they first stop at ``mine``."""
    if player == 1:
        return _pure_path_payoff(payoffs, path, mine, theirs, ambiguous).g1
    return _pure_path_payoff(payoffs, path, theirs, mine, ambiguous).g2


def _scaled(prob: float, pair: PayoffPair) -> PayoffPair:
    return PayoffPair(prob * pair.g1, prob * pair.g2)


def _rule_probability(tree: EventTree, rule: dict[str, StageAction], side: dict[str, Mix]) -> float:
    """Probability the behavioral side realizes this first-stop rule."""
    prob = 1.0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        a, u, w = side[node]
        if node in rule:
            prob *= a if rule[node] is StageAction.ATOM else u
        else:
            prob *= w
            stack.extend(child for child, _ in tree.children.get(node, ()))
    return prob


def brute_force_payoff(
    tree: EventTree, payoffs: PayoffProcess, profile: BehavioralProfile
) -> PayoffPair:
    """Expected payoffs by enumerating the profile's mixed representation.

    Every pair of (atom, uniform) stopping rules of nonzero probability is
    enumerated.  One path table per call holds each path's probability times
    its payoff pair for every pair of first stops; a rule pair's payoff adds
    up its entries path by path.
    """
    _check_size(tree)
    stoppers = (StageAction.ATOM, StageAction.UNIFORM)
    table = _PathTable(tree, stoppers)
    terms = [  # terms[p][i1][i2]
        [[_scaled(prob, _pure_path_payoff(payoffs, path, s1, s2, "forbid")) for s2 in stops] for s1 in stops]
        for path, prob, stops in zip(table.paths, table.probs, table.stops)
    ]
    rules = list(_stop_rules(tree, tree.root, stoppers))
    weights2 = [_rule_probability(tree, rule, profile.player2) for rule in rules]
    side2 = [(p2, table.first_stops(rule)) for rule, p2 in zip(rules, weights2) if p2 != 0.0]
    g1 = g2 = 0.0
    for rule1 in rules:
        p1 = _rule_probability(tree, rule1, profile.player1)
        if p1 == 0.0:
            continue
        rows = [path_terms[i] for path_terms, i in zip(terms, table.first_stops(rule1))]
        for p2, stops2 in side2:
            pair1 = pair2 = 0.0
            for row, i in zip(rows, stops2):
                pair1 += row[i].g1
                pair2 += row[i].g2
            g1 += p1 * p2 * pair1
            g2 += p1 * p2 * pair2
    return PayoffPair(g1, g2)


def brute_force_best_response(
    tree: EventTree,
    payoffs: PayoffProcess,
    opponent: dict[str, Mix],
    deviator: int,
) -> float:
    """Best-response value by enumerating every explicit stopping rule.

    Every (atom, early, late) rule is enumerated against the opponent's stop
    node and kind along each path.  One path table per call holds, for each
    path and deviator stop, the list of weighted opponent terms; a rule's
    payoff adds up its lists path by path.
    """
    require_player(deviator)
    _check_size(tree)
    stoppers = (StageAction.ATOM, StageAction.EARLY, StageAction.LATE)
    table = _PathTable(tree, stoppers)
    terms = []  # terms[p][i]: the terms on path p when the deviator first stops at stops[p][i]
    for path, prob, stops in zip(table.paths, table.probs, table.stops):
        weighted: list[tuple[_Stop, float]] = []  # the opponent's stops with their weights
        alive = 1.0
        for k, node in enumerate(path):
            a, u, w = opponent[node]
            for act, p in ((StageAction.ATOM, a), (StageAction.UNIFORM, u)):
                if p != 0.0:
                    weighted.append(((k, act), prob * alive * p))
            alive *= w
            if alive == 0.0:
                break
        else:
            weighted.append(((len(path), None), prob * alive))
        terms.append(
            [
                [weight * _own_payoff(payoffs, path, dev, opp, deviator, "forbid") for opp, weight in weighted]
                for dev in stops
            ]
        )
    values = []
    for rule in _stop_rules(tree, tree.root, stoppers):
        value = 0.0
        for path_terms, i in zip(terms, table.first_stops(rule)):
            for term in path_terms[i]:
                value += term
        values.append(value)
    return max(values)


def brute_force_value(tree: EventTree, payoffs: PayoffProcess, player: int) -> float:
    """Sup-inf over explicit stopping rules of the auxiliary zero-sum game.

    Every pair of (atom, early, late) rules is enumerated.  Stops with no
    canonical order are resolved against the maximizer, which is the
    conservative reading of a minimizing opponent.  One path table per call
    holds each path's probability times the player's payoff for every pair
    of first stops; a rule pair's payoff adds up its entries path by path.
    """
    require_player(player)
    _check_size(tree)
    stoppers = (StageAction.ATOM, StageAction.EARLY, StageAction.LATE)
    ambiguous = "min1" if player == 1 else "min2"
    table = _PathTable(tree, stoppers)
    terms = [  # terms[p][mine][theirs]
        [[prob * _own_payoff(payoffs, path, mine, theirs, player, ambiguous) for theirs in stops] for mine in stops]
        for path, prob, stops in zip(table.paths, table.probs, table.stops)
    ]
    rules = [table.first_stops(rule) for rule in _stop_rules(tree, tree.root, stoppers)]
    columns = list(zip(*rules))  # columns[p]: every rule's first stop on path p
    worst = []
    for mine in rules:
        pays = [0.0] * len(rules)
        for path_terms, i, column in zip(terms, mine, columns):
            row = path_terms[i]
            pays = [pay + row[j] for pay, j in zip(pays, column)]
        worst.append(min(pays))
    return max(worst)


# ---------------------------------------------------------------------------
# Invariant runner


def check_invariants(
    tree: EventTree, payoffs: PayoffProcess, eta: float, tol: Optional[float] = None
) -> InvariantReport:
    """Run the named solver invariants and report worst violations.

    ``minimax_agreement`` makes one backward pass that carries both players'
    continuations; at each node one ``stage_matrices`` call (its cells
    resolved by ``core.stop_outcome``) gives both players' primal and dual
    matrices, and the value of each, by the saddle rule of
    ``solve_matrix_game`` without its mixes, is compared with the other and
    with the closed-form value.  Its items list player 1's nodes, then
    player 2's.
    ``split_invariance`` splits every frame of the input at once and
    compares both value processes at each input node and at its copy.  The
    instance and the split tree are each validated once.
    """
    require_valid(tree, payoffs)
    tol = payoffs.tolerance(tol)
    checks: list[InvariantCheck] = []
    values = {i: solve_value_process(tree, payoffs, i) for i in (1, 2)}
    hits = {i: hitting_time(tree, payoffs, values[i], eta, tol) for i in (1, 2)}

    def add(name: str, items: list[tuple[str, float]]) -> None:
        worst, witness = 0.0, None
        for node, violation in items:
            if violation > worst:
                worst, witness = violation, node
        checks.append(InvariantCheck(name, worst <= tol, worst, witness))

    for i in (1, 2):
        v = values[i].value
        stop, opp, sim, _ = payoffs.side(i)
        add(
            f"value_lower_bound_p{i}",
            [(n, min(stop[n], opp[n]) - v[n]) for n in tree.nodes],
        )
        add(
            f"value_upper_bound_p{i}",
            [(n, v[n] - max(stop[n], opp[n])) for n in tree.nodes],
        )
        # an immediate opponent stop caps the value at max(opp-first, simultaneous)
        add(f"value_opponent_cap_p{i}", [(n, v[n] - max(opp[n], sim[n])) for n in tree.nodes])

    # Both orientations, built by the stop-order rule, must agree with each
    # other and with the closed-form value the process used.  One pass
    # builds both players' matrices, one stage_matrices call per node.
    v1, v2 = values[1].value, values[2].value
    xi1, xi2 = payoffs.side(1).xi, payoffs.side(2).xi
    minimax1: list[tuple[str, float]] = []
    minimax2: list[tuple[str, float]] = []
    for node in reversed(tree.nodes):
        cont = PayoffPair(tree.continuation(node, v1, xi1), tree.continuation(node, v2, xi2))
        matrices = stage_matrices(payoffs, node, cont)
        for items, v, (primal, dual) in zip((minimax1, minimax2), (v1, v2), matrices):
            pv = _saddle_value(primal)
            dv = _saddle_value(dual)
            items.append((node, max(abs(pv - dv), abs(pv - v[node]), abs(dv - v[node]))))
    add("minimax_agreement", minimax1 + minimax2)

    for i in (1, 2):
        v = values[i].value
        stop, opp, _, xi = payoffs.side(i)
        hit = hits[i].hits()
        # the pre-hit region: every node before the hit, never-hit paths whole
        region = [n for n in tree.walk(tree.root, hit) if n not in hit]
        sub = [(n, v[n] - tree.continuation(n, v, xi)) for n in region if not tree.is_leaf(n)]
        add(f"submartingale_p{i}", sub)
        add(
            f"hit_condition_p{i}",
            [
                (q, (v[q] - eta) - stop[q])
                for q in hits[i].antichain
            ],
        )
        add(f"pre_hit_ordering_p{i}", [(n, stop[n] - opp[n]) for n in region])
        add(f"expected_value_bound_p{i}", _expected_value_items(tree, v, xi, hit, region))

    # Splitting every frame doubles each root path; both halves of a frame
    # must keep the input's value, as the stage value is idempotent.
    stree, spay, inserted = split_frames(tree, payoffs, tree.nodes)
    require_valid(stree, spay)
    split_items = []
    for i in (1, 2):
        before = values[i].value
        after = solve_value_process(stree, spay, i).value
        for n in tree.nodes:
            copy = inserted[n]
            split_items.append((n, abs(after[n] - before[n])))
            split_items.append((copy, abs(after[copy] - before[n])))
    add("split_invariance", split_items)

    from .equilibrium import classify  # local import to avoid a module cycle

    try:
        classify(tree, payoffs, values[1], values[2], tol=tol)
        checks.append(InvariantCheck("classification_total", True, 0.0, None))
    except ModelViolationError as exc:
        checks.append(InvariantCheck("classification_total", False, float("inf"), str(exc)))
    return InvariantReport(checks)


def _expected_value_items(
    tree: EventTree, value: dict[str, float], xi: dict[str, float], hits: set[str], region: list[str]
) -> list[tuple[str, float]]:
    """value(n) must not exceed the expected value at the hit, xi beyond it;
    ``region`` is the pre-hit region of the hit set ``hits``."""
    covered = hits.union(region)
    target: dict[str, float] = {}
    items: list[tuple[str, float]] = []
    for node in reversed(tree.nodes):
        if node not in covered:
            continue
        if node in hits:
            target[node] = value[node]
        else:
            target[node] = tree.continuation(node, target, xi)
        items.append((node, value[node] - target[node]))
    return items
