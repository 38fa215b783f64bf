"""Exact certification: best responses, deviation gaps, invariants, oracles.

A lone deviator facing a mixture of (atom, uniform, wait) gets a payoff that
is affine in their stop position inside the frame, so only the endpoint
limits matter: the deviator's action set is (atom, early, late, wait) and the
best response is an exact backward dynamic program over
``core.deviator_lines``, the same stage lines that ``evaluate_profile``
prices the profile from.  ``deviation_gap`` checks its profile, which is
outside input, and ``_certify`` then runs both programs for both players in
one backward pass, one ``deviator_lines`` call per player and node pricing
both; ``equilibrium.construct`` runs ``_certify`` directly on the profile it
has just built, so that profile is never checked again.  In the same way
``check_invariants`` checks its instance and then runs
``_check_invariants``, which the ``dynkin invariants`` command calls
directly on the game ``toolkit.load`` has just validated.
``best_response`` and ``core.evaluate_profile_table`` stay as the
one-program references that the tests and the brute-force oracles hold it
to, each stepping back through ``EventTree.continuation``.  The invariant
runner checks each invariant as one column of violations over its nodes, by
C-level passes, and frame-split invariance on one split of every frame of
the input.

Brute-force enumerators over explicit stopping rules provide independent
cross-checks on small trees.  Each call builds one table of the tree's
root-to-leaf paths, each with its probability from one upward walk per leaf,
and each path's terms one row per first stop, by frame order: an earlier
opponent stop pays its frame's opponent-first entry, a later one or none the
stop-first entry, and only a shared frame reads ``core.STOP_ORDER``, once
per cell, and then one entry of each priced player's X, Y or Z table.
``brute_force_payoff`` prices both players in that one pass, both term
tables laid out by player 1's first stop.  The table also refuses a tree
above ``BRUTE_FORCE_NODE_LIMIT`` nodes and enumerates the reduced stopping
rules in one recursion, each with its first stop on every path.  One
path-by-path sum, ``_rule_payoffs``, prices a rule against every opponent
rule for ``brute_force_payoff`` (both players) and ``brute_force_value``.

``GapCertificate``, ``InvariantCheck`` and ``InvariantReport`` are
``NamedTuple`` records.  A check fails on a violation above its tolerance or
on one that is not finite: a NaN compares false with every bound.
"""

from __future__ import annotations

import math
from itertools import chain, compress, count, filterfalse, product, repeat
from operator import getitem, sub
from typing import NamedTuple, Optional, Sequence

from .core import (
    DEVIATOR_ACTIONS,
    BehavioralProfile,
    EventTree,
    Mix,
    ModelViolationError,
    Outcome,
    PayoffPair,
    PayoffProcess,
    STOP_ORDER,
    StageAction,
    _PLAYER1_FIRST,
    _PLAYER2_FIRST,
    _SIMULTANEOUS,
    _TIE,
    _worded_id,
    deviator_lines,
    require_player,
    require_profile,
    require_side,
    require_valid,
    split_frames,
)
from .zerosum import (
    hitting_time,
    saddle_values,
    solve_value_process,
    stage_columns,
)

BRUTE_FORCE_NODE_LIMIT = 10

_ATOM, _EARLY, _LATE, _WAIT = DEVIATOR_ACTIONS
_UNIFORM = StageAction.UNIFORM  # a module global reads faster than the class attribute


class GapCertificate(NamedTuple):
    """One player's certified deviation gap, with the witnessing strategy."""

    player: int
    best_response_value: float
    path_value: float
    gap: float
    raw_gap: float
    strategy: dict[str, StageAction]


class InvariantCheck(NamedTuple):
    name: str
    passed: bool
    worst: float
    witness: Optional[str]


class InvariantReport(NamedTuple):
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
    distribution, defined on the whole tree and checked as player
    ``3 - deviator``'s side of a profile.  Ties go to the earlier action in
    the order atom < early < late < wait.  A line that is not finite is a
    model violation: ``max`` would drop a NaN that is not the first line.
    """
    stop, opp, sim, xi = payoffs.side(deviator)
    require_side(tree, opponent, 3 - deviator)
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

    The profile is outside input here: it is checked once
    (``require_profile``, raising ``ProfileError``) and then priced by
    ``_certify``.  ``equilibrium.construct`` calls ``_certify`` directly on
    the profile it has just built from the value processes' own mixes.
    """
    require_profile(tree, profile)
    return _certify(tree, payoffs, profile)


def _certify(
    tree: EventTree, payoffs: PayoffProcess, profile: BehavioralProfile
) -> tuple[GapCertificate, GapCertificate]:
    """``deviation_gap`` on a profile that fits ``tree``; it checks nothing.

    One backward pass serves both players.  At each node one loop over the
    children adds up four continuations, the profile's and the best
    response's for each player, and one ``deviator_lines`` call per player,
    player 1's first, prices the stage at both of that player's
    continuations: the profile's value as in ``evaluate_profile_table`` (the
    player's lines weighed by their own mix) and the best response as in
    ``best_response`` (the largest line, found by comparisons, ties to the
    earlier action).  Each player's four tables are bound once per call, as
    in ``solve_value_process``.

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
    stop1, opp1, sim1, xi1 = payoffs.side(1)
    stop2, opp2, sim2, xi2 = payoffs.side(2)
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
            c1 = b1 = xi1[node]
            c2 = b2 = xi2[node]
        a1, u1, w1 = mix1 = mixes1[node]
        a2, u2, w2 = mix2 = mixes2[node]
        atom, early, late, wait, reply = deviator_lines(stop1[node], opp1[node], sim1[node], mix2, c1, b1)
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
        atom, early, late, wait, reply = deviator_lines(stop2[node], opp2[node], sim2[node], mix1, c2, b2)
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


class _PathTable:
    """The root-to-leaf paths and the reduced stopping rules of one
    brute-force call, built once; a tree of more than
    ``BRUTE_FORCE_NODE_LIMIT`` nodes is a ``ValueError``.

    One depth-first recursion enumerates the rules: at each node, a stop
    with each action, then (at a leaf) the empty rule that never stops, or
    every combination of one rule per child subtree, the last child varying
    fastest.  A reduced rule is a first-stop antichain, so it stops at most
    once on each path.  The leaves below a node are contiguous in the
    recursion's leaf order, so each rule carries its first stops on the
    subtree's paths as one tuple: a stop at the node fills its whole run of
    paths, and a combination joins its children's runs.  ``rules`` holds
    the rules and ``firsts[r]`` rule r's first stop on every path: ``k *
    len(actions)`` plus the action's place for a stop at the path's k-th
    node, ``len(path) * len(actions)`` for none.

    ``paths`` lists the paths in the recursion's leaf order, which is the
    tree's leaf order when the horizon is uniform, each with its probability
    in ``probs`` from one upward walk per leaf.
    """

    def __init__(self, tree: EventTree, actions: tuple[StageAction, ...]) -> None:
        if len(tree.nodes) > BRUTE_FORCE_NODE_LIMIT:
            raise ValueError(f"brute force refused: {len(tree.nodes)} nodes exceeds {BRUTE_FORCE_NODE_LIMIT}")
        self.actions = actions
        width = len(actions)
        depth, kids_of = tree.depth, tree.children.get
        leaves: list[str] = []

        def subtree_rules(node: str) -> list[tuple[dict[str, StageAction], tuple[int, ...]]]:
            kids = kids_of(node)
            if kids:
                start = len(leaves)
                below = [subtree_rules(child) for child, _ in kids]
                combos = []
                for combo in product(*below):
                    merged: dict[str, StageAction] = {}
                    ids: tuple[int, ...] = ()
                    for rule, part in combo:
                        merged.update(rule)
                        ids += part
                    combos.append((merged, ids))
                run = len(leaves) - start
            else:
                leaves.append(node)
                combos = [({}, ((depth[node] + 1) * width,))]
                run = 1
            base = depth[node] * width
            return [({node: act}, (base + i,) * run) for i, act in enumerate(actions)] + combos

        self.rules: list[dict[str, StageAction]] = []
        self.firsts: list[tuple[int, ...]] = []
        for rule, ids in subtree_rules(tree.root):
            self.rules.append(rule)
            self.firsts.append(ids)
        self.paths: list[list[str]] = []
        self.probs: list[float] = []
        for leaf in leaves:  # one upward walk per leaf
            path, prob = [leaf], 1.0
            while (up := tree.parent[path[-1]]) is not None:
                prob *= tree._edge[path[-1]]  # from the leaf up to the root
                path.append(up)
            path.reverse()
            self.paths.append(path)
            self.probs.append(prob)

    def rows(
        self,
        payoffs: PayoffProcess,
        row: int,
        players: tuple[int, ...],
        theirs: Optional[list[list[list[tuple[Optional[StageAction], float]]]]] = None,
    ) -> list[list[list[list[float]]]]:
        """One table of terms for each of ``players``, every row indexed by
        the first stop of the row player ``row``: ``table[p][i][j]`` when the
        row player first stops at the i-th stop of path p and the opponent
        at the j-th of ``theirs[p]``.

        ``theirs[p][k]`` holds the opponent's first stops in frame ``k`` of
        path p, each an action (None for no stop, in frame ``len(path)``)
        with its weight; by default every stop, at the path's probability.
        Against a row stop in frame k, an opponent stop in an earlier frame j
        pays the entry of the opponent stopping first at ``path[j]``, a later
        one or none the entry of the row player stopping first at
        ``path[k]``; only frame k's own cells read ``STOP_ORDER``, once per
        cell for every player.  Each term is the weight times the entry.
        """
        if theirs is None:
            theirs = [
                [[(act, prob) for act in self.actions]] * len(path) + [[(None, prob)]]
                for path, prob in zip(self.paths, self.probs)
            ]
        views = []  # each player's tables: the row player first, the opponent first, then X, Y, Z and xi
        for player in players:
            stop, opp, z, xi = payoffs.side(player)
            first, second = (stop, opp) if player == row else (opp, stop)
            x, y = (first, second) if row == 1 else (second, first)  # player 1 first, player 2 first
            views.append((first, second, x, y, z, xi))
        tables: list[list[list[list[float]]]] = [[] for _ in players]
        for path, weighted in zip(self.paths, theirs):
            path_rows: list[list[list[float]]] = [[] for _ in players]
            leads: list[list[float]] = [[] for _ in players]  # the terms against the opponent's stops before frame k
            for k, node in enumerate(path):
                here = weighted[k]
                later = [w for frame in weighted[k + 1 :] for _, w in frame]
                cells = [  # the outcome and weight of each cell of the frame, one row per row stop
                    [(STOP_ORDER[mine, other] if row == 1 else STOP_ORDER[other, mine], w) for other, w in here]
                    for mine in self.actions
                ]
                for (first, second, x, y, z, _), rows, lead in zip(views, path_rows, leads):
                    entry = first[node]
                    tail = [w * entry for w in later]
                    rows += [lead + [w * _pure_path_payoff(o, x, y, z, node) for o, w in cell] + tail for cell in cells]
                    entry = second[node]
                    lead += [w * entry for _, w in here]
            for (*_, xi), rows, lead, table in zip(views, path_rows, leads, tables):
                entry = xi[path[-1]]  # neither stops: the terminal payoff
                rows.append(lead + [w * entry for _, w in weighted[-1]])
                table.append(rows)
        return tables


def _pure_path_payoff(
    outcome: Optional[Outcome], x: dict[str, float], y: dict[str, float], z: dict[str, float], node: str
) -> float:
    """One player's payoff at ``node`` when a frame ends in ``outcome``,
    read from their X (player 1 first), Y (player 2 first) and Z tables.

    A uniform tie pays the mean of X and Y.  Stops with the same interior
    limit (two earlies or two lates) have no canonical order (``STOP_ORDER``
    holds None): the ordering is chosen against the player, ``X`` on a tie,
    so of two equal zeros X's comes out.  Only ``brute_force_value``, which
    pairs (atom, early, late) rules on both sides, meets such a pair.
    """
    if outcome is _PLAYER1_FIRST:
        return x[node]
    if outcome is _PLAYER2_FIRST:
        return y[node]
    if outcome is _SIMULTANEOUS:
        return z[node]
    if outcome is _TIE:
        return 0.5 * (x[node] + y[node])
    first, second = x[node], y[node]
    return first if first <= second else second


def _rule_payoffs(terms: list[list[list[float]]], mine: tuple[int, ...], columns: list[tuple[int, ...]]) -> list[float]:
    """The payoff of the rule with first stops ``mine`` against each rule
    whose first stop on path p is its entry of ``columns[p]``: its terms
    ``terms[p][mine[p]]`` added up path by path."""
    pays = [0.0] * len(columns[0])
    for path_terms, i, column in zip(terms, mine, columns):
        row = path_terms[i]
        pays = [pay + row[j] for pay, j in zip(pays, column)]
    return pays


def _rule_probability(tree: EventTree, rule: dict[str, StageAction], side: dict[str, Mix]) -> float:
    """Probability the behavioral side realizes this first-stop rule."""
    prob = 1.0
    stack = [tree.root]
    while stack:
        node = stack.pop()
        a, u, w = side[node]
        if node in rule:
            prob *= a if rule[node] is _ATOM else u
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
    each player's payoff, as a float, for every pair of first stops; a rule
    pair's payoff adds up its entries path by path.  The profile is checked
    by ``require_profile``.
    """
    table = _PathTable(tree, (_ATOM, _UNIFORM))
    require_profile(tree, profile)
    terms1, terms2 = table.rows(payoffs, 1, (1, 2))  # terms1[p][i1][i2], terms2[p][i1][i2]
    weights2 = [_rule_probability(tree, rule, profile.player2) for rule in table.rules]
    side2 = [(p2, firsts) for p2, firsts in zip(weights2, table.firsts) if p2 != 0.0]
    columns = list(zip(*(firsts for _, firsts in side2)))  # columns[p]: each player-2 rule's first stop on path p
    g1 = g2 = 0.0
    for rule1, firsts1 in zip(table.rules, table.firsts):
        p1 = _rule_probability(tree, rule1, profile.player1)
        if p1 == 0.0:
            continue
        pays1, pays2 = _rule_payoffs(terms1, firsts1, columns), _rule_payoffs(terms2, firsts1, columns)
        for (p2, _), pay1, pay2 in zip(side2, pays1, pays2):
            g1 += p1 * p2 * pay1
            g2 += p1 * p2 * pay2
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
    payoff adds up its lists path by path.  ``opponent`` is checked as
    player ``3 - deviator``'s side of a profile.
    """
    require_player(deviator)
    table = _PathTable(tree, (_ATOM, _EARLY, _LATE))
    require_side(tree, opponent, 3 - deviator)
    theirs = []  # theirs[p][k]: the opponent's weighted first stops in frame k of path p
    for path, prob in zip(table.paths, table.probs):
        weighted: list[list[tuple[Optional[StageAction], float]]] = [[] for _ in range(len(path) + 1)]
        alive = 1.0
        for k, node in enumerate(path):
            a, u, w = opponent[node]
            weighted[k] = [(act, prob * alive * p) for act, p in ((_ATOM, a), (_UNIFORM, u)) if p != 0.0]
            alive *= w
            if alive == 0.0:
                break
        else:
            weighted[-1] = [(None, prob * alive)]
        theirs.append(weighted)
    # terms[p][i]: the terms on path p when the deviator first stops at the i-th stop
    (terms,) = table.rows(payoffs, deviator, (deviator,), theirs)
    values = []
    for firsts in table.firsts:
        value = 0.0
        for term in chain.from_iterable(map(getitem, terms, firsts)):  # path by path
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
    table = _PathTable(tree, (_ATOM, _EARLY, _LATE))
    (terms,) = table.rows(payoffs, player, (player,))  # terms[p][mine][theirs]
    columns = list(zip(*table.firsts))  # columns[p]: every rule's first stop on path p
    return max(min(_rule_payoffs(terms, mine, columns)) for mine in table.firsts)


# ---------------------------------------------------------------------------
# Invariant runner


def check_invariants(
    tree: EventTree, payoffs: PayoffProcess, eta: float, tol: Optional[float] = None
) -> InvariantReport:
    """Run the named solver invariants and report worst violations.

    Each check's violations are one column over its nodes, built by C-level
    ``map`` passes; only the continuations and the expected-value target
    take a loop over the nodes, each a call of ``EventTree.continuation``.
    The continuations are taken from the reported value processes, not the
    solver's own sums, so a skewed value shows in the checks.
    ``minimax_agreement`` takes both players' continuations in one backward
    pass, builds both players' primal and dual matrices over all nodes at
    once (``stage_columns``, its cells resolved by ``core.STOP_ORDER``) and
    solves all four by the one saddle rule (``saddle_values``); at each node
    the two values are compared with each other and with the closed-form
    value.  Its items list player 1's nodes in reverse breadth-first order,
    then player 2's.
    ``split_invariance`` splits every frame of the input at once and
    compares both value processes at each input node and at its copy.  The
    instance and the split tree are each validated once.
    """
    require_valid(tree, payoffs)
    return _check_invariants(tree, payoffs, eta, tol)


def _check_invariants(
    tree: EventTree, payoffs: PayoffProcess, eta: float, tol: Optional[float] = None
) -> InvariantReport:
    """``check_invariants`` on a valid instance: it does not check the
    instance, and still validates its own split of every frame."""
    tol = payoffs.tolerance(tol)
    checks: list[InvariantCheck] = []
    values = {i: solve_value_process(tree, payoffs, i) for i in (1, 2)}
    hits = {i: hitting_time(tree, payoffs, values[i], eta, tol) for i in (1, 2)}
    nodes = tree.nodes

    def add(name: str, where: Sequence[str], violations: list[float]) -> None:
        # the largest violation and its first node in item order, by C-level
        # passes; the first one that is not finite (a NaN compares false with
        # everything) ends the search and fails the check at its node
        if not all(map(math.isfinite, violations)):
            end = list(map(math.isfinite, violations)).index(False)
            checks.append(InvariantCheck(name, False, violations[end], where[end]))
            return
        worst = max([0.0, *violations])  # 0.0 unless one is larger; else the first of the largest
        checks.append(InvariantCheck(name, worst <= tol, worst, where[violations.index(worst)] if worst else None))

    for i in (1, 2):
        stop, opp, sim, _ = payoffs.side(i)
        v, x, y, z = (list(map(table.__getitem__, nodes)) for table in (values[i].value, stop, opp, sim))
        add(f"value_lower_bound_p{i}", nodes, list(map(sub, map(min, x, y), v)))
        add(f"value_upper_bound_p{i}", nodes, list(map(sub, v, map(max, x, y))))
        # an immediate opponent stop caps the value at max(opp-first, simultaneous)
        add(f"value_opponent_cap_p{i}", nodes, list(map(sub, v, map(max, y, z))))

    # Both orientations, built by the stop-order rule, must agree with each
    # other and with the closed-form value the process used.
    v1, v2 = values[1].value, values[2].value
    xi1, xi2 = payoffs.side(1).xi, payoffs.side(2).xi
    back = nodes[::-1]
    cont1 = [tree.continuation(node, v1, xi1) for node in back]
    cont2 = [tree.continuation(node, v2, xi2) for node in back]
    (primal1, dual1), (primal2, dual2) = stage_columns(payoffs, back, PayoffPair(cont1, cont2))
    lowers = saddle_values([primal1, dual1, primal2, dual2])
    minimax: list[float] = []
    for v, pv, dv in ((v1, lowers[0], lowers[1]), (v2, lowers[2], lowers[3])):
        at = list(map(v.__getitem__, back))
        gaps = [list(map(abs, map(sub, a, b))) for a, b in ((pv, dv), (pv, at), (dv, at))]
        worst = list(map(max, *gaps))
        # ``max`` drops a NaN that is not its first argument; a sum of gaps
        # at or above zero is NaN exactly when one of them is
        if math.isnan(sum(map(sum, gaps))):
            for k in compress(count(), map(math.isnan, map(sum, zip(*gaps)))):
                worst[k] = math.nan
        minimax += worst
    add("minimax_agreement", back + back, minimax)

    continuations = {1: dict(zip(back, cont1)), 2: dict(zip(back, cont2))}
    for i in (1, 2):
        v = values[i].value
        stop, opp, _, xi = payoffs.side(i)
        hit = hits[i].hits()
        # the pre-hit region: every node before the hit, never-hit paths whole
        region = list(filterfalse(hit.__contains__, tree.walk(tree.root, hit)))
        inner = list(filter(tree.children.get, region))
        add(f"submartingale_p{i}", inner, list(map(sub, map(v.__getitem__, inner), map(continuations[i].__getitem__, inner))))
        antichain = hits[i].antichain
        add(
            f"hit_condition_p{i}",
            antichain,
            list(map(sub, map(sub, map(v.__getitem__, antichain), repeat(eta)), map(stop.__getitem__, antichain))),
        )
        add(f"pre_hit_ordering_p{i}", region, list(map(sub, map(stop.__getitem__, region), map(opp.__getitem__, region))))
        # the value must not exceed the expected value at the hit, xi beyond it
        covered = hit.union(region)
        target: dict[str, float] = {}
        where = list(filter(covered.__contains__, back))
        for node in where:
            if node in hit:
                target[node] = v[node]
            else:
                target[node] = tree.continuation(node, target, xi)
        add(f"expected_value_bound_p{i}", where, list(map(sub, map(v.__getitem__, where), map(target.__getitem__, where))))

    # Splitting every frame doubles each root path; both halves of a frame
    # must keep the input's value, as the stage value is idempotent.
    stree, spay, inserted = split_frames(tree, payoffs, nodes)
    require_valid(stree, spay)
    copies = list(map(inserted.__getitem__, nodes))
    split: list[float] = []
    for i in (1, 2):
        before = list(map(values[i].value.__getitem__, nodes))
        after = solve_value_process(stree, spay, i).value.__getitem__
        drift = map(abs, map(sub, map(after, nodes), before))
        drift_copy = map(abs, map(sub, map(after, copies), before))
        split += chain.from_iterable(zip(drift, drift_copy))  # each node, then its copy
    add("split_invariance", list(chain.from_iterable(zip(nodes, copies))) * 2, split)

    from .equilibrium import classify  # local import to avoid a module cycle

    try:
        classify(tree, payoffs, values[1], values[2], tol=tol)
        checks.append(InvariantCheck("classification_total", True, 0.0, None))
    except ModelViolationError as exc:
        checks.append(InvariantCheck("classification_total", False, float("inf"), str(exc)))
    return InvariantReport(checks)
