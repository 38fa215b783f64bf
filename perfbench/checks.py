"""Checkers written apart from the engine: they import nothing from dynkin.

A game here is a plain ``Game``: breadth-first node order, a child list per
node, and the eight payoff tables.  Every checker returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

REL = 1e-9


@dataclass
class Game:
    root: str
    order: list  # breadth-first, parents before children
    children: dict  # node -> [(child, prob)]
    pay: dict  # "X1".."Z2", "xi1", "xi2" -> {node: float}

    @property
    def scale(self) -> float:
        return max(1.0, max(abs(v) for table in self.pay.values() for v in table.values()))

    def tol(self) -> float:
        return REL * self.scale


def game_from_objects(tree, payoffs) -> Game:
    """Read an engine tree and payoff process through their public fields."""
    names = {"X1": "x1", "Y1": "y1", "Z1": "z1", "X2": "x2", "Y2": "y2", "Z2": "z2", "xi1": "xi1", "xi2": "xi2"}
    pay = {key: dict(getattr(payoffs, attr)) for key, attr in names.items()}
    children = {n: list(tree.children.get(n, ())) for n in tree.nodes}
    return Game(root=tree.root, order=list(tree.nodes), children=children, pay=pay)


def game_from_doc(doc: dict) -> Game:
    """Parse the flat JSON game format (node list with parent and prob)."""
    pay = {key: {} for key in ("X1", "Y1", "Z1", "X2", "Y2", "Z2", "xi1", "xi2")}
    children: dict = {}
    root = None
    for entry in doc["nodes"]:
        node = entry["id"]
        children.setdefault(node, [])
        for key in ("X1", "Y1", "Z1", "X2", "Y2", "Z2"):
            pay[key][node] = float(entry[key])
        if "xi1" in entry:
            pay["xi1"][node] = float(entry["xi1"])
            pay["xi2"][node] = float(entry["xi2"])
        if "parent" in entry:
            children.setdefault(entry["parent"], []).append((node, float(entry["prob"])))
        else:
            root = node
    order = [root]
    for node in order:
        order.extend(child for child, _ in children[node])
    return Game(root=root, order=order, children=children, pay=pay)


def _own(game: Game, player: int):
    """(own-first, opponent-first, simultaneous, terminal) tables of a player."""
    p = game.pay
    if player == 1:
        return p["X1"], p["Y1"], p["Z1"], p["xi1"]
    return p["Y2"], p["X2"], p["Z2"], p["xi2"]


def _continuation(game: Game, node: str, table: dict, terminal: dict) -> float:
    kids = game.children[node]
    if not kids:
        return terminal[node]
    return sum(p * table[child] for child, p in kids)


def stage_bracket(x: float, y: float, z: float, c: float) -> tuple:
    """Lower and upper value of one frame's stage game for the protagonist.

    ``x`` is the protagonist-first payoff, ``y`` the opponent-first payoff,
    ``z`` the simultaneous payoff and ``c`` the continuation value.
    """
    lower = max(min(z, x), min(y, x), min(y, c))
    upper = min(max(z, y), max(x, y), max(x, c))
    return lower, upper


def value_process(game: Game, player: int) -> dict:
    """Per-node zero-sum values from the stage bracket, by backward induction."""
    own, opp, sim, terminal = _own(game, player)
    value: dict = {}
    for node in reversed(game.order):
        c = _continuation(game, node, value, terminal)
        value[node] = stage_bracket(own[node], opp[node], sim[node], c)[0]
    return value


def check_stage_values(game: Game, player: int, value: dict) -> list:
    """Every value lies in the bracket built from the values below it."""
    own, opp, sim, terminal = _own(game, player)
    tol = game.tol()
    problems = []
    for node in game.order:
        c = _continuation(game, node, value, terminal)
        lower, upper = stage_bracket(own[node], opp[node], sim[node], c)
        if not (lower - tol <= value[node] <= upper + tol):
            problems.append(
                f"player {player} node {node}: value {value[node]!r} outside bracket [{lower!r}, {upper!r}]"
            )
    return problems


def evaluate(game: Game, mix1: dict, mix2: dict) -> tuple:
    """Expected payoff pair at the root of a behavioral profile.

    Per frame: atom against atom pays Z, an atom beats a later stop, uniform
    against uniform averages X and Y, uniform beats wait, and wait against
    wait passes to the continuation.
    """
    p = game.pay
    table: dict = {}
    for node in reversed(game.order):
        kids = game.children[node]
        if kids:
            c1 = sum(q * table[child][0] for child, q in kids)
            c2 = sum(q * table[child][1] for child, q in kids)
        else:
            c1, c2 = p["xi1"][node], p["xi2"][node]
        a1, u1, w1 = mix1[node]
        a2, u2, w2 = mix2[node]
        first1 = a1 * (u2 + w2) + u1 * w2  # player 1 strictly first
        first2 = a2 * (u1 + w1) + u2 * w1  # player 2 strictly first
        both = a1 * a2
        half = u1 * u2
        wait = w1 * w2
        pair = []
        for x, y, z, c in ((p["X1"], p["Y1"], p["Z1"], c1), (p["X2"], p["Y2"], p["Z2"], c2)):
            pair.append(
                both * z[node]
                + first1 * x[node]
                + first2 * y[node]
                + half * 0.5 * (x[node] + y[node])
                + wait * c
            )
        table[node] = tuple(pair)
    return table[game.root]


def best_response_value(game: Game, opponent: dict, deviator: int) -> float:
    """Root value of the deviator's best reply, over the lines atom, early,
    late and wait against the opponent's per-frame (atom, uniform, wait)."""
    own, opp, sim, terminal = _own(game, deviator)
    value: dict = {}
    for node in reversed(game.order):
        c = _continuation(game, node, value, terminal)
        a, u, w = opponent[node]
        value[node] = max(
            a * sim[node] + (u + w) * own[node],  # atom
            a * opp[node] + (u + w) * own[node],  # early
            (a + u) * opp[node] + w * own[node],  # late
            (a + u) * opp[node] + w * c,  # wait
        )
    return value[game.root]


def root_region(game: Game, v1: dict, v2: dict) -> str:
    """'A' when player 1's stop-first payoff reaches v1 at the root, 'M' when
    only player 2's reaches v2, and 'A6' when neither does."""
    tol = game.tol()
    r = game.root
    if game.pay["X1"][r] - v1[r] >= -tol:
        return "A"
    if game.pay["Y2"][r] - v2[r] >= -tol:
        return "M"
    return "A6"


def check_profile_shape(game: Game, mixes: tuple, pure: bool) -> list:
    """Each node has a distribution over (atom, uniform, wait) per player."""
    problems = []
    for player, side in enumerate(mixes, start=1):
        for node in game.order:
            mix = side.get(node)
            if mix is None or len(mix) != 3:
                problems.append(f"player {player} node {node}: no stage distribution")
            elif min(mix) < -1e-12 or abs(sum(mix) - 1.0) > 1e-9:
                problems.append(f"player {player} node {node}: {mix!r} is not a distribution")
            elif pure and any(q not in (0.0, 1.0) for q in mix):
                problems.append(f"player {player} node {node}: {mix!r} is not 0/1")
    return problems


def close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL * max(1.0, scale, abs(a), abs(b))


def check_report(
    source: Game,
    split: Game,
    mixes: tuple,
    payoff: tuple,
    gaps: tuple,
    eta: float,
    root_label: str,
    pure: bool = False,
) -> list:
    """Check one certified profile against independent recomputations.

    ``source`` is the input game and ``split`` the frame-split game the
    profile lives on; ``gaps`` are the reported (gap1, gap2).
    """
    problems = check_profile_shape(split, mixes, pure)
    if problems:
        return problems
    scale = source.scale
    for node in source.order:
        if node not in split.children:
            problems.append(f"split game lost input node {node}")
        elif any(split.pay[k][node] != source.pay[k][node] for k in ("X1", "Y1", "Z1", "X2", "Y2", "Z2")):
            problems.append(f"split game changed the payoffs of node {node}")
    if problems:
        return problems
    values = {}
    for player in (1, 2):
        before = value_process(source, player)
        after = value_process(split, player)
        values[player] = before
        for node in source.order:
            if not close(before[node], after[node], scale):
                problems.append(f"player {player} node {node}: split moved the value {before[node]!r} -> {after[node]!r}")
                break
    region = root_region(source, values[1], values[2])
    if ("A6" if root_label == "A6" else root_label[0]) != region:
        problems.append(f"root label {root_label} but the independent values give region {region}")
    g = evaluate(split, mixes[0], mixes[1])
    for player in (1, 2):
        if not close(g[player - 1], payoff[player - 1], scale):
            problems.append(f"player {player}: payoff {payoff[player - 1]!r}, independent evaluator {g[player - 1]!r}")
        best = best_response_value(split, mixes[2 - player], player)
        gap = max(0.0, best - g[player - 1])
        if not close(gap, gaps[player - 1], scale):
            problems.append(f"player {player}: gap {gaps[player - 1]!r}, independent best response {gap!r}")
        bound = 13.0 * eta + 1e-6 * scale
        if gaps[player - 1] > bound:
            problems.append(f"player {player}: gap {gaps[player - 1]!r} above 13*eta bound {bound!r}")
    return problems


def check_values_csv(game: Game, path) -> list:
    """The per-node values written by ``dynkin solve`` lie in their brackets
    and the root values equal the independent ones."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = [row for row in csv.DictReader(handle) if row["depth"]]
    problems = []
    for player in (1, 2):
        value = {row["node_id"]: float(row[f"v{player}"]) for row in rows}
        if set(value) != set(game.order):
            return [f"values.csv lists {len(value)} nodes, the game has {len(game.order)}"]
        problems += check_stage_values(game, player, value)
        expected = value_process(game, player)[game.root]
        if not close(value[game.root], expected, game.scale):
            problems.append(f"player {player}: root value {value[game.root]!r}, independent {expected!r}")
    return problems


def check_equal(name: str, brute, dp) -> list:
    """Brute-force and dynamic-programming results must agree exactly."""
    return [] if brute == dp else [f"{name}: brute force {brute!r} != dynamic program {dp!r}"]
