"""Event-tree model of two-player stopping games with frame-constant payoffs.

A game runs on a finite tree whose nodes sit at integer depths ("frames").
Frame d covers the real-time interval [d, d+1); every payoff process is
constant on each frame, so all timing questions inside a frame reduce to a
small set of stage actions.  Player 1 stopping first pays (X1, X2), player 2
first pays (Y1, Y2), a simultaneous atom pays (Z1, Z2), and never stopping
pays the terminal (xi1, xi2) at the reached leaf.

``validate_instance`` and ``validate_profile`` check each rule once: one
loop over the tree's structure, one C-level screen per payoff table, and one
check per distinct stage mix object.  The engine's profiles and those
``toolkit.profile_from_doc`` loads hold one tuple per distinct mix, so a
profile of hundreds of nodes takes a few mix checks.  Only a table or mix
that fails is worded, node by node, each value and node id in at most
``_WORDED_LIMIT`` characters, and an error line words the first
``_WORDED_ISSUES`` issues and counts the rest.  Payoffs and mix entries
must be ints or floats, and payoffs may not exceed ``PAYOFF_LIMIT`` in
magnitude, so no stage sum overflows.  Each entry that takes outside input
validates it once; the solvers downstream take a valid instance unchecked.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, filterfalse, repeat
from operator import itemgetter
from typing import Container, Iterator, Mapping, NamedTuple, Optional

PROB_TOL = 1e-12
DEFAULT_REL_TOL = 1e-9
# Largest payoff magnitude an instance may hold: below it a stage line's
# early + late, and every value difference, stays under max / 2.
PAYOFF_LIMIT = sys.float_info.max / 4


class ModelViolationError(RuntimeError):
    """An internal consistency check failed; this signals a solver bug."""


class InstanceError(ValueError):
    """The tree/payoff instance violates a structural invariant."""


class ProfileError(ValueError):
    """A behavioral profile is malformed for the given tree."""


class ConvexityError(ValueError):
    """A simultaneous payoff falls outside the span of the unilateral ones."""


class StageAction(Enum):
    """What a player does with the frame at one node.

    ATOM stops exactly at the frame's left endpoint, UNIFORM stops at a
    uniformly drawn interior time, WAIT survives the frame.  EARLY and LATE
    are deviation-analysis limits: a stop just after the left endpoint or
    just before the right one.  Constructed strategies never use them.
    """

    ATOM = "atom"
    UNIFORM = "uniform"
    WAIT = "wait"
    EARLY = "early"
    LATE = "late"

    # Members compare by identity, so the C-level identity hash agrees with
    # equality and spares each ``_RANK`` lookup ``Enum.__hash__``'s Python call.
    __hash__ = object.__hash__


PLAYER_ACTIONS = (StageAction.ATOM, StageAction.UNIFORM, StageAction.WAIT)
DEVIATOR_ACTIONS = (
    StageAction.ATOM,
    StageAction.EARLY,
    StageAction.LATE,
    StageAction.WAIT,
)

# Stop position inside a frame; a strictly smaller rank stops first.
# Two EARLYs (or two LATEs) share a limit and have no defined order.
_RANK = {
    StageAction.ATOM: 0,
    StageAction.EARLY: 1,
    StageAction.UNIFORM: 2,
    StageAction.LATE: 3,
    StageAction.WAIT: 4,
}

Mix = tuple[float, float, float]

ATOM_MIX: Mix = (1.0, 0.0, 0.0)
UNIFORM_MIX: Mix = (0.0, 1.0, 0.0)
WAIT_MIX: Mix = (0.0, 0.0, 1.0)


class PayoffPair(NamedTuple):
    g1: float
    g2: float


class Side(NamedTuple):
    """One player's payoff tables: stopping first, the opponent stopping
    first, stopping together, and never stopping."""

    stop: dict[str, float]
    opp: dict[str, float]
    sim: dict[str, float]
    xi: dict[str, float]


@dataclass
class EventTree:
    """Finite filtered tree; every leaf sits at the same depth (the horizon).

    ``nodes`` is breadth-first (parents before children); ``children`` maps a
    node to its (child, probability) list, probabilities summing to one.
    """

    root: str
    nodes: list[str]
    depth: dict[str, int]
    children: dict[str, list[tuple[str, float]]]
    parent: dict[str, Optional[str]] = field(init=False, repr=False)
    _edge: dict[str, float] = field(init=False, repr=False)  # child -> its probability
    _leaves: list[str] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        parent: dict[str, Optional[str]] = {self.root: None}
        edge: dict[str, float] = {}
        for node in self.nodes:
            for child, p in self.children.get(node, ()):
                parent[child] = node
                edge[child] = p
        self.parent = parent
        self._edge = edge
        self._leaves = [n for n in self.nodes if not self.children.get(n)]

    @classmethod
    def build(cls, root: str, children: dict[str, list[tuple[str, float]]]) -> "EventTree":
        """Derive depths and breadth-first order from a child map."""
        depth = {root: 0}
        order = [root]
        for node in order:  # grows as it goes: breadth-first
            for child, _ in children.get(node, ()):
                if child in depth:
                    raise InstanceError(f"node {_worded_id(child)!r} has more than one parent")
                depth[child] = depth[node] + 1
                order.append(child)
        known = set(order)
        for node in children:
            if node not in known:
                raise InstanceError(f"node {_worded_id(node)!r} is not reachable from the root")
        full = {n: list(children.get(n, [])) for n in order}
        return cls(root=root, nodes=order, depth=depth, children=full)

    def is_leaf(self, node: str) -> bool:
        return not self.children.get(node)

    @property
    def leaves(self) -> list[str]:
        return list(self._leaves)

    @property
    def horizon(self) -> int:
        return max(map(self.depth.__getitem__, self._leaves))

    def walk(self, start: str, stop: Container[str] = ()) -> Iterator[str]:
        """Breadth-first nodes from ``start``, not descending below ``stop`` nodes."""
        order = [start]
        for node in order:  # grows as it goes: breadth-first
            yield node
            if node not in stop:
                order.extend(child for child, _ in self.children.get(node, ()))

    def continuation(self, node: str, value: Mapping[str, float], terminal: Mapping[str, float]) -> float:
        """Value of surviving ``node``'s frame: the terminal payoff at a leaf,
        else the children's ``value`` weighted by their probabilities."""
        kids = self.children.get(node)
        if not kids:
            return terminal[node]
        # a plain running sum, the same on every interpreter as the fused
        # pass of ``verify.deviation_gap`` (``sum`` compensates from 3.12 on)
        total = 0.0
        for child, p in kids:
            total += p * value[child]
        return total


@dataclass
class PayoffProcess:
    """Per-node payoffs (X, Y, Z per player) and per-leaf terminal payoffs."""

    x1: dict[str, float]
    y1: dict[str, float]
    z1: dict[str, float]
    x2: dict[str, float]
    y2: dict[str, float]
    z2: dict[str, float]
    xi1: dict[str, float]
    xi2: dict[str, float]

    @property
    def payoff_range(self) -> float:
        """Max absolute payoff; tolerances scale with it."""
        tables = (self.x1, self.y1, self.z1, self.x2, self.y2, self.z2, self.xi1, self.xi2)
        return max(map(abs, chain.from_iterable(t.values() for t in tables)), default=0.0)

    def tolerance(self, tol: Optional[float] = None) -> float:
        """The absolute tolerance of the hitting and root-region tests: ``tol``
        once ``require_tol`` accepts it, else ``DEFAULT_REL_TOL`` scaled by the
        payoff range, which is computed only then."""
        require_tol(tol)
        return DEFAULT_REL_TOL * max(1.0, self.payoff_range) if tol is None else tol

    def side(self, player: int) -> Side:
        """The player's own view: (X1, Y1, Z1, xi1) or (Y2, X2, Z2, xi2)."""
        require_player(player)
        if player == 1:
            return Side(self.x1, self.y1, self.z1, self.xi1)
        return Side(self.y2, self.x2, self.z2, self.xi2)


@dataclass
class BehavioralProfile:
    """Per-node stop distributions over (atom, uniform, wait), one per player."""

    player1: dict[str, Mix]
    player2: dict[str, Mix]

    def side(self, player: int) -> dict[str, Mix]:
        require_player(player)
        return self.player1 if player == 1 else self.player2

    @classmethod
    def waiting(cls, tree: EventTree) -> "BehavioralProfile":
        """Both players wait at every node."""
        return cls(
            player1={n: WAIT_MIX for n in tree.nodes},
            player2={n: WAIT_MIX for n in tree.nodes},
        )


# The exact types a clean payoff table holds; any other entry is worded.
_NUMBER_TYPES = {float, int}


def _is_number(value: object) -> bool:
    """A float, or an int that converts to one without overflow; a bool (as
    JSON true and false load) is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


_PROB = itemgetter(1)

# The longest a value or a node id is worded in an issue: a file can hold a
# string of any length or an array nested hundreds deep.
_WORDED_LIMIT = 60


def _worded_id(node: object) -> str:
    """A node id for an issue line: as it is if it fits in ``_WORDED_LIMIT``
    characters, else cut to fit, ending in ``...``."""
    text = str(node)
    return text if len(text) <= _WORDED_LIMIT else text[: _WORDED_LIMIT - 3] + "..."


def _worded(value: object) -> str:
    """``repr`` of a value for an issue line, at most ``_WORDED_LIMIT``
    characters: ``reprlib`` abbreviates deep, wide and long values, and what
    is still too long is cut as an id is."""
    return _worded_id(reprlib.repr(value))


def validate_instance(tree: EventTree, payoffs: PayoffProcess) -> list[str]:
    """Structural diagnostics in node order; an empty list means the instance is valid.

    One loop checks the child probabilities, the depths and the horizon, and
    C-level passes over each table's column check its entries (every entry
    present, an int or a float, and the magnitudes summing to a finite total
    within the limit); only a table that fails its passes is worded node by
    node.  A child probability must be a number too (as ``_is_number``); a
    node with one that is not gets no sum check.
    """
    nodes = tree.nodes
    depth = tree.depth
    horizon = tree.horizon
    kids_of = tree.children.get
    found: defaultdict[str, list[str]] = defaultdict(list)
    leaves = []
    for node in nodes:
        kids = kids_of(node)
        if not kids:
            leaves.append(node)
            if depth[node] != horizon:
                found[node].append(f"node {_worded_id(node)}: leaf at depth {depth[node]}, horizon is {horizon} (non-uniform horizon)")
            continue
        numbers = all(map(_is_number, map(_PROB, kids)))
        if numbers:  # a sum over a non-number has no meaning, or raises
            total = sum(map(_PROB, kids))
            if abs(total - 1.0) > PROB_TOL:
                found[node].append(f"node {_worded_id(node)}: child probabilities sum to {total!r}, not 1")
        below = depth[node] + 1
        for child, p in kids:
            if not (numbers or _is_number(p)):
                found[node].append(f"node {_worded_id(node)}: probability {_worded(p)} for child {_worded_id(child)} is not a number")
            elif not 0.0 < p <= 1.0:
                found[node].append(f"node {_worded_id(node)}: probability {p!r} for child {_worded_id(child)} not in (0, 1]")
            if depth[child] != below:
                found[node].append(f"node {_worded_id(child)}: depth {depth[child]} inconsistent with parent")
    for name, table, where, kind in (
        ("xi1", payoffs.xi1, leaves, "terminal payoff"),
        ("xi2", payoffs.xi2, leaves, "terminal payoff"),
        ("X1", payoffs.x1, nodes, "payoff"),
        ("Y1", payoffs.y1, nodes, "payoff"),
        ("Z1", payoffs.z1, nodes, "payoff"),
        ("X2", payoffs.x2, nodes, "payoff"),
        ("Y2", payoffs.y2, nodes, "payoff"),
        ("Z2", payoffs.z2, nodes, "payoff"),
    ):
        # a sum of magnitudes is at least each of them, and a missing (NaN
        # default) or non-finite entry leaves it non-finite
        column = tuple(map(table.get, where, repeat(math.nan)))
        try:
            if set(map(type, column)) <= _NUMBER_TYPES and sum(map(math.fabs, column)) <= PAYOFF_LIMIT:
                continue
        except OverflowError:  # an int beyond the float range
            pass
        for node in where:
            value = table.get(node)
            if node not in table:
                found[node].append(f"node {_worded_id(node)}: missing {kind} {name}")
            elif not _is_number(value):
                found[node].append(f"node {_worded_id(node)}: {kind} {name} {_worded(value)} is not a number")
            elif not math.isfinite(value):
                found[node].append(f"node {_worded_id(node)}: non-finite {kind} {name}")
            elif math.fabs(value) > PAYOFF_LIMIT:
                found[node].append(f"node {_worded_id(node)}: {kind} {name} {value!r} is above the payoff limit {PAYOFF_LIMIT!r}")
    return [issue for node in nodes for issue in found.get(node, ())] if found else []


def require_valid(tree: EventTree, payoffs: PayoffProcess) -> None:
    issues = validate_instance(tree, payoffs)
    if issues:
        raise InstanceError(_issue_line(issues))


# The most issues one error line words; the rest are counted, so the line
# stays short however many values of a game are bad.  An issue holds up to
# three fields of ``_WORDED_LIMIT`` characters, so one issue is at most about
# 230 characters, and two could pass 300.
_WORDED_ISSUES = 1


def _issue_line(issues: list[str]) -> str:
    """The issues of one invalid instance as one error line: the first
    ``_WORDED_ISSUES`` joined by ``"; "``, then a count of the rest."""
    line = "; ".join(issues[:_WORDED_ISSUES])
    rest = len(issues) - _WORDED_ISSUES
    return f"{line}; and {rest} more" if rest > 0 else line


def require_eta(eta: float) -> None:
    """The hitting slack must be a finite number above zero."""
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta!r}")


def require_tol(tol: Optional[float]) -> None:
    """An absolute tolerance must be a finite number at or above zero; None
    picks the instance's default."""
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and at or above zero, got {tol!r}")


def require_player(player: int) -> None:
    if player not in (1, 2):
        raise ValueError(f"player must be 1 or 2, got {player}")


def validate_profile(tree: EventTree, profile: BehavioralProfile) -> list[str]:
    """Diagnostics of a profile on ``tree``; an empty list means it fits.

    Each player needs a distribution at every tree node and at no other node:
    a sequence of three finite numbers (as ``_is_number``), none below
    -PROB_TOL, summing to one within PROB_TOL.  Each distinct mix object is
    checked once, and the nodes are worded only when some mix is flawed.
    """
    issues: list[str] = []
    nodes = tree.nodes
    for player, side in ((1, profile.player1), (2, profile.player2)):
        issues.extend(
            f"node {_worded_id(node)}: not in the tree, yet player {player} has a distribution there"
            for node in filterfalse(tree.depth.__contains__, side)
        )
        mixes = list(map(side.get, nodes))
        flaws = {key: _mix_flaw(mix) for key, mix in dict(zip(map(id, mixes), mixes)).items()}
        if any(flaws.values()):
            issues.extend(
                f"node {_worded_id(node)}: player {player} {flaws[id(mix)]}"
                for node, mix in zip(nodes, mixes)
                if flaws[id(mix)]
            )
    return issues


def _mix_flaw(mix: Optional[Mix]) -> Optional[str]:
    """What is wrong with one stage distribution, worded after "player k"."""
    if mix is None:
        return "has no stage distribution"
    if (
        not isinstance(mix, Sequence)  # a float has no len(), a set no order
        or len(mix) != 3
        or not all(map(_is_number, mix))
        or any(p < -PROB_TOL for p in mix)
    ):
        return f"distribution {_worded(mix)} malformed"
    total = sum(mix)
    if abs(total - 1.0) > PROB_TOL:
        return f"distribution sums to {total!r}"
    if not all(map(math.isfinite, mix)):  # a NaN passes both tests above
        return f"distribution {mix!r} is not finite"
    return None


class Outcome(Enum):
    """How a frame ends, named by who stops first."""

    SIMULTANEOUS = "simultaneous atom"  # both atoms: (Z1, Z2)
    TIE = "uniform tie"  # both uniform: the mean of the two first-stopper pairs
    PLAYER1_FIRST = "player 1 first"  # (X1, X2)
    PLAYER2_FIRST = "player 2 first"  # (Y1, Y2)
    SURVIVAL = "survival"  # both wait: the continuation


def stop_outcome(a1: StageAction, a2: StageAction) -> Outcome:
    """The one stop-order rule: how a frame ends when player 1 plays ``a1``
    and player 2 plays ``a2``.

    A strictly smaller ``_RANK`` stops first; equal actions stop together
    (two atoms), tie (two uniform stops) or survive (two waits).  Two
    earlies or two lates share a limit and have no defined order: a
    ``ValueError``.
    """
    if a1 is not a2:  # the ranks differ exactly when the actions do
        return Outcome.PLAYER1_FIRST if _RANK[a1] < _RANK[a2] else Outcome.PLAYER2_FIRST
    if a1 is StageAction.WAIT:
        return Outcome.SURVIVAL
    if a1 is StageAction.ATOM:
        return Outcome.SIMULTANEOUS
    if a1 is StageAction.UNIFORM:
        return Outcome.TIE
    raise ValueError(f"({a1.value}, {a2.value}) has no defined stop order")


def outcome_payoff(
    outcome: Outcome, payoffs: PayoffProcess, node: str, continuation: Optional[PayoffPair] = None
) -> PayoffPair:
    """Both players' payoffs at ``node`` when its frame ends in ``outcome``.

    ``continuation`` is the value pair of surviving the frame (at a leaf, the
    terminal pair); only ``Outcome.SURVIVAL`` reads it, and needs it.
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
    if continuation is None:
        raise ValueError(f"node {node}: (wait, wait) needs a continuation")
    return continuation


def deviator_lines(
    stop: float, opp: float, sim: float, mix: Mix, continuation: float, reply_continuation: float
) -> tuple[float, float, float, float, float]:
    """A player's payoffs for DEVIATOR_ACTIONS against the opponent's ``mix``,
    from their ``Side`` payoffs at one node; a uniform stop earns the mean
    of early and late.

    Returns the atom, early and late lines, then the wait line twice: at
    ``continuation`` and at ``reply_continuation``, so that one call prices
    a stage under two continuations, the profile's and a best reply's.  A
    best reply takes the largest of atom, early, late and the second wait
    line, ties going to the earlier action: a later line wins only when it
    is strictly greater, as with ``max``, so 0.0 after -0.0 keeps -0.0.
    """
    a, u, w = mix
    held = (a + u) * opp
    ahead = (u + w) * stop
    return a * sim + ahead, a * opp + ahead, held + w * stop, held + w * continuation, held + w * reply_continuation


def evaluate_profile_table(
    tree: EventTree, payoffs: PayoffProcess, profile: BehavioralProfile
) -> dict[str, PayoffPair]:
    """Expected payoff pair at each node, conditional on reaching it unstopped.

    Each player's stage payoff weighs their ``deviator_lines`` against the
    other's mix by their own mix, a uniform stop taking the mean of early
    and late.
    """
    issues = validate_profile(tree, profile)
    if issues:
        raise ProfileError(issues[0])
    s1, s2 = payoffs.side(1), payoffs.side(2)
    table: dict[str, PayoffPair] = {}
    for node in reversed(tree.nodes):
        kids = tree.children.get(node)
        if kids:
            c1 = c2 = 0.0
            for child, p in kids:
                c1 += p * table[child].g1
                c2 += p * table[child].g2
        else:
            c1, c2 = s1.xi[node], s2.xi[node]
        a1, u1, w1 = mix1 = profile.player1[node]
        a2, u2, w2 = mix2 = profile.player2[node]
        atom, early, late, wait, _ = deviator_lines(s1.stop[node], s1.opp[node], s1.sim[node], mix2, c1, c1)
        g1 = a1 * atom + u1 * (0.5 * (early + late)) + w1 * wait
        atom, early, late, wait, _ = deviator_lines(s2.stop[node], s2.opp[node], s2.sim[node], mix1, c2, c2)
        g2 = a2 * atom + u2 * (0.5 * (early + late)) + w2 * wait
        table[node] = PayoffPair(g1, g2)
    return table


def evaluate_profile(
    tree: EventTree, payoffs: PayoffProcess, profile: BehavioralProfile
) -> PayoffPair:
    """Exact expected payoffs of a behavioral profile, by backward recursion."""
    return evaluate_profile_table(tree, payoffs, profile)[tree.root]


def split_frame(
    tree: EventTree, payoffs: PayoffProcess, node: str
) -> tuple[EventTree, PayoffProcess, dict[str, str]]:
    """Replace one node's frame by two consecutive frames with identical payoffs."""
    return split_frames(tree, payoffs, [node])


def split_frames(
    tree: EventTree, payoffs: PayoffProcess, nodes: list[str]
) -> tuple[EventTree, PayoffProcess, dict[str, str]]:
    """Split the frames of several nodes in one pass.

    A single-child copy with identical payoffs is inserted between each
    target and its children (for a leaf, the copy becomes the leaf and
    carries the terminal payoffs).  To keep the horizon uniform, each leaf
    whose root path holds fewer targets than the most any path holds is
    padded with that many identity frames, so the horizon grows by that
    most.  Repeated targets split once.  The child map and each payoff table
    start as shallow copies of the input's, and each copy is written as it
    is inserted: its child list, taken over from the node above it, and its
    six stage payoffs, read from that node.  Only the nodes the copies sit
    below get new child lists.

    Original ids survive unchanged.  The third item maps each node that
    received a payoff-identical copy directly below it to the copy's id:
    every target, every padded leaf, and every padding frame with another
    one below it.
    """
    targets = list(dict.fromkeys(nodes))
    for node in targets:
        if node not in tree.depth:
            raise KeyError(f"unknown node {node!r}")
    marked = set(targets)
    on_path: dict[str, int] = {}
    for node in tree.nodes:
        up = tree.parent[node]
        on_path[node] = (0 if up is None else on_path[up]) + (node in marked)
    most = max(on_path[leaf] for leaf in tree.leaves)

    taken = set(tree.nodes)
    children = dict(tree.children)  # lists are replaced below, never mutated
    stage = {t: dict(getattr(payoffs, t)) for t in ("x1", "y1", "z1", "x2", "y2", "z2")}
    tables = stage.values()
    inserted: dict[str, str] = {}

    def insert_below(src: str) -> str:
        copy_id, k = f"{src}b", 0
        while copy_id in taken:
            k += 1
            copy_id = f"{src}b{k}"
        taken.add(copy_id)
        inserted[src] = copy_id
        children[copy_id] = children.get(src, [])
        children[src] = [(copy_id, 1.0)]
        for table in tables:
            table[copy_id] = table[src]
        return copy_id

    for node in targets:
        insert_below(node)
    xi1 = dict(payoffs.xi1)
    xi2 = dict(payoffs.xi2)
    for leaf in tree.leaves:
        bottom = inserted.get(leaf, leaf)
        for _ in range(most - on_path[leaf]):
            bottom = insert_below(bottom)
        if bottom != leaf:  # the terminal payoffs move down to the new leaf
            xi1[bottom] = xi1.pop(leaf)
            xi2[bottom] = xi2.pop(leaf)

    new_tree = EventTree.build(tree.root, children)
    new_payoffs = PayoffProcess(**stage, xi1=xi1, xi2=xi2)
    return new_tree, new_payoffs, inserted
