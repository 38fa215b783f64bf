"""Event-tree model of two-player stopping games with frame-constant payoffs.

A game runs on a finite tree whose nodes sit at integer depths ("frames").
Frame d covers the real-time interval [d, d+1); every payoff process is
constant on each frame, so all timing questions inside a frame reduce to a
small set of stage actions.  Player 1 stopping first pays (X1, X2), player 2
first pays (Y1, Y2), a simultaneous atom pays (Z1, Z2), and never stopping
pays the terminal (xi1, xi2) at the reached leaf.  ``STAGE_TABLES`` and
``TERMINAL_TABLES`` are the one list of these eight tables, each with its
name in files and issue lines and its ``PayoffProcess`` field: validation,
the frame split, the payoff range and the file format read them.

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

``EventTree``, ``PayoffProcess`` and ``BehavioralProfile`` are plain
``__slots__`` classes: callers assign to their fields, and each compares
field by field.  ``PayoffProcess.__slots__`` is the schema's field list.
An ``EventTree`` holds its root, breadth-first order, depths and child
lists and no map derived from them: the leaves and the frame split's target
counts are read off the child lists from the root down, the horizon is the
depth of the last node in breadth-first order, and no code walks a tree
upward.
"""

from __future__ import annotations

import math
import reprlib
import sys
from collections import defaultdict
from collections.abc import Mapping, Sequence
from enum import Enum
from itertools import chain, filterfalse, repeat
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

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


class _Record:
    """Slotted fields, compared field by field with a record of the same
    class and shown by all of them; defining ``__eq__`` leaves it
    unhashable."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({shown})"


class EventTree(_Record):
    """Finite filtered tree; every leaf sits at the same depth (the horizon).

    ``nodes`` is breadth-first (parents before children), so after the root
    it lists every child list in turn, as ``validate_instance`` requires;
    ``children`` maps a node to its
    (child, probability) list, probabilities summing to one.  ``build``
    derives the order and the depths in one sweep; it constructs every tree
    but the root-only frame split, which ``split_frames`` writes by layout.
    Every other map is read off the child lists, downward from the root.
    """

    __slots__ = ("root", "nodes", "depth", "children")

    def __init__(
        self, root: str, nodes: list[str], depth: dict[str, int], children: dict[str, list[tuple[str, float]]]
    ) -> None:
        self.root, self.nodes, self.depth, self.children = root, nodes, depth, children

    @classmethod
    def build(cls, root: str, children: dict[str, list[tuple[str, float]]]) -> "EventTree":
        """Derive the breadth-first order, depths and an owned copy of every
        child list from a child map, in one breadth-first sweep."""
        depth = {root: 0}
        owned: dict[str, list[tuple[str, float]]] = {}
        order = [root]
        for node in order:  # grows as it goes: breadth-first
            kids = owned[node] = list(children.get(node, ()))
            below = depth[node] + 1
            for child, _ in kids:
                if child in depth:
                    if child == root:
                        raise InstanceError(f"node {_worded_id(root)!r} is the root, yet node {_worded_id(node)!r} lists it as a child")
                    raise InstanceError(f"node {_worded_id(child)!r} has more than one parent")
                depth[child] = below
                order.append(child)
        if not children.keys() <= depth.keys():
            stray = next(filterfalse(depth.__contains__, children))
            raise InstanceError(f"node {_worded_id(stray)!r} is not reachable from the root")
        return cls(root, order, depth, owned)

    def is_leaf(self, node: str) -> bool:
        return not self.children.get(node)

    @property
    def leaves(self) -> list[str]:
        """The nodes without children, in breadth-first order."""
        kids_of = self.children.get
        return [node for node in self.nodes if not kids_of(node)]

    @property
    def horizon(self) -> int:
        """The deepest leaf's depth: that of the last node in breadth-first
        order, which can have no children."""
        return self.depth[self.nodes[-1]]

    def walk(self, start: str, stop: Optional[Callable[[str], bool]] = None) -> list[str]:
        """Breadth-first nodes from ``start``, not descending below a node
        where ``stop`` holds.

        ``stop`` is asked once for each node the walk reaches, in walk order;
        a caller that holds a set of stop nodes passes its ``__contains__``.
        From the root with no stop this is ``build``'s own sweep, so it is a
        copy of ``nodes``."""
        if stop is None and start == self.root:
            return self.nodes.copy()
        order = [start]
        kids_of = self.children.get
        for node in order:  # grows as it goes: breadth-first
            if stop is None or not stop(node):
                order.extend(map(_CHILD, kids_of(node, ())))
        return order

    def continuation(self, node: str, value: Mapping[str, float], terminal: Mapping[str, float]) -> float:
        """Value of surviving ``node``'s frame: the terminal payoff at a leaf,
        else the children's ``value`` weighted by their probabilities.

        The one backward step of every per-node recursion off the two hot
        loops: ``evaluate_profile_table``, ``verify.best_response`` and the
        invariant runner's continuations and expected-value target."""
        kids = self.children.get(node)
        if not kids:
            return terminal[node]
        # a plain running sum, the same on every interpreter as the inline
        # sums of ``verify._certify`` and ``zerosum.solve_value_process``
        # (``sum`` compensates from 3.12 on)
        total = 0.0
        for child, p in kids:
            total += p * value[child]
        return total


# The one list of the eight payoff tables: each table's name in game files
# and issue lines, and the ``PayoffProcess`` field that holds it.  A stage
# table holds an entry at every node, a terminal table one at every leaf.
STAGE_TABLES = (("X1", "x1"), ("Y1", "y1"), ("Z1", "z1"), ("X2", "x2"), ("Y2", "y2"), ("Z2", "z2"))
TERMINAL_TABLES = (("xi1", "xi1"), ("xi2", "xi2"))
PAYOFF_TABLES = STAGE_TABLES + TERMINAL_TABLES


class PayoffProcess(_Record):
    """Per-node payoffs (X, Y, Z per player) and per-leaf terminal payoffs,
    one field per entry of ``PAYOFF_TABLES``, each a dict from node to payoff."""

    __slots__ = tuple(field for _, field in PAYOFF_TABLES)

    def __init__(
        self, x1: dict[str, float], y1: dict[str, float], z1: dict[str, float], x2: dict[str, float],
        y2: dict[str, float], z2: dict[str, float], xi1: dict[str, float], xi2: dict[str, float],
    ) -> None:
        self.x1, self.y1, self.z1, self.x2, self.y2, self.z2 = x1, y1, z1, x2, y2, z2
        self.xi1, self.xi2 = xi1, xi2

    @property
    def payoff_range(self) -> float:
        """Max absolute payoff; tolerances scale with it."""
        tables = (getattr(self, field) for _, field in PAYOFF_TABLES)
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


class BehavioralProfile(_Record):
    """Per-node stop distributions over (atom, uniform, wait), one per player."""

    __slots__ = ("player1", "player2")

    def __init__(self, player1: dict[str, Mix], player2: dict[str, Mix]) -> None:
        self.player1, self.player2 = player1, player2

    def side(self, player: int) -> dict[str, Mix]:
        require_player(player)
        return self.player1 if player == 1 else self.player2

    @classmethod
    def waiting(cls, tree: EventTree) -> "BehavioralProfile":
        """Both players wait at every node."""
        return cls(player1=dict.fromkeys(tree.nodes, WAIT_MIX), player2=dict.fromkeys(tree.nodes, WAIT_MIX))


# The exact types a clean payoff table holds; any other entry is worded.
_NUMBER_TYPES = {float, int}
# The exact type of a clean child probability.
_FLOAT_TYPE = {float}


def _is_number(value: object) -> bool:
    """A float, or an int that converts to one without overflow; a bool (as
    JSON true and false load) is neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, float) or abs(value) <= sys.float_info.max


_CHILD = itemgetter(0)
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
    C-level passes screen each table keyed by exactly its nodes (or
    leaves): its entries are each an int or a float, and their magnitudes
    sum to a finite total within the limit.  A table with other keys, or
    one that fails its screen, is worded node by node.  A child probability
    must be a number too (as ``_is_number``); a node with one that is not
    gets no sum check.  First of all, ``nodes`` must list every node with a
    depth exactly once, a length and a key-set comparison, and be the
    breadth-first listing of the child lists: the root, then the children
    of each node in ``nodes``, in turn, one list comparison.  Otherwise the
    one issue, as ``_listing_issue`` words it, since every other check
    reads the tree in that order.
    """
    nodes = tree.nodes
    depth = tree.depth
    kids_of = tree.children.get
    order = [tree.root, *map(_CHILD, chain.from_iterable(filter(None, map(kids_of, nodes))))]
    if len(nodes) != len(depth) or depth.keys() != set(nodes) or order != nodes:
        return [_listing_issue(nodes, depth, order)]
    horizon = tree.horizon
    found: defaultdict[str, list[str]] = defaultdict(list)
    leaves = []
    for node in nodes:
        kids = kids_of(node)
        if not kids:
            leaves.append(node)
            if depth[node] != horizon:
                found[node].append(f"node {_worded_id(node)}: leaf at depth {depth[node]}, horizon is {horizon} (non-uniform horizon)")
            continue
        # exact floats are numbers; any other type takes the one rule, edge by edge
        numbers = set(map(type, map(_PROB, kids))) <= _FLOAT_TYPE or all(map(_is_number, map(_PROB, kids)))
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
    for where, keys, kind, schema in (
        (leaves, set(leaves), "terminal payoff", TERMINAL_TABLES),
        (nodes, depth.keys(), "payoff", STAGE_TABLES),
    ):
        for name, field in schema:
            table = getattr(payoffs, field)
            column = table.values()
            # A float sum of magnitudes is at least each of them, in any
            # order, and a non-finite entry leaves it non-finite.  Only a
            # table keyed by exactly its nodes is screened.
            try:
                if table.keys() == keys and set(map(type, column)) <= _NUMBER_TYPES and sum(map(math.fabs, column)) <= PAYOFF_LIMIT:
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


def _listing_issue(nodes: list[str], depth: dict[str, int], order: list[str]) -> str:
    """The first node that ``nodes`` lists twice or without a depth, else
    the first node with a depth that it leaves out, else the first place
    where it leaves ``order``, the breadth-first listing of the child
    lists: the node ``order`` has there, or, past its end, the listed node."""
    seen = set()
    for node in nodes:
        if node in seen:
            return f"node {_worded_id(node)}: listed more than once in the tree's nodes"
        if node not in depth:
            return f"node {_worded_id(node)}: in the tree's nodes, yet has no depth"
        seen.add(node)
    missing = next(filterfalse(seen.__contains__, depth), None)
    if missing is not None:
        return f"node {_worded_id(missing)}: has a depth, yet is not in the tree's nodes"
    k = next((k for k, (listed, reached) in enumerate(zip(nodes, order)) if listed != reached), min(len(nodes), len(order)))
    if k < len(order):
        return f"node {_worded_id(order[k])}: place {k} of the breadth-first listing of the child lists, not of the tree's nodes"
    return f"node {_worded_id(nodes[k])}: in the tree's nodes, yet not reached from the root"


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

    Each player's side must be a mapping with a distribution at every tree
    node and at no other node: a sequence of three finite numbers (as
    ``_is_number``), none below -PROB_TOL, summing to one within PROB_TOL.
    A side that is not a mapping is one issue.  Each distinct mix object is
    checked once, and the nodes are worded only when some mix is flawed.
    """
    return side_issues(tree, profile.player1, 1) + side_issues(tree, profile.player2, 2)


def require_profile(tree: EventTree, profile: BehavioralProfile) -> None:
    """Raise ``ProfileError`` on the issues of ``validate_profile``, as one line."""
    issues = validate_profile(tree, profile)
    if issues:
        raise ProfileError(_issue_line(issues))


def require_side(tree: EventTree, side: dict[str, Mix], player: int) -> None:
    """Raise ``ProfileError`` on the issues of ``player``'s side, as one line."""
    issues = side_issues(tree, side, player)
    if issues:
        raise ProfileError(_issue_line(issues))


def side_issues(tree: EventTree, side: dict[str, Mix], player: int) -> list[str]:
    """Diagnostics of one player's side of a profile, as ``validate_profile``
    words them."""
    if not isinstance(side, Mapping):
        return [f"player {player} profile is a {type(side).__name__}, not a mapping of nodes to distributions"]
    nodes = tree.nodes
    issues = [
        f"node {_worded_id(node)}: not in the tree, yet player {player} has a distribution there"
        for node in filterfalse(tree.depth.__contains__, side)
    ]
    mixes = list(map(side.get, nodes))
    flaws = {key: _mix_flaw(mix) for key, mix in dict(zip(map(id, mixes), mixes)).items()}
    if any(flaws.values()):
        issues.extend(
            f"node {_worded_id(node)}: player {player} {flaws[id(mix)]}"
            for node, mix in zip(nodes, mixes)
            if flaws[id(mix)]
        )
    return issues


# True for a mix entry below zero by more than PROB_TOL (and never for a NaN).
_BELOW_ZERO = (-PROB_TOL).__gt__


def _mix_flaw(mix: Optional[Mix]) -> Optional[str]:
    """What is wrong with one stage distribution, worded after "player k"."""
    if mix is None:
        return "has no stage distribution"
    if (
        not isinstance(mix, Sequence)  # a float has no len(), a set no order
        or len(mix) != 3
        # exact floats are numbers; any other type takes the one rule, entry by entry
        or not (set(map(type, mix)) <= _FLOAT_TYPE or all(map(_is_number, mix)))
        or any(map(_BELOW_ZERO, mix))
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


# The members as module globals, for the stop-order table below and the
# brute-force oracles' cells: on Python 3.11 a read through the class
# (``Outcome.TIE``) takes about ten times as long as a global read.
_SIMULTANEOUS, _TIE, _PLAYER1_FIRST, _PLAYER2_FIRST, _SURVIVAL = Outcome

# The one stop-order table: how a frame ends when player 1 plays ``a1`` and
# player 2 plays ``a2``.  A strictly smaller ``_RANK`` stops first; equal
# actions stop together (two atoms), tie (two uniform stops) or survive (two
# waits).  Two earlies or two lates share a limit and have no defined order:
# None.
_TOGETHER = {StageAction.ATOM: _SIMULTANEOUS, StageAction.UNIFORM: _TIE, StageAction.WAIT: _SURVIVAL}
STOP_ORDER: dict[tuple[StageAction, StageAction], Optional[Outcome]] = {
    (a1, a2): _TOGETHER.get(a1) if a1 is a2 else _PLAYER1_FIRST if _RANK[a1] < _RANK[a2] else _PLAYER2_FIRST
    for a1 in StageAction
    for a2 in StageAction
}


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
    require_profile(tree, profile)
    values = []
    for (stop, opp, sim, xi), own, other in (
        (payoffs.side(1), profile.player1, profile.player2),
        (payoffs.side(2), profile.player2, profile.player1),
    ):
        value: dict[str, float] = {}
        for node in reversed(tree.nodes):
            cont = tree.continuation(node, value, xi)
            a, u, w = own[node]
            atom, early, late, wait, _ = deviator_lines(stop[node], opp[node], sim[node], other[node], cont, cont)
            value[node] = a * atom + u * (0.5 * (early + late)) + w * wait
        values.append(value)
    g1, g2 = values
    return {node: PayoffPair(g1[node], g2[node]) for node in g1}


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
    below get new child lists, and ``EventTree.build`` derives the split
    tree from the child map.  A split whose only target is the root, as
    every A and M root takes, skips both sweeps: ``_split_root`` writes it
    by layout.

    Original ids survive unchanged.  The third item maps each node that
    received a payoff-identical copy directly below it to the copy's id:
    every target, every padded leaf, and every padding frame with another
    one below it.
    """
    targets = list(dict.fromkeys(nodes))
    if targets == [tree.root]:
        return _split_root(tree, payoffs)
    for node in targets:
        if node not in tree.depth:
            raise KeyError(f"unknown node {node!r}")
    marked = set(targets)
    on_path = {tree.root: int(tree.root in marked)}  # targets from the root down to each node
    leaves: list[str] = []
    kids_of = tree.children.get
    for node in tree.nodes:
        kids = kids_of(node)
        if not kids:
            leaves.append(node)
            continue
        count = on_path[node]
        for child, _ in kids:
            on_path[child] = count + (child in marked)
    most = max(map(on_path.__getitem__, leaves))

    children = dict(tree.children)  # lists are replaced below, never mutated
    stage = {field: dict(getattr(payoffs, field)) for _, field in STAGE_TABLES}
    tables = stage.values()
    inserted: dict[str, str] = {}

    def insert_below(src: str) -> str:
        copy_id, k = f"{src}b", 0
        while copy_id in children:  # every input id and every copy so far
            k += 1
            copy_id = f"{src}b{k}"
        inserted[src] = copy_id
        children[copy_id] = children[src]
        children[src] = [(copy_id, 1.0)]
        for table in tables:
            table[copy_id] = table[src]
        return copy_id

    for node in targets:
        insert_below(node)
    terminal = {field: dict(getattr(payoffs, field)) for _, field in TERMINAL_TABLES}
    for leaf in leaves:
        bottom = inserted.get(leaf, leaf)
        for _ in range(most - on_path[leaf]):
            bottom = insert_below(bottom)
        if bottom != leaf:  # the terminal payoffs move down to the new leaf
            for table in terminal.values():
                table[bottom] = table.pop(leaf)

    new_tree = EventTree.build(tree.root, children)
    new_payoffs = PayoffProcess(**stage, **terminal)
    return new_tree, new_payoffs, inserted


def _split_root(tree: EventTree, payoffs: PayoffProcess) -> tuple[EventTree, PayoffProcess, dict[str, str]]:
    """``split_frames`` with the root as its only target, written by layout.

    The split is the input moved down one frame below the root's copy, so
    its breadth-first order is ``[root, copy, *nodes[1:]]`` and every node
    below the root is one frame deeper.  The root's child list moves to the
    copy, and every other child list is an owned copy, each map keyed in
    the new breadth-first order, as ``EventTree.build`` would give.  No leaf
    is padded, and the terminal payoffs move to the copy only when the root
    is a leaf.
    """
    root, below, kids_of = tree.root, tree.nodes[1:], tree.children
    copy_id, k = f"{root}b", 0
    while copy_id in kids_of:  # ``insert_below``'s free-id rule, kept inline there for speed
        k += 1
        copy_id = f"{root}b{k}"
    depth = {root: 0, copy_id: 1}
    depth.update(zip(below, map((1).__add__, map(tree.depth.__getitem__, below))))
    children = {root: [(copy_id, 1.0)], copy_id: list(kids_of.get(root, ()))}
    children.update(zip(below, map(list, map(kids_of.get, below, repeat(())))))
    stage = {field: dict(getattr(payoffs, field)) for _, field in STAGE_TABLES}
    for table in stage.values():
        table[copy_id] = table[root]
    terminal = {field: dict(getattr(payoffs, field)) for _, field in TERMINAL_TABLES}
    if not kids_of.get(root):
        for table in terminal.values():
            table[copy_id] = table.pop(root)
    new_tree = EventTree(root, [root, copy_id, *below], depth, children)
    return new_tree, PayoffProcess(**stage, **terminal), {root: copy_id}
