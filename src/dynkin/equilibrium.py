"""Equilibrium construction: root classification, stop placement, punishments.

The root of the game falls into one of the regions A1..A4 (first mover stops
immediately, possibly masked by a one-frame delay), A2 (both stop at once),
their mirror images M1..M4 with the players swapped, or A6, where both wait
until one player's stop-first payoff first comes within eta of their value.
An M region is classified and built directly, on the same game, with the
players' roles swapped: each reads its payoffs through ``PayoffProcess.side``.
Off-path behavior is the opponent's exact minimizing strategy in the
deviator's auxiliary zero-sum game, started one frame after the scheduled
stop; frames are split so that "one frame after" is a real node.
``construct`` and ``construct_pure`` check the instance once, on entry,
and then run ``_construct``, which checks nothing: the ``dynkin
equilibrium`` command calls it directly on the game ``toolkit.load`` has
just validated.  The profile built here from the value processes' own mixes
is certified by ``verify._certify``, the pass behind ``deviation_gap``,
without checking it again.
``CaseLabel`` and ``EquilibriumReport`` are ``NamedTuple`` records.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import (
    ATOM_MIX,
    BehavioralProfile,
    ConvexityError,
    EventTree,
    Mix,
    ModelViolationError,
    PayoffPair,
    PayoffProcess,
    UNIFORM_MIX,
    WAIT_MIX,
    _worded_id,
    require_eta,
    require_valid,
    split_frames,
)
from .verify import GapCertificate, _certify
from .zerosum import (
    ValueProcess,
    check_convexity,
    hitting_time,
    punishment_strategy,
    solve_value_process,
)


class CaseLabel(NamedTuple):
    """A classification outcome attached to the node where it applies."""

    label: str
    node: str


class EquilibriumReport(NamedTuple):
    """Constructed profile with recomputed certification.

    The profile lives on a frame-split transform of the input, where original
    ids survive unchanged; ``second_half`` names the inserted lower copy of
    each split node.
    """

    case_trace: list[CaseLabel]
    profile: BehavioralProfile
    payoff: PayoffPair
    certificates: tuple[GapCertificate, GapCertificate]
    eta: float
    tol: float
    tree: EventTree
    payoffs: PayoffProcess
    second_half: dict[str, str]

    @property
    def gap1(self) -> float:
        return self.certificates[0].gap

    @property
    def gap2(self) -> float:
        return self.certificates[1].gap


def _weak_ge(a: float, b: float, tol: float) -> bool:
    return a - b >= -tol

def _strict_gt(a: float, b: float, tol: float) -> bool:
    return a - b > tol


def _first_mover_chain(
    payoffs: PayoffProcess, mover: int, r: str, other_root: float, tol: float
) -> str:
    """Subcases of the region where ``mover``'s stop-first payoff reaches
    their value: A1..A4 for player 1, M1..M4 for player 2."""
    own, other = payoffs.side(mover), payoffs.side(3 - mover)
    region = "A" if mover == 1 else "M"
    if _weak_ge(other.opp[r], other.sim[r], tol):
        return region + "1"
    if _weak_ge(own.sim[r], own.opp[r], tol):
        return region + "2"
    if _weak_ge(other.stop[r], other_root, tol):
        return region + "3"
    if _strict_gt(other.opp[r], other.stop[r], tol):
        return region + "4"
    # Exhausting the chain is impossible: it would force the other player's
    # value above both their unilateral payoffs, contradicting the value
    # bounds.  Reaching this is a solver bug.
    chain = "first-mover" if mover == 1 else "mirrored"
    raise ModelViolationError(
        f"root {r}: classification fell through the {chain} chain (region {region}5)"
    )


def classify(
    tree: EventTree,
    payoffs: PayoffProcess,
    v1: ValueProcess,
    v2: ValueProcess,
    tol: Optional[float] = None,
) -> CaseLabel:
    """Root-level region of the instance, given player 1's and player 2's
    value processes in that order."""
    if (v1.player, v2.player) != (1, 2):
        raise ValueError(f"value processes are for players ({v1.player}, {v2.player}), expected (1, 2)")
    tol = payoffs.tolerance(tol)
    r = tree.root
    roots = (v1.value[r], v2.value[r])
    for mover in (1, 2):
        if _weak_ge(payoffs.side(mover).stop[r], roots[mover - 1], tol):
            return CaseLabel(_first_mover_chain(payoffs, mover, r, roots[2 - mover], tol), r)
    return CaseLabel("A6", r)


def construct(
    tree: EventTree, payoffs: PayoffProcess, eta: float, tol: Optional[float] = None
) -> EquilibriumReport:
    """Build and certify an eta-level equilibrium profile."""
    require_valid(tree, payoffs)
    return _construct(tree, payoffs, eta, tol, pure=False)


def construct_pure(
    tree: EventTree, payoffs: PayoffProcess, eta: float, tol: Optional[float] = None
) -> EquilibriumReport:
    """Build a deterministic equilibrium profile (all stage probabilities 0/1).

    Requires the simultaneous payoff to lie weakly between the two unilateral
    payoffs for both players at every node; a Z above max(X, Y) within
    ``tol`` that makes a punishment a uniform stop is a ``ConvexityError`` too.
    """
    require_valid(tree, payoffs)
    return _construct(tree, payoffs, eta, tol, pure=True)


def _stops(label: str, pure: bool) -> tuple[Optional[Mix], Optional[Mix]]:
    """Each player's stage mix at the node of a case; None keeps waiting.

    A masked stop (a uniform one-frame delay) leaves the opponent nothing to
    crash into; a bare atom in its place is safe only under the convexity
    condition.  An M case is its A case with the players swapped.
    """
    if label[0] == "M":
        return _stops("A" + label[1:], pure)[::-1]
    masked = ATOM_MIX if pure else UNIFORM_MIX
    return {
        "A6": (None, None),
        "A1": (ATOM_MIX, None),
        "A2": (ATOM_MIX, ATOM_MIX),
        "A3": (None, ATOM_MIX),
        "A4": (masked, None),
        "A61": (masked, None),
        "A62": (None, masked),
        "A64": (None, ATOM_MIX),
        "A65": (ATOM_MIX, None),
        "A66": (ATOM_MIX, ATOM_MIX),
    }[label]


def _construct(
    tree: EventTree,
    payoffs: PayoffProcess,
    eta: float,
    tol: Optional[float],
    pure: bool,
) -> EquilibriumReport:
    """``construct`` (or, with ``pure``, ``construct_pure``) on a valid
    instance; it checks ``eta`` and ``tol`` but not the instance."""
    require_eta(eta)
    tol = payoffs.tolerance(tol)
    if pure:
        for player in (1, 2):
            check_convexity(payoffs, tree, player, tol)
    v1 = solve_value_process(tree, payoffs, 1)
    v2 = solve_value_process(tree, payoffs, 2)
    root_case = classify(tree, payoffs, v1, v2, tol=tol)
    trace = [root_case]
    infinite: list[str] = []
    if root_case.label == "A6":
        # Both wait until either player first hits: the stops are the first
        # nodes per path of the union of the two hitting antichains, and a
        # path with none ends at a leaf that waits forever (A63).  No
        # ancestor of a node on the union's walk is in either antichain, so
        # such a node is in a player's antichain exactly when that player's
        # hit condition holds there.
        hits1 = hitting_time(tree, payoffs, v1, eta, tol).hits()
        hits2 = hitting_time(tree, payoffs, v2, eta, tol).hits()
        either = hits1 | hits2
        walked = tree.walk(tree.root, either.__contains__)
        infinite = [n for n in walked if n not in either and tree.is_leaf(n)]
        # Where both hit, the first player to prefer the other stopping (opp
        # above sim) waits: A64 for player 1, else A65 for player 2.
        s1, s2 = payoffs.side(1), payoffs.side(2)
        for q in filter(either.__contains__, walked):
            hit1, hit2 = q in hits1, q in hits2
            if hit1 and hit2:
                if _strict_gt(s1.opp[q], s1.sim[q], tol):
                    trace.append(CaseLabel("A64", q))
                elif _strict_gt(s2.opp[q], s2.sim[q], tol):
                    trace.append(CaseLabel("A65", q))
                else:
                    trace.append(CaseLabel("A66", q))
            else:
                trace.append(CaseLabel("A61" if hit1 else "A62", q))
    targets = [c.node for c in trace]
    stree, spay, inserted = split_frames(tree, payoffs, targets)
    second = {q: inserted[q] for q in targets}

    # The split pads only never-hit leaves, so below each stop the split tree
    # repeats the input with the stop node's copy in the stop node's place.
    # Against a lone stop, the waiting player punishes from that copy down.
    profile = BehavioralProfile.waiting(stree)
    for case in trace:
        stops = _stops(case.label, pure)
        q = case.node
        for player, mix in zip((1, 2), stops):
            if mix is not None:
                profile.side(player)[q] = mix
        if stops.count(None) == 1:
            punisher = stops.index(None) + 1
            fill = punishment_strategy(tree, q, v2 if punisher == 1 else v1)
            if pure and UNIFORM_MIX in fill.values():  # Z above max(X, Y), within tol
                i = 3 - punisher
                stop, opp, sim, _ = payoffs.side(i)
                for node, mix in fill.items():  # in walk order
                    top = max(stop[node], opp[node])
                    if mix == UNIFORM_MIX and sim[node] > top:
                        raise ConvexityError(f"node {_worded_id(node)}: Z{i}={sim[node]!r} above max(X{i}, Y{i})={top!r}, so player {3 - i} punishes with a uniform stop")
            fill[second[q]] = fill.pop(q)
            profile.side(punisher).update(fill)
    trace.extend(CaseLabel("A63", leaf) for leaf in infinite)

    certificates = _certify(stree, spay, profile)  # built here from the value processes' mixes: no re-check
    if pure:  # a pure stop or a wait; a uniform stop is a randomized time
        for side in (profile.player1, profile.player2):
            for node, mix in side.items():
                if mix != ATOM_MIX and mix != WAIT_MIX:
                    raise ModelViolationError(f"node {_worded_id(node)}: stage mix {mix!r} is neither a pure stop nor a wait")
    return EquilibriumReport(
        case_trace=trace,
        profile=profile,
        payoff=PayoffPair(certificates[0].path_value, certificates[1].path_value),
        certificates=certificates,
        eta=eta,
        tol=tol,
        tree=stree,
        payoffs=spay,
        second_half=second,
    )
