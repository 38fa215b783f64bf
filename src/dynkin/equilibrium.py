"""Equilibrium construction: root classification, stop placement, punishments.

The root of the game falls into one of the regions A1..A4 (first mover stops
immediately, possibly masked by a one-frame delay), A2 (both stop at once),
their mirror images M1..M4 with the players swapped, or A6, where both wait
until one player's stop-first payoff first comes within eta of their value.
Off-path behavior is the opponent's exact minimizing strategy in the
deviator's auxiliary zero-sum game, started one frame after the scheduled
stop; frames are split so that "one frame after" is a real node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    ATOM_MIX,
    BehavioralProfile,
    EventTree,
    ModelViolationError,
    PayoffPair,
    PayoffProcess,
    UNIFORM_MIX,
    mirror,
    require_eta,
    require_valid,
    split_frames,
)
from .verify import GapCertificate, deviation_gap
from .zerosum import (
    ValueProcess,
    check_convexity,
    solve_value_process,
    stop_first_payoff,
)

ROOT_CASES = ("A1", "A2", "A3", "A4", "A6", "M1", "M2", "M3", "M4")
HIT_CASES = ("A61", "A62", "A63", "A64", "A65", "A66")


@dataclass(frozen=True)
class CaseLabel:
    """A classification outcome attached to the node where it applies."""

    label: str
    node: str


@dataclass
class EquilibriumReport:
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
    payoffs: PayoffProcess, r: str, v2_root: float, tol: float
) -> str:
    """Subcases of the region where player 1's stop-first payoff reaches v1."""
    if _weak_ge(payoffs.x2[r], payoffs.z2[r], tol):
        return "A1"
    if _weak_ge(payoffs.z1[r], payoffs.y1[r], tol):
        return "A2"
    if _weak_ge(payoffs.y2[r], v2_root, tol):
        return "A3"
    if _strict_gt(payoffs.x2[r], payoffs.y2[r], tol):
        return "A4"
    # Exhausting the chain is impossible: it would force v2 above both X2 and
    # Y2, contradicting the value bounds.  Reaching this is a solver bug.
    raise ModelViolationError(
        f"root {r}: classification fell through the first-mover chain (region A5)"
    )


def classify(
    tree: EventTree,
    payoffs: PayoffProcess,
    v1: ValueProcess,
    v2: ValueProcess,
    eta: Optional[float] = None,
    tol: Optional[float] = None,
) -> CaseLabel:
    """Root-level region of the instance, given both value processes."""
    del eta  # the root regions do not depend on the hitting slack
    tol = payoffs.tolerance() if tol is None else tol
    r = tree.root
    if _weak_ge(payoffs.x1[r], v1.value[r], tol):
        return CaseLabel(_first_mover_chain(payoffs, r, v2.value[r], tol), r)
    if _weak_ge(payoffs.y2[r], v2.value[r], tol):
        _, mirrored = mirror(tree, payoffs)
        try:
            label = _first_mover_chain(mirrored, r, v1.value[r], tol)
        except ModelViolationError:
            raise ModelViolationError(
                f"root {r}: classification fell through the mirrored chain (region M5)"
            ) from None
        return CaseLabel("M" + label[1:], r)
    return CaseLabel("A6", r)


def _combined_antichain(
    tree: EventTree,
    payoffs: PayoffProcess,
    v1: ValueProcess,
    v2: ValueProcess,
    eta: float,
    tol: float,
) -> tuple[list[tuple[str, bool, bool]], list[str]]:
    """First node per path where either player's hitting condition holds.

    Returns (node, player-1 hit, player-2 hit) triples and the leaves of
    paths on which neither condition ever holds.
    """
    antichain: list[tuple[str, bool, bool]] = []
    infinite: list[str] = []
    stack = [tree.root]
    while stack:
        node = stack.pop(0)
        hit1 = _weak_ge(stop_first_payoff(payoffs, 1, node), v1.value[node] - eta, tol)
        hit2 = _weak_ge(stop_first_payoff(payoffs, 2, node), v2.value[node] - eta, tol)
        if hit1 or hit2:
            antichain.append((node, hit1, hit2))
        elif tree.is_leaf(node):
            infinite.append(node)
        else:
            stack.extend(child for child, _ in tree.children[node])
    return antichain, infinite


def construct(
    tree: EventTree, payoffs: PayoffProcess, eta: float, tol: Optional[float] = None
) -> EquilibriumReport:
    """Build and certify an eta-level equilibrium profile."""
    return _construct(tree, payoffs, eta, tol, pure=False)


def construct_pure(
    tree: EventTree, payoffs: PayoffProcess, eta: float, tol: Optional[float] = None
) -> EquilibriumReport:
    """Build a deterministic equilibrium profile (all stage probabilities 0/1).

    Requires the simultaneous payoff to lie weakly between the two unilateral
    payoffs for both players at every node.
    """
    checked_tol = payoffs.tolerance() if tol is None else tol
    for player in (1, 2):
        check_convexity(payoffs, tree, player, checked_tol)
    return _construct(tree, payoffs, eta, tol, pure=True)


def _construct(
    tree: EventTree,
    payoffs: PayoffProcess,
    eta: float,
    tol: Optional[float],
    pure: bool,
) -> EquilibriumReport:
    require_valid(tree, payoffs)
    require_eta(eta)
    tol = payoffs.tolerance() if tol is None else tol
    stree, spay, profile, trace, second = _construct_core(tree, payoffs, eta, tol, pure)
    certificates = deviation_gap(stree, spay, profile)
    if pure:
        for side in (profile.player1, profile.player2):
            for node, mix in side.items():
                if any(p not in (0.0, 1.0) for p in mix):
                    raise ModelViolationError(f"node {node}: non-deterministic stage mix {mix!r}")
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


def _construct_core(
    tree: EventTree,
    payoffs: PayoffProcess,
    eta: float,
    tol: float,
    pure: bool,
) -> tuple[EventTree, PayoffProcess, BehavioralProfile, list[CaseLabel], dict[str, str]]:
    v1 = solve_value_process(tree, payoffs, 1)
    v2 = solve_value_process(tree, payoffs, 2)
    root_case = classify(tree, payoffs, v1, v2, eta, tol)

    if root_case.label.startswith("M"):
        mtree, mpay = mirror(tree, payoffs)
        stree, smpay, mprofile, mtrace, second = _construct_core(
            mtree, mpay, eta, tol, pure
        )
        _, spay = mirror(stree, smpay)
        profile = BehavioralProfile(player1=dict(mprofile.player2), player2=dict(mprofile.player1))
        trace = [CaseLabel("M" + c.label[1:], c.node) for c in mtrace]
        return stree, spay, profile, trace, second

    trace = [root_case]
    targets = [tree.root]
    antichain: list[tuple[str, bool, bool]] = []
    infinite: list[str] = []
    if root_case.label == "A6":
        antichain, infinite = _combined_antichain(tree, payoffs, v1, v2, eta, tol)
        targets.extend(q for q, _, _ in antichain if q != tree.root)

    stree, spay, split = split_frames(tree, payoffs, targets)
    second = split.inserted
    sv1 = solve_value_process(stree, spay, 1)
    sv2 = solve_value_process(stree, spay, 2)
    profile = BehavioralProfile.waiting(stree)

    def punish(punisher: int, start: str) -> None:
        source = sv1 if punisher == 2 else sv2
        side = profile.side(punisher)
        for n in stree.subtree(start):
            side[n] = source.min_mix[n]

    root_a = tree.root
    root_b = second[tree.root]
    label = root_case.label
    if label == "A1":
        profile.player1[root_a] = ATOM_MIX
        punish(2, root_b)
    elif label == "A2":
        profile.player1[root_a] = ATOM_MIX
        profile.player2[root_a] = ATOM_MIX
    elif label == "A3":
        profile.player2[root_a] = ATOM_MIX
        punish(1, root_b)
    elif label == "A4":
        profile.player1[root_a] = ATOM_MIX if pure else UNIFORM_MIX
        punish(2, root_b)
    elif label == "A6":
        for q, hit1, hit2 in antichain:
            qa, qb = q, second[q]
            if hit1 and not hit2:
                sub = "A61"
                # A masked stop leaves the opponent nothing to crash into; a
                # bare atom is safe only under the convexity condition.
                profile.player1[qa] = ATOM_MIX if pure else UNIFORM_MIX
                punish(2, qb)
            elif hit2 and not hit1:
                sub = "A62"
                profile.player2[qa] = ATOM_MIX if pure else UNIFORM_MIX
                punish(1, qb)
            elif _strict_gt(spay.y1[qa], spay.z1[qa], tol):
                sub = "A64"
                profile.player2[qa] = ATOM_MIX
                punish(1, qb)
            elif _strict_gt(spay.x2[qa], spay.z2[qa], tol):
                sub = "A65"
                profile.player1[qa] = ATOM_MIX
                punish(2, qb)
            else:
                sub = "A66"
                profile.player1[qa] = ATOM_MIX
                profile.player2[qa] = ATOM_MIX
            trace.append(CaseLabel(sub, qa))
        trace.extend(CaseLabel("A63", leaf) for leaf in infinite)
    else:  # pragma: no cover - classify returns only the labels above
        raise ModelViolationError(f"unexpected root case {label}")
    return stree, spay, profile, trace, second
