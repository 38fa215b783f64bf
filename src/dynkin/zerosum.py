"""Auxiliary zero-sum games: value processes, hitting times, optimal stage play.

For each player i the auxiliary game uses only player i's payoffs, the tables
of ``PayoffProcess.side(i)``: i maximizes while the opponent minimizes.  The
two games differ only by that view, so every function here reads a player's
payoffs through ``side`` and none names an absolute table; ``stage_matrices``
builds both players' matrices from one pair of row tables.
Values are found by backward induction over one-frame stage games; the
protagonist mixes over (atom, uniform, wait) while the antagonist's pure
within-frame stops reduce to (atom, early, late, wait).

Saddle lemma.  Write X, Y, Z for the protagonist's stop-first, opponent-first
and simultaneous payoffs at a node and c for the continuation value.  The
protagonist's (atom, uniform, wait) rows against the antagonist's (atom, early,
late, wait) give [[Z, X, X, X], [Y, Y, X, X], [Y, Y, Y, c]]; the protagonist's
(atom, early, late, wait) rows against the antagonist's (atom, uniform, wait)
give [[Z, X, X], [Y, X, X], [Y, Y, X], [Y, Y, c]].  In both orientations the
row guarantees are min(Z, X), min(Y, X), min(Y, c) and the column exposures
are max(Z, Y), max(X, Y), max(X, c), early and late repeating one.  So the
lower value is max(min(X, max(Y, Z)), min(Y, c)), and it equals the upper
value: every stage game has a pure saddle point.

- If X <= Y, then min(X, max(Y, Z)) = X, so the lower value is max(X, min(Y, c));
  as max(Z, Y) >= Y, the upper value is min(Y, max(X, c)).  Both are the
  median of X, c and Y.
- If X > Y, then min(Y, c) <= Y cannot exceed min(X, max(Y, Z)), which is the
  lower value; as max(X, c) >= X, the upper value is min(max(Y, Z), X) too.

Only max and min of the same floats are taken, so the equality is exact.
``stage_value`` takes them by explicit comparisons, not the builtins, and
keeps the builtins' float at every tie: min(a, b) is a unless b < a and
max(a, b) is a unless b > a, so -0.0 and 0.0 come out as they would, and the
mixes go to the first action that reaches the value.

Every function here takes a valid instance (``core.require_valid``) and does
not check it again: the entries that take outside input (``toolkit.load``,
``construct``, ``construct_pure`` and ``check_invariants``) validate it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .core import (
    DEVIATOR_ACTIONS,
    EventTree,
    Mix,
    ModelViolationError,
    ConvexityError,
    PayoffPair,
    PayoffProcess,
    PLAYER_ACTIONS,
    ATOM_MIX,
    UNIFORM_MIX,
    WAIT_MIX,
    Outcome,
    _worded_id,
    require_eta,
    stop_outcome,
)

Matrix = tuple[tuple[float, ...], ...]


@dataclass
class ValueProcess:
    """Per-node zero-sum value with the minimizer's optimal stage mix."""

    player: int
    value: dict[str, float]
    min_mix: dict[str, Mix]


@dataclass
class HittingTime:
    """First nodes, per path, where a player's stop-first payoff is within
    ``eta`` of the value; paths that never qualify are recorded by their leaf."""

    player: int
    eta: float
    antichain: tuple[str, ...]
    infinite_leaves: tuple[str, ...]

    def hits(self) -> set[str]:
        return set(self.antichain)


# The primal and dual stage matrices as grids of (protagonist, antagonist)
# action pairs, shared by both players, each in their own view.
_GRIDS = (
    [[(r, c) for c in DEVIATOR_ACTIONS] for r in PLAYER_ACTIONS],
    [[(r, c) for c in PLAYER_ACTIONS] for r in DEVIATOR_ACTIONS],
)
# Where each frame outcome's payoff sits in a player's own (sim, stop, opp, c)
# tuple: ``stop_outcome(protagonist, antagonist)`` reads "player 1 first" as
# "the protagonist first".  A grid pairs a mixed (atom, uniform, wait) side
# with a pure (atom, early, late, wait) side, so no cell is a uniform tie.
_SLOT = {
    Outcome.SIMULTANEOUS: 0,
    Outcome.PLAYER1_FIRST: 1,
    Outcome.PLAYER2_FIRST: 2,
    Outcome.SURVIVAL: 3,
}
# One itemgetter per matrix row, its cells resolved through ``stop_outcome``
# here, once: at a node a row is one C-level pick from the player's tuple.
_PRIMAL, _DUAL = (
    tuple(itemgetter(*[_SLOT[stop_outcome(a, b)] for a, b in row]) for row in grid) for grid in _GRIDS
)


def stage_matrices(
    payoffs: PayoffProcess, node: str, continuation: PayoffPair
) -> tuple[tuple[Matrix, Matrix], tuple[Matrix, Matrix]]:
    """Both orientations of the one-frame game, for both protagonists.

    ``continuation`` holds each player's own continuation value.  Returns
    ``((primal1, dual1), (primal2, dual2))``.  Primal: the protagonist mixes
    rows (atom, uniform, wait) against the antagonist's pure columns (atom,
    early, late, wait).  Dual: the roles are transposed, the antagonist
    mixing (atom, uniform, wait) columns against protagonist pure rows.
    Both players see the same stage game in their own view, so one pair of
    row tables serves both: each cell's outcome comes from
    ``core.stop_outcome``, the one stop-order rule, applied once at import,
    and at each node the rows pick their entries from each player's own
    (sim, stop, opp, c), read through ``PayoffProcess.side``.  The tests
    build the same matrices entry by entry from the stop-order reference.
    """
    c1, c2 = continuation
    s1, s2 = payoffs.side(1), payoffs.side(2)
    own1 = (s1.sim[node], s1.stop[node], s1.opp[node], c1)
    own2 = (s2.sim[node], s2.stop[node], s2.opp[node], c2)
    # Lists, not generators: ``tuple`` of a generator over-allocates and
    # shrinks, which fills the tuple free lists (about 0.6 MB per process).
    return (
        (tuple([row(own1) for row in _PRIMAL]), tuple([row(own1) for row in _DUAL])),
        (tuple([row(own2) for row in _PRIMAL]), tuple([row(own2) for row in _DUAL])),
    )


def solve_matrix_game(matrix: Matrix) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Value and pure optimal mixes of a zero-sum matrix game with a saddle point.

    The row player maximizes; ties go to the lowest index.  A matrix that is
    empty or ragged is a ``ValueError``.  The value is ``_saddle_value``'s,
    and each mix puts its weight on the first row (column) whose guarantee
    (exposure) reaches it.
    """
    rows = [tuple(r) for r in matrix]
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        raise ValueError(f"matrix must be a non-empty rectangle, got row lengths {[len(r) for r in rows]}")
    value = _saddle_value(rows)
    row_mix = [0.0] * len(rows)
    row_mix[list(map(min, rows)).index(value)] = 1.0
    col_mix = [0.0] * len(rows[0])
    col_mix[list(map(max, zip(*rows))).index(value)] = 1.0
    return value, tuple(row_mix), tuple(col_mix)


def _saddle_value(rows: Matrix) -> float:
    """The one saddle rule: the largest row minimum, which must equal the
    smallest column maximum.  A game without a pure saddle point is a model
    violation: every stage game has one."""
    lower = max(map(min, rows))
    upper = min(map(max, zip(*rows)))
    if lower != upper:
        raise ModelViolationError(f"matrix game has no pure saddle point: {lower!r} < {upper!r}")
    return lower


def stage_value(x: float, y: float, z: float, cont: float) -> tuple[float, Mix, Mix]:
    """Saddle value of one stage game, with the maximizer's and minimizer's mixes.

    ``x``, ``y`` and ``z`` are the protagonist's stop-first, opponent-first and
    simultaneous payoffs at one node (``stop``, ``opp`` and ``sim`` of their
    ``PayoffProcess.side``) and ``cont`` is the continuation value.  The row
    guarantees min(Z, X), min(Y, X), min(Y, c) and the column exposures
    max(Z, Y), max(X, Y), max(X, c) are taken by comparisons that keep the
    same float as the builtins: min(a, b) is a unless b < a, max(a, b) is a
    unless b > a, so a signed zero comes out as ``min`` and ``max`` give it.
    Ties go to the lowest action index, as in ``solve_matrix_game``.  The
    saddle lemma makes the lower and upper values exactly equal; any
    difference is a model violation.
    """
    atom_row = x if x < z else z
    if x < y:  # min(Y, X) and max(X, Y) from one comparison
        uniform_row, uniform_col = x, y
    else:
        uniform_row, uniform_col = y, x
    wait_row = cont if cont < y else y
    if uniform_row > atom_row:
        if wait_row > uniform_row:
            lo, max_mix = wait_row, WAIT_MIX
        else:
            lo, max_mix = uniform_row, UNIFORM_MIX
    elif wait_row > atom_row:
        lo, max_mix = wait_row, WAIT_MIX
    else:
        lo, max_mix = atom_row, ATOM_MIX
    atom_col = y if y > z else z
    wait_col = cont if cont > x else x
    if uniform_col < atom_col:
        if wait_col < uniform_col:
            hi, min_mix = wait_col, WAIT_MIX
        else:
            hi, min_mix = uniform_col, UNIFORM_MIX
    elif wait_col < atom_col:
        hi, min_mix = wait_col, WAIT_MIX
    else:
        hi, min_mix = atom_col, ATOM_MIX
    if lo != hi:
        raise ModelViolationError(f"stage game has no saddle point: {lo!r} vs {hi!r}")
    return lo, max_mix, min_mix


def solve_value_process(tree: EventTree, payoffs: PayoffProcess, player: int) -> ValueProcess:
    """Backward induction of the auxiliary zero-sum value for one player.

    Takes a valid instance, unchecked (see the module docstring).
    """
    stop, opp, sim, xi = payoffs.side(player)
    value: dict[str, float] = {}
    min_mix: dict[str, Mix] = {}
    for node in reversed(tree.nodes):
        cont = tree.continuation(node, value, xi)
        value[node], _, min_mix[node] = stage_value(stop[node], opp[node], sim[node], cont)
    return ValueProcess(player=player, value=value, min_mix=min_mix)


def hitting_time(
    tree: EventTree,
    payoffs: PayoffProcess,
    value: ValueProcess,
    eta: float,
    tol: Optional[float] = None,
) -> HittingTime:
    """First node per path where the stop-first payoff reaches value - eta."""
    require_eta(eta)
    tol = payoffs.tolerance(tol)
    player = value.player
    stop = payoffs.side(player).stop
    hit = {n for n in tree.nodes if stop[n] - (value.value[n] - eta) >= -tol}
    antichain: list[str] = []
    infinite: list[str] = []
    for node in tree.walk(tree.root, hit):
        if node in hit:
            antichain.append(node)
        elif tree.is_leaf(node):
            infinite.append(node)
    return HittingTime(player=player, eta=eta, antichain=tuple(antichain), infinite_leaves=tuple(infinite))


def punishment_strategy(tree: EventTree, punisher: int, node: str, value: ValueProcess) -> dict[str, Mix]:
    """Minimizing stage play holding the opponent to their value on a subtree.

    ``value`` must be the opponent's value process; the punisher is the
    minimizer there.
    """
    if value.player != 3 - punisher:
        raise ValueError(f"value process is for player {value.player}, expected {3 - punisher}")
    return {n: value.min_mix[n] for n in tree.walk(node)}


def check_convexity(payoffs: PayoffProcess, tree: EventTree, player: int, tol: float) -> None:
    """Require Z to lie weakly between X and Y for the player at every node."""
    stop, opp, sim, _ = payoffs.side(player)
    for node in tree.nodes:
        lo = min(stop[node], opp[node])
        hi = max(stop[node], opp[node])
        if sim[node] < lo - tol or sim[node] > hi + tol:
            raise ConvexityError(
                f"node {_worded_id(node)}: Z{player}={sim[node]!r} outside [{lo!r}, {hi!r}] for player {player}"
            )
