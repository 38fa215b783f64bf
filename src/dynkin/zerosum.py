"""Auxiliary zero-sum games: value processes, hitting times, optimal stage play.

For each player i the auxiliary game uses only player i's payoffs, the tables
of ``PayoffProcess.side(i)``: i maximizes while the opponent minimizes.  The
two games differ only by that view, so every function here reads a player's
payoffs through ``side`` and none names an absolute table; ``stage_columns``
builds both players' matrices from one pair of row tables, and
``stage_matrices`` reads them at one node.
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
minimizer's mix goes to the first action that reaches the value.

Every function here takes a valid instance (``core.require_valid``) and does
not check it again: the entries that take outside input (``toolkit.load``,
``construct``, ``construct_pure`` and ``check_invariants``) validate it once.
``ValueProcess`` and ``HittingTime`` are ``NamedTuple`` records: the
solvers read their fields once per call, never per node.
"""

from __future__ import annotations

from operator import itemgetter, ne
from typing import Callable, Iterable, NamedTuple, Optional

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
    STOP_ORDER,
    Outcome,
    _worded_id,
    require_eta,
)

Matrix = tuple[tuple[float, ...], ...]
ColumnMatrix = tuple[tuple[list[float], ...], ...]  # each cell a column over nodes


class ValueProcess(NamedTuple):
    """Per-node zero-sum value with the minimizer's optimal stage mix."""

    player: int
    value: dict[str, float]
    min_mix: dict[str, Mix]


class HittingTime(NamedTuple):
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
# tuple: ``STOP_ORDER[protagonist, antagonist]`` reads "player 1 first" as
# "the protagonist first".  A grid pairs a mixed (atom, uniform, wait) side
# with a pure (atom, early, late, wait) side, so no cell is a uniform tie.
_SLOT = {
    Outcome.SIMULTANEOUS: 0,
    Outcome.PLAYER1_FIRST: 1,
    Outcome.PLAYER2_FIRST: 2,
    Outcome.SURVIVAL: 3,
}
# The one slot table, ``_SLOT[STOP_ORDER[cell]]`` for each grid cell, read
# into one itemgetter per matrix row, once: a row is one C-level pick from a
# player's (sim, stop, opp, c), each a column over nodes.
_PRIMAL, _DUAL = (
    tuple(itemgetter(*[_SLOT[STOP_ORDER[cell]] for cell in row]) for row in grid) for grid in _GRIDS
)


def stage_columns(
    payoffs: PayoffProcess, nodes: list[str], continuation: PayoffPair
) -> tuple[tuple[ColumnMatrix, ColumnMatrix], tuple[ColumnMatrix, ColumnMatrix]]:
    """Both orientations of the one-frame game, for both protagonists, at
    every node of ``nodes`` at once.

    ``continuation`` holds each player's own continuation values, one list
    in the order of ``nodes``.  Returns ``((primal1, dual1), (primal2,
    dual2))``.  Primal: the protagonist mixes rows (atom, uniform, wait)
    against the antagonist's pure columns (atom, early, late, wait).  Dual:
    the roles are transposed, the antagonist mixing (atom, uniform, wait)
    columns against protagonist pure rows.  Both players see the same stage
    game in their own view, so one pair of row tables serves both: each
    cell's outcome comes from ``core.STOP_ORDER``, the one stop-order
    table, read once at import, and the rows pick their cells from each
    player's own (sim, stop, opp, c) columns, read through
    ``PayoffProcess.side``.  Each cell is one list over ``nodes``.  The
    tests build the same matrices entry by entry from the stop-order
    reference.
    """
    matrices = []
    for (stop, opp, sim, _), cont in zip((payoffs.side(1), payoffs.side(2)), continuation):
        own = (list(map(sim.__getitem__, nodes)), list(map(stop.__getitem__, nodes)), list(map(opp.__getitem__, nodes)), cont)
        matrices.append((tuple([row(own) for row in _PRIMAL]), tuple([row(own) for row in _DUAL])))
    return matrices[0], matrices[1]


def stage_matrices(
    payoffs: PayoffProcess, node: str, continuation: PayoffPair
) -> tuple[tuple[Matrix, Matrix], tuple[Matrix, Matrix]]:
    """``stage_columns`` at one node, each cell read at entry 0;
    ``continuation`` holds each player's own continuation value."""
    c1, c2 = continuation
    columns = stage_columns(payoffs, [node], PayoffPair([c1], [c2]))
    return tuple(
        tuple(tuple(tuple(cell[0] for cell in row) for row in matrix) for matrix in pair) for pair in columns
    )


def solve_matrix_game(matrix: Matrix) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
    """Value and pure optimal mixes of a zero-sum matrix game with a saddle point.

    The row player maximizes; ties go to the lowest index.  A matrix that is
    empty or ragged is a ``ValueError``.  The value is ``saddle_values``' at
    one node, and each mix puts its weight on the first row (column) whose
    guarantee (exposure) reaches it.
    """
    rows = [tuple(r) for r in matrix]
    widths = set(map(len, rows))
    if len(widths) != 1 or 0 in widths:
        raise ValueError(f"matrix must be a non-empty rectangle, got row lengths {[len(r) for r in rows]}")
    value = saddle_values([[[[cell] for cell in row] for row in rows]])[0][0]
    row_mix = [0.0] * len(rows)
    row_mix[list(map(min, rows)).index(value)] = 1.0
    col_mix = [0.0] * len(rows[0])
    col_mix[list(map(max, zip(*rows))).index(value)] = 1.0
    return value, tuple(row_mix), tuple(col_mix)


def saddle_values(matrices: list[ColumnMatrix]) -> list[list[float]]:
    """The one saddle rule, over many games at once: each matrix's lower
    value, the largest row minimum, at every node, which must equal its upper
    value, the smallest column maximum.

    Each cell of a matrix is a column over the same nodes.  The builtins
    take each node's row minima and column maxima in the order of
    ``max(map(min, rows))`` and ``min(map(max, zip(*rows)))``, so every
    float is theirs, signed zeros and NaN included.  A repeated cell is
    passed once, which keeps each float: after an argument the running
    minimum is that argument or one it does not beat, later steps only
    lower it, and ``<`` on ints and floats is transitive and false whenever
    a NaN takes part, so a later copy never beats it (the same for the
    maximum).  The lower and upper values are compared as floats
    (``operator.ne``: a NaN differs from itself), and a game without a pure
    saddle point is a model violation, raised at the first node and, there,
    at the first matrix: every stage game has one.
    """

    def fold(pick: Callable[..., float], cells: Iterable[list[float]]) -> list[float]:
        cells = tuple({id(cell): cell for cell in cells}.values())
        return list(map(pick, *cells)) if len(cells) > 1 else cells[0]

    bounds = [
        (fold(max, [fold(min, row) for row in matrix]), fold(min, [fold(max, col) for col in zip(*matrix)]))
        for matrix in matrices
    ]
    if any(any(map(ne, lower, upper)) for lower, upper in bounds):
        flags = [list(map(ne, lower, upper)) for lower, upper in bounds]
        k, m = min((where.index(True), m) for m, where in enumerate(flags) if True in where)
        lower, upper = bounds[m]
        raise ModelViolationError(f"matrix game has no pure saddle point: {lower[k]!r} < {upper[k]!r}")
    return [lower for lower, _ in bounds]


def stage_value(x: float, y: float, z: float, cont: float) -> tuple[float, Mix]:
    """Saddle value of one stage game, with the minimizer's mix.

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
    lo = atom_row
    if uniform_row > lo:
        lo = uniform_row
    if wait_row > lo:
        lo = wait_row
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
    return lo, min_mix


def solve_value_process(tree: EventTree, payoffs: PayoffProcess, player: int) -> ValueProcess:
    """Backward induction of the auxiliary zero-sum value for one player.

    Takes a valid instance, unchecked (see the module docstring).
    """
    stop, opp, sim, xi = payoffs.side(player)
    kids_of = tree.children.get
    value: dict[str, float] = {}
    min_mix: dict[str, Mix] = {}
    for node in reversed(tree.nodes):
        kids = kids_of(node)
        if kids:  # ``EventTree.continuation``'s running sum, inline
            cont = 0.0
            for child, p in kids:
                cont += p * value[child]
        else:
            cont = xi[node]
        value[node], min_mix[node] = stage_value(stop[node], opp[node], sim[node], cont)
    return ValueProcess(player=player, value=value, min_mix=min_mix)


def hitting_time(
    tree: EventTree,
    payoffs: PayoffProcess,
    value: ValueProcess,
    eta: float,
    tol: Optional[float] = None,
) -> HittingTime:
    """First node per path where the stop-first payoff reaches value - eta.

    The player hits at a node where their stop-first payoff reaches value -
    eta, within ``tol``: the one hit condition.  ``EventTree.walk`` asks it
    from the root down and does not descend below a hit, so no node below a
    first hit is tested.  The antichain and the never-hit leaves are the
    walked nodes where it holds and the walked leaves where it does not,
    each in walk order.
    """
    require_eta(eta)
    tol = payoffs.tolerance(tol)
    stop, v = payoffs.side(value.player).stop, value.value

    def hits(node: str) -> bool:
        return stop[node] - (v[node] - eta) >= -tol

    walked = tree.walk(tree.root, hits)
    return HittingTime(
        player=value.player,
        eta=eta,
        antichain=tuple(filter(hits, walked)),
        infinite_leaves=tuple(n for n in walked if tree.is_leaf(n) and not hits(n)),
    )


def punishment_strategy(tree: EventTree, node: str, value: ValueProcess) -> dict[str, Mix]:
    """Minimizing stage play holding the opponent to their value on a subtree.

    ``value`` is the opponent's value process, so the punisher is its
    minimizer, player ``3 - value.player``.
    """
    nodes = tree.walk(node)
    return dict(zip(nodes, map(value.min_mix.__getitem__, nodes)))


def check_convexity(payoffs: PayoffProcess, tree: EventTree, player: int, tol: float) -> None:
    """Require Z to lie weakly between X and Y for the player at every node.

    The span's ends are taken by comparisons that keep the builtins' float,
    as in ``stage_value``: the low end is X unless Y < X and the high end is
    X unless Y > X, so a signed zero is worded as ``min`` and ``max`` give it.
    """
    stop, opp, sim, _ = payoffs.side(player)
    nodes = tree.nodes
    for node, x, y, z in zip(nodes, map(stop.__getitem__, nodes), map(opp.__getitem__, nodes), map(sim.__getitem__, nodes)):
        lo = y if y < x else x
        hi = y if y > x else x
        if z < lo - tol or z > hi + tol:
            raise ConvexityError(f"node {_worded_id(node)}: Z{player}={z!r} outside [{lo!r}, {hi!r}] for player {player}")
