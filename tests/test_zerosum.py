"""Value processes, stage games, hitting times, and guarantee strategies."""

import itertools
import math
import random

import pytest

from dynkin import (
    ConvexityError,
    EventTree,
    ModelViolationError,
    PayoffPair,
    PayoffProcess,
    best_response,
    brute_force_value,
    hitting_time,
    punishment_strategy,
    solve_matrix_game,
    solve_value_process,
    stage_matrices,
    stage_value,
)
from dynkin.core import ATOM_MIX, UNIFORM_MIX
from dynkin.zerosum import check_convexity, saddle_values, stage_columns

from helpers import (
    chain_tree,
    constant_payoffs,
    corpus,
    mirror,
    parents,
    pure_optimal_strategy,
    column_matrix,
    reference_solve_matrix_game,
    reference_stage_matrices,
    reference_stage_value,
    reference_walk,
    simple_optimal_strategy,
    single_node_payoffs,
    uniform_tree,
    zero_sum_push,
    zero_sum_push_table,
)


def _payoffs_for_stage(x, y, z):
    tree = EventTree.build("n0", {})
    payoffs = PayoffProcess(
        x1={"n0": x}, y1={"n0": y}, z1={"n0": z},
        x2={"n0": -x}, y2={"n0": -y}, z2={"n0": -z},
        xi1={"n0": 0.0}, xi2={"n0": 0.0},
    )
    return payoffs


def _grid_columns():
    """Every point (x, y, z, c) of a signed-zero grid as one node of one
    game: player 1 sees (X, Y, Z, c), player 2 stop-first z, opponent-first
    x, simultaneous y and continuation -c.  Returns the payoffs, the nodes
    and ``stage_columns`` over them."""
    grid = (-1.0, -0.0, 0.0, 0.5, 1.0)
    points = list(itertools.product(grid, repeat=4))
    nodes = [f"n{k}" for k in range(len(points))]
    tables = {field: {} for field in ("x1", "y1", "z1", "x2", "y2", "z2", "xi1", "xi2")}
    for node, (x, y, z, c) in zip(nodes, points):
        for field, entry in zip(("x1", "y1", "z1", "y2", "x2", "z2"), (x, y, z, z, x, y)):
            tables[field][node] = entry
    payoffs = PayoffProcess(**tables)
    cont = PayoffPair([c for *_, c in points], [-c for *_, c in points])
    return payoffs, nodes, cont, stage_columns(payoffs, nodes, cont)


def _at_node(matrices, k):
    """Entry ``k`` of every cell of ``stage_columns``' matrices."""
    return tuple(tuple(tuple(tuple(cell[k] for cell in row) for row in m) for m in pair) for pair in matrices)


class TestStageMatrices:
    def test_columns_hold_each_nodes_matrices(self):
        # one stage_columns call over the whole grid, both players: entry k
        # of each cell is stage_matrices' at node k, signed zeros included
        payoffs, nodes, cont, columns = _grid_columns()
        for k, node in enumerate(nodes):
            expected = stage_matrices(payoffs, node, PayoffPair(cont.g1[k], cont.g2[k]))
            assert repr(_at_node(columns, k)) == repr(expected)

    def test_flat_example_rows(self):
        payoffs = _payoffs_for_stage(x=0.0, y=2.0, z=2.0)
        (primal, _), _ = stage_matrices(payoffs, "n0", PayoffPair(1.0, 1.0))
        assert primal == ((2.0, 0.0, 0.0, 0.0), (2.0, 2.0, 0.0, 0.0), (2.0, 2.0, 2.0, 1.0))

    def test_constant_entries(self):
        payoffs = _payoffs_for_stage(x=0.5, y=0.5, z=0.5)
        (primal, dual), _ = stage_matrices(payoffs, "n0", PayoffPair(0.5, 0.5))
        assert all(e == 0.5 for row in primal for e in row)
        assert all(e == 0.5 for row in dual for e in row)

    def test_uniform_row_dodges_simultaneity(self):
        # against any column the delay realizes a one-sided stop
        payoffs = _payoffs_for_stage(x=1.0, y=1.0, z=0.0)
        (primal, _), _ = stage_matrices(payoffs, "n0", PayoffPair(0.0, 0.0))
        assert primal[1] == (1.0, 1.0, 1.0, 1.0)

    def test_player_two_orientation(self):
        tree, payoffs = single_node_payoffs(1, 2, 3, 0, 4.0, 5.0, 6.0, 0.0)
        _, (primal, dual) = stage_matrices(payoffs, "n0", PayoffPair(7.0, 7.0))
        # rows atom/uniform/wait vs columns atom/early/late/wait of player 1
        assert primal == ((6.0, 5.0, 5.0, 5.0), (4.0, 4.0, 5.0, 5.0), (4.0, 4.0, 4.0, 7.0))
        assert dual == ((6.0, 5.0, 5.0), (4.0, 5.0, 5.0), (4.0, 4.0, 5.0), (4.0, 4.0, 7.0))

    def test_equal_the_per_player_reference_on_tie_grid(self):
        # player 1 sees (X, Y, Z, c) and player 2 sees stop-first x, opponent-first
        # y, simultaneous z and continuation -c: every grid point, both players
        grid = [k / 2 for k in range(-4, 5)]
        for x, y, z, c in itertools.product(grid, repeat=4):
            _, payoffs = single_node_payoffs(x, y, z, 0.0, y, x, z, 0.0)
            assert stage_matrices(payoffs, "n0", PayoffPair(c, -c)) == (
                reference_stage_matrices(payoffs, "n0", c, 1),
                reference_stage_matrices(payoffs, "n0", -c, 2),
            )

    def test_equal_the_per_player_reference_on_generated_games(self):
        nodes = 0
        for tree, payoffs in corpus(12, seed0=1300, depth_hi=5):
            v1 = solve_value_process(tree, payoffs, 1).value
            v2 = solve_value_process(tree, payoffs, 2).value
            for node in tree.nodes:
                c1 = tree.continuation(node, v1, payoffs.xi1)
                c2 = tree.continuation(node, v2, payoffs.xi2)
                assert stage_matrices(payoffs, node, PayoffPair(c1, c2)) == (
                    reference_stage_matrices(payoffs, node, c1, 1),
                    reference_stage_matrices(payoffs, node, c2, 2),
                )
                nodes += 1
        assert nodes > 100


class TestStageValue:
    def test_waiting_carries_the_terminal_value(self):
        value, _ = stage_value(x=0.0, y=2.0, z=2.0, cont=1.0)
        assert value == 1.0

    def test_constant_game(self):
        assert stage_value(0.5, 0.5, 0.5, 0.5)[0] == 0.5

    def test_delay_beats_bad_simultaneity(self):
        value, _ = stage_value(x=1.0, y=1.0, z=0.0, cont=0.0)
        assert value == 1.0

    def test_orientation_agreement_on_random_stages(self):
        rng = random.Random(12345)
        for _ in range(500):
            x, y, z, c = (rng.uniform(-2, 2) for _ in range(4))
            stage_value(x, y, z, c)  # raises on any disagreement

    @pytest.mark.parametrize("player", [1, 2])
    def test_closed_form_matches_both_orientations_on_tie_grid(self, player):
        # every (X, Y, Z, c) on a half-integer grid, ties and both signed
        # zeros included; the matrices come through the outcome kernel,
        # independent of the formula
        grid = [k / 2 for k in range(-4, 5)] + [-0.0]
        for x, y, z, c in itertools.product(grid, repeat=4):
            if player == 1:
                _, payoffs = single_node_payoffs(x, y, z, 0.0, 0.0, 0.0, 0.0, 0.0)
            else:  # player 2 stops first for Y2 and is preempted for X2
                _, payoffs = single_node_payoffs(0.0, 0.0, 0.0, 0.0, y, x, z, 0.0)
            primal, dual = stage_matrices(payoffs, "n0", PayoffPair(c, c))[player - 1]
            pv = solve_matrix_game(primal)[0]
            dv, _, argmin_col = solve_matrix_game(dual)
            value, min_mix = stage_value(x, y, z, c)
            assert value == pv and value == dv
            assert min_mix == argmin_col

    @staticmethod
    def _assert_as_reference(args):
        value, min_mix = stage_value(*args)
        ref_value, _, ref_min = reference_stage_value(*args)
        assert value.hex() == ref_value.hex(), args
        assert min_mix is ref_min, args

    def test_comparisons_match_the_builtins_on_a_signed_zero_grid(self):
        # the comparison form keeps the float and the first-index mix that
        # min, max and .index give, -0.0 against 0.0 included.  stage_value
        # only compares and selects, so its output depends only on how the
        # four inputs are ordered and where the zeros sit: the grid's four
        # levels (-1, +-0, 0.5, 1) give every ordering of four inputs, ties
        # included, with both zeros in every position, so random draws add
        # no coverage
        grid = (-1.0, -0.0, 0.0, 0.5, 1.0)
        for args in itertools.product(grid, repeat=4):
            self._assert_as_reference(args)


class TestMatrixGame:
    def test_matching_pennies_has_no_saddle_point(self):
        with pytest.raises(ModelViolationError, match="saddle"):
            solve_matrix_game([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(ModelViolationError, match="saddle"):
            solve_matrix_game(((1.0, -1.0), (-1.0, 1.0)))[0]

    def test_a_nan_value_differs_from_itself(self):
        # lower and upper are the same NaN object here; a list comparison
        # would call them equal, the float comparison does not
        for matrix in (((math.nan,),), ((math.nan, math.nan), (math.nan, math.nan))):
            with pytest.raises(ModelViolationError, match="nan < nan"):
                solve_matrix_game(matrix)[0]
            with pytest.raises(ModelViolationError, match="nan < nan"):
                saddle_values([column_matrix([matrix, matrix])])

    def test_saddle_values_are_each_nodes_rule_on_the_stage_grid(self):
        # the stage columns share cells across rows, columns and
        # orientations, and each fold passes a repeated cell once: every
        # value is still the per-node rule's, to the bit
        _, nodes, _, columns = _grid_columns()
        values = saddle_values([m for pair in columns for m in pair])
        for k in range(len(nodes)):
            matrices = [m for pair in _at_node(columns, k) for m in pair]
            assert [v[k].hex() for v in values] == [reference_solve_matrix_game(m)[0].hex() for m in matrices]

    def test_saddle_values_are_each_nodes_rule_on_shared_random_cells(self):
        # random matrices over a few columns, shared between cells at random,
        # with signed zeros and NaN: the values of every matrix at every
        # node, or the error of the first node and, there, the first matrix
        rng = random.Random(11)
        levels = (-1.0, -0.0, 0.0, 1.0, 1.0, 2.0, math.nan)
        raised = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            pool = [[rng.choice(levels) for _ in range(n)] for _ in range(rng.randint(1, 4))]
            matrices = [
                tuple(tuple(rng.choice(pool) for _ in range(cols)) for _ in range(rows))
                for rows, cols in ((rng.randint(1, 3), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
            ]
            per_node = [[[[cell[k] for cell in row] for row in m] for m in matrices] for k in range(n)]
            expected = None
            for games in per_node:
                for game in games:
                    try:
                        reference_solve_matrix_game(game)
                    except ModelViolationError as exc:
                        expected = str(exc)
                        break
                if expected:
                    break
            if expected:
                raised += 1
                with pytest.raises(ModelViolationError) as caught:
                    saddle_values(matrices)
                assert str(caught.value) == expected
            else:
                values = saddle_values(matrices)
                for k, games in enumerate(per_node):
                    assert [v[k].hex() for v in values] == [reference_solve_matrix_game(g)[0].hex() for g in games]
        assert 50 < raised < 350

    def test_saddle_point(self):
        value, rows, cols = solve_matrix_game([[3.0, 1.0], [0.0, -1.0]])
        assert value == 1.0
        assert rows == (1.0, 0.0) and cols == (0.0, 1.0)

    @staticmethod
    def _assert_as_reference(matrix):
        try:
            expected = reference_solve_matrix_game(matrix)
        except ModelViolationError as exc:
            with pytest.raises(ModelViolationError) as caught:
                solve_matrix_game(matrix)
            assert str(caught.value) == str(exc)
            with pytest.raises(ModelViolationError) as caught:
                saddle_values([column_matrix([matrix])])  # the one-node case of the column rule
            assert str(caught.value) == str(exc)
            return
        value, rows, cols = solve_matrix_game(matrix)
        assert value.hex() == expected[0].hex(), matrix  # the sign of a zero too
        assert (rows, cols) == expected[1:], matrix
        assert saddle_values([column_matrix([matrix])])[0][0].hex() == value.hex(), matrix  # the one-node case

    def test_matches_the_reference_on_a_signed_zero_grid(self):
        # every 2x2 and 2x3 matrix over levels with both zeros and ties, and
        # every stage matrix of the stage-value grid: the same value, the
        # same lowest-index mixes, and the same matrices without a saddle
        for shape, levels in (((2, 2), (-1.0, -0.0, 0.0, 1.0)), ((2, 3), (-0.0, 0.0, 1.0))):
            rows, cols = shape
            for cells in itertools.product(levels, repeat=rows * cols):
                self._assert_as_reference([cells[r * cols : (r + 1) * cols] for r in range(rows)])
        grid = (-1.0, -0.0, 0.0, 0.5, 1.0)
        for x, y, z, c in itertools.product(grid, repeat=4):
            _, payoffs = single_node_payoffs(x, y, z, 0.0, 0.0, 0.0, 0.0, 0.0)
            for matrices in stage_matrices(payoffs, "n0", PayoffPair(c, c)):
                for matrix in matrices:
                    self._assert_as_reference(matrix)

    @pytest.mark.parametrize(
        "matrix",
        [[], [[1.0, 2.0], [3.0]], [[1.0], [0.0, 5.0]]],
        ids=["empty", "short-last-row", "long-last-row"],
    )
    def test_rejects_an_empty_or_ragged_matrix(self, matrix):
        with pytest.raises(ValueError, match="rectangle"):
            solve_matrix_game(matrix)


class TestValueProcess:
    def test_flat_instance_value_is_one_everywhere(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0)
        process = solve_value_process(tree, payoffs, player=1)
        assert all(v == 1.0 for v in process.value.values())

    def test_constant_game_value(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, x=0.7, y=0.7, z=0.7, xi=0.7)
        for player in (1, 2):
            process = solve_value_process(tree, payoffs, player)
            expected = 0.7 if player == 1 else -0.7
            assert all(v == expected for v in process.value.values())

    def test_depth_one_matches_enumeration(self):
        tree = EventTree.build("r", {"r": [("a", 0.5), ("b", 0.5)]})
        payoffs = PayoffProcess(
            x1={"r": 0.25, "a": 1.0, "b": -0.5},
            y1={"r": 0.75, "a": 0.5, "b": 0.25},
            z1={"r": -1.0, "a": 2.0, "b": 0.0},
            x2={"r": -0.25, "a": -1.0, "b": 0.5},
            y2={"r": -0.75, "a": -0.5, "b": -0.25},
            z2={"r": 1.0, "a": -2.0, "b": 0.0},
            xi1={"a": 0.5, "b": 1.5},
            xi2={"a": -0.5, "b": -1.5},
        )
        for player in (1, 2):
            process = solve_value_process(tree, payoffs, player)
            assert process.value["r"] == brute_force_value(tree, payoffs, player)

    def test_value_bounds_on_corpus(self):
        for tree, payoffs in corpus(30, seed0=40, depth_hi=5):
            tol = payoffs.tolerance()
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                x = payoffs.x1 if player == 1 else payoffs.x2
                y = payoffs.y1 if player == 1 else payoffs.y2
                z = payoffs.z1 if player == 1 else payoffs.z2
                opp = payoffs.y1 if player == 1 else payoffs.x2
                for n in tree.nodes:
                    v = process.value[n]
                    assert min(x[n], y[n]) - tol <= v <= max(x[n], y[n]) + tol
                    assert v <= max(opp[n], z[n]) + tol


class TestHittingTime:
    def test_flat_instance_never_hits(self):
        tree = uniform_tree(3)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0)
        process = solve_value_process(tree, payoffs, 1)
        hit = hitting_time(tree, payoffs, process, eta=0.5)
        assert hit.antichain == ()
        assert set(hit.infinite_leaves) == set(tree.leaves)

    def test_constant_game_hits_at_root(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, x=0.3, y=0.3, z=0.3, xi=0.3)
        process = solve_value_process(tree, payoffs, 1)
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        assert hit.antichain == ("n0",)

    def test_chain_hits_at_child(self):
        # X1 climbs to within eta of the value only at the second frame
        tree = chain_tree(1)
        payoffs = PayoffProcess(
            x1={"n0": 0.0, "n1": 0.55},
            y1={"n0": 0.6, "n1": 0.6},
            z1={"n0": 0.0, "n1": 0.0},
            x2={"n0": 0.0, "n1": 0.0},
            y2={"n0": 0.0, "n1": 0.0},
            z2={"n0": 0.0, "n1": 0.0},
            xi1={"n1": 0.7},
            xi2={"n1": 0.0},
        )
        process = solve_value_process(tree, payoffs, 1)
        assert process.value["n0"] == 0.6 and process.value["n1"] == 0.6
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        assert hit.antichain == ("n1",)

    @pytest.mark.parametrize("x2, tol, antichain", [(0.5, 1e-9, ()), (2.0**30, 1e-9 * 2**30, ("n0",))])
    def test_one_tolerance_per_game_reads_both_players_tables(self, x2, tol, antichain):
        # one tolerance for both players: player 1's stop-first payoff sits
        # 0.5 below v1 - eta, so player 2's range alone decides the hit
        tree, payoffs = single_node_payoffs(x1=0.0, y1=1.0, z1=0.0, xi1=0.55, x2=x2, y2=0.0, z2=0.0, xi2=0.0)
        process = solve_value_process(tree, payoffs, 1)
        assert process.value["n0"] == 0.55
        assert payoffs.tolerance() == tol
        assert hitting_time(tree, payoffs, process, eta=0.05).antichain == antichain

    def test_rejects_nonpositive_eta(self):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, 0, 0, 0, 0)
        process = solve_value_process(tree, payoffs, 1)
        for eta in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                hitting_time(tree, payoffs, process, eta=eta)

    def test_larger_eta_hits_weakly_earlier(self):
        for tree, payoffs in corpus(25, seed0=70, depth_hi=5):
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                coarse = hitting_time(tree, payoffs, process, eta=0.2).hits()
                fine = hitting_time(tree, payoffs, process, eta=0.05)
                parent = parents(tree)
                for q in fine.antichain:
                    node, found = q, False
                    while node is not None:
                        if node in coarse:
                            found = True
                            break
                        node = parent[node]
                    assert found, (q, coarse)

    @pytest.mark.parametrize("eta", [0.02, 0.1, 0.5])
    def test_the_walk_tests_only_down_to_the_first_hits(self, eta):
        # hitting_time tests the hit condition at each node its walk reaches
        # and stops below each hit; the reference tests every node, then
        # walks from the root to the hit set: the same antichain and
        # never-hit leaves, in the same breadth-first order
        for tree, payoffs in corpus(40, seed0=300, depth_hi=6):
            tol = payoffs.tolerance()
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                stop, v = payoffs.side(player).stop, process.value
                hit = {n for n in tree.nodes if stop[n] - (v[n] - eta) >= -tol}
                walked = list(reference_walk(tree, tree.root, hit))
                found = hitting_time(tree, payoffs, process, eta, tol)
                assert found.antichain == tuple(n for n in walked if n in hit)
                assert found.infinite_leaves == tuple(n for n in walked if n not in hit and tree.is_leaf(n))

    def test_reads_the_stop_first_table_only_where_its_walk_reaches(self):
        # the hit condition is tested as the walk reaches a node, so the
        # player's stop-first table (X1 or Y2) is read at exactly the nodes
        # from the root down to the first hits, never below them
        below = 0
        for tree, payoffs in corpus(40, seed0=300, depth_hi=6):
            tol = payoffs.tolerance()
            for player, field in ((1, "x1"), (2, "y2")):
                process = solve_value_process(tree, payoffs, player)
                table = getattr(payoffs, field)
                recorder = _ReadRecorder(table)
                setattr(payoffs, field, recorder)
                try:
                    found = hitting_time(tree, payoffs, process, 0.1, tol)
                finally:
                    setattr(payoffs, field, table)
                hit = found.hits()
                reached = list(reference_walk(tree, tree.root, hit))
                assert set(recorder.read) == set(reached)
                below += len(reached) < len(tree.nodes)
        assert below > 40  # most walks stop above some node


class _ReadRecorder(dict):
    """A payoff table that records the key of each entry read."""

    def __init__(self, table):
        super().__init__(table)
        self.read = []

    def __getitem__(self, node):
        self.read.append(node)
        return super().__getitem__(node)


class TestGuaranteeStrategies:
    def test_delay_masks_the_stop(self):
        tree, payoffs = single_node_payoffs(1.0, 1.0, 0.0, 0.0, 0, 0, 0, 0)
        process = solve_value_process(tree, payoffs, 1)
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        fragment = simple_optimal_strategy(tree, payoffs, process, hit, eta=0.1)
        assert fragment["n0"] == UNIFORM_MIX

    def test_atom_when_opponent_first_pays_too_little(self):
        tree, payoffs = single_node_payoffs(1.0, 0.0, 1.0, 0.0, 0, 0, 0, 0)
        process = solve_value_process(tree, payoffs, 1)
        assert process.value["n0"] == 1.0
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        fragment = simple_optimal_strategy(tree, payoffs, process, hit, eta=0.1)
        assert fragment["n0"] == ATOM_MIX

    def test_constant_game_guarantees_exactly_c(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, 0.4, 0.4, 0.4, 0.4)
        process = solve_value_process(tree, payoffs, 1)
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        fragment = simple_optimal_strategy(tree, payoffs, process, hit, eta=0.1)
        assert hit.antichain == ("n0",) and fragment["n0"] == UNIFORM_MIX
        assert zero_sum_push(tree, payoffs, fragment, 1) == 0.4

    @pytest.mark.parametrize("eta", [0.2, 0.05])
    def test_guarantee_on_corpus(self, eta):
        for tree, payoffs in corpus(25, seed0=90, depth_hi=5):
            tol = payoffs.tolerance()
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                hit = hitting_time(tree, payoffs, process, eta)
                fragment = simple_optimal_strategy(tree, payoffs, process, hit, eta)
                pushed = zero_sum_push_table(tree, payoffs, fragment, player)
                assert pushed[tree.root] >= process.value[tree.root] - eta - tol
                for q in hit.antichain:
                    assert pushed[q] >= process.value[q] - eta - tol


class TestPunishment:
    def test_flat_instance_holds_opponent_to_value(self):
        tree = uniform_tree(3)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0)
        fragment = punishment_strategy(tree, node="n0", value=solve_value_process(tree, payoffs, 1))
        values, _ = best_response(tree, payoffs, fragment, deviator=1)
        assert all(values[n] == 1.0 for n in tree.nodes)

    def test_tight_on_corpus(self):
        for tree, payoffs in corpus(25, seed0=120, depth_hi=5):
            tol = payoffs.tolerance()
            for target in (1, 2):
                process = solve_value_process(tree, payoffs, target)
                fragment = punishment_strategy(tree, node=tree.root, value=process)
                values, _ = best_response(tree, payoffs, fragment, deviator=target)
                assert abs(values[tree.root] - process.value[tree.root]) <= tol

    def test_subtree_restriction(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, 0.1, 0.2, 0.3, 0.4)
        fragment = punishment_strategy(tree, node="n1", value=solve_value_process(tree, payoffs, 1))
        assert set(fragment) == set(tree.walk("n1"))


class TestPureOptimal:
    def test_atom_with_interior_simultaneous_payoff(self):
        tree, payoffs = single_node_payoffs(1.0, 0.0, 0.5, 0.0, 0, 0, 0, 0)
        process = solve_value_process(tree, payoffs, 1)
        assert process.value["n0"] == 0.5
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        fragment = pure_optimal_strategy(tree, payoffs, process, hit, eta=0.1)
        assert fragment["n0"] == ATOM_MIX
        assert zero_sum_push(tree, payoffs, fragment, 1) >= 0.5 - 0.1

    def test_constant_game(self):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, 0.2, 0.2, 0.2, 0.2)
        process = solve_value_process(tree, payoffs, 1)
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        fragment = pure_optimal_strategy(tree, payoffs, process, hit, eta=0.1)
        assert fragment["n0"] == ATOM_MIX
        assert zero_sum_push(tree, payoffs, fragment, 1) == 0.2

    def test_rejects_external_simultaneous_payoff(self):
        tree, payoffs = single_node_payoffs(1.0, 0.0, 2.0, 0.0, 0, 0, 0, 0)
        process = solve_value_process(tree, payoffs, 1)
        hit = hitting_time(tree, payoffs, process, eta=0.1)
        with pytest.raises(ConvexityError, match="n0"):
            pure_optimal_strategy(tree, payoffs, process, hit, eta=0.1)

    @pytest.mark.parametrize("x, y", [(0.0, -0.0), (-0.0, 0.0)], ids=["x-positive-zero", "x-negative-zero"])
    def test_convexity_error_words_a_signed_zero_tie_as_min_and_max(self, x, y):
        # X and Y tie, so each end of the span is X, as min(X, Y) and max(X, Y) give it
        tree, payoffs = single_node_payoffs(x, y, 1.0, 0.0, 0, 0, 0, 0)
        with pytest.raises(ConvexityError) as caught:
            check_convexity(payoffs, tree, 1, 0.0)
        assert str(caught.value) == f"node n0: Z1=1.0 outside [{min(x, y)!r}, {max(x, y)!r}] for player 1"
        assert str(caught.value) == f"node n0: Z1=1.0 outside [{x!r}, {x!r}] for player 1"

    def test_guarantee_on_clamped_corpus(self):
        for tree, payoffs in corpus(20, seed0=150, depth_hi=4, convexity=True):
            tol = payoffs.tolerance()
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                hit = hitting_time(tree, payoffs, process, eta=0.1)
                fragment = pure_optimal_strategy(tree, payoffs, process, hit, eta=0.1)
                pushed = zero_sum_push(tree, payoffs, fragment, player)
                assert pushed >= process.value[tree.root] - 0.1 - tol


class TestSolverInvariants:
    def test_submartingale_before_the_hit(self):
        for tree, payoffs in corpus(20, seed0=180, depth_hi=5):
            tol = payoffs.tolerance()
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                hits = hitting_time(tree, payoffs, process, eta=0.1).hits()
                stack = [tree.root]
                while stack:
                    node = stack.pop()
                    if node in hits or tree.is_leaf(node):
                        continue
                    kids = tree.children[node]
                    expected = sum(p * process.value[c] for c, p in kids)
                    assert process.value[node] <= expected + tol
                    stack.extend(c for c, _ in kids)

    def test_mirrored_value_swaps_players(self):
        for tree, payoffs in corpus(10, seed0=220, depth_hi=4):
            mtree, mpay = mirror(tree, payoffs)
            v2 = solve_value_process(tree, payoffs, 2)
            mv1 = solve_value_process(mtree, mpay, 1)
            assert all(mv1.value[n] == v2.value[n] for n in tree.nodes)
