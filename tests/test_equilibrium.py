"""Classification and equilibrium construction with certified gaps."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynkin
from dynkin import (
    ConvexityError,
    EventTree,
    GeneratorSpec,
    InstanceError,
    ModelViolationError,
    PayoffPair,
    PayoffProcess,
    check_invariants,
    classify,
    construct,
    construct_pure,
    generate,
    hitting_time,
    solve_value_process,
    validate_instance,
    validate_profile,
)
from dynkin import core, equilibrium, verify, zerosum
from dynkin.core import ATOM_MIX, UNIFORM_MIX, WAIT_MIX
from dynkin.toolkit import FAMILIES
from dynkin.zerosum import ValueProcess

from helpers import constant_payoffs, corpus, mirror, parents, single_node_payoffs, uniform_tree
from test_golden import GAMES, golden_game


def _classify(tree, payoffs):
    v1 = solve_value_process(tree, payoffs, 1)
    v2 = solve_value_process(tree, payoffs, 2)
    return classify(tree, payoffs, v1, v2)


class TestClassify:
    def test_all_constant_is_a1(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, 0.3, 0.3, 0.3, 0.3, zero_sum=False)
        assert _classify(tree, payoffs).label == "A1"

    def test_simultaneous_stop_region(self):
        tree, payoffs = single_node_payoffs(
            x1=1.0, y1=0.0, z1=1.0, xi1=0.0, x2=0.0, y2=0.0, z2=1.0, xi2=0.0
        )
        assert _classify(tree, payoffs).label == "A2"

    def test_flat_example_takes_the_mirrored_chain(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False)
        label = _classify(tree, payoffs)
        assert label.label == "M1"

    def test_second_mover_stop_region(self):
        # player 2 prefers stopping, player 1 prefers being stopped on
        tree, payoffs = single_node_payoffs(
            x1=0.0, y1=2.0, z1=0.5, xi1=0.0, x2=0.0, y2=1.0, z2=1.0, xi2=0.0
        )
        assert _classify(tree, payoffs).label == "A3"

    def test_waiting_region(self):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0)
        assert _classify(tree, payoffs).label == "A6"

    def test_inconsistent_values_raise_a5(self):
        tree, payoffs = single_node_payoffs(
            x1=1.0, y1=2.0, z1=0.0, xi1=0.0, x2=0.0, y2=0.0, z2=1.0, xi2=0.0
        )
        fake1 = ValueProcess(1, {"n0": 0.0}, {})
        fake2 = ValueProcess(2, {"n0": 5.0}, {})
        with pytest.raises(ModelViolationError, match="A5"):
            classify(tree, payoffs, fake1, fake2)

    @pytest.mark.parametrize("players", [(2, 1), (1, 1), (2, 2)], ids=["swapped", "player-1-twice", "player-2-twice"])
    def test_refuses_value_processes_out_of_player_order(self, players):
        # swapped, the processes relabel the root with no error, or fall
        # through the mirrored chain as a false solver bug
        tree, payoffs = generate(GeneratorSpec(depth=3, branching=2, seed=1))
        v1, v2 = (solve_value_process(tree, payoffs, player) for player in players)
        with pytest.raises(ValueError, match=rf"^value processes are for players \({players[0]}, {players[1]}\), expected \(1, 2\)$"):
            classify(tree, payoffs, v1, v2)


def _swapped_label(label):
    return {"A": "M", "M": "A"}[label[0]] + label[1:]


def _certificate_fields(cert):
    return (cert.best_response_value, cert.path_value, cert.gap, cert.raw_gap, cert.strategy)


def _assert_mirrored_reports(report, mreport):
    """``mreport`` is ``report`` with the players swapped, exactly."""
    assert [(c.label, c.node) for c in mreport.case_trace] == [
        (_swapped_label(c.label), c.node) for c in report.case_trace
    ]
    assert mreport.profile.player1 == report.profile.player2
    assert mreport.profile.player2 == report.profile.player1
    assert mreport.payoff == PayoffPair(report.payoff.g2, report.payoff.g1)
    for cert, mcert in zip(report.certificates, reversed(mreport.certificates)):
        assert _certificate_fields(mcert) == _certificate_fields(cert)
    assert mreport.tree == report.tree
    assert mreport.second_half == report.second_half
    assert mreport.tol == report.tol
    assert mreport.payoffs == mirror(report.tree, report.payoffs)[1]


# How the mirror relabels the trace below an A6 root, contested nodes aside.
_A6_MIRRORED = {"A6": "A6", "A61": "A62", "A62": "A61", "A63": "A63", "A64": "A65", "A65": "A64", "A66": "A66"}


def _contested(payoffs, node, tol):
    """Both players prefer the other to stop: opp - sim > tol for each."""
    return all(own.opp[node] - own.sim[node] > tol for own in map(payoffs.side, (1, 2)))


def _assert_mirrored_a6_reports(report, mreport, payoffs, eta, tol):
    """Below an A6 root the mirror's trace is the trace node by node, with
    A61 and A62 swapped and A64 and A65 swapped.  The exception is a
    contested A64 node: the rule tries player 1's preference first in both
    orientations, so it stays A64, and the other player concedes in each.
    Without one the gaps swap within ``tol``; with one all four gaps stay
    within the verify threshold."""
    contested = {c.node for c in report.case_trace if c.label == "A64" and _contested(payoffs, c.node, tol)}
    assert [(c.label, c.node) for c in mreport.case_trace] == [
        (c.label if c.node in contested else _A6_MIRRORED[c.label], c.node) for c in report.case_trace
    ]
    if contested:
        bound = 13 * eta + 1e-6 * max(1.0, payoffs.payoff_range)
        assert max(report.gap1, report.gap2, mreport.gap1, mreport.gap2) <= bound
    else:
        assert abs(report.gap1 - mreport.gap2) <= tol
        assert abs(report.gap2 - mreport.gap1) <= tol


def _classify_at(tree, payoffs, eta, tol):
    v1, v2 = (solve_value_process(tree, payoffs, i) for i in (1, 2))
    return classify(tree, payoffs, v1, v2, tol=tol)


def _hitting_time_at(tree, payoffs, eta, tol):
    return hitting_time(tree, payoffs, solve_value_process(tree, payoffs, 1), eta, tol)


@pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
@pytest.mark.parametrize("entry", [construct, construct_pure, check_invariants, _classify_at, _hitting_time_at])
def test_library_entries_reject_a_bad_tol(entry, tol):
    # at the CLI --tol rejects these; a NaN tol used to relabel an A4 root as
    # A6, and a negative one to empty every hitting antichain
    tree, payoffs = generate(GeneratorSpec(depth=4, branching=3, seed=3, convexity=True))
    with pytest.raises(ValueError, match="tol must be finite and at or above zero"):
        entry(tree, payoffs, 0.05, tol=tol)


class TestConstruct:
    def test_rejects_nonpositive_eta(self):
        tree, payoffs = single_node_payoffs(0, 0, 0, 0, 0, 0, 0, 0)
        for eta in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                construct(tree, payoffs, eta=eta)

    def test_simultaneous_stop_is_exact(self):
        tree, payoffs = single_node_payoffs(
            x1=0.5, y1=0.5, z1=1.0, xi1=0.0, x2=0.0, y2=0.5, z2=1.0, xi2=0.0
        )
        report = construct(tree, payoffs, eta=0.05)
        assert report.case_trace[0].label == "A2"
        assert report.payoff == PayoffPair(1.0, 1.0)
        assert report.gap1 <= report.tol and report.gap2 <= report.tol

    def test_never_hitting_instance_waits_forever(self):
        tree = EventTree.build("r", {"r": [("a", 0.5), ("b", 0.5)]})
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0)
        payoffs.xi1.update({"a": 0.5, "b": 1.5})
        payoffs.xi2.update({"a": -0.5, "b": -1.5})
        report = construct(tree, payoffs, eta=0.05)
        labels = {c.label for c in report.case_trace}
        assert report.case_trace[0].label == "A6" and "A63" in labels
        assert report.payoff == PayoffPair(1.0, -1.0)
        assert max(report.gap1, report.gap2) <= report.tol

    def test_first_mover_case_pays_stop_first_values(self):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, 0.3, 0.3, 0.3, 0.3, zero_sum=False)
        report = construct(tree, payoffs, eta=0.05)
        assert report.case_trace[0].label == "A1"
        assert report.payoff == PayoffPair(0.3, 0.3)

    def test_gap_bound_on_corpus(self):
        for tree, payoffs in corpus(40, seed0=500, depth_hi=5):
            report = construct(tree, payoffs, eta=0.05)
            bound = 13 * 0.05 + 1e-6 * max(1.0, payoffs.payoff_range)
            assert report.gap1 <= bound and report.gap2 <= bound

    def test_mirror_equivariance_of_gaps(self):
        # On the overlap where both first-mover chains apply, the two
        # orientations legitimately pick different (zero-gap) constructions,
        # so only gap equivalence is required there.  Below a first-mover
        # root the whole report mirrors exactly, and below an A6 root the
        # trace mirrors up to contested A64 nodes.
        for tree, payoffs in corpus(90, seed0=540, depth_hi=4):
            report = construct(tree, payoffs, eta=0.05)
            mtree, mpay = mirror(tree, payoffs)
            mreport = construct(mtree, mpay, eta=0.05)
            tol = payoffs.tolerance()
            v1 = solve_value_process(tree, payoffs, 1)
            v2 = solve_value_process(tree, payoffs, 2)
            r = tree.root
            overlap = (
                payoffs.x1[r] - v1.value[r] >= -tol
                and payoffs.y2[r] - v2.value[r] >= -tol
            )
            if overlap:
                assert max(report.gap1, report.gap2) <= tol
                assert max(mreport.gap1, mreport.gap2) <= tol
            elif report.case_trace[0].label == "A6":
                _assert_mirrored_a6_reports(report, mreport, payoffs, 0.05, tol)
            else:
                assert abs(report.gap1 - mreport.gap2) <= tol
                assert abs(report.gap2 - mreport.gap1) <= tol
                # Building an M root directly equals building the A root of
                # the mirrored game, with the players swapped.
                _assert_mirrored_reports(report, mreport)

    def test_a_contested_node_stays_a64_under_the_mirror(self):
        # Game 22 of the mirror corpus: at n1 both players hit and each
        # prefers the other to stop, so player 2 concedes in both
        # orientations and the gaps do not swap.
        tree, payoffs = corpus(90, seed0=540, depth_hi=4)[22]
        assert (len(tree.nodes), tree.horizon) == (8, 3)
        report = construct(tree, payoffs, eta=0.05)
        mreport = construct(*mirror(tree, payoffs), eta=0.05)
        assert _contested(payoffs, "n1", payoffs.tolerance())
        assert [(c.label, c.node) for c in report.case_trace] == [("A6", "n0"), ("A64", "n1"), ("A62", "n2")]
        assert [(c.label, c.node) for c in mreport.case_trace] == [("A6", "n0"), ("A64", "n1"), ("A61", "n2")]
        assert (report.gap1, report.gap2, mreport.gap1) == (0.0, 0.0, 0.0)
        assert mreport.gap2 == pytest.approx(0.004533966490356145, rel=1e-9)

    @pytest.mark.parametrize(
        "y1_a, label",
        [(1.0, "A66"), (1.0 + 1e-12, "A66"), (1.25, "A64")],
        ids=["tie", "within-tol", "above-tol"],
    )
    def test_a_contested_node_goes_to_player_1_only_above_tol(self, y1_a, label):
        # both players hit at a; player 1 waits (A64) only when their
        # opponent-first payoff tops the simultaneous one by more than tol.
        # At a tie, or within tol, player 2's own test fails too (opp 0.5,
        # sim 1), so both stop (A66).  Player 2's tables mirror player 1's.
        tree = EventTree.build("r", {"r": [("a", 1.0)]})
        x1, y1, z1, xi1 = {"r": 0.0, "a": 0.5}, {"r": 2.0, "a": y1_a}, {"r": 0.0, "a": 1.0}, {"a": 0.0}
        payoffs = PayoffProcess(x1=x1, y1=y1, z1=z1, x2=dict(y1), y2=dict(x1), z2=dict(z1), xi1=xi1, xi2=dict(xi1))
        report = construct(tree, payoffs, eta=0.05)
        assert [(c.label, c.node) for c in report.case_trace] == [("A6", "r"), (label, "a")]
        assert report.tol == 2e-9

    @pytest.mark.parametrize(
        "tables, label",
        [
            # Y1[q] == Z1[q]: player 1 is indifferent, player 2 prefers
            # player 1 to stop, so player 2 waits
            (
                dict(
                    x1={"r": -2.0, "q": 1.0}, y1={"r": 0.5, "q": 1.25}, z1={"r": -1.75, "q": 1.25},
                    x2={"r": -1.0, "q": -0.5}, y2={"r": -1.75, "q": 0.25}, z2={"r": -1.5, "q": -1.5},
                    xi1={"q": 0.25}, xi2={"q": 0.25},
                ),
                "A65",
            ),
            # Y1[q] == Z1[q] and X2[q] below Z2[q]: neither prefers the other
            # to stop, so both stop
            (
                dict(
                    x1={"r": -2.0, "q": -0.25}, y1={"r": 1.0, "q": -1.5}, z1={"r": 0.0, "q": -1.5},
                    x2={"r": -1.5, "q": -2.0}, y2={"r": -2.0, "q": 0.25}, z2={"r": 0.75, "q": 1.75},
                    xi1={"q": 1.75}, xi2={"q": -1.0},
                ),
                "A66",
            ),
            # Y1[q] above Z1[q]: player 1 prefers player 2 to stop, so waits
            (
                dict(
                    x1={"r": -1.25, "q": -0.25}, y1={"r": 1.75, "q": -0.5}, z1={"r": 0.75, "q": -0.75},
                    x2={"r": 0.75, "q": -1.0}, y2={"r": -1.0, "q": -0.25}, z2={"r": 0.0, "q": 1.0},
                    xi1={"q": 1.0}, xi2={"q": 0.5},
                ),
                "A64",
            ),
        ],
        ids=["A65", "A66", "A64"],
    )
    def test_where_both_hit_player_1_waits_only_on_a_strict_preference(self, tables, label):
        # the contested branch by name: A64 needs Y1 above Z1 by more than
        # tol, so an indifferent player 1 leaves the node to player 2's test
        tree = EventTree.build("r", {"r": [("q", 1.0)]})
        report = construct(tree, PayoffProcess(**tables), eta=0.25)
        assert [(c.label, c.node) for c in report.case_trace] == [("A6", "r"), (label, "q")]

    def test_gaps_stay_within_eta_on_generated_games(self):
        # the 13 * eta bound of verify's default threshold is loose: every
        # construct here certifies within eta + tol
        for family in FAMILIES:
            for depth in range(2, 7):
                for seed in range(30):
                    tree, payoffs = generate(GeneratorSpec(family=family, depth=depth, branching=3, seed=seed))
                    for eta in (0.05, 0.2, 0.5, 1.0):
                        report = construct(tree, payoffs, eta=eta)
                        assert max(report.gap1, report.gap2) <= eta + report.tol, (family, depth, seed, eta)

    def test_gaps_stay_within_eta_under_a_seeded_hill_climb(self):
        # from 150 small games, one payoff at a time takes a Gaussian step,
        # kept unless gap / eta falls: the climb seeks the largest gap the
        # construction allows, and every construct on the way stays within
        # eta + tol
        fields = [field for _, field in core.PAYOFF_TABLES]
        worst = 0.0
        for k in range(150):
            family, depth, branching = FAMILIES[k % 3], 1 + k // 3 % 3, 1 + k // 9 % 3
            eta = (0.05, 0.2, 0.5)[k // 27 % 3]
            tree, payoffs = generate(GeneratorSpec(family=family, depth=depth, branching=branching, seed=k))
            rng = random.Random(k)
            best = -1.0
            for step in range(26):
                if step:  # step 0 is the generated game
                    table = getattr(payoffs, rng.choice(fields))
                    node = rng.choice(list(table))
                    old = table[node]
                    table[node] = old + rng.gauss(0.0, 0.3)
                report = construct(tree, payoffs, eta=eta)
                gap = max(report.gap1, report.gap2)
                assert gap <= eta + report.tol, (family, depth, branching, k, eta, step)
                if gap / eta >= best:
                    best = gap / eta
                else:
                    table[node] = old
            worst = max(worst, best)
        assert worst > 0.5  # the climb reaches the bound's neighbourhood

    def test_masked_stop_survives_a_tempting_simultaneous_payoff(self):
        # If the stopper used a bare atom here, the opponent could collide
        # with it for 10 instead of 0; the delay removes that deviation.
        tree = EventTree.build("r", {"r": [("q", 1.0)]})
        payoffs = PayoffProcess(
            x1={"r": 0.0, "q": 1.0},
            y1={"r": 2.0, "q": 0.0},
            z1={"r": 0.0, "q": 1.0},
            x2={"r": 0.0, "q": 0.0},
            y2={"r": -1.0, "q": -1.0},
            z2={"r": 0.0, "q": 10.0},
            xi1={"q": 0.0},
            xi2={"q": 0.0},
        )
        report = construct(tree, payoffs, eta=0.05)
        labels = [c.label for c in report.case_trace]
        assert labels[0] == "A6" and "A61" in labels
        assert max(report.gap1, report.gap2) <= 0.05 + report.tol

    def test_all_hit_subcases_in_one_instance(self):
        # one child per region: masked stops, a tie broken three ways, and a
        # never-stopping branch; all payoffs dyadic so values are exact
        tree = EventTree.build(
            "r",
            {"r": [("a", 0.125), ("b", 0.125), ("c", 0.125), ("d", 0.125), ("e", 0.25), ("f", 0.25)]},
        )
        payoffs = PayoffProcess(
            x1={"r": 0.0, "a": 1.0, "b": 0.0, "c": 1.0, "d": 1.0, "e": 1.0, "f": 0.0},
            y1={"r": 2.0, "a": 1.0, "b": 1.0, "c": 2.0, "d": 0.0, "e": 0.0, "f": 2.0},
            z1={"r": 0.0, "a": 0.0, "b": 0.0, "c": 0.0, "d": 1.0, "e": 2.0, "f": 2.0},
            x2={"r": 2.0, "a": 1.0, "b": 1.0, "c": 0.0, "d": 2.0, "e": 0.0, "f": 2.0},
            y2={"r": 0.0, "a": 0.0, "b": 1.0, "c": 1.0, "d": 1.0, "e": 1.0, "f": 0.0},
            z2={"r": 0.0, "a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0, "e": 2.0, "f": 2.0},
            xi1={"a": 0.0, "b": 1.0, "c": 0.0, "d": 0.0, "e": 0.0, "f": 1.0},
            xi2={"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0, "e": 0.0, "f": 1.0},
        )
        report = construct(tree, payoffs, eta=0.05)
        by_node = {c.node: c.label for c in report.case_trace if c.label != "A6"}
        assert report.case_trace[0].label == "A6"
        assert by_node == {"a": "A61", "b": "A62", "c": "A64", "d": "A65", "e": "A66", "f": "A63"}
        assert report.payoff == PayoffPair(1.375, 1.375)
        assert max(report.gap1, report.gap2) <= 0.05 + report.tol

    def test_report_carries_split_bookkeeping(self):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, 0.1, 0.6, 0.3, 0.2)
        report = construct(tree, payoffs, eta=0.05)
        assert tree.root in report.second_half
        assert report.tree.horizon > tree.horizon

    def test_split_adds_one_frame_at_the_root_and_one_at_each_antichain_node(self):
        # One frame at the root and one at each of the eight antichain nodes,
        # which cover every path: 319 + 9 nodes, horizon 6 + 2.
        tree, payoffs = generate(GeneratorSpec(family="random", depth=6, branching=3, seed=56))
        report = construct(tree, payoffs, eta=0.05)
        trace = [(c.label, c.node) for c in report.case_trace]
        assert trace == [
            ("A6", "n0"), ("A64", "n2"), ("A62", "n4"), ("A65", "n5"), ("A64", "n9"),
            ("A64", "n10"), ("A64", "n17"), ("A65", "n39"), ("A65", "n40"),
        ]
        assert (len(tree.nodes), tree.horizon) == (319, 6)
        assert (len(report.tree.nodes), report.tree.horizon) == (328, 8)
        assert report.second_half == {q: q + "b" for _, q in trace}
        assert (report.gap1, report.gap2) == (0.0, 0.0)
        assert report.payoff == PayoffPair(0.45043497836402735, 0.5179488917067716)

    def test_a6_stops_sit_at_the_first_nodes_of_either_hitting_antichain(self):
        # below an A6 root, construct stops at the first node per path where
        # either player hits: the nodes it labels A61..A66 are, in
        # breadth-first order, the nodes of the union of the two
        # hitting_time antichains with no ancestor in that union, and the
        # leaves it labels A63 are those with no node of the union on their
        # root path, themselves included
        stops = {"A61", "A62", "A64", "A65", "A66"}
        games = 0
        for family in FAMILIES:
            for depth in (2, 3, 4):
                for seed in range(40):
                    tree, payoffs = generate(GeneratorSpec(family=family, depth=depth, branching=3, seed=seed))
                    for eta in (0.05, 0.3):
                        report = construct(tree, payoffs, eta)
                        if report.case_trace[0].label != "A6":
                            continue
                        tol = payoffs.tolerance()
                        union = set()
                        for player in (1, 2):
                            value = solve_value_process(tree, payoffs, player)
                            union |= set(hitting_time(tree, payoffs, value, eta, tol).antichain)
                        first, never = [], []
                        parent = parents(tree)
                        for node in tree.nodes:
                            up = parent[node]
                            while up is not None and up not in union:
                                up = parent[up]
                            if up is None and node in union:
                                first.append(node)
                            elif up is None and tree.is_leaf(node):
                                never.append(node)
                        assert [c.node for c in report.case_trace if c.label in stops] == first
                        assert [c.node for c in report.case_trace if c.label == "A63"] == never
                        games += 1
        assert games >= 50

    @pytest.mark.parametrize("root_case", ["A1", "A6", "M1"])
    def test_solves_each_value_process_once(self, monkeypatch, root_case):
        tree = uniform_tree(2)
        payoffs = {
            "A1": constant_payoffs(tree, 0.3, 0.3, 0.3, 0.3, zero_sum=False),
            "A6": constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0),
            "M1": constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False),
        }[root_case]
        calls = []
        classified = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return solve_value_process(*args, **kwargs)

        def counted_classify(*args, **kwargs):
            classified.append(args[0])
            return classify(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "solve_value_process", counted)
        monkeypatch.setattr(equilibrium, "classify", counted_classify)
        report = construct(tree, payoffs, eta=0.05)
        assert report.case_trace[0].label == root_case
        assert calls == [1, 2]
        assert classified == [tree]

    @pytest.mark.parametrize("root_case", ["A1", "A6", "M1"])
    def test_certifies_in_one_pass(self, monkeypatch, root_case):
        # the certifying pass evaluates the profile and both best responses
        # itself; the one-program references stay off the construct path, and
        # so does the profile check: construct built the profile it certifies
        tree = uniform_tree(2)
        payoffs = {
            "A1": constant_payoffs(tree, 0.3, 0.3, 0.3, 0.3, zero_sum=False),
            "A6": constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0),
            "M1": constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False),
        }[root_case]
        calls = Counter()
        modules = (dynkin, core, equilibrium, verify, zerosum)
        for home, name in (
            (core, "evaluate_profile"),
            (core, "evaluate_profile_table"),
            (verify, "best_response"),
            (core, "split_frames"),
            (core, "validate_profile"),
        ):
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        report = construct(tree, payoffs, eta=0.05)
        assert report.case_trace[0].label == root_case
        assert calls == {"split_frames": 1}

    def test_every_built_profile_passes_the_check_it_skips(self):
        # construct certifies the profile it built without checking it again
        # (verify._certify): the profile check finds nothing on any report,
        # pure or not, over the golden games and generated games of all three
        # families, whose roots reach the A and M chains and A6, with paths
        # that never hit padded to the split horizon (A63)
        games = [golden_game(seed) for seed in range(GAMES)]
        for family in FAMILIES:
            for depth in (2, 3, 4):
                for seed in range(8):
                    for convexity in (False, True):
                        spec = GeneratorSpec(family=family, depth=depth, branching=3, seed=seed, convexity=convexity)
                        games.append(generate(spec))
        labels, padded = Counter(), 0
        for tree, payoffs in games:
            for build in (construct, construct_pure):
                try:
                    report = build(tree, payoffs, 0.05)
                except ConvexityError:
                    assert build is construct_pure
                    continue
                assert validate_profile(report.tree, report.profile) == []
                labels.update(c.label for c in report.case_trace)
                padded += sum(1 for c in report.case_trace if c.label == "A63" and report.tree.children.get(c.node))
        assert set(labels) >= {"A1", "A2", "A3", "A4", "M1", "M2", "M4", "A6", "A61", "A62", "A63", "A64", "A65", "A66"}
        assert padded >= 100

    def test_validates_the_instance_once(self, monkeypatch):
        tree = uniform_tree(2)
        calls = []

        def counted(*args):
            calls.append(args)
            return validate_instance(*args)

        monkeypatch.setattr(core, "validate_instance", counted)
        for payoffs, root_case in (
            (constant_payoffs(tree, 0.3, 0.3, 0.3, 0.3, zero_sum=False), "A1"),
            (constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0), "A6"),
            (constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False), "M1"),
        ):
            calls.clear()
            report = construct(tree, payoffs, eta=0.05)
            assert report.case_trace[0].label == root_case
            assert calls == [(tree, payoffs)]

    def test_gaps_converge_with_eta(self, capsys):
        # convergence to zero is required; monotonicity along the sequence is
        # measured and logged only (case boundaries can move with eta)
        instances = corpus(30, seed0=600, depth_hi=5)
        etas = (0.2, 0.1, 0.05, 0.01)
        gaps = {
            eta: [max(construct(t, p, eta=eta).gap1, construct(t, p, eta=eta).gap2) for t, p in instances]
            for eta in etas
        }
        assert max(gaps[0.01]) <= 0.01 + 1e-6
        non_monotone = sum(
            1
            for k in range(len(instances))
            if any(gaps[etas[i + 1]][k] > gaps[etas[i]][k] + 1e-9 for i in range(len(etas) - 1))
        )
        with capsys.disabled():
            print(f"\n[eta sweep] non-monotone instances: {non_monotone}/{len(instances)}")


class TestConstructPure:
    def test_profile_is_deterministic(self):
        for tree, payoffs in corpus(15, seed0=700, depth_hi=4, convexity=True):
            report = construct_pure(tree, payoffs, eta=0.05)
            for side in (report.profile.player1, report.profile.player2):
                for mix in side.values():
                    assert mix in (ATOM_MIX, WAIT_MIX)
            bound = 13 * 0.05 + 1e-6 * max(1.0, payoffs.payoff_range)
            assert report.gap1 <= bound and report.gap2 <= bound

    def test_rejects_a_uniform_stop_in_a_pure_profile(self, monkeypatch):
        # every entry of a uniform stop is 0 or 1, yet it is a randomized
        # stopping time: a punishment that places one must not pass as pure
        def uniform_punishment(tree, node, value):
            return {n: UNIFORM_MIX for n in tree.walk(node)}

        tree, payoffs = generate(GeneratorSpec(depth=3, branching=2, seed=0, convexity=True))
        assert _classify(tree, payoffs).label == "A1"
        monkeypatch.setattr(equilibrium, "punishment_strategy", uniform_punishment)
        with pytest.raises(ModelViolationError, match=r"node n0b: stage mix \(0\.0, 1\.0, 0\.0\) is neither a pure stop nor a wait"):
            construct_pure(tree, payoffs, eta=0.05)

    def test_a_tolerated_z_above_max_x_y_is_a_convexity_error(self):
        # Z1 tops max(X1, Y1) by 1e-12, within the default tol, so the gate
        # lets the game through; player 2's punishment at the copy would be
        # a uniform stop, which a pure profile cannot hold
        tree, payoffs = single_node_payoffs(
            x1=1.0 - 1e-12, y1=1.0, z1=1.0 + 1e-12, xi1=2.0, x2=0.5, y2=0.0, z2=0.2, xi2=0.0
        )
        report = construct(tree, payoffs, eta=0.05)
        assert report.case_trace[0].label == "A1" and report.profile.player2["n0b"] == UNIFORM_MIX
        with pytest.raises(ConvexityError, match=r"^node n0: Z1=1\.000000000001 above max\(X1, Y1\)=1\.0, so player 2 punishes"):
            construct_pure(tree, payoffs, eta=0.05)

    def test_a_uniform_minimizer_mix_comes_only_with_z_above_max_x_y(self):
        # the stage value picks the uniform column only when max(X, Y) is
        # below max(Y, Z), so Z tops max(X, Y) at every node where a value
        # process's minimizer, a punisher, mixes uniformly
        uniform = 0
        for family in FAMILIES:
            for zero_sum in (False, True):
                for seed in range(20):
                    tree, payoffs = generate(GeneratorSpec(family=family, depth=3, branching=3, zero_sum=zero_sum, seed=seed))
                    for player in (1, 2):
                        stop, opp, sim, _ = payoffs.side(player)
                        for node, mix in solve_value_process(tree, payoffs, player).min_mix.items():
                            if mix == UNIFORM_MIX:
                                uniform += 1
                                assert sim[node] > max(stop[node], opp[node]), (family, zero_sum, seed, player, node)
        assert uniform > 100

    def test_constant_game(self):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, 0.4, 0.4, 0.4, 0.4, zero_sum=False)
        report = construct_pure(tree, payoffs, eta=0.05)
        assert max(report.gap1, report.gap2) <= report.tol

    def test_validates_before_checking_convexity(self):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, 0.4, 0.4, 0.4, 0.4, zero_sum=False)
        del payoffs.z2["n1"]
        with pytest.raises(InstanceError, match="n1: missing payoff Z2"):
            construct_pure(tree, payoffs, eta=0.05)

    def test_rejects_nonconvex_instances(self):
        tree, payoffs = single_node_payoffs(
            x1=1.0, y1=0.0, z1=0.5, xi1=0.0, x2=0.0, y2=1.0, z2=3.0, xi2=0.0
        )
        with pytest.raises(ConvexityError, match="player 2"):
            construct_pure(tree, payoffs, eta=0.05)


# ---------------------------------------------------------------------------
# Metamorphic properties: relabelling the tree leaves the construction alone

_PAYOFF_TABLES = ("x1", "y1", "z1", "x2", "y2", "z2", "xi1", "xi2")


@st.composite
def _games(draw):
    convexity = draw(st.booleans())
    spec = GeneratorSpec(
        family=draw(st.sampled_from(("random", "war-of-attrition", "preemption"))),
        depth=draw(st.integers(1, 5)),
        branching=3,
        seed=draw(st.integers(0, 10**6)),
        convexity=convexity,
    )
    return (*generate(spec), convexity, draw(st.sampled_from((0.05, 0.2))))


def _relabelled(tree, payoffs, name, order):
    """The game with node ``n`` called ``name[n]`` and each child list
    reordered by ``order``."""
    children = {name[n]: [(name[c], p) for c, p in order(kids)] for n, kids in tree.children.items()}
    tables = {t: {name[n]: v for n, v in getattr(payoffs, t).items()} for t in _PAYOFF_TABLES}
    return EventTree.build(name[tree.root], children), PayoffProcess(**tables)


def _builds(convexity):
    return (construct, construct_pure) if convexity else (construct,)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_games(), st.randoms(use_true_random=False))
def test_renaming_every_node_leaves_the_construction_unchanged(game, rng):
    tree, payoffs, convexity, eta = game
    names = list(tree.nodes)
    rng.shuffle(names)
    name = dict(zip(tree.nodes, (f"m{n}" for n in names)))
    rtree, rpayoffs = _relabelled(tree, payoffs, name, list)
    for build in _builds(convexity):
        report, renamed = build(tree, payoffs, eta), build(rtree, rpayoffs, eta)
        assert [(c.label, name[c.node]) for c in report.case_trace] == [(c.label, c.node) for c in renamed.case_trace]
        assert list(map(float.hex, report.payoff)) == list(map(float.hex, renamed.payoff))
        for cert, rcert in zip(report.certificates, renamed.certificates):
            assert list(map(float.hex, _certificate_fields(cert)[:4])) == list(map(float.hex, _certificate_fields(rcert)[:4]))


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_games(), st.randoms(use_true_random=False))
def test_permuting_children_leaves_the_construction_unchanged(game, rng):
    tree, payoffs, convexity, eta = game
    ptree, ppayoffs = _relabelled(tree, payoffs, {n: n for n in tree.nodes}, lambda kids: rng.sample(kids, len(kids)))
    tol = 1e-9 * max(1.0, payoffs.payoff_range)
    for build in _builds(convexity):
        report, permuted = build(tree, payoffs, eta), build(ptree, ppayoffs, eta)
        assert {(c.label, c.node) for c in report.case_trace} == {(c.label, c.node) for c in permuted.case_trace}
        assert abs(report.gap1 - permuted.gap1) <= tol and abs(report.gap2 - permuted.gap2) <= tol
        assert abs(report.payoff.g1 - permuted.payoff.g1) <= tol and abs(report.payoff.g2 - permuted.payoff.g2) <= tol


# ---------------------------------------------------------------------------
# Metamorphic property: a power-of-two change of payoff units


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(_games(), st.sampled_from((-3, 1, 4)))
def test_scaling_payoffs_by_a_power_of_two_scales_the_construction(game, k):
    # every step is a product, sum or comparison that a = 2**k carries
    # through exactly, so only the payoff unit changes
    tree, payoffs, convexity, eta = game
    a = 2.0**k
    tol = payoffs.tolerance()
    scaled = PayoffProcess(**{t: {n: a * v for n, v in getattr(payoffs, t).items()} for t in _PAYOFF_TABLES})
    for build in _builds(convexity):
        report, big = build(tree, payoffs, eta, tol), build(tree, scaled, a * eta, a * tol)
        assert [(c.label, c.node) for c in report.case_trace] == [(c.label, c.node) for c in big.case_trace]
        assert report.profile == big.profile and report.second_half == big.second_half
        assert [(a * g).hex() for g in report.payoff] == list(map(float.hex, big.payoff))
        for cert, bcert in zip(report.certificates, big.certificates):
            assert [(a * f).hex() for f in _certificate_fields(cert)[:4]] == list(map(float.hex, _certificate_fields(bcert)[:4]))
            assert cert.strategy == bcert.strategy
