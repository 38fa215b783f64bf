"""Best-response DP, deviation gaps, brute-force oracles, invariant runner."""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin import (
    BehavioralProfile,
    EventTree,
    GeneratorSpec,
    ModelViolationError,
    PayoffProcess,
    StageAction,
    best_response,
    brute_force_best_response,
    brute_force_payoff,
    brute_force_value,
    check_invariants,
    construct,
    deviation_gap,
    evaluate_profile,
    evaluate_profile_table,
    generate,
    solve_value_process,
    split_frame,
    validate_instance,
)
from dynkin import core, verify, zerosum
from dynkin.toolkit import FAMILIES
from dynkin.core import ATOM_MIX, UNIFORM_MIX, WAIT_MIX
from dynkin.verify import _stop_rules

from helpers import (
    DYADIC_MIXES,
    DYADIC_SHAPES,
    constant_payoffs,
    corpus,
    dyadic_instance,
    dyadic_mixes,
    extend_profile,
    poisoned_deviator_lines,
    reference_stage_matrices,
    root_call,
    single_node_payoffs,
    uniform_tree,
)


class TestBestResponse:
    def test_waiting_opponent_single_frame(self):
        tree, payoffs = single_node_payoffs(0.0, 0.0, 0.0, 1.0, 0, 0, 0, 0)
        values, strategy = best_response(tree, payoffs, {"n0": WAIT_MIX}, deviator=1)
        assert values["n0"] == 1.0
        assert strategy["n0"] is StageAction.WAIT

    def test_avoiding_the_opponent_atom(self):
        tree, payoffs = single_node_payoffs(0.0, 2.0, 0.0, 0.0, 0, 0, 0, 0)
        values, strategy = best_response(tree, payoffs, {"n0": ATOM_MIX}, deviator=1)
        assert values["n0"] == 2.0
        assert strategy["n0"] in (StageAction.EARLY, StageAction.LATE, StageAction.WAIT)

    def test_beating_the_delay(self):
        tree, payoffs = single_node_payoffs(1.0, 0.0, 0.0, 0.0, 0, 0, 0, 0)
        values, _ = best_response(tree, payoffs, {"n0": UNIFORM_MIX}, deviator=1)
        assert values["n0"] == 1.0

    def test_tie_break_prefers_earlier_action(self):
        tree, payoffs = single_node_payoffs(1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
        _, strategy = best_response(tree, payoffs, {"n0": WAIT_MIX}, deviator=1)
        assert strategy["n0"] is StageAction.ATOM

    @pytest.mark.parametrize("deviator", [0, 3])
    def test_rejects_a_bad_player_index(self, deviator):
        tree, payoffs = single_node_payoffs(1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {deviator}"):
            best_response(tree, payoffs, {"n0": WAIT_MIX}, deviator)


class TestDeviationGap:
    def test_simultaneous_stop_equilibrium_has_zero_gaps(self):
        tree, payoffs = single_node_payoffs(
            x1=0.5, y1=0.5, z1=1.0, xi1=0.0, x2=0.0, y2=0.5, z2=1.0, xi2=0.0
        )
        profile = BehavioralProfile(player1={"n0": ATOM_MIX}, player2={"n0": ATOM_MIX})
        cert1, cert2 = deviation_gap(tree, payoffs, profile)
        assert cert1.gap == 0.0 and cert2.gap == 0.0

    def test_flags_a_non_equilibrium(self):
        # player 2's stop-first payoff beats waiting out the terminal payoff
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False)
        profile = BehavioralProfile.waiting(tree)
        cert1, cert2 = deviation_gap(tree, payoffs, profile)
        assert cert1.gap == 0.0  # stopping first would pay player 1 nothing
        assert cert2.best_response_value == 2.0 and cert2.path_value == 1.0
        assert cert2.gap == 1.0

    def test_gap_never_negative(self):
        for tree, payoffs in corpus(10, seed0=800, depth_hi=4):
            profile = BehavioralProfile(
                player1=dyadic_mixes(tree, 5), player2=dyadic_mixes(tree, 6)
            )
            cert1, cert2 = deviation_gap(tree, payoffs, profile)
            assert cert1.gap >= 0.0 and cert2.gap >= 0.0
            assert cert1.gap >= cert1.raw_gap

    @pytest.mark.parametrize("source", ["evaluate_profile", "best_response"])
    def test_non_finite_raw_gap_is_a_model_violation(self, monkeypatch, source):
        # max(0.0, nan) is 0.0: a NaN gap must raise, never certify as zero;
        # an infinite best response must raise too, never certify as a gap.
        # The profile's value gets a NaN wait line, the best response an
        # infinite reply line, which every other line loses to.
        line, poison = {"evaluate_profile": (3, math.nan), "best_response": (4, math.inf)}[source]
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False)
        monkeypatch.setattr(verify, "deviator_lines", poisoned_deviator_lines(root_call(tree, 1), line, poison))
        with pytest.raises(ModelViolationError, match=f"player 1: deviation gap {poison!r} is not finite"):
            deviation_gap(tree, payoffs, BehavioralProfile.waiting(tree))

    @pytest.mark.parametrize("player", [1, 2])
    @pytest.mark.parametrize("line", range(5), ids=["atom", "early", "late", "wait", "reply"])
    def test_a_nan_line_at_the_root_is_a_model_violation(self, monkeypatch, line, player):
        # every line, the best reply's own wait line included, reaches the
        # non-finite-gap test: none certifies a gap of 0.0
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False)
        monkeypatch.setattr(verify, "deviator_lines", poisoned_deviator_lines(root_call(tree, player), line, math.nan))
        with pytest.raises(ModelViolationError, match=f"player {player}: deviation gap nan is not finite"):
            deviation_gap(tree, payoffs, BehavioralProfile.waiting(tree))

    @pytest.mark.parametrize("line", [0, 1, 2, 4], ids=["atom", "early", "late", "wait"])
    def test_best_response_rejects_a_nan_line(self, monkeypatch, line):
        # one deviator_lines call per node, the root's last; the reference
        # reads its wait line from the fifth line
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False)
        monkeypatch.setattr(verify, "deviator_lines", poisoned_deviator_lines(len(tree.nodes) - 1, line, math.nan))
        with pytest.raises(ModelViolationError, match=f"player 1: best-response lines .* at node {tree.root} are not all finite"):
            best_response(tree, payoffs, BehavioralProfile.waiting(tree).player2, 1)


def _certificate_hex(certificates):
    """Every certificate field, floats as ``float.hex``."""
    return [
        (c.player, c.best_response_value.hex(), c.path_value.hex(), c.gap.hex(), c.raw_gap.hex(), list(c.strategy.items()))
        for c in certificates
    ]


def _reference_certificates(tree, payoffs, profile):
    """The certificates from the one-program references: the profile's value
    from ``evaluate_profile_table`` and each best response from ``best_response``."""
    pair = evaluate_profile_table(tree, payoffs, profile)[tree.root]
    out = []
    for player, path_value in ((1, pair.g1), (2, pair.g2)):
        values, strategy = best_response(tree, payoffs, profile.side(3 - player), player)
        raw = values[tree.root] - path_value
        out.append(
            (player, values[tree.root].hex(), path_value.hex(), max(0.0, raw).hex(), raw.hex(), list(strategy.items()))
        )
    return out


def _random_mixes(tree, seed):
    rng = random.Random(seed)
    out = {}
    for node in tree.nodes:
        a, u, w = rng.random(), rng.random(), rng.random()
        total = a + u + w
        out[node] = (a / total, u / total, w / total)
    return out


def _pure_mixes(tree, seed):
    rng = random.Random(seed)
    return {node: rng.choice((ATOM_MIX, UNIFORM_MIX, WAIT_MIX)) for node in tree.nodes}


def _waiting_mixes(tree, seed):
    # every stop line ties while the opponent waits: the earliest action wins
    return {node: WAIT_MIX for node in tree.nodes}


class TestFusedPass:
    """``deviation_gap`` runs both dynamic programs for both players in one
    pass; it must equal the references bit for bit, field by field."""

    @pytest.mark.parametrize("mixes", [_waiting_mixes, _pure_mixes, dyadic_mixes, _random_mixes])
    def test_equals_the_references_on_generated_profiles(self, mixes):
        for k, (tree, payoffs) in enumerate(corpus(24, seed0=900, depth_hi=5)):
            profile = BehavioralProfile(player1=mixes(tree, 2 * k), player2=mixes(tree, 2 * k + 1))
            assert _certificate_hex(deviation_gap(tree, payoffs, profile)) == _reference_certificates(
                tree, payoffs, profile
            )

    def test_equals_the_references_on_constructed_reports(self):
        roots = set()
        for tree, payoffs in corpus(60, seed0=0, depth_hi=5):
            for eta in (0.05, 0.2):
                report = construct(tree, payoffs, eta)
                label = report.case_trace[0].label
                roots.add(label if label == "A6" else label[0])
                assert _certificate_hex(report.certificates) == _reference_certificates(
                    report.tree, report.payoffs, report.profile
                )
        assert roots == {"A", "A6", "M"}


class TestBruteForce:
    def test_refuses_large_trees(self):
        tree = uniform_tree(4)  # 31 nodes
        payoffs = constant_payoffs(tree, 0, 0, 0, 0)
        with pytest.raises(ValueError, match="refused"):
            brute_force_payoff(tree, payoffs, BehavioralProfile.waiting(tree))

    def test_stop_rule_counts_per_shape(self):
        # (atom, uniform) rules for the payoff, (atom, early, late) for the rest
        counts = []
        for shape in DYADIC_SHAPES:
            tree = EventTree.build("r", shape)
            counts.append(
                tuple(
                    sum(1 for _ in _stop_rules(tree, tree.root, actions))
                    for actions in (
                        (StageAction.ATOM, StageAction.UNIFORM),
                        (StageAction.ATOM, StageAction.EARLY, StageAction.LATE),
                    )
                )
            )
        assert counts == [
            (3, 4), (5, 7), (7, 10), (11, 19), (11, 19),
            (29, 67), (13, 22), (27, 52), (123, 364), (57, 136),
        ]

    @pytest.mark.parametrize("player", [0, 3])
    def test_value_rejects_a_bad_player_index(self, player):
        tree, payoffs = single_node_payoffs(1, 2, 3, 4, -1, -2, -3, -4)
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {player}"):
            brute_force_value(tree, payoffs, player)

    @pytest.mark.parametrize("deviator", [0, 3])
    def test_best_response_rejects_a_bad_player_index(self, deviator):
        tree, payoffs = single_node_payoffs(1, 2, 3, 4, -1, -2, -3, -4)
        with pytest.raises(ValueError, match=f"player must be 1 or 2, got {deviator}"):
            brute_force_best_response(tree, payoffs, {"n0": WAIT_MIX}, deviator)

    def test_single_node_atoms_match(self):
        tree, payoffs = single_node_payoffs(1, 2, 3, 4, -1, -2, -3, -4)
        profile = BehavioralProfile(player1={"n0": ATOM_MIX}, player2={"n0": ATOM_MIX})
        assert brute_force_payoff(tree, payoffs, profile) == evaluate_profile(
            tree, payoffs, profile
        )

    @pytest.mark.parametrize("shape_index", range(len(DYADIC_SHAPES)))
    def test_profile_evaluation_matches_exactly(self, shape_index):
        for seed in range(4):
            tree, payoffs = dyadic_instance(DYADIC_SHAPES[shape_index], seed)
            profile = BehavioralProfile(
                player1=dyadic_mixes(tree, seed + 40),
                player2=dyadic_mixes(tree, seed + 80),
            )
            assert brute_force_payoff(tree, payoffs, profile) == evaluate_profile(
                tree, payoffs, profile
            )

    @pytest.mark.parametrize("shape_index", range(len(DYADIC_SHAPES)))
    def test_best_response_matches_exactly(self, shape_index):
        for seed in range(4):
            tree, payoffs = dyadic_instance(DYADIC_SHAPES[shape_index], seed)
            for deviator in (1, 2):
                opponent = dyadic_mixes(tree, seed + deviator)
                values, _ = best_response(tree, payoffs, opponent, deviator)
                assert values[tree.root] == brute_force_best_response(
                    tree, payoffs, opponent, deviator
                )

    @pytest.mark.parametrize("shape_index", range(len(DYADIC_SHAPES)))
    def test_zero_sum_value_matches_exactly(self, shape_index):
        for seed in range(4):
            tree, payoffs = dyadic_instance(DYADIC_SHAPES[shape_index], seed)
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                assert process.value[tree.root] == brute_force_value(tree, payoffs, player)

    def test_oracle_floats_are_pinned_off_dyadic_inputs(self):
        # The exact tests above use dyadic inputs, on which a reordered sum or
        # product rounds the same, and the float test compares within a
        # tolerance.  So one SHA-256 over every oracle float, as float.hex,
        # pins each oracle's arithmetic order, with seeded non-dyadic mixes:
        # all three oracles on generated games of at most 7 nodes, then the
        # payoff and both best responses on 10-node trees whose deepest paths
        # cross three branching edges, the fewest on which the order of a
        # path's probability product shows.
        digest = hashlib.sha256()
        games = []
        for seed in range(36):
            spec = GeneratorSpec(family=FAMILIES[seed % 3], depth=1 + seed % 3, branching=2, seed=7100 + seed)
            tree, payoffs = generate(spec)
            if len(tree.nodes) <= 7:
                games.append((tree, payoffs, True))
        for seed in range(4):
            rng = random.Random(seed)
            children = {}
            for node, kids in {"r": "ab", "a": "cd", "b": "e", "c": "fg", "d": "h", "e": "i"}.items():
                p = rng.uniform(0.2, 0.8)
                children[node] = [(kids[0], p), (kids[1], 1.0 - p)] if len(kids) == 2 else [(kids, 1.0)]
            tree = EventTree.build("r", children)
            tables = {k: {n: rng.uniform(-1, 1) for n in tree.nodes} for k in ("x1", "y1", "z1", "x2", "y2", "z2")}
            terms = {k: {n: rng.uniform(-1, 1) for n in tree.leaves} for k in ("xi1", "xi2")}
            games.append((tree, PayoffProcess(**tables, **terms), False))
        assert len(games) == 34
        for k, (tree, payoffs, small) in enumerate(games):
            profile = BehavioralProfile(player1=_random_mixes(tree, 2 * k), player2=_random_mixes(tree, 2 * k + 1))
            floats = [*brute_force_payoff(tree, payoffs, profile)]
            floats += [brute_force_best_response(tree, payoffs, profile.side(3 - i), i) for i in (1, 2)]
            if small:  # the value oracle squares the rule count, about 1,400 on the deep trees
                floats += [brute_force_value(tree, payoffs, i) for i in (1, 2)]
            digest.update(" ".join(map(float.hex, floats)).encode() + b"\n")
        assert digest.hexdigest() == ORACLE_SHA256

    def test_float_instances_agree_within_tolerance(self):
        # general float payoffs: agreement within the scaled tolerance
        from dynkin import GeneratorSpec, generate

        for seed in range(6):
            tree, payoffs = generate(GeneratorSpec(depth=2, branching=2, seed=7000 + seed))
            if len(tree.nodes) > 10:
                continue
            tol = payoffs.tolerance()
            profile = BehavioralProfile(
                player1=dyadic_mixes(tree, seed), player2=dyadic_mixes(tree, seed + 1)
            )
            ev = evaluate_profile(tree, payoffs, profile)
            bf = brute_force_payoff(tree, payoffs, profile)
            assert abs(ev.g1 - bf.g1) <= tol and abs(ev.g2 - bf.g2) <= tol
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                assert abs(process.value[tree.root] - brute_force_value(tree, payoffs, player)) <= tol


# The oracle digest of ``test_oracle_floats_are_pinned_off_dyadic_inputs``.
ORACLE_SHA256 = "2e195ddc9a9cfb8a01891a1824771bca5e46fe30109b477257f6964681f609d1"


@st.composite
def dyadic_games(draw, max_nodes: int = 6):
    """A tree of at most ``max_nodes`` nodes with a uniform horizon, child
    probabilities in quarters, payoffs in eighths and dyadic mixes."""
    horizon = draw(st.integers(0, 3))
    names = iter("abcdefghij")
    children: dict[str, list[tuple[str, float]]] = {}
    frontier, count = ["r"], 1
    for level in range(horizon):
        budget = (max_nodes - count) // (horizon - level)  # each later level is as wide
        nxt: list[str] = []
        for k, node in enumerate(frontier):
            spare = budget - len(nxt) - (len(frontier) - k - 1)
            width = draw(st.integers(1, min(4, spare)))
            cuts = sorted(draw(st.lists(st.integers(1, 3), min_size=width - 1, max_size=width - 1, unique=True)))
            kids = [next(names) for _ in range(width)]
            children[node] = [(kid, (hi - lo) / 4) for kid, lo, hi in zip(kids, [0] + cuts, cuts + [4])]
            nxt.extend(kids)
        count += len(nxt)
        frontier = nxt
    tree = EventTree.build("r", children)
    eighths = st.integers(-16, 16).map(lambda k: k / 8)
    tables = {key: {n: draw(eighths) for n in tree.nodes} for key in ("x1", "y1", "z1", "x2", "y2", "z2")}
    terminal = {key: {n: draw(eighths) for n in tree.leaves} for key in ("xi1", "xi2")}
    mixes = st.sampled_from(DYADIC_MIXES)
    profile = BehavioralProfile(
        player1={n: draw(mixes) for n in tree.nodes}, player2={n: draw(mixes) for n in tree.nodes}
    )
    return tree, PayoffProcess(**tables, **terminal), profile


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(dyadic_games())
def test_oracles_equal_the_dynamic_programs_on_random_dyadic_trees(game):
    tree, payoffs, profile = game
    certificates = deviation_gap(tree, payoffs, profile)
    pair = brute_force_payoff(tree, payoffs, profile)
    assert pair == evaluate_profile(tree, payoffs, profile)
    assert pair == (certificates[0].path_value, certificates[1].path_value)
    for deviator in (1, 2):
        opponent = profile.side(3 - deviator)
        values, _ = best_response(tree, payoffs, opponent, deviator)
        oracle = brute_force_best_response(tree, payoffs, opponent, deviator)
        assert values[tree.root] == oracle == certificates[deviator - 1].best_response_value
    for player in (1, 2):
        process = solve_value_process(tree, payoffs, player)
        assert process.value[tree.root] == brute_force_value(tree, payoffs, player)


class TestInvariantRunner:
    def test_flat_instance_passes(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0)
        report = check_invariants(tree, payoffs, eta=0.5)
        assert report.all_pass, [c.name for c in report.failures()]
        v1 = solve_value_process(tree, payoffs, 1)
        assert all(v == 1.0 for v in v1.value.values())

    def test_constant_game_passes(self):
        tree = uniform_tree(2)
        payoffs = constant_payoffs(tree, 0.3, 0.3, 0.3, 0.3)
        assert check_invariants(tree, payoffs, eta=0.1).all_pass

    def test_corpus_passes(self):
        for tree, payoffs in corpus(10, seed0=900, depth_hi=4):
            report = check_invariants(tree, payoffs, eta=0.2)
            assert report.all_pass, [(c.name, c.worst, c.witness) for c in report.failures()]

    def test_validates_the_input_and_each_split_tree_once(self, monkeypatch):
        tree, payoffs = generate(GeneratorSpec(depth=4, branching=3, seed=0))
        checked = []

        def counted(t, p):
            checked.append(len(t.nodes))
            return validate_instance(t, p)

        monkeypatch.setattr(core, "validate_instance", counted)
        assert check_invariants(tree, payoffs, eta=0.2).all_pass
        assert checked == [len(tree.nodes), 2 * len(tree.nodes)]

    def test_split_invariance_compares_every_node_and_its_copy(self, monkeypatch):
        tree, payoffs = generate(GeneratorSpec(depth=3, branching=2, seed=5))
        copies = {n: f"{n}b" for n in tree.nodes}  # no generated id ends in "b"
        assert not set(copies.values()) & set(tree.nodes)
        real = verify.solve_value_process

        def skewed(t, p, player):
            process = real(t, p, player)
            if len(t.nodes) > len(tree.nodes):  # the split tree
                process.value[copies[tree.nodes[-1]]] += 0.5
            return process

        monkeypatch.setattr(verify, "solve_value_process", skewed)
        check = next(c for c in check_invariants(tree, payoffs, eta=0.2).checks if c.name == "split_invariance")
        assert not check.passed and check.worst == pytest.approx(0.5)
        assert check.witness == copies[tree.nodes[-1]]

    def test_minimax_agreement_checks_player_two_at_every_node(self, monkeypatch):
        tree, payoffs = generate(GeneratorSpec(depth=3, branching=3, seed=5))
        node = tree.children[tree.root][1][0]  # an internal node, not the root
        real = verify.solve_value_process

        def skewed(t, p, player):
            process = real(t, p, player)
            if t is tree and player == 2:
                process.value[node] += 0.5
            return process

        monkeypatch.setattr(verify, "solve_value_process", skewed)
        check = next(c for c in check_invariants(tree, payoffs, eta=0.2).checks if c.name == "minimax_agreement")
        assert not check.passed and check.worst == pytest.approx(0.5)
        assert check.witness == node

    def test_builds_one_kernel_table_per_node(self, monkeypatch):
        # one stage_matrices call per node, in backward order, and each
        # node's matrices are the reference's, built by outcome_kernel
        tree, payoffs = generate(GeneratorSpec(depth=4, branching=3, seed=0))
        calls = []

        def recorded(*args):
            matrices = zerosum.stage_matrices(*args)
            calls.append((args, matrices))
            return matrices

        monkeypatch.setattr(verify, "stage_matrices", recorded)
        assert check_invariants(tree, payoffs, eta=0.2).all_pass
        assert [args[1] for args, _ in calls] == list(reversed(tree.nodes))
        for (p, node, cont), matrices in calls:
            reference = (
                reference_stage_matrices(p, node, cont.g1, 1),
                reference_stage_matrices(p, node, cont.g2, 2),
            )
            assert repr(matrices) == repr(reference)  # repr tells -0.0 from 0.0

    def test_reports_are_those_of_the_reference_matrices(self, monkeypatch):
        # every family at depths 1-6, fixed seeds: the runner's report is the
        # same, to the bit, when each node's matrices come from 24
        # outcome_kernel calls per player instead
        games = [
            generate(GeneratorSpec(family=family, depth=depth, branching=3 if depth < 5 else 2, seed=1500 + depth))
            for family in FAMILIES
            for depth in range(1, 7)
        ]

        def reference(payoffs, node, cont):
            return (
                reference_stage_matrices(payoffs, node, cont.g1, 1),
                reference_stage_matrices(payoffs, node, cont.g2, 2),
            )

        def reports():
            return [
                [(c.name, c.passed, c.worst.hex(), c.witness) for c in check_invariants(t, p, eta=0.05).checks]
                for t, p in games
            ]

        fast = reports()
        monkeypatch.setattr(verify, "stage_matrices", reference)
        assert reports() == fast


class TestGapSplitInvariance:
    def test_gaps_stable_under_frame_splitting(self):
        for tree, payoffs in corpus(8, seed0=950, depth_hi=4):
            profile = BehavioralProfile(
                player1=dyadic_mixes(tree, 11), player2=dyadic_mixes(tree, 12)
            )
            before = deviation_gap(tree, payoffs, profile)
            for node in (tree.root, tree.leaves[0]):
                stree, spay, _ = split_frame(tree, payoffs, node)
                extended = extend_profile(profile, stree)
                after = deviation_gap(stree, spay, extended)
                tol = payoffs.tolerance()
                assert abs(before[0].gap - after[0].gap) <= tol
                assert abs(before[1].gap - after[1].gap) <= tol

    def test_constructed_gaps_stable_under_splitting(self):
        for tree, payoffs in corpus(6, seed0=980, depth_hi=4):
            report = construct(tree, payoffs, eta=0.1)
            stree, spay, _ = split_frame(report.tree, report.payoffs, report.tree.root)
            extended = extend_profile(report.profile, stree)
            after = deviation_gap(stree, spay, extended)
            tol = 1e-6 * max(1.0, payoffs.payoff_range)
            assert abs(report.gap1 - after[0].gap) <= tol
            assert abs(report.gap2 - after[1].gap) <= tol
