"""Model layer: validation, the outcome kernel, evaluation, mirroring, splits."""

import itertools

import pytest

from dynkin import (
    BehavioralProfile,
    EventTree,
    PayoffPair,
    StageAction,
    evaluate_profile,
    evaluate_profile_table,
    mirror,
    outcome_kernel,
    split_frame,
    split_frames,
    validate_instance,
)
from dynkin.core import ATOM_MIX, UNIFORM_MIX, extend_profile

from helpers import (
    DYADIC_SHAPES,
    constant_payoffs,
    corpus,
    dyadic_instance,
    dyadic_mixes,
    single_node_payoffs,
    uniform_tree,
)

A, U, W, E, L = (
    StageAction.ATOM,
    StageAction.UNIFORM,
    StageAction.WAIT,
    StageAction.EARLY,
    StageAction.LATE,
)


def test_validate_minimal_instance():
    tree, payoffs = single_node_payoffs(0, 0, 0, 0, 0, 0, 0, 0)
    assert validate_instance(tree, payoffs) == []


def test_validate_flags_bad_probabilities():
    tree = EventTree.build("r", {"r": [("a", 0.5), ("b", 0.4)]})
    payoffs = constant_payoffs(tree, 0, 0, 0, 0)
    issues = validate_instance(tree, payoffs)
    assert any("sum" in issue and "r" in issue for issue in issues)


def test_validate_flags_non_uniform_horizon():
    tree = EventTree.build("r", {"r": [("a", 0.5), ("b", 0.5)], "a": [("c", 1.0)]})
    payoffs = constant_payoffs(tree, 0, 0, 0, 0)
    issues = validate_instance(tree, payoffs)
    assert any("non-uniform horizon" in issue for issue in issues)


@pytest.fixture
def kernel_instance():
    tree, payoffs = single_node_payoffs(
        x1=1.0, y1=2.0, z1=3.0, xi1=4.0, x2=-1.0, y2=-2.0, z2=-3.0, xi2=-4.0
    )
    return tree, payoffs


def test_kernel_simultaneous_atoms(kernel_instance):
    _, payoffs = kernel_instance
    assert outcome_kernel(A, A, payoffs, "n0") == PayoffPair(3.0, -3.0)


def test_kernel_uniform_pair_averages(kernel_instance):
    _, payoffs = kernel_instance
    pair = outcome_kernel(U, U, payoffs, "n0")
    assert pair == PayoffPair(1.5, -1.5)


def test_kernel_leaf_terminal(kernel_instance):
    _, payoffs = kernel_instance
    assert outcome_kernel(W, W, payoffs, "n0", is_leaf=True) == PayoffPair(4.0, -4.0)


def test_kernel_wait_wait_uses_continuation(kernel_instance):
    _, payoffs = kernel_instance
    pair = outcome_kernel(W, W, payoffs, "n0", continuation=PayoffPair(9.0, -9.0))
    assert pair == PayoffPair(9.0, -9.0)


FIRST_MOVER_PAIRS = [
    (A, E), (A, U), (A, L), (A, W),
    (E, U), (E, L), (E, W),
    (U, L), (U, W),
    (L, W),
]


@pytest.mark.parametrize("a1,a2", FIRST_MOVER_PAIRS)
def test_kernel_player_one_first(kernel_instance, a1, a2):
    _, payoffs = kernel_instance
    assert outcome_kernel(a1, a2, payoffs, "n0") == PayoffPair(1.0, -1.0)


@pytest.mark.parametrize("a1,a2", [(a2, a1) for a1, a2 in FIRST_MOVER_PAIRS])
def test_kernel_player_two_first(kernel_instance, a1, a2):
    _, payoffs = kernel_instance
    assert outcome_kernel(a1, a2, payoffs, "n0") == PayoffPair(2.0, -2.0)


@pytest.mark.parametrize("act", [E, L])
def test_kernel_rejects_identical_endpoint_limits(kernel_instance, act):
    _, payoffs = kernel_instance
    with pytest.raises(ValueError):
        outcome_kernel(act, act, payoffs, "n0")


def test_kernel_mirror_antisymmetry(kernel_instance):
    _, payoffs = kernel_instance
    _, mirrored = mirror(EventTree.build("n0", {}), payoffs)
    cont = PayoffPair(0.25, -0.75)
    for a1, a2 in itertools.product((A, U, W, E, L), repeat=2):
        if a1 is a2 and a1 in (E, L):
            continue
        pair = outcome_kernel(a1, a2, payoffs, "n0", continuation=cont)
        swapped = outcome_kernel(a2, a1, mirrored, "n0", continuation=PayoffPair(cont.g2, cont.g1))
        assert swapped == PayoffPair(pair.g2, pair.g1)


def test_evaluate_both_atoms_at_root():
    tree = uniform_tree(1)
    payoffs = constant_payoffs(tree, x=1.0, y=2.0, z=3.0, xi=0.0)
    profile = BehavioralProfile.waiting(tree)
    profile.player1["n0"] = ATOM_MIX
    profile.player2["n0"] = ATOM_MIX
    assert evaluate_profile(tree, payoffs, profile) == PayoffPair(3.0, -3.0)


def test_evaluate_wait_everywhere_is_terminal_expectation():
    tree = EventTree.build("r", {"r": [("a", 0.5), ("b", 0.5)]})
    payoffs = constant_payoffs(tree, 0, 0, 0, 0)
    payoffs.xi1.update({"a": 0.0, "b": 2.0})
    payoffs.xi2.update({"a": 0.0, "b": -2.0})
    pair = evaluate_profile(tree, payoffs, BehavioralProfile.waiting(tree))
    assert pair == PayoffPair(1.0, -1.0)


def test_evaluate_single_node_uniform_pair():
    # Independent uniform stops: each order has probability one half, so the
    # expectation enumerates the two orderings of (X1, X2) and (Y1, Y2).
    tree, payoffs = single_node_payoffs(1.0, 0.0, 5.0, 0.0, 0.0, 1.0, 5.0, 0.0)
    oracle = PayoffPair(0.5 * (1.0 + 0.0), 0.5 * (0.0 + 1.0))
    profile = BehavioralProfile(player1={"n0": UNIFORM_MIX}, player2={"n0": UNIFORM_MIX})
    assert evaluate_profile(tree, payoffs, profile) == oracle == PayoffPair(0.5, 0.5)


def test_evaluate_rejects_bad_profile():
    tree = uniform_tree(1)
    payoffs = constant_payoffs(tree, 0, 0, 0, 0)
    profile = BehavioralProfile.waiting(tree)
    profile.player1["n1"] = (0.7, 0.7, 0.0)
    with pytest.raises(ValueError, match="n1"):
        evaluate_profile(tree, payoffs, profile)


def test_evaluate_zero_sum_instances_sum_to_zero():
    for tree, payoffs in corpus(12, seed0=300, depth_hi=4, zero_sum=True):
        profile = BehavioralProfile(
            player1=dyadic_mixes(tree, 1), player2=dyadic_mixes(tree, 2)
        )
        pair = evaluate_profile(tree, payoffs, profile)
        assert abs(pair.g1 + pair.g2) <= 1e-9 * max(1.0, payoffs.payoff_range)


def test_evaluate_table_exposes_conditional_values():
    tree = uniform_tree(1)
    payoffs = constant_payoffs(tree, 0, 0, 0, xi=1.0)
    table = evaluate_profile_table(tree, payoffs, BehavioralProfile.waiting(tree))
    assert set(table) == set(tree.nodes)
    assert table["n1"] == PayoffPair(1.0, -1.0)


def test_mirror_is_an_involution():
    tree, payoffs = dyadic_instance(DYADIC_SHAPES[8], seed=4)
    _, once = mirror(tree, payoffs)
    _, twice = mirror(tree, once)
    assert twice == payoffs


def test_mirror_swaps_roles():
    tree, payoffs = single_node_payoffs(5.0, 1.0, 2.0, 3.0, -1.0, -2.0, -3.0, -4.0)
    _, m = mirror(tree, payoffs)
    assert m.x1["n0"] == -2.0 and m.y1["n0"] == -1.0 and m.z1["n0"] == -3.0
    assert m.y2["n0"] == 5.0 and m.x2["n0"] == 1.0 and m.z2["n0"] == 2.0
    assert m.xi1["n0"] == -4.0 and m.xi2["n0"] == 3.0


def test_mirror_preserves_zero_sum():
    tree, payoffs = single_node_payoffs(1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0)
    _, m = mirror(tree, payoffs)
    assert m.x1["n0"] + m.x2["n0"] == 0.0
    assert m.z1["n0"] + m.z2["n0"] == 0.0


def test_split_single_node_game():
    tree, payoffs = single_node_payoffs(1.0, 2.0, 3.0, 4.0, 0, 0, 0, 0)
    stree, spay, mapping = split_frame(tree, payoffs, "n0")
    assert len(stree.nodes) == 2 and stree.horizon == 1
    second = mapping.inserted["n0"]
    assert spay.x1[second] == 1.0 and spay.z1[second] == 3.0
    assert spay.xi1 == {second: 4.0}


def test_split_twice_keeps_payoffs_constant_along_chain():
    tree, payoffs = single_node_payoffs(1.0, 2.0, 3.0, 4.0, 0, 0, 0, 0)
    stree, spay, m1 = split_frame(tree, payoffs, "n0")
    stree2, spay2, m2 = split_frame(stree, spay, m1.inserted["n0"])
    assert stree2.horizon == 2
    assert len({spay2.x1[n] for n in stree2.nodes}) == 1


def test_split_keeps_horizon_uniform_and_pads_other_paths():
    tree = EventTree.build("r", {"r": [("a", 0.5), ("b", 0.5)]})
    payoffs = constant_payoffs(tree, 1, 2, 3, 4)
    stree, spay, mapping = split_frame(tree, payoffs, "a")
    assert validate_instance(stree, spay) == []
    assert stree.horizon == 2
    assert set(mapping.inserted) == {"a", "b"}


def test_split_preserves_profile_evaluation_exactly():
    for shape, seed in ((DYADIC_SHAPES[8], 0), (DYADIC_SHAPES[6], 3)):
        tree, payoffs = dyadic_instance(shape, seed)
        profile = BehavioralProfile(
            player1=dyadic_mixes(tree, seed + 10), player2=dyadic_mixes(tree, seed + 20)
        )
        before = evaluate_profile(tree, payoffs, profile)
        splits = [split_frame(tree, payoffs, node) for node in tree.nodes]
        splits.append(split_frames(tree, payoffs, [tree.root, tree.nodes[1], tree.nodes[-1]]))
        for stree, spay, _ in splits:
            extended = extend_profile(profile, stree)
            assert evaluate_profile(stree, spay, extended) == before
