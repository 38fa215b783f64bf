"""Model layer: validation, the stop-order reference, evaluation, mirroring, splits."""

import itertools
import math
import random
from collections import defaultdict
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin import (
    BehavioralProfile,
    CaseLabel,
    EquilibriumReport,
    EventTree,
    GapCertificate,
    GeneratorSpec,
    HittingTime,
    InstanceError,
    InvariantReport,
    PayoffPair,
    PayoffProcess,
    ProfileError,
    StageAction,
    ValueProcess,
    check_invariants,
    construct,
    construct_pure,
    deviation_gap,
    evaluate_profile,
    evaluate_profile_table,
    generate,
    hitting_time,
    solve_value_process,
    split_frame,
    split_frames,
    validate_instance,
    validate_profile,
)
from dynkin.core import (
    ATOM_MIX,
    PAYOFF_TABLES,
    STAGE_TABLES,
    STOP_ORDER,
    UNIFORM_MIX,
    WAIT_MIX,
    Outcome,
    _issue_line,
)
from dynkin.verify import InvariantCheck

from helpers import (
    DYADIC_MIXES,
    DYADIC_SHAPES,
    constant_payoffs,
    corpus,
    dyadic_instance,
    dyadic_mixes,
    extend_profile,
    instance_issues,
    kernel_profile_value,
    mirror,
    outcome_kernel,
    outcome_payoff,
    profile_issues,
    reference_split_frames,
    reference_tree_maps,
    reference_walk,
    single_node_payoffs,
    stop_outcome,
    tree_maps,
    uniform_tree,
    worded,
)
from test_golden import GAMES, golden_game

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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_validate_profile_rejects_a_non_finite_entry(bad):
    # NaN passes both "below zero" and "sums to one" tests, and a NaN gap
    # would certify as 0
    tree, payoffs = generate(GeneratorSpec(depth=3, branching=2, seed=3))
    profile = BehavioralProfile.waiting(tree)
    profile.player1[tree.root] = (bad, 0.0, 1.0)
    issues = validate_profile(tree, profile)
    assert len(issues) == 1 and issues[0].startswith(f"node {tree.root}: player 1 distribution")
    with pytest.raises(ProfileError):
        evaluate_profile(tree, payoffs, profile)


# Values that are not an int or a float in the float range; each raised a
# bare TypeError or OverflowError, or passed validation and then did.
_NON_NUMBERS = (Decimal("0.5"), "0.5", None, 0.5j, True, 10**400)
_NON_NUMBER_IDS = ("decimal", "str", "none", "complex", "bool", "huge-int")


@pytest.mark.parametrize("value", _NON_NUMBERS, ids=_NON_NUMBER_IDS)
@pytest.mark.parametrize("table", ["x1", "z2", "xi1"])
def test_a_non_number_payoff_is_an_instance_issue(table, value):
    tree, payoffs = generate(GeneratorSpec(depth=2, seed=1))
    node = tree.leaves[-1] if table.startswith("xi") else tree.root
    getattr(payoffs, table)[node] = value
    kind = "terminal payoff" if table.startswith("xi") else "payoff"
    name = table if table.startswith("xi") else table.upper()
    issues = [f"node {node}: {kind} {name} {worded(value)} is not a number"]
    assert validate_instance(tree, payoffs) == instance_issues(tree, payoffs) == issues
    for entry in (construct, construct_pure, check_invariants):
        with pytest.raises(InstanceError, match="is not a number"):
            entry(tree, payoffs, 0.05)


@pytest.mark.parametrize("value", _NON_NUMBERS, ids=_NON_NUMBER_IDS)
def test_a_non_number_probability_is_an_instance_issue(value):
    # a sum over "0.5" would raise, so the node's probabilities go unsummed
    tree, payoffs = generate(GeneratorSpec(depth=2, seed=1))
    child, _ = tree.children[tree.root][0]
    tree.children[tree.root][0] = (child, value)
    issues = [f"node {tree.root}: probability {worded(value)} for child {child} is not a number"]
    assert validate_instance(tree, payoffs) == instance_issues(tree, payoffs) == issues
    for entry in (construct, construct_pure, check_invariants):
        with pytest.raises(InstanceError, match="is not a number"):
            entry(tree, payoffs, 0.05)


@pytest.mark.parametrize(
    "listing, issue",
    [
        (lambda nodes: nodes[:-1], "node {last}: has a depth, yet is not in the tree's nodes"),
        (lambda nodes: nodes[:-1] + nodes[1:2], "node {second}: listed more than once in the tree's nodes"),
        (lambda nodes: nodes + nodes[1:2], "node {second}: listed more than once in the tree's nodes"),
        (lambda nodes: nodes[:-1] + ["stray"], "node stray: in the tree's nodes, yet has no depth"),
    ],
    ids=["dropped", "repeated-in-place", "repeated-at-end", "stray"],
)
def test_a_node_list_that_misses_or_repeats_a_node_is_an_instance_issue(listing, issue):
    # every other check reads the tree in the order of ``nodes``: a node it
    # leaves out passed them all, and then ``construct`` raised a bare KeyError
    tree, payoffs = generate(GeneratorSpec(depth=2, branching=2, seed=3))
    nodes = listing(tree.nodes)
    tree = EventTree(tree.root, nodes, dict(tree.depth), {k: list(v) for k, v in tree.children.items()})
    issues = [issue.format(last=list(tree.depth)[-1], second=nodes[1])]
    assert validate_instance(tree, payoffs) == instance_issues(tree, payoffs) == issues
    for entry in (construct, construct_pure, check_invariants):
        with pytest.raises(InstanceError) as caught:
            entry(tree, payoffs, 0.05)
        assert str(caught.value) == issues[0]


def _swapped_first_two(tree, payoffs):
    nodes = list(tree.nodes)
    nodes[0], nodes[1] = nodes[1], nodes[0]
    return EventTree(tree.root, nodes, tree.depth, tree.children), payoffs


def _child_without_depth(tree, payoffs):
    tree.children[tree.root].append(("zz", 0.0))
    return tree, payoffs


def _hand_built(nodes, depth, children):
    def malformed(tree, payoffs):
        tree = EventTree("r", nodes, depth, children)
        return tree, constant_payoffs(tree, 0.0, 1.0, 0.5, 0.25)

    return malformed


@pytest.mark.parametrize(
    "malformed, issue",
    [
        (_swapped_first_two, "node n0: place 0 of the breadth-first listing of the child lists, not of the tree's nodes"),
        (_child_without_depth, "node zz: place 2 of the breadth-first listing of the child lists, not of the tree's nodes"),
        (_hand_built([], {}, {}), "node r: place 0 of the breadth-first listing of the child lists, not of the tree's nodes"),
        (
            _hand_built(["r", "a", "o"], {"r": 0, "a": 1, "o": 1}, {"r": [("a", 1.0)]}),
            "node o: in the tree's nodes, yet not reached from the root",
        ),
        # the nodes are the breadth-first listing, and only the length and
        # key-set comparison with the depths finds these
        (
            _hand_built(["r", "a", "a"], {"r": 0, "a": 1}, {"r": [("a", 0.5), ("a", 0.5)]}),
            "node a: listed more than once in the tree's nodes",
        ),
        (_hand_built(["r", "zz"], {"r": 0}, {"r": [("zz", 1.0)]}), "node zz: in the tree's nodes, yet has no depth"),
        (
            _hand_built(["r", "a"], {"r": 0, "a": 1, "zz": 1}, {"r": [("a", 1.0)]}),
            "node zz: has a depth, yet is not in the tree's nodes",
        ),
    ],
    ids=[
        "swapped", "child-without-depth", "empty", "unreachable",
        "child-listed-twice", "listed-child-without-depth", "depth-without-node",
    ],
)
def test_a_node_list_that_is_not_the_breadth_first_listing_is_an_instance_issue(malformed, issue):
    # the first four validated clean and then crashed or certified a tree
    # that still held an unreachable node, or made validation itself raise
    # a bare KeyError or IndexError
    tree, payoffs = malformed(*generate(GeneratorSpec(depth=2, branching=2, seed=3)))
    assert validate_instance(tree, payoffs) == instance_issues(tree, payoffs) == [issue]
    for entry in (construct, construct_pure, check_invariants):
        with pytest.raises(InstanceError) as caught:
            entry(tree, payoffs, 0.05)
        assert str(caught.value) == issue


_NOT_PAIRS = (5, None, ("n1",), ("n1", 0.5, 1))


@pytest.mark.parametrize("entry", _NOT_PAIRS, ids=["int", "none", "one", "three"])
@pytest.mark.parametrize("listing", ["breadth-first", "repeated"])
def test_a_child_entry_that_is_not_a_pair_is_an_instance_issue(entry, listing):
    # reading the entry as a pair raised a bare TypeError, IndexError or
    # ValueError; it is worded before any listing issue
    tree, payoffs = generate(GeneratorSpec(depth=2, branching=2, seed=3))
    tree.children[tree.root] = [entry]
    if listing == "repeated":
        tree = EventTree(tree.root, tree.nodes + tree.nodes[1:2], tree.depth, tree.children)
    issue = f"node {tree.root}: child entry {worded(entry)} is not a (child, probability) pair"
    assert validate_instance(tree, payoffs) == instance_issues(tree, payoffs) == [issue]
    for run in (construct, construct_pure, check_invariants):
        with pytest.raises(InstanceError) as caught:
            run(tree, payoffs, 0.05)
        assert str(caught.value) == issue


@pytest.mark.parametrize("table", ["y1", "xi2"])
def test_a_missing_entry_of_a_defaultdict_table_is_an_instance_issue(table):
    # reading the table must not fill the entry in with the default
    tree, payoffs = generate(GeneratorSpec(depth=2, seed=1))
    node = tree.leaves[0] if table.startswith("xi") else tree.root
    entries = getattr(payoffs, table)
    del entries[node]
    setattr(payoffs, table, defaultdict(float, entries))
    kind = "terminal payoff" if table.startswith("xi") else "payoff"
    name = table if table.startswith("xi") else table.upper()
    issues = [f"node {node}: missing {kind} {name}"]
    assert validate_instance(tree, payoffs) == instance_issues(tree, payoffs) == issues
    assert node not in getattr(payoffs, table)


@pytest.mark.parametrize("value", _NON_NUMBERS, ids=_NON_NUMBER_IDS)
def test_a_non_number_mix_entry_is_a_profile_issue(value):
    tree, payoffs = generate(GeneratorSpec(depth=2, seed=1))
    profile = BehavioralProfile.waiting(tree)
    profile.player2[tree.root] = mix = (value, 0.0, 1.0)
    issues = [f"node {tree.root}: player 2 distribution {worded(mix)} malformed"]
    assert validate_profile(tree, profile) == profile_issues(tree, profile) == issues
    with pytest.raises(ProfileError, match="malformed"):
        deviation_gap(tree, payoffs, profile)


@pytest.mark.parametrize(
    "mix", [0.5, 1, frozenset({0.0, 0.25, 0.75}), {0.0: 1, 0.25: 1, 0.75: 1}], ids=["float", "int", "set", "dict"]
)
def test_a_mix_that_is_not_a_sequence_is_a_profile_issue(mix):
    # a float has no len(), so the check must word it, never raise; a set or
    # a dict of three numbers has no (atom, uniform, wait) order to unpack
    tree, payoffs = generate(GeneratorSpec(depth=2, seed=1))
    profile = BehavioralProfile.waiting(tree)
    profile.player1[tree.root] = mix
    issues = [f"node {tree.root}: player 1 distribution {mix!r} malformed"]
    assert validate_profile(tree, profile) == profile_issues(tree, profile) == issues
    for entry in (deviation_gap, evaluate_profile):
        with pytest.raises(ProfileError, match="malformed"):
            entry(tree, payoffs, profile)


@pytest.mark.parametrize("side", [[WAIT_MIX] * 3, None, "n0", (("n0", WAIT_MIX),)], ids=["list", "none", "str", "pairs"])
def test_a_profile_side_that_is_not_a_mapping_is_a_profile_issue(side):
    # one issue per player naming the type, and a ProfileError from the
    # entries that take a profile, never a bare AttributeError or TypeError
    tree, payoffs = generate(GeneratorSpec(depth=1, seed=1))
    waiting = BehavioralProfile.waiting(tree).player1
    word = f"profile is a {type(side).__name__}, not a mapping of nodes to distributions"
    for profile, issues in (
        (BehavioralProfile(player1=side, player2=waiting), [f"player 1 {word}"]),
        (BehavioralProfile(player1=waiting, player2=side), [f"player 2 {word}"]),
        (BehavioralProfile(player1=side, player2=side), [f"player 1 {word}", f"player 2 {word}"]),
    ):
        assert validate_profile(tree, profile) == profile_issues(tree, profile) == issues
        for entry in (deviation_gap, evaluate_profile_table):
            with pytest.raises(ProfileError) as caught:
                entry(tree, payoffs, profile)
            assert str(caught.value) == _issue_line(issues)


_TABLES = ("x1", "y1", "z1", "x2", "y2", "z2", "xi1", "xi2")
_BAD_NUMBERS = (math.nan, math.inf, -math.inf, 1.7e308, -0.0, 0.5, 3)


@st.composite
def generated_games(draw):
    spec = GeneratorSpec(
        family=draw(st.sampled_from(("random", "war-of-attrition", "preemption"))),
        depth=draw(st.integers(0, 3)),
        branching=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 10**6)),
    )
    return generate(spec)


@st.composite
def corrupted_instances(draw):
    """A generated game with one defect planted in it, or none."""
    tree, payoffs = draw(generated_games())
    kind = draw(
        st.sampled_from(
            ("none", "payoff", "missing", "probability", "non-number-edge", "zero-edge", "not-a-pair", "depth", "short-leaf")
        )
    )
    inner = [n for n in tree.nodes if tree.children[n]]
    on_edges = kind in ("probability", "non-number-edge", "zero-edge", "not-a-pair", "short-leaf")
    node = draw(st.sampled_from(inner if inner and on_edges else tree.nodes))
    kids = tree.children[node]
    if kind == "payoff":
        table = getattr(payoffs, draw(st.sampled_from(_TABLES)))
        table[node] = draw(st.sampled_from(_BAD_NUMBERS))
    elif kind == "missing":
        table = getattr(payoffs, draw(st.sampled_from(_TABLES)))
        table.pop(node, None)
    elif kind == "probability" and kids:
        i = draw(st.integers(0, len(kids) - 1))
        child, p = kids[i]
        offsets = (-p, -2 * p, 1.0, math.nan, 1e-13, -1e-13, -1e-11, -0.5 * p)
        kids[i] = (child, p + draw(st.sampled_from(offsets)))
    elif kind == "non-number-edge" and kids:
        i = draw(st.integers(0, len(kids) - 1))
        kids[i] = (kids[i][0], draw(st.sampled_from(_NON_NUMBERS)))
    elif kind == "zero-edge" and kids:  # the sum stays one
        kids.append((kids[0][0], draw(st.sampled_from((0.0, -0.0, -1e-13)))))
    elif kind == "not-a-pair" and kids:
        i = draw(st.integers(0, len(kids) - 1))
        child, p = kids[i]
        kids[i] = draw(st.sampled_from((5, None, (child,), (child, p, 1))))
    elif kind == "depth":
        tree.depth[node] += draw(st.sampled_from((-1, 1)))
    elif kind == "short-leaf" and kids:  # a leaf above the horizon, with terminal payoffs
        tree.children[node] = []
        payoffs.xi1[node] = payoffs.xi2[node] = 0.0
    return tree, payoffs


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(corrupted_instances())
def test_instance_screen_passes_exactly_the_clean_instances(instance):
    tree, payoffs = instance
    assert validate_instance(tree, payoffs) == instance_issues(tree, payoffs)


def test_a_table_with_other_keys_is_screened_over_its_nodes():
    # a table keyed by exactly its nodes is screened by its values; an entry
    # under any other key is never read, so a bad one there leaves the game
    # valid, while the same entry at a node or leaf is worded
    tree, payoffs = generate(GeneratorSpec(depth=2, branching=2, seed=1))
    leaf = tree.leaves[0]
    payoffs.xi1[tree.root] = math.nan  # an inner node: not a terminal key
    payoffs.x1["stray"] = "bad"
    assert validate_instance(tree, payoffs) == [] == instance_issues(tree, payoffs)
    payoffs.xi2[leaf] = math.inf
    payoffs.y1[tree.root] = "bad"
    issues = validate_instance(tree, payoffs)
    assert issues == instance_issues(tree, payoffs)
    assert issues == [
        f"node {tree.root}: payoff Y1 'bad' is not a number",
        f"node {leaf}: non-finite terminal payoff xi2",
    ]


_BAD_MIXES = (
    (math.nan, 0.0, 1.0),
    (0.0, math.inf, 0.0),
    (0.0, 0.0, -math.inf),
    (0.5, 0.5, 1e-13),
    (0.5, 0.5, 1e-11),
    (-1e-13, 0.0, 1.0),
    (-1e-11, 0.0, 1.0),
    (-1e-11, 1e-11, 1.0),
    (-0.25, 0.25, 1.0),
    (0, 0, 1),
    (0.25, 0.25, 0.5),
    (1.0, 0.0),
    (0.0, 0.0, 0.0, 1.0),
    None,
    0.5,
)


@st.composite
def corrupted_profiles(draw):
    """A generated game and a profile on it with at most one entry changed."""
    tree, _ = draw(generated_games())
    mixes = st.sampled_from(DYADIC_MIXES)
    profile = BehavioralProfile(
        player1={n: draw(mixes) for n in tree.nodes}, player2={n: draw(mixes) for n in tree.nodes}
    )
    side = profile.side(draw(st.sampled_from((1, 2))))
    node = draw(st.sampled_from(tree.nodes))
    kind = draw(st.sampled_from(("none", "mix", "missing", "stray")))
    if kind == "mix":
        side[node] = draw(st.sampled_from(_BAD_MIXES))
    elif kind == "missing":
        del side[node]
    elif kind == "stray":
        side["stray"] = draw(mixes)
    return tree, profile


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(corrupted_profiles())
def test_profile_screen_passes_exactly_the_clean_profiles(case):
    tree, profile = case
    assert validate_profile(tree, profile) == profile_issues(tree, profile)


class _AllEqual(tuple):
    """A mix type that equals every other, so a set keeps one of them."""

    def __eq__(self, other):
        return True

    def __hash__(self):
        return 0


def test_profile_screen_dedupes_only_exact_tuples():
    tree, _ = generate(GeneratorSpec(depth=2, seed=1))
    last = tree.nodes[-1]
    side = {n: _AllEqual((0.0, 0.0, 1.0)) for n in tree.nodes}
    side[last] = _AllEqual((0.5, 0.5, 0.5))
    profile = BehavioralProfile(player1=side, player2=BehavioralProfile.waiting(tree).player2)
    assert validate_profile(tree, profile) == [f"node {last}: player 1 distribution sums to 1.5"]


def test_profile_screen_leaves_list_mixes_to_the_wording_loop():
    tree, _ = generate(GeneratorSpec(depth=2, seed=1))
    good = {n: [0.0, 0.0, 1.0] for n in tree.nodes}
    bad = {**good, tree.root: [0.5, 0.5, 0.5]}
    assert validate_profile(tree, BehavioralProfile(player1=good, player2=dict(good))) == []
    issues = validate_profile(tree, BehavioralProfile(player1=good, player2=bad))
    assert issues == [f"node {tree.root}: player 2 distribution sums to 1.5"]


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
    terminal = PayoffPair(payoffs.xi1["n0"], payoffs.xi2["n0"])
    assert outcome_kernel(W, W, payoffs, "n0", continuation=terminal) == PayoffPair(4.0, -4.0)


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


def test_outcome_payoff_has_no_pair_for_survival(kernel_instance):
    # survival pays the continuation, which only the reference kernel holds
    _, payoffs = kernel_instance
    with pytest.raises(ValueError, match="^node n0: survival pays the continuation"):
        outcome_payoff(Outcome.SURVIVAL, payoffs, "n0")


@pytest.mark.parametrize("act", [E, L])
def test_kernel_rejects_identical_endpoint_limits(kernel_instance, act):
    _, payoffs = kernel_instance
    with pytest.raises(ValueError):
        outcome_kernel(act, act, payoffs, "n0")


def test_stop_order_table_holds_every_pair():
    # all 25 action pairs: the ten ordered pairs each way, three equal pairs
    # that stop together, tie or survive, and two with no defined order
    expected = {pair: Outcome.PLAYER1_FIRST for pair in FIRST_MOVER_PAIRS}
    expected.update({(a2, a1): Outcome.PLAYER2_FIRST for a1, a2 in FIRST_MOVER_PAIRS})
    expected.update({(A, A): Outcome.SIMULTANEOUS, (U, U): Outcome.TIE, (W, W): Outcome.SURVIVAL, (E, E): None, (L, L): None})
    assert len(expected) == 25
    assert STOP_ORDER == expected
    for (a1, a2), outcome in expected.items():
        if outcome is None:
            with pytest.raises(ValueError, match=rf"^\({a1.value}, {a2.value}\) has no defined stop order$"):
                stop_outcome(a1, a2)
        else:
            assert stop_outcome(a1, a2) is outcome


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


def _random_profile(tree, rng, pick):
    return BehavioralProfile(
        player1={n: pick(rng) for n in tree.nodes}, player2={n: pick(rng) for n in tree.nodes}
    )


def _random_mix(rng):
    a, u, w = rng.random(), rng.random(), rng.random()
    total = a + u + w
    return (a / total, u / total, w / total)


def test_evaluate_matches_the_nine_pair_kernel_reference():
    # The lines formula agrees with the outcome kernel summed over every pair
    # of stage actions: exactly where no product rounds, and to the last
    # bits on random mixes.
    rng = random.Random(2024)
    pure = (ATOM_MIX, UNIFORM_MIX, WAIT_MIX)
    for tree, payoffs in corpus(30, seed0=700, depth_hi=4):
        for _ in range(3):
            profile = _random_profile(tree, rng, lambda r: r.choice(pure))
            assert evaluate_profile(tree, payoffs, profile) == kernel_profile_value(tree, payoffs, profile)
        scale = 1e-9 * max(1.0, payoffs.payoff_range)
        for _ in range(3):
            profile = _random_profile(tree, rng, _random_mix)
            got = evaluate_profile(tree, payoffs, profile)
            want = kernel_profile_value(tree, payoffs, profile)
            assert abs(got.g1 - want.g1) <= scale and abs(got.g2 - want.g2) <= scale
    for shape in DYADIC_SHAPES:
        for seed in range(6):
            tree, payoffs = dyadic_instance(shape, seed)
            profile = BehavioralProfile(
                player1=dyadic_mixes(tree, seed + 40), player2=dyadic_mixes(tree, seed + 50)
            )
            assert evaluate_profile(tree, payoffs, profile) == kernel_profile_value(tree, payoffs, profile)


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


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(generated_games())
def test_mirror_is_an_involution_on_generated_games(game):
    tree, payoffs = game
    same_tree, twice = mirror(*mirror(tree, payoffs))
    assert same_tree is tree
    for name in _TABLES:
        assert getattr(twice, name) == getattr(payoffs, name)


def test_mirror_swaps_roles():
    tree, payoffs = single_node_payoffs(5.0, 1.0, 2.0, 3.0, -1.0, -2.0, -3.0, -4.0)
    _, m = mirror(tree, payoffs)
    assert m.x1["n0"] == -2.0 and m.y1["n0"] == -1.0 and m.z1["n0"] == -3.0
    assert m.y2["n0"] == 5.0 and m.x2["n0"] == 1.0 and m.z2["n0"] == 2.0
    assert m.xi1["n0"] == -4.0 and m.xi2["n0"] == 3.0
    assert m.side(1) == payoffs.side(2)
    assert m.side(2) == payoffs.side(1)


def test_mirror_preserves_zero_sum():
    tree, payoffs = single_node_payoffs(1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0)
    _, m = mirror(tree, payoffs)
    assert m.x1["n0"] + m.x2["n0"] == 0.0
    assert m.z1["n0"] + m.z2["n0"] == 0.0


def test_split_single_node_game():
    tree, payoffs = single_node_payoffs(1.0, 2.0, 3.0, 4.0, 0, 0, 0, 0)
    stree, spay, mapping = split_frame(tree, payoffs, "n0")
    assert len(stree.nodes) == 2 and stree.horizon == 1
    second = mapping["n0"]
    assert spay.x1[second] == 1.0 and spay.z1[second] == 3.0
    assert spay.xi1 == {second: 4.0}


def test_split_twice_keeps_payoffs_constant_along_chain():
    tree, payoffs = single_node_payoffs(1.0, 2.0, 3.0, 4.0, 0, 0, 0, 0)
    stree, spay, m1 = split_frame(tree, payoffs, "n0")
    stree2, spay2, m2 = split_frame(stree, spay, m1["n0"])
    assert stree2.horizon == 2
    assert len({spay2.x1[n] for n in stree2.nodes}) == 1


def test_split_keeps_horizon_uniform_and_pads_other_paths():
    tree = EventTree.build("r", {"r": [("a", 0.5), ("b", 0.5)]})
    payoffs = constant_payoffs(tree, 1, 2, 3, 4)
    stree, spay, mapping = split_frame(tree, payoffs, "a")
    assert validate_instance(stree, spay) == []
    assert stree.horizon == 2
    assert set(mapping) == {"a", "b"}


def test_split_ids_step_past_every_taken_id():
    # the copy below "a" would be "ab", an input id, so it is "ab1", and the
    # padded leaf "ab" then takes "abb"
    tree = EventTree.build("r", {"r": [("a", 0.5), ("ab", 0.5)]})
    stree, spay, inserted = split_frames(tree, constant_payoffs(tree, 1, 2, 3, 4), ["a"])
    assert inserted == {"a": "ab1", "ab": "abb"}
    assert stree.nodes == ["r", "a", "ab", "ab1", "abb"]
    assert spay.xi1 == {"ab1": 4, "abb": 4}
    # a leaf two targets short is padded by a chain of two copies
    tree = EventTree.build("r", {"r": [("p", 0.5), ("q", 0.5)], "p": [("a", 1.0)], "q": [("z", 1.0)]})
    stree, _, inserted = split_frames(tree, constant_payoffs(tree, 1, 2, 3, 4), ["p", "a"])
    assert inserted == {"p": "pb", "a": "ab", "z": "zb", "zb": "zbb"}
    assert stree.leaves == ["ab", "zbb"]


def test_split_refuses_an_unknown_target():
    tree = EventTree.build("r", {"r": [("a", 1.0)]})
    with pytest.raises(KeyError) as refused:
        split_frames(tree, constant_payoffs(tree, 1, 2, 3, 4), ["nope"])
    assert refused.value.args == ("unknown node 'nope'",)


def test_split_copies_stage_payoffs_down_a_chain_of_padding_copies():
    # one branch split at two depths pads the other branch's leaf by two
    # frames, the second a copy of the first: every inserted node carries
    # the six stage payoffs of the node it was copied from, and the
    # terminal payoffs sit on the new leaves only
    tree = EventTree.build("r", {"r": [("p", 0.5), ("q", 0.5)], "p": [("a", 1.0)], "q": [("z", 1.0)]})
    fields = [field for _, field in STAGE_TABLES]
    stage = {field: {node: 10.0 * k + j for j, node in enumerate(tree.nodes)} for k, field in enumerate(fields)}
    payoffs = PayoffProcess(**stage, xi1={"a": -1.0, "z": -2.0}, xi2={"a": -3.0, "z": -4.0})
    stree, spay, inserted = split_frames(tree, payoffs, ["p", "a"])
    assert inserted == {"p": "pb", "a": "ab", "z": "zb", "zb": "zbb"}
    for field in fields:
        table, before = getattr(spay, field), stage[field]
        assert set(table) == set(stree.nodes)
        assert {copy: table[copy] for copy in inserted.values()} == {
            "pb": before["p"], "ab": before["a"], "zb": before["z"], "zbb": before["z"]
        }
        assert all(table[node] == before[node] for node in tree.nodes)
    assert stree.leaves == ["ab", "zbb"]
    assert spay.xi1 == {"ab": -1.0, "zbb": -2.0} and spay.xi2 == {"ab": -3.0, "zbb": -4.0}
    assert payoffs.xi1 == {"a": -1.0, "z": -2.0} and set(payoffs.x1) == set(tree.nodes)  # the input is untouched
    assert validate_instance(stree, spay) == []


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(generated_games())
def test_splitting_every_frame_doubles_each_path(game):
    # every root path holds horizon + 1 targets, so no leaf needs padding
    tree, payoffs = game
    stree, spay, split = split_frames(tree, payoffs, tree.nodes)
    assert validate_instance(stree, spay) == []
    assert len(stree.nodes) == 2 * len(tree.nodes)
    assert stree.horizon == 2 * tree.horizon + 1
    assert set(split) == set(tree.nodes)
    assert set(stree.nodes) == set(tree.nodes) | set(split.values())


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


def test_build_rejects_a_child_under_two_parents():
    # the parent check runs in breadth-first order, before the reachability
    # check, so an unreachable entry listed first does not word the error
    children = {"z": [("y", 1.0)], "r": [("a", 0.5), ("b", 0.5)], "a": [("c", 1.0)], "b": [("c", 1.0)]}
    text = "node 'c' has more than one parent"
    with pytest.raises(InstanceError, match=f"^{text}$"):
        EventTree.build("r", children)
    with pytest.raises(InstanceError, match=f"^{text}$"):
        reference_tree_maps("r", children)


@pytest.mark.parametrize(
    "children, text",
    [
        ({"r": [("a", 1.0)], "w": [("v", 1.0)], "b": [("c", 1.0)]}, "node 'w' is not reachable from the root"),
        ({"r": [("a", 1.0)], "c": [("b", 1.0)], "b": [("c", 1.0)]}, "node 'c' is not reachable from the root"),
        ({"r": [("a", 1.0)], "s": [("s", 1.0)]}, "node 's' is not reachable from the root"),
        # a cycle back to the root meets the root as a child, and the root has no parent
        ({"r": [("a", 1.0)], "a": [("r", 1.0)]}, "node 'r' is the root, yet node 'a' lists it as a child"),
    ],
    ids=["stray-entries", "detached-cycle", "own-parent", "cycle-to-root"],
)
def test_build_words_the_first_stray_node_in_child_map_order(children, text):
    with pytest.raises(InstanceError, match=f"^{text}$"):
        EventTree.build("r", children)
    with pytest.raises(InstanceError, match=f"^{text}$"):
        reference_tree_maps("r", children)


def _built_games():
    """Games on trees of every kind the engine builds, from the golden corpus
    and generated games of all three families: the input, its split with
    every frame split, a split of a third of its nodes (padding the other
    leaves) and its ``construct`` report (padding the never-hit A63 leaves,
    or, from an A or M root, written by ``split_frames``' root layout)."""
    rng = random.Random(5)
    games = [golden_game(seed) for seed in range(GAMES)]
    games += corpus(60, seed0=700, depth_lo=0, depth_hi=6)
    padded = 0
    for tree, payoffs in games:
        yield tree, payoffs
        yield split_frames(tree, payoffs, tree.nodes)[:2]
        targets = rng.sample(tree.nodes, k=1 + len(tree.nodes) // 3)
        split, spay, inserted = split_frames(tree, payoffs, targets)
        padded += len(inserted) > len(targets)
        yield split, spay
        report = construct(tree, payoffs, 0.05)
        yield report.tree, report.payoffs
    assert padded > len(games) // 2


def _built_trees():
    for tree, _ in _built_games():
        yield tree


def _a6_targets(tree, payoffs):
    """The root and the first nodes per path of the union of both players'
    hitting antichains, as ``construct`` splits an A6 root."""
    hits = set()
    for player in (1, 2):
        hits |= hitting_time(tree, payoffs, solve_value_process(tree, payoffs, player), 0.05).hits()
    return [tree.root, *filter(hits.__contains__, tree.walk(tree.root, hits.__contains__))]


def _split_fields(split):
    tree, payoffs, inserted = split
    tables = [list(getattr(payoffs, field).items()) for _, field in PAYOFF_TABLES]
    return tree.root, tree.nodes, list(tree.depth.items()), list(tree.children.items()), tables, list(inserted.items())


def test_split_frames_matches_the_reference_split_on_every_built_tree():
    # both paths, the root layout and the general sweep, field by field and
    # in map order: the root alone (a leaf root among them, and roots whose
    # "{root}b" id a report's split has taken), the root with an A6 stop set
    # (padding the leaves no stop covers), and every node
    seen = {"leaf root": 0, "taken id": 0, "padded": 0}
    for tree, payoffs in _built_games():
        seen["leaf root"] += tree.is_leaf(tree.root)
        seen["taken id"] += f"{tree.root}b" in tree.depth
        for targets in ([tree.root], _a6_targets(tree, payoffs), tree.nodes, [tree.root, tree.root]):
            split = split_frames(tree, payoffs, targets)
            assert _split_fields(split) == _split_fields(reference_split_frames(tree, payoffs, targets)), targets
            seen["padded"] += len(split[2]) > len(set(targets))
    assert all(seen.values()), seen


def test_build_derives_the_maps_of_the_two_pass_reference():
    rng = random.Random(6)
    for tree in _built_trees():
        assert tree_maps(tree) == reference_tree_maps(tree.root, tree.children)
        # from a map of the internal nodes only, in shuffled key order
        inner = [(node, kids) for node, kids in tree.children.items() if kids]
        rng.shuffle(inner)
        assert tree_maps(EventTree.build(tree.root, dict(inner))) == tree_maps(tree)
        stop = set(rng.sample(tree.nodes, k=len(tree.nodes) // 3))
        for start in (tree.root, tree.nodes[len(tree.nodes) // 2], tree.nodes[-1]):
            for stops in ((), stop, set(tree.leaves), set(tree.nodes)):
                assert tree.walk(start, stops.__contains__) == list(reference_walk(tree, start, stops))


def test_walk_asks_stop_once_per_reached_node_in_walk_order():
    # the stop predicate is asked at each node the walk reaches, once and in
    # walk order, and at no node below one where it holds
    rng = random.Random(7)
    for tree in _built_trees():
        stop = set(rng.sample(tree.nodes, k=len(tree.nodes) // 3))
        for start in (tree.root, tree.nodes[len(tree.nodes) // 2]):
            for stops in (set(), stop, set(tree.nodes)):
                asked = []

                def recording(node, stops=stops):
                    asked.append(node)
                    return node in stops

                walked = tree.walk(start, recording)
                assert asked == walked == list(reference_walk(tree, start, stops))


def test_the_whole_walk_is_a_copy_of_the_breadth_first_order():
    # from the root with no stop nodes, walk is build's own sweep: a copy of
    # nodes, so a caller that changes the list leaves the tree alone
    for tree in _built_trees():
        for walked in (tree.walk(tree.root), tree.walk(tree.root, None)):
            assert walked == tree.nodes and walked is not tree.nodes


# One instance of each of the package's record classes: its fields by name,
# in constructor order.
_TREE_FIELDS = dict(root="r", nodes=["r", "a"], depth={"r": 0, "a": 1}, children={"r": [("a", 1.0)], "a": []})
_PROFILE_FIELDS = dict(player1={"r": ATOM_MIX}, player2={"r": WAIT_MIX})
_CHECK_FIELDS = dict(name="minimax_agreement", passed=True, worst=0.0, witness=None)
_CERTIFICATE_FIELDS = dict(
    player=1, best_response_value=1.0, path_value=0.5, gap=0.5, raw_gap=0.5, strategy={"r": StageAction.ATOM}
)
RECORDS = {
    EventTree: _TREE_FIELDS,
    PayoffProcess: {field: {"r": float(k)} for k, (_, field) in enumerate(PAYOFF_TABLES)},
    BehavioralProfile: _PROFILE_FIELDS,
    CaseLabel: dict(label="A6", node="r"),
    GeneratorSpec: dict(family="preemption", depth=4, branching=3, payoff_range=2.0, zero_sum=True, convexity=True, seed=7),
    ValueProcess: dict(player=1, value={"r": 0.5}, min_mix={"r": ATOM_MIX}),
    HittingTime: dict(player=2, eta=0.1, antichain=("r",), infinite_leaves=("a",)),
    GapCertificate: _CERTIFICATE_FIELDS,
    InvariantCheck: _CHECK_FIELDS,
    InvariantReport: dict(checks=[InvariantCheck(**_CHECK_FIELDS)]),
    EquilibriumReport: dict(
        case_trace=[CaseLabel("A6", "r")], profile=BehavioralProfile(**_PROFILE_FIELDS), payoff=PayoffPair(0.5, 0.25),
        certificates=(GapCertificate(**_CERTIFICATE_FIELDS), GapCertificate(**_CERTIFICATE_FIELDS)), eta=0.1,
        tol=1e-9, tree=EventTree(**_TREE_FIELDS), payoffs=PayoffProcess({}, {}, {}, {}, {}, {}, {}, {}), second_half={},
    ),
}
_IMMUTABLE = (CaseLabel, GeneratorSpec)
_ASSIGNABLE = (EventTree, PayoffProcess, BehavioralProfile)
_RECORD_CASES = [
    pytest.param(cls, case, id=f"{cls.__name__}-{case}")
    for cls in RECORDS
    for case, applies in (
        ("construction", True),
        ("immutable", cls in _IMMUTABLE),
        ("hashable", cls in _IMMUTABLE),
        ("assignable", cls in _ASSIGNABLE),
        ("equality", True),
    )
    if applies
]


@pytest.mark.parametrize("cls, case", _RECORD_CASES)
def test_records_keep_the_behaviour_callers_use(cls, case):
    fields = RECORDS[cls]
    record = cls(**fields)
    if case == "construction":  # by keyword and by position, each field read back as passed
        for built in (record, cls(*fields.values())):
            assert all(getattr(built, name) is value for name, value in fields.items())
    elif case == "immutable":
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, fields[name])
    elif case == "hashable":
        assert hash(record) == hash(cls(**fields)) and len({record, cls(**fields)}) == 1
    elif case == "assignable":
        for name in fields:
            value = object()
            setattr(record, name, value)
            assert getattr(record, name) is value
    else:  # field by field: equal copies, and unequal when any one field differs
        assert record == cls(**fields) and not record != cls(**fields)
        for name in fields:
            assert record != cls(**{**fields, name: object()}), name


def test_generator_spec_defaults():
    assert GeneratorSpec() == GeneratorSpec(
        family="random", depth=3, branching=2, payoff_range=1.0, zero_sum=False, convexity=False, seed=0
    )
    assert [getattr(GeneratorSpec(), name) for name in RECORDS[GeneratorSpec]] == ["random", 3, 2, 1.0, False, False, 0]
