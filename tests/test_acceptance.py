"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import pytest

from dynkin import (
    best_response,
    brute_force_best_response,
    brute_force_payoff,
    brute_force_value,
    classify,
    construct,
    construct_pure,
    evaluate_profile,
    hitting_time,
    punishment_strategy,
    solve_matrix_game,
    solve_value_process,
    split_frame,
)
from dynkin.core import BehavioralProfile, PayoffPair
from dynkin.verify import deviation_gap
from dynkin.zerosum import stage_matrices

from helpers import (
    DYADIC_SHAPES,
    constant_payoffs,
    corpus,
    dyadic_instance,
    dyadic_mixes,
    extend_profile,
    uniform_tree,
)


def _solver_corpus():
    """200 seeded instances, depth <= 6, branching <= 3, mixed families."""
    return corpus(200, seed0=1000, depth_lo=2, depth_hi=6, branching_hi=3)


@pytest.fixture(scope="module")
def solver_corpus():
    return _solver_corpus()


@pytest.fixture(scope="module")
def solved_corpus(solver_corpus):
    return [
        (tree, payoffs, solve_value_process(tree, payoffs, 1), solve_value_process(tree, payoffs, 2))
        for tree, payoffs in solver_corpus
    ]


def test_criterion_1_flat_example_value_and_hitting():
    tree = uniform_tree(4, branching=2)
    payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=True)
    start = time.perf_counter()
    process = solve_value_process(tree, payoffs, player=1)
    hit = hitting_time(tree, payoffs, process, eta=0.5)
    elapsed = time.perf_counter() - start
    assert all(abs(v - 1.0) <= 1e-9 for v in process.value.values())
    assert hit.antichain == ()
    assert set(hit.infinite_leaves) == set(tree.leaves)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 (flat-payoff value process, {elapsed * 1e3:.1f} ms): PASS")


def test_criterion_2_stage_orientations_agree(solved_corpus):
    disagreements = 0
    nodes_checked = 0
    for tree, payoffs, v1, v2 in solved_corpus:
        limit = 1e-7 * max(1.0, payoffs.payoff_range)
        for player, process in ((1, v1), (2, v2)):
            xi = payoffs.xi1 if player == 1 else payoffs.xi2
            for node in tree.nodes:
                if tree.is_leaf(node):
                    cont = xi[node]
                else:
                    cont = sum(p * process.value[c] for c, p in tree.children[node])
                primal, dual = stage_matrices(payoffs, node, PayoffPair(cont, cont))[player - 1]
                pv, _, _ = solve_matrix_game(primal)
                dv, _, _ = solve_matrix_game(dual)
                nodes_checked += 1
                if abs(pv - dv) > limit:
                    disagreements += 1
    assert disagreements == 0
    print(f"\nACCEPTANCE 2 (orientation agreement at {nodes_checked} nodes): PASS")


def test_criterion_3_value_bounds_and_hit_inequalities(solved_corpus):
    violations = 0
    for tree, payoffs, v1, v2 in solved_corpus:
        tol = 1e-9 * max(1.0, payoffs.payoff_range)
        for player, process in ((1, v1), (2, v2)):
            x = payoffs.x1 if player == 1 else payoffs.x2
            y = payoffs.y1 if player == 1 else payoffs.y2
            z = payoffs.z1 if player == 1 else payoffs.z2
            stop = payoffs.x1 if player == 1 else payoffs.y2
            opp = payoffs.y1 if player == 1 else payoffs.x2
            for n in tree.nodes:
                v = process.value[n]
                if not (min(x[n], y[n]) - tol <= v <= max(x[n], y[n]) + tol):
                    violations += 1
                if v > max(opp[n], z[n]) + tol:
                    violations += 1
            for eta in (0.2, 0.05):
                hit = hitting_time(tree, payoffs, process, eta, tol)
                for q in hit.antichain:
                    if stop[q] < process.value[q] - eta - tol:
                        violations += 1
                hits = hit.hits()
                pre_hit = [n for n in tree.walk(tree.root, hits.__contains__) if n not in hits]
                for n in pre_hit:
                    own = stop[n]
                    if own >= process.value[n] - eta - tol:
                        violations += 1  # the condition must fail strictly here
                    if opp[n] <= own - tol:
                        violations += 1
                    if not tree.is_leaf(n):
                        expected = sum(p * process.value[c] for c, p in tree.children[n])
                        if process.value[n] > expected + tol:
                            violations += 1
    assert violations == 0
    print("\nACCEPTANCE 3 (value bounds, hit and pre-hit inequalities): PASS")


def _gap_corpus():
    return corpus(100, seed0=2000, depth_lo=2, depth_hi=6, branching_hi=3)


def test_criterion_4_equilibrium_certification():
    instances = _gap_corpus()
    gaps = {}
    for eta in (0.05, 0.01, 0.2):
        gaps[eta] = []
        for tree, payoffs in instances:
            report = construct(tree, payoffs, eta=eta)
            gaps[eta].append(max(report.gap1, report.gap2))
            if eta == 0.05:
                bound = 13 * eta + 1e-6 * max(1.0, payoffs.payoff_range)
                assert report.gap1 <= bound and report.gap2 <= bound
    slack = [1e-6 * max(1.0, p.payoff_range) for _, p in instances]
    monotone = sum(
        1 for g01, g20, s in zip(gaps[0.01], gaps[0.2], slack) if g01 <= g20 + s
    )
    assert monotone >= 0.95 * len(instances)
    assert max(gaps[0.01]) < max(gaps[0.2])
    print(
        f"\nACCEPTANCE 4 (certified gaps; max at eta=0.2: {max(gaps[0.2]):.4f}, "
        f"at eta=0.01: {max(gaps[0.01]):.4g}; monotone on {monotone}/100): PASS"
    )


def test_criterion_5_pure_equilibria_under_convexity():
    instances = corpus(100, seed0=3000, depth_lo=2, depth_hi=5, branching_hi=3, convexity=True)
    for tree, payoffs in instances:
        report = construct_pure(tree, payoffs, eta=0.05)
        for side in (report.profile.player1, report.profile.player2):
            for node, mix in side.items():
                assert all(p in (0.0, 1.0) for p in mix), (node, mix)
        bound = 13 * 0.05 + 1e-6 * max(1.0, payoffs.payoff_range)
        assert report.gap1 <= bound and report.gap2 <= bound
    print("\nACCEPTANCE 5 (deterministic profiles on 100 convex instances): PASS")


def test_criterion_6_oracle_equivalence(solved_corpus):
    checked = 0
    for shape in DYADIC_SHAPES:
        for seed in range(5):
            tree, payoffs = dyadic_instance(shape, seed)
            profile = BehavioralProfile(
                player1=dyadic_mixes(tree, seed + 7), player2=dyadic_mixes(tree, seed + 13)
            )
            assert brute_force_payoff(tree, payoffs, profile) == evaluate_profile(
                tree, payoffs, profile
            )
            for deviator in (1, 2):
                opponent = profile.player2 if deviator == 1 else profile.player1
                values, _ = best_response(tree, payoffs, opponent, deviator)
                assert values[tree.root] == brute_force_best_response(
                    tree, payoffs, opponent, deviator
                )
            for player in (1, 2):
                process = solve_value_process(tree, payoffs, player)
                assert process.value[tree.root] == brute_force_value(tree, payoffs, player)
            checked += 1
    # the first-mover classification chain never falls through on any instance
    for tree, payoffs, v1, v2 in solved_corpus:
        label = classify(tree, payoffs, v1, v2)
        assert label.label in ("A1", "A2", "A3", "A4", "A6", "M1", "M2", "M3", "M4")
    print(f"\nACCEPTANCE 6 (exact oracle match on {checked} small instances): PASS")


def test_criterion_7_frame_splitting_invariance():
    import random

    rng = random.Random(4242)
    instances = corpus(50, seed0=4000, depth_lo=2, depth_hi=5, branching_hi=3)
    for k, (tree, payoffs) in enumerate(instances):
        value_tol = 1e-9 * max(1.0, payoffs.payoff_range)
        gap_tol = 1e-6 * max(1.0, payoffs.payoff_range)
        base = {i: solve_value_process(tree, payoffs, i) for i in (1, 2)}
        profile = BehavioralProfile(
            player1=dyadic_mixes(tree, 2 * k), player2=dyadic_mixes(tree, 2 * k + 1)
        )
        base_gaps = deviation_gap(tree, payoffs, profile)
        for _ in range(5):
            node = tree.nodes[rng.randrange(len(tree.nodes))]
            stree, spay, _ = split_frame(tree, payoffs, node)
            for i in (1, 2):
                after = solve_value_process(stree, spay, i)
                for n in tree.nodes:
                    assert abs(after.value[n] - base[i].value[n]) < value_tol
            extended = extend_profile(profile, stree)
            after_gaps = deviation_gap(stree, spay, extended)
            assert abs(after_gaps[0].gap - base_gaps[0].gap) < gap_tol
            assert abs(after_gaps[1].gap - base_gaps[1].gap) < gap_tol
    print("\nACCEPTANCE 7 (frame-splitting invariance, 50 x 5 splits): PASS")


def test_criterion_8_punishment_tightness(solved_corpus):
    worst = 0.0
    for tree, payoffs, v1, v2 in solved_corpus:
        tol = 1e-9 * max(1.0, payoffs.payoff_range)
        for target, process in ((1, v1), (2, v2)):
            fragment = punishment_strategy(tree, node=tree.root, value=process)
            values, _ = best_response(tree, payoffs, fragment, deviator=target)
            deviation = abs(values[tree.root] - process.value[tree.root])
            worst = max(worst, deviation)
            assert deviation <= tol
    print(f"\nACCEPTANCE 8 (punishment tightness, worst deviation {worst:.2e}): PASS")
