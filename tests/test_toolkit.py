"""Generators, the game file format, CSV reports, and the CLI."""

import ast
import contextlib
import functools
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynkin
from dynkin import (
    BehavioralProfile,
    EventTree,
    GeneratorSpec,
    InstanceError,
    PayoffProcess,
    SchemaError,
    check_invariants,
    construct,
    construct_pure,
    generate,
    load,
    save,
    validate_instance,
)
from dynkin import cli, core, equilibrium, toolkit, verify
from dynkin.core import ATOM_MIX, validate_profile
from dynkin.toolkit import instance_from_doc, instance_to_doc, profile_from_doc, profile_to_doc, read_doc, write_report_csv
from dynkin.zerosum import check_convexity
from dynkin.cli import main

from helpers import dyadic_mixes, poisoned_deviator_lines, root_call, uniform_tree, constant_payoffs, single_node_payoffs
from test_golden import ETA, GAMES, golden_game


class TestGenerator:
    def test_deterministic_bytes(self, tmp_path):
        for family in ("random", "war-of-attrition", "preemption"):
            spec = GeneratorSpec(family=family, depth=3, branching=3, seed=7)
            a, b = tmp_path / "a.json", tmp_path / "b.json"
            save(a, *generate(spec))
            save(b, *generate(spec))
            assert a.read_bytes() == b.read_bytes()

    def test_bytes_are_the_same_on_every_interpreter(self, tmp_path):
        # the child probabilities add with plain += loops: the builtin sum
        # compensates from Python 3.12 on and would move this game's bytes
        out = tmp_path / "game.json"
        argv = ["generate", "--family", "war-of-attrition", "--depth", "6", "--branching", "3", "--seed", "62"]
        assert main([*argv, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "a01afd25958e48bab85fb05e5a6b8a8d161496de58e1442b350f57f406882014"

    def test_instances_are_valid(self):
        for seed in range(10):
            tree, payoffs = generate(GeneratorSpec(depth=4, branching=3, seed=seed))
            assert validate_instance(tree, payoffs) == []

    def test_zero_sum_complement(self):
        tree, payoffs = generate(GeneratorSpec(depth=0, zero_sum=True, seed=3))
        n = tree.root
        assert payoffs.x2[n] == -payoffs.x1[n]
        assert payoffs.z2[n] == -payoffs.z1[n]
        assert payoffs.xi2[n] == -payoffs.xi1[n]

    def test_convexity_clamp(self):
        for seed in range(8):
            tree, payoffs = generate(GeneratorSpec(depth=3, convexity=True, seed=seed))
            for player in (1, 2):
                check_convexity(payoffs, tree, player, tol=0.0)

    def test_war_of_attrition_pattern(self):
        tree, payoffs = generate(GeneratorSpec(family="war-of-attrition", depth=3, seed=1))
        assert all(payoffs.y1[n] > payoffs.x1[n] for n in tree.nodes)
        own = payoffs.side(2)
        assert all(own.opp[n] > own.stop[n] for n in tree.nodes)

    def test_preemption_pattern(self):
        tree, payoffs = generate(GeneratorSpec(family="preemption", depth=3, seed=1))
        assert all(payoffs.x1[n] > payoffs.y1[n] for n in tree.nodes)
        own = payoffs.side(2)
        assert all(own.stop[n] > own.opp[n] for n in tree.nodes)

    @pytest.mark.parametrize("player", (1, 2))
    @pytest.mark.parametrize("seed", range(10))
    def test_families_hold_for_each_player(self, seed, player):
        # being conceded to beats conceding in a war of attrition, and
        # stopping first beats being preempted in a preemption game, in each
        # player's own view
        tree, payoffs = generate(GeneratorSpec(family="war-of-attrition", depth=4, branching=3, seed=seed))
        own = payoffs.side(player)
        assert all(own.opp[n] > own.stop[n] for n in tree.nodes)
        tree, payoffs = generate(GeneratorSpec(family="preemption", depth=4, branching=3, seed=seed))
        own = payoffs.side(player)
        assert all(own.stop[n] > own.opp[n] for n in tree.nodes)

    @pytest.mark.parametrize(
        "kw", [{"depth": -1}, {"branching": 0}, {"payoff_range": 0.0}, {"family": "duel"}]
    )
    def test_rejects_bad_specs(self, kw):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(**kw))


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        tree, payoffs = generate(GeneratorSpec(depth=3, branching=2, seed=11))
        path = tmp_path / "game.json"
        save(path, tree, payoffs)
        tree2, payoffs2, profile = load(path)
        assert profile is None
        assert tree2.nodes == tree.nodes and tree2.children == tree.children
        assert payoffs2 == payoffs

    def test_save_load_save_is_byte_stable(self, tmp_path):
        tree, payoffs = generate(GeneratorSpec(depth=3, branching=3, seed=13))
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        save(first, tree, payoffs)
        save(second, *load(first)[:2])
        assert first.read_bytes() == second.read_bytes()

    def test_profile_round_trip_exact(self, tmp_path):
        tree, payoffs = generate(GeneratorSpec(depth=2, branching=2, seed=17))
        profile = BehavioralProfile(
            player1=dyadic_mixes(tree, 1), player2=dyadic_mixes(tree, 2)
        )
        path = tmp_path / "game.json"
        save(path, tree, payoffs, profile)
        _, _, loaded = load(path)
        assert loaded is not None
        assert loaded.player1 == profile.player1
        assert loaded.player2 == profile.player2

    def test_equal_mixes_share_one_tuple_that_keeps_its_floats(self, tmp_path):
        # -0.0 stays apart from 0.0, and true and 1 from 1.0 (a file's
        # integers load as floats, a library document's do not)
        path = tmp_path / "profile.json"
        path.write_text(
            '{"player1": {"a": [-0.0, 1.0, 0.0], "b": [0.0, 1.0, 0.0], "c": [0.0, 1.0, 0.0]},'
            ' "player2": {"a": [1.0, 0.0, 0.0], "b": [true, 0, 0], "c": [1.0, 0.0, 0.0]}}'
        )
        profile = profile_from_doc(read_doc(path))
        a, b, c = (profile.player1[n] for n in "abc")
        assert [x.hex() for x in a] == ["-0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]
        assert [x.hex() for x in b] == ["0x0.0p+0", "0x1.0000000000000p+0", "0x0.0p+0"]
        assert b is c
        a, b, c = (profile.player2[n] for n in "abc")
        assert b[0] is True and a == c  # a player holding a bool keeps one tuple per list
        ints = profile_from_doc({"player1": {"a": [1, 0, 0], "b": [1.0, 0.0, 0.0]}, "player2": {}})
        assert list(map(type, ints.player1["a"])) == [int, int, int]
        assert list(map(type, ints.player1["b"])) == [float, float, float]

    def test_a_report_profile_is_checked_once_per_distinct_mix(self, tmp_path, monkeypatch):
        tree, payoffs = generate(GeneratorSpec(depth=4, branching=3, seed=2))
        inst = tmp_path / "game.json"
        report = tmp_path / "report.json"
        save(inst, tree, payoffs)
        assert main(["equilibrium", str(inst), "--out", str(report)]) == 0
        doc = read_doc(report)
        split = instance_from_doc(doc["instance"])[0]
        profile = profile_from_doc(doc["profile"])
        checked = []
        flaw = core._mix_flaw
        monkeypatch.setattr(core, "_mix_flaw", lambda mix: checked.append(mix) or flaw(mix))
        assert validate_profile(split, profile) == []
        distinct = [{tuple(map(float.hex, m)) for m in doc["profile"][side].values()} for side in ("player1", "player2")]
        assert len(checked) == len(distinct[0]) + len(distinct[1]) < len(split.nodes)

    def test_malformed_probability_names_the_field(self, tmp_path):
        tree, payoffs = generate(GeneratorSpec(depth=1, seed=1))
        doc = instance_to_doc(tree, payoffs)
        for entry in doc["nodes"]:
            if "prob" in entry:
                entry["prob"] = "half"
                break
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="prob"):
            load(path)

    def test_missing_payoff_field(self, tmp_path):
        tree, payoffs = generate(GeneratorSpec(depth=1, seed=1))
        doc = instance_to_doc(tree, payoffs)
        del doc["nodes"][0]["X1"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="X1"):
            load(path)

    def test_duplicate_id(self, tmp_path):
        tree, payoffs = generate(GeneratorSpec(depth=1, seed=1))
        doc = instance_to_doc(tree, payoffs)
        doc["nodes"].append(dict(doc["nodes"][-1]))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="duplicate"):
            load(path)

    def test_wrong_horizon(self, tmp_path):
        tree, payoffs = generate(GeneratorSpec(depth=1, seed=1))
        doc = instance_to_doc(tree, payoffs)
        doc["horizon"] = 9
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="horizon"):
            load(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(SchemaError):
            load(path)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda nodes: nodes[0].update(X1="abc"),
            lambda nodes: nodes[1].update(prob=True),
            lambda nodes: nodes[-1].pop("xi2"),
            lambda nodes: nodes[-1].update(Z2=None, xi1=[1.0]),
        ],
        ids=["string-payoff", "bool-probability", "missing-terminal", "null-and-array"],
    )
    def test_a_bad_value_in_a_file_is_worded_as_in_the_library(self, tmp_path, edit):
        tree, payoffs = generate(GeneratorSpec(depth=1, seed=1))
        doc = instance_to_doc(tree, payoffs)
        edit(doc["nodes"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        issues = validate_instance(*_raw_instance(doc))
        assert issues
        with pytest.raises(SchemaError) as caught:
            load(path)
        more = len(issues) - 1  # the line words the first issue and counts the rest
        assert str(caught.value) == (f"{issues[0]}; and {more} more" if more else issues[0])

    def test_json_integers_load_as_floats(self, tmp_path):
        # a chain, so the one probability is the integer 1 too
        doc = {
            "horizon": 1,
            "meta": {},
            "nodes": [
                {"id": "r", "depth": 0, "X1": 1, "Y1": 2, "Z1": 0, "X2": -1, "Y2": 3, "Z2": 2},
                {"id": "a", "depth": 1, "parent": "r", "prob": 1, "X1": 0, "Y1": 1, "Z1": 1,
                 "X2": 2, "Y2": -2, "Z2": 0, "xi1": 4, "xi2": -4},
            ],
        }
        path = tmp_path / "ints.json"
        path.write_text(json.dumps(doc))
        tree, payoffs, _ = load(path)
        tables = (payoffs.x1, payoffs.y1, payoffs.z1, payoffs.x2, payoffs.y2, payoffs.z2, payoffs.xi1, payoffs.xi2)
        edges = {child: p for kids in tree.children.values() for child, p in kids}
        assert {type(v) for table in (*tables, edges) for v in table.values()} == {float}
        assert payoffs.x2 == {"r": -1.0, "a": 2.0} and payoffs.xi1 == {"a": 4.0}

    def test_every_golden_split_tree_reads_back_as_written(self):
        # the writer takes each node's parent and probability from its
        # parent's child list; each report's split tree, padding chains (A63)
        # and copies of copies included, must load back record-equal
        padded = 0
        for seed in range(GAMES):
            report = construct(*golden_game(seed), ETA)
            tree, payoffs, profile = instance_from_doc(instance_to_doc(report.tree, report.payoffs))
            assert (tree, payoffs, profile) == (report.tree, report.payoffs, None), seed
            padded += any(c.label == "A63" for c in report.case_trace)
        assert padded == 28


class TestCsvReport:
    def test_columns(self, tmp_path):
        tree = uniform_tree(1)
        path = tmp_path / "report.csv"
        v = {n: 0.5 for n in tree.nodes}
        write_report_csv(path, tree, v, v, {"n0"}, set(), cases={"n0": "A1"})
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "node_id,depth,v1,v2,mu1_hit,mu2_hit,case"
        assert lines[1].startswith("n0,0,0.5,0.5,1,0,A1")
        assert len(lines) == 1 + len(tree.nodes)


class TestCli:
    def _run(self, *args):
        return main(list(args))

    def test_pipeline(self, tmp_path):
        inst = tmp_path / "game.json"
        csv_out = tmp_path / "values.csv"
        eq_out = tmp_path / "eq.json"
        assert self._run("generate", "--depth", "3", "--seed", "4", "--out", str(inst)) == 0
        assert self._run("solve", str(inst), "--out", str(csv_out)) == 0
        assert csv_out.read_text().splitlines()[0].startswith("node_id")
        assert self._run("equilibrium", str(inst), "--eta", "0.05", "--out", str(eq_out)) == 0
        report = json.loads(eq_out.read_text())
        split_inst = tmp_path / "split.json"
        split_inst.write_text(json.dumps(report["instance"]))
        prof = tmp_path / "profile.json"
        prof.write_text(json.dumps({"profile": report["profile"]}))
        assert self._run("verify", str(split_inst), "--profile", str(prof), "--eta", "0.05") == 0
        assert self._run("invariants", str(inst), "--eta", "0.1") == 0

    def test_pure_pipeline(self, tmp_path):
        inst = tmp_path / "game.json"
        eq_out = tmp_path / "eq.json"
        assert (
            self._run(
                "generate", "--depth", "2", "--convexity", "--seed", "9", "--out", str(inst)
            )
            == 0
        )
        assert self._run("equilibrium", str(inst), "--pure", "--out", str(eq_out)) == 0
        report = json.loads(eq_out.read_text())
        for side in report["profile"].values():
            for mix in side.values():
                assert all(p in (0.0, 1.0) for p in mix)

    def test_pure_on_a_tolerated_z_above_max_x_y_is_exit_1(self, tmp_path, capsys):
        # --tol 2.0 lets the game through the convexity gate; a punishment
        # that would stop uniformly is a convexity error, not exit 5
        inst = tmp_path / "game.json"
        argv = ("generate", "--family", "random", "--depth", "3", "--branching", "2", "--seed", "1")
        assert self._run(*argv, "--out", str(inst)) == 0
        code = self._run("equilibrium", str(inst), "--pure", "--tol", "2.0", "--out", str(tmp_path / "pure.json"))
        assert code == 1
        assert "above max(X1, Y1)" in capsys.readouterr().err
        assert not (tmp_path / "pure.json").exists()

    def test_gap_threshold_exceeded_is_exit_4(self, tmp_path):
        # waiting forever is not an equilibrium when stopping pays more
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False)
        profile = BehavioralProfile.waiting(tree)
        inst = tmp_path / "game.json"
        save(inst, tree, payoffs, profile)
        assert self._run("verify", str(inst), "--gap-threshold", "0.5") == 4

    def test_verify_without_a_profile_is_exit_1(self, tmp_path, capsys):
        # a game file with no embedded profile and no --profile to read
        tree = uniform_tree(1)
        inst = tmp_path / "game.json"
        save(inst, tree, constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0))
        capsys.readouterr()
        assert self._run("verify", str(inst)) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no profile embedded in the instance and none provided\n"
        assert captured.out == ""

    def test_non_finite_gap_is_exit_5(self, tmp_path, monkeypatch, capsys):
        tree = uniform_tree(1)
        payoffs = constant_payoffs(tree, x=0.0, y=2.0, z=2.0, xi=1.0, zero_sum=False)
        inst = tmp_path / "game.json"
        save(inst, tree, payoffs, BehavioralProfile.waiting(tree))
        monkeypatch.setattr(verify, "deviator_lines", poisoned_deviator_lines(root_call(tree, 2), 3, math.nan))
        assert self._run("verify", str(inst)) == 5
        captured = capsys.readouterr()
        assert "gap1" not in captured.out
        assert "model violation: player 2: deviation gap nan is not finite" in captured.err

    def test_usage_error_is_exit_1(self):
        assert self._run("solve") == 1
        assert self._run() == 1

    def test_schema_error_is_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert self._run("solve", str(bad), "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize(
        "name, field, kind",
        [
            ("X1", "x1", "payoff"),
            ("Y1", "y1", "payoff"),
            ("Z1", "z1", "payoff"),
            ("X2", "x2", "payoff"),
            ("Y2", "y2", "payoff"),
            ("Z2", "z2", "payoff"),
            ("xi1", "xi1", "terminal payoff"),
            ("xi2", "xi2", "terminal payoff"),
        ],
    )
    def test_each_table_is_worded_by_its_file_key(self, tmp_path, capsys, name, field, kind):
        # a file without the key and a library table without the entry
        # word the same issue, naming the table as the file does
        tree, payoffs = generate(GeneratorSpec(depth=2, branching=2, seed=3))
        node = tree.leaves[-1] if kind == "terminal payoff" else tree.nodes[1]
        issue = f"node {node}: missing {kind} {name}"
        doc = instance_to_doc(tree, payoffs)
        next(entry for entry in doc["nodes"] if entry["id"] == node).pop(name)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._run("solve", str(path), "--out", str(tmp_path / "values.csv")) == 2
        assert capsys.readouterr().err == f"schema error: {issue}\n"
        del getattr(payoffs, field)[node]
        assert validate_instance(tree, payoffs) == [issue]

    @pytest.mark.parametrize("seed", [4, 62])
    def test_verify_certifies_a_report_against_its_split_instance(self, tmp_path, capsys, seed):
        inst = tmp_path / "game.json"
        report_path = tmp_path / "report.json"
        generate_args = ("--family", "random", "--depth", "7", "--branching", "3", "--seed", str(seed))
        assert self._run("generate", *generate_args, "--out", str(inst)) == 0
        assert self._run("equilibrium", str(inst), "--out", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        capsys.readouterr()
        assert self._run("verify", str(inst), "--profile", str(report_path)) == 0
        gaps = re.search(r"gap1=(\S+) gap2=(\S+)", capsys.readouterr().out).groups()
        assert tuple(map(float, gaps)) == (
            report["gaps"]["player1"]["gap"],
            report["gaps"]["player2"]["gap"],
        )

    @pytest.mark.parametrize("bogus", ["no-such-node", 7, "another-copy"])
    def test_verify_rejects_a_second_half_that_is_not_the_split_copies(self, tmp_path, capsys, bogus):
        # an A6 root: the report splits four frames, each keyed to its copy
        inst, report_path = tmp_path / "game.json", tmp_path / "report.json"
        assert self._run("generate", "--depth", "2", "--branching", "2", "--seed", "17", "--out", str(inst)) == 0
        assert self._run("equilibrium", str(inst), "--out", str(report_path)) == 0
        assert self._run("verify", str(inst), "--profile", str(report_path)) == 0
        report = json.loads(report_path.read_text())
        first, second = list(report["second_half"])[:2]
        report["second_half"][first] = report["second_half"][second] if bogus == "another-copy" else bogus
        report_path.write_text(json.dumps(report))
        capsys.readouterr()
        assert self._run("verify", str(inst), "--profile", str(report_path)) == 2
        assert capsys.readouterr().err == "schema error: report: second_half must map game nodes to their split copies\n"

    def test_solve_and_equilibrium_read_tol_alike(self, tmp_path, capsys):
        # At --tol 1000 every root test passes, so the root is A1 for both.
        inst = tmp_path / "game.json"
        assert self._run("generate", "--depth", "3", "--branching", "2", "--seed", "3", "--out", str(inst)) == 0
        cases = []
        for tol in ([], ["--tol", "1000"]):
            capsys.readouterr()
            assert self._run("solve", str(inst), *tol, "--out", str(tmp_path / "v.csv")) == 0
            assert self._run("equilibrium", str(inst), *tol, "--out", str(tmp_path / "r.json")) == 0
            cases.append(re.findall(r"case=(\w+)", capsys.readouterr().out))
        assert cases == [["M1", "M1"], ["A1", "A1"]]

    @pytest.mark.parametrize("tol, scans", [([], 1), (["--tol", "0.001"], 0)], ids=["default", "given"])
    def test_solve_finds_the_tolerance_once(self, tmp_path, monkeypatch, tol, scans):
        # the default tolerance scans every payoff table; the hitting and
        # root tests take the one found, as construct's do
        inst = tmp_path / "game.json"
        assert self._run("generate", "--depth", "3", "--seed", "3", "--out", str(inst)) == 0
        calls = []
        scan = PayoffProcess.payoff_range.fget
        monkeypatch.setattr(PayoffProcess, "payoff_range", property(lambda self: calls.append(1) or scan(self)))
        assert self._run("solve", str(inst), *tol, "--out", str(tmp_path / "v.csv")) == 0
        assert len(calls) == scans

    @pytest.mark.parametrize(
        "links, stray", [((("b", "c"), ("c", "b")), "c"), ((("s", "s"),), "s")], ids=["two-cycle", "own-parent"]
    )
    def test_a_parent_cycle_in_a_game_file_is_a_schema_error(self, tmp_path, capsys, links, stray):
        doc = instance_to_doc(*generate(GeneratorSpec(depth=2, branching=2, seed=3)))
        leaf = doc["nodes"][-1]
        doc["nodes"] += [{**leaf, "id": node, "parent": parent} for node, parent in links]
        inst = tmp_path / "game.json"
        inst.write_text(json.dumps(doc))
        out = tmp_path / "v.csv"
        capsys.readouterr()
        assert self._run("solve", str(inst), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"schema error: nodes: node {stray!r} is not reachable from the root\n"
        assert not out.exists()

    def test_the_report_is_one_line_of_the_document_built(self, tmp_path, monkeypatch):
        # reports come from the C encoder: sorted keys, no indent, one line
        built = []
        write_doc = cli.write_doc

        def recorded(path, doc, *args, **kwargs):
            built.append(doc)
            write_doc(path, doc, *args, **kwargs)

        monkeypatch.setattr(cli, "write_doc", recorded)
        inst = tmp_path / "game.json"
        report = tmp_path / "report.json"
        assert self._run("generate", "--depth", "4", "--branching", "3", "--seed", "2", "--out", str(inst)) == 0
        assert self._run("equilibrium", str(inst), "--out", str(report)) == 0
        text = report.read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert json.loads(text) == built[0]
        assert text == json.dumps(built[0], sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "mix",
        [
            ["x", 0.0, 1.0],
            [True, 0.0, 1.0],
            [True, 0.0, 0.0],
            [None, 0.0, 1.0],
            [[[0.5]], 0.0, 0.5],
            [float("nan"), 0.0, 1.0],
        ],
        ids=["str", "bool", "bool-beside-its-float", "null", "array", "nan"],
    )
    def test_a_bad_mix_is_worded_alike_from_a_file_and_the_library(self, tmp_path, capsys, mix):
        # every other node of player 1 holds [1.0, 0.0, 0.0], which equals
        # [true, 0, 0]: the loader must not let the root share its tuple
        tree, payoffs = generate(GeneratorSpec(depth=2, seed=1))
        inst = tmp_path / "game.json"
        save(inst, tree, payoffs)
        profile = BehavioralProfile.waiting(tree)
        profile.player1 = {n: ATOM_MIX for n in tree.nodes}
        profile.player1[tree.root] = tuple(mix)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"profile": profile_to_doc(profile)}))
        capsys.readouterr()
        assert self._run("verify", str(inst), "--profile", str(path)) == 2
        assert capsys.readouterr().err == f"schema error: {validate_profile(tree, profile)[0]}\n"

    @pytest.mark.parametrize(
        "field, words",
        [("X1", "payoff X1 [[["), ("horizon", "horizon: declared [[[")],
        ids=["payoff", "horizon"],
    )
    def test_a_deeply_nested_value_is_worded_in_a_short_line(self, tmp_path, field, words):
        # 985 levels load (the parser stops a little deeper); the issue
        # words the value in a few characters, not its 1,970
        doc = instance_to_doc(*generate(GeneratorSpec(depth=1, seed=1)))
        (doc if field == "horizon" else doc["nodes"][0])[field] = "NESTED"
        path = tmp_path / "nested.json"
        path.write_text(json.dumps(doc).replace('"NESTED"', "[" * 985 + "]" * 985))
        proc = subprocess.run(
            [sys.executable, "-m", "dynkin.cli", "solve", str(path), "--out", str(tmp_path / "values.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert words in proc.stderr
        assert all(len(line) < 300 for line in proc.stderr.splitlines())

    @pytest.mark.parametrize(
        "command, edit, code",
        [
            ("solve", lambda nodes: nodes[0].update(X1="abc"), 2),
            ("solve", lambda nodes: nodes.append(dict(nodes[0])), 2),
            ("equilibrium --pure", lambda nodes: nodes[0].update(Z1=abs(nodes[0]["X1"]) + abs(nodes[0]["Y1"]) + 1.0), 1),
        ],
        ids=["bad-payoff", "duplicate-id", "pure-non-convex"],
    )
    def test_a_long_node_id_is_worded_in_a_short_line(self, tmp_path, capsys, command, edit, code):
        # the root's id is 100,000 characters long; an issue cuts it to 57
        # characters and "..."
        doc = instance_to_doc(*generate(GeneratorSpec(depth=1, seed=1)))
        long_id = "r" * 100_000
        for entry in doc["nodes"]:
            if entry["id"] == "n0":
                entry["id"] = long_id
            if entry.get("parent") == "n0":
                entry["parent"] = long_id
        edit(doc["nodes"])
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self._run(*command.split(), str(path), "--out", str(tmp_path / "out")) == code
        err = capsys.readouterr().err
        assert "r" * 57 + "..." in err
        assert all(len(line) < 300 for line in err.splitlines())

    def test_a_long_node_id_in_a_profile_is_worded_in_a_short_line(self, tmp_path, capsys):
        tree, payoffs = generate(GeneratorSpec(depth=1, seed=1))
        inst = tmp_path / "game.json"
        save(inst, tree, payoffs)
        profile = BehavioralProfile.waiting(tree)
        profile.player2["r" * 100_000] = (0.0, 0.0, 1.0)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"profile": profile_to_doc(profile)}))
        capsys.readouterr()
        assert self._run("verify", str(inst), "--profile", str(path)) == 2
        err = capsys.readouterr().err
        assert "r" * 57 + "..." in err
        assert all(len(line) < 300 for line in err.splitlines())

    def test_one_process_answers_as_fresh_processes(self, tmp_path, monkeypatch, capsys):
        # main builds its parser once per process: a valid command, a usage
        # error, --help and the valid command again each give the exit code,
        # stdout and stderr of a fresh ``python -m dynkin.cli``
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
        game = str(tmp_path / "game.json")
        generate_argv = ["generate", "--depth", "2", "--seed", "4", "--out", game]
        capsys.readouterr()
        for argv in (generate_argv, ["solve", game, "--eta", "0"], ["--help"], generate_argv):
            code = main(argv)
            captured = capsys.readouterr()
            proc = subprocess.run([sys.executable, "-m", "dynkin.cli", *argv], capture_output=True, text=True)
            assert (code, captured.out, captured.err) == (proc.returncode, proc.stdout, proc.stderr), argv

    def test_a_game_with_many_bad_values_is_one_short_error_line(self, tmp_path, capsys):
        # every X1 of a 22-node game is a string: the line words the first
        # issue and counts the other 21, and the library's list holds all 22
        doc = instance_to_doc(*generate(GeneratorSpec(depth=6, branching=3, seed=1)))
        for entry in doc["nodes"]:
            entry["X1"] = "abc"
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        issues = validate_instance(*_raw_instance(doc))
        assert len(issues) == 22
        line = issues[0] + "; and 21 more"
        capsys.readouterr()
        assert self._run("solve", str(path), "--out", str(tmp_path / "values.csv")) == 2
        err = capsys.readouterr().err
        assert err == f"schema error: {line}\n" and len(err) < 300
        with pytest.raises(InstanceError) as caught:
            construct(*_raw_instance(doc), eta=0.05)
        assert str(caught.value) == line

    def test_many_issues_with_long_fields_are_one_short_error_line(self, tmp_path, capsys):
        # every id is 100 characters long and every probability a
        # 100-character string: an issue words up to three fields in 60
        # characters each, so the line words one issue and counts the rest
        doc = instance_to_doc(*generate(GeneratorSpec(depth=2, branching=3, seed=1)))
        long = {entry["id"]: entry["id"].ljust(100, "x") for entry in doc["nodes"]}
        for entry in doc["nodes"]:
            entry["id"] = long[entry["id"]]
            if "parent" in entry:
                entry.update(parent=long[entry["parent"]], prob="p" * 100)
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc))
        assert len(validate_instance(*_raw_instance(doc))) > 1
        capsys.readouterr()
        assert self._run("solve", str(path), "--out", str(tmp_path / "values.csv")) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 300

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dynkin.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "equilibrium" in proc.stdout


# Rejected inputs: argv with {placeholders} for the files of ``bad_files``,
# and the documented exit code.
BAD_INPUTS = {
    "equilibrium-eta-zero": (["equilibrium", "{game}", "--eta", "0", "--out", "{out}"], 1),
    "equilibrium-eta-nan": (["equilibrium", "{game}", "--eta", "nan", "--out", "{out}"], 1),
    "equilibrium-eta-inf": (["equilibrium", "{game}", "--eta", "inf", "--out", "{out}"], 1),
    "solve-eta-negative": (["solve", "{game}", "--eta", "-0.1", "--out", "{out}"], 1),
    "verify-eta-nan": (["verify", "{game}", "--profile", "{waiting_profile}", "--eta", "nan"], 1),
    "verify-threshold-nan": (["verify", "{game}", "--profile", "{waiting_profile}", "--gap-threshold", "nan"], 1),
    "verify-threshold-inf": (["verify", "{game}", "--profile", "{waiting_profile}", "--gap-threshold", "inf"], 1),
    "verify-threshold-zero": (["verify", "{game}", "--profile", "{waiting_profile}", "--gap-threshold", "0"], 1),
    "verify-eta-threshold-overflow": (["verify", "{game}", "--profile", "{waiting_profile}", "--eta", "1e308"], 1),
    "pure-non-convex": (["equilibrium", "{game}", "--pure", "--out", "{out}"], 1),
    "bool-payoff": (["solve", "{bool_payoff}", "--out", "{out}"], 2),
    "huge-int-payoff": (["solve", "{huge_payoff}", "--out", "{out}"], 2),
    "parent-cycle": (["solve", "{cycle}", "--out", "{out}"], 2),
    "profile-unknown-node": (["verify", "{game}", "--profile", "{stray_profile}"], 2),
    "profile-not-json": (["verify", "{game}", "--profile", "{not_json}"], 2),
    "report-for-another-game": (["verify", "{game}", "--profile", "{other_report}"], 2),
    "equilibrium-tol-nan": (["equilibrium", "{game}", "--tol", "nan", "--out", "{out}"], 1),
    "equilibrium-tol-negative": (["equilibrium", "{game}", "--tol", "-1", "--out", "{out}"], 1),
    "invariants-tol-nan": (["invariants", "{game}", "--tol", "nan"], 1),
    "solve-tol-inf": (["solve", "{game}", "--tol", "inf", "--out", "{out}"], 1),
    "verify-profile-nan": (["verify", "{game}", "--profile", "{nan_profile}"], 2),
    "report-forged-xi": (["verify", "{report_game}", "--profile", "{forged_xi_report}"], 2),
    "report-forged-probability": (["verify", "{report_game}", "--profile", "{forged_prob_report}"], 2),
    "generate-depth-negative": (["generate", "--depth", "-1", "--out", "{out}"], 1),
    "generate-branching-zero": (["generate", "--branching", "0", "--out", "{out}"], 1),
    "generate-range-nan": (["generate", "--range", "nan", "--out", "{out}"], 1),
    "generate-range-inf": (["generate", "--range", "inf", "--out", "{out}"], 1),
    "verify-payoff-overflow": (["verify", "{big_payoff}"], 2),
    "generate-range-overflow": (["generate", "--depth", "2", "--range", "1e308", "--out", "{out}"], 1),
}
# Files that the JSON parser itself rejects, through every command that reads one.
for _file in ("long_int_literal", "deep_nesting"):
    BAD_INPUTS.update(
        {
            f"{_file}-solve": (["solve", f"{{{_file}}}", "--out", "{out}"], 2),
            f"{_file}-equilibrium": (["equilibrium", f"{{{_file}}}", "--out", "{out}"], 2),
            f"{_file}-invariants": (["invariants", f"{{{_file}}}"], 2),
            f"{_file}-verify-instance": (["verify", f"{{{_file}}}", "--profile", "{waiting_profile}"], 2),
            f"{_file}-verify-profile": (["verify", "{game}", "--profile", f"{{{_file}}}"], 2),
        }
    )


def _forged_reports(game_path, tmp_path):
    """A real report of the game, then two copies whose embedded instance
    changes what the profile is certified against: every leaf's terminal
    payoffs, or the order of two sibling probabilities."""
    assert main(["equilibrium", game_path, "--out", str(tmp_path / "report.json")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    forged_xi = json.loads(json.dumps(report))
    for entry in forged_xi["instance"]["nodes"]:
        if "xi1" in entry:
            entry.update(xi1=100.0, xi2=100.0)
    forged_prob = json.loads(json.dumps(report))
    siblings = {}
    for entry in forged_prob["instance"]["nodes"][1:]:  # the root has no parent
        siblings.setdefault(entry["parent"], []).append(entry)
    first, second = next(kids for kids in siblings.values() if len({e["prob"] for e in kids}) > 1)[:2]
    first["prob"], second["prob"] = second["prob"], first["prob"]
    return {"forged_xi_report": json.dumps(forged_xi), "forged_prob_report": json.dumps(forged_prob)}


@pytest.fixture
def bad_files(tmp_path):
    tree, payoffs = generate(GeneratorSpec(depth=2, branching=2, seed=3))
    doc = instance_to_doc(tree, payoffs)
    bool_payoff = json.loads(json.dumps(doc))
    bool_payoff["nodes"][0]["X1"] = True
    huge_payoff = json.loads(json.dumps(doc))
    huge_payoff["nodes"][0]["Y2"] = 10**400
    long_int = json.loads(json.dumps(doc))
    long_int["nodes"][0]["X1"] = "LONG"
    cycle = json.loads(json.dumps(doc))
    cycle["nodes"] += [
        {**doc["nodes"][-1], "id": "c1", "parent": "c2"},
        {**doc["nodes"][-1], "id": "c2", "parent": "c1"},
    ]
    waiting = {n: [0.0, 0.0, 1.0] for n in tree.nodes}
    waiting_profile = {"player1": waiting, "player2": waiting}
    stray = {"player1": {**waiting, "ghost": [0.0, 0.0, 1.0]}, "player2": waiting}
    nan_mix = {"player1": {**waiting, tree.root: [float("nan"), 0.0, 1.0]}, "player2": waiting}
    other = instance_to_doc(*generate(GeneratorSpec(depth=2, branching=2, seed=5)))
    # 0.5 * (early + late) overflows at these payoffs, and a NaN gap would certify as 0
    big = instance_to_doc(*single_node_payoffs(1.5e308, 1.5e308, 1.5e308, 0.0, 0.0, 0.0, 0.0, 0.0))
    big["profile"] = {"player1": {"n0": [0.0, 0.0, 1.0]}, "player2": {"n0": [0.0, 0.0, 1.0]}}
    texts = {
        "game": json.dumps(doc),
        "bool_payoff": json.dumps(bool_payoff),
        "huge_payoff": json.dumps(huge_payoff),
        "cycle": json.dumps(cycle),
        "waiting_profile": json.dumps({"profile": waiting_profile}),
        "stray_profile": json.dumps({"profile": stray}),
        "nan_profile": json.dumps({"profile": nan_mix}),
        "not_json": "not json {",
        "other_report": json.dumps({"profile": waiting_profile, "instance": other}),
        "big_payoff": json.dumps(big),
        "report_game": json.dumps(instance_to_doc(*generate(GeneratorSpec(depth=4, branching=3, seed=3)))),
        # more digits than int() converts, and more nesting than the parser recurses
        "long_int_literal": json.dumps(long_int).replace('"LONG"', "1" + "0" * 5000),
        "deep_nesting": "[" * 200_000 + "]" * 200_000,
    }
    paths = {"out": str(tmp_path / "out")}
    for name, text in texts.items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    for name, text in _forged_reports(paths["report_game"], tmp_path).items():
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(text)
    return paths


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_bad_input_exits_with_its_code_and_no_traceback(bad_files, case):
    argv, code = BAD_INPUTS[case]
    proc = subprocess.run(
        [sys.executable, "-m", "dynkin.cli", *(a.format(**bad_files) for a in argv)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not Path(bad_files["out"]).exists()


def _raw_instance(doc):
    """The tree and payoffs of a game document, without validating them."""
    children = {}
    root = None
    for entry in doc["nodes"]:
        if "parent" in entry:
            children.setdefault(entry["parent"], []).append((entry["id"], entry["prob"]))
        else:
            root = entry["id"]
    tables = {
        name.lower(): {e["id"]: e[name] for e in doc["nodes"] if name in e}
        for name in ("X1", "Y1", "Z1", "X2", "Y2", "Z2", "xi1", "xi2")
    }
    return EventTree.build(root, children), PayoffProcess(**tables)


def _short_leaf(doc):
    # cut the subtree below the first node one frame above the horizon
    nodes = doc["nodes"]
    cut = next(e for e in nodes if e["depth"] == doc["horizon"] - 1)
    nodes[:] = [e for e in nodes if e.get("parent") != cut["id"]]
    cut.update(xi1=0.0, xi2=0.0)


# One field of a valid game document changed, each an invalid instance.
CORRUPTIONS = {
    "missing-payoff": lambda doc: doc["nodes"][-1].pop("Z2"),
    "nan-payoff": lambda doc: doc["nodes"][1].update(X1=float("nan")),
    "bad-probability-sum": lambda doc: doc["nodes"][1].update(prob=doc["nodes"][1]["prob"] + 0.25),
    "short-leaf": _short_leaf,
}


def _library(entry):
    def run(path, tmp_path):
        tree, payoffs = _raw_instance(json.loads(Path(path).read_text()))
        with pytest.raises(InstanceError):
            entry(tree, payoffs)

    return run


def _command(name, *out):
    def run(path, tmp_path):
        assert main([name, path, *(arg.format(tmp_path) for arg in out)]) == 2

    return run


def _load(path, tmp_path):
    with pytest.raises(SchemaError):
        load(path)


ENTRIES = {
    "load": _load,
    "construct": _library(lambda t, p: construct(t, p, eta=0.05)),
    "construct_pure": _library(lambda t, p: construct_pure(t, p, eta=0.05)),
    "check_invariants": _library(lambda t, p: check_invariants(t, p, eta=0.05)),
    "cli-solve": _command("solve", "--out", "{}/out.csv"),
    "cli-equilibrium": _command("equilibrium", "--out", "{}/out.json"),
    "cli-invariants": _command("invariants"),
}


@pytest.mark.parametrize("corruption", list(CORRUPTIONS))
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_entry_rejects_an_invalid_instance(tmp_path, capsys, entry, corruption):
    tree, payoffs = generate(GeneratorSpec(depth=3, branching=2, seed=0, convexity=True))
    doc = instance_to_doc(tree, payoffs)
    CORRUPTIONS[corruption](doc)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    ENTRIES[entry](str(path), tmp_path)
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Mutated documents: every one loads or is rejected with its documented error


_NODE_IDS = ("n0", "n1", "n2", "n3", "ghost", "")
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_NODE_IDS),
    st.text(max_size=3),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, base):
    """``base`` (a JSON document) after one to three random edits, each at a
    random place: a value replaced, a key or item deleted, or one inserted."""
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, (dict, list)) or draw(st.integers(0, 19)) == 0:
            doc = draw(_JSON_VALUES)
            continue
        holder = doc
        while True:
            keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
            key = draw(st.sampled_from(keys)) if keys else None
            child = holder[key] if keys else None
            if isinstance(child, (dict, list)) and child and draw(st.integers(0, 3)) > 0:
                holder = child
                continue
            break
        edit = draw(st.sampled_from(("replace", "delete", "insert"))) if keys else "insert"
        if edit == "replace":
            holder[key] = draw(_JSON_VALUES)
        elif edit == "delete":
            del holder[key]
        elif isinstance(holder, dict):
            holder[draw(st.sampled_from(("id", "parent", "prob", "depth", "xi1", "X1", "player1", "n0", "extra")))] = draw(_JSON_VALUES)
        else:
            holder.insert(draw(st.integers(0, len(holder))), draw(_JSON_VALUES))
    return doc


_GAME = generate(GeneratorSpec(depth=2, branching=2, seed=17))  # an A6 root: its report splits four frames
_GAME_DOC = instance_to_doc(
    *_GAME, BehavioralProfile(player1=dyadic_mixes(_GAME[0], 1), player2=dyadic_mixes(_GAME[0], 2))
)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(_mutated(_GAME_DOC))
def test_a_mutated_game_loads_or_is_a_schema_error(doc):
    try:
        instance_from_doc(doc)
    except SchemaError:
        pass


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_mutated(_GAME_DOC["profile"]))
def test_a_mutated_profile_loads_or_is_a_schema_error(doc):
    try:
        profile_from_doc(doc)
    except SchemaError:
        pass


@functools.lru_cache(maxsize=None)
def _game_and_report() -> tuple[str, dict]:
    """The game file's text and its report."""
    with tempfile.TemporaryDirectory() as folder:
        game = Path(folder) / "game.json"
        save(game, *_GAME)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["equilibrium", str(game), "--out", str(Path(folder) / "report.json")]) == 0
        report = json.loads((Path(folder) / "report.json").read_text())
        assert len(report["second_half"]) == 4
        return game.read_text(), report


# verify's documented exit codes: success, usage, schema, gap, model violation
VERIFY_EXITS = (0, 1, 2, 4, 5)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(st.data())
def test_verify_on_a_mutated_report_exits_with_a_documented_code(data):
    game_text, report = _game_and_report()
    doc = data.draw(_mutated(report))
    with tempfile.TemporaryDirectory() as folder:
        game, path = Path(folder) / "game.json", Path(folder) / "report.json"
        game.write_text(game_text)
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", str(game), "--profile", str(path)])
    assert code in VERIFY_EXITS, err.getvalue()
    assert "Traceback" not in err.getvalue()


# each command's documented exit codes (see the dynkin.cli docstring)
COMMAND_EXITS = {
    ("equilibrium",): (0, 1, 2, 5),
    ("equilibrium", "--pure"): (0, 1, 2, 5),
    ("invariants",): (0, 2, 3, 5),
    ("solve",): (0, 2, 5),
}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_mutated(_GAME_DOC), st.sampled_from(sorted(COMMAND_EXITS)))
def test_every_command_on_a_mutated_game_exits_with_a_documented_code(doc, command):
    with tempfile.TemporaryDirectory() as folder:
        game = Path(folder) / "game.json"
        game.write_text(json.dumps(doc))
        argv = [command[0], str(game), *command[1:]]
        if command[0] != "invariants":
            argv += ["--out", str(Path(folder) / "out")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in COMMAND_EXITS[command], err.getvalue()
    assert "Traceback" not in err.getvalue()


_GENERATE_VALUES = {
    "--family": st.sampled_from(("random", "war-of-attrition", "preemption", "", "Random", "nope")),
    # every token that parses does so to at most 4 levels and 3 children
    "--depth": st.one_of(st.integers(-3, 4).map(str), st.sampled_from(("x", "1.5", "", "-0", "nan", "\u0663"))),
    "--branching": st.one_of(st.integers(-2, 3).map(str), st.sampled_from(("x", "2.0", "", "-0", "inf"))),
    "--range": st.one_of(
        st.floats().map(repr),
        st.sampled_from(("1e308", "4.5e307", "5e-324", "1e-320", "0", "-0.0", "-1", "x", "", "infinity")),
    ),
    "--seed": st.one_of(st.integers(-(10**30), 10**30).map(str), st.sampled_from(("x", "1.5", "", "1e3"))),
}


@st.composite
def _generate_argv(draw, folder: str):
    """``generate`` argv: each option present or not, with a valid or a
    malformed value, in any order; --out a new file, the folder itself, a
    file in a missing folder, or absent."""
    words = []
    for option, values in _GENERATE_VALUES.items():
        if draw(st.booleans()):
            words.append([option, draw(values)])
    for flag in ("--zero-sum", "--convexity"):
        if draw(st.booleans()):
            words.append([flag])
    out = draw(st.sampled_from(("game.json", "", "missing/game.json", None)))
    if out is not None:
        words.append(["--out", str(Path(folder) / out)])
    return ["generate", *(w for option in draw(st.permutations(words)) for w in option)]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.data())
def test_generate_on_any_argv_exits_0_or_1_without_a_traceback(data):
    with tempfile.TemporaryDirectory() as folder:
        argv = data.draw(_generate_argv(folder))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 0:  # what generate writes loads as a valid game
            tree, payoffs, _ = load(argv[argv.index("--out") + 1])
            assert validate_instance(tree, payoffs) == []


# Each generate flag, its GeneratorSpec field, and valid values for it.
_GENERATE_FIELDS = {
    "--family": ("family", st.sampled_from(("random", "war-of-attrition", "preemption"))),
    "--depth": ("depth", st.integers(0, 3)),
    "--branching": ("branching", st.integers(1, 3)),
    "--range": ("payoff_range", st.sampled_from((0.5, 1.0, 3.25, 1e6))),
    "--zero-sum": ("zero_sum", st.just(True)),
    "--convexity": ("convexity", st.just(True)),
    "--seed": ("seed", st.integers(-5, 10**6)),
}


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(st.data())
def test_generate_writes_the_game_of_the_spec_with_the_flags_given(data):
    # the flags not passed take GeneratorSpec's defaults, whatever those are
    given, argv = {}, ["generate"]
    for flag, (field, values) in _GENERATE_FIELDS.items():
        if data.draw(st.booleans()):
            given[field] = data.draw(values)
            argv += [flag] if isinstance(given[field], bool) else [flag, str(given[field])]
    with tempfile.TemporaryDirectory() as folder:
        cli_out, lib_out = Path(folder) / "cli.json", Path(folder) / "lib.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--out", str(cli_out)]) == 0
        save(lib_out, *generate(GeneratorSpec(**given)))
        assert cli_out.read_bytes() == lib_out.read_bytes(), argv


def _dynkin_chains(source: str) -> set[str]:
    """Every dotted ``dynkin.<...>`` attribute chain the source reads,
    including those read through a local alias such as ``verify = dynkin.verify``."""

    def dotted(node):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        return [node.id, *reversed(parts)] if isinstance(node, ast.Name) else None

    tree = ast.parse(source)
    aliases = {"dynkin": "dynkin"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            chain = dotted(node.value)
            if chain and chain[0] == "dynkin":
                aliases[node.targets[0].id] = ".".join(chain)
    chains = set()
    for node in ast.walk(tree):
        chain = dotted(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in aliases:
            chains.add(".".join([aliases[chain[0]], *chain[1:]]))
    return chains


def _resolve(chain: str):
    obj = importlib.import_module("dynkin")
    for part in chain.split(".")[1:]:
        if not hasattr(obj, part) and inspect.ismodule(obj):
            importlib.import_module(f"{obj.__name__}.{part}")
        obj = getattr(obj, part)
    return obj


def test_benchmark_tracer_names_exist():
    # perfbench's tracer wraps these functions by name with getattr, and its
    # workloads and self-test call dynkin.<module>.<name> chains (the oracle
    # workload through a local alias), so a renamed or deleted one would
    # crash the benchmark rather than this suite.
    root = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", root / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(home, fn) for home, fn, *_ in tracing.SPANS + tracing.COUNTERS]
    assert names
    for home, fn in names:
        assert callable(getattr(importlib.import_module(f"dynkin.{home}"), fn, None)), (home, fn)
    chains = set()
    for name in ("workloads.py", "selftest.py"):
        chains |= _dynkin_chains((root / name).read_text(encoding="utf-8"))
    assert {"dynkin.core.evaluate_profile", "dynkin.verify.best_response", "dynkin.cli.main"} <= chains
    for chain in sorted(chains):
        try:
            _resolve(chain)
        except (AttributeError, ImportError) as exc:
            pytest.fail(f"perfbench reads {chain}: {exc}")


def test_the_package_exports_its_44_names():
    assert sorted(dynkin.__all__) == [
        "ATOM_MIX", "BehavioralProfile", "CaseLabel", "ConvexityError", "EquilibriumReport",
        "EventTree", "GapCertificate", "GeneratorSpec", "HittingTime", "InstanceError",
        "InvariantReport", "ModelViolationError", "PayoffPair", "PayoffProcess", "ProfileError",
        "SchemaError", "StageAction", "UNIFORM_MIX", "ValueProcess", "WAIT_MIX",
        "best_response", "brute_force_best_response", "brute_force_payoff", "brute_force_value",
        "check_invariants", "classify", "construct", "construct_pure", "deviation_gap",
        "evaluate_profile", "evaluate_profile_table", "generate", "hitting_time", "load",
        "punishment_strategy", "save", "solve_matrix_game", "solve_value_process", "split_frame",
        "split_frames", "stage_matrices", "stage_value", "validate_instance", "validate_profile",
    ]
    assert len(set(dynkin.__all__)) == len(dynkin.__all__) == 44


def test_runtime_imports_only_the_standard_library():
    # The engine has no runtime dependencies: every import in the package is
    # relative, of dynkin itself, or of a standard-library module.
    package = Path(__file__).resolve().parent.parent / "src" / "dynkin"
    sources = sorted(package.glob("*.py"))
    assert sources
    outside = []
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.split(".")[0] for name in names}
            outside += [(source.name, t) for t in top if t != "dynkin" and t not in sys.stdlib_module_names]
    assert outside == []


def test_import_loads_neither_dataclasses_nor_inspect():
    # Every command and every benchmark set-up starts by importing the
    # package: ``dataclasses`` would load ``inspect`` (and with it ``ast``,
    # ``dis`` and ``tokenize``) and generate methods with ``exec`` at import.
    root = Path(__file__).resolve().parent.parent
    probe = "import sys; before = set(sys.modules); import dynkin; print(*sorted(set(sys.modules) - before))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=root, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "dynkin.core" in loaded
    assert not loaded & {"dataclasses", "inspect"}


# Every name of a payoff table: its file and issue name and its field.
_TABLE_NAMES = {"X1", "Y1", "Z1", "X2", "Y2", "Z2", "x1", "y1", "z1", "x2", "y2", "z2", "xi1", "xi2"}


def test_payoff_table_names_are_written_only_in_the_schema():
    # ``core``'s schema is the one list of the eight payoff tables: a string
    # that names a table anywhere else in the package is a second list to
    # keep in step by hand
    package = Path(__file__).resolve().parent.parent / "src" / "dynkin"
    stray = []
    schema = set()
    for source in sorted(package.glob("*.py")):
        module = ast.parse(source.read_text(encoding="utf-8"))
        allowed = set()
        if source.name == "core.py":
            for statement in module.body:
                if isinstance(statement, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id in ("STAGE_TABLES", "TERMINAL_TABLES")
                    for target in statement.targets
                ):
                    allowed |= set(map(id, ast.walk(statement)))
        for node in ast.walk(module):
            if isinstance(node, ast.Constant) and node.value in _TABLE_NAMES:
                if id(node) in allowed:
                    schema.add(node.value)
                else:
                    stray.append((source.name, node.lineno, node.value))
    assert schema == _TABLE_NAMES
    assert stray == []


def test_benchmark_checkers_pass_their_self_test():
    # perfbench's checkers recompute every output apart from the engine; a
    # change to the engine's API or results that breaks one shows here.
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "13 of 13" in proc.stdout


def test_the_ci_runs_the_benchmark_self_test():
    # the workflow runs the command of the test above from the checkout root
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
    steps = [line.strip() for line in workflow.read_text(encoding="utf-8").splitlines()]
    assert "- run: python perfbench/selftest.py" in steps


def _console_script_commands(workflow: Path) -> list[str]:
    """The ``run`` lines of the workflow's "dynkin console script" step."""
    lines = workflow.read_text(encoding="utf-8").splitlines()
    step = [k for k, line in enumerate(lines) if line.strip() == "- name: dynkin console script"]
    assert len(step) == 1, "the workflow has no single dynkin console script step"
    run = next(k for k in range(step[0] + 1, len(lines)) if lines[k].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    commands = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        if line.strip():
            commands.append(line.strip())
    return commands


def test_the_ci_console_script_step_runs(tmp_path, monkeypatch, capsys):
    # the workflow's console-script step, command by command, through the
    # CLI entry point in an empty folder: each must exit 0, as the step needs
    workflow = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"
    commands = _console_script_commands(workflow)
    assert commands, "the console-script step runs no command"
    # a game whose root is a leaf: the only root split that moves the
    # terminal payoffs to the copy
    assert "dynkin generate --depth 0 --seed 5 --out leaf.json" in commands
    assert "dynkin verify leaf.json --profile leaf-report.json --eta 0.05" in commands
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = shlex.split(command)
        assert argv[0] == "dynkin", command
        assert main(argv[1:]) == 0, (command, capsys.readouterr())


def test_each_mutant_text_occurs_once_in_src():
    # tests/mutants.py plants each row's text in a copy of src; a row whose
    # text has gone, or now occurs twice, would plant nothing or the wrong fault
    from mutants import MUTANTS

    root = Path(__file__).resolve().parent.parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in (root / "src" / "dynkin").glob("*.py")}
    assert MUTANTS
    for mutant in MUTANTS:
        assert mutant.file in sources, mutant
        assert sum(text.count(mutant.text) for text in sources.values()) == 1, mutant
        assert sources[mutant.file].count(mutant.text) == 1, mutant
        assert mutant.replacement != mutant.text, mutant
        test_file = mutant.test.split("::")[0]
        assert (root / test_file).is_file(), mutant


def test_a_failing_property_test_is_reported_and_the_session_goes_on(tmp_path):
    # Every warning is an error here, yet Hypothesis's pytest plugin imports
    # libcst to write a failing example's patch, and that import warns from
    # mypy_extensions.  Under the repo's own warning settings a failing
    # property test must show its falsifying example and fail alone: the
    # test after it still runs, and pytest exits 1, not 3 (internal error).
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n\n\n"
        "def test_after():\n"
        "    pass\n",
        encoding="utf-8",
    )
    argv = ["-c", str(config), "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-v", "test_property.py"]
    proc = subprocess.run([sys.executable, "-m", "pytest", *argv], cwd=tmp_path, capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out
    assert "test_property.py::test_after PASSED" in out


def test_each_command_checks_its_game_once(tmp_path, monkeypatch, capsys):
    # load's check is the last one a command makes on its game: equilibrium
    # (pure or not), verify --profile and solve check it once, and
    # invariants checks it once and then its own split of every frame, which
    # doubles the node count
    tree, payoffs = generate(GeneratorSpec(depth=3, branching=3, seed=1, convexity=True))
    game, report = tmp_path / "game.json", tmp_path / "report.json"
    save(game, tree, payoffs)
    checked = []
    original = core.validate_instance

    def counted(tree, payoffs):
        checked.append(len(tree.nodes))
        return original(tree, payoffs)

    for module in (core, toolkit, cli, equilibrium, verify):
        if getattr(module, "validate_instance", None) is original:
            monkeypatch.setattr(module, "validate_instance", counted)
    n = len(tree.nodes)
    for argv, expected in (
        (["equilibrium", str(game), "--out", str(report)], [n]),
        (["verify", str(game), "--profile", str(report)], [n]),
        (["equilibrium", str(game), "--pure", "--out", str(report)], [n]),
        (["verify", str(game), "--profile", str(report)], [n]),
        (["solve", str(game), "--out", str(tmp_path / "values.csv")], [n]),
        (["invariants", str(game)], [n, 2 * n]),
    ):
        checked.clear()
        assert main(argv) == 0, (argv, capsys.readouterr())
        assert checked == expected, argv


@pytest.mark.parametrize(
    "text",
    ["\ufeff{}", "", "{", "[1] 2", '{"a": 1,}', '{"a" 1}', "[" * 100000],
    ids=["byte-order-mark", "empty", "unclosed", "extra-data", "trailing-comma", "missing-colon", "deep"],
)
def test_read_doc_words_a_parse_failure_as_json_loads_does(tmp_path, text):
    # the reader refuses what json.loads(text, parse_int=float) refuses, in
    # the same words, a leading byte order mark included
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises((ValueError, RecursionError)) as parsed:
        json.loads(text, parse_int=float)
    with pytest.raises(SchemaError) as caught:
        read_doc(path)
    assert str(caught.value) == f"invalid JSON: {parsed.value}"
