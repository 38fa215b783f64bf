"""Instance generation, the on-disk game format, and report emission.

Game documents are flat JSON: a horizon, a node list with per-node payoffs
(roots carry no parent, leaves carry terminal payoffs), and a free-form meta
object.  Profiles map node ids to (atom, uniform, wait) probabilities.

Files pass through one reader and one writer.  ``read_doc`` parses with
``json.loads``, integers as floats, and turns every parse failure into a
``SchemaError``; ``write_doc`` writes sorted keys and shortest round-trip
floats, so documents are byte-stable under save/load/save.  Game files
(``save``) are indented by two spaces; reports are one line from the C
encoder.  ``instance_to_doc`` takes each node's parent and probability from
its parent's child list.  ``instance_from_doc`` and ``profile_from_doc``
check only the document's shape and copy each value as written;
``core.validate_instance`` and ``core.validate_profile`` are the one rule
for the values, so a file and a library call reject a bad value with the
same words.  ``load``'s check is the last one a ``dynkin`` command makes on
its game: the command hands the validated game to the engine's private
bodies, which do not check it again.  The reader, the writer and the
``random`` generator take the payoff tables from ``core``'s schema
(``STAGE_TABLES``, ``TERMINAL_TABLES``), so a file key is the name an issue
gives the table.  ``GeneratorSpec`` is a ``NamedTuple`` with a default
for each field.
"""

from __future__ import annotations

import csv
import json
import math
import random
import struct
from itertools import chain, starmap
from pathlib import Path
from typing import NamedTuple, Optional, Union

from .core import (
    BehavioralProfile,
    EventTree,
    InstanceError,
    Mix,
    PAYOFF_TABLES,
    PayoffProcess,
    STAGE_TABLES,
    TERMINAL_TABLES,
    _issue_line,
    _worded,
    _worded_id,
    validate_instance,
)

FAMILIES = ("random", "war-of-attrition", "preemption")


class SchemaError(ValueError):
    """A game document violates the file schema."""


class GeneratorSpec(NamedTuple):
    """Deterministic instance recipe; the same spec and seed give identical bytes on every interpreter."""

    family: str = "random"
    depth: int = 3
    branching: int = 2
    payoff_range: float = 1.0
    zero_sum: bool = False
    convexity: bool = False
    seed: int = 0


def generate(spec: GeneratorSpec) -> tuple[EventTree, PayoffProcess]:
    """Build a seeded instance of the requested family."""
    if spec.depth < 0:
        raise ValueError(f"depth must be >= 0, got {spec.depth}")
    if spec.branching < 1:
        raise ValueError(f"branching must be >= 1, got {spec.branching}")
    if not (math.isfinite(spec.payoff_range) and spec.payoff_range > 0):
        raise ValueError(f"payoff_range must be finite and positive, got {spec.payoff_range}")
    if spec.family not in FAMILIES:
        raise ValueError(f"unknown family {spec.family!r}; choose from {FAMILIES}")
    rng = random.Random(spec.seed)
    family, branching = spec.family, spec.branching  # read once, not per node

    children: dict[str, list[tuple[str, float]]] = {}
    counter = 0
    frontier = ["n0"]
    for d in range(spec.depth):
        next_frontier = []
        for node in frontier:
            width = rng.randint(1, branching)
            kids = []
            weights = [rng.random() + 0.1 for _ in range(width)]
            total = 0.0  # plain += sums, as 3.10 and 3.11 add: ``sum`` compensates from 3.12 on
            for w in weights:
                total += w
            probs = [w / total for w in weights]
            head = 0.0
            for p in probs[:-1]:
                head += p
            probs[-1] = 1.0 - head
            for p in probs:
                counter += 1
                kid = f"n{counter}"
                kids.append((kid, p))
                next_frontier.append(kid)
            children[node] = kids
        frontier = next_frontier
    tree = EventTree.build("n0", children)

    r = spec.payoff_range
    payoffs = PayoffProcess({}, {}, {}, {}, {}, {}, {}, {})
    # The two families fill each player's own (stop, opp, sim) view, so each
    # holds for both players.
    sides = (payoffs.side(1), payoffs.side(2))

    if family == "war-of-attrition":
        # waiting accrues cost, and being conceded to beats conceding: each
        # player's opp lies above their stop
        win = [rng.uniform(0.4, 1.0) * r for _ in (1, 2)]
        cost = [rng.uniform(0.05, 0.2) * r for _ in (1, 2)]
    elif family == "preemption":
        # stopping first wins a prize that decays with time: each player's
        # stop lies above their opp
        prize = [rng.uniform(0.4, 1.0) * r for _ in (1, 2)]
        decay = [rng.uniform(0.0, 0.15) * r for _ in (1, 2)]

    stage = [getattr(payoffs, field) for _, field in STAGE_TABLES]
    for node in tree.nodes:
        d = tree.depth[node]
        if family == "random":
            for table in stage:
                table[node] = rng.uniform(-r, r)
        elif family == "war-of-attrition":
            for k, own in enumerate(sides):
                drift = -cost[k] * d + rng.uniform(-0.05, 0.05) * r
                stop = own.stop[node] = drift - rng.uniform(0.1, 0.5) * r
                opp = own.opp[node] = drift + win[k]
                own.sim[node] = rng.uniform(min(stop, opp) - 0.1 * r, max(stop, opp) + 0.1 * r)
        else:
            for k, own in enumerate(sides):
                stop = own.stop[node] = prize[k] - decay[k] * d + rng.uniform(-0.05, 0.05) * r
                opp = own.opp[node] = stop - rng.uniform(0.1, 0.6) * r
                own.sim[node] = rng.uniform(opp - 0.1 * r, stop)
        if tree.is_leaf(node):
            for k, own in enumerate(sides):
                if family == "random":
                    own.xi[node] = rng.uniform(-r, r)
                elif family == "war-of-attrition":
                    own.xi[node] = -cost[k] * (d + 1)
                else:
                    own.xi[node] = rng.uniform(-0.2, 0.2) * r

    if spec.convexity:
        for x, y, z in ((payoffs.x1, payoffs.y1, payoffs.z1), (payoffs.x2, payoffs.y2, payoffs.z2)):
            for node in tree.nodes:
                z[node] = min(max(z[node], min(x[node], y[node])), max(x[node], y[node]))
    if spec.zero_sum:
        for node in tree.nodes:
            payoffs.x2[node] = -payoffs.x1[node]
            payoffs.y2[node] = -payoffs.y1[node]
            payoffs.z2[node] = -payoffs.z1[node]
        for leaf in tree.leaves:
            payoffs.xi2[leaf] = -payoffs.xi1[leaf]

    issues = validate_instance(tree, payoffs)
    if issues:  # a payoff_range near the float limit builds payoffs above PAYOFF_LIMIT
        raise ValueError(f"payoff_range {r!r} builds an invalid game: {issues[0]}")
    return tree, payoffs


# ---------------------------------------------------------------------------
# File format


def instance_to_doc(
    tree: EventTree, payoffs: PayoffProcess, profile: Optional[BehavioralProfile] = None
) -> dict:
    stage = [(name, getattr(payoffs, field)) for name, field in STAGE_TABLES]
    terminal = [(name, getattr(payoffs, field)) for name, field in TERMINAL_TABLES]
    depth, kids_of = tree.depth, tree.children.get
    # after the root, breadth-first order lists every child list in turn, so
    # one entry per child, holding its parent and probability, lines up
    # with ``tree.nodes[1:]``
    nodes: list[dict[str, object]] = [{}]
    nodes += [{"parent": node, "prob": p} for node in tree.nodes for _, p in kids_of(node, ())]
    for node, entry in zip(tree.nodes, nodes):
        entry["id"] = node
        entry["depth"] = depth[node]
        for name, table in stage:
            entry[name] = table[node]
        if not kids_of(node):  # a leaf
            for name, table in terminal:
                entry[name] = table[node]
    doc: dict[str, object] = {"horizon": tree.horizon, "nodes": nodes, "meta": {}}
    if profile is not None:
        doc["profile"] = profile_to_doc(profile)
    return doc


def profile_to_doc(profile: BehavioralProfile) -> dict:
    return {
        "player1": {n: list(mix) for n, mix in profile.player1.items()},
        "player2": {n: list(mix) for n, mix in profile.player2.items()},
    }


def profile_from_doc(doc: dict) -> BehavioralProfile:
    """Check a profile's shape, an object per player holding a list of
    three per node, and copy each mix as written; ``core.validate_profile``
    judges the values, so a file and a library call word a bad mix alike.
    Equal mixes share one tuple (``_shared_mixes``), so that, as for the
    engine's profiles, each distinct mix is checked once."""
    if not isinstance(doc, dict):
        raise SchemaError("profile: expected an object")
    for side in ("player1", "player2"):
        if side not in doc or not isinstance(doc[side], dict):
            raise SchemaError(f"profile.{side}: missing or not an object")
        for node, mix in doc[side].items():
            if not isinstance(mix, list) or len(mix) != 3:
                raise SchemaError(f"profile.{side}.{_worded_id(node)}: expected [atom, uniform, wait]")
    return BehavioralProfile(player1=_shared_mixes(doc["player1"]), player2=_shared_mixes(doc["player2"]))


# The bits of three floats: equal keys hold the same floats, -0.0 apart from 0.0.
_MIX_BITS = struct.Struct("<3d").pack


def _shared_mixes(side: dict[str, list]) -> dict[str, Mix]:
    """One player's mixes as tuples, one tuple per distinct mix.

    Mixes of floats are equal when their bits are.  A player whose mixes
    hold any other entry (a bool, an int, a string) gets one tuple per list
    instead: ``(True, 0.0, 0.0) == (1.0, 0.0, 0.0)``, so sharing by value
    would hide a bool from validation.
    """
    lists = side.values()
    if set(map(type, chain.from_iterable(lists))) <= {float}:
        keys = list(starmap(_MIX_BITS, lists))
    else:
        keys = list(map(id, lists))
    shared = {key: tuple(mix) for key, mix in dict(zip(keys, lists)).items()}
    return dict(zip(side, map(shared.__getitem__, keys)))


def instance_from_doc(doc: dict) -> tuple[EventTree, PayoffProcess, Optional[BehavioralProfile]]:
    """Check a document's shape and copy its values as written; then
    ``validate_instance`` judges every value, and its issues are the error."""
    if not isinstance(doc, dict):
        raise SchemaError("document root: expected an object")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        raise SchemaError("nodes: expected a non-empty array")
    # Per node, the two loops below only test and copy: an error's location
    # is worded only when it is raised.
    children: dict[str, list[tuple[str, float]]] = {}
    roots = []
    payload: dict[str, dict] = {}
    for idx, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            raise SchemaError(f"nodes[{idx}]: expected an object")
        node = entry.get("id")
        if not isinstance(node, str):
            raise SchemaError(f"nodes[{idx}].id: expected a string")
        if node in payload:
            raise SchemaError(f"nodes[{idx}].id: duplicate node id {_worded_id(node)!r}")
        payload[node] = entry
        if "parent" in entry:
            parent = entry["parent"]
            if not isinstance(parent, str):
                raise SchemaError(f"nodes[{idx}].parent: expected a string")
            kids = children.get(parent)
            if kids is None:
                children[parent] = [(node, entry.get("prob"))]
            else:
                kids.append((node, entry.get("prob")))
        else:
            roots.append(node)
    if len(roots) != 1:
        raise SchemaError(f"nodes: expected exactly one root, found {len(roots)}")
    for parent in children:
        if parent not in payload:
            raise SchemaError(f"nodes: parent {_worded_id(parent)!r} is not a declared node")
    try:
        tree = EventTree.build(roots[0], children)
    except InstanceError as exc:
        raise SchemaError(f"nodes: {exc}") from exc
    # a declared horizon or depth must equal the computed one; JSON true and
    # false equal 1 and 0, so they are ruled out first
    horizon = doc.get("horizon")
    if isinstance(horizon, bool) or horizon != tree.horizon:
        raise SchemaError(f"horizon: declared {_worded(horizon)}, computed {tree.horizon}")
    tables: dict[str, dict] = {field: {} for _, field in PAYOFF_TABLES}
    every = [(name, tables[field]) for name, field in PAYOFF_TABLES]
    stage = every[: len(STAGE_TABLES)]
    depth, kids_of = tree.depth, tree.children.get
    for node, entry in payload.items():
        declared = entry.get("depth")
        if isinstance(declared, bool) or declared != depth[node]:
            raise SchemaError(f"node {_worded_id(node)}: depth {_worded(declared)} inconsistent with structure")
        for name, table in stage if kids_of(node) else every:
            if name in entry:
                table[node] = entry[name]
    payoffs = PayoffProcess(**tables)
    issues = validate_instance(tree, payoffs)
    if issues:
        raise SchemaError(_issue_line(issues))
    profile = None
    if "profile" in doc:
        profile = profile_from_doc(doc["profile"])
    return tree, payoffs, profile


def save(
    path: Union[str, Path],
    tree: EventTree,
    payoffs: PayoffProcess,
    profile: Optional[BehavioralProfile] = None,
) -> None:
    write_doc(path, instance_to_doc(tree, payoffs, profile), indent=2)


def read_doc(path: Union[str, Path]) -> object:
    """Parse one JSON file, integers as floats; any parse failure, deep
    nesting and a leading byte order mark included, is a schema error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSON and UTF-8 decoding
        raise SchemaError(f"invalid JSON: {exc}") from exc


def write_doc(path: Union[str, Path], doc: dict, indent: Optional[int] = None) -> None:
    """Write one JSON document with sorted keys and a trailing newline.

    Without ``indent`` the document is one line, written by the C encoder
    (``json`` falls back to its pure-Python encoder for any indent): the
    format of reports.  Game files are written with ``indent=2``.
    """
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=indent) + "\n", encoding="utf-8")


def load(path: Union[str, Path]) -> tuple[EventTree, PayoffProcess, Optional[BehavioralProfile]]:
    return instance_from_doc(read_doc(path))


# ---------------------------------------------------------------------------
# CSV report


def write_report_csv(
    path: Union[str, Path],
    tree: EventTree,
    v1: dict[str, float],
    v2: dict[str, float],
    mu1: set[str],
    mu2: set[str],
    cases: Optional[dict[str, str]] = None,
) -> None:
    """Per-node value report: values, hit flags and case labels, one row per node."""
    cases = cases or {}
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["node_id", "depth", "v1", "v2", "mu1_hit", "mu2_hit", "case"])
        for node in tree.nodes:
            writer.writerow(
                [
                    node,
                    tree.depth[node],
                    repr(v1[node]),
                    repr(v2[node]),
                    int(node in mu1),
                    int(node in mu2),
                    cases.get(node, ""),
                ]
            )
