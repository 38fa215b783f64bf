"""A fixed pure-Python task that gauges how fast the machine runs right now.

The host this benchmark was written on shares its cores with other tenants,
and its speed shifts by up to half for minutes at a time.  Every timing the
benchmark reports is therefore scaled by a reference task timed in between
the operations of the same run: the independent value process, evaluator
and best-response recursion of ``checks`` on one fixed game.  The task
imports nothing from the engine, so a change to the engine cannot move it;
it does the same kind of work as the engine (dict lookups, float arithmetic,
small tuples), so a slow stretch of the host slows both alike.
"""

from __future__ import annotations

import random
import statistics
import time

import checks

# Mean time of one reference pass on the machine the reference figures in
# README.md come from (shared 2-core Intel Xeon VM, Python 3.11.7) in a quiet
# stretch.  A scaled time reads in seconds of that machine, so running quiet.
NOMINAL_SECONDS = 0.6e-3


def _game(depth: int = 4, branching: int = 3) -> tuple:
    rng = random.Random(0)
    order, children = ["r"], {}
    for node in order:
        if node.count(".") < depth:
            kids = [f"{node}.{k}" for k in range(branching)]
            children[node] = [(kid, 1.0 / branching) for kid in kids]
            order.extend(kids)
        else:
            children[node] = []
    pay = {key: {n: rng.uniform(-2.0, 2.0) for n in order} for key in ("X1", "Y1", "Z1", "X2", "Y2", "Z2")}
    for key in ("xi1", "xi2"):
        pay[key] = {n: rng.uniform(-2.0, 2.0) for n in order if not children[n]}
    game = checks.Game(root="r", order=order, children=children, pay=pay)
    mixes = [{n: (0.25, 0.25, 0.5) if rng.random() < 0.5 else (0.0, 0.5, 0.5) for n in order} for _ in range(2)]
    return game, mixes


class Reference:
    """Times reference passes; ``level`` turns wall seconds into scaled ones."""

    def __init__(self) -> None:
        self.game, self.mixes = _game()
        self.passes(0.0)  # warm up

    def passes(self, seconds: float) -> list:
        """Wall seconds of each reference pass, run until at least two passes
        and ``seconds`` of them have run."""
        game, (mix1, mix2) = self.game, self.mixes
        times = []
        while len(times) < 2 or sum(times) < seconds:
            start = time.perf_counter()
            checks.value_process(game, 1)
            checks.evaluate(game, mix1, mix2)
            checks.best_response_value(game, mix2, 1)
            times.append(time.perf_counter() - start)
        return times

    @staticmethod
    def level(times: list) -> float:
        """How much slower than the nominal machine the passes ran: 1 at the
        nominal speed, 2 at half of it."""
        return statistics.fmean(times) / NOMINAL_SECONDS
