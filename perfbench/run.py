"""Benchmark of the dynkin stopping-game engine.

Run from the repository root:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads one after another.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` rounds with and without spans
alternate and the object holds the per-layer metrics and the tracing
overhead.  Metric names and units come from BENCHMARK.json.  See
perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
SETUP_REPEATS = 3  # at least; cheap set-ups repeat until SETUP_SECONDS have passed
SETUP_SECONDS = 1.0
STARTUP_REPEATS = 5
# Reference passes around a timed span last REF_SHARE of the span's previous
# wall time, and at least two passes.  A window of a fixed few passes gauged
# a 0.5 s operation by 0.5% of its span, and its figures spread twice as much
# as those of a 30 ms one.
REF_SHARE = 0.1

# Counts that must repeat exactly from round to round and run to run.
EXACT_COUNTS = (
    "report_nodes",
    "core.split_nodes_added",
    "core.horizon_added",
    "core.evaluate_profile.calls",
    "zerosum.solve_value_process.calls",
    "zerosum.solved_nodes",
    "zerosum.stage_matrices.calls",
    "zerosum.solve_matrix_game.calls",
    "zerosum.mixed_stage_solves",
    "equilibrium.mirrored_constructs",
    "verify.best_response.nodes",
)


def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter (-X importtime)."""
    from workloads import cli_env

    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import dynkin"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=cli_env(ROOT),
        timeout=60,
    )
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "dynkin":
            return int(parts[1]) / 1e6
    raise RuntimeError(f"no import time for dynkin: {proc.stderr[-300:]!r}")


def _cli_startup_ms() -> float:
    from workloads import cli_env

    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "dynkin.cli", "--help"],
            capture_output=True,
            cwd=ROOT,
            env=cli_env(ROOT),
            timeout=60,
            check=True,
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _program_key() -> str:
    """Digest of the engine and benchmark sources that produce the counts."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src" / "dynkin").glob("*.py")) + sorted(HERE.glob("*.py")):
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _check_repeat(record: Path, counts: dict) -> list:
    """Compare exact counts with an earlier run of the same program and seed."""
    if record.exists():
        before = json.loads(record.read_text(encoding="utf-8"))
        return [f"count {k} was {before[k]} in an earlier run, now {counts[k]}" for k in counts if before.get(k) != counts[k]]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    return []


def _round(ops, ctx, reference=None, previous=None) -> list:
    """Run every operation once.  With a reference, time reference passes
    before each operation and after the last one, and give each outcome the
    speed level of the passes on either side of it.  The wall times of the
    ``previous`` round's outcomes size the windows of passes."""
    from workloads import Outcome

    last = [o.seconds for o in previous] if previous else [0.0] * len(ops)

    def window(k: int) -> list:  # the passes between operations k - 1 and k
        span = sum(last[j] for j in (k - 1, k) if 0 <= j < len(ops))
        return reference.passes(REF_SHARE / 2 * span)

    outcomes, passes = [], []
    for k, op in enumerate(ops):
        if reference is not None:
            passes.append(window(k))
        try:
            outcomes.append(op.run(ctx))
        except Exception as exc:  # an engine error is a wrong output, not a crash of the benchmark
            outcomes.append(Outcome([], 0, 0, [f"raised {exc!r}"]))
    if reference is not None:
        passes.append(window(len(ops)))
        for k, outcome in enumerate(outcomes):
            outcome.level = reference.level(passes[k] + passes[k + 1])
    return outcomes


def _scaled_seconds(outcomes: list) -> float:
    """Median over the rounds of an operation's wall time over its speed level."""
    return statistics.median(o.seconds / o.level for o in outcomes)


def _setup(name: str, seed: int, workdir: Path, tracer, reference=None) -> tuple:
    from workloads import WORKLOADS

    times, generate_ms, last = [], [], 0.0
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS and len(times) < 3 * SETUP_REPEATS):
        before = reference.passes(REF_SHARE / 2 * last) if reference else []
        imported = _import_seconds()
        mark = tracer.mark() if tracer else None
        start = time.perf_counter()
        ops = WORKLOADS[name](seed, workdir)
        last = seconds = imported + time.perf_counter() - start
        times.append(seconds / reference.level(before + reference.passes(REF_SHARE / 2 * last)) if reference else seconds)
        if tracer:
            generate_ms.append(tracer.summary(mark).get("toolkit.generate.self_ms", 0.0))
    # The inputs stay alive for the whole run; keep the collector from
    # rescanning them, so that only the engine's own objects cost it time.
    gc.collect()
    gc.freeze()
    return ops, statistics.median(times), (statistics.median(generate_ms) if tracer else None)


def _outcome_report(name: str, rounds: list, ops: list) -> tuple:
    """Print attempts, failures and problems; return (correct, attempted, failed)."""
    outcomes = [o for r in rounds for o in r]
    failures = Counter((op.name, o.failure) for r in rounds for op, o in zip(ops, r) if o.failure)
    problems = [(op.name, p) for r in rounds for op, o in zip(ops, r) for p in o.problems]
    print(f"{name}: {len(rounds)} rounds of {len(ops)} operations, attempted {len(outcomes)}, failed {sum(failures.values())}")
    for (op_name, reason), n in sorted(failures.items()):
        print(f"  failed x{n} {op_name}: {reason}")
    for op_name, problem in problems[:20]:
        print(f"  WRONG {op_name}: {problem}")
    return not problems, len(outcomes), sum(failures.values())


def end_to_end(name: str, seed: int, seconds: float, workdir: Path) -> tuple:
    from workloads import Context

    from reference import Reference

    reference = Reference()
    ops, setup_s, _ = _setup(name, seed, workdir, None, reference)
    ctx = Context(root=ROOT)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(_round(ops, ctx, reference, rounds[-1] if rounds else None))
    correct, attempted, failed = _outcome_report(name, rounds, ops)

    # The machine's speed shifts by up to half, for seconds to minutes.  So an
    # operation's time is the median over the rounds of its wall time scaled
    # by the speed level around it, and throughput is a median over operations.
    best = [_scaled_seconds([r[k] for r in rounds]) for k in range(len(ops))]
    throughput = [
        rounds[0][k].nodes / best[k] for k in range(len(ops)) if best[k] > 0 and not any(r[k].failure for r in rounds)
    ]
    report_nodes = {sum(o.report_nodes for o in r) for r in rounds}
    if len(report_nodes) != 1:
        print(f"  WRONG report_nodes differ between rounds: {sorted(report_nodes)}")
        correct = False
    counts = {"report_nodes": min(report_nodes)}
    repeat = _check_repeat(WORK / "counts" / f"{_program_key()}-{name}-seed{seed}-e2e.json", counts)
    for problem in repeat:
        print(f"  WRONG {problem}")
    print(f"  counts: {json.dumps(counts, sort_keys=True)}")
    levels = sorted(o.level for r in rounds for o in r)
    print(f"  speed level (1 = nominal, 2 = half as fast): median {statistics.median(levels):.3f}, range {levels[0]:.3f}-{levels[-1]:.3f}")
    values = {
        "setup_s": setup_s,
        "nodes_per_s": statistics.median(throughput),
        "op_ms_p50": statistics.median(best) * 1e3,
        "report_nodes": float(min(report_nodes)),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return correct and not repeat, attempted, failed, values


def per_layer(name: str, seed: int, seconds: float, workdir: Path) -> tuple:
    from reference import Reference
    from tracing import Tracer
    from workloads import Context

    tracer = Tracer()
    reference = Reference()
    tracer.install()
    try:
        ops, _, generate_ms = _setup(name, seed, workdir, tracer)
    finally:
        tracer.uninstall()
    plain = Context(root=ROOT)
    traced = Context(root=ROOT, tracer=tracer)
    untraced_s, traced_s, summaries, rounds = [], [], [], []
    start = time.perf_counter()
    while len(summaries) < 2 or time.perf_counter() - start < seconds:
        outcomes = _round(ops, plain, reference, rounds[-1] if rounds else None)
        untraced_s.append(sum(o.seconds / o.level for o in outcomes))
        rounds.append(outcomes)
        tracer.install()
        try:
            mark = tracer.mark()
            outcomes = _round(ops, traced, reference, rounds[-1])
            summaries.append(tracer.summary(mark))
        finally:
            tracer.uninstall()
        traced_s.append(sum(o.seconds / o.level for o in outcomes))
        rounds.append(outcomes)
        summaries[-1]["report_nodes"] = sum(o.report_nodes for o in outcomes)
    correct, attempted, failed = _outcome_report(name, rounds, ops)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.dump(WORK / f"trace-{name}-seed{seed}.json")

    def median(key: str) -> float:
        return statistics.median(s.get(key, 0.0) for s in summaries)

    counts = {}
    for key in EXACT_COUNTS:
        source = {"zerosum.solved_nodes": "zerosum.solve_value_process.nodes"}.get(key, key)
        seen = {s.get(source, 0) for s in summaries}
        if len(seen) != 1:
            print(f"  WRONG {key} differs between traced rounds: {sorted(seen)}")
            correct = False
        counts[key] = min(seen)
    repeat = _check_repeat(WORK / "counts" / f"{_program_key()}-{name}-seed{seed}-trace.json", counts)
    for problem in repeat:
        print(f"  WRONG {problem}")
    print(f"  counts per round: {json.dumps(counts, sort_keys=True)}")

    solve_ms = median("zerosum.solve_value_process.self_ms")
    untraced, traced_med = statistics.median(untraced_s), statistics.median(traced_s)
    values = {key: float(counts[key]) for key in EXACT_COUNTS if key != "report_nodes"}
    values.update(
        {
            "toolkit.generate.self_ms": generate_ms,
            "zerosum.us_per_solved_node": solve_ms * 1e3 / counts["zerosum.solved_nodes"] if counts["zerosum.solved_nodes"] else 0.0,
            "cli.startup_ms": _cli_startup_ms() if name == "cli-files" else 0.0,
            "trace.overhead_pct": (traced_med - untraced) / untraced * 100.0,
        }
    )
    for key in {k for s in summaries for k in s if k.endswith(".self_ms")}:
        values.setdefault(key, median(key))
    for command in ("equilibrium", "verify", "invariants", "solve"):
        values[f"cli.{command}_ms"] = median(f"cli.{command}.self_ms")
    return correct and not repeat, attempted, failed, values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if trace else end_to_end
        correct, attempted, failed, values = measure(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        key = metric["name"]
        if key in values:
            value = values[key]
        elif trace and key.endswith(".self_ms"):
            value = 0.0  # a layer this workload does not call
        else:
            raise KeyError(f"no measurement for metric {key}")
        metrics[key] = {"value": value, "unit": metric["unit"]}
    return {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = ROOT / "src" / "dynkin" / "__init__.py"
    spec_path = ROOT / "BENCHMARK.json"
    if not package.is_file() or not spec_path.is_file():
        print(f"error: run from the repository root; {package} or {spec_path} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import dynkin

    if Path(dynkin.__file__).resolve().parent != package.parent.resolve():
        print(f"error: imported dynkin from {dynkin.__file__}, not from {package.parent}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 1
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print(json.dumps(results[name]))
    if len(names) > 1:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
