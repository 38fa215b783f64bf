"""Interpreter parity: the CI console-script commands under several
interpreters, compared byte for byte.

Run from the repository root, with the standard library only:

    python tests/parity.py                       # python3.10 ... python3.13 on PATH
    python tests/parity.py /path/to/python3.12 python3.13

The commands are the ``run`` lines of the "dynkin console script" step of
``.github/workflows/tier1.yml``.  Under each interpreter, every command runs
as ``python -m dynkin.cli`` with the checkout's ``src`` on ``PYTHONPATH``,
one after another in a fresh folder, so a command reads the files the ones
before it wrote.  The exit codes, the standard output and the bytes of
every file written are compared with those of the first interpreter that
starts.  An interpreter that is missing or does not start is reported, and
the script then exits 1, as it does on any difference.

The tier-1 suite does not run this script; its test of the console-script
step reads the commands through ``console_script_commands`` here.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
DEFAULT_INTERPRETERS = ("python3.10", "python3.11", "python3.12", "python3.13")


def console_script_commands(workflow: Path = WORKFLOW) -> list[str]:
    """The ``run`` lines of the workflow's "dynkin console script" step: the
    indented lines after its ``run: |``, up to the first line indented no
    deeper than that key."""
    lines = workflow.read_text(encoding="utf-8").splitlines()
    step = [k for k, line in enumerate(lines) if line.strip() == "- name: dynkin console script"]
    if len(step) != 1:
        raise SystemExit(f"{workflow}: no single dynkin console script step")
    run = next(k for k in range(step[0] + 1, len(lines)) if lines[k].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    commands = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        if line.strip():
            commands.append(line.strip())
    return commands


def _version(python: str) -> str | None:
    """The interpreter's version, or None if it is missing or does not start."""
    try:
        proc = subprocess.run(
            [python, "-c", "import sys; print(sys.version.split()[0])"], capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _run_all(python: str, commands: list[str]) -> tuple[list[tuple[int, bytes]], dict[str, bytes], float]:
    """Each command's exit code and standard output, and every file written,
    by name, from one run of all the commands in a fresh folder."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        for command in commands:
            argv = shlex.split(command)
            if argv[0] != "dynkin":
                raise SystemExit(f"not a dynkin command: {command}")
            proc = subprocess.run(
                [python, "-m", "dynkin.cli", *argv[1:]], cwd=scratch, env=env, capture_output=True, timeout=600
            )
            results.append((proc.returncode, proc.stdout))
        files = {path.name: path.read_bytes() for path in sorted(Path(scratch).iterdir()) if path.is_file()}
    return results, files, time.perf_counter() - start


def main(argv: list[str]) -> int:
    interpreters = argv or list(DEFAULT_INTERPRETERS)
    commands = console_script_commands()
    print(f"{len(commands)} commands from {WORKFLOW.relative_to(ROOT)}")
    failed = 0
    first = None  # (python, results, files) of the first interpreter that starts
    for python in interpreters:
        version = _version(python)
        if version is None:
            print(f"{python}: MISSING (not found, or does not start)")
            failed += 1
            continue
        results, files, seconds = _run_all(python, commands)
        differences = []
        if first is None:
            first = (python, results, files)
        else:
            _, first_results, first_files = first
            for command, (code, out), (first_code, first_out) in zip(commands, results, first_results):
                if code != first_code:
                    differences.append(f"exit {code}, not {first_code}: {command}")
                elif out != first_out:
                    differences.append(f"other standard output: {command}")
            for name in sorted(files.keys() | first_files.keys()):
                if files.get(name) != first_files.get(name):
                    differences.append(f"other bytes in {name}" if name in files and name in first_files else f"{name} written by one only")
        exits = sorted({code for code, _ in results})
        verdict = f"DIFFERS from {first[0]}" if differences else ("reference" if first[0] == python else f"identical to {first[0]}")
        print(f"{python} ({version}): {verdict}; exit codes {exits}, {len(files)} files, {seconds:.1f} s")
        for line in differences:
            print(f"  {line}")
        failed += bool(differences)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
