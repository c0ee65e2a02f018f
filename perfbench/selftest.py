"""Self-test of the benchmark itself (not of the program).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It checks that:

1. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints;
2. a sabotaged run — the view owner serves forged entries — fails its
   correctness check (exit status 1, ``"correct": false``);
3. in a traced child, every probe's main-thread span count equals the
   call count cProfile records for the wrapped function, on every
   workload;
4. in a directory that holds only ``BENCHMARK.json`` and the benchmark,
   the command exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SCRATCH = ".perfbench-selftest"


def check_benchmark_json() -> list[str]:
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for key, expected in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        if listed != list(expected):
            problems.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    return problems


def check_sabotage() -> list[str]:
    proc = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", "view-read-audit", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--sabotage", "tamper-entry",
        ],
        capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 1 or result.get("correct") is not False:
        return [f"sabotaged run was not refused (exit {proc.returncode}, {result})"]
    return []


def check_profile_counts() -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, os.path.join(HERE, "child.py"),
                "--workload", workload, "--seed", "1", "--trace", "--profile",
            ],
            env=run.child_env(), capture_output=True, text=True,
        )
        if proc.returncode != 0:
            problems.append(f"{workload}: profiled child failed: {proc.stderr[-2000:]}")
            continue
        counts = json.loads(proc.stdout.strip().splitlines()[-1])["profile_check"]
        for name, (spans, calls) in sorted(counts.items()):
            if spans != calls:
                problems.append(
                    f"{workload}: {name} has {spans} main-thread spans, cProfile saw {calls} calls"
                )
    return problems


def check_bare_directory() -> list[str]:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        os.makedirs(SCRATCH)
        shutil.copy("BENCHMARK.json", SCRATCH)
        shutil.copytree(
            HERE,
            os.path.join(SCRATCH, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [
                sys.executable, "perfbench/run.py", "--workload", "wl1-hi-tlc",
                "--seed", "1", "--seconds", "1", "--trace", "0",
            ],
            cwd=SCRATCH, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    problems = []
    for check in (check_benchmark_json, check_sabotage, check_profile_counts, check_bare_directory):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        for line in found:
            print(f"  {line}")
        problems += found
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
