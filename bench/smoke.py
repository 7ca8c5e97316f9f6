"""Smoke test of the benchmark.

Runs every workload of ``BENCHMARK.json`` untraced and traced with
``--size tiny``, and checks that each run exits 0, reports correct results
and prints exactly the metrics ``BENCHMARK.json`` names, each with its unit.
It also checks that the command fails, without a result line, in a
directory that holds only ``BENCHMARK.json`` and the benchmark's files.

Run from the root of a checkout::

    python3 bench/smoke.py

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, cwd: Path, workload: str, trace: int):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_problems(proc, wanted: dict) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"incorrect: failed {result.get('failed')}; {proc.stderr.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    got = result.get("metrics", {})
    for name, unit in wanted.items():
        entry = got.get(name)
        if entry is None:
            problems.append(f"missing metric {name}")
        elif entry.get("unit") != unit:
            problems.append(f"{name}: unit {entry.get('unit')!r}, expected {unit!r}")
        elif isinstance(entry.get("value"), bool) or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: value {entry.get('value')!r}")
    problems += [f"unexpected metric {name}" for name in got if name not in wanted]
    return problems


def bare_directory_problems(spec: dict) -> list[str]:
    """The command must fail without printing a result where the library
    sources are absent."""
    bare = ROOT / "bench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec, bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["bare directory: the command succeeded without the library sources"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            problems = result_problems(run(spec, ROOT, workload["name"], trace), wanted)
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload['name']} --trace {trace}")
            for problem in problems:
                print(f"    {problem}")
            failures += bool(problems)
    problems = bare_directory_problems(spec)
    print(f"{'ok' if not problems else 'FAIL'} bare directory")
    for problem in problems:
        print(f"    {problem}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
