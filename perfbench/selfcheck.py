"""Smoke-size self-check of the benchmark.

Usage, from the repository root: ``python3 perfbench/selfcheck.py``
(about two minutes).  For every workload in BENCHMARK.json it runs one
unit untraced and one traced and checks that

- the last line is a result with exactly the keys correct, attempted,
  failed and metrics;
- the untraced result carries every end-to-end metric by name with its unit,
  and the traced one every per-layer metric, printed as a number or
  ``absent``;
- seed 0 passes every check on every workload;

then that seed 4 on dephasing counts the known fig3 defect in failed yet
stays correct, that a directory holding only BENCHMARK.json and perfbench/
makes the benchmark exit nonzero without a result, and that in a copy with
src/ whose recorded tree fidelity is perturbed the failure is caught.  Exits
1 and lists the problems otherwise.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, trace: int, seed: int = 0):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, lines, result


def check_run(problems, bench, workload, trace):
    section = "per_layer" if trace else "end_to_end"
    label = f"{workload} trace={trace}"
    code, lines, result = run(ROOT, workload, trace)
    if code != 0 or result is None or set(result) != KEYS:
        problems.append(f"{label}: exit {code}, last line {lines[-1:]}")
        return
    wanted = {m["name"]: m["unit"] for m in bench[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{label}: metrics {sorted(got)} differ from "
                        f"BENCHMARK.json {section}")
    for name, unit in wanted.items():
        printed = [line.split() for line in lines[:-1]
                   if line.split()[:2] == [name, unit]]
        if not printed:
            problems.append(f"{label}: {name} not printed with unit {unit}")
        elif trace and printed[0][2] != "absent":
            try:
                float(printed[0][2])
            except ValueError:
                problems.append(f"{label}: {name} printed as {printed[0][2]}")
    if not any(line.startswith("failed_ratio") for line in lines):
        problems.append(f"{label}: failed_ratio not printed")
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}, expected no failures")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in bench["workloads"]:
        for trace in (0, 1):
            check_run(problems, bench, workload["name"], trace)

    # The cross-check fails at seed 4: its [FAIL] line and the exit code.
    _, lines, result = run(ROOT, "dephasing", 0, seed=4)
    known = [line for line in lines if line.endswith("(known defect)")]
    if result is None or not result["correct"] or result["failed"] != 2 \
            or len(known) != 2:
        problems.append(f"known defect at seed 4: {result}, lines {known}")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, result = run(bare, "many_small", 0)
        if code == 0 or result is not None:
            problems.append(f"without src/: exit {code}, result {result}")

        shutil.copytree(ROOT / "src", bare / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        recorded_path = bare / "perfbench" / "recorded.json"
        recorded = json.loads(recorded_path.read_text())
        recorded["tree"][0]["F"] += 1e-3
        recorded_path.write_text(json.dumps(recorded))
        _, _, result = run(bare, "many_small", 0)
        if result is None or result["failed"] == 0 or result["correct"]:
            problems.append(f"perturbed reference not caught: {result}")

    for problem in problems:
        print(f"[FAIL] {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
