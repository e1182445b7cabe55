"""Check that the working tree's ``src/`` reproduces a revision's outputs.

Usage::

    python tools/compare_outputs.py <rev> [--seeds 0-9]

Extracts ``src/`` at ``<rev>`` with ``git archive`` into a temporary
directory, then runs the five CLI commands at every seed, plus ``fig3`` on
the Gamma grid that the benchmark's ``dephasing`` workload draws for that
seed (``perfbench/workloads.gamma_values``), each in its own subprocess,
once on that tree and once on the working tree's ``src/``.  Every written
file (CSV, network dump, manifest) and every command's stdout is compared
byte for byte; only the manifests' ``duration_s`` line is ignored.  Prints
each file that differs, for a CSV with the largest absolute difference in
each column that differs, for a stdout or manifest with the first line that
differs on each side, and exits 1 if any does.
"""
from __future__ import annotations

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.workloads import gamma_values  # noqa: E402

COMMANDS = ("fig2", "table1", "fig3", "tree", "disorder")


def parse_seeds(spec: str) -> list[int]:
    """'0-9' or a comma-separated list of seeds."""
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def runs(seed: int) -> list[tuple[str, list[str]]]:
    """(name, trailing CLI arguments) of every run at one seed: each command,
    then ``fig3`` on the benchmark's ``dephasing`` grid as ``fig3_bench``."""
    grid = ",".join(repr(g) for g in gamma_values(seed))
    return ([(command, [command]) for command in COMMANDS]
            + [("fig3_bench", ["--gamma-grid", grid, "fig3"])])


def run_all(src: Path, out: Path, seeds: list[int]) -> None:
    """Every run at every seed on ``src``, into ``out/<name>_<seed>`` with
    the command's stdout saved as ``stdout.txt`` there."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out.mkdir(parents=True)   # the cwd, so that no other tree is importable
    for seed in seeds:
        for name, arguments in runs(seed):
            run_dir = out / f"{name}_{seed}"
            done = subprocess.run(
                [sys.executable, "-m", "spinclone.cli", "--seed", str(seed),
                 "--out-dir", str(run_dir), *arguments],
                env=env, cwd=out, capture_output=True, text=True)
            if done.returncode not in (0, 1):
                raise SystemExit(f"{name} at seed {seed} on {src} failed:\n"
                                 f"{done.stderr}")
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "stdout.txt").write_text(done.stdout)


def comparable(path: Path) -> bytes:
    """The file's bytes, without a manifest's ``duration_s`` line."""
    data = path.read_bytes()
    if path.suffix == ".manifest":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.startswith(b"duration_s="))
    return data


def column_differences(old: Path, new: Path) -> str:
    """The largest absolute difference in each column that differs between
    two CSV files, as ``column gap`` items; ``(text)`` for a column with a
    non-numeric difference."""
    with old.open(newline="") as a, new.open(newline="") as b:
        old_rows, new_rows = list(csv.reader(a)), list(csv.reader(b))
    shape = [len(row) for row in old_rows]
    if not old_rows or old_rows[0] != new_rows[0] or shape != [
            len(row) for row in new_rows]:
        return "header or shape differs"
    items = []
    for k, column in enumerate(old_rows[0]):
        cells = [(x[k], y[k]) for x, y in zip(old_rows[1:], new_rows[1:])
                 if x[k] != y[k]]
        if not cells:
            continue
        try:
            gap = max(abs(float(x) - float(y)) for x, y in cells)
        except ValueError:
            items.append(f"{column} (text)")
        else:
            items.append(f"{column} {gap:.3g}")
    return ", ".join(items)


def first_line_difference(old: Path, new: Path) -> str:
    """The first line that differs between two text outputs (a manifest's
    ``duration_s`` line skipped), as ``line <n>: <old> -> <new>`` with each
    side quoted, ``None`` past a side's last line."""
    old_lines = comparable(old).decode().splitlines()
    new_lines = comparable(new).decode().splitlines()
    for n, (a, b) in enumerate(zip_longest(old_lines, new_lines), start=1):
        if a != b:
            return f"line {n}: {a!r} -> {b!r}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--seeds", default="0-9",
                        help="'lo-hi' range or comma list (default 0-9)")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", args.rev, "src"],
                                 cwd=ROOT, capture_output=True, check=True)
        (tmp / "old").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "old")],
                       input=archive.stdout, check=True)
        run_all(tmp / "old" / "src", tmp / "old_out", seeds)
        run_all(ROOT / "src", tmp / "new_out", seeds)
        old = {p.relative_to(tmp / "old_out")
               for p in (tmp / "old_out").rglob("*") if p.is_file()}
        new = {p.relative_to(tmp / "new_out")
               for p in (tmp / "new_out").rglob("*") if p.is_file()}
        differing = sorted(old ^ new) + sorted(
            name for name in old & new
            if comparable(tmp / "old_out" / name)
            != comparable(tmp / "new_out" / name))
        for name in differing:
            detail = ""
            if name.suffix == ".csv" and name in old & new:
                detail = "; max |diff|: " + column_differences(
                    tmp / "old_out" / name, tmp / "new_out" / name)
            elif name in old & new and (name.suffix == ".manifest"
                                        or name.name == "stdout.txt"):
                detail = "; first difference at " + first_line_difference(
                    tmp / "old_out" / name, tmp / "new_out" / name)
            print(f"differs: {name}{detail}")
        print(f"{len(old | new)} files compared over {len(seeds)} seeds, "
              f"{len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
