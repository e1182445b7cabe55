"""Write recorded.json: the CLI outputs the benchmark compares against.

Usage, from the repository root: ``python3 perfbench/record.py``.  Runs
``table1`` and ``tree`` once and ``disorder`` at seeds 0-9, and stores the
compared columns with the commit they came from.  Re-recording changes the
benchmark's references, so it belongs only in a change to the benchmark.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spinclone.cli as cli  # noqa: E402

from references import RECORDED, read_rows  # noqa: E402

DISORDER_SEEDS = range(10)


def run(out_dir: Path, *argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--out-dir", str(out_dir), *argv])
    if code != 0:
        raise SystemExit(f"spinclone {' '.join(argv)} exited {code}")


def main() -> None:
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        out = Path(tmp)
        run(out, "table1")
        run(out, "tree")
        table1 = [{"N": int(r["N"]), "M": int(r["M"]),
                   "F_found": float(r["F_found"]),
                   "Jt_c_found": float(r["Jt_c_found"]),
                   "F_at_ref_point": float(r["F_at_ref_point"])}
                  for r in read_rows(out / "table1.csv")]
        trees = [{"k": int(r["k"]), "j": int(r["j"]), "F": float(r["F"]),
                  "Jt_c": float(r["Jt_c"])}
                 for r in read_rows(out / "tree.csv")]
        by_seed = {}
        for seed in DISORDER_SEEDS:
            run(out, "--seed", str(seed), "disorder")
            rows = read_rows(out / "disorder.csv")
            by_seed[str(seed)] = [
                {"M": int(r["M"]), "mean_F": float(r["mean_F"]),
                 "std_F": float(r["std_F"]),
                 "relative_drop": float(r["relative_drop"])} for r in rows]
        disorder = {"epsilon": float(rows[0]["epsilon"]),
                    "samples": int(rows[0]["samples"]),
                    "ideal_F": {r["M"]: float(r["ideal_F"]) for r in rows},
                    "by_seed": by_seed}
    RECORDED.write_text(json.dumps(
        {"commit": commit, "table1": table1, "tree": trees,
         "disorder": disorder}, indent=1) + "\n")


if __name__ == "__main__":
    main()
