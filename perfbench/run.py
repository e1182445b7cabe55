"""Benchmark of the spinclone CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload dephasing --seed 0 --seconds 20 --trace 0

Each unit of a workload is a fresh Python process (``worker.py``) that
imports ``spinclone.cli`` from ``src/``, generates the workload's CLI
arguments from the seed, and runs the calls through ``spinclone.cli.main``.
Units repeat for about ``--seconds``; the end-to-end metrics are medians
over them.  With ``--trace 1`` one more unit runs with the layer
tracer installed and the per-layer metrics are printed instead.  Every
unit's outputs are checked (see references.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See NOTES.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

import references
import workloads
from layertrace import LAYERS, METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Every CLI process gets the same single-threaded BLAS, so both sides of a
# comparison run the same threads.  Left to its default, OpenBLAS uses both
# cores and table1 gets slower (about 9.9 s wall for 18 s of CPU, against
# 8.4 s on one thread).
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
MIN_SETUP_SAMPLES = 9
DEADLINE_S = 170.0          # the whole run must end within 180 s

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Launcher:
    """Starts the worker processes of one benchmark run."""

    def __init__(self, workload: str, seed: int, tmp: Path, started: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.started = started
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)

    def spawn(self, mode: str) -> dict:
        """Run one worker; a worker that fails yields its error instead."""
        index = self.count
        self.count += 1
        out_dir = self.tmp / f"unit{index}"
        result_path = self.tmp / f"result{index}.json"
        spans = WORK / f"spans_{self.workload}_seed{self.seed}.json"
        config = {"workload": self.workload, "seed": self.seed, "mode": mode,
                  "out_dir": str(out_dir), "result": str(result_path),
                  "spans": str(spans)}
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - self.started))
        config["launched"] = time.time()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=timeout)
            error = proc.stderr.strip() if proc.returncode else None
        except subprocess.TimeoutExpired:
            error = f"worker exceeded {timeout:.0f} s"
        if error is None and result_path.is_file():
            result = json.loads(result_path.read_text())
            result["out_dir"] = out_dir
            return result
        calls = workloads.cli_calls(self.workload, self.seed, str(out_dir))
        return {"out_dir": out_dir, "error": error or "no result written",
                "calls": [{"argv": argv, "exit_code": None, "stdout": "",
                           "error": error} for argv in calls]}


def same_csvs(first: Path, other: Path) -> bool:
    names = sorted(p.name for p in first.glob("*.csv"))
    return bool(names) and names == sorted(p.name for p in other.glob("*.csv")) \
        and all((first / n).read_bytes() == (other / n).read_bytes()
                for n in names)


def distribution(values: list[float]) -> dict:
    """Median, plus the highest percentile with at least ten samples above
    it (nearest rank), plus the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "n": n}
    if n > 10:
        rank = n - 10
        out[f"p{100.0 * rank / n:.0f}"] = ordered[rank - 1]
    return out


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]

    def git(*argv):
        proc = subprocess.run(["git", "-C", str(ROOT), *argv],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    # Outside a git checkout git is not asked: it would search the parent
    # directories.
    in_repo = (ROOT / ".git").exists()
    status = git("status", "--porcelain") if in_repo else None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas.get("openblas configuration", blas.get("name")),
        "scipy_blas": scipy_blas.get("openblas configuration",
                                     scipy_blas.get("name")),
        "thread_env": THREAD_ENV,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if in_repo else None,
        "seed": seed,
    }


def check_outputs(workload, seed, units, recorded):
    """The CLI's own checks (first) and the output checks (second)."""
    own = references.Checker()
    outputs = references.Checker()
    for unit in units:
        for call in unit["calls"]:
            references.cli_call(own, call)
    first = units[0]["out_dir"]
    if workload == "dephasing":
        gammas = workloads.gamma_values(seed)
        outputs.guarded("fig3 reference", references.dephasing_expected(gammas),
                        references.dephasing, first, gammas)
    elif workload == "bipartite_scan":
        outputs.guarded("table1 reference", references.bipartite_expected(),
                        references.bipartite, first, recorded)
    else:
        outputs.guarded("many_small reference",
                        references.many_small_expected(seed, recorded),
                        references.many_small, first, seed, recorded)
    for k, unit in enumerate(units[1:], start=1):
        outputs.truth(f"unit {k} CSVs identical to unit 0",
                      same_csvs(first, unit["out_dir"]))
    return own, outputs


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    if not (SRC / "spinclone" / "cli.py").is_file():
        print(f"perfbench: no spinclone sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spinclone
    if Path(spinclone.__file__).resolve().parent != SRC / "spinclone":
        print(f"perfbench: spinclone imported from {spinclone.__file__}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    recorded = references.load_recorded()

    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        launcher = Launcher(args.workload, args.seed, Path(tmp), started)
        units, setups = [], []
        measure_start = time.monotonic()
        unit_s = 0.0
        # Units are whole CLI processes: start another while it is expected
        # to end within half a unit of --seconds.
        while not units or (time.monotonic() - measure_start + unit_s / 2
                            < args.seconds):
            begun = time.monotonic()
            unit = launcher.spawn("run")
            unit_s = time.monotonic() - begun
            units.append(unit)
            if "error" not in unit:
                setups.append(unit["setup_s"])
            if len(setups) < MIN_SETUP_SAMPLES:
                # Set-up-only processes top the samples up, spread over the
                # run like the units.
                probe = launcher.spawn("setup")
                if "error" not in probe:
                    setups.append(probe["setup_s"])
        measured = [u for u in units if "error" not in u]
        while len(setups) < MIN_SETUP_SAMPLES:
            probe = launcher.spawn("setup")
            if "error" in probe:
                break
            setups.append(probe["setup_s"])
        traced = launcher.spawn("trace") if args.trace else None

        own, outputs = check_outputs(args.workload, args.seed,
                                     units + ([traced] if traced else []),
                                     recorded)

    attempted = len(own.results) + len(outputs.results)
    failed = own.failed + outputs.failed
    correct = (bool(measured) and own.unexpected == 0
               and outputs.unexpected == 0)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment(args.seed)))
    for unit in units:
        if "error" in unit:
            print(f"unit failed: {unit['error'][-2000:]}")
    samples = {
        "setup_s": setups,
        "run_s": [u["run_s"] for u in measured],
        "peak_rss_mb": [u["maxrss_mb"] for u in measured],
    }
    medians = {}
    for name, unit in END_TO_END:
        if samples[name]:
            dist = distribution(samples[name])
            medians[name] = dist["median"]
            print(f"{name:<13} {unit:<3} " + " ".join(
                f"{k}={v:.6g}" for k, v in dist.items()))
    print("run_s per unit: " + " ".join(f"{v:.4f}" for v in samples["run_s"]))
    print(f"failed_ratio  ratio {failed}/{attempted} = {failed / attempted:.6g}"
          " (failed checks / attempted checks)")
    for checker in (own, outputs):
        for name, ok, detail, known in checker.results:
            if not ok:
                print(f"[FAIL] {name} {detail}"
                      + (" (known defect)" if known else ""))

    if args.trace:
        metrics = layer_metrics(traced, measured)
    else:
        metrics = {name: {"value": medians.get(name, 0.0), "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(traced: dict, measured: list[dict]) -> dict:
    if "error" in traced:
        print("traced unit failed; every per-layer metric is absent")
        layers = {"values": {}, "absent_metrics": [m[0] for m in METRICS],
                  "missing_names": [], "hook_errors": [], "eigh_callers": {}}
    else:
        layers = traced["layers"]
    values = dict(layers["values"])
    # With no untraced unit measured the result is already incorrect.
    untraced_run_s = statistics.median([u["run_s"] for u in measured] or [0.0])
    values["cli.bytes_written"] = traced.get("bytes_written", 0)
    values["cli.cpu_over_wall"] = statistics.median(
        [u["cpu_s"] / u["run_s"] for u in measured] or [0.0])
    values["trace.overhead_s"] = traced.get("run_s", 0.0) - untraced_run_s
    absent = set(layers["absent_metrics"])
    print(f"trace: {len(LAYERS)} layers, {layers.get('spans', 0)} spans, "
          f"untraced run_s {untraced_run_s:.6g}, traced run_s "
          f"{traced.get('run_s', float('nan')):.6g}")
    if layers["missing_names"]:
        print("absent names: " + " ".join(layers["missing_names"]))
    for error in layers["hook_errors"][:20]:
        print(f"trace hook error: {error}")
    print("eigh calls by caller: " + json.dumps(layers["eigh_callers"]))
    metrics = {}
    for name, unit, _, _ in METRICS:
        value = values.get(name, 0.0)
        shown = "absent" if name in absent else f"{value:.6g}"
        print(f"{name:<32} {unit:<6} {shown}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
