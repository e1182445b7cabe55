"""One CLI process of a workload, started by run.py.

Usage: ``python3 worker.py '<json config>'``.  The process imports
``spinclone.cli`` and generates the workload's inputs (its set-up), then,
unless the mode is ``setup``, runs the CLI calls of one unit in-process
through ``spinclone.cli.main``, the function behind the ``spinclone``
script.  In ``trace`` mode the layer tracer is installed first.  The
measurements go to the JSON file named by ``config["result"]``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def run_call(cli, argv: list[str]) -> dict:
    stdout = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # reported to run.py, which fails the call's checks
        code, error = None, traceback.format_exc()
    wall = time.perf_counter() - start
    return {"argv": argv, "exit_code": code, "wall_s": wall,
            "stdout": stdout.getvalue(), "error": error}


def bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def main() -> None:
    config = json.loads(sys.argv[1])
    import spinclone.cli as cli
    import workloads
    calls = workloads.cli_calls(config["workload"], config["seed"],
                                config["out_dir"])
    result = {"setup_s": time.time() - config["launched"]}

    if config["mode"] != "setup":
        tracer = None
        if config["mode"] == "trace":
            from layertrace import Tracer
            tracer = Tracer()
            tracer.install()
        cpu = time.process_time()
        result["calls"] = [run_call(cli, argv) for argv in calls]
        result["cpu_s"] = time.process_time() - cpu
        result["run_s"] = sum(call["wall_s"] for call in result["calls"])
        result["bytes_written"] = bytes_under(config["out_dir"])
        if tracer is not None:
            result["layers"] = tracer.summary()
            tracer.write_spans(config["spans"])

    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(config["result"], "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
