"""Outside-in layer tracing of the spinclone modules.

``Tracer.install`` wraps each public function of a layer on every module
that binds it (``spinclone.search.build_block`` as well as
``spinclone.hamiltonian.build_block``), plus the two dense eigensolvers the
library calls.  Every call records a span ``[name, start, end, parent]`` in
memory; ``summary`` folds the spans into per-layer counts and self times,
where a span's self time is its duration minus that of its direct children.
Spans nest correctly only for single-threaded runs, which is how the
benchmark calls the CLI (``--threads 1``).

A name that no longer exists is reported as absent instead of failing, so
the trace survives functions being renamed or deleted.  While a hook that
reads a call's arguments runs, every wrapper calls straight through, so the
hook's own work records no layer spans; the hook itself is a
``trace.hook`` span, so its time is not charged to the calling layer.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# Span name -> (module, attribute) pairs it wraps.  ``analytic`` is left
# out: it is closed forms costing microseconds.
LAYERS = {
    "topology": [("spinclone.topology", name) for name in (
        "star", "tree", "bipartite", "from_edge_list", "jitter", "to_text",
        "from_text")],
    "hamiltonian.build_block": [("spinclone.hamiltonian", "build_block")],
    "hamiltonian.eigh": [("numpy.linalg", "eigh"), ("scipy.linalg", "eigh")],
    "dynamics.run_protocol": [("spinclone.dynamics", "run_protocol")],
    "dynamics.prepare_input": [("spinclone.dynamics", "prepare_input")],
    "dynamics.reduce": [("spinclone.dynamics", name) for name in (
        "reduce_to_site", "reduce_density_to_site", "clone_fidelity")],
    "search.scan_init": [("spinclone.search", "ProtocolScan.__init__")],
    # Single-time calls are recorded as search.refine, batches as
    # search.components.
    "search.components": [("spinclone.search", "ProtocolScan.components")],
    "search.optimize": [("spinclone.search", name) for name in (
        "optimize", "optimize_exact_field", "optimize_tree")],
    "search.disorder": [("spinclone.search", "disorder_study")],
    "noise.circuit": [("spinclone.noise", "circuit_baseline")],
    "noise.network": [("spinclone.noise", "noisy_network_fidelity")],
    "noise.lindblad": [("spinclone.noise", "lindblad_evolve")],
    "noise.compile": [("spinclone.noise", name) for name in (
        "pcc_circuit_schedule", "cnot_pulses", "cry_pulses")],
    "noise.trajectory": [("spinclone.noise", "stochastic_evolve")],
    "cli": [("spinclone.cli", "main")],
}

# Per-layer metrics in report order: (name, unit, better, span it reads).
METRICS = [
    ("topology.calls", "count", "lower", "topology"),
    ("topology.self_s", "s", "lower", "topology"),
    ("hamiltonian.build_block.calls", "count", "lower", "hamiltonian.build_block"),
    ("hamiltonian.build_block.self_s", "s", "lower", "hamiltonian.build_block"),
    ("hamiltonian.eigh.calls", "count", "lower", "hamiltonian.eigh"),
    ("hamiltonian.eigh.self_s", "s", "lower", "hamiltonian.eigh"),
    ("hamiltonian.eigh.distinct_ratio", "ratio", "higher", "hamiltonian.eigh"),
    ("hamiltonian.dim_max", "count", "lower", "hamiltonian.build_block"),
    ("dynamics.run_protocol.calls", "count", "lower", "dynamics.run_protocol"),
    ("dynamics.run_protocol.self_s", "s", "lower", "dynamics.run_protocol"),
    ("dynamics.prepare_input.calls", "count", "lower", "dynamics.prepare_input"),
    ("dynamics.prepare_input.self_s", "s", "lower", "dynamics.prepare_input"),
    ("dynamics.reduce.calls", "count", "lower", "dynamics.reduce"),
    ("dynamics.reduce.self_s", "s", "lower", "dynamics.reduce"),
    ("search.scan_init.calls", "count", "lower", "search.scan_init"),
    ("search.scan_init.self_s", "s", "lower", "search.scan_init"),
    ("search.components.calls", "count", "lower", "search.components"),
    ("search.components.self_s", "s", "lower", "search.components"),
    ("search.time_points", "count", "lower", "search.components"),
    ("search.amplitude_bytes", "bytes", "lower", "search.components"),
    ("search.refine.calls", "count", "lower", "search.components"),
    ("search.refine.self_s", "s", "lower", "search.components"),
    ("search.optimize.calls", "count", "lower", "search.optimize"),
    ("search.optimize.self_s", "s", "lower", "search.optimize"),
    ("search.disorder.self_s", "s", "lower", "search.disorder"),
    ("noise.circuit.calls", "count", "lower", "noise.circuit"),
    ("noise.circuit.self_s", "s", "lower", "noise.circuit"),
    ("noise.network.calls", "count", "lower", "noise.network"),
    ("noise.network.self_s", "s", "lower", "noise.network"),
    ("noise.lindblad.calls", "count", "lower", "noise.lindblad"),
    ("noise.lindblad.self_s", "s", "lower", "noise.lindblad"),
    ("noise.compile.calls", "count", "lower", "noise.compile"),
    ("noise.compile.self_s", "s", "lower", "noise.compile"),
    ("noise.evolved_jt", "Jt", "lower", "noise.circuit"),
    ("noise.s_per_jt", "s/Jt", "lower", "noise.circuit"),
    ("noise.trajectory.calls", "count", "lower", "noise.trajectory"),
    ("noise.trajectory.self_s", "s", "lower", "noise.trajectory"),
    ("cli.self_s", "s", "lower", "cli"),
    ("cli.bytes_written", "bytes", "lower", "cli"),
    ("cli.cpu_over_wall", "ratio", "higher", "cli"),
    ("trace.overhead_s", "s", "lower", "cli"),
]

# Span of a hook that reads a call's arguments: tracing overhead.
HOOK_SPAN = "trace.hook"

# Spans whose self time is the master-equation work behind noise.evolved_jt.
NOISE_SOLVE = ("noise.circuit", "noise.network", "noise.lindblad",
               "noise.compile")


class Tracer:
    """Span recorder for one traced CLI process."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self._stack: list[int] = []
        self._in_hook = False
        self._signatures: dict[object, inspect.Signature] = {}
        self.missing: list[str] = []         # wrapped names not found
        self.hook_errors: list[str] = []
        self._eigh_inputs: set[bytes] = set()
        self.dim_max = 0
        self.time_points = 0
        self.amplitude_bytes = 0
        self.evolved_jt = 0.0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "hamiltonian.eigh": self._before_eigh,
            "search.components": self._before_components,
            "noise.network": self._before_network,
            "noise.circuit": self._before_circuit,
        }
        for layer, targets in LAYERS.items():
            for module_name, path in targets:
                if not self._wrap(layer, module_name, path, hooks.get(layer)):
                    self.missing.append(f"{module_name}.{path}")

    def _wrap(self, layer, module_name, path, hook) -> bool:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            return False
        wrapper = self._make_wrapper(layer, original, hook)
        if owner_name:
            # A method: every binding goes through the class.
            setattr(owner, attr, wrapper)
            return True
        bound_in = [module] + [m for name, m in list(sys.modules.items())
                               if name.startswith("spinclone") and m]
        for mod in bound_in:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
        return True

    def _make_wrapper(self, layer, func, hook):
        spans, stack = self.spans, self._stack
        note_block = layer == "hamiltonian.build_block"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self._in_hook:
                return func(*args, **kwargs)
            name = layer
            if hook is not None:
                name = self._run_hook(hook, func, args, kwargs) or layer
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if note_block:
                matrix = getattr(result, "matrix", None)
                if matrix is not None:
                    self.dim_max = max(self.dim_max, int(matrix.shape[0]))
            return result

        return traced

    def _run_hook(self, hook, func, args, kwargs):
        stack = self._stack
        span = [HOOK_SPAN, time.perf_counter(), 0.0, stack[-1] if stack else -1]
        self.spans.append(span)
        self._in_hook = True
        try:
            return hook(func, args, kwargs)
        except Exception as exc:  # the traced call itself must still run
            self.hook_errors.append(
                f"{func.__qualname__}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self._in_hook = False
            span[2] = time.perf_counter()

    def _arguments(self, func, args, kwargs) -> dict:
        signature = self._signatures.get(func)
        if signature is None:
            signature = self._signatures[func] = inspect.signature(func)
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    # -- counters taken from the arguments -----------------------------------

    def _before_eigh(self, func, args, kwargs):
        import numpy as np
        matrix = np.ascontiguousarray(args[0] if args else kwargs["a"])
        digest = hashlib.blake2b(matrix.tobytes(), digest_size=16)
        digest.update(repr((matrix.shape, matrix.dtype.str)).encode())
        self._eigh_inputs.add(digest.digest())

    def _before_components(self, func, args, kwargs):
        import numpy as np
        scan = args[0]
        t_values = args[1] if len(args) > 1 else kwargs["t_values"]
        count = int(np.atleast_1d(np.asarray(t_values)).size)
        self.time_points += count
        # Computed, not measured: one complex128 amplitude per basis state
        # and time.
        self.amplitude_bytes += 16 * int(scan.dim) * count
        return "search.refine" if count == 1 else "search.components"

    def _before_network(self, func, args, kwargs):
        arguments = self._arguments(func, args, kwargs)
        if arguments["gamma"] > 0.0:
            self.evolved_jt += float(arguments["t"])

    def _before_circuit(self, func, args, kwargs):
        arguments = self._arguments(func, args, kwargs)
        if arguments["gamma"] > 0.0:
            noise = sys.modules["spinclone.noise"]
            _, schedule = noise.pcc_circuit_schedule(arguments["n_clones"])
            self.evolved_jt += float(noise.schedule_duration(schedule))

    # -- results -----------------------------------------------------------

    def absent_layers(self) -> set[str]:
        """Layers none of whose wrapped names exists any more."""
        return {layer for layer, targets in LAYERS.items()
                if all(f"{m}.{p}" in self.missing for m, p in targets)}

    def summary(self) -> dict:
        """Per-layer metrics (without the ones the caller measures) and
        the names reported absent."""
        spans = self.spans
        durations = [end - start for _, start, end, _ in spans]
        covered = [0.0] * len(spans)
        for index, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                covered[parent] += durations[index]
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        eigh_callers: Counter = Counter()
        for index, (name, _, _, parent) in enumerate(spans):
            calls[name] += 1
            self_s[name] += durations[index] - covered[index]
            if name == "hamiltonian.eigh":
                eigh_callers[spans[parent][0] if parent >= 0 else "-"] += 1

        values: dict[str, float] = {}
        for name in ("topology", "hamiltonian.build_block", "hamiltonian.eigh",
                     "dynamics.run_protocol", "dynamics.prepare_input",
                     "dynamics.reduce", "search.scan_init",
                     "search.components", "search.refine", "search.optimize",
                     "noise.circuit", "noise.network", "noise.lindblad",
                     "noise.compile", "noise.trajectory"):
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
        values["search.disorder.self_s"] = self_s["search.disorder"]
        values["cli.self_s"] = self_s["cli"]
        eigh_calls = calls["hamiltonian.eigh"]
        values["hamiltonian.eigh.distinct_ratio"] = (
            len(self._eigh_inputs) / eigh_calls if eigh_calls else 0.0)
        values["hamiltonian.dim_max"] = self.dim_max
        values["search.time_points"] = self.time_points
        values["search.amplitude_bytes"] = self.amplitude_bytes
        values["noise.evolved_jt"] = self.evolved_jt
        solve_s = sum(self_s[name] for name in NOISE_SOLVE)
        values["noise.s_per_jt"] = (solve_s / self.evolved_jt
                                    if self.evolved_jt > 0.0 else 0.0)

        absent = self.absent_layers()
        return {
            "values": values,
            "absent_metrics": [name for name, _, _, layer in METRICS
                               if layer in absent],
            "missing_names": self.missing,
            "hook_errors": self.hook_errors,
            "eigh_callers": dict(eigh_callers),
            "spans": len(spans),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, handle)
