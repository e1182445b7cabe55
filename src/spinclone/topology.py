"""Coupling graphs for cloning networks: stars, trees and bipartite couplers.

A :class:`SpinNetwork` is a plain immutable record: sites, weighted undirected
edges, a per-site longitudinal field and the exchange anisotropy.  Couplings
are stored per edge even when uniform, so disordered networks are a data
change rather than a separate code path.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

# Configuration words are held in int64 bit masks.
MAX_SITES = 62


class NetworkTooLargeError(ValueError):
    """Raised when a requested graph exceeds the supported site count."""


@dataclass(frozen=True)
class SpinNetwork:
    """Undirected spin-1/2 coupling graph with site roles.

    ``edges`` holds ``(i, j, coupling)`` triples with ``i < j``; ``field_b``
    is the per-site longitudinal field (uniform for ideal networks) and
    ``anisotropy`` interpolates between the XY model (0) and the Heisenberg
    model (1).  ``input_sites`` carry the state to be cloned, ``output_sites``
    receive the copies.
    """

    n_sites: int
    edges: tuple[tuple[int, int, float], ...]
    field_b: tuple[float, ...]
    anisotropy: float
    input_sites: tuple[int, ...]
    output_sites: tuple[int, ...]

    def __post_init__(self):
        if self.n_sites < 1:
            raise ValueError("network needs at least one site")
        if self.n_sites > MAX_SITES:
            raise NetworkTooLargeError(
                f"{self.n_sites} sites exceeds the supported maximum {MAX_SITES}"
            )
        if len(self.field_b) != self.n_sites:
            raise ValueError("field_b must hold one value per site")
        if not 0.0 <= self.anisotropy <= 1.0:
            raise ValueError("anisotropy must lie in [0, 1]")
        seen = set()
        for i, j, coupling in self.edges:
            if not (0 <= i < self.n_sites and 0 <= j < self.n_sites):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if i == j:
                raise ValueError(f"self-loop on site {i}")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            if coupling <= 0.0:
                raise ValueError(f"non-positive coupling on edge {key}")
        sites = range(self.n_sites)
        if not all(s in sites for s in self.input_sites + self.output_sites):
            raise ValueError("site role index out of range")
        if set(self.input_sites) & set(self.output_sites):
            raise ValueError("input and output sites must be disjoint")
        if len(set(self.input_sites)) != len(self.input_sites):
            raise ValueError("duplicate input site")
        if len(set(self.output_sites)) != len(self.output_sites):
            raise ValueError("duplicate output site")

    def with_params(self, anisotropy: float | None = None,
                    field: float | None = None) -> "SpinNetwork":
        """Copy of the network with a new anisotropy and/or uniform field."""
        changes = {}
        if anisotropy is not None:
            changes["anisotropy"] = float(anisotropy)
        if field is not None:
            changes["field_b"] = tuple([float(field)] * self.n_sites)
        return dataclasses.replace(self, **changes)

    def coupling_array(self) -> np.ndarray:
        return np.array([c for _, _, c in self.edges], dtype=float)


def from_edge_list(n_sites: int,
                   edges: list[tuple[int, int, float]],
                   input_sites: list[int],
                   output_sites: list[int],
                   anisotropy: float = 0.0,
                   field: float = 0.0) -> SpinNetwork:
    """Generic builder; normalizes edge orientation to ``i < j``."""
    normalized = tuple(
        (min(i, j), max(i, j), float(c)) for i, j, c in edges
    )
    return SpinNetwork(
        n_sites=n_sites,
        edges=normalized,
        field_b=tuple([float(field)] * n_sites),
        anisotropy=float(anisotropy),
        input_sites=tuple(input_sites),
        output_sites=tuple(output_sites),
    )


def star(n_clones: int, coupling: float = 1.0,
         anisotropy: float = 0.0, field: float = 0.0) -> SpinNetwork:
    """Central site 0 coupled to ``n_clones`` outer sites.

    The center carries the input state and doubles as the ancilla; the outer
    sites are the blank qubits that receive the copies.
    """
    if n_clones < 1:
        raise ValueError("a star cloner needs at least one outer spin")
    edges = [(0, i, coupling) for i in range(1, n_clones + 1)]
    return from_edge_list(
        n_clones + 1, edges,
        input_sites=[0],
        output_sites=list(range(1, n_clones + 1)),
        anisotropy=anisotropy, field=field,
    )


def tree(branching: int, levels: int, coupling: float = 1.0,
         anisotropy: float = 0.0, field: float = 0.0) -> SpinNetwork:
    """Rooted tree: ``levels`` intermediate levels, ``branching`` children per node.

    The input sits at the root; the ``branching**(levels + 1)`` leaves are the
    blank qubits.  ``tree(k, 0)`` collapses to ``star(k)``.
    """
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    if levels < 0:
        raise ValueError("levels must be non-negative")
    total = (branching ** (levels + 2) - 1) // (branching - 1)
    if total > MAX_SITES:
        raise NetworkTooLargeError(
            f"tree({branching}, {levels}) has {total} sites, maximum is {MAX_SITES}"
        )
    edges = []
    previous = [0]
    next_index = 1
    for _ in range(levels + 1):
        current = []
        for parent in previous:
            for _ in range(branching):
                edges.append((parent, next_index, coupling))
                current.append(next_index)
                next_index += 1
        previous = current
    return from_edge_list(
        total, edges,
        input_sites=[0],
        output_sites=previous,
        anisotropy=anisotropy, field=field,
    )


def bipartite(n_inputs: int, n_outputs: int, coupling: float = 1.0,
              anisotropy: float = 0.0, field: float = 0.0) -> SpinNetwork:
    """Complete bipartite coupler: every input coupled to every output.

    Inputs occupy sites ``0 .. n_inputs - 1``, outputs the remaining sites.
    ``bipartite(1, m)`` carries the same adjacency as ``star(m)``.
    """
    if n_inputs < 1:
        raise ValueError("need at least one input")
    if n_outputs <= n_inputs:
        raise ValueError("cloning direction requires more outputs than inputs")
    edges = [
        (i, n_inputs + j, coupling)
        for i in range(n_inputs)
        for j in range(n_outputs)
    ]
    return from_edge_list(
        n_inputs + n_outputs, edges,
        input_sites=list(range(n_inputs)),
        output_sites=list(range(n_inputs, n_inputs + n_outputs)),
        anisotropy=anisotropy, field=field,
    )


def coupling_factors(epsilon: float, seed: int, n_edges: int) -> np.ndarray:
    """The disorder model: one factor per edge, uniform in ``[1 - eps, 1 + eps]``.

    Deterministic under a fixed seed; ``eps = 0`` gives exact ones.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    return rng.uniform(1.0 - epsilon, 1.0 + epsilon, size=n_edges)


def jitter(net: SpinNetwork, epsilon: float, seed: int) -> SpinNetwork:
    """Multiply every coupling by its :func:`coupling_factors` draw.

    Graph structure, roles, field and anisotropy are untouched.
    """
    factors = coupling_factors(epsilon, seed, len(net.edges))
    edges = tuple(
        (i, j, float(coupling * factor))
        for (i, j, coupling), factor in zip(net.edges, factors)
    )
    return dataclasses.replace(net, edges=edges)


def twin_classes(net: SpinNetwork) -> np.ndarray:
    """Class id per site, numbered by smallest member: twins share role, field
    and, exactly, every coupling to the other sites."""
    n = net.n_sites
    rows = np.zeros((n, n + 2))   # couplings, then role and field
    for i, j, coupling in net.edges:
        rows[i, j] = rows[j, i] = coupling
    rows[list(net.input_sites), n] = 1.0
    rows[list(net.output_sites), n] = 2.0
    rows[:, n + 1] = net.field_b
    same = rows[:, None, :] == rows[None, :, :]   # [i, j, k]
    sites = np.arange(n)
    same[sites, :, sites] = same[:, sites, sites] = True   # skip k = i, j
    first = same.all(axis=2).argmax(axis=1)
    return (np.cumsum(first == sites) - 1)[first]


def to_text(net: SpinNetwork) -> str:
    """Line-based dump: ``sites N lambda L``, ``edge i j J``, ``field i B``.

    Role lines are emitted as ``#``-prefixed comments so that parsers of the
    bare format can skip them.
    """
    lines = [f"sites {net.n_sites} lambda {net.anisotropy!r}"]
    lines += [f"# inputs {' '.join(map(str, net.input_sites))}"]
    lines += [f"# outputs {' '.join(map(str, net.output_sites))}"]
    lines += [f"edge {i} {j} {c!r}" for i, j, c in net.edges]
    lines += [f"field {i} {b!r}" for i, b in enumerate(net.field_b)]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> SpinNetwork:
    """Inverse of :func:`to_text` (role comments are honored when present).

    Raises ``ValueError``, quoting the line, on any line that is not blank,
    a comment or a record of exactly its :func:`to_text` shape, on a second
    header, on a second field for one site and on a field for a site the
    header does not count.
    """
    n_sites = None
    anisotropy = 0.0
    edges: list[tuple[int, int, float]] = []
    fields: dict[int, tuple[float, str]] = {}   # site -> (field, line)
    roles = {"inputs": [], "outputs": []}
    for raw in text.splitlines():
        line = raw.strip()
        parts = line.split()
        if not parts or (parts[0] == "#" and parts[1:2] not in (["inputs"],
                                                                ["outputs"])):
            continue
        if parts[0] not in ("#", "sites", "edge", "field"):
            raise ValueError(f"unrecognized line: {line!r}")
        try:
            if parts[0] == "#":
                roles[parts[1]] = [int(p) for p in parts[2:]]
            elif len(parts) != (3 if parts[0] == "field" else 4):
                raise ValueError
            elif parts[0] == "sites":
                if n_sites is not None or parts[2] != "lambda":
                    raise ValueError
                n_sites, anisotropy = int(parts[1]), float(parts[3])
            elif parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                site = int(parts[1])
                if site in fields:
                    raise ValueError
                fields[site] = float(parts[2]), line
        except ValueError:
            raise ValueError(f"malformed line: {line!r}") from None
    if n_sites is None:
        raise ValueError("missing 'sites' header")
    for site, (_, line) in fields.items():
        if not 0 <= site < n_sites:
            raise ValueError(f"field for a missing site: {line!r}")
    field_b = tuple(fields.get(i, (0.0,))[0] for i in range(n_sites))
    net = from_edge_list(n_sites, edges, roles["inputs"], roles["outputs"],
                         anisotropy=anisotropy)
    return dataclasses.replace(net, field_b=field_b)
