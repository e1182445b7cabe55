"""Coupling graphs for cloning networks: stars, trees and bipartite couplers.

A :class:`SpinNetwork` is a plain immutable record: sites, weighted undirected
edges, a per-site longitudinal field and the exchange anisotropy.  Couplings
are stored per edge even when uniform, so disordered networks are a data
change rather than a separate code path.
"""
from __future__ import annotations

import bisect
import dataclasses
import math
import numbers
from dataclasses import dataclass

import numpy as np

MAX_DIM = 4096   # bounds sites, sector states and Liouvillian entries


class DimensionLimitError(ValueError):
    """Raised when a network, sector or Liouvillian exceeds ``MAX_DIM``."""


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
        if self.n_sites > MAX_DIM:
            raise DimensionLimitError(
                f"{self.n_sites} sites exceeds maximum {MAX_DIM}")
        if len(self.field_b) != self.n_sites:
            raise ValueError("field_b must hold one value per site")
        if not all(map(math.isfinite, self.field_b)):
            raise ValueError("field_b must be finite")
        if not 0.0 <= self.anisotropy <= 1.0:
            raise ValueError("anisotropy must lie in [0, 1]")
        ends = [site for edge in self.edges for site in edge[:2]]
        for site in ends + list(self.input_sites + self.output_sites):
            if not isinstance(site, numbers.Integral):   # numpy's included
                raise ValueError(f"site index {site!r} is not an integer")
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
            if not 0.0 < coupling < math.inf:   # NaN fails too
                raise ValueError(f"coupling {coupling!r} on edge {key} must "
                                 f"be finite and > 0")
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
                   anisotropy: float = 0.0) -> SpinNetwork:
    """Generic builder, zero field; normalizes edge orientation to ``i < j``."""
    normalized = tuple(
        (min(i, j), max(i, j), float(c)) for i, j, c in edges
    )
    return SpinNetwork(
        n_sites=n_sites,
        edges=normalized,
        field_b=(0.0,) * n_sites,
        anisotropy=float(anisotropy),
        input_sites=tuple(input_sites),
        output_sites=tuple(output_sites),
    )


def star(n_clones: int) -> SpinNetwork:
    """Central site 0 coupled to ``n_clones`` outer sites by unit couplings.

    The center carries the input state and doubles as the ancilla; the outer
    sites are the blank qubits that receive the copies.
    """
    if n_clones < 1:
        raise ValueError("a star cloner needs at least one outer spin")
    edges = [(0, i, 1.0) for i in range(1, n_clones + 1)]
    return from_edge_list(n_clones + 1, edges, input_sites=[0],
                          output_sites=list(range(1, n_clones + 1)))


def tree(branching: int, levels: int) -> SpinNetwork:
    """Rooted tree of unit couplings: ``levels`` intermediate levels,
    ``branching`` children per node.

    The input sits at the root; the ``branching**(levels + 1)`` leaves are the
    blank qubits.  ``tree(k, 0)`` collapses to ``star(k)``.
    """
    if branching < 2:
        raise ValueError("branching factor must be at least 2")
    if levels < 0:
        raise ValueError("levels must be non-negative")
    leaves = branching ** (levels + 1)
    total = (branching * leaves - 1) // (branching - 1)
    if total > MAX_DIM:
        raise DimensionLimitError(f"tree({branching}, {levels}) has "
                                  f"{total} sites, maximum {MAX_DIM}")
    # Breadth-first numbering: node p has children k p + 1 .. k p + k.
    edges = [(parent, branching * parent + c, 1.0)
             for parent in range(total - leaves)
             for c in range(1, branching + 1)]
    return from_edge_list(total, edges, input_sites=[0],
                          output_sites=list(range(total - leaves, total)))


def bipartite(n_inputs: int, n_outputs: int) -> SpinNetwork:
    """Complete bipartite coupler: every input coupled to every output by a
    unit coupling.

    Inputs occupy sites ``0 .. n_inputs - 1``, outputs the remaining sites.
    ``bipartite(1, m)`` carries the same adjacency as ``star(m)``.
    """
    if n_inputs < 1:
        raise ValueError("need at least one input")
    if n_outputs <= n_inputs:
        raise ValueError("cloning direction requires more outputs than inputs")
    edges = [(i, n_inputs + j, 1.0)
             for i in range(n_inputs) for j in range(n_outputs)]
    return from_edge_list(
        n_inputs + n_outputs, edges, input_sites=list(range(n_inputs)),
        output_sites=list(range(n_inputs, n_inputs + n_outputs)))


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
    and, exactly, every coupling to the other sites.  Twins' rows differ only
    by swapping their entries at each other, so a site is compared only with
    the unassigned sites whose rows hold the same multiset: O(n^2) memory."""
    n = net.n_sites
    rows = np.zeros((n, n + 2))   # couplings, then role and field
    for i, j, coupling in net.edges:
        rows[i, j] = rows[j, i] = coupling
    rows[list(net.input_sites), n] = 1.0
    rows[list(net.output_sites), n] = 2.0
    rows[:, n + 1] = net.field_b
    multisets: dict[bytes, int] = {}   # + 0.0 maps a -0.0 field to 0.0
    key = np.array([multisets.setdefault(row.tobytes(), len(multisets))
                    for row in np.sort(rows, axis=1) + 0.0])
    labels = np.full(n, -1)
    for i in range(n):
        if labels[i] < 0:
            rest = np.nonzero((labels < 0) & (key == key[i]))[0][1:]
            same = rows[rest] == rows[i]
            same[:, i] = same[np.arange(len(rest)), rest] = True   # skip i, j
            labels[i] = labels.max() + 1
            labels[rest[same.all(axis=1)]] = labels[i]
    return labels


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
    a comment or a record of exactly its :func:`to_text` shape after one
    leading header, on a second role line of one kind or field for one
    site, on a non-finite field or one for a site the header does not count,
    on a header counting more than ``MAX_DIM`` sites (as
    :class:`DimensionLimitError`), and on the line at which
    :class:`SpinNetwork` first rejects the network.
    """
    edges: list[tuple[int, int, float]] = []
    fields: dict[int, float] = {}
    roles: dict[str, list[int]] = {}
    records = []   # (line, edges, inputs, outputs) from the header on
    for raw in text.splitlines():
        line = raw.strip()
        parts = line.split()
        if not parts or (parts[0] == "#" and parts[1:2] not in (["inputs"],
                                                                ["outputs"])):
            continue
        if parts[0] not in ("#", "sites", "edge", "field"):
            raise ValueError(f"unrecognized line: {line!r}")
        try:
            if (not records) != (parts[0] == "sites"):
                raise ValueError   # one header, ahead of every record
            if parts[0] == "#":
                if parts[1] in roles:
                    raise ValueError
                roles[parts[1]] = [int(p) for p in parts[2:]]
            elif len(parts) != (3 if parts[0] == "field" else 4):
                raise ValueError
            elif parts[0] == "sites":
                if parts[2] != "lambda":
                    raise ValueError
                n_sites, anisotropy = int(parts[1]), float(parts[3])
            elif parts[0] == "edge":
                edges.append((int(parts[1]), int(parts[2]), float(parts[3])))
            else:
                site, value = int(parts[1]), float(parts[2])
                if (site in fields or not 0 <= site < n_sites
                        or not math.isfinite(value)):
                    raise ValueError
                fields[site] = value
        except ValueError:
            raise ValueError(f"malformed line: {line!r}") from None
        if parts[0] == "sites" and n_sites > MAX_DIM:   # before any site list
            raise DimensionLimitError(
                f"{n_sites} sites exceeds maximum {MAX_DIM}: {line!r}")
        if parts[0] != "field":
            records.append((line, len(edges), roles.get("inputs", []),
                            roles.get("outputs", [])))
    if not records:
        raise ValueError("missing 'sites' header")

    def build(k):
        """The network of the first ``k + 1`` records, or the error that
        rejects it."""
        try:
            return from_edge_list(n_sites, edges[:records[k][1]],
                                  *records[k][2:], anisotropy=anisotropy)
        except ValueError as error:
            return error

    net = build(len(records) - 1)
    if isinstance(net, ValueError):   # quote the first rejected prefix's end
        k = bisect.bisect_left(range(len(records)), True,
                               key=lambda k: isinstance(build(k), ValueError))
        raise type(net)(f"{build(k)}: {records[k][0]!r}") from None
    field_b = tuple(fields.get(i, 0.0) for i in range(n_sites))
    return dataclasses.replace(net, field_b=field_b)
