"""Exchange Hamiltonians restricted to magnetization sectors.

The model is, with Pauli matrices and ``hbar = 1``,

    H = (1/4) sum_edges J_ij (sx_i sx_j + sy_i sy_j + lambda sz_i sz_j)
        + (1/2) sum_i B_i sz_i,

each undirected edge counted once.  Total z-magnetization is conserved, so
the operator never mixes excitation numbers and can be assembled directly on
a union of fixed-weight sectors.  ``|0>`` is the ``sz = +1`` eigenstate.

A basis state is the product of the symmetric (Dicke) states of classes of
sites (twins, or one site per class) with ``n_a`` excitations in class
``a`` of ``s_a`` sites.  With uniform couplings within and between classes
each class is a collective spin and every element is closed-form: a hop
from class b to class a is ``(J_ab/2) sqrt((n_a+1)(s_a-n_a) n_b(s_b-n_b+1))``,
hops inside a class add ``(J_aa/2) n(s-n)`` to the diagonal, zz adds
``lambda J_ab/4 (s_a-2n_a)(s_b-2n_b)`` between and ``lambda J_aa/8
((s-2n)^2-s)`` inside classes, and the field ``B_a/2 (s_a-2n_a)``.  With one
site per class the counts are the bits of a configuration word.

Times are reported as ``J t`` and fields as ``B / J`` throughout (``J = 1``
default energy scale).
"""
from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .topology import MAX_DIM, DimensionLimitError, SpinNetwork


@dataclass(frozen=True)
class SectorBasis:
    """Ordered count basis for a union of excitation numbers.

    ``classes`` gives every site's class and ``sizes`` each class's site
    count.  Row ``k`` of ``counts`` holds the excitations per class of state
    ``k``, in lexicographic order, class 0 the lowest digit (the ordering is
    part of the data contract).  ``codes = counts @ multipliers``, wrapping
    in int64, are opaque distinct keys, looked up through their ``order``
    and ``sorted_codes``.  ``state_weights`` caches each state's excitation
    number.  Bases compare and hash by ``classes`` and ``weights``.
    """

    classes: tuple[int, ...]
    weights: tuple[int, ...]
    sizes: np.ndarray = field(compare=False)
    multipliers: np.ndarray = field(compare=False)
    codes: np.ndarray = field(compare=False)
    order: np.ndarray = field(compare=False)
    sorted_codes: np.ndarray = field(compare=False)
    counts: np.ndarray = field(compare=False)
    state_weights: np.ndarray = field(compare=False)

    def __len__(self):
        return len(self.codes)

    def index_of(self, codes: np.ndarray) -> np.ndarray:
        """Positions of state codes; assumes membership."""
        return self.order[np.searchsorted(self.sorted_codes, codes)]

    def raising(self, cls: int) -> tuple[np.ndarray, ...]:
        """Nonzero elements of the collective raising operator of class
        ``cls``: positions ``lower``, ``upper`` of the states ``n`` and
        ``n + e_cls``, both in the basis, and ``sqrt((n + 1)(s - n))``."""
        present = np.zeros(len(self.classes) + 2, dtype=bool)
        present[list(self.weights)] = True   # the partner's weight
        rows = np.nonzero((self.counts[:, cls] < self.sizes[cls])
                          & present[self.state_weights + 1])[0]
        upper = self.index_of(self.codes[rows] + self.multipliers[cls])
        n = self.counts[rows, cls]
        return rows, upper, np.sqrt((n + 1) * (self.sizes[cls] - n))


def sector_dimension(sizes, weights) -> int:
    """Number of count states with an excitation number in ``weights``: the
    coefficients of ``prod_a (1 + x + ... + x^{s_a})`` up to the largest
    weight, with ``(1 - x^{s+1})^m (1 - x)^{-m}`` for ``m`` classes of size
    ``s``; with unit sizes, the ``sum_w C(n, w)`` configurations."""
    top = max(weights)
    poly = [1] + [0] * top
    for s, m in Counter(sizes).items():
        factor = [sum((-1) ** j * math.comb(m, j)
                      * math.comb(m - 1 + k - j * (s + 1), m - 1)
                      for j in range(k // (s + 1) + 1))
                  for k in range(top + 1)]
        poly = [sum(p * f for p, f in zip(poly[:k + 1], factor[k::-1]))
                for k in range(top + 1)]
    return sum(poly[w] for w in set(weights) if w >= 0)


@lru_cache(maxsize=128)
def count_basis(classes: tuple[int, ...],
                weights: tuple[int, ...]) -> SectorBasis:
    """Shared count basis for a site partition and excitation numbers.

    The dimension is checked against ``MAX_DIM`` before any state is built;
    the enumeration runs from the highest digit down, keeps only the
    prefixes from which a requested weight is still reachable and records
    each one's digit and parent, from which ``counts`` is read once.
    """
    if not classes:
        raise ValueError("need at least one site")
    wset = tuple(sorted(set(int(w) for w in weights)))
    if not wset:
        raise ValueError("empty weight set")
    if wset[0] < 0 or wset[-1] > len(classes):
        raise ValueError(f"weights {wset} outside 0..{len(classes)}")
    sizes = np.bincount(classes)
    dim = sector_dimension(sizes.tolist(), wset)
    if dim > MAX_DIM:
        raise DimensionLimitError(
            f"sector dimension {dim} exceeds maximum {MAX_DIM}"
        )
    totals = np.arange(len(classes) + 1)
    gap = np.append(wset, 2 * len(classes) + 1)[   # to the next weight
        np.searchsorted(wset, totals)] - totals
    levels = []   # (digit, parent) per prefix, from the highest class down
    total = np.zeros(1, dtype=np.int64)
    room = len(classes)   # sites of the classes not yet enumerated
    for size in sizes[::-1]:
        room -= size
        reach = gap[total[:, None] + np.arange(size + 1)] <= room
        parent, digit = np.nonzero(reach)
        total = total[parent] + digit
        levels.append((digit, parent))
    counts = np.empty((len(total), len(sizes)), dtype=np.int64)
    prefix = np.arange(len(total))
    for cls, (digit, parent) in enumerate(reversed(levels)):
        counts[:, cls] = digit[prefix]
        prefix = parent[prefix]
    multipliers = np.frombuffer(   # from a fixed seed
        random.Random(0).randbytes(8 * len(sizes)), dtype="<i8")
    codes = counts @ multipliers
    order = np.argsort(codes)
    sorted_codes = codes[order]
    if np.any(sorted_codes[1:] == sorted_codes[:-1]):
        raise ValueError("state codes collide")
    return SectorBasis(classes, wset, sizes, multipliers, codes, order,
                       sorted_codes, counts, total)


def sector_basis(n_sites: int, weights: tuple[int, ...]) -> SectorBasis:
    """Configuration basis: the count basis with one site per class."""
    return count_basis(tuple(range(n_sites)), tuple(weights))


@dataclass(frozen=True)
class HamiltonianBlock:
    """Dense Hermitian matrix of the exchange model on a sector basis.

    The matrix is real symmetric in the configuration basis (hopping plus
    diagonal terms); it is stored as float64 and promoted to complex only by
    arithmetic with amplitudes.
    """

    basis: SectorBasis
    matrix: np.ndarray


def build_block(net: SpinNetwork, weights) -> HamiltonianBlock:
    """Assemble the exchange Hamiltonian restricted to the given weights.

    The one-row case of :func:`assemble_blocks` with the network's own
    couplings.
    """
    basis = sector_basis(net.n_sites, tuple(weights))
    matrix = assemble_blocks(net, basis, net.coupling_array()[None, :])[0]
    return HamiltonianBlock(basis=basis, matrix=matrix)


def assemble_blocks(net: SpinNetwork, basis: SectorBasis,
                    couplings: np.ndarray) -> np.ndarray:
    """(R, dim, dim) Hamiltonians of ``net`` on ``basis`` with its edge
    couplings replaced by each row of the (R, n_edges) array ``couplings``
    (``net.edges`` order), from the collective-spin elements of the module
    docstring.  A pair of classes takes the coupling of its first edge, as
    twin classes and one site per class allow.
    """
    dim, lam = len(basis), net.anisotropy
    counts, sizes = basis.counts, basis.sizes
    z = (sizes - 2 * counts).astype(np.float64)   # s - 2n per class
    class_field = np.zeros(len(sizes))
    class_field[list(basis.classes)] = net.field_b
    diagonal = np.tile(0.5 * z @ class_field, (len(couplings), 1))
    matrix = np.zeros((len(couplings), dim, dim), dtype=np.float64)
    pairs: dict[tuple[int, ...], int] = {}   # class pair -> its first edge
    for e, (i, j, _) in enumerate(net.edges):
        pairs.setdefault(tuple(sorted((basis.classes[i], basis.classes[j]))),
                         e)
    hops = []   # (up, down, edge): one excitation from class down to class up
    for (a, b), e in pairs.items():
        coupling = couplings[:, e, None]
        if a == b:
            n, s = counts[:, a], sizes[a]
            diagonal += 0.5 * coupling * (n * (s - n))
            if lam != 0.0:
                diagonal += 0.125 * lam * coupling * (z[:, a] ** 2 - s)
            continue
        hops += [(a, b, e), (b, a, e)]
        if lam != 0.0:
            diagonal += 0.25 * lam * coupling * z[:, a] * z[:, b]
    up, down, edge = np.array(hops, dtype=np.int64).reshape(-1, 3).T
    rows, k = np.nonzero((counts[:, up] < sizes[up]) & (counts[:, down] > 0))
    up, down, edge = up[k], down[k], edge[k]
    n_up, n_down = counts[rows, up], counts[rows, down]
    amplitude = np.sqrt((n_up + 1) * (sizes[up] - n_up)
                        * n_down * (sizes[down] - n_down + 1))
    partners = (basis.codes[rows] + basis.multipliers[up]
                - basis.multipliers[down])
    # Distinct class pairs link distinct (row, col) pairs: assigning adds to 0.
    matrix[:, rows, basis.index_of(partners)] = (0.5 * couplings[:, edge]
                                                  * amplitude)
    matrix.reshape(len(couplings), -1)[:, ::dim + 1] += diagonal
    return matrix

