"""Hypothesis strategies shared by the property tests."""
from hypothesis import assume, strategies as st

from spinclone import from_edge_list


@st.composite
def small_networks(draw, max_sites=5):
    """A random connected graph of 2..max_sites sites with 1-2 inputs and 1+
    outputs: a random spanning tree plus random extra edges."""
    n = draw(st.integers(2, max_sites))
    coupling = st.floats(0.2, 2.0)
    edges = [(draw(st.integers(0, k - 1)), k, draw(coupling))
             for k in range(1, n)]
    tree_pairs = {(i, j) for i, j, _ in edges}
    edges += [(i, j, draw(coupling)) for i in range(n) for j in range(i + 1, n)
              if (i, j) not in tree_pairs and draw(st.booleans())]
    sites = draw(st.permutations(range(n)))
    n_in = draw(st.integers(1, min(2, n - 1)))
    n_out = draw(st.integers(1, n - n_in))
    return from_edge_list(n, edges, sites[:n_in], sites[n_in:n_in + n_out])


@st.composite
def twinned_networks(draw):
    """A random connected graph of 2-4 nodes, each blown up into 1-3 twins.

    Copies of a node inherit its role and couplings; copies of one node are
    either mutually uncoupled or all coupled with one common strength.
    Returns the network and the planted classes as lists of sites.
    """
    n_nodes = draw(st.integers(2, 4))
    coupling = st.floats(0.2, 2.0)
    links = {(draw(st.integers(0, k - 1)), k): draw(coupling)
             for k in range(1, n_nodes)}
    links.update({(i, j): draw(coupling) for i in range(n_nodes)
                  for j in range(i + 1, n_nodes)
                  if (i, j) not in links and draw(st.booleans())})
    roles = ["input", "output"] + [draw(st.sampled_from(
        ["input", "output", "neither"])) for _ in range(n_nodes - 2)]
    roles = draw(st.permutations(roles))
    planted, start = [], 0
    for _ in range(n_nodes):
        copies = draw(st.integers(1, 3))
        planted.append(list(range(start, start + copies)))
        start += copies
    edges = [(a, b, c) for (i, j), c in links.items()
             for a in planted[i] for b in planted[j]]
    for members in planted:
        if len(members) > 1 and draw(st.booleans()):
            inner = draw(coupling)
            edges += [(a, b, inner) for a in members for b in members if a < b]
    inputs = [s for k, r in enumerate(roles) if r == "input" for s in planted[k]]
    outputs = [s for k, r in enumerate(roles) if r == "output"
               for s in planted[k]]
    assume(len(inputs) <= 3)
    return from_edge_list(start, edges, inputs, outputs), planted
