"""Hypothesis strategies shared by the property tests."""
from hypothesis import strategies as st

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
