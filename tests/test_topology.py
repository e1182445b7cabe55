import dataclasses
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from spinclone import (DimensionLimitError, bipartite, from_edge_list,
                       from_text, jitter, star, to_text, tree)
from spinclone.topology import MAX_DIM, coupling_factors, twin_classes
from reference import dense_twin_classes
from strategies import small_networks, twinned_networks


def test_star_two_clones():
    net = star(2)
    assert net.n_sites == 3
    assert {(i, j) for i, j, _ in net.edges} == {(0, 1), (0, 2)}
    assert net.input_sites == (0,)
    assert net.output_sites == (1, 2)


def test_star_counts():
    net = star(7)
    assert net.n_sites == 8
    assert len(net.edges) == 7


def test_star_single_clone_is_two_site_transfer():
    net = star(1)
    assert net.n_sites == 2
    assert len(net.edges) == 1


def test_star_rejects_degenerate():
    with pytest.raises(ValueError):
        star(0)


@pytest.mark.parametrize("k,j,sites,leaves", [
    (2, 2, 15, 8),
    (3, 2, 40, 27),
    (2, 0, 3, 2),
])
def test_tree_shapes(k, j, sites, leaves):
    net = tree(k, j)
    assert net.n_sites == sites
    assert len(net.output_sites) == leaves
    assert len(net.edges) == sites - 1


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_tree_leaf_count_law(k, j):
    assert len(tree(k, j).output_sites) == k ** (j + 1)


def test_tree_zero_levels_matches_star():
    assert {e[:2] for e in tree(2, 0).edges} == {e[:2] for e in star(2).edges}


def test_tree_size_bound():
    # 2^32 - 1 sites: rejected from the count alone, before any edge.
    for error in (DimensionLimitError, ValueError):
        started = time.perf_counter()
        with pytest.raises(error, match=r"tree\(2, 30\) has 4294967295"):
            tree(2, 30)
        assert time.perf_counter() - started < 1.0
    assert tree(3, 3).n_sites == 121
    # Every network shares the one bound.
    assert star(MAX_DIM - 1).n_sites == MAX_DIM
    with pytest.raises(DimensionLimitError, match=str(MAX_DIM + 1)):
        star(MAX_DIM)


def test_bipartite_counts():
    net = bipartite(2, 3)
    assert net.n_sites == 5
    assert len(net.edges) == 6
    big = bipartite(4, 5)
    assert big.n_sites == 9
    assert len(big.edges) == 20


def test_bipartite_single_input_is_star():
    assert {e[:2] for e in bipartite(1, 4).edges} == {e[:2] for e in star(4).edges}


def test_bipartite_rejects_wrong_direction():
    with pytest.raises(ValueError):
        bipartite(3, 3)
    with pytest.raises(ValueError):
        bipartite(4, 2)


def test_roles_disjoint_and_connected():
    for net in (star(3), tree(2, 1), bipartite(2, 4)):
        assert not set(net.input_sites) & set(net.output_sites)
        adjacency = np.zeros((net.n_sites, net.n_sites))
        for i, j, coupling in net.edges:
            adjacency[i, j] = coupling
        assert connected_components(adjacency, directed=False)[0] == 1


def test_duplicate_edge_rejected():
    with pytest.raises(ValueError):
        from_edge_list(3, [(0, 1, 1.0), (1, 0, 1.0)], [0], [1, 2])


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        from_edge_list(2, [(1, 1, 1.0)], [0], [1])


@pytest.mark.parametrize("edges, inputs", [
    ([(0.5, 1, 1.0), (0, 2, 1.0)], [0]),
    ([(0, 1, 1.0), (0, 2.0, 1.0)], [0]),
    ([(0, 1, 1.0), (0, 2, 1.0)], [0.0]),
])
def test_non_integer_site_index_rejected(edges, inputs):
    # A float index passes the range checks, then breaks run_protocol,
    # optimize and the text dump.
    with pytest.raises(ValueError, match="site index .* is not an integer"):
        from_edge_list(3, edges, inputs, [1, 2])


def test_numpy_integer_site_indices_accepted():
    i = np.arange(3)
    net = from_edge_list(3, [(i[0], i[1], 1.0), (i[0], i[2], 1.0)], [i[0]],
                         list(i[1:]))
    assert from_text(to_text(net)) == star(2)


def test_jitter_zero_is_identity():
    net = star(3)
    assert jitter(net, 0.0, 5) == net


def test_jitter_range_and_structure():
    net = from_edge_list(3, [(0, 1, 2.0), (0, 2, 2.0)], [0], [1, 2])
    shaken = jitter(net, 0.1, seed=123)
    assert [e[:2] for e in shaken.edges] == [e[:2] for e in net.edges]
    assert shaken.input_sites == net.input_sites
    assert shaken.output_sites == net.output_sites
    for _, _, coupling in shaken.edges:
        assert 1.8 <= coupling <= 2.2


def test_jitter_deterministic():
    net = tree(2, 1)
    assert jitter(net, 0.1, 77) == jitter(net, 0.1, 77)
    assert jitter(net, 0.1, 77) != jitter(net, 0.1, 78)


def test_jitter_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        jitter(star(2), 1.0, 0)


def test_jitter_draws_coupling_factors():
    net = from_edge_list(4, [(0, 1, 1.5), (0, 2, 0.5), (1, 3, 2.5)], [0],
                         [2, 3])
    factors = coupling_factors(0.2, 31, len(net.edges))
    assert np.array_equal(jitter(net, 0.2, 31).coupling_array(),
                          net.coupling_array() * factors)
    assert np.all(np.abs(factors - 1.0) <= 0.2)
    assert np.array_equal(coupling_factors(0.0, 31, 4), np.ones(4))
    with pytest.raises(ValueError):
        coupling_factors(-0.1, 31, 4)


def test_with_params():
    net = star(2).with_params(anisotropy=1.0, field=0.25)
    assert net.anisotropy == 1.0
    assert net.field_b == (0.25, 0.25, 0.25)
    for field in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="field_b must be finite"):
            star(2).with_params(field=field)


def test_text_round_trip():
    net = jitter(bipartite(2, 3), 0.05, seed=9).with_params(
        anisotropy=0.5, field=0.3)
    text = to_text(net)
    assert text.splitlines()[0].startswith("sites 5 lambda")
    back = from_text(text)
    assert back.n_sites == net.n_sites
    assert back.input_sites == net.input_sites
    assert back.output_sites == net.output_sites
    assert back.anisotropy == net.anisotropy
    np.testing.assert_allclose(back.coupling_array(), net.coupling_array(),
                               rtol=0, atol=0)
    assert back.field_b == net.field_b


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=small_networks(max_sites=7), anisotropy=st.floats(0.0, 1.0),
       fields=st.lists(st.floats(-3.0, 3.0), min_size=7, max_size=7),
       epsilon=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
def test_text_round_trip_on_random_networks(net, anisotropy, fields, epsilon,
                                            seed):
    # Every coupling, field, role and the anisotropy survive exactly.
    net = dataclasses.replace(jitter(net, epsilon, seed),
                              anisotropy=anisotropy,
                              field_b=tuple(fields[:net.n_sites]))
    assert from_text(to_text(net)) == net


def test_text_header_format():
    lines = to_text(star(2)).splitlines()
    assert lines[0] == "sites 3 lambda 0.0"
    assert sum(1 for ln in lines if ln.startswith("edge ")) == 2
    assert sum(1 for ln in lines if ln.startswith("field ")) == 3


HEADER = "sites 3 lambda 0.0"


@pytest.mark.parametrize("line", [
    "sites 3", "edge 0 1", "field 2", "sites 3 lambda 0.0 extra",
    "sites 3 kappa 0.0", "edge 0 1 1.0 9 9", "field 5 0.5", "field -1 0.7",
    "field 0 0.25", "# inputs a", HEADER,
    # Lines that break a rule of the network itself.
    "edge 0 5 1.0", "edge 0 2 -1.0", "edge 1 1 1.0", "edge 0 1 1.0",
    "# inputs 7", "# inputs 1", "# outputs 2", "sites 3 lambda 2.0",
    "sites 5000 lambda 0.0", "sites 0 lambda 0.0",
    # Non-finite couplings and fields: NaN compares false with every bound.
    "edge 0 2 nan", "edge 0 2 inf", "edge 0 2 -inf", "field 1 nan",
    "field 2 inf", "field 1 -inf"])
def test_from_text_rejects_malformed_line(line):
    # Every line but a bad header follows a header, an edge (0, 1), outputs
    # and a field for site 0, so that the header, "edge 0 1", "# outputs"
    # and "field 0" lines are second ones, and "# inputs 1" overlaps the
    # outputs.
    bad_header = line.startswith("sites") and line != HEADER
    text = (line if bad_header else
            f"{HEADER}\nedge 0 1 1.0\n# outputs 1\nfield 0 0.5\n{line}")
    with pytest.raises(ValueError, match=repr(line)):
        from_text(text)


def test_from_text_quotes_the_rejected_line():
    # The first line the network rejects is quoted, not the last line read,
    # and the size error keeps its type.
    for bad in ("edge 0 5 1.0", "# inputs 2"):
        text = f"{HEADER}\n# outputs 2\n{bad}\nedge 1 2 1.0\nfield 1 0.5"
        with pytest.raises(ValueError, match=repr(bad)):
            from_text(text)
    with pytest.raises(DimensionLimitError, match="5000 sites"):
        from_text("sites 5000 lambda 0.0")
    with pytest.raises(ValueError, match="missing 'sites' header"):
        from_text("# comment\n")
    with pytest.raises(ValueError, match=repr("edge 0 1 1.0")):
        from_text(f"edge 0 1 1.0\n{HEADER}")   # the header comes first
    with pytest.raises(ValueError, match="must be finite and > 0"):
        from_text(f"{HEADER}\nedge 0 1 nan")


def test_from_text_rejects_oversized_header_early():
    # The count is checked before any per-site list is built: ten million
    # sites would take 240 MB.
    header = "sites 10000000 lambda 0.0"
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimitError, match=repr(header)):
            from_text(header)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_twin_classes():
    assert twin_classes(star(3)).tolist() == [0, 1, 1, 1]
    assert twin_classes(bipartite(2, 3)).tolist() == [0, 0, 1, 1, 1]
    # Leaves are twins only under a common parent.
    assert twin_classes(tree(2, 1)).tolist() == [0, 1, 2, 3, 3, 4, 4]
    assert twin_classes(jitter(star(3), 0.1, seed=1)).tolist() == [0, 1, 2, 3]
    # A differing field or role breaks twinship; equality is exact.
    net = star(3)
    assert twin_classes(dataclasses.replace(
        net, field_b=(0.0, 0.0, 1e-15, 0.0))).tolist() == [0, 1, 2, 1]
    assert twin_classes(dataclasses.replace(
        net, output_sites=(1, 2))).tolist() == [0, 1, 1, 2]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(net=small_networks(max_sites=7), drawn=twinned_networks(),
       fields=st.lists(st.sampled_from([0.0, -0.0, 0.5]), min_size=12,
                       max_size=12))
def test_twin_classes_match_dense_oracle(net, drawn, fields):
    # On random graphs, planted twins and either with per-site fields drawn
    # from few values (-0.0 equals 0.0), the classes equal the oracle's.
    for graph in (net, drawn[0]):
        for shifted in (graph, dataclasses.replace(
                graph, field_b=tuple(fields[:graph.n_sites]))):
            assert np.array_equal(twin_classes(shifted),
                                  dense_twin_classes(shifted))


@pytest.mark.parametrize("net,n_classes", [
    (star(1000), 2), (jitter(star(1000), 0.1, 0), 1001), (tree(2, 8), 767),
], ids=["star_1000", "jittered_star_1000", "tree_2_8"])
def test_twin_classes_memory_at_1000_sites(net, n_classes):
    # O(n^2) memory: the n x n x (n + 2) comparison would take 1 GB here.
    tracemalloc.start()
    try:
        classes = twin_classes(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50e6
    assert classes.max() + 1 == n_classes
