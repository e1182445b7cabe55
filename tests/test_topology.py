import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from spinclone import (NetworkTooLargeError, bipartite, from_edge_list,
                       from_text, jitter, star, to_text, tree)
from spinclone.topology import coupling_factors, twin_classes
from strategies import small_networks


def test_star_two_clones():
    net = star(2, 1.0)
    assert net.n_sites == 3
    assert {(i, j) for i, j, _ in net.edges} == {(0, 1), (0, 2)}
    assert net.input_sites == (0,)
    assert net.output_sites == (1, 2)


def test_star_counts():
    net = star(7, 1.0)
    assert net.n_sites == 8
    assert len(net.edges) == 7


def test_star_single_clone_is_two_site_transfer():
    net = star(1, 1.0)
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
    if k ** (j + 2) - 1 > 61 * (k - 1):
        pytest.skip("exceeds site budget")
    assert len(tree(k, j).output_sites) == k ** (j + 1)


def test_tree_zero_levels_matches_star():
    assert {e[:2] for e in tree(2, 0).edges} == {e[:2] for e in star(2).edges}


def test_tree_overflow():
    for error in (NetworkTooLargeError, ValueError):
        with pytest.raises(error):
            tree(3, 3)


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


def test_jitter_zero_is_identity():
    net = star(3)
    assert jitter(net, 0.0, 5) == net


def test_jitter_range_and_structure():
    net = star(2, 2.0)
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
    net = tree(2, 1, coupling=1.5)
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
    lines = to_text(star(2, 1.0)).splitlines()
    assert lines[0] == "sites 3 lambda 0.0"
    assert sum(1 for ln in lines if ln.startswith("edge ")) == 2
    assert sum(1 for ln in lines if ln.startswith("field ")) == 3


HEADER = "sites 3 lambda 0.0"


@pytest.mark.parametrize("line", [
    "sites 3", "edge 0 1", "field 2", "sites 3 lambda 0.0 extra",
    "sites 3 kappa 0.0", "edge 0 1 1.0 9 9", "field 5 0.5", "field -1 0.7",
    "field 0 0.25", "# inputs a", HEADER])
def test_from_text_rejects_malformed_line(line):
    # Every line but a malformed header follows a header and a field for
    # site 0, so that the header itself and "field 0" are second ones.
    bad_header = line.startswith("sites") and line != HEADER
    text = line if bad_header else f"{HEADER}\nfield 0 0.5\n{line}"
    with pytest.raises(ValueError, match=repr(line)):
        from_text(text)


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
