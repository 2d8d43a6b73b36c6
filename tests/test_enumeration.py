from itertools import zip_longest

import pytest

from smdg.canon import is_canonical
from smdg.enumeration import (
    DEFAULT_VISIBLE_CAP,
    EnumerationError,
    SmdgBounds,
    antichains,
    enumerate_canonical_dags,
    enumerate_partitioned_dags,
    enumerate_smdgs,
)
from smdg.graph import GraphError, SmDG
from smdg.io import dumps
from smdg.project import is_liftable, signature, unliftable_cycle

from helpers import canonical_dags_digest


def test_antichain_count_three_elements():
    # families of pairwise-incomparable non-empty subsets of a 3-set
    assert len(antichains(("a", "b", "c"))) == 19


def test_single_visible_smdg_counts():
    all_graphs = list(enumerate_smdgs(1))
    assert len(all_graphs) == 8  # 2 edge sets x 2 systems x 2 systems
    liftable = list(enumerate_smdgs(1, liftable_only=True))
    # the self-loop survives only when the vertex sits in both supports
    assert len(liftable) == 5


def test_zero_visible_smdg_is_single_empty_graph():
    graphs = list(enumerate_smdgs(0))
    assert len(graphs) == 1
    assert graphs[0].visibles == frozenset()


def test_visible_cap_enforced():
    with pytest.raises(EnumerationError):
        next(enumerate_smdgs(5))


@pytest.mark.parametrize("make", [
    lambda: enumerate_smdgs(-1),
    lambda: enumerate_partitioned_dags(-1, 1, 1),
    lambda: enumerate_partitioned_dags(DEFAULT_VISIBLE_CAP + 1, 0, 0),
    lambda: enumerate_partitioned_dags(2, -1, 1),
    lambda: enumerate_partitioned_dags(2, 1, -1),
    lambda: enumerate_smdgs(2, SmdgBounds(max_edges=-1)),
    lambda: enumerate_canonical_dags(4, 1),
    lambda: enumerate_canonical_dags(-1, 1),
    lambda: enumerate_canonical_dags(2, -1),
], ids=["smdgs_negative", "dags_negative", "dags_above_cap", "dags_negative_latents",
        "dags_negative_selections", "smdgs_negative_max_edges", "canonical_four_visibles",
        "canonical_negative_visibles", "canonical_negative_budget"])
def test_counts_outside_bounds_rejected(make):
    with pytest.raises(EnumerationError):
        next(make())
    assert issubclass(EnumerationError, GraphError)


@pytest.mark.parametrize("n, bounds", [(2, None), (3, SmdgBounds(max_edges=2))],
                         ids=["two_visibles", "three_visibles_two_edges"])
def test_shared_parts_give_the_values_of_fresh_graphs(n, bounds):
    graphs = list(enumerate_smdgs(n, bounds))
    for g in graphs:
        fresh = SmDG.of(sorted(g.visibles), sorted(g.edges),
                        g.marginal_system.sorted_faces(), g.selected_system.sorted_faces())
        assert g == fresh and hash(g) == hash(fresh) and dumps(g) == dumps(fresh), g
    # one system per face family, shared by every graph that has it
    families = len(antichains(tuple(sorted(graphs[0].visibles))))
    assert len({id(g.marginal_system) for g in graphs}) == families
    assert len({id(g.selected_system) for g in graphs}) == families


@pytest.mark.parametrize("n, bounds", [
    (0, None), (1, None), (2, None), (3, SmdgBounds(max_edges=3)), (4, SmdgBounds(max_edges=1)),
], ids=["0", "1", "2", "3_three_edges", "4_one_edge"])
def test_liftable_only_is_the_filtered_stream(n, bounds):
    filtered = (g for g in enumerate_smdgs(n, bounds) if is_liftable(g))
    kept = enumerate_smdgs(n, bounds, liftable_only=True)
    for g, h in zip_longest(kept, filtered):
        assert g == h


@pytest.mark.parametrize("n, bounds", [
    (0, None), (1, None), (2, None), (3, SmdgBounds(max_edges=3)),
], ids=["0", "1", "2", "3_three_edges"])
def test_each_graph_carries_its_own_unliftable_cycle(n, bounds):
    """The enumeration searches once per (edges, marginal support, selected
    support) and records the result on every graph of that key; each record
    must be the search a graph built anew runs for itself."""
    for g in enumerate_smdgs(n, bounds):
        recorded = vars(g)["_unliftable_cycle"]
        fresh = SmDG.of(g.visibles, g.edges, g.marginal_system.maximal_faces,
                        g.selected_system.maximal_faces)
        assert "_unliftable_cycle" not in vars(fresh)
        assert recorded == unliftable_cycle(fresh) == unliftable_cycle(g), g


def test_enumeration_is_deterministic():
    first = [g for g, _ in zip(enumerate_smdgs(2), range(200))]
    second = [g for g, _ in zip(enumerate_smdgs(2), range(200))]
    assert first == second
    dags1 = list(enumerate_partitioned_dags(2, 1, 1))
    dags2 = list(enumerate_partitioned_dags(2, 1, 1))
    assert dags1 == dags2 and len(dags1) > 0


def test_enumerated_canonical_dags_are_canonical():
    count = 0
    for d in enumerate_canonical_dags(max_visible=2, max_nonvisible=2):
        assert is_canonical(d), d
        count += 1
    assert count > 10


# The count and digest (helpers.canonical_dags_digest) of the canonical DAGs
# within each budget, taken from the constructive enumerator that the lifts
# of the liftable smDGs replaced; (3, 3) is pinned by acceptance criterion 3.
CANONICAL_DAGS = {
    (1, 5): (6, "e55a6dc8a107fb268686302cfcc9ebc434e68891fa0bdf5152b0805d825524bf"),
    (2, 2): (62, "14bacd4a318f0a366ed7c63b7ebd0c6ef1a3ae67b156cca0cb3ff3b04fb7b7d5"),
    (2, 4): (131, "f5fb84687c818e385efbe86a03732884b83bca206ae57dc94f3be5a0d5184a4f"),
    (3, 2): (1689, "fc9f9e09d35d1ba22917e8cb5f3b877d1453411ca8b7373d935b4a5ba1c5be03"),
}


@pytest.mark.parametrize("budget", sorted(CANONICAL_DAGS), ids=str)
def test_canonical_dags_are_the_pinned_sets(budget):
    assert canonical_dags_digest(enumerate_canonical_dags(*budget)) == CANONICAL_DAGS[budget]


def test_constructive_enumeration_matches_filter_based():
    """Cross-check the canonical-DAG enumerator against brute enumeration
    plus the fixed-point test, compared through signatures."""
    lifted = {
        signature(d)
        for d in enumerate_canonical_dags(max_visible=2, max_nonvisible=2)
        if len(d.visible) == 2
    }
    brute = set()
    for n_m in range(0, 3):
        for n_s in range(0, 3 - n_m):
            for d in enumerate_partitioned_dags(2, n_m, n_s):
                if is_canonical(d):
                    brute.add(signature(d))
    assert lifted == brute


def test_singleton_union_bounds_for_four_visibles():
    gs = [g for g, _ in zip(enumerate_smdgs(4), range(50))]
    assert all(len(g.visibles) == 4 for g in gs)
    for g in gs:
        for system in (g.marginal_system, g.selected_system):
            assert all(len(f) == 1 for f in system.maximal_faces), g
