"""Test-only helpers."""

import itertools
import os
from pathlib import Path

import smdg
from smdg.graph import PartitionedDag, SmDG
from smdg.project import canonical_graph
from smdg.sep import D_separated, SeparationQuery, sm_separated

# Non-liftable smDGs: a two-cycle, a self-loop, and a three-cycle that the
# smallest vertex label is not on.
UNLIFTABLE = (
    SmDG.of("ab", edges=[("a", "b"), ("b", "a")]),
    SmDG.of("ab", edges=[("a", "b"), ("b", "b")]),
    SmDG.of("abcd", edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]),
)


def python_env(**extra: str) -> dict:
    """Environment for a child Python process that imports this smdg."""
    src = str(Path(smdg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def assert_cycle_witness(cycle, edges, message: str) -> None:
    """The witness is a closed walk over edges, and the message names it
    once: each vertex, then the closing one."""
    assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
    assert all(pair in set(edges) for pair in zip(cycle, cycle[1:])), cycle
    assert f"the cycle {' -> '.join(cycle)} has" in message, message


def assert_sm_matches_D(g: SmDG, query: SeparationQuery) -> None:
    """The smDG criterion matches the determinism-aware criterion run on the
    rebuilt canonical DAG with all its selected vertices conditioned."""
    d = canonical_graph(g).to_partitioned_dag()
    rhs = D_separated(d, SeparationQuery(query.x, query.y, query.z | d.selected))
    assert sm_separated(g, query) == rhs, query


def same_up_to_nonvisible_labels(d1: PartitionedDag, d2: PartitionedDag) -> bool:
    """Equality of partitioned DAGs allowing the non-visible vertices to be
    renamed (visible labels are identity and must match exactly)."""
    if d1.visible != d2.visible:
        return False
    if d1.marginalized == d2.marginalized and d1.selected == d2.selected:
        if set(d1.edges) == set(d2.edges):
            return True
    if len(d1.marginalized) != len(d2.marginalized) or len(d1.selected) != len(d2.selected):
        return False

    edges1 = set(d1.edges)

    def fingerprint(d, v):
        vis = d.visible
        return (
            d.role_of(v),
            tuple(sorted(d.parents_of(v) & vis)),
            tuple(sorted(d.children_of(v) & vis)),
            len(d.parents_of(v)),
            len(d.children_of(v)),
        )

    m1, m2 = sorted(d1.marginalized), sorted(d2.marginalized)
    s1, s2 = sorted(d1.selected), sorted(d2.selected)
    for m_perm in itertools.permutations(m2):
        if any(fingerprint(d1, a) != fingerprint(d2, b) for a, b in zip(m1, m_perm)):
            continue
        for s_perm in itertools.permutations(s2):
            if any(fingerprint(d1, a) != fingerprint(d2, b) for a, b in zip(s1, s_perm)):
                continue
            rename = {b: a for a, b in zip(m1, m_perm)}
            rename.update({b: a for a, b in zip(s1, s_perm)})
            rename.update({v: v for v in d1.visible})
            mapped = {(rename[a], rename[b]) for a, b in d2.edges}
            if mapped == edges1:
                return True
    return False
