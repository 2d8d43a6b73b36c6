"""Deterministic enumerators for small graphs.

These drive the exhaustive property sweeps: all smDGs over a few visible
vertices (complete up to three visibles; bounded and union-representative at
four, where liftability depends on the face systems only through their
unions), and all canonical DAGs within a non-visible budget, as the lifts of
the liftable smDGs.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional

from . import project
from .graph import (
    GraphError, IndependenceSystem, PartitionedDag, SmDG, VertexId, _Value, is_acyclic,
)

VISIBLE_NAMES = ("a", "b", "c", "d", "e", "f")

DEFAULT_VISIBLE_CAP = 4


class EnumerationError(GraphError):
    pass


def _check_counts(n_visible: int, **counts: int) -> None:
    if not 0 <= n_visible <= DEFAULT_VISIBLE_CAP:
        raise EnumerationError(f"n_visible={n_visible} is outside 0..{DEFAULT_VISIBLE_CAP}")
    for name, n in counts.items():
        if n < 0:
            raise EnumerationError(f"{name}={n} is negative")


class SmdgBounds(_Value):
    """Edge-count bound for :func:`enumerate_smdgs`; the face systems follow
    from the visible count (every antichain up to three visibles, one
    singleton family per support at four)."""

    max_edges: Optional[int]

    def __init__(self, max_edges: Optional[int] = None) -> None:
        record = self.__dict__  # two item writes: cheaper than update() for one field
        record["max_edges"] = max_edges
        record["_key"] = (max_edges,)

    @classmethod
    def default_for(cls, n_visible: int) -> "SmdgBounds":
        return cls() if n_visible <= 3 else cls(max_edges=4)


def antichains(ground: tuple[VertexId, ...]) -> list[tuple]:
    """All families of pairwise-incomparable non-empty subsets, smallest
    families first, in a fixed order."""
    subsets = []
    for k in range(1, len(ground) + 1):
        subsets.extend(frozenset(c) for c in combinations(ground, k))

    out: list[tuple] = []

    def extend(start: int, family: list[frozenset]) -> None:
        out.append(tuple(family))
        for i in range(start, len(subsets)):
            cand = subsets[i]
            if any(cand <= f or f <= cand for f in family):
                continue
            family.append(cand)
            extend(i + 1, family)
            family.pop()

    extend(0, [])
    return sorted(out, key=lambda fam: (len(fam), sorted(sorted(f) for f in fam)))


def _edge_universe(verts: tuple[VertexId, ...]) -> list[tuple[VertexId, VertexId]]:
    return sorted((a, b) for a in verts for b in verts)


def enumerate_smdgs(
    n_visible: int,
    bounds: Optional[SmdgBounds] = None,
    liftable_only: bool = False,
) -> Iterator[SmDG]:
    """Every smDG over the first n_visible names within the bounds, edge
    sets in order of size, then each (marginal, selected) face family pair.

    The graphs share one visible set, one ``IndependenceSystem`` per face
    family and one edge set per edge combination, so the face-vertex records
    that ``project.canonical_graph`` keeps on a system are built once per
    system. ``project.cycle_without_special_edges`` runs once per (edge set,
    marginal support, selected support) key; its result is recorded on each
    yielded graph in the slot ``project.unliftable_cycle`` reads, and
    ``liftable_only`` drops the graphs where it found a cycle.
    """
    bounds = bounds or SmdgBounds.default_for(n_visible)
    verts = VISIBLE_NAMES[:n_visible]
    universe = _edge_universe(verts)
    max_edges = len(universe) if bounds.max_edges is None else bounds.max_edges
    _check_counts(n_visible, max_edges=max_edges)
    if n_visible <= 3:
        families = antichains(verts)
    else:
        # representative systems with each possible support
        families = [
            tuple(frozenset({v}) for v in support)
            for k in range(0, n_visible + 1)
            for support in combinations(verts, k)
        ]
    # Values are immutable, so the graphs share one visible set, one system
    # per face family and one edge set per edge combination.
    vis = frozenset(verts)
    systems = [IndependenceSystem.of(vis, faces) for faces in families]

    for n_e in range(0, max_edges + 1):
        for edges in combinations(universe, n_e):
            edge_set = frozenset(edges)
            # liftability depends only on the edges and the two supports
            cycles: dict[tuple[frozenset, frozenset], Optional[tuple[VertexId, ...]]] = {}
            for l_sys in systems:
                for s_sys in systems:
                    key = (l_sys.support, s_sys.support)
                    if key not in cycles:
                        cycles[key] = project.cycle_without_special_edges(
                            vis, edge_set, s_sys.support, l_sys.support
                        )
                    cycle = cycles[key]
                    if liftable_only and cycle is not None:
                        continue
                    g = SmDG(visibles=vis, edges=edge_set, marginal_system=l_sys,
                             selected_system=s_sys)
                    object.__setattr__(g, project._UNLIFTABLE_CYCLE, cycle)
                    yield g


def enumerate_partitioned_dags(
    n_visible: int,
    n_marginalized: int,
    n_selected: int,
    exogenous_terminal_only: bool = True,
) -> Iterator[PartitionedDag]:
    """All partitioned DAGs over fixed labelled vertex pools; by default the
    latents are parentless and the selections childless (the shape every
    graph canonicalizes into), which keeps the space tractable."""
    _check_counts(n_visible, n_marginalized=n_marginalized, n_selected=n_selected)
    vis = VISIBLE_NAMES[:n_visible]
    mar = tuple(f"m{i+1}" for i in range(n_marginalized))
    sel = tuple(f"s{i+1}" for i in range(n_selected))
    universe: list[tuple[VertexId, VertexId]] = []
    universe += [(m, v) for m in mar for v in vis]
    universe += [(m, s) for m in mar for s in sel]
    universe += [(a, b) for a in vis for b in vis if a != b]
    universe += [(v, s) for v in vis for s in sel]
    if not exogenous_terminal_only:
        universe += [(v, m) for v in vis for m in mar]
        universe += [(s, x) for s in sel for x in (*vis, *mar)]
        universe += [(m1, m2) for m1 in mar for m2 in mar if m1 != m2]
        universe += [(s1, s2) for s1 in sel for s2 in sel if s1 != s2]
    universe = sorted(set(universe))
    all_verts = (*vis, *mar, *sel)
    for mask in range(1 << len(universe)):
        edges = [universe[i] for i in range(len(universe)) if mask >> i & 1]
        if not is_acyclic(all_verts, edges):
            continue
        yield PartitionedDag.of(visible=vis, marginalized=mar, selected=sel, edges=edges)


def enumerate_canonical_dags(
    max_visible: int = 3, max_nonvisible: int = 3
) -> Iterator[PartitionedDag]:
    """Every canonical DAG with at most ``max_visible`` visibles (0 to 3)
    and at most ``max_nonvisible`` non-visibles: the lift of each liftable
    smDG that ``enumerate_smdgs`` yields, for each visible count in turn.
    A graph is lifted only when the non-visibles its lift renders fit the
    budget: a latent and a selection for each edge from the selected support
    into the marginal support, and a vertex for each other maximal face (the
    singleton faces of those edges' heads and tails are rendered by them)."""
    _check_counts(max_visible, max_nonvisible=max_nonvisible)
    if max_visible > 3:
        # four visibles enumerate only singleton face families
        raise EnumerationError(f"max_visible={max_visible} is outside 0..3")
    for n_visible in range(max_visible + 1):
        for g in enumerate_smdgs(n_visible, liftable_only=True):
            m_faces, s_faces = g.marginal_system.maximal_faces, g.selected_system.maximal_faces
            m_support, s_support = g.marginal_system.support, g.selected_system.support
            special = [(a, b) for a, b in g.edges if a in s_support and b in m_support]
            rendered = (2 * len(special)
                        + len(m_faces - {frozenset((b,)) for _, b in special})
                        + len(s_faces - {frozenset((a,)) for a, _ in special}))
            if rendered > max_nonvisible:
                continue
            d = project.lift(g)
            if len(d.marginalized) + len(d.selected) <= max_nonvisible:
                yield d
