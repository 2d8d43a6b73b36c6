"""Separation criteria: classical d-separation, its determinism-aware variant,
and the smDG analogue.

Visible vertices are deterministic functions of their parents, so
conditioning on a set Z also fixes every visible vertex whose parents are all
fixed; ``functional_closure`` computes that least fixed point. The
determinism-aware criterion runs d-separation against the closed set. The
smDG criterion walks paths built from four edge kinds: directed edges, a
bidirected connection for vertices sharing a marginal face, and an
undirected connection for vertices sharing a selected face.

Queries whose endpoints are themselves functionally determined by Z get the
distinct ``DETERMINED`` verdict: conditional independence against a
point-mass variable is degenerate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graph import GraphError, PartitionedDag, SmDG, VertexId
from .project import NotLiftableError, unliftable_cycle


class Verdict(enum.Enum):
    SEPARATED = "separated"
    CONNECTED = "connected"
    DETERMINED = "determined"


@dataclass(frozen=True)
class SeparationQuery:
    x: frozenset[VertexId]
    y: frozenset[VertexId]
    z: frozenset[VertexId]

    @classmethod
    def of(cls, x: Iterable[VertexId], y: Iterable[VertexId], z: Iterable[VertexId] = ()):
        q = cls(frozenset(x), frozenset(y), frozenset(z))
        if not q.x or not q.y:
            raise GraphError("query sets x and y must be non-empty")
        if q.x & q.y or q.x & q.z or q.y & q.z:
            raise GraphError("query sets must be pairwise disjoint")
        return q

    def vertices(self) -> frozenset[VertexId]:
        return self.x | self.y | self.z


def functional_closure(g: PartitionedDag | SmDG, z: Iterable[VertexId]) -> frozenset[VertexId]:
    """Vertices fixed by conditioning on z: the least set containing z that is
    closed under adding visible vertices all of whose parents are in it (for
    an smDG, only vertices outside every marginal face, i.e. with no latent
    noise source). Terminates on cyclic structures too."""
    closure = set(z)
    if isinstance(g, SmDG):
        candidates = sorted(g.visibles - g.marginal_system.support)
    else:
        candidates = sorted(g.visible)
    for v in closure:
        g.parents_of(v)  # raises on unknown vertices
    changed = True
    while changed:
        changed = False
        for v in candidates:
            if v not in closure and g.parents_of(v) <= closure:
                closure.add(v)
                changed = True
    return frozenset(closure)


# Incidence item: (neighbour, arrowhead at this vertex, arrowhead at neighbour).
_Items = Mapping[VertexId, list[tuple[VertexId, bool, bool]]]


def _dag_items(d: PartitionedDag) -> _Items:
    items: dict[VertexId, list[tuple[VertexId, bool, bool]]] = {v: [] for v in d.vertices}
    for a, b in d.edges:
        items[a].append((b, False, True))
        items[b].append((a, True, False))
    return items


def _smdg_items(g: SmDG) -> _Items:
    items: dict[VertexId, list[tuple[VertexId, bool, bool]]] = {v: [] for v in g.visibles}
    for a, b in g.edges:
        if a == b:
            continue  # paths never traverse a self-loop; its separation
            # content is captured by face membership
        items[a].append((b, False, True))
        items[b].append((a, True, False))
    seen_pairs: set[tuple[VertexId, VertexId, str]] = set()
    for face in g.marginal_system.maximal_faces:
        members = sorted(face)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if (u, v, "m") not in seen_pairs:
                    seen_pairs.add((u, v, "m"))
                    items[u].append((v, True, True))
                    items[v].append((u, True, True))
    for face in g.selected_system.maximal_faces:
        members = sorted(face)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                if (u, v, "s") not in seen_pairs:
                    seen_pairs.add((u, v, "s"))
                    items[u].append((v, False, False))
                    items[v].append((u, False, False))
    return items


def _has_active_trail(
    items: _Items,
    x: frozenset[VertexId],
    y: frozenset[VertexId],
    blocking: frozenset[VertexId],
    activated: frozenset[VertexId],
) -> bool:
    """Reachability over (vertex, incoming-arrowhead) states.

    A transit through an internal vertex is legal when it forms an activated
    collider (arrowheads on both sides) or an unblocked non-collider.
    """
    seen: set[tuple[VertexId, bool]] = set()
    stack: list[tuple[VertexId, bool]] = []
    for src in x:
        for w, _, head_w in items[src]:
            if w in y:
                return True
            state = (w, head_w)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    while stack:
        v, head_in = stack.pop()
        for w, head_v, head_w in items[v]:
            if head_in and head_v:
                if v not in activated:
                    continue
            elif v in blocking:
                continue
            if w in y:
                return True
            state = (w, head_w)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    return False


def d_separated(d: PartitionedDag, query: SeparationQuery) -> bool:
    """Classical d-separation: colliders are active when they have a
    descendant in the conditioning set (are among its ancestors), everything
    else blocks on it."""
    for v in query.vertices():
        d.parents_of(v)
    activated = d.ancestors_of(query.z)
    return not _has_active_trail(_dag_items(d), query.x, query.y, query.z, activated)


def D_separated(d: PartitionedDag, query: SeparationQuery) -> Verdict:
    """d-separation with the conditioning set replaced by its functional
    closure; endpoint sets inside the closure yield ``DETERMINED``."""
    for v in query.vertices():
        d.parents_of(v)
    closure = functional_closure(d, query.z)
    if (query.x | query.y) & closure:
        return Verdict.DETERMINED
    activated = d.ancestors_of(closure)
    connected = _has_active_trail(_dag_items(d), query.x, query.y, closure, activated)
    return Verdict.CONNECTED if connected else Verdict.SEPARATED


def sm_separated(g: SmDG, query: SeparationQuery) -> Verdict:
    """Path blocking in an smDG.

    Non-colliders block when functionally determined by the conditioning
    set; colliders are active when some directed-structure descendant lies in
    the conditioning set or in a selected face.
    """
    cycle = unliftable_cycle(g)
    if cycle is not None:
        raise NotLiftableError(cycle)
    for v in query.vertices():
        g.parents_of(v)
    closure = functional_closure(g, query.z)
    if (query.x | query.y) & closure:
        return Verdict.DETERMINED
    activated = g.ancestors_of(query.z | g.selected_system.support)
    connected = _has_active_trail(_smdg_items(g), query.x, query.y, closure, activated)
    return Verdict.CONNECTED if connected else Verdict.SEPARATED

