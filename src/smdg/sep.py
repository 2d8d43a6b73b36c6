"""Separation criteria: classical d-separation, its determinism-aware variant,
and the smDG analogue.

Visible vertices are deterministic functions of their parents, so
conditioning on a set Z also fixes every visible vertex whose parents are all
fixed; ``functional_closure`` computes that least fixed point. The
determinism-aware criterion runs d-separation against the closed set. The
smDG criterion walks paths built from four edge kinds: directed edges, a
bidirected connection for vertices sharing a marginal face, and an
undirected connection for vertices sharing a selected face. Trails of all
three criteria walk the graph's stored parent and child maps, plus maximal
face co-membership for an smDG; nothing else is built per query.

Queries whose endpoints are themselves functionally determined by Z get the
distinct ``DETERMINED`` verdict: conditional independence against a
point-mass variable is degenerate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    g.require_vertices(closure)
    if isinstance(g, SmDG):
        candidates = g.visibles - g.marginal_system.support
    else:
        candidates = g.visible
    # A candidate can only join once its last parent has: seed with those
    # whose parents lie in z, then re-check the children of each joiner.
    # Every vertex read below is z's or the graph's own, so the stored maps
    # are read directly.
    parents, children = g._parents, g._children
    todo = [v for v in candidates - closure if parents[v] <= closure]
    closure.update(todo)
    while todo:
        for w in children[todo.pop()]:
            if w in candidates and w not in closure and parents[w] <= closure:
                closure.add(w)
                todo.append(w)
    return frozenset(closure)


def _steps(g: PartitionedDag | SmDG, v: VertexId) -> Iterator[tuple[VertexId, bool, bool]]:
    """Each step of a trail out of v, as (neighbour, arrowhead at v, arrowhead
    at the neighbour): directed edges from the stored parent and child maps,
    then for an smDG a bidirected step to each co-member of a maximal marginal
    face and an undirected step to each co-member of a maximal selected face.
    Trails never traverse a self-loop; its separation content is captured by
    face membership. v is a checked query vertex or a neighbour read from
    the graph, so the maps are read without a check."""
    for w in g._parents[v]:
        if w != v:
            yield w, True, False
    for w in g._children[v]:
        if w != v:
            yield w, False, True
    if isinstance(g, SmDG):
        for system, head in ((g.marginal_system, True), (g.selected_system, False)):
            for face in system.maximal_faces:
                if v in face:
                    for w in face:
                        if w != v:
                            yield w, head, head


def _has_active_trail(
    g: PartitionedDag | SmDG,
    x: frozenset[VertexId],
    y: frozenset[VertexId],
    blocking: frozenset[VertexId],
    activated: frozenset[VertexId],
) -> bool:
    """Reachability over (vertex, incoming-arrowhead) states.

    A transit through an internal vertex is legal when it forms a collider
    (arrowheads on both sides) in activated or an unblocked non-collider. A
    collider with a descendant in activated is passed by walking down to that
    descendant and back, so activated need not hold ancestors.
    """
    seen: set[tuple[VertexId, bool]] = set()
    stack: list[tuple[VertexId, bool]] = []
    for src in x:
        for w, _, head_w in _steps(g, src):
            if w in y:
                return True
            state = (w, head_w)
            if state not in seen:
                seen.add(state)
                stack.append(state)
    while stack:
        v, head_in = stack.pop()
        for w, head_v, head_w in _steps(g, v):
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


def _verdict(
    g: PartitionedDag | SmDG,
    query: SeparationQuery,
    blocking: frozenset[VertexId],
    activators: frozenset[VertexId],
) -> Verdict:
    """The body the three criteria share: non-colliders in blocking block,
    endpoints in it give ``DETERMINED``, and colliders among the ancestors of
    activators are active. The trail search is handed the activators
    themselves; the comment below says why their ancestors come for free."""
    g.require_vertices(query.vertices())
    if (query.x | query.y) & blocking:
        return Verdict.DETERMINED
    # Write A for activators and C for blocking; C is z or its functional
    # closure, and A holds z. A collider in An(A) - A outside C is still
    # passed: take a shortest directed path from it down to A. No inner
    # vertex is in C: the first one would not be in z (the path is
    # shortest), so it joined the closure with all its parents in C, yet
    # its parent on the path is outside C. So the walk goes down, bounces at
    # the activated vertex and comes back up through non-colliders, as in
    # Shachter's Bayes-ball. A collider in C - A is never entered with an
    # arrowhead: it joined the closure, so it lies in no marginal face (no
    # bidirected step) and all its parents are in C, which block.
    connected = _has_active_trail(g, query.x, query.y, blocking, activators)
    return Verdict.CONNECTED if connected else Verdict.SEPARATED


def d_separated(d: PartitionedDag, query: SeparationQuery) -> bool:
    """Classical d-separation: colliders are active when they have a
    descendant in the conditioning set (are among its ancestors), everything
    else blocks on it."""
    return _verdict(d, query, query.z, query.z) is Verdict.SEPARATED


def D_separated(d: PartitionedDag, query: SeparationQuery) -> Verdict:
    """d-separation with the conditioning set replaced by its functional
    closure; endpoint sets inside the closure yield ``DETERMINED``."""
    closure = functional_closure(d, query.z)
    return _verdict(d, query, closure, closure)


def sm_separated(g: SmDG, query: SeparationQuery) -> Verdict:
    """Path blocking in an smDG.

    Non-colliders block when functionally determined by the conditioning
    set; colliders are active when some directed-structure descendant lies in
    the conditioning set or in a selected face.
    """
    cycle = unliftable_cycle(g)
    if cycle is not None:
        raise NotLiftableError(cycle)
    closure = functional_closure(g, query.z)
    return _verdict(g, query, closure, query.z | g.selected_system.support)
