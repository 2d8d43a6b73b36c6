"""Core graph and set-family types.

Two graph flavours are used throughout:

* :class:`PartitionedDag`, a finite DAG whose vertices are partitioned into
  visible / marginalized / selected roles, and
* :class:`SmDG`, a directed structure over visible vertices (cycles and
  self-loops allowed) together with two independence systems recording
  latent confounding and selection.

All values are immutable after construction and every operation is a pure
function, so instances can be shared and processed in parallel freely.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

VertexId = str


class GraphError(ValueError):
    """Raised when a graph value would violate a structural invariant."""


class UnknownVertexError(GraphError):
    """Raised when an operation refers to a vertex that is not in the graph."""


class Role(enum.Enum):
    VISIBLE = "visible"
    MARGINALIZED = "marginalized"
    SELECTED = "selected"

    @classmethod
    def parse(cls, text: str) -> "Role":
        try:
            return cls(text)
        except ValueError:
            raise GraphError(f"unknown role {text!r}") from None


def _check_vertex_ids(ids: Iterable[VertexId]) -> None:
    for v in ids:
        if not isinstance(v, str) or not v:
            raise GraphError(f"vertex ids must be non-empty strings, got {v!r}")


_Adjacency = dict[VertexId, list[VertexId]]


def _adjacency(
    vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]
) -> tuple[_Adjacency, _Adjacency]:
    """Parent and child lists, in edge order, keyed by exactly the given vertices."""
    parents: _Adjacency = {v: [] for v in vertices}
    children: _Adjacency = {v: [] for v in parents}
    for a, b in edges:
        try:
            parents[b].append(a)
            children[a].append(b)
        except KeyError:
            raise UnknownVertexError(
                f"edge ({a!r}, {b!r}) has an endpoint outside the graph"
            ) from None
    return parents, children


def _search_cycle(children: _Adjacency) -> Optional[tuple[VertexId, ...]]:
    """Depth-first search for a directed cycle (first == last), roots in
    sorted order and successors in edge order, so sorted edges give sorted
    successors. An explicit stack, so no recursion-depth limit."""
    on_path: dict[VertexId, bool] = {}  # False once a vertex is finished
    for root in sorted(children):
        if root in on_path:
            continue
        path = [root]
        on_path[root] = True
        todo = [iter(children[root])]
        while todo:
            for w in todo[-1]:
                if w not in on_path:
                    path.append(w)
                    on_path[w] = True
                    todo.append(iter(children[w]))
                    break
                if on_path[w]:
                    return tuple(path[path.index(w):]) + (w,)
            else:
                on_path[path.pop()] = False
                todo.pop()
    return None


def find_cycle(
    vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]
) -> Optional[tuple[VertexId, ...]]:
    """Return some directed cycle as a vertex tuple (first == last), or None.
    A self-loop counts as a cycle."""
    return _search_cycle(_adjacency(vertices, edges)[1])


def is_acyclic(vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]) -> bool:
    """True when the directed graph has no cycle; a self-loop counts as a cycle."""
    return find_cycle(vertices, edges) is None


def topological_order(
    vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]
) -> list[VertexId]:
    """Deterministic (lexicographic Kahn) topological order; raises on cycles,
    naming one."""
    parents, children = _adjacency(vertices, edges)
    indeg = {v: len(p) for v, p in parents.items()}
    ready = [v for v, n in indeg.items() if n == 0]
    heapq.heapify(ready)
    order: list[VertexId] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in children[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(indeg):
        cycle = " -> ".join(_search_cycle(children))
        raise GraphError(f"no topological order exists; the cycle {cycle} has no first vertex")
    return order


class _Digraph:
    """Vertex queries shared by the two graph types, over the parent and
    child maps that each type's ``__post_init__`` stores once."""

    _parents: Mapping[VertexId, frozenset[VertexId]]
    _children: Mapping[VertexId, frozenset[VertexId]]

    def _store_adjacency(self, parents: _Adjacency, children: _Adjacency) -> None:
        object.__setattr__(self, "_parents", {v: frozenset(p) for v, p in parents.items()})
        object.__setattr__(self, "_children", {v: frozenset(c) for v, c in children.items()})

    def _require(self, v: VertexId) -> None:
        if v not in self._parents:
            raise UnknownVertexError(f"vertex {v!r} is not in the graph")

    def parents_of(self, v: VertexId) -> frozenset[VertexId]:
        self._require(v)
        return self._parents[v]

    def children_of(self, v: VertexId) -> frozenset[VertexId]:
        self._require(v)
        return self._children[v]

    def ancestors_of(self, ws: Iterable[VertexId]) -> frozenset[VertexId]:
        """Reflexive-transitive closure of parenthood over a vertex set."""
        todo = list(ws)
        for w in todo:
            self._require(w)
        seen: set[VertexId] = set()
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(self._parents[v])
        return frozenset(seen)


@dataclass(frozen=True)
class PartitionedDag(_Digraph):
    """A DAG whose vertices carry visible / marginalized / selected roles.

    The constructor rejects a cycle, however the value is built.
    """

    roles: tuple[tuple[VertexId, Role], ...]
    edges: tuple[tuple[VertexId, VertexId], ...]

    @classmethod
    def of(
        cls,
        visible: Iterable[VertexId] = (),
        marginalized: Iterable[VertexId] = (),
        selected: Iterable[VertexId] = (),
        edges: Iterable[tuple[VertexId, VertexId]] = (),
    ) -> "PartitionedDag":
        roles: dict[VertexId, Role] = {}
        for group, role in (
            (visible, Role.VISIBLE),
            (marginalized, Role.MARGINALIZED),
            (selected, Role.SELECTED),
        ):
            for v in group:
                if v in roles:
                    raise GraphError(f"vertex {v!r} assigned more than one role")
                roles[v] = role
        return cls.from_roles(roles, edges)

    @classmethod
    def from_roles(
        cls,
        roles: Mapping[VertexId, Role],
        edges: Iterable[tuple[VertexId, VertexId]],
    ) -> "PartitionedDag":
        _check_vertex_ids(roles)
        edges = [(a, b) for a, b in edges]
        for a, b in edges:  # in input order, so the first bad edge is named
            if a not in roles or b not in roles:
                raise UnknownVertexError(f"edge ({a!r}, {b!r}) has an endpoint outside the graph")
            if a == b:
                raise GraphError(f"self-loop on {a!r} is not allowed in a DAG")
        return cls(
            roles=tuple(sorted(roles.items(), key=lambda kv: kv[0])),
            edges=tuple(sorted(set(edges))),
        )

    def __post_init__(self) -> None:
        parents, children = _adjacency((v for v, _ in self.roles), self.edges)
        cycle = _search_cycle(children)
        if cycle is not None:
            raise GraphError("edges contain the cycle " + " -> ".join(cycle))
        self._store_adjacency(parents, children)
        object.__setattr__(self, "_role", dict(self.roles))
        object.__setattr__(self, "_by_role", {
            role: frozenset(v for v, r in self.roles if r is role) for role in Role
        })

    # --- vertex queries -------------------------------------------------
    @property
    def vertices(self) -> frozenset[VertexId]:
        return frozenset(v for v, _ in self.roles)

    def role_of(self, v: VertexId) -> Role:
        self._require(v)
        return self._role[v]

    @property
    def visible(self) -> frozenset[VertexId]:
        return self._by_role[Role.VISIBLE]

    @property
    def marginalized(self) -> frozenset[VertexId]:
        return self._by_role[Role.MARGINALIZED]

    @property
    def selected(self) -> frozenset[VertexId]:
        return self._by_role[Role.SELECTED]

    def induced_subgraph(self, keep: Iterable[VertexId]) -> "PartitionedDag":
        keep = set(keep)
        for v in keep:
            self._require(v)
        roles = {v: r for v, r in self.roles if v in keep}
        edges = [(a, b) for a, b in self.edges if a in keep and b in keep]
        return PartitionedDag.from_roles(roles, edges)

    def topological_order(self) -> list[VertexId]:
        return topological_order(self.vertices, self.edges)

    # --- functional updates ----------------------------------------------
    def with_edges(self, add: Iterable[tuple[VertexId, VertexId]] = (),
                   remove: Iterable[tuple[VertexId, VertexId]] = ()) -> "PartitionedDag":
        edges = set(self.edges)
        edges.difference_update(remove)
        edges.update(add)
        return PartitionedDag.from_roles(dict(self.roles), edges)

    def with_vertices(
        self,
        add: Mapping[VertexId, Role] = {},
        remove: Iterable[VertexId] = (),
        add_edges: Iterable[tuple[VertexId, VertexId]] = (),
        remove_edges: Iterable[tuple[VertexId, VertexId]] = (),
    ) -> "PartitionedDag":
        remove = set(remove)
        roles = {v: r for v, r in self.roles if v not in remove}
        for v, r in add.items():
            if v in roles:
                raise GraphError(f"vertex {v!r} already exists")
            roles[v] = r
        edges = {(a, b) for a, b in self.edges if a not in remove and b not in remove}
        edges.difference_update(remove_edges)
        edges.update(add_edges)
        return PartitionedDag.from_roles(roles, edges)


@dataclass(frozen=True)
class IndependenceSystem:
    """A downward-closed family of vertex subsets, stored by maximal faces.

    The family always contains the empty set; the family {empty set} is
    represented by an empty maximal-face collection. Construction prunes
    dominated faces so the stored faces form an antichain, and computes the
    support and the sorted faces once.
    """

    ground: frozenset[VertexId]
    maximal_faces: frozenset[frozenset[VertexId]]

    @classmethod
    def of(
        cls, ground: Iterable[VertexId], faces: Iterable[Iterable[VertexId]] = ()
    ) -> "IndependenceSystem":
        ground_set = frozenset(ground)
        _check_vertex_ids(ground_set)
        raw = [frozenset(f) for f in faces]
        for f in raw:
            if not f <= ground_set:
                raise GraphError(f"face {sorted(f)} is not a subset of the ground set")
        maximal = {f for f in raw if f and not any(f < g for g in raw)}
        return cls(ground=ground_set, maximal_faces=frozenset(maximal))

    def __post_init__(self) -> None:
        object.__setattr__(self, "_support", frozenset().union(*self.maximal_faces))
        object.__setattr__(
            self, "_sorted_faces", tuple(sorted(tuple(sorted(f)) for f in self.maximal_faces))
        )

    def contains_face(self, face: Iterable[VertexId]) -> bool:
        face = frozenset(face)
        if not face <= self.ground:
            raise UnknownVertexError(
                f"face members {sorted(face - self.ground)} are outside the ground set"
            )
        if not face:
            return True
        return any(face <= m for m in self.maximal_faces)

    @property
    def support(self) -> frozenset[VertexId]:
        """Union of all faces."""
        return self._support

    def with_face(self, face: Iterable[VertexId]) -> "IndependenceSystem":
        return IndependenceSystem.of(self.ground, list(self.maximal_faces) + [frozenset(face)])

    def without_maximal_face(self, face: Iterable[VertexId]) -> "IndependenceSystem":
        face = frozenset(face)
        if face not in self.maximal_faces:
            raise GraphError(f"{sorted(face)} is not a maximal face")
        return IndependenceSystem.of(self.ground, self.maximal_faces - {face})

    def sorted_faces(self) -> list[tuple[VertexId, ...]]:
        return list(self._sorted_faces)


@dataclass(frozen=True)
class SmDG(_Digraph):
    """Directed structure over visible vertices plus two independence systems.

    The directed structure may contain cycles and self-loops. The marginal
    system records which sets of visibles can share a latent common cause,
    the selected system which sets can share a selection child.
    """

    visibles: frozenset[VertexId]
    edges: frozenset[tuple[VertexId, VertexId]]
    marginal_system: IndependenceSystem
    selected_system: IndependenceSystem

    @classmethod
    def of(
        cls,
        visibles: Iterable[VertexId],
        edges: Iterable[tuple[VertexId, VertexId]] = (),
        marginal_faces: Iterable[Iterable[VertexId]] = (),
        selected_faces: Iterable[Iterable[VertexId]] = (),
    ) -> "SmDG":
        vis = frozenset(visibles)
        _check_vertex_ids(vis)
        edges = [(a, b) for a, b in edges]
        for a, b in edges:  # in input order, so the first bad edge is named
            if a not in vis or b not in vis:
                raise UnknownVertexError(f"edge ({a!r}, {b!r}) has an endpoint outside the graph")
        return cls(
            visibles=vis,
            edges=frozenset(edges),
            marginal_system=IndependenceSystem.of(vis, marginal_faces),
            selected_system=IndependenceSystem.of(vis, selected_faces),
        )

    def __post_init__(self) -> None:
        if self.marginal_system.ground != self.visibles:
            raise GraphError("marginal system ground set must equal the visible vertices")
        if self.selected_system.ground != self.visibles:
            raise GraphError("selected system ground set must equal the visible vertices")
        self._store_adjacency(*_adjacency(self.visibles, self.edges))

    def induced_subgraph(self, keep: Iterable[VertexId]) -> "SmDG":
        keep = set(keep)
        for v in keep:
            self._require(v)
        return SmDG.of(
            keep,
            ((a, b) for a, b in self.edges if a in keep and b in keep),
            (f & keep for f in self.marginal_system.maximal_faces),
            (f & keep for f in self.selected_system.maximal_faces),
        )

    def sorted_edges(self) -> list[tuple[VertexId, VertexId]]:
        return sorted(self.edges)
