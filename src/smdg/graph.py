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
from dataclasses import dataclass, field
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


def is_acyclic(vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]) -> bool:
    """True when the directed graph has no cycle; a self-loop counts as a cycle."""
    return find_cycle(vertices, edges) is None


def find_cycle(
    vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]
) -> Optional[tuple[VertexId, ...]]:
    """Return some directed cycle as a vertex tuple (first == last), or None."""
    out: dict[VertexId, list[VertexId]] = {v: [] for v in vertices}
    for a, b in edges:
        out.setdefault(a, []).append(b)
        out.setdefault(b, [])
    WHITE, GREY, BLACK = 0, 1, 2
    color = {v: WHITE for v in out}
    stack: list[VertexId] = []

    def visit(v: VertexId) -> Optional[tuple[VertexId, ...]]:
        color[v] = GREY
        stack.append(v)
        for w in out[v]:
            if color[w] == GREY:
                return tuple(stack[stack.index(w):]) + (w,)
            if color[w] == WHITE:
                found = visit(w)
                if found is not None:
                    return found
        stack.pop()
        color[v] = BLACK
        return None

    for v in sorted(out):
        if color[v] == WHITE:
            found = visit(v)
            if found is not None:
                return found
    return None


def topological_order(
    vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]
) -> list[VertexId]:
    """Deterministic (lexicographic Kahn) topological order; raises on cycles."""
    verts = sorted(set(vertices))
    indeg = {v: 0 for v in verts}
    out: dict[VertexId, list[VertexId]] = {v: [] for v in verts}
    for a, b in edges:
        out[a].append(b)
        indeg[b] += 1
    import heapq

    ready = [v for v in verts if indeg[v] == 0]
    heapq.heapify(ready)
    order: list[VertexId] = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in sorted(out[v]):
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if len(order) != len(verts):
        raise GraphError("graph contains a cycle; no topological order exists")
    return order


def _closure(
    step: Mapping[VertexId, frozenset[VertexId]], ws: Iterable[VertexId]
) -> frozenset[VertexId]:
    """Reflexive-transitive closure of a vertex set under an adjacency map
    whose keys are all the vertices of the graph."""
    todo = list(ws)
    for w in todo:
        if w not in step:
            raise UnknownVertexError(f"vertex {w!r} is not in the graph")
    seen: set[VertexId] = set()
    while todo:
        v = todo.pop()
        if v in seen:
            continue
        seen.add(v)
        todo.extend(step[v])
    return frozenset(seen)


@dataclass(frozen=True)
class PartitionedDag:
    """A DAG whose vertices carry visible / marginalized / selected roles."""

    roles: tuple[tuple[VertexId, Role], ...]
    edges: tuple[tuple[VertexId, VertexId], ...]
    _parents: Mapping[VertexId, frozenset[VertexId]] = field(
        default=None, repr=False, compare=False
    )
    _children: Mapping[VertexId, frozenset[VertexId]] = field(
        default=None, repr=False, compare=False
    )
    _role: Mapping[VertexId, Role] = field(default=None, repr=False, compare=False)
    _by_role: Mapping[Role, frozenset[VertexId]] = field(
        default=None, repr=False, compare=False
    )

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
        edge_set = {(a, b) for a, b in edges}
        for a, b in edge_set:
            if a not in roles or b not in roles:
                raise UnknownVertexError(f"edge ({a!r}, {b!r}) has an endpoint outside the graph")
            if a == b:
                raise GraphError(f"self-loop on {a!r} is not allowed in a DAG")
        edge_list = tuple(sorted(edge_set))
        cycle = find_cycle(roles, edge_list)
        if cycle is not None:
            raise GraphError("edges contain the cycle " + " -> ".join(cycle))
        return cls(
            roles=tuple(sorted(roles.items(), key=lambda kv: kv[0])),
            edges=edge_list,
        )

    def __post_init__(self) -> None:
        parents: dict[VertexId, set[VertexId]] = {v: set() for v, _ in self.roles}
        children: dict[VertexId, set[VertexId]] = {v: set() for v, _ in self.roles}
        for a, b in self.edges:
            parents[b].add(a)
            children[a].add(b)
        object.__setattr__(self, "_parents", {v: frozenset(p) for v, p in parents.items()})
        object.__setattr__(self, "_children", {v: frozenset(c) for v, c in children.items()})
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

    def _require(self, v: VertexId) -> None:
        if v not in self._parents:
            raise UnknownVertexError(f"vertex {v!r} is not in the graph")

    @property
    def visible(self) -> frozenset[VertexId]:
        return self._by_role[Role.VISIBLE]

    @property
    def marginalized(self) -> frozenset[VertexId]:
        return self._by_role[Role.MARGINALIZED]

    @property
    def selected(self) -> frozenset[VertexId]:
        return self._by_role[Role.SELECTED]

    def parents_of(self, v: VertexId) -> frozenset[VertexId]:
        self._require(v)
        return self._parents[v]

    def children_of(self, v: VertexId) -> frozenset[VertexId]:
        self._require(v)
        return self._children[v]

    def ancestors_of(self, ws: Iterable[VertexId]) -> frozenset[VertexId]:
        """Reflexive-transitive closure of parenthood over a vertex set."""
        return _closure(self._parents, ws)

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
    dominated faces so the stored faces form an antichain.
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
        return frozenset().union(*self.maximal_faces) if self.maximal_faces else frozenset()

    def with_face(self, face: Iterable[VertexId]) -> "IndependenceSystem":
        return IndependenceSystem.of(self.ground, list(self.maximal_faces) + [frozenset(face)])

    def without_maximal_face(self, face: Iterable[VertexId]) -> "IndependenceSystem":
        face = frozenset(face)
        if face not in self.maximal_faces:
            raise GraphError(f"{sorted(face)} is not a maximal face")
        return IndependenceSystem.of(self.ground, self.maximal_faces - {face})

    def sorted_faces(self) -> list[tuple[VertexId, ...]]:
        return sorted(tuple(sorted(f)) for f in self.maximal_faces)


@dataclass(frozen=True)
class SmDG:
    """Directed structure over visible vertices plus two independence systems.

    The directed structure may contain cycles and self-loops. The marginal
    system records which sets of visibles can share a latent common cause,
    the selected system which sets can share a selection child.
    """

    visibles: frozenset[VertexId]
    edges: frozenset[tuple[VertexId, VertexId]]
    marginal_system: IndependenceSystem
    selected_system: IndependenceSystem
    _parents: Mapping[VertexId, frozenset[VertexId]] = field(
        default=None, repr=False, compare=False
    )
    _children: Mapping[VertexId, frozenset[VertexId]] = field(
        default=None, repr=False, compare=False
    )

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
        edge_set = frozenset((a, b) for a, b in edges)
        for a, b in edge_set:
            if a not in vis or b not in vis:
                raise UnknownVertexError(f"edge ({a!r}, {b!r}) has an endpoint outside the graph")
        return cls(
            visibles=vis,
            edges=edge_set,
            marginal_system=IndependenceSystem.of(vis, marginal_faces),
            selected_system=IndependenceSystem.of(vis, selected_faces),
        )

    def __post_init__(self) -> None:
        if self.marginal_system.ground != self.visibles:
            raise GraphError("marginal system ground set must equal the visible vertices")
        if self.selected_system.ground != self.visibles:
            raise GraphError("selected system ground set must equal the visible vertices")
        parents: dict[VertexId, set[VertexId]] = {v: set() for v in self.visibles}
        children: dict[VertexId, set[VertexId]] = {v: set() for v in self.visibles}
        for a, b in self.edges:
            parents[b].add(a)
            children[a].add(b)
        object.__setattr__(self, "_parents", {v: frozenset(p) for v, p in parents.items()})
        object.__setattr__(self, "_children", {v: frozenset(c) for v, c in children.items()})

    def _require(self, v: VertexId) -> None:
        if v not in self.visibles:
            raise UnknownVertexError(f"vertex {v!r} is not in the graph")

    def parents_of(self, v: VertexId) -> frozenset[VertexId]:
        self._require(v)
        return self._parents[v]

    def children_of(self, v: VertexId) -> frozenset[VertexId]:
        self._require(v)
        return self._children[v]

    def ancestors_of(self, ws: Iterable[VertexId]) -> frozenset[VertexId]:
        return _closure(self._parents, ws)

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
