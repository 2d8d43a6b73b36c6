"""Core graph and set-family types.

Two graph flavours are used throughout:

* :class:`PartitionedDag`, a finite DAG whose vertices are partitioned into
  visible / marginalized / selected roles, and
* :class:`SmDG`, a directed structure over visible vertices (cycles and
  self-loops allowed) together with two independence systems recording
  latent confounding and selection.

All values are immutable after construction and every operation is a pure
function, so instances can be shared and processed in parallel freely. A
value derived from an instance alone may be recorded on it the first time it
is asked for (:func:`_recorded`); a record is never keyed by value.

Every value class of the library derives from :class:`_Value`, a frozen-value
base with a frozen dataclass's semantics that imports nothing and generates no
code per class: a class's fields are its annotated names, its own ``__init__``
writes them and the tuple of their values and runs its checks, and the base
gives ``==``, ``hash`` and ``repr`` over that tuple and refuses to assign or
delete an attribute.

A :class:`PartitionedDag` built directly (the constructor, ``of``,
``from_roles``) is sorted, indexed and searched for a cycle in full. An edit
(``with_edges``, ``with_vertices``, ``induced_subgraph``) costs about its own
change instead: it carries over its parent's parent and child maps, role
map, vertex set and role sets, patching only the entries that the removed
and added vertices and edges touch; it splices those vertices and edges
into the parent's sorted ``roles`` and ``edges`` by bisection, with no
sort; and it searches for a cycle only from the heads of the added edges
whose tails have parents: deleting vertices or edges from a DAG cannot
create a cycle, so any cycle of the edited graph runs through an added edge
and the parent of its tail. The DAG that ``project.lift`` returns is built
from roles and edges that are already sorted, checked and searched, so it
neither searches again nor indexes before its first vertex query. A vertex
query is one dictionary lookup; an unknown vertex is looked into only on a
miss.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_left, insort
from itertools import product
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Optional, TypeVar

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


_T = TypeVar("_T")


class _Value:
    """Base of the library's immutable values, with a frozen dataclass's
    semantics. A subclass's fields (``_fields``) are its annotated names, in
    order. Its ``__init__`` writes them into ``self.__dict__``, and with them
    ``_key``, the tuple of their values in that order. Two values are equal
    when they are of the same class and their keys are equal, the hash is
    that of the key, and the repr is ``Name(field=value, ...)``. Assigning or
    deleting any attribute raises ``AttributeError``; records
    (:func:`_recorded`) are written past that guard with
    ``object.__setattr__``."""

    _fields: tuple[str, ...] = ()
    _key: tuple

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _recorded(obj, name: str, build: Callable[..., _T]) -> _T:
    """build(obj), run the first time it is asked for and kept on the
    immutable instance beside its adjacency; never keyed by value."""
    record = obj.__dict__
    if name not in record:
        object.__setattr__(obj, name, build(obj))
    return record[name]


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


def _search_cycle(
    children: Mapping[VertexId, Iterable[VertexId]],
    roots: Optional[Iterable[VertexId]] = None,
) -> Optional[tuple[VertexId, ...]]:
    """Depth-first search for a directed cycle (first == last) among the
    vertices reachable from roots (by default all, in sorted order), with
    successors in the order children lists them, so sorted edges give sorted
    successors. An explicit stack, so no recursion-depth limit."""
    on_path: dict[VertexId, bool] = {}  # False once a vertex is finished
    for root in sorted(children) if roots is None else roots:
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
    A self-loop counts as a cycle. Builds the child lists only."""
    children: _Adjacency = {v: [] for v in vertices}
    for a, b in edges:
        if a not in children or b not in children:
            raise UnknownVertexError(f"edge ({a!r}, {b!r}) has an endpoint outside the graph")
        children[a].append(b)
    return _search_cycle(children)


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


def _unknown(v: VertexId) -> UnknownVertexError:
    return UnknownVertexError(f"vertex {v!r} is not in the graph")


class _AdjacencyOnFirstQuery:
    """Stands for ``_parents`` or ``_children`` until the first read of
    either, which builds and stores both on the instance; the stored maps
    then shadow this descriptor, so later reads are plain attribute reads."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        obj._store_adjacency(*_adjacency(obj._vertex_ids(), obj.edges))
        return obj.__dict__[self.name]


class _Digraph:
    """Vertex queries shared by the two graph types, over the parent and
    child maps that each type stores once: a DAG built by its constructor
    in ``__init__``, any other graph on its first vertex query
    (:class:`_AdjacencyOnFirstQuery`)."""

    _parents: Mapping[VertexId, frozenset[VertexId]] = _AdjacencyOnFirstQuery()
    _children: Mapping[VertexId, frozenset[VertexId]] = _AdjacencyOnFirstQuery()

    def _vertex_ids(self) -> Iterable[VertexId]:
        raise NotImplementedError

    def _store_adjacency(self, parents: _Adjacency, children: _Adjacency) -> None:
        object.__setattr__(self, "_parents", {v: frozenset(p) for v, p in parents.items()})
        object.__setattr__(self, "_children", {v: frozenset(c) for v, c in children.items()})

    def require_vertices(self, vs: Iterable[VertexId]) -> None:
        """Raise on the sorted-first of vs that is not a vertex, whatever its order."""
        unknown = [v for v in vs if v not in self._parents]
        if unknown:
            raise _unknown(min(unknown))

    def parents_of(self, v: VertexId) -> frozenset[VertexId]:
        try:
            return self._parents[v]
        except KeyError:
            raise _unknown(v) from None

    def children_of(self, v: VertexId) -> frozenset[VertexId]:
        try:
            return self._children[v]
        except KeyError:
            raise _unknown(v) from None

    def ancestors_of(self, ws: Iterable[VertexId]) -> frozenset[VertexId]:
        """Reflexive-transitive closure of parenthood over a vertex set."""
        todo = list(ws)
        self.require_vertices(todo)
        seen: set[VertexId] = set()
        while todo:
            v = todo.pop()
            if v in seen:
                continue
            seen.add(v)
            todo.extend(self._parents[v])
        return frozenset(seen)


_ROLE_SETS = (("_visible", Role.VISIBLE), ("_marginalized", Role.MARGINALIZED),
              ("_selected", Role.SELECTED))


class PartitionedDag(_Value, _Digraph):
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
        return cls(roles=roles.items(), edges=edges)

    def __init__(self, roles, edges) -> None:
        # kept sorted whatever the order given: an edit splices into them
        roles = tuple(sorted(roles, key=itemgetter(0)))
        edges = tuple(sorted(set(edges)))
        self.__dict__.update(roles=roles, edges=edges, _key=(roles, edges))
        parents, children = _adjacency((v for v, _ in roles), edges)
        cycle = _search_cycle(children)
        if cycle is not None:
            raise GraphError("edges contain the cycle " + " -> ".join(cycle))
        self._store_adjacency(parents, children)
        self._store_roles(dict(self.roles))

    @classmethod
    def _acyclic(cls, roles: tuple[tuple[VertexId, Role], ...],
                 edges: tuple[tuple[VertexId, VertexId], ...],
                 role: dict[VertexId, Role]) -> "PartitionedDag":
        """The DAG on roles and edges that are already sorted, checked and
        known to be acyclic, built without the constructor's search; its
        parent and child maps are built on the first vertex query."""
        d = object.__new__(cls)
        d.__dict__.update(roles=roles, edges=edges, _key=(roles, edges))
        d._store_roles(role)
        return d

    def _vertex_ids(self) -> Iterable[VertexId]:
        return (v for v, _ in self.roles)

    def _store_roles(self, role: dict[VertexId, Role]) -> None:
        object.__setattr__(self, "_role", role)
        object.__setattr__(self, "_vertices", frozenset(role))
        for name, r in _ROLE_SETS:
            object.__setattr__(self, name, frozenset(v for v, x in self.roles if x is r))

    # --- vertex queries -------------------------------------------------
    @property
    def vertices(self) -> frozenset[VertexId]:
        return self._vertices

    def role_of(self, v: VertexId) -> Role:
        try:
            return self._role[v]
        except KeyError:
            raise _unknown(v) from None

    @property
    def visible(self) -> frozenset[VertexId]:
        return self._visible

    @property
    def marginalized(self) -> frozenset[VertexId]:
        return self._marginalized

    @property
    def selected(self) -> frozenset[VertexId]:
        return self._selected

    def induced_subgraph(self, keep: Iterable[VertexId]) -> "PartitionedDag":
        keep = set(keep)
        self.require_vertices(keep)
        return self.with_vertices(remove=[v for v in self._role if v not in keep])

    def topological_order(self) -> list[VertexId]:
        return topological_order(self.vertices, self.edges)

    # --- functional updates ----------------------------------------------
    def with_edges(self, add: Iterable[tuple[VertexId, VertexId]] = (),
                   remove: Iterable[tuple[VertexId, VertexId]] = ()) -> "PartitionedDag":
        return self.with_vertices(add_edges=add, remove_edges=remove)

    def with_vertices(
        self,
        add: Mapping[VertexId, Role] = {},
        remove: Iterable[VertexId] = (),
        add_edges: Iterable[tuple[VertexId, VertexId]] = (),
        remove_edges: Iterable[tuple[VertexId, VertexId]] = (),
    ) -> "PartitionedDag":
        """This graph with the given vertices and edges removed, then the
        given ones added: the one edit path behind every rewrite.

        The result equals ``from_roles`` on the edited roles and edges, but
        is derived from this graph's stored values, each patched by what the
        edit removes and adds: the dropped edges are read off the removed
        vertices' maps, edge presence off the child sets, and the sorted
        tuples take a bisection per change. Only the new vertex ids and the
        added edges are checked, and only the heads of the added edges whose
        tails have parents are searched for a cycle. That is enough: this
        graph is acyclic, and deleting vertices or edges from a DAG cannot
        create a cycle, so a cycle of the result must use an added edge
        (a, b), pass through b and enter a from a parent. A removal-only edit
        has no heads to search from, so it searches nothing.
        """
        role = self._role
        remove = {v for v in remove if v in role} if remove else ()
        for v in add:
            if v in role and v not in remove:
                raise GraphError(f"vertex {v!r} already exists")
        roles, edges = self.roles, self.edges
        if remove or add:
            _check_vertex_ids(add)
            role = dict(role)
            for v in remove:
                del role[v]
            role.update(add)
            # (v,) sorts just before (v, role), so no Role is compared
            roles = _spliced(roles, zip(remove), add.items())
        parents, children = self._parents, self._children
        dropped = set()
        for v in remove:
            dropped.update(product(parents[v], (v,)), product((v,), children[v]))
        for a, b in remove_edges:
            if b in children.get(a, ()):
                dropped.add((a, b))
        added = set()
        for a, b in add_edges:  # in input order, so the first bad edge is named
            if a not in role or b not in role:
                raise UnknownVertexError(f"edge ({a!r}, {b!r}) has an endpoint outside the graph")
            if a == b:
                raise GraphError(f"self-loop on {a!r} is not allowed in a DAG")
            if (a, b) in dropped or b not in children.get(a, ()):
                added.add((a, b))
        if dropped or added:
            edges = _spliced(edges, dropped, added)
        if remove or add or dropped or added:
            parents, children = _patched(parents, children, remove, add, dropped, added)
        # a cycle runs through an added edge (a, b), and so through a parent of a
        if added and _search_cycle(children, [b for a, b in added if parents[a]]) is not None:
            # the full build names the cycle that the constructor names, and raises
            return PartitionedDag(roles=roles, edges=edges)
        edited = object.__new__(PartitionedDag)
        record = edited.__dict__
        record.update(roles=roles, edges=edges, _key=(roles, edges), _role=role,
                      _parents=parents, _children=children,
                      _vertices=_patched_set(self._vertices, remove, add))
        for name, r in _ROLE_SETS:
            record[name] = _patched_set(self.__dict__[name], remove,
                                        [v for v, x in add.items() if x is r] if add else ())
        return edited


def _spliced(items: tuple, remove: Iterable, add: Iterable) -> tuple:
    """The sorted tuple items without the entry that each of remove sorts
    first at, and with add inserted in order: a bisection per change."""
    out = list(items)
    for x in remove:
        del out[bisect_left(out, x)]
    for x in add:
        insort(out, x)
    return tuple(out)


def _patched(
    parents: Mapping[VertexId, frozenset[VertexId]],
    children: Mapping[VertexId, frozenset[VertexId]],
    remove: set[VertexId],
    add: Iterable[VertexId],
    dropped: Iterable[tuple[VertexId, VertexId]],
    added: Iterable[tuple[VertexId, VertexId]],
) -> tuple[dict[VertexId, frozenset[VertexId]], dict[VertexId, frozenset[VertexId]]]:
    """The parent and child maps without the removed vertices and with empty
    sets for the added ones, then each edge of dropped taken out and each
    edge of added put in; sets no edge touches are shared with the input."""
    parents, children = dict(parents), dict(children)
    for v in remove:
        del parents[v], children[v]
    for v in add:
        parents[v] = children[v] = frozenset()
    for a, b in dropped:
        if a in children:
            children[a] = children[a] - {b}
        if b in parents:
            parents[b] = parents[b] - {a}
    for a, b in added:
        children[a] = children[a] | {b}
        parents[b] = parents[b] | {a}
    return parents, children


def _patched_set(s: frozenset[VertexId], remove: set[VertexId],
                 add: Iterable[VertexId]) -> frozenset[VertexId]:
    """s without remove and with add; s itself when neither changes it."""
    if remove and not s.isdisjoint(remove):
        s = s - remove
    return s.union(add) if add else s


class IndependenceSystem(_Value):
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

    def __init__(self, ground, maximal_faces) -> None:
        self.__dict__.update(
            ground=ground,
            maximal_faces=maximal_faces,
            _key=(ground, maximal_faces),
            _support=frozenset().union(*maximal_faces),
            _sorted_faces=tuple(sorted(tuple(sorted(f)) for f in maximal_faces)),
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


class SmDG(_Value, _Digraph):
    """Directed structure over visible vertices plus two independence systems.

    The directed structure may contain cycles and self-loops. The marginal
    system records which sets of visibles can share a latent common cause,
    the selected system which sets can share a selection child. The parent
    and child maps are built on the first vertex query: most graphs of a
    sweep are only asked whether they lift.
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

    def __init__(self, visibles, edges, marginal_system, selected_system) -> None:
        key = (visibles, edges, marginal_system, selected_system)
        self.__dict__.update(visibles=visibles, edges=edges, marginal_system=marginal_system,
                             selected_system=selected_system, _key=key)
        if marginal_system.ground != visibles:
            raise GraphError("marginal system ground set must equal the visible vertices")
        if selected_system.ground != visibles:
            raise GraphError("selected system ground set must equal the visible vertices")
        for a, b in edges:
            if a not in visibles or b not in visibles:
                raise UnknownVertexError(f"edge ({a!r}, {b!r}) has an endpoint outside the graph")

    def _vertex_ids(self) -> Iterable[VertexId]:
        return self.visibles

    def induced_subgraph(self, keep: Iterable[VertexId]) -> "SmDG":
        keep = set(keep)
        self.require_vertices(keep)
        return SmDG.of(
            keep,
            ((a, b) for a, b in self.edges if a in keep and b in keep),
            (f & keep for f in self.marginal_system.maximal_faces),
            (f & keep for f in self.selected_system.maximal_faces),
        )

    def sorted_edges(self) -> list[tuple[VertexId, VertexId]]:
        return sorted(self.edges)
