"""Projection between partitioned DAGs and smDGs.

``slp`` maps a DAG down to the smDG over its visible vertices; ``canonical_graph``
rebuilds a role-annotated graph from an smDG (possibly cyclic). An smDG is
*liftable* when that rebuilt graph is acyclic, i.e. when it is the projection
of some actual DAG.

An smDG is immutable, so ``unliftable_cycle`` and ``canonical_graph`` run once
per instance and record their result on it through ``graph._recorded``, the
helper that also keeps a DAG's canonicalization report; ``is_liftable``,
``lift`` and ``sep.sm_separated`` read those records. Two records are seeded
elsewhere or kept on a shared part:

* ``enumeration.enumerate_smdgs`` fills the ``unliftable_cycle`` slot of each
  graph it yields, from one search per (edge set, marginal support, selected
  support);
* ``canonical_graph`` reads each face's vertex (label, role and edges) from a
  record on the ``IndependenceSystem`` instance, one per kind, built once per
  system; per graph it adds only the special pairs, the two singleton skips,
  one edge sort and the rebuilt graph's own cycle search.

Neither the cycle record nor the canonical graph is read to build the other,
so rebuild acyclicity stays an independent check of the cycle criterion.
"""

from __future__ import annotations

from typing import Iterable, Optional

from . import canon
from .graph import (
    GraphError,
    IndependenceSystem,
    PartitionedDag,
    Role,
    SmDG,
    VertexId,
    _recorded,
    _Value,
    find_cycle,
)


class NotLiftableError(GraphError):
    def __init__(self, cycle: tuple[VertexId, ...]):
        self.cycle = cycle
        super().__init__(
            "smDG is not liftable; the cycle "
            + " -> ".join(cycle)
            + " has no edge from the selected support into the marginal support"
        )


class NotCanonicalError(GraphError):
    pass


def face_label(kind: str, face) -> str:
    # curly wrapper distinguishes face vertices from rendered-pair vertices,
    # whose labels use angle brackets
    return f"{kind}{{{'·'.join(sorted(face))}}}"


def slp(d: PartitionedDag) -> SmDG:
    """Project a partitioned DAG onto its visible vertices.

    Non-canonical inputs are canonicalized first, reusing the report that
    ``canonicalize`` recorded on the instance if there is one. The directed
    structure is
    the induced visible subgraph plus one edge a -> b per special path
    a -> s <- m -> b, read by :func:`special_paths`, which cannot raise on a
    canonical DAG (any other shape of a latent with a selected child would
    still be split, merged, exogenized or terminalized). The marginal
    (selected) system collects the visible children (parents) of each
    marginalized (selected) vertex.
    """
    if not canon.is_canonical(d):
        d = canon.canonicalize(d).output
    vis = d.visible
    edges = {(a, b) for a, b in d.edges if a in vis and b in vis}
    edges.update((a, b) for a, _, _, b in special_paths(d))
    marginal = [d.children_of(m) & vis for m in d.marginalized]
    selected = [d.parents_of(s) & vis for s in d.selected]
    return SmDG.of(vis, edges, marginal, selected)


class CanonicalGraph(_Value):
    """Role-annotated directed graph rebuilt from an smDG.

    Unlike :class:`PartitionedDag` this may be cyclic; ``cycle`` carries a
    witness when it is. ``to_partitioned_dag`` is only available when acyclic.
    """

    roles: tuple[tuple[VertexId, Role], ...]
    edges: tuple[tuple[VertexId, VertexId], ...]
    cycle: Optional[tuple[VertexId, ...]]

    def __init__(self, roles, edges, cycle) -> None:
        self.__dict__.update(roles=roles, edges=edges, cycle=cycle, _key=(roles, edges, cycle))

    @property
    def is_acyclic(self) -> bool:
        return self.cycle is None

    def to_partitioned_dag(self) -> PartitionedDag:
        """The DAG on these roles and edges, which are sorted and checked,
        and which ``cycle`` has already searched: it is built without the
        constructor's second search, and builds its parent and child maps on
        its first vertex query."""
        if self.cycle is not None:
            raise NotLiftableError(self.cycle)
        return PartitionedDag._acyclic(self.roles, self.edges, dict(self.roles))


def canonical_graph(g: SmDG) -> CanonicalGraph:
    """Rebuild the canonical graph of an smDG.

    Edges whose tail lies in the selected support and whose head lies in the
    marginal support become special paths a -> s <- m -> b; other edges stay
    plain; each maximal face becomes a fresh non-visible vertex. Face
    vertices that would be dominated by a special-edge vertex (a singleton
    selected face at a special tail, or a singleton marginal face at a
    special head) are skipped: the redundancy-removal rewrite would delete
    them, and keeping them would make the output non-canonical. Built once
    per instance.
    """
    return _recorded(g, "_canonical_graph", _build_canonical_graph)


def _build_canonical_graph(g: SmDG) -> CanonicalGraph:
    sel_support = g.selected_system.support
    mar_support = g.marginal_system.support
    roles: dict[VertexId, Role] = dict.fromkeys(g.visibles, Role.VISIBLE)
    edges: list[tuple[VertexId, VertexId]] = []
    special_tails: set[VertexId] = set()
    special_heads: set[VertexId] = set()
    taken = set(g.visibles)
    for a, b in sorted(g.edges):
        if a in sel_support and b in mar_support:
            s_label, m_label = canon.fresh_pair(a, b, taken)
            roles[s_label] = Role.SELECTED
            roles[m_label] = Role.MARGINALIZED
            edges += ((a, s_label), (m_label, s_label), (m_label, b))
            special_tails.add(a)
            special_heads.add(b)
        else:
            edges.append((a, b))
    for system, kind, skip in ((g.marginal_system, "m", special_heads),
                               (g.selected_system, "s", special_tails)):
        for member, label, role, face_edges in _face_vertices(system, kind):
            if member not in skip:
                roles[label] = role
                edges += face_edges
    edge_list = tuple(sorted(edges))
    return CanonicalGraph(
        roles=tuple(sorted(roles.items())), edges=edge_list, cycle=find_cycle(roles, edge_list)
    )


_FaceVertex = tuple[Optional[VertexId], VertexId, Role, tuple[tuple[VertexId, VertexId], ...]]

_FACE_ROLES = {"m": Role.MARGINALIZED, "s": Role.SELECTED}


def _face_vertices(system: IndependenceSystem, kind: str) -> tuple[_FaceVertex, ...]:
    """The face vertices of the system, built once per system instance (one
    record per kind), which the graphs of a sweep share."""
    return _recorded(system, "_face_vertices_" + kind, lambda s: _label_faces(s, kind))


def _label_faces(system: IndependenceSystem, kind: str) -> tuple[_FaceVertex, ...]:
    """Each maximal face, in sorted order, as (its member if a singleton,
    label, role, edges), each label made fresh against the visibles and the
    labels before it.

    A graph may skip a singleton face, and that changes no other label.
    ``_fresh`` only meets labels of the same base: a base label ends in ``}``
    and a suffixed one in ``~k``, and special-pair labels start ``m⟨`` or
    ``s⟨``, not ``m{`` or ``s{``. A face with the base of a singleton {x}
    joins ids with ``·``, the first of them a proper prefix of x, so it sorts
    before {x} and is labelled before it.
    """
    role = _FACE_ROLES[kind]
    taken = set(system.ground)
    out = []
    for face in system.sorted_faces():
        label = canon._fresh(face_label(kind, face), taken)
        taken.add(label)
        pairs = tuple((label, v) if kind == "m" else (v, label) for v in face)
        out.append((face[0] if len(face) == 1 else None, label, role, pairs))
    return tuple(out)


# the slot unliftable_cycle records in, which enumerate_smdgs also fills
_UNLIFTABLE_CYCLE = "_unliftable_cycle"


def unliftable_cycle(g: SmDG) -> Optional[tuple[VertexId, ...]]:
    """A directed cycle (first == last, self-loops included) with no edge from
    the selected support into the marginal support, or None when there is none.
    Searched once per instance."""
    return _recorded(g, _UNLIFTABLE_CYCLE, _search_unliftable)


def _search_unliftable(g: SmDG) -> Optional[tuple[VertexId, ...]]:
    return cycle_without_special_edges(
        g.visibles, g.edges, g.selected_system.support, g.marginal_system.support
    )


def cycle_without_special_edges(
    visibles: frozenset[VertexId],
    edges: Iterable[tuple[VertexId, VertexId]],
    selected_support: frozenset[VertexId],
    marginal_support: frozenset[VertexId],
) -> Optional[tuple[VertexId, ...]]:
    """The search behind :func:`unliftable_cycle`, over the only parts of an
    smDG that liftability depends on."""
    kept = sorted(
        (a, b) for a, b in edges if not (a in selected_support and b in marginal_support)
    )
    return find_cycle(visibles, kept)


def is_liftable(g: SmDG) -> bool:
    """True when every directed cycle (self-loops included) contains an edge
    from the selected support into the marginal support."""
    return unliftable_cycle(g) is None


def lift(g: SmDG) -> PartitionedDag:
    """The canonical DAG of a liftable smDG; raises with an offending cycle."""
    return canonical_graph(g).to_partitioned_dag()


def observe_and_do_equivalent(d1: PartitionedDag, d2: PartitionedDag) -> bool:
    """Whether the two DAGs are indistinguishable under every soft intervention
    combined with joint observation of natural values (equal projections)."""
    if d1.visible != d2.visible:
        raise GraphError("graphs must share the same visible vertex set")
    return slp(d1) == slp(d2)


class CanonicalSignature(_Value):
    """Structure of a canonical DAG up to renaming of its non-visible vertices.

    The four components mirror how edges of a canonical DAG decompose:
    plain visible edges, special paths keyed by their visible endpoints, and
    the child (parent) sets of marginalized (selected) vertices that touch
    only visible vertices. The face components are multisets.
    """

    directed_edges: tuple[tuple[VertexId, VertexId], ...]
    special_pairs: tuple[tuple[VertexId, VertexId], ...]
    marginal_child_sets: tuple[tuple[VertexId, ...], ...]
    selected_parent_sets: tuple[tuple[VertexId, ...], ...]

    def __init__(self, directed_edges, special_pairs, marginal_child_sets,
                 selected_parent_sets) -> None:
        self.__dict__.update(directed_edges=directed_edges, special_pairs=special_pairs,
                             marginal_child_sets=marginal_child_sets,
                             selected_parent_sets=selected_parent_sets,
                             _key=(directed_edges, special_pairs, marginal_child_sets,
                                   selected_parent_sets))


def special_paths(d: PartitionedDag) -> list[tuple[VertexId, VertexId, VertexId, VertexId]]:
    """The special paths a -> s <- m -> b of a canonical DAG as (a, s, m, b),
    one per marginalized vertex with a selected child, in sorted order of m.
    Raises ``NotCanonicalError`` when such a vertex, or its selected child,
    is in any other shape."""
    vis = d.visible
    out = []
    for m in sorted(d.marginalized):
        ch = d.children_of(m)
        sel_children = ch & d.selected
        if not sel_children:
            continue
        if len(sel_children) != 1 or len(ch) != 2 or not ch & vis:
            raise NotCanonicalError(f"marginalized vertex {m!r} is not in canonical shape")
        (s,), (b,) = sel_children, ch - sel_children
        others = d.parents_of(s) - {m}
        if len(others) != 1 or not others <= vis:
            raise NotCanonicalError(f"selected vertex {s!r} is not in canonical shape")
        (a,) = others
        out.append((a, s, m, b))
    return out


def signature(d: PartitionedDag) -> CanonicalSignature:
    if not canon.is_canonical(d):
        raise NotCanonicalError("signature is only defined for canonical DAGs")
    vis = d.visible
    plain = sorted((a, b) for a, b in d.edges if a in vis and b in vis)
    specials = [(a, b) for a, _, _, b in special_paths(d)]
    face_m = [tuple(sorted(d.children_of(m))) for m in d.marginalized
              if not d.children_of(m) & d.selected]
    face_s = [tuple(sorted(d.parents_of(s))) for s in d.selected
              if not d.parents_of(s) & d.marginalized]
    return CanonicalSignature(
        directed_edges=tuple(plain),
        special_pairs=tuple(sorted(specials)),
        marginal_child_sets=tuple(sorted(face_m)),
        selected_parent_sets=tuple(sorted(face_s)),
    )
