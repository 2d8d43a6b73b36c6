"""Observational-equivalence rewrites on liftable smDGs and a bounded
equivalence search.

Four local rules rewrite an smDG without changing which selected
observational distributions it can produce: promoting a closed selected face
to a marginal face, deleting an edge whose endpoints share a marginal face
(self-loops as the special case), and deleting a selected face whose
ancestry is suitably shielded. A fifth, non-local rule delegates to a
pluggable equivalence checker for latent-projection structures obtained by
treating selection vertices as visible. The rules are sufficient, never
necessary: a failed search says nothing about inequivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .graph import (
    GraphError,
    IndependenceSystem,
    PartitionedDag,
    Role,
    SmDG,
    VertexId,
    is_acyclic,
)
from .project import canonical_graph, is_liftable, unliftable_cycle


class RulePreconditionError(GraphError):
    def __init__(self, rule: str, clause: str):
        self.rule = rule
        self.clause = clause
        super().__init__(f"{rule}: {clause}")


def _require_liftable(rule: str, g: SmDG) -> None:
    if not is_liftable(g):
        raise RulePreconditionError(rule, "the smDG is not liftable")


def _liftable_result(rule: str, out: SmDG) -> SmDG:
    """Return a rule's output, or raise when it is not liftable: every rule
    maps liftable smDGs to liftable ones, so that is a fault in the rule."""
    cycle = unliftable_cycle(out)
    if cycle is not None:
        raise GraphError(
            f"{rule} produced an smDG that is not liftable; the cycle "
            + " -> ".join(cycle)
            + " has no edge from the selected support into the marginal support"
        )
    return out


def _face(face: Iterable[VertexId]) -> frozenset[VertexId]:
    return frozenset(face)


# --- the local rules --------------------------------------------------------


def rule_add_marginal_face(g: SmDG, vs: Iterable[VertexId]) -> SmDG:
    """Promote a maximal selected face into the marginal system.

    Requires the face to contain all its parents, every member to carry some
    latent noise, and every marginal face it meets to sit inside it; the
    selection can then impose any joint behaviour on the face, so a shared
    latent cause adds nothing observable.
    """
    vs = _face(vs)
    _require_liftable("add_marginal_face", g)
    if vs not in g.selected_system.maximal_faces:
        raise RulePreconditionError(
            "add_marginal_face", f"{sorted(vs)} is not a maximal selected face"
        )
    outside_parents = frozenset().union(*(g.parents_of(v) for v in vs)) - vs
    if outside_parents:
        raise RulePreconditionError(
            "add_marginal_face",
            f"face has parents outside itself: {sorted(outside_parents)}",
        )
    uncovered = vs - g.marginal_system.support
    if uncovered:
        raise RulePreconditionError(
            "add_marginal_face",
            f"members in no marginal face: {sorted(uncovered)}",
        )
    for vm in g.marginal_system.maximal_faces:
        if vm & vs and not vm <= vs:
            raise RulePreconditionError(
                "add_marginal_face",
                f"marginal face {sorted(vm)} straddles the boundary of the face",
            )
    out = SmDG(
        visibles=g.visibles,
        edges=g.edges,
        marginal_system=g.marginal_system.with_face(vs),
        selected_system=g.selected_system,
    )
    return _liftable_result("add_marginal_face", out)


def rule_remove_special_edge(g: SmDG, a: VertexId, b: VertexId) -> SmDG:
    """Delete an edge whose endpoints live in one marginal face.

    The edge must be rendered through selection (tail in a selected face,
    head in a marginal face); the shared latent cause can then supply all of
    the dependence the edge carried.
    """
    if a == b:
        return rule_remove_self_loop(g, a)
    _require_liftable("remove_special_edge", g)
    if (a, b) not in g.edges:
        raise RulePreconditionError("remove_special_edge", f"edge {a!r} -> {b!r} is absent")
    if a not in g.selected_system.support:
        raise RulePreconditionError(
            "remove_special_edge", f"{a!r} belongs to no selected face"
        )
    if b not in g.marginal_system.support:
        raise RulePreconditionError(
            "remove_special_edge", f"{b!r} belongs to no marginal face"
        )
    if not g.marginal_system.contains_face({a, b}):
        raise RulePreconditionError(
            "remove_special_edge", f"{a!r} and {b!r} share no marginal face"
        )
    out = SmDG(
        visibles=g.visibles,
        edges=g.edges - {(a, b)},
        marginal_system=g.marginal_system,
        selected_system=g.selected_system,
    )
    return _liftable_result("remove_special_edge", out)


def rule_remove_self_loop(g: SmDG, a: VertexId) -> SmDG:
    """Delete a self-loop; liftability already forces the vertex into both a
    marginal and a selected face, so this is the a == b case above."""
    _require_liftable("remove_self_loop", g)
    if (a, a) not in g.edges:
        raise RulePreconditionError("remove_self_loop", f"no self-loop on {a!r}")
    out = SmDG(
        visibles=g.visibles,
        edges=g.edges - {(a, a)},
        marginal_system=g.marginal_system,
        selected_system=g.selected_system,
    )
    return _liftable_result("remove_self_loop", out)


def _removable_edges_within(g: SmDG, region: frozenset[VertexId]) -> set:
    out = set()
    for a, b in g.edges:
        if a in region and b in region:
            if a == b:
                if a in g.marginal_system.support and a in g.selected_system.support:
                    out.add((a, b))
            elif (
                a in g.selected_system.support
                and b in g.marginal_system.support
                and g.marginal_system.contains_face({a, b})
            ):
                out.add((a, b))
    return out


def check_selected_face_removal(
    g: SmDG, vs: frozenset[VertexId], auto_remove_special_edges: bool = True
) -> set:
    """Validate the four clauses guarding selected-face removal; returns the
    set of edges that must also be dropped when cycle-breaking via special
    edge removal was needed."""
    if vs not in g.selected_system.maximal_faces:
        raise RulePreconditionError(
            "remove_selected_face", f"{sorted(vs)} is not a maximal selected face"
        )
    region = g.ancestors_of(vs)
    sub = g.induced_subgraph(region)
    dropped: set = set()
    core = sub

    def acyclic(s):
        return is_acyclic(s.visibles, s.edges)

    if not acyclic(sub):
        if auto_remove_special_edges:
            dropped = _removable_edges_within(g, region)
            core = SmDG(
                visibles=sub.visibles,
                edges=sub.edges - dropped,
                marginal_system=sub.marginal_system,
                selected_system=sub.selected_system,
            )
        if not acyclic(core):
            raise RulePreconditionError(
                "remove_selected_face",
                "clause a: the ancestral subgraph is cyclic (removing special "
                "edges whose endpoints share a marginal face can unblock this)",
            )
    # clause b on the (possibly pruned) ancestral subgraph
    members = sorted(core.visibles)
    for i, u in enumerate(members):
        for v in members[i + 1:]:
            share_child = bool(core.children_of(u) & core.children_of(v))
            share_sel = any(
                {u, v} <= f for f in core.selected_system.maximal_faces
            )
            if not (share_child or share_sel):
                continue
            neighbours = (u, v) in core.edges or (v, u) in core.edges
            share_marg = core.marginal_system.contains_face({u, v})
            if not (neighbours or share_marg):
                raise RulePreconditionError(
                    "remove_selected_face",
                    f"clause b: {u!r} and {v!r} share a child or a selected "
                    "face but are neither neighbours nor in one marginal face",
                )
    # clauses c and d are evaluated on the whole smDG
    touching = [
        f for f in g.marginal_system.maximal_faces if f & region
    ]
    for i, f1 in enumerate(touching):
        for f2 in touching[i + 1:]:
            if f1 & f2:
                raise RulePreconditionError(
                    "remove_selected_face",
                    f"clause c: marginal faces {sorted(f1)} and {sorted(f2)} overlap",
                )
    for f in touching:
        outside = frozenset().union(*(g.parents_of(v) for v in f)) - f
        for v in f:
            if not outside <= g.parents_of(v):
                raise RulePreconditionError(
                    "remove_selected_face",
                    f"clause d: parent of face {sorted(f)} not shared by {v!r}",
                )
    return dropped


def rule_remove_selected_face(
    g: SmDG, vs: Iterable[VertexId], auto_remove_special_edges: bool = True
) -> SmDG:
    """Delete a maximal selected face whose ancestry is shielded.

    With the default flag, ancestral cycles that consist of removable special
    edges are broken first and those edge removals are folded into the
    result (each is an equivalence on its own).
    """
    vs = _face(vs)
    _require_liftable("remove_selected_face", g)
    dropped = check_selected_face_removal(g, vs, auto_remove_special_edges)
    out = SmDG(
        visibles=g.visibles,
        edges=g.edges - dropped,
        marginal_system=g.marginal_system,
        selected_system=g.selected_system.without_maximal_face(vs),
    )
    return _liftable_result("remove_selected_face", out)


# --- latent-projection lift -----------------------------------------------------


def mdag_of(g: SmDG) -> SmDG:
    """Treat the selection vertices of the rebuilt canonical graph as visible
    and project the latents: an acyclic smDG with an empty selected system
    whose marginal system contains every singleton."""
    d = canonical_graph(g).to_partitioned_dag()
    visibles = d.visible | d.selected
    edges = [(x, y) for x, y in d.edges if x in visibles and y in visibles]
    faces = [frozenset(d.children_of(m)) for m in d.marginalized]
    faces += [frozenset({v}) for v in visibles]
    return SmDG.of(visibles, edges, faces, ())


def identity_mdag_checker(m1: SmDG, m2: SmDG) -> str:
    return "equivalent" if m1 == m2 else "unknown"


def rule_mdag_lift(
    g1: SmDG, g2: SmDG, checker: Callable[[SmDG, SmDG], str] = identity_mdag_checker
) -> str:
    """Decide observational equivalence by delegating the selection-free
    structures to a pluggable checker; returns "equivalent" or "unknown".

    Only applicable when no vertex is deterministic (every vertex sits in a
    marginal face) and both graphs select on the same face system.
    """
    for name, g in (("first", g1), ("second", g2)):
        _require_liftable("mdag_lift", g)
        uncovered = g.visibles - g.marginal_system.support
        if uncovered:
            raise RulePreconditionError(
                "mdag_lift",
                f"{name} graph has deterministic vertices: {sorted(uncovered)}",
            )
    if g1.visibles != g2.visibles:
        raise RulePreconditionError("mdag_lift", "visible vertex sets differ")
    if g1.selected_system != g2.selected_system:
        raise RulePreconditionError("mdag_lift", "mismatched selected structure")
    return checker(mdag_of(g1), mdag_of(g2))


# --- proofs and search -----------------------------------------------------------


@dataclass(frozen=True)
class RewriteStep:
    rule: str  # AddMarginalFace | RemoveSpecialEdge | RemoveSelfLoop |
    #            RemoveSelectedFace | MdagLift
    params: tuple
    direction: str = "forward"  # backward steps are replayed as inverses


@dataclass(frozen=True)
class EquivalenceProof:
    start: SmDG
    end: SmDG
    steps: tuple[RewriteStep, ...]

    def replay(self) -> SmDG:
        g = self.start
        for step in self.steps:
            g = apply_step(g, step)
        return g


def _forward(g: SmDG, step: RewriteStep) -> SmDG:
    rule, params = step.rule, step.params
    if rule == "AddMarginalFace":
        vs, _absorbed = params
        return rule_add_marginal_face(g, vs)
    if rule == "RemoveSpecialEdge":
        (a, b) = params
        return rule_remove_special_edge(g, a, b)
    if rule == "RemoveSelfLoop":
        (a,) = params
        return rule_remove_self_loop(g, a)
    if rule == "RemoveSelectedFace":
        (vs,) = params
        return rule_remove_selected_face(g, vs, auto_remove_special_edges=False)
    raise GraphError(f"cannot replay rule {rule!r}")


def _inverse(g: SmDG, step: RewriteStep) -> SmDG:
    rule, params = step.rule, step.params
    if rule == "AddMarginalFace":
        vs, absorbed = params
        faces = (g.marginal_system.maximal_faces - {frozenset(vs)}) | {
            frozenset(f) for f in absorbed
        }
        out = SmDG(
            visibles=g.visibles,
            edges=g.edges,
            marginal_system=IndependenceSystem.of(g.visibles, faces),
            selected_system=g.selected_system,
        )
    elif rule in ("RemoveSpecialEdge", "RemoveSelfLoop"):
        edge = params if rule == "RemoveSpecialEdge" else (params[0], params[0])
        out = SmDG(
            visibles=g.visibles,
            edges=g.edges | {edge},
            marginal_system=g.marginal_system,
            selected_system=g.selected_system,
        )
    elif rule == "RemoveSelectedFace":
        (vs,) = params
        out = SmDG(
            visibles=g.visibles,
            edges=g.edges,
            marginal_system=g.marginal_system,
            selected_system=g.selected_system.with_face(vs),
        )
    else:
        raise GraphError(f"cannot invert rule {rule!r}")
    # the forward rule must reproduce g from the reconstruction
    if _forward(out, RewriteStep(rule=step.rule, params=step.params)) != g:
        raise GraphError(f"inverse replay of {step.rule} did not round-trip")
    return out


def apply_step(g: SmDG, step: RewriteStep) -> SmDG:
    return _forward(g, step) if step.direction == "forward" else _inverse(g, step)


def _candidate_steps(g: SmDG) -> list[tuple[RewriteStep, SmDG]]:
    out = []
    for vs in g.selected_system.sorted_faces():
        face = frozenset(vs)
        try:
            new = rule_add_marginal_face(g, face)
        except RulePreconditionError:
            pass
        else:
            absorbed = tuple(
                f for f in g.marginal_system.sorted_faces() if frozenset(f) < face
            )
            out.append((RewriteStep("AddMarginalFace", (vs, absorbed)), new))
        try:
            new = rule_remove_selected_face(g, face, auto_remove_special_edges=False)
        except RulePreconditionError:
            pass
        else:
            out.append((RewriteStep("RemoveSelectedFace", (vs,)), new))
    for a, b in sorted(g.edges):
        if a == b:
            try:
                new = rule_remove_self_loop(g, a)
            except RulePreconditionError:
                continue
            out.append((RewriteStep("RemoveSelfLoop", (a,)), new))
        else:
            try:
                new = rule_remove_special_edge(g, a, b)
            except RulePreconditionError:
                continue
            out.append((RewriteStep("RemoveSpecialEdge", (a, b)), new))
    return out


def _key(g: SmDG):
    return (
        tuple(g.sorted_edges()),
        tuple(g.marginal_system.sorted_faces()),
        tuple(g.selected_system.sorted_faces()),
    )


@dataclass(frozen=True)
class SearchResult:
    proof: Optional[EquivalenceProof]
    diagnostic: str = ""

    @property
    def found(self) -> bool:
        return self.proof is not None


def search_equivalence(
    g1: SmDG,
    g2: SmDG,
    depth: int = 5,
    checker: Callable[[SmDG, SmDG], str] = identity_mdag_checker,
) -> SearchResult:
    """Bidirectional breadth-first search for a rewrite proof of at most
    ``depth`` steps; every rule is an equivalence, so steps found from the
    target side are recorded with backward direction. Not finding a proof
    does not establish inequivalence."""
    for g in (g1, g2):
        _require_liftable("search_equivalence", g)
    if g1.visibles != g2.visibles:
        raise RulePreconditionError("search_equivalence", "visible vertex sets differ")

    sides = [
        {_key(g1): (g1, ())},
        {_key(g2): (g2, ())},
    ]
    visited = [dict(sides[0]), dict(sides[1])]
    depths = [0, 0]

    def meet() -> Optional[EquivalenceProof]:
        common = set(visited[0]) & set(visited[1])
        if not common:
            return None
        key = sorted(common)[0]
        _, fwd = visited[0][key]
        _, bwd = visited[1][key]
        steps = tuple(fwd) + tuple(
            RewriteStep(s.rule, s.params, "backward") for s in reversed(bwd)
        )
        return EquivalenceProof(start=g1, end=g2, steps=steps)

    proof = meet()
    while proof is None and depths[0] + depths[1] < depth:
        candidates = [i for i in (0, 1) if sides[i]]
        if not candidates:
            break
        side = min(candidates, key=lambda i: len(sides[i]))
        frontier = sides[side]
        new_frontier = {}
        for g, steps in frontier.values():
            for step, new in _candidate_steps(g):
                key = _key(new)
                if key in visited[side]:
                    continue
                entry = (new, steps + (step,))
                visited[side][key] = entry
                new_frontier[key] = entry
        sides[side] = new_frontier
        if new_frontier:
            # an empty expansion means the side is saturated; it consumed
            # no proof length, so it should not eat into the depth budget
            depths[side] += 1
        proof = meet()
    if proof is not None:
        return SearchResult(proof=proof)
    # last resort: the non-local lift rule on the endpoints themselves
    try:
        verdict = rule_mdag_lift(g1, g2, checker)
    except RulePreconditionError as exc:
        verdict, note = "unknown", f" ({exc.clause})"
    else:
        note = ""
    if verdict == "equivalent":
        step = RewriteStep("MdagLift", (), "forward")
        return SearchResult(proof=EquivalenceProof(start=g1, end=g2, steps=(step,)))
    return SearchResult(
        proof=None,
        diagnostic=(
            "no rewrite proof within depth "
            f"{depth}; the pluggable latent-projection equivalence hook "
            "(rule_mdag_lift, shipped with the identity baseline) returned "
            "unknown" + note
        ),
    )


# --- proof-side constructions used by the shielding analysis ---------------------


def _special_paths(d: PartitionedDag) -> list[tuple[VertexId, VertexId, VertexId, VertexId]]:
    """Quadruples (a, s, m, b) realizing rendered edges in a canonical DAG."""
    out = []
    for m in sorted(d.marginalized):
        sel = sorted(d.children_of(m) & d.selected)
        if not sel:
            continue
        (s,) = sel
        (b,) = sorted(d.children_of(m) - {s})
        (a,) = sorted(d.parents_of(s) - {m})
        out.append((a, s, m, b))
    return out


def build_tilde_dag(g: SmDG, vs: Iterable[VertexId]) -> PartitionedDag:
    """The intermediate DAG of the face-removal argument: rendered edges whose
    endpoints share no latent parent become plain edges (dropping latents
    made redundant), and the remaining rendered edges lose their latent."""
    vs = _face(vs)
    check_selected_face_removal(g, vs, auto_remove_special_edges=False)
    d = canonical_graph(g).to_partitioned_dag()
    for a, s, m, b in _special_paths(d):
        share = d.parents_of(a) & d.parents_of(b) & d.marginalized
        if not share:
            # A) replace the rendering with the plain edge
            d = d.with_edges(add={(a, b)}, remove={(m, s)})
            # B) drop the latent when the head keeps other latent noise
            if d.parents_of(b) & d.marginalized - {m}:
                d = d.with_vertices(remove={m})
        else:
            # C) sever the latent half of the rendering
            d = d.with_vertices(remove={m})
    return d


def district_block_order(d: PartitionedDag, s: VertexId) -> list[VertexId]:
    """Topological order of the ancestors of s (s excluded) in which every
    latent is immediately followed by its children."""
    region = d.ancestors_of({s}) - {s}
    latents = sorted(m for m in region & d.marginalized)
    block_of: dict[VertexId, VertexId] = {}
    for m in latents:
        for v in d.children_of(m):
            if v in region:
                block_of[v] = m
    singles = [v for v in sorted(region) if v not in block_of and v not in latents]
    blocks: dict[VertexId, list[VertexId]] = {m: [m] for m in latents}
    for v in sorted(block_of):
        blocks[block_of[v]].append(v)
    for v in singles:
        blocks[v] = [v]
    # contract blocks and topologically order them
    owner = {v: b for b, members in blocks.items() for v in members}
    block_edges = set()
    for a, b in d.edges:
        if a in owner and b in owner and owner[a] != owner[b]:
            block_edges.add((owner[a], owner[b]))
    from .graph import topological_order

    order = topological_order(blocks.keys(), block_edges)
    out: list[VertexId] = []
    for b in order:
        members = blocks[b]
        head, rest = members[0], members[1:]
        if head in latents:
            out.append(head)
            sub_edges = [(x, y) for x, y in d.edges if x in rest and y in rest]
            out.extend(topological_order(rest, sub_edges))
        else:
            out.append(head)
    return out


def shield_completion(d: PartitionedDag, ordering: Sequence[VertexId]) -> PartitionedDag:
    """Fully connect each latent's children along the ordering and point
    earlier visibles at later latents they share a child with."""
    position = {v: i for i, v in enumerate(ordering)}
    latents = [v for v in ordering if v in d.marginalized]
    add: set[tuple[VertexId, VertexId]] = set()
    for m in latents:
        kids = sorted(
            (v for v in d.children_of(m) if v in position), key=position.__getitem__
        )
        for i, u in enumerate(kids):
            for v in kids[i + 1:]:
                if (u, v) not in d.edges:
                    add.add((u, v))
    for v in ordering:
        if v in d.marginalized:
            continue
        for m in latents:
            if position[v] < position[m] and d.children_of(v) & d.children_of(m):
                add.add((v, m))
    return d.with_edges(add=add)


def unshielded_colliders(d: PartitionedDag, region: Iterable[VertexId]) -> list:
    region = set(region)
    out = []
    for z in sorted(region):
        parents = sorted(d.parents_of(z))
        for i, p1 in enumerate(parents):
            for p2 in parents[i + 1:]:
                if (p1, p2) not in d.edges and (p2, p1) not in d.edges:
                    out.append((p1, z, p2))
    return out
