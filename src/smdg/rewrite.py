"""Observational-equivalence rewrites on liftable smDGs and a bounded
equivalence search.

Four local rules rewrite an smDG without changing which selected
observational distributions it can produce: promoting a closed selected face
to a marginal face, deleting an edge whose endpoints share a marginal face
(self-loops as the special case), and deleting a selected face whose
ancestry is suitably shielded. Each local rule is one entry of a single
table, ``_RULES``, keyed by its proof-step name: the rule's error label, its
precondition check, its forward rewrite and its inverse. The public rule
functions, proof replay in both directions and the search's candidate steps
all apply a rule through one helper, ``_step`` (check, rewrite, then the
liftability guard on the result). A fifth, non-local rule delegates to a
pluggable equivalence checker for latent-projection structures obtained by
treating selection vertices as visible. The rules are sufficient, never
necessary: a failed search says nothing about inequivalence.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .graph import (
    GraphError,
    IndependenceSystem,
    PartitionedDag,
    SmDG,
    VertexId,
    _Value,
    is_acyclic,
    topological_order,
)
from .project import canonical_graph, is_liftable, special_paths, unliftable_cycle


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


# --- the local rules ------------------------------------------------------------
#
# A check takes the rule's error label, the graph and the step parameters. It
# raises RulePreconditionError naming the first failed precondition, or
# returns the edges the rewrite deletes.


def _check_add_marginal_face(label: str, g: SmDG, vs, _absorbed=()) -> frozenset:
    vs = frozenset(vs)
    if vs not in g.selected_system.maximal_faces:
        raise RulePreconditionError(label, f"{sorted(vs)} is not a maximal selected face")
    outside_parents = frozenset().union(*(g.parents_of(v) for v in vs)) - vs
    if outside_parents:
        raise RulePreconditionError(
            label, f"face has parents outside itself: {sorted(outside_parents)}"
        )
    uncovered = vs - g.marginal_system.support
    if uncovered:
        raise RulePreconditionError(label, f"members in no marginal face: {sorted(uncovered)}")
    for vm in g.marginal_system.sorted_faces():
        if vs.intersection(vm) and not vs.issuperset(vm):
            raise RulePreconditionError(
                label, f"marginal face {list(vm)} straddles the boundary of the face"
            )
    return frozenset()


def _special_edge_clause(g: SmDG, a: VertexId, b: VertexId) -> Optional[str]:
    """Why a -> b is not a removable special edge (present, tail in a selected
    face, both endpoints in one marginal face), or None when it is. On a
    liftable smDG every self-loop is one: its vertex lies in both supports."""
    if (a, b) not in g.edges:
        return f"no self-loop on {a!r}" if a == b else f"edge {a!r} -> {b!r} is absent"
    if a not in g.selected_system.support:
        return f"{a!r} belongs to no selected face"
    if b not in g.marginal_system.support:
        return f"{b!r} belongs to no marginal face"
    if not g.marginal_system.contains_face({a, b}):
        return f"{a!r} and {b!r} share no marginal face"
    return None


def _check_special_edge(label: str, g: SmDG, a: VertexId, b: VertexId) -> frozenset:
    clause = _special_edge_clause(g, a, b)
    if clause is not None:
        raise RulePreconditionError(label, clause)
    return frozenset({(a, b)})


def check_selected_face_removal(
    g: SmDG, vs: frozenset[VertexId], auto_remove_special_edges: bool = True
) -> set:
    """Validate the four clauses guarding selected-face removal; returns the
    set of edges that must also be dropped when cycle-breaking via special
    edge removal was needed."""
    vs = frozenset(vs)
    if vs not in g.selected_system.maximal_faces:
        raise RulePreconditionError(
            "remove_selected_face", f"{sorted(vs)} is not a maximal selected face"
        )
    region = g.ancestors_of(vs)
    core = g.induced_subgraph(region)
    dropped: set = set()
    if not is_acyclic(core.visibles, core.edges):
        if auto_remove_special_edges:
            dropped = {e for e in core.edges if _special_edge_clause(g, *e) is None}
            core = _drop_edges(core, dropped)
        if not is_acyclic(core.visibles, core.edges):
            raise RulePreconditionError(
                "remove_selected_face",
                "clause a: the ancestral subgraph is cyclic (removing special "
                "edges whose endpoints share a marginal face can unblock this)",
            )
    # clause b on the (possibly pruned) ancestral subgraph
    for u, v in combinations(sorted(core.visibles), 2):
        share_child = bool(core.children_of(u) & core.children_of(v))
        share_sel = any({u, v} <= f for f in core.selected_system.maximal_faces)
        if not (share_child or share_sel):
            continue
        neighbours = (u, v) in core.edges or (v, u) in core.edges
        if not (neighbours or core.marginal_system.contains_face({u, v})):
            raise RulePreconditionError(
                "remove_selected_face",
                f"clause b: {u!r} and {v!r} share a child or a selected "
                "face but are neither neighbours nor in one marginal face",
            )
    # clauses c and d are evaluated on the whole smDG
    touching = [
        frozenset(f) for f in g.marginal_system.sorted_faces() if region.intersection(f)
    ]
    for f1, f2 in combinations(touching, 2):
        if f1 & f2:
            raise RulePreconditionError(
                "remove_selected_face",
                f"clause c: marginal faces {sorted(f1)} and {sorted(f2)} overlap",
            )
    for f in touching:
        outside = frozenset().union(*(g.parents_of(v) for v in f)) - f
        for v in sorted(f):
            if not outside <= g.parents_of(v):
                raise RulePreconditionError(
                    "remove_selected_face",
                    f"clause d: parent of face {sorted(f)} not shared by {v!r}",
                )
    return dropped


class _Rule(_Value):
    label: str  # names the rule in precondition and liftability errors
    check: Callable[..., Iterable]  # (label, g, *params) -> edges the rewrite deletes
    forward: Callable[..., SmDG]  # (g, deleted edges, *params) -> rewritten g
    inverse: Callable[..., SmDG]  # (g, *params) -> the graph before the step

    def __init__(self, label, check, forward, inverse) -> None:
        self.__dict__.update(label=label, check=check, forward=forward, inverse=inverse,
                             _key=(label, check, forward, inverse))


# Each edit below builds its SmDG through the constructor, whose checks
# refuse an edge outside the visibles or a system over other ground sets.

def _drop_edges(g: SmDG, dropped, *_params) -> SmDG:
    return SmDG(g.visibles, g.edges - dropped, g.marginal_system, g.selected_system)


def _unpromote_face(g: SmDG, vs, absorbed) -> SmDG:
    faces = (g.marginal_system.maximal_faces - {frozenset(vs)}) | {
        frozenset(f) for f in absorbed
    }
    return SmDG(g.visibles, g.edges, IndependenceSystem.of(g.visibles, faces),
                g.selected_system)


# Keyed by the RewriteStep rule name. Step parameters: AddMarginalFace
# (face, the marginal faces it absorbs), RemoveSpecialEdge (a, b),
# RemoveSelfLoop (a,), RemoveSelectedFace (face,); a public call may append
# the auto_remove_special_edges flag to the last.
_RULES: dict[str, _Rule] = {
    "AddMarginalFace": _Rule(
        "add_marginal_face",
        _check_add_marginal_face,
        lambda g, _, vs, *_absorbed: SmDG(
            g.visibles, g.edges, g.marginal_system.with_face(vs), g.selected_system
        ),
        _unpromote_face,
    ),
    "RemoveSpecialEdge": _Rule(
        "remove_special_edge",
        _check_special_edge,
        _drop_edges,
        lambda g, a, b: SmDG(
            g.visibles, g.edges | {(a, b)}, g.marginal_system, g.selected_system
        ),
    ),
    "RemoveSelfLoop": _Rule(
        "remove_self_loop",
        lambda label, g, a: _check_special_edge(label, g, a, a),
        _drop_edges,
        lambda g, a: SmDG(
            g.visibles, g.edges | {(a, a)}, g.marginal_system, g.selected_system
        ),
    ),
    "RemoveSelectedFace": _Rule(
        "remove_selected_face",
        lambda _, g, vs, auto=False: check_selected_face_removal(g, frozenset(vs), auto),
        lambda g, dropped, vs, *_auto: SmDG(
            g.visibles,
            g.edges - dropped,
            g.marginal_system,
            g.selected_system.without_maximal_face(vs),
        ),
        lambda g, vs: SmDG(
            g.visibles, g.edges, g.marginal_system, g.selected_system.with_face(vs)
        ),
    ),
}


def _step(g: SmDG, name: str, params: tuple) -> SmDG:
    """Check one rule on g and rewrite; the result must be liftable."""
    rule = _RULES[name]
    dropped = rule.check(rule.label, g, *params)
    return _liftable_result(rule.label, rule.forward(g, dropped, *params))


def _apply(g: SmDG, name: str, params: tuple) -> SmDG:
    """``_step`` on a caller's graph, which must itself be liftable."""
    _require_liftable(_RULES[name].label, g)
    return _step(g, name, params)


def rule_add_marginal_face(g: SmDG, vs: Iterable[VertexId]) -> SmDG:
    """Promote a maximal selected face into the marginal system.

    Requires the face to contain all its parents, every member to carry some
    latent noise, and every marginal face it meets to sit inside it; the
    selection can then impose any joint behaviour on the face, so a shared
    latent cause adds nothing observable.
    """
    return _apply(g, "AddMarginalFace", (vs,))


def rule_remove_special_edge(g: SmDG, a: VertexId, b: VertexId) -> SmDG:
    """Delete an edge whose endpoints live in one marginal face.

    The edge must be rendered through selection (tail in a selected face,
    head in a marginal face); the shared latent cause can then supply all of
    the dependence the edge carried.
    """
    if a == b:
        return rule_remove_self_loop(g, a)
    return _apply(g, "RemoveSpecialEdge", (a, b))


def rule_remove_self_loop(g: SmDG, a: VertexId) -> SmDG:
    """Delete a self-loop; liftability already forces the vertex into both a
    marginal and a selected face, so this is the a == b case above."""
    return _apply(g, "RemoveSelfLoop", (a,))


def rule_remove_selected_face(
    g: SmDG, vs: Iterable[VertexId], auto_remove_special_edges: bool = True
) -> SmDG:
    """Delete a maximal selected face whose ancestry is shielded.

    With the default flag, ancestral cycles that consist of removable special
    edges are broken first and those edge removals are folded into the
    result (each is an equivalence on its own).
    """
    return _apply(g, "RemoveSelectedFace", (vs, auto_remove_special_edges))


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


class RewriteStep(_Value):
    rule: str  # AddMarginalFace | RemoveSpecialEdge | RemoveSelfLoop |
    #            RemoveSelectedFace | MdagLift
    params: tuple
    direction: str  # backward steps are replayed as inverses

    def __init__(self, rule, params, direction="forward") -> None:
        self.__dict__.update(rule=rule, params=params, direction=direction,
                             _key=(rule, params, direction))


class EquivalenceProof(_Value):
    start: SmDG
    end: SmDG
    steps: tuple[RewriteStep, ...]

    def __init__(self, start, end, steps) -> None:
        self.__dict__.update(start=start, end=end, steps=steps, _key=(start, end, steps))

    def replay(self) -> SmDG:
        g = self.start
        for step in self.steps:
            g = apply_step(g, step)
        return g


def apply_step(g: SmDG, step: RewriteStep) -> SmDG:
    """Replay one proof step. A backward step rebuilds the graph before the
    step with the rule's inverse, and the forward rule must take that graph
    back to g."""
    if step.rule not in _RULES:
        raise GraphError(f"cannot replay rule {step.rule!r}")
    if step.direction == "forward":
        return _apply(g, step.rule, step.params)
    out = _RULES[step.rule].inverse(g, *step.params)
    if _apply(out, step.rule, step.params) != g:
        raise GraphError(f"inverse replay of {step.rule} did not round-trip")
    return out


def _candidate_steps(g: SmDG) -> list[tuple[RewriteStep, SmDG]]:
    """Every rule step that applies to a liftable g, with its result: per
    sorted selected face, face promotion and then face removal; then per
    sorted edge, its removal."""
    targets = []
    for vs in g.selected_system.sorted_faces():
        face = frozenset(vs)
        absorbed = tuple(f for f in g.marginal_system.sorted_faces() if frozenset(f) < face)
        targets += [("AddMarginalFace", (vs, absorbed)), ("RemoveSelectedFace", (vs,))]
    for a, b in sorted(g.edges):
        targets.append(("RemoveSelfLoop", (a,)) if a == b else ("RemoveSpecialEdge", (a, b)))
    out = []
    for name, params in targets:
        try:
            out.append((RewriteStep(name, params), _step(g, name, params)))
        except RulePreconditionError:
            pass
    return out


def _key(g: SmDG):
    return (
        tuple(g.sorted_edges()),
        tuple(g.marginal_system.sorted_faces()),
        tuple(g.selected_system.sorted_faces()),
    )


class SearchResult(_Value):
    proof: Optional[EquivalenceProof]
    diagnostic: str

    def __init__(self, proof, diagnostic="") -> None:
        self.__dict__.update(proof=proof, diagnostic=diagnostic, _key=(proof, diagnostic))

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
    if depth < 0:
        raise RulePreconditionError("search_equivalence", f"depth={depth} is negative")
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


def build_tilde_dag(g: SmDG, vs: Iterable[VertexId]) -> PartitionedDag:
    """The intermediate DAG of the face-removal argument: rendered edges whose
    endpoints share no latent parent become plain edges (dropping latents
    made redundant), and the remaining rendered edges lose their latent."""
    vs = frozenset(vs)
    check_selected_face_removal(g, vs, auto_remove_special_edges=False)
    d = canonical_graph(g).to_partitioned_dag()
    for a, s, m, b in special_paths(d):
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
