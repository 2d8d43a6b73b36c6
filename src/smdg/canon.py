"""Equivalence-preserving rewrites of partitioned DAGs and canonicalization.

The eight rewrites (making latents exogenous, making selection vertices
terminal, the two merges, edge splitting, special-edge introduction, and the
two redundancy removals) each preserve the full interventional behaviour of
the graph. Applying them until none applies yields a canonical DAG in which

* every marginalized vertex is parentless and every selected vertex childless,
* every marginalized vertex has only visible children, or exactly one
  selected child and one visible child (and dually for selected vertices),
* no visible edge a -> b remains when a feeds a selected vertex and b is fed
  by a marginalized one (such edges are re-expressed as a -> s <- m -> b),
* no redundant (dominated) marginalized or selected vertices remain.

A ninth normalization drops vacuous non-visible vertices (marginalized with
no children, selected with no parents); these influence nothing observable
and are never produced by the reverse construction.

Each rewrite is one rule in a single ordered table: a step name, a finder
listing the rewrite's targets, sorted, and the single-step rewrite. One
saturating loop applies a rule until its finder returns nothing;
``canonicalize`` runs it once per rule in table order, then checks that no
finder fires. ``replay_steps`` looks rewrites up by step name.

``canonicalize`` runs once per DAG instance: the report is recorded on the
instance, so ``slp`` after ``canonicalize`` reuses it. ``replay`` and
``is_canonical`` are checks and never read a record. Every rewrite edits its
input through ``with_edges`` or ``with_vertices``, which carry over the
parent's stored maps and sets, patched by the edit; a removal-only rewrite
skips the cycle search, since deleting vertices or edges from a DAG cannot
create a cycle. A rewrite's guards are existence tests that stop at the
first offender they meet; the sorted targets, whose first entry a message
names, are listed only when a guard fails. Edge presence is read off the
tail's child set, and the split finder walks each marginalized vertex's
selected children rather than every edge.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, NamedTuple, Optional

from .graph import GraphError, PartitionedDag, Role, VertexId, _recorded, _Value


class PreconditionError(GraphError):
    """A rewrite was attempted on a graph that does not satisfy its guard."""

    def __init__(self, op: str, clause: str):
        self.op = op
        self.clause = clause
        super().__init__(f"{op}: {clause}")


class ConfluenceError(GraphError):
    """A rule still has a target after one pass over the rule table."""


Target = tuple[VertexId, ...]
CanonStep = tuple[str, Target]


def _fresh(label: str, taken: Collection[VertexId]) -> VertexId:
    """The first of label, label~2, label~3, ... not in taken (never copied)."""
    if label not in taken:
        return label
    i = 2
    while f"{label}~{i}" in taken:
        i += 1
    return f"{label}~{i}"


def merged_label(kind: str, a: VertexId, b: VertexId) -> str:
    lo, hi = sorted((a, b))
    return f"{kind}⟨{lo}·{hi}⟩"


def pair_labels(a: VertexId, b: VertexId) -> tuple[str, str]:
    """Labels for the selected/marginalized pair inserted between a and b."""
    return f"s⟨{a}·{b}⟩", f"m⟨{a}·{b}⟩"


def fresh_pair(a: VertexId, b: VertexId, taken: set[VertexId]) -> tuple[VertexId, VertexId]:
    """Pair labels for a and b made fresh against taken, which records them."""
    s_label, m_label = pair_labels(a, b)
    s_label = _fresh(s_label, taken)
    taken.add(s_label)
    m_label = _fresh(m_label, taken)
    taken.add(m_label)
    return s_label, m_label


# --- the single-step rewrites -------------------------------------------

def exogenize(d: PartitionedDag, m: VertexId) -> PartitionedDag:
    """Reroute every parent of the marginalized vertex m directly to m's children."""
    if d.role_of(m) is not Role.MARGINALIZED:
        raise PreconditionError("exogenize", f"{m!r} is not marginalized")
    pa = d.parents_of(m)
    if not pa:
        return d
    ch = d.children_of(m)
    new_edges = {(l, k) for l in pa for k in ch}
    return d.with_edges(add=new_edges, remove={(l, m) for l in pa})


def terminalize(d: PartitionedDag, s: VertexId) -> PartitionedDag:
    """Delete every edge leaving the selected vertex s."""
    if d.role_of(s) is not Role.SELECTED:
        raise PreconditionError("terminalize", f"{s!r} is not selected")
    return d.with_edges(remove={(s, c) for c in d.children_of(s)})


def _exogenize_targets(d: PartitionedDag) -> list[Target]:
    return [(m,) for m in sorted(d.marginalized) if d.parents_of(m)]


def _terminalize_targets(d: PartitionedDag) -> list[Target]:
    return [(s,) for s in sorted(d.selected) if d.children_of(s)]


# A guard tests whether a target exists and stops at the first it meets; the
# sorted target list, whose first entry the message names, is built only then.
def _require_exog_term(op: str, d: PartitionedDag) -> None:
    if any(map(d.parents_of, d.marginalized)):
        m = _exogenize_targets(d)[0][0]
        raise PreconditionError(op, f"marginalized vertex {m!r} still has parents")
    if any(map(d.children_of, d.selected)):
        s = _terminalize_targets(d)[0][0]
        raise PreconditionError(op, f"selected vertex {s!r} still has children")


def merge_marginalized(d: PartitionedDag, m1: VertexId, m2: VertexId) -> PartitionedDag:
    """Fuse two marginalized vertices that share a selected child."""
    _require_exog_term("merge_marginalized", d)
    for m in (m1, m2):
        if d.role_of(m) is not Role.MARGINALIZED:
            raise PreconditionError("merge_marginalized", f"{m!r} is not marginalized")
    if m1 == m2:
        raise PreconditionError("merge_marginalized", "the two vertices must be distinct")
    if not (d.children_of(m1) & d.children_of(m2) & d.selected):
        raise PreconditionError("merge_marginalized", "no shared selected child")
    label = _fresh(merged_label("m", m1, m2), d.vertices)
    ch = d.children_of(m1) | d.children_of(m2)
    return d.with_vertices(
        add={label: Role.MARGINALIZED},
        remove={m1, m2},
        add_edges={(label, c) for c in ch},
    )


def merge_selected(d: PartitionedDag, s1: VertexId, s2: VertexId) -> PartitionedDag:
    """Fuse two selected vertices that share a marginalized parent."""
    _require_exog_term("merge_selected", d)
    for s in (s1, s2):
        if d.role_of(s) is not Role.SELECTED:
            raise PreconditionError("merge_selected", f"{s!r} is not selected")
    if s1 == s2:
        raise PreconditionError("merge_selected", "the two vertices must be distinct")
    if not (d.parents_of(s1) & d.parents_of(s2) & d.marginalized):
        raise PreconditionError("merge_selected", "no shared marginalized parent")
    label = _fresh(merged_label("s", s1, s2), d.vertices)
    pa = d.parents_of(s1) | d.parents_of(s2)
    return d.with_vertices(
        add={label: Role.SELECTED},
        remove={s1, s2},
        add_edges={(p, label) for p in pa},
    )


def _shared_pairs(groups: Iterable[frozenset[VertexId]]) -> list[Target]:
    """The sorted distinct pairs of vertices that share a group."""
    return sorted({
        pair for group in groups if len(group) > 1 for pair in combinations(sorted(group), 2)
    })


def _merge_m_pairs(d: PartitionedDag) -> list[Target]:
    return _shared_pairs(d.parents_of(s) & d.marginalized for s in d.selected)


def _merge_s_pairs(d: PartitionedDag) -> list[Target]:
    return _shared_pairs(d.children_of(m) & d.selected for m in d.marginalized)


def _require_merged(op: str, d: PartitionedDag) -> None:
    _require_exog_term(op, d)
    mar, sel = d.marginalized, d.selected
    if any(len(d.parents_of(s) & mar) > 1 for s in sel):
        raise PreconditionError(op, "mergeable marginalized vertices remain")
    if any(len(d.children_of(m) & sel) > 1 for m in mar):
        raise PreconditionError(op, "mergeable selected vertices remain")


def split_pair_label_map(
    d: PartitionedDag, m: VertexId, s: VertexId
) -> dict[tuple[VertexId, VertexId], tuple[VertexId, VertexId]]:
    """Deterministic labels (s_ab, m_ab) for each visible pairing of a split."""
    v_s = sorted(d.parents_of(s) & d.visible)
    v_m = sorted(d.children_of(m) & d.visible)
    taken = set(d.vertices)
    return {(a, b): fresh_pair(a, b, taken) for a in v_s for b in v_m}


def split_m_to_s(d: PartitionedDag, m: VertexId, s: VertexId) -> PartitionedDag:
    """Replace the edge m -> s with one selected/marginalized pair per pairing
    of a visible parent of s with a visible child of m (self-pairings included).

    Legal only when a side is not a singleton; a singleton-singleton edge is
    already in final form and must be kept.
    """
    _require_merged("split_m_to_s", d)
    if m not in d.vertices or s not in d.children_of(m):
        raise PreconditionError("split_m_to_s", f"edge {m!r} -> {s!r} is absent")
    if d.role_of(m) is not Role.MARGINALIZED or d.role_of(s) is not Role.SELECTED:
        raise PreconditionError("split_m_to_s", "edge endpoints must be marginalized -> selected")
    v_s = sorted(d.parents_of(s) & d.visible)
    v_m = sorted(d.children_of(m) & d.visible)
    if len(v_s) == 1 and len(v_m) == 1:
        raise PreconditionError(
            "split_m_to_s", "both sides are singletons; the edge is already in final form"
        )
    add_vertices: dict[VertexId, Role] = {}
    add_edges: set[tuple[VertexId, VertexId]] = set()
    for (a, b), (s_label, m_label) in split_pair_label_map(d, m, s).items():
        add_vertices[s_label] = Role.SELECTED
        add_vertices[m_label] = Role.MARGINALIZED
        add_edges.update({(a, s_label), (m_label, s_label), (m_label, b)})
    return d.with_vertices(add=add_vertices, add_edges=add_edges, remove_edges={(m, s)})


def _splittable(d: PartitionedDag) -> Iterator[Target]:
    """The marginalized -> selected edges with a side that is not a singleton,
    unsorted, walked from each marginalized vertex's selected children."""
    vis = d.visible
    for m in d.marginalized:
        children = d.children_of(m)
        single = len(children & vis) == 1
        for s in children & d.selected:
            if not single or len(d.parents_of(s) & vis) != 1:
                yield m, s


def _split_targets(d: PartitionedDag) -> list[Target]:
    return sorted(_splittable(d))


def to_special(d: PartitionedDag, a: VertexId, b: VertexId) -> PartitionedDag:
    """Replace the visible edge a -> b by the path a -> s <- m -> b."""
    _require_merged("to_special", d)
    if any(_splittable(d)):
        raise PreconditionError("to_special", "splittable marginalized -> selected edges remain")
    if a not in d.vertices or b not in d.children_of(a):
        raise PreconditionError("to_special", f"edge {a!r} -> {b!r} is absent")
    if d.role_of(a) is not Role.VISIBLE or d.role_of(b) is not Role.VISIBLE:
        raise PreconditionError("to_special", "both endpoints must be visible")
    if not (d.children_of(a) & d.selected):
        raise PreconditionError("to_special", f"{a!r} has no selected child")
    if not (d.parents_of(b) & d.marginalized):
        raise PreconditionError("to_special", f"{b!r} has no marginalized parent")
    s_label, m_label = fresh_pair(a, b, set(d.vertices))
    return d.with_vertices(
        add={s_label: Role.SELECTED, m_label: Role.MARGINALIZED},
        add_edges={(a, s_label), (m_label, s_label), (m_label, b)},
        remove_edges={(a, b)},
    )


def _special_targets(d: PartitionedDag) -> list[Target]:
    vis = d.visible
    return sorted(
        (a, b)
        for a, b in d.edges
        if a in vis
        and b in vis
        and d.children_of(a) & d.selected
        and d.parents_of(b) & d.marginalized
    )


def _dominated(
    vs: frozenset[VertexId],
    set_of: Callable[[VertexId], frozenset[VertexId]],
    back_of: Callable[[VertexId], frozenset[VertexId]],
) -> list[Target]:
    """The vertices v of vs whose set_of(v) lies strictly inside another's,
    or equals another's with a smaller label. back_of inverts set_of, so the
    vertices whose set holds v's lie in back_of of any one member. An empty
    set is dominated by any non-empty one, or by a smaller label's."""
    if len(vs) < 2:
        return []
    sets = {v: set_of(v) for v in vs}
    empty = sorted(v for v, own in sets.items() if not own)
    victims = empty if len(empty) < len(vs) else empty[1:]
    for v, own in sets.items():
        if not own:
            continue
        for w in back_of(next(iter(own))) & vs:
            if w != v and own <= sets[w] and (w < v or own != sets[w]):
                victims.append(v)
                break
    return [(v,) for v in sorted(victims)]


def _redundant_marginalized(d: PartitionedDag) -> list[Target]:
    return _dominated(d.marginalized, d.children_of, d.parents_of)


def _redundant_selected(d: PartitionedDag) -> list[Target]:
    return _dominated(d.selected, d.parents_of, d.children_of)


def _vacuous(d: PartitionedDag) -> list[Target]:
    # A childless latent is integrated out unchanged and a parentless
    # selection renormalizes away: neither has observable influence.
    out = [m for m in d.marginalized if not d.children_of(m)]
    out += [s for s in d.selected if not d.parents_of(s)]
    return [(v,) for v in sorted(out)]


def _remove_vertex(d: PartitionedDag, v: VertexId) -> PartitionedDag:
    return d.with_vertices(remove={v})


# --- the rule table ---------------------------------------------------------

class Rule(NamedTuple):
    """One rewrite: the step name recorded in reports, a finder returning
    the rewrite's targets as sorted argument tuples, and the rewrite."""

    step: str
    targets: Callable[[PartitionedDag], list[Target]]
    rewrite: Callable[..., PartitionedDag]


_TERMINALIZE = Rule("terminalize", _terminalize_targets, terminalize)
_EXOGENIZE = Rule("exogenize", _exogenize_targets, exogenize)
_REDUNDANT_M = Rule("remove_vertex", _redundant_marginalized, _remove_vertex)
_REDUNDANT_S = Rule("remove_vertex", _redundant_selected, _remove_vertex)

# The table is the schedule: canonicalize saturates each rule once, in order.
# A rule's preconditions hold once the rules before it are saturated, and no
# rule creates a target for a rule before it:
# * Each rewrite adds only parentless marginalized and childless selected
#   vertices. Past terminalize none adds an edge out of a selected vertex,
#   and only exogenize adds edges into marginalized ones.
# * After the merges, a selected vertex has at most one marginalized parent
#   and a marginalized vertex at most one selected child; merge_selected and
#   each pair that split_m_to_s and to_special add keep that true.
# * A split pair has one visible on each side; a split can leave only its m
#   or s vacuous, and a vacuous vertex is then isolated. to_special's a
#   already has a selected child and its b a marginalized parent.
# * So a dominated marginalized vertex has only visible children and a
#   dominated selected vertex only visible parents. Removing either leaves
#   the other latents' edges as they were, and can only remove special edges.
_RULES: tuple[Rule, ...] = (
    _TERMINALIZE,
    _EXOGENIZE,
    Rule("merge_marginalized", _merge_m_pairs, merge_marginalized),
    Rule("merge_selected", _merge_s_pairs, merge_selected),
    Rule("split_m_to_s", _split_targets, split_m_to_s),
    Rule("remove_vertex", _vacuous, _remove_vertex),
    Rule("to_special", _special_targets, to_special),
    _REDUNDANT_M,
    _REDUNDANT_S,
)

_REWRITES = {rule.step: rule.rewrite for rule in _RULES}


def _saturate(
    d: PartitionedDag,
    rule: Rule,
    rng: Optional[random.Random] = None,
    steps: Optional[list[CanonStep]] = None,
) -> PartitionedDag:
    """Apply the rule to its first target (a random one under rng) until its
    finder returns nothing, appending each step taken to steps."""
    while targets := rule.targets(d):
        if rng is not None:
            rng.shuffle(targets)
        if steps is not None:
            steps.append((rule.step, targets[0]))
        d = rule.rewrite(d, *targets[0])
    return d


def exog_all(d: PartitionedDag, rng: Optional[random.Random] = None) -> PartitionedDag:
    return _saturate(d, _EXOGENIZE, rng)


def term_all(d: PartitionedDag, rng: Optional[random.Random] = None) -> PartitionedDag:
    return _saturate(d, _TERMINALIZE, rng)


def rmv_red_m(d: PartitionedDag, rng: Optional[random.Random] = None) -> PartitionedDag:
    """Delete marginalized vertices whose child set is dominated by another's."""
    return _saturate(d, _REDUNDANT_M, rng)


def rmv_red_s(d: PartitionedDag, rng: Optional[random.Random] = None) -> PartitionedDag:
    """Delete selected vertices whose parent set is dominated by another's."""
    return _saturate(d, _REDUNDANT_S, rng)


# --- the full pipeline ----------------------------------------------------

class CanonReport(_Value):
    input: PartitionedDag
    output: PartitionedDag
    steps: tuple[CanonStep, ...]

    def __init__(self, input, output, steps) -> None:
        self.__dict__.update(input=input, output=output, steps=steps, _key=(input, output, steps))

    def replay(self) -> PartitionedDag:
        """Re-apply the recorded steps to the input; must reproduce the output.
        A check: every step is applied again, whatever is recorded."""
        return replay_steps(self.input, self.steps)


def replay_steps(d: PartitionedDag, steps: Iterable[CanonStep]) -> PartitionedDag:
    for name, args in steps:
        d = _REWRITES[name](d, *args)
    return d


def canonicalize(d: PartitionedDag, _rng: Optional[random.Random] = None) -> CanonReport:
    """Saturate each rule once, in table order, recording each step: one
    pass, then one check that no rule has a target left.

    A DAG is immutable, so the report is made once per instance and kept on
    it: a later call on the same instance (``slp`` after ``canonicalize``)
    returns the same report. Nothing is recorded on the output.

    The optional rng shuffles the targets of every rule; the result must not
    depend on it (tested, not assumed), so a call with an rng neither reads
    nor writes the record.
    """
    if _rng is None:
        return _recorded(d, "_canon_report", _canonicalize)
    return _canonicalize(d, _rng)


def _canonicalize(d: PartitionedDag, rng: Optional[random.Random] = None) -> CanonReport:
    steps: list[CanonStep] = []
    current = d
    for rule in _RULES:
        current = _saturate(current, rule, rng, steps)
    if not is_canonical(current):
        raise ConfluenceError("a rewrite still applies to the pipeline output")
    return CanonReport(input=d, output=current, steps=tuple(steps))


def is_canonical(d: PartitionedDag) -> bool:
    """True when no rule has a target; inspects d and builds no graph."""
    return not any(rule.targets(d) for rule in _RULES)
