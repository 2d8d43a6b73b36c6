import itertools
import subprocess
import sys

import pytest

from smdg.enumeration import SmdgBounds, enumerate_smdgs
from smdg.graph import GraphError, SmDG
from smdg.project import canonical_graph
from smdg import rewrite
from smdg.rewrite import (
    RewriteStep,
    RulePreconditionError,
    apply_step,
    check_selected_face_removal,
    mdag_of,
    rule_add_marginal_face,
    rule_mdag_lift,
    rule_remove_selected_face,
    rule_remove_self_loop,
    rule_remove_special_edge,
    search_equivalence,
)
from smdg.sep import SeparationQuery, sm_separated

import cases
from helpers import (
    build_tilde_dag,
    district_block_order,
    python_env,
    shield_completion,
    unshielded_colliders,
)


# --- add marginal face -----------------------------------------------------

def test_add_marginal_face_worked_example():
    out = rule_add_marginal_face(cases.canon_example_slp(), {"a", "b", "c"})
    assert out == cases.chain_face_added()


def test_add_marginal_face_rejects_external_parent():
    g = SmDG.of(
        "abc",
        edges=[("c", "a")],
        marginal_faces=[("a",), ("b",)],
        selected_faces=[("a", "b")],
    )
    with pytest.raises(RulePreconditionError, match="parents outside"):
        rule_add_marginal_face(g, {"a", "b"})


def test_add_marginal_face_already_absorbed_is_identity():
    g = SmDG.of(
        "ab", marginal_faces=[("a", "b")], selected_faces=[("a", "b")]
    )
    assert rule_add_marginal_face(g, {"a", "b"}) == g


def test_add_marginal_face_rejects_uncovered_member():
    g = SmDG.of("ab", marginal_faces=[("a",)], selected_faces=[("a", "b")])
    with pytest.raises(RulePreconditionError, match="no marginal face"):
        rule_add_marginal_face(g, {"a", "b"})


# --- remove special edge / self-loop ------------------------------------------

def test_remove_special_edge_worked_example():
    step1 = rule_remove_special_edge(cases.chain_face_added(), "b", "a")
    step2 = rule_remove_self_loop(step1, "a")
    assert step2 == cases.chain_edges_removed()


def test_remove_special_edge_requires_shared_marginal_face():
    g = SmDG.of(
        "ab",
        edges=[("a", "b")],
        marginal_faces=[("b",)],
        selected_faces=[("a",)],
    )
    with pytest.raises(RulePreconditionError, match="share no marginal face"):
        rule_remove_special_edge(g, "a", "b")


def test_remove_special_edge_self_loop_delegates():
    g = cases.canon_example_slp()
    assert rule_remove_special_edge(g, "a", "a") == rule_remove_self_loop(g, "a")


def test_remove_self_loop_twice_fails():
    g = rule_remove_self_loop(cases.canon_example_slp(), "a")
    with pytest.raises(RulePreconditionError, match="no self-loop"):
        rule_remove_self_loop(g, "a")


# --- remove selected face ----------------------------------------------------------

def test_remove_selected_face_worked_example():
    out = rule_remove_selected_face(cases.chain_edges_removed(), {"a", "b", "c"})
    assert out == cases.chain_face_removed()


def test_remove_selected_face_unsaturated_example():
    out = rule_remove_selected_face(cases.unshielded_pair_before(), {"c", "d"})
    assert out == cases.unshielded_pair_after()


def test_remove_selected_face_unshielded_collider_fails_clause_b():
    g = SmDG.of(
        "abc",
        edges=[("a", "c"), ("b", "c")],
        marginal_faces=[("a",), ("b",), ("c",)],
        selected_faces=[("c",)],
    )
    with pytest.raises(RulePreconditionError, match="clause b"):
        rule_remove_selected_face(g, {"c"})


def test_remove_selected_face_blocked_without_added_face():
    with pytest.raises(RulePreconditionError, match="clause b"):
        rule_remove_selected_face(cases.canon_example_slp(), {"a", "b", "c"})


# --- rules only change their target component -----------------------------------------

def test_rules_change_exactly_their_target():
    g0 = cases.canon_example_slp()
    g1 = rule_add_marginal_face(g0, {"a", "b", "c"})
    assert (g1.edges, g1.selected_system) == (g0.edges, g0.selected_system)
    g2 = rule_remove_special_edge(g1, "b", "a")
    assert (g2.marginal_system, g2.selected_system) == (g1.marginal_system, g1.selected_system)
    assert g1.edges - g2.edges == {("b", "a")}
    g3 = rule_remove_self_loop(g2, "a")
    assert g2.edges - g3.edges == {("a", "a")}
    g4 = rule_remove_selected_face(g3, {"a", "b", "c"})
    assert (g4.edges, g4.marginal_system) == (g3.edges, g3.marginal_system)


def test_rule_outputs_lift_to_acyclic_graphs():
    """Cross-check of the liftability guard: every candidate step and every
    default selected-face removal on a fixed stride of the liftable 3-visible
    smDGs (at most 3 edges) rebuilds to an acyclic canonical graph."""
    checked = 0
    space = enumerate_smdgs(3, SmdgBounds(max_edges=3), liftable_only=True)
    for g in itertools.islice(space, 0, None, 17):
        outs = [out for _, out in rewrite._candidate_steps(g)]
        for vs in g.selected_system.sorted_faces():
            try:
                outs.append(rule_remove_selected_face(g, vs))
            except RulePreconditionError:
                pass
        for out in outs:
            assert canonical_graph(out).is_acyclic, (g, out)
        checked += len(outs)
    assert checked > 4000


def test_candidate_steps_replay_backward():
    """Cross-check of every rule's inverse: replaying a candidate step
    backward from its output rebuilds the input. Every 5th liftable 3-visible
    smDG (at most 3 edges); the full space has 48,741 non-identity steps, all
    of which round-trip."""
    checked = 0
    space = enumerate_smdgs(3, SmdgBounds(max_edges=3), liftable_only=True)
    for g in itertools.islice(space, 0, None, 5):
        for step, out in rewrite._candidate_steps(g):
            if out == g:
                continue
            back = RewriteStep(step.rule, step.params, "backward")
            assert apply_step(out, back) == g, (g, step)
            checked += 1
    assert checked > 9000


def test_mdag_lift_step_cannot_be_replayed():
    g = cases.chain_face_removed()
    for direction in ("forward", "backward"):
        with pytest.raises(GraphError, match="cannot replay rule 'MdagLift'"):
            apply_step(g, RewriteStep("MdagLift", (), direction))


_WITNESS_SCRIPT = """
from smdg.graph import SmDG
from smdg.rewrite import RulePreconditionError, rule_add_marginal_face, rule_remove_selected_face
overlap = SmDG.of("abc", marginal_faces=[("a", "b"), ("a", "c")], selected_faces=[("a",)])
unshared = SmDG.of(
    "abcd", edges=[("a", "c"), ("b", "d")],
    marginal_faces=[("c", "d")], selected_faces=[("c", "d")],
)
for rule, g, face in (
    (rule_add_marginal_face, overlap, {"a"}),
    (rule_remove_selected_face, overlap, {"a"}),
    (rule_remove_selected_face, unshared, {"c", "d"}),
):
    try:
        rule(g, face)
    except RulePreconditionError as exc:
        print(exc)
"""


def test_precondition_witnesses_ignore_hash_seed():
    """Witness faces and vertices are picked in sorted order, not in the
    interpreter's frozenset iteration order."""
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _WITNESS_SCRIPT],
            env=python_env(PYTHONHASHSEED=seed),
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines() == [
        "add_marginal_face: marginal face ['a', 'b'] straddles the boundary of the face",
        "remove_selected_face: clause c: marginal faces ['a', 'b'] and ['a', 'c'] overlap",
        "remove_selected_face: clause d: parent of face ['c', 'd'] not shared by 'c'",
    ]


@pytest.mark.parametrize("face", [("a", "b"), ["b", "a"]])
def test_selected_face_check_accepts_any_face_collection(face):
    """The public check takes the face as the rule functions do: any
    collection of its members."""
    shielded = SmDG.of("ab", marginal_faces=[("a", "b")], selected_faces=[("a", "b")])
    assert check_selected_face_removal(shielded, face) == set()
    unshielded = SmDG.of("ab", marginal_faces=[("a",), ("b",)], selected_faces=[("a", "b")])
    with pytest.raises(RulePreconditionError, match="clause b"):
        check_selected_face_removal(unshielded, face)


def test_unliftable_rule_output_raises_not_asserts():
    g = SmDG.of("ab", edges=[("a", "b"), ("b", "a")])
    with pytest.raises(GraphError, match=r"^demo produced .* the cycle a -> b -> a has"):
        rewrite._liftable_result("demo", g)


# --- latent-projection lift --------------------------------------------------------------

def test_mdag_lift_identity_baseline():
    g = cases.chain_face_removed()
    assert rule_mdag_lift(g, g) == "equivalent"


def test_mdag_lift_worked_pair_is_unknown():
    assert rule_mdag_lift(cases.chain_face_removed(), cases.teaser_b_slp()) == "unknown"


def test_mdag_lift_rejects_deterministic_vertices():
    g = SmDG.of("ab", marginal_faces=[("a",)], selected_faces=[])
    with pytest.raises(RulePreconditionError, match="deterministic"):
        rule_mdag_lift(g, g)


def test_mdag_lift_rejects_mismatched_selection():
    g1 = cases.chain_face_removed()
    g2 = SmDG.of("abcd", marginal_faces=[("a", "b", "c"), ("d",)], selected_faces=[])
    with pytest.raises(RulePreconditionError, match="mismatched selected"):
        rule_mdag_lift(g1, g2)


def test_mdag_of_marks_every_singleton():
    m = mdag_of(cases.chain_face_removed())
    for v in m.visibles:
        assert m.marginal_system.contains_face({v})
    assert m.selected_system.maximal_faces == frozenset()


# --- search ----------------------------------------------------------------------------------

def test_search_trivial_identity():
    g = cases.canon_example_slp()
    res = search_equivalence(g, g, depth=2)
    assert res.found and res.proof.steps == ()


def test_search_worked_chain():
    res = search_equivalence(cases.canon_example_slp(), cases.chain_face_removed(), depth=4)
    assert res.found
    assert len(res.proof.steps) == 4
    rules = {s.rule for s in res.proof.steps}
    assert rules == {
        "AddMarginalFace", "RemoveSpecialEdge", "RemoveSelfLoop", "RemoveSelectedFace",
    }
    assert res.proof.replay() == cases.chain_face_removed()


# Proof steps (rule, params, direction) found before the rules moved into one
# table; the reversed pairs are proved from the target side, so their steps
# are replayed backward.
GOLDEN_PROOFS = {
    "worked_chain": (
        cases.canon_example_slp, cases.chain_face_removed,
        [
            ("AddMarginalFace", (("a", "b", "c"), (("a", "b"), ("c",))), "forward"),
            ("RemoveSelfLoop", ("a",), "forward"),
            ("RemoveSpecialEdge", ("b", "a"), "forward"),
            ("RemoveSelectedFace", (("a", "b", "c"),), "forward"),
        ],
    ),
    "worked_chain_reversed": (
        cases.chain_face_removed, cases.canon_example_slp,
        [
            ("RemoveSelectedFace", (("a", "b", "c"),), "backward"),
            ("RemoveSpecialEdge", ("b", "a"), "backward"),
            ("RemoveSelfLoop", ("a",), "backward"),
            ("AddMarginalFace", (("a", "b", "c"), (("a", "b"), ("c",))), "backward"),
        ],
    ),
    "unshielded_pair_reversed": (
        cases.unshielded_pair_after, cases.unshielded_pair_before,
        [("RemoveSelectedFace", (("c", "d"),), "backward")],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PROOFS))
def test_search_golden_proofs(name):
    start, end, expected = GOLDEN_PROOFS[name]
    res = search_equivalence(start(), end(), depth=4)
    assert [(s.rule, s.params, s.direction) for s in res.proof.steps] == expected
    assert res.proof.replay() == end()


def test_search_not_found_diagnostic_names_the_hook():
    res = search_equivalence(cases.chain_face_removed(), cases.teaser_b_slp(), depth=4)
    assert not res.found
    assert "rule_mdag_lift" in res.diagnostic


def test_search_not_found_on_plain_edge_difference():
    g1 = SmDG.of("ab", marginal_faces=[("a",), ("b",)])
    g2 = SmDG.of("ab", edges=[("a", "b")], marginal_faces=[("a",), ("b",)])
    res = search_equivalence(g1, g2, depth=4)
    assert not res.found


def test_search_replay_is_deterministic():
    res = search_equivalence(cases.canon_example_slp(), cases.chain_face_removed(), depth=4)
    assert res.proof.replay() == res.proof.end
    assert res.proof.replay() == res.proof.end  # pure


def test_chain_preserves_singleton_independences():
    """Necessary condition for observational equivalence along the worked
    chain: identical separation verdicts on all singleton queries."""
    chain = [
        cases.canon_example_slp(),
        cases.chain_face_added(),
        cases.chain_edges_removed(),
        cases.chain_face_removed(),
    ]
    for before, after in zip(chain, chain[1:]):
        for x in sorted(before.visibles):
            for y in sorted(before.visibles):
                if x >= y:
                    continue
                others = sorted(before.visibles - {x, y})
                zs = [frozenset()] + [frozenset({w}) for w in others]
                for z in zs:
                    lhs = sm_separated(before, SeparationQuery.of({x}, {y}, z))
                    rhs = sm_separated(after, SeparationQuery.of({x}, {y}, z))
                    assert lhs == rhs, (x, y, z)


# --- tilde graph and shielding ------------------------------------------------------------------

def test_tilde_dag_no_specials_is_canonical_graph():
    g = cases.chain_edges_removed()
    tilde = build_tilde_dag(g, {"a", "b", "c"})
    assert tilde == canonical_graph(g).to_partitioned_dag()


def test_tilde_and_shield_for_worked_removals():
    for g, vs in ((cases.chain_edges_removed(), ("a", "b", "c")),
                  (cases.unshielded_pair_before(), ("c", "d"))):
        tilde = build_tilde_dag(g, vs)
        face_vertex = next(
            s for s in tilde.selected
            if tilde.parents_of(s) & tilde.visible == frozenset(vs)
        )
        ordering = district_block_order(tilde, face_vertex)
        region = tilde.ancestors_of({face_vertex}) - {face_vertex}
        assert set(ordering) == set(region)
        shd = shield_completion(tilde, ordering)
        assert unshielded_colliders(shd, shd.ancestors_of({face_vertex})) == []


def test_shield_completion_singleton_districts_get_no_internal_edges():
    g = cases.unshielded_pair_before()
    tilde = build_tilde_dag(g, {"c", "d"})
    face_vertex = next(
        s for s in tilde.selected
        if tilde.parents_of(s) & tilde.visible == frozenset({"c", "d"})
    )
    ordering = district_block_order(tilde, face_vertex)
    shd = shield_completion(tilde, ordering)
    added = set(shd.edges) - set(tilde.edges)
    # the only multi-member district is the {a, b} latent block, so fully
    # connecting districts may touch nothing outside it except edges into
    # later latents
    for u, v in added:
        assert {u, v} <= {"a", "b"} or v in tilde.marginalized


def _face_vertex(tilde, vs):
    return next(s for s in tilde.selected if tilde.parents_of(s) & tilde.visible == set(vs))


def test_tilde_dag_keeps_special_paths_outside_the_face_ancestry():
    """Removing {c} reads only c's ancestry; the special paths between a and
    b stay rendered, where converting b -> s <- m -> a into b -> a beside the
    plain a -> b made a two-cycle."""
    g = SmDG.of("abc", edges=[("a", "b"), ("b", "a")], marginal_faces=[("a",)],
                selected_faces=[("a", "b"), ("c",)])
    tilde = build_tilde_dag(g, {"c"})
    assert tilde == canonical_graph(g).to_partitioned_dag()
    face_vertex = _face_vertex(tilde, "c")
    shd = shield_completion(tilde, district_block_order(tilde, face_vertex))
    assert unshielded_colliders(shd, shd.ancestors_of({face_vertex}) - {face_vertex}) == []


def test_every_accepted_removal_shields_its_ancestry():
    """Over every liftable smDG with at most two visibles and the 3-visible
    ones with at most three edges, each selected-face removal that the rule
    accepts without removing special edges builds its tilde DAG, and the
    shield completion of the face vertex's ancestry (the face vertex
    excluded) has no unshielded collider."""
    graphs = itertools.chain(
        *(enumerate_smdgs(n, liftable_only=True) for n in range(3)),
        enumerate_smdgs(3, SmdgBounds(max_edges=3), liftable_only=True),
    )
    accepted = 0
    for g in graphs:
        for vs in g.selected_system.sorted_faces():
            try:
                tilde = build_tilde_dag(g, vs)
            except RulePreconditionError:
                continue
            accepted += 1
            face_vertex = _face_vertex(tilde, vs)
            ordering = district_block_order(tilde, face_vertex)
            region = tilde.ancestors_of({face_vertex}) - {face_vertex}
            assert set(ordering) == region, (g, vs)
            shd = shield_completion(tilde, ordering)
            assert unshielded_colliders(shd, region) == [], (g, vs)
    assert accepted == 11786
