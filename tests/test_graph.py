import random
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from smdg.graph import (
    GraphError,
    IndependenceSystem,
    PartitionedDag,
    Role,
    SmDG,
    UnknownVertexError,
    find_cycle,
    is_acyclic,
    topological_order,
)
from smdg.project import lift

import cases
from helpers import (
    assert_cycle_witness,
    assert_matches_rebuild,
    chain_names,
    cycle_in_message,
    long_chain_dag,
    one_shot_dag,
    python_env,
)


# --- strategies -----------------------------------------------------------

def small_dags(max_n=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        names = [f"x{i}" for i in range(n)]
        roles = draw(
            st.lists(st.sampled_from(list(Role)), min_size=n, max_size=n)
        )
        # Edges forward along the name order keep the graph acyclic.
        edges = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if draw(st.booleans())
        ]
        groups = {r: [v for v, rr in zip(names, roles) if rr is r] for r in Role}
        return PartitionedDag.of(
            visible=groups[Role.VISIBLE],
            marginalized=groups[Role.MARGINALIZED],
            selected=groups[Role.SELECTED],
            edges=edges,
        )

    return build()


def vertex_subsets(d: PartitionedDag):
    verts = sorted(d.vertices)
    return st.sets(st.sampled_from(verts)) if verts else st.just(set())


# --- construction and validation -------------------------------------------

def test_rejects_self_loops():
    with pytest.raises(GraphError):
        PartitionedDag.of(visible="a", edges=[("a", "a")])


def test_rejects_cycles():
    with pytest.raises(GraphError):
        PartitionedDag.of(visible="ab", edges=[("a", "b"), ("b", "a")])


def test_cycle_witness_follows_sorted_edges():
    # two cycles through a; the reported one must not depend on the hash seed
    with pytest.raises(GraphError, match=r"the cycle a -> b -> a$"):
        PartitionedDag.of(visible="abc", edges=[("a", "c"), ("c", "a"), ("a", "b"), ("b", "a")])


def test_rejects_unknown_edge_endpoints():
    with pytest.raises(UnknownVertexError):
        PartitionedDag.of(visible="a", edges=[("a", "b")])


def test_rejects_duplicate_roles():
    with pytest.raises(GraphError):
        PartitionedDag.of(visible="a", marginalized="a")


def test_smdg_allows_self_loops_and_cycles():
    g = SmDG.of("ab", edges=[("a", "b"), ("b", "a"), ("a", "a")])
    assert ("a", "a") in g.edges


def test_smdg_system_ground_must_match():
    sys = IndependenceSystem.of("abz", [("a",)])
    with pytest.raises(GraphError):
        SmDG(
            visibles=frozenset("ab"),
            edges=frozenset(),
            marginal_system=sys,
            selected_system=IndependenceSystem.of("ab"),
        )


# --- parents / children / ancestors ----------------------------------------

def test_parents_worked_example():
    assert cases.exog_before().parents_of("v2") == {"v1", "m"}


def test_parents_isolated_vertex():
    assert PartitionedDag.of(visible="a").parents_of("a") == frozenset()


def test_parents_smdg_self_loop_counts():
    assert cases.canon_example_slp().parents_of("a") == {"a", "b"}


def test_parents_unknown_vertex():
    with pytest.raises(UnknownVertexError):
        PartitionedDag.of(visible="a").parents_of("zz")


def test_ancestors_root_is_itself():
    d = PartitionedDag.of(visible="ab", edges=[("a", "b")])
    assert d.ancestors_of({"a"}) == {"a"}


def test_ancestors_worked_example():
    assert cases.canon_example().ancestors_of({"s3"}) == {"s3", "c", "d", "m3", "m4"}


def test_ancestors_empty():
    assert cases.canon_example().ancestors_of(set()) == frozenset()


@given(small_dags())
def test_ancestors_idempotent(d):
    anc = d.ancestors_of(d.visible)
    assert d.ancestors_of(anc) == anc


@given(small_dags(), st.data())
def test_ancestors_monotone(d, data):
    verts = sorted(d.vertices)
    big = data.draw(st.sets(st.sampled_from(verts)))
    small = data.draw(st.sets(st.sampled_from(sorted(big)))) if big else set()
    assert d.ancestors_of(small) <= d.ancestors_of(big)


@given(small_dags())
def test_parents_children_dual(d):
    for u in d.vertices:
        for v in d.vertices:
            assert (u in d.parents_of(v)) == (v in d.children_of(u))


# --- induced subgraphs ------------------------------------------------------

@given(small_dags())
def test_induced_subgraph_identity(d):
    assert d.induced_subgraph(d.vertices) == d


def test_induced_subgraph_rejects_unknown():
    with pytest.raises(UnknownVertexError):
        PartitionedDag.of(visible="a").induced_subgraph({"zz"})


def test_induced_subgraph_empty():
    assert cases.canon_example().induced_subgraph(set()).vertices == frozenset()


def test_induced_smdg_worked_example():
    g = cases.canon_example_slp().induced_subgraph({"c", "d"})
    assert g.edges == frozenset()
    assert g.marginal_system.maximal_faces == {frozenset("c"), frozenset("d")}
    assert g.selected_system.maximal_faces == {frozenset("cd")}


# --- independence systems ---------------------------------------------------

def test_face_contains_empty_set():
    assert IndependenceSystem.of("ab").contains_face(set())


def test_face_contains_subset():
    sys = IndependenceSystem.of("abcd", [("a", "b", "c")])
    assert sys.contains_face({"a", "c"})
    assert not sys.contains_face({"a", "d"})


def test_face_contains_rejects_outside_ground():
    with pytest.raises(UnknownVertexError):
        IndependenceSystem.of("ab").contains_face({"z"})


def test_empty_system_has_no_maximal_faces():
    assert IndependenceSystem.of("ab", [()]).maximal_faces == frozenset()


@given(
    st.lists(
        st.sets(st.sampled_from("abcde")),
        max_size=8,
    )
)
def test_maximal_faces_form_antichain(faces):
    sys = IndependenceSystem.of("abcde", faces)
    for f in sys.maximal_faces:
        for g in sys.maximal_faces:
            assert not (f < g)
    # every input face is still contained in the closure
    for f in faces:
        assert sys.contains_face(f)


# --- acyclicity --------------------------------------------------------------

def test_is_acyclic_two_cycle():
    assert not is_acyclic("ab", [("a", "b"), ("b", "a")])


def test_is_acyclic_empty():
    assert is_acyclic("abc", [])


def test_is_acyclic_self_loop():
    g = cases.canon_example_slp()
    assert not is_acyclic(g.visibles, g.edges)


@pytest.mark.parametrize("edges, witness", [
    ([("a", "b"), ("b", "a")], ("a", "b", "a")),
    ([("c", "c"), ("a", "b")], ("c", "c")),
    ([("b", "c"), ("c", "b"), ("a", "b"), ("b", "a")], ("b", "c", "b")),
    ([("a", "b"), ("b", "c"), ("c", "d")], None),
], ids=["two_cycle", "self_loop", "edge_order", "acyclic"])
def test_find_cycle_witness(edges, witness):
    assert find_cycle("dcba", edges) == witness


@pytest.mark.parametrize("edge", [("a", "z"), ("z", "a")], ids=["head", "tail"])
def test_find_cycle_names_an_edge_with_an_unknown_endpoint(edge):
    with pytest.raises(UnknownVertexError) as exc:
        find_cycle("ab", [("a", "b"), edge])
    assert str(exc.value) == f"edge {edge!r} has an endpoint outside the graph"


def test_long_chain_has_no_depth_limit():
    d = long_chain_dag(5000)
    assert d.topological_order() == chain_names(5000)
    assert d.ancestors_of(["v4999"]) == d.vertices


@pytest.mark.parametrize("edges", [
    (("a", "b"), ("b", "a")),
    (("a", "a"),),
    (("a", "b"), ("b", "c"), ("c", "b")),
], ids=["two_cycle", "self_loop", "cycle_behind_a_tail"])
def test_direct_construction_rejects_cycles(edges):
    roles = tuple((v, Role.VISIBLE) for v in "abc")
    with pytest.raises(GraphError, match="^edges contain the cycle ") as exc:
        PartitionedDag(roles=roles, edges=edges)
    cycle = cycle_in_message(str(exc.value))
    assert len(cycle) >= 2 and cycle[0] == cycle[-1]
    assert all(pair in edges for pair in zip(cycle, cycle[1:]))


def test_direct_construction_rejects_unknown_endpoint():
    with pytest.raises(UnknownVertexError):
        PartitionedDag(roles=(("a", Role.VISIBLE),), edges=(("a", "z"),))


def test_topological_order_names_a_cycle():
    edges = [("a", "b"), ("b", "c"), ("c", "b"), ("c", "d")]
    with pytest.raises(GraphError) as exc:
        topological_order("abcd", edges)
    message = str(exc.value)
    assert_cycle_witness(cycle_in_message(message), edges, message)


# --- the edit path ----------------------------------------------------------

def _chain() -> PartitionedDag:
    return PartitionedDag.of(visible="abcd", edges=[("a", "b"), ("b", "c"), ("c", "d")])


@pytest.mark.parametrize("edit, edges", [
    (lambda d: d.with_edges(add={("d", "b")}),
     [("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]),
    (lambda d: d.with_vertices(add={"e": Role.MARGINALIZED}, add_edges={("d", "e"), ("e", "b")}),
     [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "b")]),
], ids=["with_edges", "with_vertices"])
def test_edit_rejects_a_closed_cycle(edit, edges):
    with pytest.raises(GraphError, match="^edges contain the cycle ") as exc:
        edit(_chain())
    message = str(exc.value)
    cycle = cycle_in_message(message)
    assert len(cycle) >= 2 and cycle[0] == cycle[-1]
    assert all(pair in edges for pair in zip(cycle, cycle[1:]))
    assert message == "edges contain the cycle " + " -> ".join(cycle)


@pytest.mark.parametrize("edit, error, message", [
    (lambda d: d.with_edges(add={("b", "b")}), GraphError,
     "self-loop on 'b' is not allowed in a DAG"),
    (lambda d: d.with_edges(add={("a", "z")}), UnknownVertexError,
     "edge ('a', 'z') has an endpoint outside the graph"),
    (lambda d: d.with_vertices(remove={"c"}, add_edges={("b", "c")}), UnknownVertexError,
     "edge ('b', 'c') has an endpoint outside the graph"),
    (lambda d: d.with_vertices(add={"": Role.VISIBLE}), GraphError,
     "vertex ids must be non-empty strings, got ''"),
    (lambda d: d.with_vertices(add={"a": Role.SELECTED}), GraphError,
     "vertex 'a' already exists"),
], ids=["self_loop", "unknown_endpoint", "removed_endpoint", "empty_id", "existing_id"])
def test_edit_checks_what_it_adds(edit, error, message):
    with pytest.raises(error) as exc:
        edit(_chain())
    assert str(exc.value) == message


@pytest.mark.parametrize("edit", [
    lambda d: d.with_edges(remove={("b", "c")}),
    lambda d: d.with_edges(add={("a", "c"), ("a", "b")}, remove={("a", "b"), ("zz", "a")}),
    lambda d: d.with_vertices(remove={"b", "zz"}),
    lambda d: d.with_vertices(add={"b": Role.SELECTED, "m": Role.MARGINALIZED}, remove={"b"},
                              add_edges={("a", "b"), ("m", "d")}),
    lambda d: d.induced_subgraph({"a", "c", "d"}),
], ids=["remove_edge", "add_present_and_removed", "remove_vertex", "re_add_removed",
        "induced_subgraph"])
def test_edit_matches_rebuild(edit):
    assert_matches_rebuild(edit(_chain()))


def _outcome(build):
    try:
        return build()
    except GraphError as exc:
        return type(exc), str(exc)


def _random_edit(d: PartitionedDag, rng: random.Random):
    """A seeded edit of d and the ``from_roles`` build of the roles and edges
    it asks for. Removals may name unknown vertices and absent edges;
    additions may re-add removed ids and add edges that already exist, that
    close a cycle, that loop on one vertex, or whose endpoint is unknown or
    was removed."""
    names = sorted(d.vertices)
    kind = rng.choice(["with_vertices", "with_edges", "induced_subgraph"])
    if kind == "induced_subgraph":
        keep = rng.sample(names, rng.randint(len(names) // 2, len(names)))
        return (lambda: d.induced_subgraph(keep),
                lambda: PartitionedDag.from_roles(
                    {v: r for v, r in d.roles if v in keep},
                    [(a, b) for a, b in d.edges if a in keep and b in keep]))
    remove = set(rng.sample(names + ["zz"], rng.randint(0, 2))) if kind == "with_vertices" else set()
    add = {}
    if kind == "with_vertices":
        for v in rng.sample(sorted(remove - {"zz"}) + ["n1", "n2"], rng.randint(0, 2)):
            if v not in d.vertices or v in remove:
                add[v] = rng.choice(list(Role))
    roles = {v: r for v, r in d.roles if v not in remove}
    roles.update(add)
    ends = sorted(roles) + ["zz"] + sorted(remove)
    pairs = [(rng.choice(ends), rng.choice(ends)) for _ in range(rng.randint(0, 3))]
    pairs += rng.sample(d.edges, min(len(d.edges), rng.randint(0, 1)))  # already present
    cut = rng.sample(d.edges, min(len(d.edges), rng.randint(0, 2))) + [("zz", "n1")]
    kept = [(a, b) for a, b in d.edges
            if a not in remove and b not in remove and (a, b) not in cut]
    return (lambda: d.with_vertices(add=add, remove=remove, add_edges=pairs, remove_edges=cut),
            lambda: PartitionedDag.from_roles(roles, kept + pairs))


def test_random_edits_match_a_rebuild_or_raise_what_it_raises():
    """About 500 seeded edits of one-shot style DAGs, each applied to the
    previous edit's result when that succeeded."""
    rng = random.Random(20261020)
    raised = set()
    for _ in range(60):
        d = one_shot_dag(rng)
        for _ in range(8):
            edit, rebuild = _random_edit(d, rng)
            got, want = _outcome(edit), _outcome(rebuild)
            if isinstance(want, tuple):
                assert got == want
                raised.add(want[1].split(" ")[0])
                continue
            assert_matches_rebuild(got)
            assert got == want
            d = got
    assert raised == {"edge", "edges", "self-loop"}


_UNQUERIED = {
    "constructed": lambda: cases.teaser_a(),
    "edited": lambda: cases.teaser_a().with_vertices(
        add={"n": Role.MARGINALIZED}, remove={"m4"}, add_edges={("n", "d")}),
    "lifted": lambda: lift(cases.canon_example_slp()),
    "smdg": lambda: cases.canon_example_slp(),
}


@pytest.mark.parametrize("graph, query", [
    (graph, query) for graph in sorted(_UNQUERIED)
    for query in ("parents_of", "children_of", "role_of") if (graph, query) != ("smdg", "role_of")
])
def test_vertex_queries_name_an_unknown_vertex(graph, query):
    """Each graph is made anew, so the query is its first one."""
    g = _UNQUERIED[graph]()
    with pytest.raises(UnknownVertexError) as exc:
        getattr(g, query)("zz")
    assert (type(exc.value), str(exc.value)) == (UnknownVertexError,
                                                 "vertex 'zz' is not in the graph")


# --- messages that name one of several offenders ---------------------------

SORTED_FIRST_OFFENDER = '''
from smdg.canon import merge_marginalized, merge_selected
from smdg.graph import PartitionedDag, SmDG
from smdg.model import DiscreteModel, table_kernel, uniform

unknown = {"q3", "q1", "q2"}
d = PartitionedDag.of(visible="ab", edges=[("a", "b")])
g = SmDG.of("ab", [("a", "b")])
dom = (0, 1)
sel = PartitionedDag.of(visible="a", selected=["s1", "s2", "s3"],
                        edges=[("a", "s1"), ("a", "s2"), ("a", "s3")])
kernels = {v: table_kernel(sorted(sel.parents_of(v)), [dom] * len(sel.parents_of(v)), dom,
                           lambda *_: uniform(dom))
           for v in sel.vertices}
fed = PartitionedDag.of(visible="a", marginalized=["m1", "m2", "m3"], selected="s",
                        edges=[("a", "m1"), ("a", "m2"), ("a", "m3"),
                               ("m1", "s"), ("m2", "s"), ("m3", "s")])
feeding = PartitionedDag.of(visible="b", marginalized="m", selected=["s1", "s2", "s3"],
                            edges=[("m", "s1"), ("m", "s2"), ("m", "s3"),
                                   ("s1", "b"), ("s2", "b"), ("s3", "b")])
calls = [
    lambda: d.induced_subgraph(["a", *unknown]),
    lambda: g.induced_subgraph(unknown | {"a"}),
    lambda: d.ancestors_of(unknown),
    lambda: DiscreteModel.of(sel, {v: dom for v in sel.vertices}, kernels,
                             {s: 7 for s in sel.selected}),
    lambda: merge_marginalized(fed, "m3", "m2"),
    lambda: merge_selected(feeding, "s3", "s2"),
]
for call in calls:
    try:
        call()
    except Exception as e:
        print(type(e).__name__, e)
'''


def test_messages_name_the_sorted_first_offender_whatever_the_hash_seed():
    """A check over a set names its sorted-first offender, so the message
    does not depend on PYTHONHASHSEED."""
    want = "".join(f"{line}\n" for line in [
        "UnknownVertexError vertex 'q1' is not in the graph",
        "UnknownVertexError vertex 'q1' is not in the graph",
        "UnknownVertexError vertex 'q1' is not in the graph",
        "ModelError selected vertex 's1' lacks its zero value",
        "PreconditionError merge_marginalized: marginalized vertex 'm1' still has parents",
        "PreconditionError merge_selected: selected vertex 's1' still has children",
    ])
    for seed in ("0", "1", "3"):
        proc = subprocess.run(
            [sys.executable, "-c", SORTED_FIRST_OFFENDER], capture_output=True, text=True,
            env=python_env(PYTHONHASHSEED=seed), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, ""), seed
