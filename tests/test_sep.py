import random
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import given, strategies as st

from smdg.enumeration import SmdgBounds, enumerate_partitioned_dags, enumerate_smdgs
from smdg.graph import GraphError, PartitionedDag, Role, SmDG, UnknownVertexError
from smdg.project import NotLiftableError, lift
from smdg.sep import (
    SeparationQuery,
    Verdict,
    D_separated,
    _bitsets,
    d_separated,
    functional_closure,
    sm_separated,
)

import cases
from helpers import (
    UNLIFTABLE,
    assert_cycle_witness,
    assert_sm_matches_D,
    chain_names,
    long_chain_smdg,
    moral_criterion,
)


def q(x, y, z=()):
    return SeparationQuery.of(x, y, z)


# --- queries ------------------------------------------------------------------

def test_query_requires_disjoint_sets():
    with pytest.raises(GraphError):
        q("a", "a")
    with pytest.raises(GraphError):
        q("a", "b", "a")
    with pytest.raises(GraphError):
        q("", "b")


# Which unknown vertex an error names: d checks x, y and z together; D and sm
# check z first, as the closure is taken before the endpoints are read. Sets
# of three ids, so an answer that followed set order would vary by hash seed.
@pytest.mark.parametrize("x, y, z, d_names, D_names", [
    ({"q1", "q7", "a"}, {"b"}, {"q2", "q8", "q5"}, "q1", "q2"),
    ({"q4", "q6", "q9"}, {"q3", "b"}, {"c"}, "q3", "q3"),
    ({"a"}, {"q9", "q6", "q8"}, {"q5", "c"}, "q5", "q5"),
], ids=["z_and_x", "x_and_y", "y_and_z"])
def test_unknown_vertex_named(x, y, z, d_names, D_names):
    d = PartitionedDag.of(visible="abc", edges=[("a", "b")])
    g = SmDG.of("abc", edges=[("a", "b")])
    query = q(x, y, z)
    for criterion, graph, named in ((d_separated, d, d_names), (D_separated, d, D_names),
                                    (sm_separated, g, D_names)):
        with pytest.raises(UnknownVertexError) as err:
            criterion(graph, query)
        assert str(err.value) == f"vertex {named!r} is not in the graph", criterion
    for graph in (d, g):
        with pytest.raises(UnknownVertexError) as err:
            functional_closure(graph, {"c", "q8", "q3", "q6"})
        assert str(err.value) == "vertex 'q3' is not in the graph"


# --- functional closure ----------------------------------------------------------

def test_closure_empty_when_all_have_latent_parents():
    d = PartitionedDag.of(
        visible="ab", marginalized=["u", "w"], edges=[("u", "a"), ("w", "b")]
    )
    assert functional_closure(d, set()) == frozenset()


def test_closure_cascades_through_deterministic_chain():
    d = PartitionedDag.of(visible="ab", edges=[("a", "b")])
    assert functional_closure(d, {"a"}) == {"a", "b"}


def test_closure_smdg_parentless_constant():
    g = SmDG.of("vw", marginal_faces=[("w",)])
    assert functional_closure(g, set()) == {"v"}


def test_closure_smdg_halts_on_cycles():
    g = SmDG.of("ab", edges=[("a", "b"), ("b", "a"), ("a", "a")])
    assert functional_closure(g, set()) == frozenset()


@given(st.sets(st.sampled_from("abcd")), st.sets(st.sampled_from("abcd")))
def test_closure_is_a_closure_operator(z1, z2):
    d = PartitionedDag.of(
        visible="abcd", marginalized=["u"],
        edges=[("a", "b"), ("b", "c"), ("u", "d"), ("a", "d")],
    )
    c1 = functional_closure(d, z1)
    assert z1 <= c1
    assert functional_closure(d, c1) == c1
    if z1 <= z2:
        assert c1 <= functional_closure(d, z2)


def test_closure_linear_on_reversed_chain():
    # sorted order runs against the edges, so a rescan per round adds one vertex
    n = 600
    names = chain_names(n)
    d = PartitionedDag.of(visible=names, edges=zip(names[1:], names))
    reads = Counter()

    class Counted(dict):
        """A per-vertex mask table of the compiled record that counts reads."""

        def __getitem__(self, key):
            reads[self.name] += 1
            return dict.__getitem__(self, key)

    bits, tables = _bitsets(d), {}
    for name in ("parents", "children"):
        tables[name] = Counted(getattr(bits, name))
        tables[name].name = name
    object.__setattr__(d, "_bitsets", bits._replace(**tables))
    assert _bitsets(d).parents is tables["parents"]
    assert functional_closure(d, {names[-1]}) == frozenset(names)
    assert n <= sum(reads.values()) <= 4 * n, reads


# --- d-separation ----------------------------------------------------------------

def collider():
    return PartitionedDag.of(visible="abc", edges=[("a", "c"), ("b", "c")])


def test_collider_blocked_unconditioned():
    assert d_separated(collider(), q("a", "b"))


def test_collider_activated_by_conditioning():
    assert not d_separated(collider(), q("a", "b", "c"))


def test_collider_activated_by_descendant():
    d = PartitionedDag.of(visible="abcd", edges=[("a", "c"), ("b", "c"), ("c", "d")])
    assert not d_separated(d, q("a", "b", "d"))


def test_chain_blocked_by_middle():
    d = PartitionedDag.of(visible="abc", edges=[("a", "b"), ("b", "c")])
    assert d_separated(d, q("a", "c", "b"))
    assert not d_separated(d, q("a", "c"))


# --- determinism-aware separation ---------------------------------------------------

def test_determined_endpoint_verdict():
    d = PartitionedDag.of(visible="abc", edges=[("a", "b"), ("b", "c")])
    # closure of {a} is {a, b, c}: both remaining vertices are determined
    assert D_separated(d, q("c", "b", {"a"})) is Verdict.DETERMINED


def test_D_equals_d_when_closure_adds_nothing():
    d = PartitionedDag.of(
        visible="abc",
        marginalized=["u1", "u2", "u3"],
        edges=[("u1", "a"), ("u2", "b"), ("u3", "c"), ("a", "c"), ("b", "c")],
    )
    for query in (q("a", "b"), q("a", "b", "c")):
        assert (D_separated(d, query) is Verdict.SEPARATED) == d_separated(d, query)


def test_selfloop_shape_D_matches_d_given_selection():
    d = cases.selfloop_shape()
    query = q("v", "s")
    assert (D_separated(d, query) is Verdict.SEPARATED) == d_separated(d, query)


@given(st.data())
def test_D_never_weaker_than_d(data):
    n = data.draw(st.integers(2, 5))
    names = [f"x{i}" for i in range(n)]
    roles = data.draw(
        st.lists(st.sampled_from(["v", "v", "m", "s"]), min_size=n, max_size=n)
    )
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if data.draw(st.booleans())
    ]
    d = PartitionedDag.of(
        visible=[v for v, r in zip(names, roles) if r == "v"],
        marginalized=[v for v, r in zip(names, roles) if r == "m"],
        selected=[v for v, r in zip(names, roles) if r == "s"],
        edges=edges,
    )
    vis = sorted(d.visible)
    if len(vis) < 2:
        return
    x, y = vis[0], vis[1]
    z = frozenset(data.draw(st.sets(st.sampled_from(vis[2:])))) if vis[2:] else frozenset()
    query = q({x}, {y}, z)
    verdict = D_separated(d, query)
    if functional_closure(d, z) == z:
        # a trivial closure makes the two criteria literally the same test
        assert (verdict is Verdict.SEPARATED) == d_separated(d, query)
    elif verdict is Verdict.SEPARATED:
        pass  # closures can flip verdicts in either direction; no claim here


# --- sm-separation --------------------------------------------------------------------

def test_marginal_face_connects():
    g = SmDG.of("ab", marginal_faces=[("a", "b")])
    assert sm_separated(g, q("a", "b")) is Verdict.CONNECTED


def test_isolated_vertices_separated():
    g = SmDG.of("ab", marginal_faces=[("a",), ("b",)])
    assert sm_separated(g, q("a", "b")) is Verdict.SEPARATED


def test_selected_face_connects_when_conditioned_path_exists():
    g = SmDG.of("ab", marginal_faces=[("a",), ("b",)], selected_faces=[("a", "b")])
    assert sm_separated(g, q("a", "b")) is Verdict.CONNECTED


def test_sm_requires_liftable():
    for g in UNLIFTABLE:
        with pytest.raises(NotLiftableError) as err:
            sm_separated(g, q("a", "b"))
        assert_cycle_witness(err.value.cycle, g.edges, str(err.value))


def test_fully_deterministic_smdg_all_queries_determined():
    g = SmDG.of("abc", edges=[("a", "b"), ("b", "c")])
    assert sm_separated(g, q("a", "c", "b")) is Verdict.DETERMINED


def test_documented_example_discrepancy():
    """The source text asserts b and d are connected given c through the two
    selected faces, but under the formal rule the shared vertex c is a
    non-collider inside the closure of {c}, so the path is blocked; the
    canonical-DAG criterion agrees with the formal reading."""
    g = cases.canon_example_slp()
    assert sm_separated(g, q("b", "d", "c")) is Verdict.SEPARATED
    assert_sm_matches_D(g, q("b", "d", "c"))


def test_agreement_on_worked_example_queries():
    g = cases.canon_example_slp()
    for x in "abcd":
        for y in "abcd":
            if x >= y:
                continue
            others = set("abcd") - {x, y}
            zs = [set()] + [{w} for w in others] + [others]
            for z in zs:
                assert_sm_matches_D(g, q(x, y, z))


def test_agreement_on_chain_examples():
    for make in (cases.chain_face_added, cases.chain_edges_removed,
                  cases.chain_face_removed, cases.teaser_b_slp,
                  cases.unshielded_pair_before, cases.unshielded_pair_after):
        g = make()
        for x in sorted(g.visibles):
            for y in sorted(g.visibles):
                if x >= y:
                    continue
                for z in [set(), set(g.visibles) - {x, y}]:
                    assert_sm_matches_D(g, q(x, y, z))


def test_sm_separation_on_long_chain():
    g = long_chain_smdg(1500)
    assert sm_separated(g, q(["v0000"], ["v1499"], ["v0750"])) is Verdict.SEPARATED
    assert sm_separated(g, q(["v0000"], ["v1499"])) is Verdict.CONNECTED


# --- cross-check against the moralized ancestral graph ---------------------------

def _subsets(vs, sizes):
    return chain.from_iterable(combinations(vs, k) for k in sizes)


# (3, 1, 1) has 3,200 DAGs, (2, 2, 1) 768 and (2, 1, 1) with edges in every
# direction 543; the largest shape takes one-element x and y only, which keeps
# the three cases near fifteen seconds together.
@pytest.mark.parametrize("counts, exogenous_terminal_only, sizes", [
    ((3, 1, 1), True, (1,)),
    ((2, 2, 1), True, (1, 2)),
    ((2, 1, 1), False, (1, 2)),
])
def test_d_and_D_separation_match_moralized_ancestral_graph(
    counts, exogenous_terminal_only, sizes
):
    dags = list(enumerate_partitioned_dags(*counts, exogenous_terminal_only))
    vertices = sorted(dags[0].vertices)
    queries = []  # both criteria are symmetric in x and y: unordered pairs
    for x in _subsets(vertices, sizes):
        for y in _subsets([v for v in vertices if v not in x], sizes):
            rest = [v for v in vertices if v not in x and v not in y]
            if x < y:
                queries += (SeparationQuery.of(x, y, z)
                            for z in _subsets(rest, range(len(rest) + 1)))
    for d in dags:
        moral_separated = moral_criterion(d)
        for query in queries:
            x, y, z = query.x, query.y, query.z
            assert d_separated(d, query) == moral_separated(x, y, z), (d, query)
            closure = functional_closure(d, z)
            if (x | y) & closure:
                expected = Verdict.DETERMINED
            elif moral_separated(x, y, closure):
                expected = Verdict.SEPARATED
            else:
                expected = Verdict.CONNECTED
            assert D_separated(d, query) is expected, (d, query)


# --- the same oracle on lifted smDGs -----------------------------------------------

def _query_family(visibles):
    """The criterion-5 query family of the sweep: unordered pairs of disjoint
    x and y of one or two visibles, with every z of at most two of the rest."""
    out = []
    for x in _subsets(visibles, (1, 2)):
        for y in _subsets([v for v in visibles if v not in x], (1, 2)):
            rest = [v for v in visibles if v not in x and v not in y]
            if x < y:
                out += (SeparationQuery.of(x, y, z)
                        for z in _subsets(rest, range(min(2, len(rest)) + 1)))
    return out


def _fixed_point_closure(d: PartitionedDag, z) -> frozenset:
    """The functional closure by rounds of a plain fixed point over d.roles and
    d.edges, sharing no code with ``functional_closure``."""
    parents = {v: set() for v, _ in d.roles}
    for a, b in d.edges:
        parents[b].add(a)
    visible = {v for v, r in d.roles if r is Role.VISIBLE}
    closure = set(z)
    while True:
        joining = {v for v in visible - closure if parents[v] <= closure}
        if not joining:
            return frozenset(closure)
        closure |= joining


def _lift_oracle_graphs(case):
    if case == "2_all":
        return list(enumerate_smdgs(2, liftable_only=True))
    graphs = list(enumerate_smdgs(3, SmdgBounds(max_edges=3), liftable_only=True))
    return random.Random("lift-oracle").sample(graphs, 300)


@pytest.mark.parametrize("case, count", [("2_all", 175), ("3_sample", 300)])
def test_separation_on_lifts_matches_moralized_ancestral_graph(case, count):
    """On the lift of each smDG, d and D over the sweep's query family (z with
    the lift's selected vertices added) agree with the moralized ancestral
    graph, and the smDG criterion gives the D verdict."""
    graphs = _lift_oracle_graphs(case)
    assert len(graphs) == count
    queries = _query_family(sorted(graphs[0].visibles))
    assert len(queries) == (1 if case == "2_all" else 9)
    for g in graphs:
        d = lift(g)
        moral_separated = moral_criterion(d)
        for query in queries:
            x, y, z = query.x, query.y, query.z | d.selected
            lifted = SeparationQuery(x, y, z)
            assert d_separated(d, lifted) == moral_separated(x, y, z), (g, query)
            closure = _fixed_point_closure(d, z)
            if (x | y) & closure:
                expected = Verdict.DETERMINED
            elif moral_separated(x, y, closure):
                expected = Verdict.SEPARATED
            else:
                expected = Verdict.CONNECTED
            assert D_separated(d, lifted) is expected, (g, query)
            assert sm_separated(g, query) is expected, (g, query)
