import hashlib
import json
import random
from collections import Counter
from itertools import islice

import pytest

from smdg import graph, project
from smdg.canon import canonicalize, is_canonical
from smdg.enumeration import SmdgBounds, enumerate_smdgs
from smdg.graph import GraphError, PartitionedDag, Role, SmDG
from smdg.io import dumps
from smdg.project import (
    NotCanonicalError,
    NotLiftableError,
    canonical_graph,
    is_liftable,
    lift,
    observe_and_do_equivalent,
    signature,
    slp,
    unliftable_cycle,
)
from smdg.sep import D_separated, SeparationQuery, sm_separated

import cases
from helpers import (
    UNLIFTABLE,
    assert_cycle_witness,
    assert_matches_rebuild,
    long_chain_dag,
    long_chain_smdg,
    same_up_to_nonvisible_labels,
)


# --- selected-latent projection ------------------------------------------------

def test_slp_canon_example():
    assert slp(cases.canon_example()) == cases.canon_example_slp()


def test_slp_teaser_a_matches_canonical_form():
    assert slp(cases.teaser_a()) == cases.canon_example_slp()


def test_slp_teaser_b():
    assert slp(cases.teaser_b()) == cases.teaser_b_slp()


def test_slp_latent_fork_is_plain_projection():
    assert slp(cases.latent_fork()) == cases.fork_mdag()


def test_slp_plain_dag_keeps_edges():
    d = PartitionedDag.of(visible="ab", edges=[("a", "b")])
    g = slp(d)
    assert g == SmDG.of("ab", edges=[("a", "b")])


def test_slp_equals_slp_of_canonical_output():
    for make in (cases.teaser_a, cases.teaser_b, cases.latent_chain, cases.split_fan_before):
        assert slp(make()) == slp(canonicalize(make()).output)


# --- canonical graph --------------------------------------------------------------

def test_canonical_graph_of_two_cycle_is_itself():
    g = SmDG.of("ab", edges=[("a", "b"), ("b", "a")])
    cg = canonical_graph(g)
    assert not cg.is_acyclic
    assert set(cg.edges) == {("a", "b"), ("b", "a")}
    assert {v for v, _ in cg.roles} == {"a", "b"}


def test_canonical_graph_of_slp_example():
    cg = canonical_graph(cases.canon_example_slp())
    assert cg.is_acyclic
    assert same_up_to_nonvisible_labels(cg.to_partitioned_dag(), cases.canon_example())


def test_canonical_graph_single_marginal_face():
    g = SmDG.of("bc", marginal_faces=[("b", "c")])
    cg = canonical_graph(g)
    d = cg.to_partitioned_dag()
    (m,) = d.marginalized
    assert d.children_of(m) == {"b", "c"}
    assert not d.selected


def test_canonical_graph_output_is_canonical_when_acyclic():
    examples = [
        cases.canon_example_slp(),
        cases.teaser_b_slp(),
        cases.fork_mdag(),
        cases.chain_face_added(),
        cases.chain_face_removed(),
        # a bare special edge: singleton faces at both endpoints
        SmDG.of("ab", edges=[("a", "b")], marginal_faces=[("b",)], selected_faces=[("a",)]),
    ]
    for g in examples:
        cg = canonical_graph(g)
        assert cg.is_acyclic
        assert is_canonical(cg.to_partitioned_dag())


# --- liftability ---------------------------------------------------------------------

def test_two_cycle_without_systems_is_not_liftable():
    assert not is_liftable(SmDG.of("ab", edges=[("a", "b"), ("b", "a")]))


def test_slp_example_with_self_loop_is_liftable():
    assert is_liftable(cases.canon_example_slp())


def test_acyclic_structure_is_liftable_regardless_of_systems():
    assert is_liftable(SmDG.of("ab", edges=[("a", "b")]))


def test_lift_error_carries_offending_cycle():
    for g in UNLIFTABLE:
        with pytest.raises(NotLiftableError) as err:
            lift(g)
        assert_cycle_witness(err.value.cycle, canonical_graph(g).edges, str(err.value))


def test_unliftable_witness_follows_sorted_edges():
    # two cycles through a; the reported one must not depend on the hash seed
    g = SmDG.of("abc", edges=[("a", "c"), ("c", "a"), ("a", "b"), ("b", "a")])
    assert unliftable_cycle(g) == canonical_graph(g).cycle == ("a", "b", "a")


def test_lift_round_trip():
    g = cases.canon_example_slp()
    assert slp(lift(g)) == g


def test_lift_equals_the_checked_rebuild():
    """lift builds its DAG from the canonical graph's sorted roles and edges
    as they are; on every 10th liftable 3-visible smDG that equals the
    from_roles rebuild, which converts, checks and sorts them again."""
    n = 0
    for g in islice(enumerate_smdgs(3, liftable_only=True), 0, None, 10):
        cg, d = canonical_graph(g), lift(g)
        want = PartitionedDag.from_roles(dict(cg.roles), cg.edges)
        assert d == want and repr(d) == repr(want)
        n += 1
    assert n == 8260


def test_lift_searches_once_and_indexes_on_first_query(monkeypatch):
    """lift adds no cycle search to the one canonical_graph ran; separation
    on the smDG and on its lift builds neither graph's parent and child
    maps; and the lift's maps, once asked for, equal the rebuild's."""
    searches = []
    search = graph._search_cycle
    monkeypatch.setattr(graph, "_search_cycle", lambda *a: searches.append(a) or search(*a))
    q = SeparationQuery.of({"a"}, {"b", "c"})
    n = 0
    for g in islice(enumerate_smdgs(3, liftable_only=True), 0, None, 97):
        canonical_graph(g)
        before = len(searches)
        d = lift(g)
        assert len(searches) == before
        sm_separated(g, q)
        D_separated(d, SeparationQuery(q.x, q.y, q.z | d.selected))
        for h in (g, d):
            assert "_parents" not in vars(h) and "_children" not in vars(h), h
        assert_matches_rebuild(d)
        n += 1
    assert n == 852


def _rebuilt(g: SmDG) -> SmDG:
    return SmDG.of(g.visibles, g.edges, g.marginal_system.maximal_faces,
                   g.selected_system.maximal_faces)


def test_records_leave_the_value_unchanged():
    for g in (*UNLIFTABLE, cases.canon_example_slp(), cases.teaser_b_slp()):
        before = (repr(g), dumps(g))
        is_liftable(g)
        canonical_graph(g)
        assert g == _rebuilt(g) and hash(g) == hash(_rebuilt(g))
        assert (repr(g), dumps(g)) == before


def test_searches_run_once_per_instance(monkeypatch):
    calls = Counter()
    for name in ("_build_canonical_graph", "cycle_without_special_edges"):
        def counted(*args, _name=name, _f=getattr(project, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(project, name, counted)
    g = cases.canon_example_slp()
    q = SeparationQuery.of({"b"}, {"d"}, {"c"})
    assert is_liftable(g) and canonical_graph(g) is canonical_graph(g)
    assert lift(g) == lift(g)
    assert sm_separated(g, q) is sm_separated(g, q)
    assert calls == {"_build_canonical_graph": 1, "cycle_without_special_edges": 1}
    # an equal value built anew keeps its own records
    again = _rebuilt(g)
    assert is_liftable(again) and canonical_graph(again) == canonical_graph(g)
    assert calls == {"_build_canonical_graph": 2, "cycle_without_special_edges": 2}


def test_the_two_searches_stay_independent(monkeypatch):
    """Criterion 4 compares two searches; neither may read the other."""
    def refuse(*args):
        raise AssertionError("one search read the other")

    graphs = [*UNLIFTABLE, cases.canon_example_slp()]
    monkeypatch.setattr(project, "cycle_without_special_edges", refuse)
    cycles = [canonical_graph(_rebuilt(g)).cycle for g in graphs]
    monkeypatch.undo()
    monkeypatch.setattr(project, "_build_canonical_graph", refuse)
    assert [unliftable_cycle(_rebuilt(g)) is None for g in graphs] == [
        cycle is None for cycle in cycles
    ] == [False, False, False, True]


# Face vertices and their edges, pinned from the build that labelled each
# graph's faces itself, on ids chosen to make labels meet: ids holding "·"
# give two faces one base label, ids spelled like labels force "~k"
# suffixes, and singleton faces sit at special tails and heads.
_PINNED_FACES = [
    (SmDG.of(["a", "b", "a·b"], [], [["a", "b"], ["a·b"]], [["a", "b"], ["a·b"]]),
     (("m{a·b}", "MARGINALIZED"), ("m{a·b}~2", "MARGINALIZED"),
      ("s{a·b}", "SELECTED"), ("s{a·b}~2", "SELECTED")),
     (("a", "s{a·b}"), ("a·b", "s{a·b}~2"), ("b", "s{a·b}"), ("m{a·b}", "a"),
      ("m{a·b}", "b"), ("m{a·b}~2", "a·b")),
     None),
    (SmDG.of(["a", "b", "a·b"], [("a·b", "a·b")], [["a", "b"], ["a·b"]], [["a", "b"], ["a·b"]]),
     (("m{a·b}", "MARGINALIZED"), ("m⟨a·b·a·b⟩", "MARGINALIZED"),
      ("s{a·b}", "SELECTED"), ("s⟨a·b·a·b⟩", "SELECTED")),
     (("a", "s{a·b}"), ("a·b", "s⟨a·b·a·b⟩"), ("b", "s{a·b}"), ("m{a·b}", "a"),
      ("m{a·b}", "b"), ("m⟨a·b·a·b⟩", "a·b"), ("m⟨a·b·a·b⟩", "s⟨a·b·a·b⟩")),
     None),
    (SmDG.of(["a", "b", "m{a}", "s{b}", "s⟨a·b⟩"], [("a", "b")], [["a"], ["b", "m{a}"]],
             [["a"], ["b"]]),
     (("m{a}~2", "MARGINALIZED"), ("m{b·m{a}}", "MARGINALIZED"), ("m⟨a·b⟩", "MARGINALIZED"),
      ("s{b}~2", "SELECTED"), ("s⟨a·b⟩~2", "SELECTED")),
     (("a", "s⟨a·b⟩~2"), ("b", "s{b}~2"), ("m{a}~2", "a"), ("m{b·m{a}}", "b"),
      ("m{b·m{a}}", "m{a}"), ("m⟨a·b⟩", "b"), ("m⟨a·b⟩", "s⟨a·b⟩~2")),
     None),
    (SmDG.of(["a", "b", "a·b"], [("a", "b"), ("b", "a·b"), ("a·b", "a")],
             [["a", "b"], ["a·b"]]),
     (("m{a·b}", "MARGINALIZED"), ("m{a·b}~2", "MARGINALIZED")),
     (("a", "b"), ("a·b", "a"), ("b", "a·b"), ("m{a·b}", "a"), ("m{a·b}", "b"),
      ("m{a·b}~2", "a·b")),
     ("a", "b", "a·b", "a")),
]


@pytest.mark.parametrize("g, faces, edges, cycle", _PINNED_FACES,
                         ids=["same_base", "same_base_skipped", "ids_like_labels", "cyclic"])
def test_face_labels_on_colliding_ids(g, faces, edges, cycle):
    cg = canonical_graph(g)
    assert tuple((v, r.name) for v, r in cg.roles if v not in g.visibles) == faces
    assert cg.edges == edges and cg.cycle == cycle
    assert all(r is Role.VISIBLE for v, r in cg.roles if v in g.visibles)


_LABEL_IDS = ("a", "b", "c", "a·b", "b·c", "a·b·c", "m{a}", "s{b}", "m{a·b}", "s⟨a·b⟩",
              "m⟨a·b⟩~2")


def _colliding_smdgs(seed: str, n: int):
    rng = random.Random(seed)
    for _ in range(n):
        vis = rng.sample(_LABEL_IDS, rng.randint(3, 7))
        edges = [(rng.choice(vis), rng.choice(vis)) for _ in range(rng.randint(0, 5))]
        faces = [[rng.sample(vis, rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(0, 4))]
                 for _ in range(2)]
        yield SmDG.of(vis, edges, *faces)


def _canonical_digest(graphs) -> tuple[int, str]:
    digest, n = hashlib.sha256(), 0
    for g in graphs:
        cg = canonical_graph(g)
        text = json.dumps([[[v, r.value] for v, r in cg.roles], cg.edges, cg.cycle,
                           unliftable_cycle(g)])
        digest.update(text.encode() + b"\n")
        n += 1
    return n, digest.hexdigest()[:16]


@pytest.mark.parametrize("graphs, expected", [
    (lambda: _colliding_smdgs("canon-labels", 2000), (2000, "03ec3baf75237198")),
    (lambda: enumerate_smdgs(3, SmdgBounds(max_edges=3)), (46930, "607b451152158e9f")),
], ids=["colliding_ids", "sweep_space"])
def test_canonical_graphs_keep_their_bytes(graphs, expected):
    """Digests of every canonical graph and unliftable cycle, pinned from
    the build that labelled each graph's faces itself."""
    assert _canonical_digest(graphs()) == expected


def test_a_liftability_question_builds_no_adjacency():
    graphs = [*islice(enumerate_smdgs(3, SmdgBounds(max_edges=3)), 0, None, 97),
              *(g for g, *_ in _PINNED_FACES), *UNLIFTABLE]
    for g in graphs:
        is_liftable(g), canonical_graph(g)
        assert "_parents" not in vars(g) and "_children" not in vars(g), g
        fresh = _rebuilt(g)
        for v in sorted(g.visibles):
            assert g.parents_of(v) == fresh.parents_of(v)
            assert g.children_of(v) == fresh.children_of(v)
        assert "_parents" in vars(g) and "_children" in vars(g)


def test_recorded_unliftable_cycle_still_raises():
    q = SeparationQuery.of({"a"}, {"b"})
    for g in UNLIFTABLE:
        assert not is_liftable(g)
        assert not canonical_graph(g).is_acyclic
        for _ in range(2):
            with pytest.raises(NotLiftableError) as err:
                sm_separated(g, q)
            assert err.value.cycle == unliftable_cycle(g)
            assert_cycle_witness(err.value.cycle, g.edges, str(err.value))
        assert g == _rebuilt(g)


# --- interventional equivalence --------------------------------------------------------

def test_latent_fork_equivalent_to_latent_chain():
    assert observe_and_do_equivalent(cases.latent_fork(), cases.latent_chain())


def test_teasers_not_equivalent():
    assert not observe_and_do_equivalent(cases.teaser_a(), cases.teaser_b())


def test_equivalence_reflexive():
    d = cases.teaser_a()
    assert observe_and_do_equivalent(d, d)


def test_equivalence_requires_same_visibles():
    with pytest.raises(GraphError):
        observe_and_do_equivalent(cases.latent_fork(), cases.joint_selector())


# --- signatures ---------------------------------------------------------------------------

def test_signature_canon_example():
    sig = signature(cases.canon_example())
    assert sig.directed_edges == ()
    assert sig.special_pairs == (("a", "a"), ("b", "a"))
    assert sig.marginal_child_sets == (("a", "b"), ("c",), ("d",))
    assert sig.selected_parent_sets == (("a", "b", "c"), ("c", "d"))


def test_signature_plain_dag():
    d = PartitionedDag.of(visible="ab", edges=[("a", "b")])
    sig = signature(d)
    assert sig.directed_edges == (("a", "b"),)
    assert sig.special_pairs == ()
    assert sig.marginal_child_sets == ()
    assert sig.selected_parent_sets == ()


def test_signature_rejects_non_canonical():
    with pytest.raises(NotCanonicalError):
        signature(cases.teaser_a())


def test_signature_round_trip_worked_examples():
    for make in (cases.canon_example, cases.latent_fork, cases.joint_selector):
        d = make()
        assert is_canonical(d)
        rebuilt = canonical_graph(slp(d)).to_partitioned_dag()
        assert signature(rebuilt) == signature(d)


def test_signature_round_trip_bare_special_edge():
    d = PartitionedDag.of(
        visible="ab", marginalized=["m"], selected=["s"],
        edges=[("a", "s"), ("m", "s"), ("m", "b")],
    )
    assert is_canonical(d)
    rebuilt = canonical_graph(slp(d)).to_partitioned_dag()
    assert signature(rebuilt) == signature(d)
    assert same_up_to_nonvisible_labels(rebuilt, d)


def test_long_chain_projects_and_lifts():
    d = long_chain_dag(1500)
    g = slp(d)
    assert g.edges == frozenset(d.edges)
    assert is_liftable(g)
    assert lift(g) == d
    faced = long_chain_smdg(1500)
    assert is_liftable(faced)
    assert len(lift(faced).marginalized) == 1500
