import inspect
import random

import pytest

from smdg import canon
from smdg.enumeration import enumerate_partitioned_dags
from smdg.graph import GraphError, PartitionedDag, Role, UnknownVertexError, is_acyclic
from smdg.canon import (
    ConfluenceError,
    PreconditionError,
    _fresh,
    canonicalize,
    exog_all,
    exogenize,
    is_canonical,
    merge_marginalized,
    merge_selected,
    replay_steps,
    rmv_red_m,
    rmv_red_s,
    split_m_to_s,
    term_all,
    terminalize,
    to_special,
)
from smdg.project import signature, slp

import cases
from helpers import (
    assert_matches_rebuild,
    count_calls,
    decorated_chain_dag,
    one_shot_dag,
    same_up_to_nonvisible_labels,
)


# --- exogenize / terminalize -------------------------------------------------

def test_exogenize_worked_example():
    assert exogenize(cases.exog_before(), "m") == cases.exog_after()


def test_exogenize_parentless_is_identity():
    d = cases.exog_after()
    assert exogenize(d, "m") == d


def test_exogenize_latent_chain():
    d = exogenize(cases.latent_chain(), "a2")
    assert ("a", "c") in set(d.edges)
    assert ("a", "a2") not in set(d.edges)


def test_exogenize_requires_marginalized():
    with pytest.raises(PreconditionError):
        exogenize(cases.exog_before(), "v1")


def test_terminalize_childless_is_identity():
    d = cases.joint_selector()
    assert terminalize(d, "s") == d


def test_terminalize_removes_outgoing():
    d = PartitionedDag.of(
        visible=["v1", "v2", "a"],
        selected="s",
        edges=[("a", "s"), ("s", "v1"), ("s", "v2"), ("a", "v1")],
    )
    out = terminalize(d, "s")
    assert set(out.edges) == {("a", "s"), ("a", "v1")}


def test_terminalize_chain():
    d = PartitionedDag.of(visible="ab", selected="s", edges=[("a", "s"), ("s", "b")])
    out = terminalize(d, "s")
    assert set(out.edges) == {("a", "s")}
    assert out.parents_of("b") == frozenset()


def test_exog_term_fixed_point():
    d = cases.teaser_a()
    assert exog_all(d) == d
    assert term_all(d) == d


def test_exog_all_chain_order_independent():
    d = PartitionedDag.of(
        visible="v", marginalized=["m1", "m2"], edges=[("m1", "m2"), ("m2", "v")]
    )
    out = exog_all(d)
    assert set(out.edges) == {("m1", "v"), ("m2", "v")}
    for seed in range(5):
        assert exog_all(d, random.Random(seed)) == out


# --- merges ------------------------------------------------------------------

def test_merge_marginalized_worked_example():
    out = merge_marginalized(cases.merge_m_before(), "m1", "m2")
    assert same_up_to_nonvisible_labels(out, cases.merge_m_after())


def test_merge_marginalized_requires_shared_selected_child():
    d = PartitionedDag.of(
        visible="v", marginalized=["m1", "m2"], edges=[("m1", "v"), ("m2", "v")]
    )
    with pytest.raises(PreconditionError, match="selected child"):
        merge_marginalized(d, "m1", "m2")


def test_merge_marginalized_union_absorbs():
    d = PartitionedDag.of(
        visible=["v1"],
        marginalized=["m1", "m2"],
        selected="s",
        edges=[("m1", "s"), ("m2", "s"), ("m2", "v1")],
    )
    out = merge_marginalized(d, "m1", "m2")
    (m,) = out.marginalized
    assert out.children_of(m) == {"s", "v1"}


def test_merge_selected_worked_example():
    out = merge_selected(cases.merge_s_before(), "s1", "s2")
    assert same_up_to_nonvisible_labels(out, cases.merge_s_after())


def test_merge_selected_requires_shared_marginalized_parent():
    d = PartitionedDag.of(
        visible="v", selected=["s1", "s2"], edges=[("v", "s1"), ("v", "s2")]
    )
    with pytest.raises(PreconditionError, match="marginalized parent"):
        merge_selected(d, "s1", "s2")


def test_merge_selected_union_absorbs():
    d = PartitionedDag.of(
        visible=["v1"],
        marginalized="m",
        selected=["s1", "s2"],
        edges=[("m", "s1"), ("m", "s2"), ("v1", "s2")],
    )
    out = merge_selected(d, "s1", "s2")
    (s,) = out.selected
    assert out.parents_of(s) == {"m", "v1"}


# --- splitting ----------------------------------------------------------------

def test_split_fan_worked_example():
    out = split_m_to_s(cases.split_fan_before(), "m", "s")
    assert same_up_to_nonvisible_labels(out, cases.split_fan_after())


def test_split_self_pairing_worked_example():
    out = split_m_to_s(cases.split_loop_before(), "m", "s")
    assert same_up_to_nonvisible_labels(out, cases.split_loop_after())


def test_split_rejects_singleton_sides():
    d = PartitionedDag.of(
        visible="ab",
        marginalized="m",
        selected="s",
        edges=[("a", "s"), ("m", "s"), ("m", "b")],
    )
    with pytest.raises(PreconditionError, match="final form"):
        split_m_to_s(d, "m", "s")


def test_split_rejects_missing_edge():
    d = PartitionedDag.of(visible="a", marginalized="m", selected="s", edges=[("a", "s")])
    with pytest.raises(PreconditionError, match="absent"):
        split_m_to_s(d, "m", "s")


# --- special edges -------------------------------------------------------------

def test_to_special_requires_selected_child():
    d = PartitionedDag.of(
        visible="ab", marginalized="m", edges=[("a", "b"), ("m", "b")]
    )
    with pytest.raises(PreconditionError, match="selected child"):
        to_special(d, "a", "b")


def test_to_special_rewrites_edge():
    d = PartitionedDag.of(
        visible="ab",
        marginalized="m",
        selected="s",
        edges=[("a", "b"), ("a", "s"), ("m", "b")],
    )
    out = to_special(d, "a", "b")
    assert ("a", "b") not in set(out.edges)
    news = out.selected - {"s"}
    newm = out.marginalized - {"m"}
    assert len(news) == 1 and len(newm) == 1
    (s2,), (m2,) = news, newm
    assert out.parents_of(s2) == {"a", m2}
    assert out.children_of(m2) == {s2, "b"}


# --- guard clauses ------------------------------------------------------------
# Graphs that fail one guard each; several hold more than one offender, listed
# out of order, so that a message pins the sorted-first one.

_FED = PartitionedDag.of(
    visible="ab", marginalized=["m3", "m1", "m2"], selected=["s2", "s1"],
    edges=[("a", "m3"), ("a", "m1"), ("a", "m2"), ("m1", "b"), ("a", "s2"), ("a", "s1"),
           ("s2", "b"), ("s1", "b")],
)
_FEEDING = PartitionedDag.of(
    visible="ab", marginalized="m", selected=["s3", "s1", "s2"],
    edges=[("m", "a"), ("a", "s3"), ("a", "s1"), ("a", "s2"), ("s3", "b"), ("s1", "b"),
           ("s2", "b")],
)
_MERGE_M = PartitionedDag.of(
    visible="ab", marginalized=["m2", "m1"], selected="s",
    edges=[("m2", "s"), ("m1", "s"), ("m1", "a"), ("m2", "b"), ("a", "s")],
)
_MERGE_S = PartitionedDag.of(
    visible="ab", marginalized="m", selected=["s2", "s1"],
    edges=[("m", "s2"), ("m", "s1"), ("a", "s1"), ("b", "s2"), ("m", "a")],
)
_MERGE_BOTH = PartitionedDag.of(
    visible="a", marginalized=["m2", "m1"], selected=["s2", "s1"],
    edges=[("m1", "s1"), ("m2", "s1"), ("m1", "s2"), ("a", "s1"), ("a", "s2"), ("m1", "a")],
)
_LONERS = PartitionedDag.of(
    visible="ab", marginalized=["m1", "m2"], selected=["s1", "s2"],
    edges=[("m1", "a"), ("m2", "b"), ("a", "s1"), ("b", "s2")],
)
_SPLIT_PARENTS = PartitionedDag.of(  # s has two visible parents
    visible="abc", marginalized="m", selected="s",
    edges=[("m", "s"), ("a", "s"), ("b", "s"), ("m", "c"), ("a", "c")],
)
_SPLIT_CHILDREN = PartitionedDag.of(  # m has two visible children
    visible="abc", marginalized="m", selected="s",
    edges=[("m", "s"), ("a", "s"), ("m", "b"), ("m", "c"), ("a", "b")],
)
_SPLIT_BARE = PartitionedDag.of(  # s has no visible parent
    visible="ab", marginalized="m", selected="s", edges=[("m", "s"), ("m", "a"), ("a", "b")],
)
_FINAL = PartitionedDag.of(
    visible="abc", marginalized="m", selected="s",
    edges=[("a", "s"), ("m", "s"), ("m", "b"), ("a", "b"), ("b", "c"), ("a", "c")],
)

_P, _U = PreconditionError, UnknownVertexError
_FED_M = "marginalized vertex 'm1' still has parents"
_FEEDING_S = "selected vertex 's1' still has children"
_MERGEABLE_M = "mergeable marginalized vertices remain"
_MERGEABLE_S = "mergeable selected vertices remain"
_UNKNOWN = "vertex 'zz' is not in the graph"

GUARDS = [
    (terminalize, _FINAL, ("a",), _P, "terminalize: 'a' is not selected"),
    (terminalize, _FINAL, ("m",), _P, "terminalize: 'm' is not selected"),
    (terminalize, _FINAL, ("zz",), _U, _UNKNOWN),
    (exogenize, _FINAL, ("s",), _P, "exogenize: 's' is not marginalized"),
    (exogenize, _FINAL, ("b",), _P, "exogenize: 'b' is not marginalized"),
    (exogenize, _FINAL, ("zz",), _U, _UNKNOWN),
    (merge_marginalized, _FED, ("m1", "m2"), _P, "merge_marginalized: " + _FED_M),
    (merge_marginalized, _FED, ("zz", "a"), _P, "merge_marginalized: " + _FED_M),
    (merge_marginalized, _FEEDING, ("m", "m"), _P, "merge_marginalized: " + _FEEDING_S),
    (merge_marginalized, _MERGE_M, ("zz", "m1"), _U, _UNKNOWN),
    (merge_marginalized, _MERGE_M, ("m1", "zz"), _U, _UNKNOWN),
    (merge_marginalized, _MERGE_M, ("m1", "a"), _P, "merge_marginalized: 'a' is not marginalized"),
    (merge_marginalized, _MERGE_M, ("s", "m1"), _P, "merge_marginalized: 's' is not marginalized"),
    (merge_marginalized, _MERGE_M, ("m1", "m1"), _P,
     "merge_marginalized: the two vertices must be distinct"),
    (merge_marginalized, _LONERS, ("m1", "m2"), _P, "merge_marginalized: no shared selected child"),
    (merge_selected, _FED, ("s1", "s2"), _P, "merge_selected: " + _FED_M),
    (merge_selected, _FEEDING, ("s1", "s2"), _P, "merge_selected: " + _FEEDING_S),
    (merge_selected, _MERGE_S, ("zz", "s1"), _U, _UNKNOWN),
    (merge_selected, _MERGE_S, ("s1", "zz"), _U, _UNKNOWN),
    (merge_selected, _MERGE_S, ("s1", "m"), _P, "merge_selected: 'm' is not selected"),
    (merge_selected, _MERGE_S, ("a", "s1"), _P, "merge_selected: 'a' is not selected"),
    (merge_selected, _MERGE_S, ("s1", "s1"), _P, "merge_selected: the two vertices must be distinct"),
    (merge_selected, _LONERS, ("s1", "s2"), _P, "merge_selected: no shared marginalized parent"),
    (split_m_to_s, _FED, ("m1", "s1"), _P, "split_m_to_s: " + _FED_M),
    (split_m_to_s, _FEEDING, ("m", "s1"), _P, "split_m_to_s: " + _FEEDING_S),
    (split_m_to_s, _MERGE_M, ("m1", "s"), _P, "split_m_to_s: " + _MERGEABLE_M),
    (split_m_to_s, _MERGE_BOTH, ("m1", "s1"), _P, "split_m_to_s: " + _MERGEABLE_M),
    (split_m_to_s, _MERGE_S, ("m", "s1"), _P, "split_m_to_s: " + _MERGEABLE_S),
    (split_m_to_s, _FINAL, ("s", "m"), _P, "split_m_to_s: edge 's' -> 'm' is absent"),
    (split_m_to_s, _FINAL, ("zz", "s"), _P, "split_m_to_s: edge 'zz' -> 's' is absent"),
    (split_m_to_s, _FINAL, ("m", "zz"), _P, "split_m_to_s: edge 'm' -> 'zz' is absent"),
    (split_m_to_s, _FINAL, ("m", "b"), _P,
     "split_m_to_s: edge endpoints must be marginalized -> selected"),
    (split_m_to_s, _FINAL, ("a", "s"), _P,
     "split_m_to_s: edge endpoints must be marginalized -> selected"),
    (split_m_to_s, _FINAL, ("m", "s"), _P,
     "split_m_to_s: both sides are singletons; the edge is already in final form"),
    (to_special, _FED, ("a", "b"), _P, "to_special: " + _FED_M),
    (to_special, _FEEDING, ("a", "b"), _P, "to_special: " + _FEEDING_S),
    (to_special, _MERGE_M, ("a", "b"), _P, "to_special: " + _MERGEABLE_M),
    (to_special, _MERGE_BOTH, ("a", "b"), _P, "to_special: " + _MERGEABLE_M),
    (to_special, _MERGE_S, ("a", "b"), _P, "to_special: " + _MERGEABLE_S),
    (to_special, _SPLIT_PARENTS, ("a", "c"), _P,
     "to_special: splittable marginalized -> selected edges remain"),
    (to_special, _SPLIT_CHILDREN, ("a", "b"), _P,
     "to_special: splittable marginalized -> selected edges remain"),
    (to_special, _SPLIT_BARE, ("a", "b"), _P,
     "to_special: splittable marginalized -> selected edges remain"),
    (to_special, _FINAL, ("b", "a"), _P, "to_special: edge 'b' -> 'a' is absent"),
    (to_special, _FINAL, ("zz", "a"), _P, "to_special: edge 'zz' -> 'a' is absent"),
    (to_special, _FINAL, ("a", "zz"), _P, "to_special: edge 'a' -> 'zz' is absent"),
    (to_special, _FINAL, ("a", "s"), _P, "to_special: both endpoints must be visible"),
    (to_special, _FINAL, ("m", "b"), _P, "to_special: both endpoints must be visible"),
    (to_special, _FINAL, ("b", "c"), _P, "to_special: 'b' has no selected child"),
    (to_special, _FINAL, ("a", "c"), _P, "to_special: 'c' has no marginalized parent"),
]


@pytest.mark.parametrize(
    "rewrite, d, args, error, message", GUARDS,
    ids=[f"{rewrite.__name__}-{i}" for i, (rewrite, *_) in enumerate(GUARDS)],
)
def test_guard_clause_messages(rewrite, d, args, error, message):
    with pytest.raises(GraphError) as exc:
        rewrite(d, *args)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_the_guard_graphs_pass_the_guards_they_do_not_test():
    # each rewrite succeeds on the graph whose guards its table rows pass
    assert to_special(_FINAL, "a", "b") != _FINAL
    assert split_m_to_s(_SPLIT_PARENTS, "m", "s") != _SPLIT_PARENTS
    assert split_m_to_s(_SPLIT_BARE, "m", "s") != _SPLIT_BARE
    assert merge_marginalized(_MERGE_M, "m1", "m2").marginalized == {"m⟨m1·m2⟩"}
    assert merge_selected(_MERGE_S, "s2", "s1").selected == {"s⟨s1·s2⟩"}


def test_teaser_a_to_special_yields_canon_example():
    d = to_special(cases.teaser_a(), "b", "a")
    assert same_up_to_nonvisible_labels(d, cases.canon_example())


# --- redundancy removal ---------------------------------------------------------

def test_rmv_red_worked_example():
    out = rmv_red_s(rmv_red_m(cases.redundant_before()))
    assert out == cases.redundant_after()


def test_rmv_red_incomparable_unchanged():
    d = cases.merge_m_before()
    assert rmv_red_m(d) == d


def test_rmv_red_equal_children_keeps_smallest_label():
    d = PartitionedDag.of(
        visible="v", marginalized=["m1", "m2"], edges=[("m1", "v"), ("m2", "v")]
    )
    out = rmv_red_m(d)
    assert out.marginalized == {"m1"}


# --- canonicalize ----------------------------------------------------------------

def test_canonicalize_teaser_matches_canon_example():
    report = canonicalize(cases.teaser_a())
    assert same_up_to_nonvisible_labels(report.output, cases.canon_example())


def test_canonicalize_latent_chain_matches_latent_fork():
    report = canonicalize(cases.latent_chain())
    assert same_up_to_nonvisible_labels(report.output, cases.latent_fork())


def test_canonicalize_canonical_input_is_identity():
    d = cases.canon_example()
    report = canonicalize(d)
    assert report.output == d
    assert report.steps == ()


def test_canonicalize_replay_reproduces_output():
    for make in (cases.teaser_a, cases.teaser_b, cases.latent_chain, cases.split_fan_before):
        report = canonicalize(make())
        assert report.replay() == report.output


GOLDEN_STEPS = {
    "teaser_a": (("to_special", ("b", "a")),),
    "teaser_b": (("to_special", ("c", "a")), ("remove_vertex", ("m1",))),
    "latent_chain": (("exogenize", ("a2",)), ("remove_vertex", ("a2",))),
    "split_fan_before": (("split_m_to_s", ("m", "s")),),
    "split_loop_before": (("split_m_to_s", ("m", "s")),),
    "redundant_before": (("remove_vertex", ("m1",)), ("remove_vertex", ("s1",))),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STEPS))
def test_canonicalize_golden_steps(name):
    assert canonicalize(getattr(cases, name)()).steps == GOLDEN_STEPS[name]


def test_is_canonical_iff_no_steps():
    rng = random.Random(20261018)
    graphs = [
        *enumerate_partitioned_dags(2, 1, 1),
        *enumerate_partitioned_dags(2, 2, 1),
        *(_random_partitioned_dag(rng) for _ in range(300)),
    ]
    for d in graphs:
        assert is_canonical(d) == (canonicalize(d).steps == ()), d


def test_is_canonical_builds_no_graph(monkeypatch):
    graphs = [make() for make in (cases.canon_example, cases.teaser_a, cases.teaser_b,
                                  cases.split_fan_before, cases.redundant_before)]

    def refuse(*args, **kwargs):
        raise AssertionError("is_canonical constructed a graph")

    monkeypatch.setattr(PartitionedDag, "from_roles", classmethod(refuse))
    monkeypatch.setattr(PartitionedDag, "__init__", refuse)
    monkeypatch.setattr(PartitionedDag, "with_vertices", refuse)
    assert [is_canonical(d) for d in graphs] == [True, False, False, False, False]


@pytest.mark.parametrize("role", ["marginalized", "selected"])
def test_is_canonical_work_linear_in_latent_count(monkeypatch, role):
    # one latent parent, or one selected child, per visible: no rule fires,
    # and the finders must not compare every pair of such vertices
    n = 400
    d = decorated_chain_dag(n, role)
    calls = count_calls(monkeypatch, PartitionedDag, "parents_of", "children_of")
    assert is_canonical(d)
    assert sum(calls.values()) <= 12 * n, calls


def test_is_canonical_worked_examples():
    assert is_canonical(cases.canon_example())
    assert not is_canonical(cases.teaser_a())
    assert is_canonical(PartitionedDag.of())


def test_canonicalize_idempotent():
    for make in (cases.teaser_a, cases.teaser_b, cases.latent_chain, cases.split_loop_before):
        out = canonicalize(make()).output
        assert canonicalize(out).output == out


def test_canonical_shape_invariants():
    for make in (cases.teaser_a, cases.teaser_b, cases.merge_m_before, cases.split_fan_before):
        d = canonicalize(make()).output
        assert is_acyclic(d.vertices, d.edges)
        for m in d.marginalized:
            assert not d.parents_of(m)
            sel = d.children_of(m) & d.selected
            assert not sel or (len(sel) == 1 and len(d.children_of(m) & d.visible) == 1)
        for s in d.selected:
            assert not d.children_of(s)
            mar = d.parents_of(s) & d.marginalized
            assert not mar or (len(mar) == 1 and len(d.parents_of(s) & d.visible) == 1)
        for a, b in d.edges:
            if a in d.visible and b in d.visible:
                assert not (d.children_of(a) & d.selected and d.parents_of(b) & d.marginalized)


def _random_partitioned_dag(rng: random.Random, max_n=8) -> PartitionedDag:
    n = rng.randint(1, max_n)
    names = [f"x{i}" for i in range(n)]
    roles = [rng.choice("vms") for _ in names]
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    return PartitionedDag.of(
        visible=[v for v, r in zip(names, roles) if r == "v"],
        marginalized=[v for v, r in zip(names, roles) if r == "m"],
        selected=[v for v, r in zip(names, roles) if r == "s"],
        edges=edges,
    )


def _fingerprint(d: PartitionedDag):
    return signature(d)


def test_canonicalize_confluent_under_random_orders():
    rng = random.Random(20240811)
    for _ in range(25):
        d = _random_partitioned_dag(rng)
        baseline = canonicalize(d).output
        for k in range(20):
            shuffled = canonicalize(d, random.Random(rng.randint(0, 10**9))).output
            assert _fingerprint(shuffled) == _fingerprint(baseline)


def test_vacuous_vertices_are_dropped():
    d = PartitionedDag.of(visible="v", marginalized="m", selected="s", edges=[("m", "s")])
    out = canonicalize(d).output
    assert out.vertices == {"v"}


def test_fresh_only_tests_membership():
    """_fresh asks taken for membership and never copies it, so naming n
    labels against a growing set stays linear."""

    class MembershipOnly:
        # not a set subclass: set() copies one of those without __iter__
        def __init__(self, labels):
            self.labels = frozenset(labels)

        def __contains__(self, label):
            return label in self.labels

        def __iter__(self):
            raise RuntimeError("taken was iterated")

    taken = MembershipOnly({"m", "m~2"})
    assert _fresh("m", taken) == "m~3"
    assert _fresh("s", taken) == "s"


# --- one canonicalization per instance --------------------------------------

def test_canonicalize_is_recorded_on_the_instance():
    d = cases.teaser_a()
    assert canonicalize(d) is canonicalize(d)
    assert canonicalize(cases.teaser_a()) is not canonicalize(d)


def test_slp_after_canonicalize_applies_no_rule(monkeypatch):
    d = cases.teaser_a()
    canonicalize(d)
    want = slp(cases.teaser_a())

    def refuse(*args):
        raise AssertionError("a rule was applied")

    monkeypatch.setattr(canon, "_saturate", refuse)
    assert slp(d) == want
    with pytest.raises(AssertionError, match="a rule was applied"):
        slp(cases.teaser_a())


def test_slp_of_the_output_still_checks_it(monkeypatch):
    # nothing is recorded on the output, so slp must find it canonical itself
    report = canonicalize(cases.teaser_a())
    checks = []
    monkeypatch.setattr(canon, "is_canonical", lambda d: checks.append(d) or True)
    slp(report.output)
    assert checks == [report.output]


def test_canonicalize_with_rng_runs_the_rules(monkeypatch):
    d = cases.teaser_a()
    recorded = canonicalize(d)
    calls = []
    saturate = canon._saturate
    monkeypatch.setattr(canon, "_saturate", lambda *args: calls.append(args[1]) or saturate(*args))
    shuffled = canonicalize(d, random.Random(7))
    assert len(calls) > 0
    assert shuffled is not recorded and signature(shuffled.output) == signature(recorded.output)
    assert canonicalize(d) is recorded


def test_replay_reapplies_every_step(monkeypatch):
    report = canonicalize(cases.merge_s_before())
    assert len(report.steps) > 1
    applied = []
    for name, rewrite in list(canon._REWRITES.items()):
        monkeypatch.setitem(canon._REWRITES, name,
                            lambda d, *args, _n=name, _r=rewrite: applied.append(_n) or _r(d, *args))
    first, second = report.replay(), report.replay()
    assert first == second == report.output and first is not second
    assert applied == [name for name, _ in report.steps] * 2


# --- one pass over the rule table -------------------------------------------

def test_one_pass_reaches_the_fixed_point_under_any_order():
    """One pass over the table leaves no target: on every DAG with two
    visibles, one latent and one selection (latents with parents and
    selections with children included) and on one-shot style DAGs, with the
    targets taken in table order or shuffled."""
    rng = random.Random(20261019)
    graphs = [*enumerate_partitioned_dags(2, 1, 1, exogenous_terminal_only=False),
              *(one_shot_dag(rng) for _ in range(150))]
    assert len(graphs) == 543 + 150
    for i, d in enumerate(graphs):
        report = canonicalize(d)
        shuffled = canonicalize(d, random.Random(i))
        for out in (report.output, shuffled.output):
            assert is_canonical(out), d
        assert report.replay() == report.output
        assert shuffled.replay() == shuffled.output
        assert signature(shuffled.output) == signature(report.output)


def test_a_rule_that_re_enables_an_earlier_one_is_caught(monkeypatch):
    """If the last rule's rewrite also made a target for an earlier rule (a
    marginalized vertex with a parent, for exogenize), the one pass would
    not reach the fixed point, and the final check says so."""
    *rules, last = canon._RULES

    def also_add_a_fed_latent(d, *args):
        d = last.rewrite(d, *args)
        return d.with_vertices(add={"late": Role.MARGINALIZED},
                               add_edges={(min(d.visible), "late")})

    monkeypatch.setattr(canon, "_RULES", (*rules, last._replace(rewrite=also_add_a_fed_latent)))
    assert canonicalize(cases.teaser_a()).steps == GOLDEN_STEPS["teaser_a"]
    with pytest.raises(ConfluenceError, match="still applies"):
        canonicalize(cases.redundant_before())


# --- edits derived from the parent graph ------------------------------------

def _case_dags() -> list[PartitionedDag]:
    return [make() for _, make in sorted(vars(cases).items())
            if inspect.isfunction(make)
            and inspect.signature(make).return_annotation is PartitionedDag]


def test_every_canon_step_matches_a_rebuild():
    rng = random.Random(20261019)
    graphs = _case_dags() + [one_shot_dag(rng) for _ in range(150)]
    kinds = set()
    for d in graphs:
        report = canonicalize(d)
        current = d
        for step in report.steps:
            current = replay_steps(current, [step])
            assert_matches_rebuild(current)
        assert current == report.output
        kinds.update(name for name, _ in report.steps)
    assert kinds == set(canon._REWRITES)
