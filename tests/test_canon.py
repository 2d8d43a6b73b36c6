import inspect
import random

import pytest

from smdg import canon
from smdg.enumeration import enumerate_partitioned_dags
from smdg.graph import PartitionedDag, Role, is_acyclic
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
              *(_one_shot_dag(rng) for _ in range(150))]
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


def _one_shot_dag(rng: random.Random) -> PartitionedDag:
    """A random non-canonical DAG in the style of the one-shot benchmark:
    3-4 visibles, 1-3 each of marginalized and selected vertices, edges
    forward along a random order led by a latent, and most visibles given a
    latent parent."""
    vis = [f"v{i}" for i in range(rng.randint(3, 4))]
    mar = [f"m{i}" for i in range(rng.randint(1, 3))]
    sel = [f"s{i}" for i in range(rng.randint(1, 3))]
    rest = vis + mar[1:] + sel
    rng.shuffle(rest)
    order = [mar[0], *rest]
    edges = {(a, b) for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < 0.25}
    for j, v in enumerate(order):
        if v in vis and rng.random() < 0.75:
            edges.add((rng.choice([m for m in order[:j] if m in mar]), v))
    return PartitionedDag.of(vis, mar, sel, edges)


def test_every_canon_step_matches_a_rebuild():
    rng = random.Random(20261019)
    graphs = _case_dags() + [_one_shot_dag(rng) for _ in range(150)]
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
