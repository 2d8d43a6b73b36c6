import random
from fractions import Fraction
from itertools import product

import pytest

from smdg.model import (
    ProbTable,
    flat,
    product_intervention,
    sharp,
    smi_distribution,
    smo_distribution,
    uniform,
)
from smdg.oracle import (
    FactorizationStructure,
    OracleError,
    SupportPoint,
    SupportQuery,
    support_feasible,
    witness_directed_edge,
    witness_marginal_face,
    witness_selected_face,
    witness_self_loop,
    witness_to_model,
)

import cases
from cases import exactly_one_query, exactly_one_structure_joint, exactly_one_structure_pairwise
from helpers import brute_force_support_feasible, count_calls

F = Fraction


# --- support feasibility ---------------------------------------------------

def test_joint_selector_structure_feasible():
    res = support_feasible(exactly_one_structure_joint(), exactly_one_query())
    assert res.feasible
    model = witness_to_model(exactly_one_structure_joint(), res.witness)
    smo = smo_distribution(model)
    expected = {(1, 0, 0): F(1, 3), (0, 1, 0): F(1, 3), (0, 0, 1): F(1, 3)}
    assert smo.dist == ProbTable.of(("a", "b", "c"), expected)


def test_pairwise_selector_structure_infeasible_with_all_zero_certificate():
    fs = exactly_one_structure_pairwise()
    res = support_feasible(fs, exactly_one_query())
    assert not res.feasible
    assert dict(res.certificate.assignment) == {"a": 0, "b": 0, "c": 0}
    # every cell of the certificate point is forced by the three required points
    assert fs.cells_of(res.certificate) <= res.forced
    assert len(fs.cells_of(res.certificate)) == 6


def test_required_empty_is_degenerate():
    fs = exactly_one_structure_joint()
    with pytest.raises(OracleError, match="degenerate"):
        support_feasible(fs, SupportQuery.of([], [SupportPoint.of({"a": 0, "b": 0, "c": 0})]))


def test_point_outside_domain_rejected():
    fs = exactly_one_structure_joint()
    with pytest.raises(OracleError):
        support_feasible(
            fs,
            SupportQuery.of([SupportPoint.of({"a": 5, "b": 0, "c": 0})], []),
        )


def test_directed_edge_impossibility_via_interventional_support():
    """Factorization of the best-case structure without the edge: forcing the
    head to follow the tail while the tail ignores the head is unsatisfiable."""
    fs = FactorizationStructure.of(
        {"a": 2, "b": 2},
        {"e1": ("a", "b"), "e2": ("a",), "e3": ("b",), "e4": ("b",)},
    )
    req = [
        SupportPoint.of({"a": 0, "b": 0}, intervened=["a"]),
        SupportPoint.of({"a": 1, "b": 1}, intervened=["a"]),
        SupportPoint.of({"a": 0, "b": 1}, intervened=["b"]),
    ]
    forb = [SupportPoint.of({"a": 0, "b": 1}, intervened=["a"])]
    res = support_feasible(fs, SupportQuery.of(req, forb))
    assert not res.feasible
    # without the copy requirement the data is fine
    res2 = support_feasible(fs, SupportQuery.of(req[:1] + req[2:], forb))
    assert res2.feasible


def _random_query(rng, fs, n_req, n_forb):
    var_doms = dict(fs.variables)
    points = [
        SupportPoint.of({v: rng.choice(dom) for v, dom in var_doms.items()})
        for _ in range(n_req + n_forb)
    ]
    seen = set()
    req, forb = [], []
    for p in points:
        if p in seen:
            continue
        seen.add(p)
        (req if len(req) < n_req else forb).append(p)
    if not req:
        req = [SupportPoint.of({v: dom[0] for v, dom in var_doms.items()})]
        forb = [p for p in forb if p != req[0]]
    return SupportQuery.of(req, forb)


def test_propagation_matches_brute_force():
    rng = random.Random(20250808)
    scope_menus = [
        {"e1": ("a",)},
        {"e1": ("a", "b")},
        {"e1": ("a", "b"), "e2": ("b", "c")},
        {"e1": ("a", "b"), "e2": ("a", "c"), "e3": ("b", "c")},
        {"e1": ("a", "b", "c")},
    ]
    for factors in scope_menus:
        names = sorted({v for scope in factors.values() for v in scope})
        fs = FactorizationStructure.of({v: 2 for v in names}, factors)
        for _ in range(40):
            q = _random_query(rng, fs, rng.randint(1, 3), rng.randint(0, 3))
            assert support_feasible(fs, q).feasible == brute_force_support_feasible(fs, q)


def test_feasible_witness_realizes_the_support():
    rng = random.Random(4)
    fs = exactly_one_structure_pairwise()
    for _ in range(20):
        q = _random_query(rng, fs, rng.randint(1, 3), rng.randint(0, 2))
        res = support_feasible(fs, q)
        if not res.feasible:
            continue
        model = witness_to_model(fs, res.witness)
        dist = smo_distribution(model).dist
        for p in q.required:
            key = tuple(dict(p.assignment)[v] for v in "abc")
            assert dist.prob(key) > 0
        for p in q.forbidden:
            if p.intervened:
                continue
            key = tuple(dict(p.assignment)[v] for v in "abc")
            assert dist.prob(key) == 0


# --- witnesses ----------------------------------------------------------------

def test_self_loop_witness_numbers():
    model = witness_self_loop(cases.selfloop_shape())
    assert smo_distribution(model).dist.prob((0,)) == 0
    do0 = smi_distribution(model, ProbTable.of(("v",), {(0,): F(1)}))
    assert do0.dist.marginal([flat("v")]).prob((0,)) == 0
    do1 = smi_distribution(model, ProbTable.of(("v",), {(1,): F(1)}))
    assert do1.dist.marginal([flat("v")]).prob((0,)) == F(1, 4)


def test_self_loop_witness_pins_other_vertices():
    model = witness_self_loop(cases.canon_example())  # contains a -> s1 <- m1 -> a
    smo = smo_distribution(model)
    marg = smo.dist.marginal(["b", "c", "d"])
    assert marg.prob((0, 0, 0)) == 1


def test_self_loop_witness_requires_pattern():
    with pytest.raises(OracleError):
        witness_self_loop(cases.latent_fork())


def test_directed_edge_witness_realizations():
    plain, special = witness_directed_edge("a", "b")
    for model in (plain, special):
        for x in (0, 1):
            q = ProbTable.of(("a", "b"), {(x, 0): F(1, 2), (x, 1): F(1, 2)})
            res = smi_distribution(model, q)
            assert res.dist.marginal([flat("b")]).prob((x,)) == 1
        q = ProbTable.of(("a", "b"), {(0, 1): F(1, 2), (1, 1): F(1, 2)})
        res = smi_distribution(model, q)
        flat_a_given_do_b = res.dist.marginal([flat("a")])
        assert flat_a_given_do_b.prob((0,)) == 1


def test_marginal_face_witness_perfect_correlation():
    model = witness_marginal_face(["x", "y"])
    smo = smo_distribution(model)
    assert smo.dist == ProbTable.of(("x", "y"), {(0, 0): F(1, 2), (1, 1): F(1, 2)})
    # a hard intervention on one member leaves the other marginal fixed
    q = product_intervention(model, {"x": {1: F(1)}, "y": uniform((0, 1))})
    res = smi_distribution(model, q)
    assert res.dist.marginal([flat("y")]) == ProbTable.of(
        (flat("y"),), {(0,): F(1, 2), (1,): F(1, 2)}
    )


def test_marginal_face_witness_singleton():
    model = witness_marginal_face(["x"])
    assert smo_distribution(model).dist == ProbTable.of(
        ("x",), {(0,): F(1, 2), (1,): F(1, 2)}
    )


def test_face_witnesses_take_fresh_labels():
    """Members named like the witness's own latent or selection keep their
    names; the witness labels its extra vertex around them."""
    model = witness_marginal_face(["a", "m"])
    assert model.dag.visible == {"a", "m"} and model.dag.marginalized == {"m~2"}
    assert smo_distribution(model).dist == ProbTable.of(
        ("a", "m"), {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    )
    model = witness_selected_face(["a", "s"])
    assert model.dag.visible == {"a", "s"} and model.dag.selected == {"s~2"}
    q = product_intervention(model, {v: uniform((0, 1)) for v in "as"})
    res = smi_distribution(model, q)
    assert res.dist.marginal([sharp("a"), sharp("s")]) == ProbTable.of(
        (sharp("a"), sharp("s")), {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    )


def test_private_latents_take_fresh_labels():
    """A variable named like another variable's private latent keeps its
    name; the latents are labelled around it."""
    members = ["a", "u⟨a⟩"]
    model = witness_selected_face(members)
    assert model.dag.visible == set(members)
    assert model.dag.marginalized == {"u⟨a⟩~2", "u⟨u⟨a⟩⟩"}
    q = product_intervention(model, {v: uniform((0, 1)) for v in members})
    res = smi_distribution(model, q)
    assert res.dist.marginal([sharp(v) for v in members]) == ProbTable.of(
        tuple(sharp(v) for v in members), {(0, 0): F(1, 2), (1, 1): F(1, 2)}
    )
    fs = FactorizationStructure.of({"a": 2, "u⟨a⟩": 2}, {"e": members})
    res = support_feasible(fs, SupportQuery.of([SupportPoint.of({"a": 1, "u⟨a⟩": 0})], []))
    model = witness_to_model(fs, res.witness)
    assert model.dag.marginalized == {"u⟨a⟩~2", "u⟨u⟨a⟩⟩"}
    assert smo_distribution(model).dist == ProbTable.of(("a", "u⟨a⟩"), {(1, 0): F(1)})


def test_selected_face_witness_parity_tables():
    for size, members in ((2, ["x", "y"]), (3, ["x", "y", "z"])):
        model = witness_selected_face(members)
        q = product_intervention(model, {v: uniform((0, 1)) for v in members})
        res = smi_distribution(model, q)
        sharp_marginal = res.dist.marginal([sharp(v) for v in members])
        even = [k for k in product((0, 1), repeat=size) if sum(k) % 2 == 0]
        expected = ProbTable.of(
            tuple(sharp(v) for v in members), {k: F(1, len(even)) for k in even}
        )
        assert sharp_marginal == expected


def test_a_support_point_reads_the_domains_once(monkeypatch):
    """cells_of looks each value up in one domain map, not through
    domain(v), which rebuilds the map per call: one point over n variables
    costs O(n), not O(n^2)."""
    n = 2000
    fs = FactorizationStructure.of({f"v{i}": 2 for i in range(n)}, {"e": ["v0", "v1"]})
    point = SupportPoint.of({f"v{i}": i % 2 for i in range(n)})
    calls = count_calls(monkeypatch, FactorizationStructure, "domain")
    assert support_feasible(fs, SupportQuery.of([point], [])).feasible
    assert calls["domain"] <= 1, calls
