"""Acceptance criteria, one test per criterion.

Every check is exact (rational equality or structural identity); the only
bounds are the stated runtime budgets. Each test prints a single PASS/FAIL
line; run with ``pytest -s tests/test_acceptance.py`` to see them.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product

from smdg.canon import exogenize, merge_marginalized, merge_selected, \
    rmv_red_m, rmv_red_s, split_m_to_s
from smdg.enumeration import enumerate_canonical_dags, enumerate_smdgs
from smdg.graph import PartitionedDag
from smdg.model import (
    DiscreteModel,
    ProbTable,
    conditionally_independent,
    deterministic_kernel,
    flat,
    observe_or_do_distribution,
    product_intervention,
    sharp,
    smi_distribution,
    smo_distribution,
    table_kernel,
    uniform,
)
from smdg.oracle import (
    support_feasible,
    witness_selected_face,
    witness_self_loop,
    witness_to_model,
)
from smdg.project import canonical_graph, is_liftable, signature, slp
from smdg.rewrite import search_equivalence
from smdg.sep import SeparationQuery, Verdict, D_separated, sm_separated
from smdg.transport import transport, transport_obs_or_do

import cases
from cases import exactly_one_query, exactly_one_structure_joint, exactly_one_structure_pairwise
from helpers import assert_smo_is_smi_diagonal, same_up_to_nonvisible_labels
from test_transport import SHAPES, _grid, random_interventions, witness_triangle_model

F = Fraction


def report(number: int, detail: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.monotonic() - started:.2f}s): {detail}")


def test_criterion_01_three_variable_selection_distinguishability():
    started = time.monotonic()
    res = support_feasible(exactly_one_structure_joint(), exactly_one_query())
    assert res.feasible
    model = witness_to_model(exactly_one_structure_joint(), res.witness)
    expected = ProbTable.of(
        ("a", "b", "c"),
        {(1, 0, 0): F(1, 3), (0, 1, 0): F(1, 3), (0, 0, 1): F(1, 3)},
    )
    assert smo_distribution(model).dist == expected
    res2 = support_feasible(exactly_one_structure_pairwise(), exactly_one_query())
    assert not res2.feasible
    assert dict(res2.certificate.assignment) == {"a": 0, "b": 0, "c": 0}
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    report(1, "joint selector feasible with uniform-thirds witness; "
              "pairwise selectors refuted by the all-zero certificate", started)


def test_criterion_02_worked_figure_bit_matches():
    started = time.monotonic()
    assert exogenize(cases.exog_before(), "m") == cases.exog_after()
    assert same_up_to_nonvisible_labels(
        merge_marginalized(cases.merge_m_before(), "m1", "m2"), cases.merge_m_after()
    )
    assert same_up_to_nonvisible_labels(
        merge_selected(cases.merge_s_before(), "s1", "s2"), cases.merge_s_after()
    )
    assert same_up_to_nonvisible_labels(
        split_m_to_s(cases.split_fan_before(), "m", "s"), cases.split_fan_after()
    )
    assert same_up_to_nonvisible_labels(
        split_m_to_s(cases.split_loop_before(), "m", "s"), cases.split_loop_after()
    )
    assert rmv_red_s(rmv_red_m(cases.redundant_before())) == cases.redundant_after()
    assert slp(cases.teaser_a()) == cases.canon_example_slp()
    assert slp(cases.canon_example()) == cases.canon_example_slp()
    assert slp(cases.teaser_b()) == cases.teaser_b_slp()
    report(2, "all eight rewrite examples and both projections match", started)


def test_criterion_03_projection_round_trip():
    started = time.monotonic()
    count = 0
    for d in enumerate_canonical_dags(max_visible=3, max_nonvisible=3):
        rebuilt = canonical_graph(slp(d)).to_partitioned_dag()
        assert signature(rebuilt) == signature(d), d
        count += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(3, f"signature round-trip exact on {count} canonical DAGs", started)


def test_criterion_04_liftability_cross_check():
    started = time.monotonic()
    checked = 0
    for n in range(0, 5):
        for g in enumerate_smdgs(n):
            assert is_liftable(g) == canonical_graph(g).is_acyclic, g
            checked += 1
    report(4, f"cycle criterion agrees with rebuild acyclicity on {checked} smDGs",
           started)


def _queries(visibles):
    verts = sorted(visibles)
    for nx in (1, 2):
        for x in combinations(verts, nx):
            rest_x = [v for v in verts if v not in x]
            for ny in (1, 2):
                for y in combinations(rest_x, ny):
                    if x > y:
                        continue  # unordered pairs once
                    rest = [v for v in rest_x if v not in y]
                    for nz in range(0, min(2, len(rest)) + 1):
                        for z in combinations(rest, nz):
                            yield SeparationQuery.of(x, y, z)


def test_criterion_05_separation_agreement():
    started = time.monotonic()
    graphs = queries = 0
    for n in range(1, 4):
        query_list = list(_queries([chr(ord("a") + i) for i in range(n)]))
        for g in enumerate_smdgs(n, liftable_only=True):
            d = canonical_graph(g).to_partitioned_dag()
            extra = d.selected
            graphs += 1
            for q in query_list:
                lhs = sm_separated(g, q)
                rhs = D_separated(d, SeparationQuery(q.x, q.y, q.z | extra))
                assert lhs == rhs, (g, q)
                queries += 1
    # the worked example whose prose claim conflicts with the formal rule:
    # under the literal definition the shared vertex blocks the path, and the
    # canonical-DAG criterion agrees; reported here, not silently reconciled
    g = cases.canon_example_slp()
    q = SeparationQuery.of({"b"}, {"d"}, {"c"})
    assert sm_separated(g, q) is Verdict.SEPARATED
    d = canonical_graph(g).to_partitioned_dag()
    assert D_separated(d, SeparationQuery(q.x, q.y, q.z | d.selected)) is Verdict.SEPARATED
    print("NOTE criterion 5: the source text reads b -- c -- d as active given c; "
          "the formal non-collider rule blocks it at c and both criteria agree")
    report(5, f"100% agreement over {graphs} liftable smDGs, {queries} queries",
           started)


def _random_model(rng: random.Random, max_vertices=5, max_dom=3):
    # latents first, selections last, and every visible gets a latent parent
    # so the variables are stochastic and queries are rarely degenerate
    n = rng.randint(4, max_vertices)
    n_m = 2
    n_s = rng.randint(0, 1)
    n_v = n - n_m - n_s
    ms = [f"m{i}" for i in range(n_m)]
    vs = [f"v{i}" for i in range(n_v)]
    ss = [f"s{i}" for i in range(n_s)]
    names = ms + vs + ss
    edges = {
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
        if rng.random() < 0.3
    }
    # spread the visibles across the latents so not everything is confounded
    for i, v in enumerate(vs):
        edges.add((ms[i % n_m], v))
    dag = PartitionedDag.of(visible=vs, marginalized=ms, selected=ss, edges=edges)
    domains = {v: tuple(range(rng.randint(2, max_dom))) for v in sorted(dag.vertices)}
    kernels = {}
    for v in sorted(dag.vertices):
        parents = sorted(dag.parents_of(v))
        pdoms = [domains[p] for p in parents]
        if v in dag.visible:
            kernels[v] = deterministic_kernel(
                parents, pdoms, domains[v], lambda *k: rng.choice(domains[v])
            )
        else:
            def rand_row(*_k):
                weights = [rng.randint(1, 4) for _ in domains[v]]
                total = sum(weights)
                return {val: F(w, total) for val, w in zip(domains[v], weights)}

            kernels[v] = table_kernel(parents, pdoms, domains[v], rand_row)
    return DiscreteModel.of(dag, domains, kernels)


def test_criterion_06_separation_soundness_in_models():
    started = time.monotonic()
    rng = random.Random(20260810)
    checked = separations = 0
    while checked < 300:
        model = _random_model(rng)
        dag = model.dag
        dist = smo_distribution(model).dist  # positive rows guarantee selection
        checked += 1
        visibles = sorted(dag.visible)
        for x, y in combinations(visibles, 2):
            rest = [v for v in visibles if v not in (x, y)]
            for nz in range(len(rest) + 1):
                for z in combinations(rest, nz):
                    q = SeparationQuery.of({x}, {y}, z)
                    verdict = D_separated(
                        dag, SeparationQuery(q.x, q.y, q.z | dag.selected)
                    )
                    if verdict is Verdict.SEPARATED:
                        separations += 1
                        assert conditionally_independent(dist, [x], [y], list(z)), (
                            model, q,
                        )
    assert separations >= 50  # the sample must actually exercise the claim
    report(6, f"zero violations over 300 models, {separations} separations held "
              "as exact rational identities", started)


def test_criterion_07_transport_equality():
    """smi is linear in q: it normalizes ``sum_c q(c) * R(c, .)``. The
    grid's uniform point has full support, so equal results there already
    force the two models' ``R`` to be equal up to one positive scale, and
    with it equal results for every q. The two seeded random interventions
    per model, one on every cell and one on part of them, check the
    contraction with q that each call runs."""
    started = time.monotonic()
    for shape_name in sorted(SHAPES):
        rng = random.Random(f"acceptance-{shape_name}")
        q_rng = random.Random(f"acceptance-q-{shape_name}")
        for _ in range(50):
            model, move = SHAPES[shape_name](rng)
            moved = transport(model, move)
            assert smo_distribution(moved).dist == smo_distribution(model).dist
            for q in _grid(model) + random_interventions(model, q_rng):
                r1, r2 = smi_distribution(model, q), smi_distribution(moved, q)
                assert r1.status == r2.status
                if r1.status == "ok":
                    assert r1.dist == r2.dist
            assert_smo_is_smi_diagonal(model)
            assert_smo_is_smi_diagonal(moved)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(7, "eight rewrites x 50 models: selected observational, five-point "
              "and two random interventional tables exactly invariant; smo is "
              "the renormalized diagonal of uniform smi on both sides", started)


def test_criterion_08_witness_numbers():
    started = time.monotonic()
    model = witness_self_loop(cases.selfloop_shape())
    do0 = smi_distribution(model, ProbTable.of(("v",), {(0,): F(1)}))
    do1 = smi_distribution(model, ProbTable.of(("v",), {(1,): F(1)}))
    assert do0.dist.marginal([flat("v")]).prob((0,)) == 0
    assert do1.dist.marginal([flat("v")]).prob((0,)) == F(1, 4)
    for members in (["x", "y"], ["x", "y", "z"]):
        parity = witness_selected_face(members)
        q = product_intervention(parity, {v: uniform((0, 1)) for v in members})
        res = smi_distribution(parity, q)
        sharp_marginal = res.dist.marginal([sharp(v) for v in members])
        even = [k for k in product((0, 1), repeat=len(members)) if sum(k) % 2 == 0]
        assert sharp_marginal == ProbTable.of(
            tuple(sharp(v) for v in members), {k: F(1, len(even)) for k in even}
        )
    report(8, "self-loop witness gives 0 and 1/4; parity witness gives the "
              "uniform even tables for two and three members", started)


def test_criterion_09_observe_or_do_indistinguishability():
    started = time.monotonic()
    model = witness_triangle_model()
    moved = transport_obs_or_do(model)
    grid = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert observe_or_do_distribution(model, []).dist == \
        observe_or_do_distribution(moved, []).dist
    for p in grid:
        q = ProbTable.of(("v",), {(0,): F(1) - p, (1,): p})
        assert observe_or_do_distribution(model, ["v"], q).dist == \
            observe_or_do_distribution(moved, ["v"], q).dist
    # the joint observe-and-intervene data still separates the pair
    q1 = ProbTable.of(("v",), {(1,): F(1)})
    lhs = smi_distribution(model, q1).dist.marginal([flat("v")])
    rhs = smi_distribution(moved, q1).dist.marginal([flat("v")])
    assert lhs != rhs
    report(9, "observe-or-do pairs equal on the five-point grid for both "
              "probe sets while observe-and-do separates the pair", started)


def test_criterion_10_worked_equivalence_chain():
    started = time.monotonic()
    res = search_equivalence(cases.canon_example_slp(), cases.chain_face_removed(), depth=4)
    assert res.found
    assert len(res.proof.steps) <= 4
    assert {s.rule for s in res.proof.steps} == {
        "AddMarginalFace", "RemoveSpecialEdge", "RemoveSelfLoop", "RemoveSelectedFace",
    }
    res2 = search_equivalence(cases.chain_face_removed(), cases.teaser_b_slp(), depth=4)
    assert not res2.found
    assert "rule_mdag_lift" in res2.diagnostic
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    report(10, "four-step proof found with exactly the expected rules; the "
               "open pair reports the pluggable checker hook", started)
