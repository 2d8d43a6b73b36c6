import hashlib
import random
import re
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

import smdg.model
from smdg.graph import PartitionedDag
from smdg.model import (
    DiscreteModel,
    KernelTable,
    ModelError,
    ProbTable,
    SelectedOutError,
    add_private_latents,
    conditionally_independent,
    deterministic_kernel,
    eval_joint,
    model_dumps,
    model_loads,
    observe_or_do_distribution,
    private_latent,
    product_intervention,
    sharp,
    flat,
    smi_distribution,
    smo_distribution,
    table_kernel,
    uniform,
)
from smdg.oracle import (
    witness_directed_edge,
    witness_marginal_face,
    witness_selected_face,
    witness_self_loop,
)
from smdg.transport import transport

import cases
from test_transport import SHAPES, _grid, _rand_model

F = Fraction


def build(dag, sizes, spec):
    """spec: vertex -> ("det", fn) | ("dist", fn) | ("prior", mapping)."""
    domains = {v: tuple(range(sizes.get(v, 2))) for v in dag.vertices}
    kernels = {}
    for v in dag.vertices:
        parents = sorted(dag.parents_of(v))
        pdoms = [domains[p] for p in parents]
        kind, arg = spec[v]
        if kind == "det":
            kernels[v] = deterministic_kernel(parents, pdoms, domains[v], arg)
        elif kind == "dist":
            kernels[v] = table_kernel(parents, pdoms, domains[v], arg)
        else:
            kernels[v] = table_kernel(parents, pdoms, domains[v], lambda: arg)
    return DiscreteModel.of(dag, domains, kernels)


def joint_selector_model():
    """Three fair visible bits; selection keeps exactly-one-set assignments."""
    dag = add_private_latents(cases.joint_selector())
    return build(
        dag,
        {},
        {
            **{private_latent(v): ("prior", uniform([0, 1])) for v in "abc"},
            **{v: ("det", lambda u: u) for v in "abc"},
            "s": ("det", lambda a, b, c: 0 if a + b + c == 1 else 1),
        },
    )


def test_eval_joint_single_latent():
    dag = PartitionedDag.of(marginalized="u")
    m = build(dag, {"u": 2}, {"u": ("prior", uniform([0, 1]))})
    assert eval_joint(m) == ProbTable.of(("u",), {(0,): F(1, 2), (1,): F(1, 2)})


def test_eval_joint_uniform_latent_cells():
    m = joint_selector_model()
    latents = tuple(sorted(private_latent(v) for v in "abc"))
    joint = eval_joint(m).marginal(latents)
    assert all(p == F(1, 8) for _, p in joint.items())


def test_eval_joint_deterministic_chain_point_mass():
    dag = PartitionedDag.of(visible="ab", edges=[("a", "b")])
    m = build(dag, {}, {"a": ("det", lambda: 1), "b": ("det", lambda a: a)})
    assert eval_joint(m) == ProbTable.of(("a", "b"), {(1, 1): F(1)})


def test_smo_exactly_one_selected_uniform_third():
    smo = smo_distribution(joint_selector_model())
    expected = {(1, 0, 0): F(1, 3), (0, 1, 0): F(1, 3), (0, 0, 1): F(1, 3)}
    assert smo.dist == ProbTable.of(("a", "b", "c"), expected)
    assert smo.selection_probability == F(3, 8)


def test_smo_without_selection_is_plain_marginal():
    dag = add_private_latents(PartitionedDag.of(visible="a"))
    m = build(
        dag, {}, {private_latent("a"): ("prior", uniform([0, 1])), "a": ("det", lambda u: u)}
    )
    smo = smo_distribution(m)
    assert smo.dist == ProbTable.of(("a",), {(0,): F(1, 2), (1,): F(1, 2)})
    assert smo.selection_probability == F(1)


def test_smo_selected_out_raises():
    dag = PartitionedDag.of(visible="a", selected="s", edges=[("a", "s")])
    m = build(
        dag,
        {},
        {"a": ("det", lambda: 1), "s": ("det", lambda a: a)},  # s is always 1
    )
    with pytest.raises(SelectedOutError):
        smo_distribution(m)


def test_smi_selection_reveals_intervention():
    dag = PartitionedDag.of(visible="v", selected="s", edges=[("v", "s")])
    m = build(dag, {}, {"v": ("det", lambda: 0), "s": ("det", lambda v: v)})
    q = product_intervention(m, {"v": uniform([0, 1])})
    res = smi_distribution(m, q)
    assert res.status == "ok"
    sharp_marginal = res.dist.marginal([sharp("v")])
    assert sharp_marginal == ProbTable.of((sharp("v"),), {(0,): F(1)})


def test_smi_do_nothing_consistency():
    dag = add_private_latents(PartitionedDag.of(visible="ab"))
    m = build(
        dag,
        {},
        {
            private_latent("a"): ("prior", uniform([0, 1])),
            private_latent("b"): ("prior", {0: F(1, 4), 1: F(3, 4)}),
            "a": ("det", lambda u: u),
            "b": ("det", lambda u: u),
        },
    )
    obs = smo_distribution(m).dist
    q = ProbTable.of(("a", "b"), {k: p for k, p in obs.items()})
    res = smi_distribution(m, q)
    flats = res.dist.marginal([flat("a"), flat("b")])
    assert ProbTable.of(("a", "b"), dict(flats.items())) == obs


def test_smi_point_mass_on_deterministic_mode():
    dag = PartitionedDag.of(visible="ab", edges=[("a", "b")])
    m = build(dag, {}, {"a": ("det", lambda: 1), "b": ("det", lambda a: a)})
    q = ProbTable.of(("a", "b"), {(1, 1): F(1)})
    res = smi_distribution(m, q)
    flats = res.dist.marginal([flat("a"), flat("b")])
    assert flats == ProbTable.of((flat("a"), flat("b")), {(1, 1): F(1)})


def test_smi_selected_out_status():
    dag = PartitionedDag.of(visible="v", selected="s", edges=[("v", "s")])
    m = build(dag, {}, {"v": ("det", lambda: 0), "s": ("det", lambda v: 1 - v)})
    # selection requires v = 1; the intervention forces v = 0
    q = ProbTable.of(("v",), {(0,): F(1)})
    res = smi_distribution(m, q)
    assert res.status == "selected_out"
    assert res.dist is None


def test_observe_or_do_empty_z_is_smo():
    m = joint_selector_model()
    assert observe_or_do_distribution(m, []).dist == smo_distribution(m).dist


def test_observe_or_do_all_z_is_reweighted_q():
    m = joint_selector_model()
    q = product_intervention(m, {v: uniform([0, 1]) for v in "abc"})
    res = observe_or_do_distribution(m, "abc", q)
    expected = {(1, 0, 0): F(1, 3), (0, 1, 0): F(1, 3), (0, 0, 1): F(1, 3)}
    assert res.dist == ProbTable.of(("a", "b", "c"), expected)


@pytest.mark.parametrize("over", [None, ("a", "b")], ids=["visibles", "over"])
def test_product_intervention_names_a_missing_marginal(over):
    with pytest.raises(ModelError, match="no marginal for 'b'"):
        product_intervention(joint_selector_model(), {"a": uniform((0, 1))}, over)


def test_full_support_flag_rejects_partial_interventions():
    dag = PartitionedDag.of(visible="v", selected="s", edges=[("v", "s")])
    m = build(dag, {}, {"v": ("det", lambda: 0), "s": ("det", lambda v: v)})
    q = ProbTable.of(("v",), {(0,): F(1)})
    with pytest.raises(ModelError, match="full support"):
        smi_distribution(m, q, full_support=True)
    smi_distribution(m, q)  # unrestricted mode accepts it


def test_visible_kernels_must_be_deterministic():
    dag = PartitionedDag.of(visible="a")
    with pytest.raises(ModelError, match="deterministic"):
        DiscreteModel.of(
            dag,
            {"a": (0, 1)},
            {"a": table_kernel([], [], (0, 1), lambda: uniform([0, 1]))},
        )


def test_kernel_rows_must_sum_to_one():
    dag = PartitionedDag.of(marginalized="u")
    with pytest.raises(ModelError, match="sum to 1"):
        DiscreteModel.of(
            dag, {"u": (0, 1)}, {"u": KernelTable.of([], {(): (F(1, 2), F(1, 3))})}
        )


def test_row_keys_must_lie_in_parent_domains():
    dag = PartitionedDag.of(visible="a", marginalized="u", edges=[("u", "a")])
    rows = {(0,): (1, 0), (7,): (0, 1)}  # right row count, one key outside u's domain
    with pytest.raises(ModelError, match="outside its parents' domains"):
        DiscreteModel.of(
            dag,
            {"a": (0, 1), "u": (0, 1)},
            {"a": KernelTable.of(["u"], rows), "u": KernelTable.of([], {(): (F(1, 2), F(1, 2))})},
        )


U = PartitionedDag.of(marginalized="u")
UA = PartitionedDag.of(visible="a", marginalized="u", edges=[("u", "a")])
HALVES = KernelTable.of([], {(): (F(1, 2), F(1, 2))})


def _prior(*vec):
    return KernelTable.of([], {(): vec})


# One malformed model per message of DiscreteModel.validate, in the order the
# checks run: (dag, domains, kernels, selected zeros, message).
MALFORMED = {
    "cover": (U, {"u": (0, 1)}, {}, None,
              "domains and kernels must cover exactly the graph vertices"),
    "empty-domain": (U, {"u": ()}, {"u": _prior()}, None, "domain of 'u' is empty"),
    "duplicate-values": (U, {"u": (0, 0)}, {"u": HALVES}, None,
                         "domain of 'u' has duplicate values"),
    "zero-value": (PartitionedDag.of(selected="s"), {"s": (0, 1)}, {"s": _prior(1, 0)},
                   {"s": 2}, "selected vertex 's' lacks its zero value"),
    "parents": (UA, {"a": (0, 1), "u": (0, 1)}, {"a": _prior(1, 0), "u": HALVES}, None,
                "kernel of 'a' does not match its parents"),
    "rows": (UA, {"a": (0, 1), "u": (0, 1)},
             {"a": KernelTable.of(["u"], {(0,): (1, 0)}), "u": HALVES}, None,
             "kernel of 'a' is missing parent-assignment rows"),
    "keys": (UA, {"a": (0, 1), "u": (0, 1)},
             {"a": KernelTable.of(["u"], {(0,): (1, 0), (7,): (0, 1)}), "u": HALVES}, None,
             "kernel row (7,) of 'a' lies outside its parents' domains"),
    "width": (U, {"u": (0, 1)}, {"u": _prior(1)}, None,
              "kernel row of 'u' has the wrong width"),
    "sum": (U, {"u": (0, 1)}, {"u": _prior(F(1, 2), F(1, 3))}, None,
            "kernel row () of 'u' does not sum to 1"),
    # sums to 1 and is not a point mass, but the negative entry is named first
    "negative": (PartitionedDag.of(visible="a"), {"a": (0, 1)},
                 {"a": _prior(F(3, 2), F(-1, 2))}, None,
                 "kernel row () of 'a' has a negative entry"),
    # den is 2, so the point-mass row reads (2, 0) and the other (1, 1)
    "deterministic": (UA, {"a": (0, 1), "u": (0, 1)},
                      {"a": KernelTable.of(["u"], {(0,): (1, 0), (1,): (F(1, 2), F(1, 2))}),
                       "u": HALVES}, None,
                      "visible vertex 'a' must have a deterministic kernel"),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_validate_names_each_fault(case):
    dag, domains, kernels, zeros, message = MALFORMED[case]
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        DiscreteModel.of(dag, domains, kernels, zeros)


def test_rows_of_different_denominators_validate():
    rows = {(0,): (F(1, 2), F(1, 2)), (1,): (F(1, 3), F(2, 3))}
    kern = KernelTable.of(["a"], rows)
    assert kern.den == 6
    assert kern.rows == (((0,), (3, 3)), ((1,), (2, 4)))
    assert {key: kern.row(key) for key in rows} == rows
    dag = PartitionedDag.of(visible="a", marginalized="u", edges=[("a", "u")])
    DiscreteModel.of(dag, {"a": (0, 1), "u": (0, 1)}, {"a": _prior(0, 1), "u": kern})


def _models_with_kernels():
    """Models over every worked-example DAG of tests/cases.py, the oracle
    witnesses, and seeded transport shapes with their transports."""
    rng = random.Random("integer-form")
    made = [f() for f in vars(cases).values() if getattr(f, "__module__", None) == "cases"]
    dags = [d for d in made if isinstance(d, PartitionedDag)]
    assert len(dags) == 21
    yield joint_selector_model()
    for dag in dags:
        yield _rand_model(rng, dag)
    yield witness_self_loop(cases.selfloop_shape())
    yield from witness_directed_edge("a", "b")
    yield witness_marginal_face("ab")
    yield witness_selected_face("abc")
    for shape in sorted(SHAPES):
        model, move = SHAPES[shape](rng)
        yield model
        yield transport(model, move)


def test_integer_form_is_each_row_over_den(monkeypatch):
    """Every kernel the model builders make reads back its input rows, over
    the lcm of their denominators, and rebuilds to an equal kernel."""
    built = []
    of = KernelTable.of.__func__

    def recording_of(cls, parents, rows):
        kern = of(cls, parents, rows)
        built.append(({tuple(k): tuple(vec) for k, vec in rows.items()}, kern))
        return kern

    monkeypatch.setattr(KernelTable, "of", classmethod(recording_of))
    for _ in _models_with_kernels():
        pass
    monkeypatch.undo()
    for rows, kern in built:
        assert kern.den == lcm(*(F(p).denominator for vec in rows.values() for p in vec))
        assert [key for key, _ in kern.rows] == sorted(rows)
        assert {key: kern.row(key) for key in rows} == rows
        again = KernelTable.of(kern.parents, {key: kern.row(key) for key in rows})
        assert again == kern and hash(again) == hash(kern)
        assert repr(kern) == repr(again) == (
            f"KernelTable(parents={kern.parents!r}, den={kern.den!r}, rows={kern.rows!r})"
        )
    assert len(built) > 100


def test_deterministic_kernel_is_the_kernel_of_its_rows():
    """Built from 0/1 integer rows, a deterministic kernel equals, with the
    same repr, the kernel that ``KernelTable.of`` builds from the same rows,
    also where the function returns a value outside the domain."""
    rng = random.Random("deterministic-kernel")
    specs = []
    for _ in range(200):
        parents = [f"p{i}" for i in range(rng.randint(0, 3))]
        pdoms = [tuple(range(rng.randint(1, 3))) for _ in parents]
        domain = tuple(range(rng.randint(1, 4)))
        specs.append((parents, pdoms, domain,
                      {key: rng.choice(domain) for key in product(*pdoms)}))
    specs.append((["p"], [(0, 1)], (0, 1), {(0,): 0, (1,): 7}))
    for parents, pdoms, domain, fn in specs:
        got = deterministic_kernel(parents, pdoms, domain, lambda *key: fn[key])
        want = KernelTable.of(parents, {key: tuple(int(x == y) for x in domain)
                                        for key, y in fn.items()})
        assert got == want and repr(got) == repr(want)


def test_kernel_row_index_is_made_on_first_read():
    """Validation and evaluation read a kernel's rows whole, so a model that
    is built and evaluated builds no index of rows by key; the first
    ``numerators`` or ``row`` read records one."""
    model = joint_selector_model()
    smo_distribution(model)
    smi_distribution(model, product_intervention(model, {v: uniform((0, 1)) for v in "abc"}))
    assert not [v for v, kern in model.kernels if "_index" in vars(kern)]
    for v, kern in model.kernels:
        (key, vec), *_ = kern.rows
        assert kern.row(key) == tuple(F(n, kern.den) for n in vec)
        index = vars(kern)["_index"]
        assert kern.numerators(key) is vec and vars(kern)["_index"] is index
        assert index == dict(kern.rows)


def test_over_reduces_to_the_form_of_gives():
    """Integer numerators over any multiple of the lcm give the kernel that
    the same rows as Fractions give, den and rows alike."""
    rng = random.Random("kernel-over")
    for _ in range(200):
        width, den = rng.randint(1, 4), rng.choice([1, 2, 6, 12, 36, 60])
        rows = {}
        for key in range(rng.randint(1, 3)):
            cuts = sorted(rng.randint(0, den) for _ in range(width - 1))
            rows[(key,)] = tuple(b - a for a, b in zip([0, *cuts], [*cuts, den]))
        scale = rng.randint(1, 5)
        kern = KernelTable.over(["p"], den * scale, {k: [n * scale for n in vec]
                                                     for k, vec in rows.items()})
        want = KernelTable.of(["p"], {k: [F(n, den) for n in vec] for k, vec in rows.items()})
        assert repr(kern) == repr(want) and kern == want


def test_smi_records_one_kernel_per_model_instance(monkeypatch):
    """smi builds its kernel with one sum_product call per model instance and
    contracts it for every q; an equal model built anew pays its own call."""
    calls = []
    real = smdg.model.sum_product

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(smdg.model, "sum_product", counting)
    model = joint_selector_model()
    grid = [product_intervention(model, {v: uniform((0, 1)) for v in "abc"}),
            *(ProbTable.of(("a", "b", "c"), {cell: F(1)})
              for cell in ((0, 0, 0), (1, 0, 0), (1, 1, 1))),
            ProbTable.of(("a", "b", "c"), {(0, 0, 1): F(1, 3), (0, 1, 0): F(2, 3)})]
    first = [smi_distribution(model, q) for q in grid]
    assert len(calls) == 1
    twin = joint_selector_model()
    assert twin == model and twin is not model
    assert [smi_distribution(twin, q) for q in grid] == first
    assert len(calls) == 2


# Two faulty rows per kernel of the visible a over its latent u, whose domain
# is (0, 1, 2) unless given. The first faulty row in row order, (1,), has the
# named fault; the later one has the same fault, or one that a check run fault
# by fault over the whole kernel would meet first. (domain of u, rows, message)
_OUTSIDE = "kernel row (1,) of 'a' lies outside its parents' domains"
_WIDTH = "kernel row of 'a' has the wrong width"
_SUM = "kernel row (1,) of 'a' does not sum to 1"
_NEGATIVE = "kernel row (1,) of 'a' has a negative entry"
_DETERMINISTIC = "visible vertex 'a' must have a deterministic kernel"
TWO_FAULTY_ROWS = {
    "outside-outside": ((0, 2, 3), {(0,): (1, 0), (1,): (0, 1), (4,): (1, 0)}, _OUTSIDE),
    "width-width": ((0, 1, 2), {(0,): (1, 0), (1,): (1,), (2,): (1, 0, 0)}, _WIDTH),
    "width-outside": ((0, 1, 2), {(0,): (1, 0), (1,): (1,), (5,): (1, 0)}, _WIDTH),
    "sum-sum": ((0, 1, 2), {(0,): (1, 0), (1,): (F(1, 2), F(1, 3)), (2,): (1, 1)}, _SUM),
    "sum-width": ((0, 1, 2), {(0,): (1, 0), (1,): (F(1, 2), F(1, 3)), (2,): (1,)}, _SUM),
    "negative-negative": ((0, 1, 2), {(0,): (1, 0), (1,): (F(3, 2), F(-1, 2)),
                                      (2,): (2, -1)}, _NEGATIVE),
    "negative-sum": ((0, 1, 2), {(0,): (1, 0), (1,): (F(3, 2), F(-1, 2)),
                                 (2,): (F(1, 2), F(1, 3))}, _NEGATIVE),
    "deterministic-deterministic": ((0, 1, 2), {(0,): (1, 0), (1,): (F(1, 2), F(1, 2)),
                                                (2,): (F(1, 4), F(3, 4))}, _DETERMINISTIC),
    "deterministic-negative": ((0, 1, 2), {(0,): (1, 0), (1,): (F(1, 2), F(1, 2)),
                                           (2,): (F(3, 2), F(-1, 2))}, _DETERMINISTIC),
}


@pytest.mark.parametrize("case", list(TWO_FAULTY_ROWS))
def test_validate_names_the_first_faulty_row(case):
    u_domain, rows, message = TWO_FAULTY_ROWS[case]
    u_prior = KernelTable.of([], {(): (1,) + (0,) * (len(u_domain) - 1)})
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        DiscreteModel.of(UA, {"a": (0, 1), "u": u_domain},
                         {"a": KernelTable.of(["u"], rows), "u": u_prior})


def _pair_model(size):
    """Visibles a and b, each a copy of its own uniform latent over range(size)."""
    dag = add_private_latents(PartitionedDag.of(visible="ab"))
    latents = {private_latent(v): ("prior", uniform(range(size))) for v in "ab"}
    return build(dag, dict.fromkeys(dag.vertices, size),
                 {**latents, "a": ("det", lambda u: u), "b": ("det", lambda u: u)})


@pytest.mark.parametrize("cells, message", [
    ({(0, 0): 1, (0, 2): 1, (1, 3): 1}, "intervention assigns 2 outside the domain of 'b'"),
    ({(0, 0): 1, (1, 0): 1, (1, 1, 0): 1, (2,): 1},
     "intervention key (1, 1, 0) does not match ('a', 'b')"),
    ({(0, 0): 1, (0, 1, 0): 1, (0, 2): 1}, "intervention key (0, 1, 0) does not match ('a', 'b')"),
    ({(0, 0): 1, (0, 2): 1, (0, 3, 0): 1}, "intervention assigns 2 outside the domain of 'b'"),
], ids=["value-value", "length-length", "length-value", "value-length"])
def test_q_check_names_the_first_faulty_cell(cells, message):
    q = ProbTable.of(("a", "b"), {key: F(w, sum(cells.values())) for key, w in cells.items()})
    for _ in range(2):  # the second call reads the record the first one left on q
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            smi_distribution(_pair_model(2), q)


def test_q_check_refuses_a_negative_weight():
    """Weights that sum to one but hold a negative entry are no intervention:
    smi and observe-or-do name the first negative key in sorted order."""
    q = ProbTable.of(("a", "b"), {(0, 0): F(2), (0, 1): F(-1, 2), (1, 1): F(-1, 2)})
    message = "intervention key (0, 1) has a negative weight"
    for _ in range(2):  # the second call reads the record the first one left on q
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            smi_distribution(_pair_model(2), q)
        with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
            observe_or_do_distribution(_pair_model(2), ["a", "b"], q)
    qa = ProbTable.of(("a",), {(0,): F(3, 2), (1,): F(-1, 2)})
    with pytest.raises(ModelError, match=re.escape("intervention key (1,) has a negative weight")):
        observe_or_do_distribution(_pair_model(2), ["a"], qa)


def test_q_record_holds_only_facts_about_q():
    """One q asked of models with different domains: each model checks the
    recorded cells against its own domains."""
    q = ProbTable.of(("a", "b"), {(0, 0): F(1, 2), (2, 1): F(1, 2)})
    small, large = _pair_model(2), _pair_model(3)
    want = smi_distribution(large, ProbTable.of(q.variables, dict(q.table)))
    assert smi_distribution(large, q) == want
    message = "intervention assigns 2 outside the domain of 'a'"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        smi_distribution(small, q)
    assert smi_distribution(large, q) == want
    with pytest.raises(ModelError, match="full support"):
        smi_distribution(large, q, full_support=True)


def test_prob_table_equality_and_hash_are_those_of_the_fraction_tables():
    rng = random.Random("prob-table-equality")
    tables = []
    for _ in range(150):
        keys = rng.sample([(0,), (1,), (2,)], rng.randint(0, 3))
        tables.append({k: F(rng.randint(0, 3), rng.choice([1, 2, 3, 4, 6])) for k in keys})
    built = [ProbTable.of(("x",), t) for t in tables]
    for t1, p1 in zip(tables, built):
        for t2, p2 in zip(tables, built):
            same = {k: p for k, p in t1.items() if p} == {k: p for k, p in t2.items() if p}
            assert (p1 == p2) is same and (p1.table == p2.table) is same
            if same:
                assert hash(p1) == hash(p2)
    # the same distribution given at two scales is one reduced form
    twice = ProbTable(("x",), 6, (((0,), 2), ((1,), 4)))
    once = ProbTable(("x",), 3, (((0,), 1), ((1,), 2)))
    assert twice == once and hash(twice) == hash(once)
    assert (twice.den, twice.weights) == (3, (((0,), 1), ((1,), 2)))
    assert twice == ProbTable.of(("x",), {(0,): F(1, 3), (1,): F(2, 3), (2,): 0})
    assert twice.table == (((0,), F(1, 3)), ((1,), F(2, 3)))
    assert twice != ProbTable.of(("y",), {(0,): F(1, 3), (1,): F(2, 3)})
    # whatever Fraction(p) accepts, a zero of any type dropped
    assert ProbTable.of(("x",), {(0,): "1/4", (1,): 0.5, (2,): Decimal("0.25"), (3,): "0"}) == \
        ProbTable.of(("x",), {(0,): F(1, 4), (1,): F(1, 2), (2,): F(1, 4)})


def _reported(model):
    """smo, or its error, and smi at each point of the five-point grid."""
    try:
        yield smo_distribution(model)
    except SelectedOutError as exc:
        yield str(exc)
    for q in _grid(model):
        yield smi_distribution(model, q)


def reported_tables_digest() -> str:
    """sha256 of the repr of every smo and smi result over the models of
    ``_models_with_kernels``, and of each result's table."""
    digest = hashlib.sha256()
    for model in _models_with_kernels():
        for res in _reported(model):
            digest.update(repr(res).encode())
            if not isinstance(res, str) and res.dist is not None:
                digest.update(repr(res.dist.table).encode())
    return digest.hexdigest()


# Taken from the model layer that stored each reported entry as a Fraction.
REPORTED_TABLES_SHA256 = "ba3c152babb589ae5cd027dbb2340b6b0645b0bcdfbfc895fa2263622344908a"


def test_reported_tables_print_the_pinned_bytes():
    assert reported_tables_digest() == REPORTED_TABLES_SHA256


def test_prob_table_makes_its_fractions_on_first_read():
    """Equality, hash and marginals read the integer weights; a table's
    Fractions are made on its first read, once."""
    model = _pair_model(2)
    q = _grid(model)[3]
    r1, r2 = smi_distribution(model, q), smi_distribution(model, q)
    smo = smo_distribution(model)
    flats = r1.dist.marginal([flat("a"), flat("b")])
    assert r1 == r2 and hash(r1.dist) == hash(r2.dist) and smo.dist.weights == flats.weights
    assert not any("_table" in vars(t) for t in (r1.dist, r2.dist, smo.dist, flats))
    table = r1.dist.table
    assert r1.dist.table is table and vars(r1.dist)["_table"] is table
    assert "_table" not in vars(r2.dist)


@pytest.mark.parametrize("entry", [0.1, "1/2"], ids=["float", "string"])
def test_kernel_entries_must_be_ints_or_fractions(entry):
    message = f"kernel entry {entry!r} is not an int or a Fraction"
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        KernelTable.of([], {(): (F(1, 2), entry)})


def test_conditional_independence_checker():
    dag = add_private_latents(PartitionedDag.of(visible="ab"))
    m = build(
        dag,
        {},
        {
            private_latent("a"): ("prior", uniform([0, 1])),
            private_latent("b"): ("prior", uniform([0, 1])),
            "a": ("det", lambda u: u),
            "b": ("det", lambda u: u),
        },
    )
    dist = smo_distribution(m).dist
    assert conditionally_independent(dist, ["a"], ["b"], [])
    # perfectly correlated pair is not independent
    dag2 = add_private_latents(PartitionedDag.of(visible="ab"), only=["a"])
    dag2 = dag2.with_edges(add=[("a", "b")])
    m2 = build(
        dag2,
        {},
        {
            private_latent("a"): ("prior", uniform([0, 1])),
            "a": ("det", lambda u: u),
            "b": ("det", lambda a: a),
        },
    )
    dist2 = smo_distribution(m2).dist
    assert not conditionally_independent(dist2, ["a"], ["b"], [])


def test_model_json_round_trip():
    m = joint_selector_model()
    text = model_dumps(m)
    again = model_loads(text)
    assert again == m
    assert model_dumps(again) == text
