"""The sum-product evaluator against the brute-force walk of tests/helpers.

Both sides must give equal tables with byte-equal ``repr`` and equal
selection probabilities: ``eval_joint``, smo, smi on a five-point grid plus
interventions whose cells have different denominators (on every cell, on a
seeded sparse draw, and a point mass at a seeded cell), and observe-or-do
with a partial intervention set. Each model also checks smo against the
diagonal of smi under the uniform intervention.

The tie rule, which renames a summed-out variable that a pinned selection
forces equal to another, is checked the same way: on the moved models of
the copy-check shapes, and on hand-built ties between two latents, with a
factor that holds both tied variables, diagonal weights that differ by
value, two ties chained through one variable, a one-value domain, and a
selection with one off-diagonal entry, which must not tie.

The evaluator's parts are checked on their own too: ``_multiply`` against
a brute-force product of small random factors, the elimination order
against the greedy order that rescans every factor (``helpers.greedy_order``,
which applies the tie rule read from the kernels' rows), and a kernel
instance shared by models over differently labelled domains.
"""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import smdg.model
from smdg import sumproduct
from smdg.graph import PartitionedDag
from smdg.model import (
    DiscreteModel,
    KernelTable,
    ProbTable,
    SelectedOutError,
    deterministic_kernel,
    eval_joint,
    observe_or_do_distribution,
    smi_distribution,
    smo_distribution,
    table_kernel,
)
from smdg.transport import transport

from helpers import assert_smo_is_smi_diagonal, greedy_order, walk_joint, walk_ood, walk_smi
from test_transport import SHAPES, _grid, _rand_dist, _rand_model

F = Fraction


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SelectedOutError:
        return SelectedOutError


def _ramp(model, over, keep=None):
    """An intervention whose cells weigh 1, 2, 3, ... over their sum, so its
    cells do not share one denominator. Given ``keep``, it is on a seeded
    draw of ``keep(n)`` of the n cells."""
    domains = dict(model.domains)
    keys = list(product(*[domains[v] for v in over]))
    if keep:
        keys = random.Random(repr(over)).sample(keys, keep(len(keys)))
    total = len(keys) * (len(keys) + 1) // 2
    return ProbTable.of(over, {key: F(i + 1, total) for i, key in enumerate(keys)})


# a sparse draw (from four cells on: three cells or more, and not all of
# them) and a point mass at a seeded cell, whose values differ between
# variables where the grid's point masses do not
SAMPLES = (lambda n: n // 2 + 1, lambda n: 1)


def assert_matches_walk(model, n_grid=5):
    joint, oracle = eval_joint(model), walk_joint(model)
    assert joint == oracle and repr(joint) == repr(oracle)
    assert_smo_is_smi_diagonal(model)

    smo, oracle = _outcome(smo_distribution, model), _outcome(walk_ood, model, ())
    if oracle is SelectedOutError:
        assert smo is SelectedOutError
    else:
        assert repr(smo) == repr(oracle) and smo == oracle

    visibles = sorted(model.dag.visible)
    grid = _grid(model)[:n_grid]
    for q in grid + [_ramp(model, visibles, k) for k in (None, *SAMPLES)]:
        got, want = smi_distribution(model, q), walk_smi(model, q)
        assert got.status == want.status
        assert repr(got.dist) == repr(want.dist) and got.dist == want.dist
        assert got.selection_probability == want.selection_probability

    z = visibles[: max(1, len(visibles) // 2)]
    for qz in [q.marginal(z) for q in grid[2:4]] + [_ramp(model, z, k) for k in (None, *SAMPLES)]:
        got, want = (_outcome(observe_or_do_distribution, model, z, qz),
                     _outcome(walk_ood, model, z, qz))
        if want is SelectedOutError:
            assert got is SelectedOutError
        else:
            assert repr(got) == repr(want) and got == want


def _recording_ties(monkeypatch) -> list:
    """Record what each ``sumproduct._ties`` call returns."""
    seen, ties = [], sumproduct._ties

    def recorded(pairs, summed):
        seen.append(ties(pairs, summed))
        return seen[-1]

    monkeypatch.setattr(sumproduct, "_ties", recorded)
    return seen


# the shapes whose moved model holds copy-check pairs, which the evaluator ties
COPY_CHECK_SHAPES = {"split_m_to_s", "to_special"}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_transport_shapes_match_walk(monkeypatch, shape):
    rng = random.Random(f"evaluator-{shape}")
    seen = _recording_ties(monkeypatch)
    for _ in range(2):
        model, move = SHAPES[shape](rng)
        del seen[:]
        assert_matches_walk(model)
        assert not any(seen)
        assert_matches_walk(transport(model, move))
        assert any(seen) == (shape in COPY_CHECK_SHAPES)


def _random_dag(rng):
    vis = [f"v{i}" for i in range(rng.randint(2, 4))]
    mar = [f"m{i}" for i in range(rng.randint(1, 3))]
    sel = [f"s{i}" for i in range(rng.randint(0, 2))]
    order = vis + mar + sel
    rng.shuffle(order)
    edges = [(a, b) for i, a in enumerate(order) for b in order[i + 1:] if rng.random() < 0.35]
    return PartitionedDag.of(visible=vis, marginalized=mar, selected=sel, edges=edges)


def _random_model(rng, dag=None):
    """Latents of two to four values; latent and selection rows may hold
    zeros, so some cells and some whole models are selected out."""
    dag = dag or _random_dag(rng)
    domains = {
        v: tuple(range(rng.randint(2, 4) if v in dag.marginalized else 2))
        for v in dag.vertices
    }

    def row(dom):
        weights = [rng.choice([0, 1, 2, 5]) for _ in dom]
        weights[rng.randrange(len(dom))] += 1
        return {x: F(w, sum(weights)) for x, w in zip(dom, weights)}

    kernels = {}
    for v in sorted(dag.vertices):
        parents = sorted(dag.parents_of(v))
        pdoms = [domains[p] for p in parents]
        if v in dag.visible:
            kernels[v] = deterministic_kernel(parents, pdoms, domains[v],
                                              lambda *k: rng.choice(domains[v]))
        else:
            kernels[v] = table_kernel(parents, pdoms, domains[v], lambda *k: row(domains[v]))
    return DiscreteModel.of(dag, domains, kernels)


def test_random_models_match_walk():
    rng = random.Random("evaluator-random")
    for _ in range(60):
        assert_matches_walk(_random_model(rng), n_grid=3)


def test_vertex_ids_spelled_like_copies():
    """No vertex id, however it is spelled, is taken for the sharp variable
    through which a kernel reads an intervened parent."""
    dag = PartitionedDag.of(
        visible=["a", "a#", "a~", "(a,)"], marginalized=["m"], selected=["s"],
        edges=[("m", "a"), ("m", "(a,)"), ("a", "a#"), ("a#", "a~"), ("a", "(a,)"),
               ("a~", "s"), ("(a,)", "s")],
    )
    rng = random.Random("evaluator-names")
    for _ in range(4):
        assert_matches_walk(_random_model(rng, dag))


def test_selection_probability_zero():
    """A selection that never succeeds: smi reports selected_out and smo
    raises, on both sides."""
    dag = PartitionedDag.of(visible="ab", marginalized="u", selected="s",
                            edges=[("u", "a"), ("a", "b"), ("b", "s")])
    model = DiscreteModel.of(
        dag,
        {"a": (0, 1), "b": (0, 1), "u": (0, 1, 2), "s": (0, 1)},
        {"u": table_kernel([], [], (0, 1, 2), lambda: {0: F(1, 2), 2: F(1, 2)}),
         "a": deterministic_kernel(["u"], [(0, 1, 2)], (0, 1), lambda u: u % 2),
         "b": deterministic_kernel(["a"], [(0, 1)], (0, 1), lambda a: 1 - a),
         "s": KernelTable.of(["b"], {(0,): (0, 1), (1,): (0, 1)})},
    )
    with pytest.raises(SelectedOutError):
        smo_distribution(model)
    with pytest.raises(SelectedOutError):
        walk_ood(model, ())
    for q in _grid(model):
        got = smi_distribution(model, q)
        assert got.status == walk_smi(model, q).status == "selected_out"
        assert got.dist is None and got.selection_probability == 0
    q = ProbTable.of(("a",), {(0,): F(1, 3), (1,): F(2, 3)})
    with pytest.raises(SelectedOutError):
        observe_or_do_distribution(model, ["a"], q)
    assert_matches_walk(model)


# --- ties: a pinned selection that passes only equal values ----------------------


def _tie_model(rng, visible, latents, selections, edges, sizes=None):
    """A model whose selections' kernels are given: ``selections`` maps each
    selected vertex to its parents, in the order its kernel reads them, and
    to ``fn(*parent_values) -> P(s = 0 | values)``. Latents get positive
    random rows, visibles random functions, and every domain is binary unless
    ``sizes`` says otherwise."""
    dag = PartitionedDag.of(visible=visible, marginalized=latents, selected=list(selections),
                            edges=edges + [(u, s) for s, (ps, _) in selections.items()
                                           for u in ps])
    sizes = sizes or {}
    domains = {v: tuple(range(sizes.get(v, 2))) for v in dag.vertices}
    kernels = {}
    for v in sorted(dag.vertices):
        parents, fn = selections.get(v, (sorted(dag.parents_of(v)), None))
        pdoms = [domains[p] for p in parents]
        if fn:
            kernels[v] = table_kernel(parents, pdoms, (0, 1),
                                      lambda *k, fn=fn: {0: fn(*k), 1: 1 - fn(*k)})
        elif v in dag.visible:
            kernels[v] = deterministic_kernel(parents, pdoms, domains[v],
                                              lambda *k, v=v: rng.choice(domains[v]))
        else:
            kernels[v] = table_kernel(parents, pdoms, domains[v],
                                      lambda *k, v=v: _rand_dist(rng, domains[v]))
    return DiscreteModel.of(dag, domains, kernels)


def _equal(x, y):
    return F(int(x == y))


TIES = {
    # two latents of different widths, tied: m2 (the second parent) is renamed
    "latents": (dict(visible="ab", latents=["m1", "m2"],
                     selections={"s": (["m1", "m2"], _equal)},
                     edges=[("m1", "a"), ("m2", "b")], sizes={"m1": 2, "m2": 3}),
                {"m2": "m1"}),
    # c reads both tied latents, so its factor keeps only their agreements
    "one_factor_holds_both": (dict(visible="abc", latents=["m1", "m2"],
                                   selections={"s": (["m1", "m2"], _equal)},
                                   edges=[("m1", "a"), ("m2", "b"), ("m1", "c"), ("m2", "c")],
                                   sizes={"m1": 3, "m2": 3}),
                              {"m2": "m1"}),
    # the tie weighs equal values 1/4, 2/4 and 3/4 by value
    "weights_by_value": (dict(visible="ab", latents=["m1", "m2"],
                              selections={"s": (["m1", "m2"],
                                                lambda x, y: F(x + 1, 4) if x == y else F(0))},
                              edges=[("m1", "a"), ("m2", "b")], sizes={"m1": 3, "m2": 3}),
                         {"m2": "m1"}),
    # s1 renames m2 to m1, then s2 ties m3 to m2, which stands for m1: m1 is
    # the second summed-out variable and goes to m3, and m2 follows it
    "chain": (dict(visible="abc", latents=["m1", "m2", "m3"],
                   selections={"s1": (["m1", "m2"], _equal), "s2": (["m3", "m2"], _equal)},
                   edges=[("m1", "a"), ("m2", "b"), ("m3", "c")],
                   sizes={"m1": 3, "m2": 3, "m3": 3}),
              {"m1": "m3", "m2": "m3"}),
    # a visible and a latent of one value each: the tie holds, and m goes to a
    "one_value": (dict(visible="ab", latents=["m", "u"],
                       selections={"s": (["a", "m"], _equal)},
                       edges=[("u", "a"), ("m", "b")], sizes={"a": 1, "m": 1}),
                  {"m": "a"}),
    # one off-diagonal entry passes the selection: no tie
    "not_diagonal": (dict(visible="ab", latents=["m1", "m2"],
                          selections={"s": (["m1", "m2"],
                                            lambda x, y: F(int(x == y or (x, y) == (0, 1)), 2))},
                          edges=[("m1", "a"), ("m2", "b")], sizes={"m1": 3, "m2": 3}),
                     {}),
}


@pytest.mark.parametrize("name", sorted(TIES))
def test_ties_match_walk(monkeypatch, name):
    """Each tie case gives the brute-force tables for smo, smi and
    observe-or-do, and smo renames exactly the expected variables."""
    spec, renames = TIES[name]
    seen = _recording_ties(monkeypatch)
    for i in range(3):
        model = _tie_model(random.Random(f"ties-{name}-{i}"), **spec)
        del seen[:]
        _outcome(smo_distribution, model)
        assert (seen or [{}]) == [renames]
        assert_matches_walk(model)


# --- the evaluator's parts -----------------------------------------------------

WIDTH = {"a": 2, "b": 3, "c": 2, ("a",): 2}


@st.composite
def factors(draw):
    """A factor over up to three of the variables of WIDTH, in any order,
    with a positive weight on a random part of its assignments."""
    scope = tuple(draw(st.lists(st.sampled_from(sorted(WIDTH, key=repr)), unique=True,
                                max_size=3)))
    keys = list(product(*(range(WIDTH[v]) for v in scope)))
    kept = draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
    return scope, {k: draw(st.integers(1, 9)) for k, keep in zip(keys, kept) if keep}


def _brute_product(f, g, drop):
    """The product of two factors by a walk over every assignment of the
    union of their scopes, keyed by sets of (variable, value) pairs."""
    (fs, ft), (gs, gt) = f, g
    union = list(dict.fromkeys(fs + gs))
    out = {}
    for values in product(*(range(WIDTH[v]) for v in union)):
        a = dict(zip(union, values))
        w = ft.get(tuple(a[v] for v in fs), 0) * gt.get(tuple(a[v] for v in gs), 0)
        if w:
            key = frozenset((v, x) for v, x in a.items() if v != drop)
            out[key] = out.get(key, 0) + w
    return set(union) - {drop}, out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(factors(), factors(), st.data())
@example((("a",), {}), (("a", "b"), {(0, 1): 2}), None)  # an empty table
@example((("a",), {(0,): 2, (1,): 3}), (("b",), {(2,): 5}), None)  # disjoint scopes
@example((("b", "a"), {(0, 1): 2, (2, 0): 3}), (("a",), {(1,): 7}), None)  # nested scopes
def test_multiply_is_the_brute_force_product(f, g, data):
    union = list(dict.fromkeys(f[0] + g[0]))
    drop = data.draw(st.sampled_from([None, *union])) if data is not None else None
    scope, table = sumproduct._multiply(f, g, drop)
    want_scope, want = _brute_product(f, g, drop)
    assert len(scope) == len(set(scope)) and set(scope) == want_scope
    assert {frozenset(zip(scope, k)): w for k, w in table.items()} == want
    assert len(table) == len(want)


def _chain8(shared):
    """The 8-visible chain of BENCH_cell_factor.json: v0 -> ... -> v7, a
    private binary latent per visible, and with ``shared`` one 3-valued
    latent w feeding every visible."""
    names = [f"v{i}" for i in range(8)]
    latents = [f"u{i}" for i in range(8)] + (["w"] if shared else [])
    edges = list(zip(names, names[1:])) + [(f"u{i}", v) for i, v in enumerate(names)]
    edges += [("w", v) for v in names] if shared else []
    dag = PartitionedDag.of(visible=names, marginalized=latents, edges=edges)
    return _rand_model(random.Random("chain8"), dag, {"w": 3})


def _every_distribution(model):
    """One call of each evaluation on a model, smi on two interventions and
    observe-or-do on a two-cell intervention that is not of product form."""
    visibles = sorted(model.dag.visible)
    eval_joint(model)
    _outcome(smo_distribution, model)
    for q in _grid(model)[1:3]:
        smi_distribution(model, q)
    z = visibles[: max(1, len(visibles) // 2)]
    domains = dict(model.domains)
    cells = [tuple(domains[v][0] for v in z), tuple(domains[v][-1] for v in z)]
    q = ProbTable.of(z, {cells[0]: F(1, 3), cells[-1]: F(2, 3)} if cells[0] != cells[1]
                     else {cells[0]: F(1)})
    _outcome(observe_or_do_distribution, model, z, q)


def _order_cases():
    for shape in sorted(SHAPES):
        model, move = SHAPES[shape](random.Random(f"order-{shape}"))
        yield shape, model
        yield shape + "-moved", transport(model, move)
    yield "chain8", _chain8(False)
    yield "chain8-shared", _chain8(True)
    for name in sorted(TIES):
        yield "ties-" + name, _tie_model(random.Random(f"order-{name}"), **TIES[name][0])


@pytest.mark.parametrize("name, model", list(_order_cases()),
                         ids=[name for name, _ in _order_cases()])
def test_elimination_follows_the_greedy_rescan_order(monkeypatch, name, model):
    """Spans kept up to date as buckets merge give the order that scanning
    every factor at each step gives, so every sum_product call eliminates
    its vertices in exactly the oracle's order."""
    calls = []
    product_, sum_product = sumproduct._product, sumproduct.sum_product

    def eliminating(factors, drop=None):
        if drop is not None:
            calls[-1][0].append(drop)
        return product_(factors, drop)

    def ordered(model, read, outputs, pinned, cells):
        calls.append(([], greedy_order(model, read, outputs, pinned, cells)))
        return sum_product(model, read, outputs, pinned, cells)

    monkeypatch.setattr(sumproduct, "_product", eliminating)
    monkeypatch.setattr(smdg.model, "sum_product", ordered)
    _every_distribution(model)
    assert len(calls) >= 4
    assert sum(len(got) for got, _ in calls) > 0
    for got, want in calls:
        assert got == want


def _relabelled_models(first_values):
    """Two models on one DAG that share the kernel instances of the latent
    u and the visible b, whose domains have the same widths but differ in
    values: u is (0, 1, 2) or ("x", "y", "z"), b is (0, 1) or (5, 7). The
    model whose values are ``first_values`` comes first."""
    dag = PartitionedDag.of(visible=["a", "b"], marginalized=["u"], selected=["s"],
                            edges=[("u", "a"), ("a", "b"), ("u", "s"), ("b", "s")])
    shared = {"u": KernelTable.of([], {(): (F(1, 2), F(1, 3), F(1, 6))}),
              "b": KernelTable.of(["a"], {(0,): (0, 1), (1,): (1, 0)})}
    models = []
    for u_dom, b_dom in (((0, 1, 2), (0, 1)), (("x", "y", "z"), (5, 7))):
        domains = {"u": u_dom, "a": (0, 1), "b": b_dom, "s": (0, 1)}
        weights = dict(zip(product(b_dom, u_dom), (1, 2, 3, 4, 0, 6)))
        kernels = dict(shared)
        kernels["a"] = deterministic_kernel(["u"], [u_dom], (0, 1),
                                            lambda u: u_dom.index(u) % 2)
        kernels["s"] = table_kernel(["b", "u"], [b_dom, u_dom], (0, 1),
                                    lambda b, u: {0: F(weights[b, u], 7),
                                                  1: F(7 - weights[b, u], 7)})
        models.append(DiscreteModel.of(dag, domains, kernels))
    return models if models[0].domain("u") == first_values else models[::-1]


@pytest.mark.parametrize("first", [(0, 1, 2), ("x", "y", "z")])
def test_shared_kernel_over_relabelled_domains(first):
    """A kernel records its factor with the domain it was built over, so a
    model that shares the instance over other values still evaluates
    exactly, whichever model evaluates first."""
    one, two = _relabelled_models(first)
    assert one.kernel("u") is two.kernel("u") and one.kernel("b") is two.kernel("b")
    assert_matches_walk(one)
    assert_matches_walk(two)
    assert_matches_walk(one)
