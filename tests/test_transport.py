import hashlib
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from smdg import canon
from smdg.canon import PreconditionError
from smdg.graph import PartitionedDag
from smdg.model import (
    DiscreteModel,
    KernelTable,
    ModelError,
    ProbTable,
    SelectedOutError,
    deterministic_kernel,
    flat,
    model_dumps,
    observe_or_do_distribution,
    product_intervention,
    smi_distribution,
    smo_distribution,
    table_kernel,
    uniform,
)
from smdg.transport import (
    _CONSTRUCTIONS,
    LIBRARY_LIMIT,
    transport,
    transport_chain,
    transport_obs_or_do,
)

F = Fraction


def _rand_dist(rng, values):
    weights = [rng.randint(1, 4) for _ in values]
    total = sum(weights)
    return {v: F(w, total) for v, w in zip(values, weights)}


def _rand_model(rng, dag, sizes=None):
    """Random exact model: latents and selections get positive random rows,
    visibles random deterministic functions."""
    sizes = sizes or {}
    domains = {v: tuple(range(sizes.get(v, 2))) for v in dag.vertices}
    kernels = {}
    for v in sorted(dag.vertices):
        parents = sorted(dag.parents_of(v))
        pdoms = [domains[p] for p in parents]
        if v in dag.visible:
            table = {}
            kernels[v] = deterministic_kernel(
                parents, pdoms, domains[v], lambda *k: rng.choice(domains[v])
            )
        else:
            kernels[v] = table_kernel(
                parents, pdoms, domains[v], lambda *k: _rand_dist(rng, domains[v])
            )
    return DiscreteModel.of(dag, domains, kernels)


def _grid(model):
    """Five product-form interventions over the visible variables."""
    out = []
    domains = dict(model.domains)
    vis = sorted(model.dag.visible)
    specs = [
        lambda dom: {dom[0]: F(1)},
        lambda dom: {dom[-1]: F(1)},
        lambda dom: uniform(dom),
        lambda dom: {v: F(1 + 2 * i, sum(1 + 2 * j for j in range(len(dom))))
                     for i, v in enumerate(dom)},
        lambda dom: {v: F(1 + 2 * (len(dom) - 1 - i),
                          sum(1 + 2 * j for j in range(len(dom))))
                     for i, v in enumerate(dom)},
    ]
    for spec in specs:
        out.append(product_intervention(model, {v: spec(domains[v]) for v in vis}))
    return out


def random_interventions(model, rng):
    """Two seeded interventions over the visible variables with a random
    weight per cell, so they need not be of product form: one on every
    cell, and one on a random proper part of the cells (one cell when the
    visibles have only two)."""
    domains = dict(model.domains)
    vis = sorted(model.dag.visible)
    cells = list(product(*[domains[v] for v in vis]))
    out = []
    for keep in (cells, rng.sample(cells, rng.randint(1, len(cells) - 1))):
        weights = [rng.randint(1, 9) for _ in keep]
        out.append(ProbTable.of(vis, {c: F(w, sum(weights)) for c, w in zip(keep, weights)}))
    return out


def assert_transport_preserves(model, move, rng, n_grid=5):
    """smo, and smi on the first ``n_grid`` grid points and two seeded
    random interventions, are equal before and after transport.

    smi is linear in q: it normalizes ``sum_c q(c) * R(c, .)``. The grid's
    uniform point has full support, so equal results there already force
    the two models' ``R`` to be equal up to one positive scale, and with it
    equal results for every q; the random interventions check the
    contraction with q, not the claim."""
    moved = transport(model, move)
    try:
        base = smo_distribution(model)
    except Exception:
        base = None
    if base is not None:
        assert smo_distribution(moved).dist == base.dist
    for q in _grid(model)[:n_grid] + random_interventions(model, rng):
        r1 = smi_distribution(model, q)
        r2 = smi_distribution(moved, q)
        assert r1.status == r2.status
        if r1.status == "ok":
            assert r1.dist == r2.dist


# --- per-rewrite shapes ----------------------------------------------------

def exog_shape(rng):
    dag = PartitionedDag.of(
        visible=["p", "w1", "w2"],
        marginalized=["m", "up"],
        selected=["s"],
        edges=[("up", "p"), ("p", "m"), ("m", "w1"), ("m", "w2"), ("w1", "s")],
    )
    return _rand_model(rng, dag, {"m": rng.choice([2, 3])}), ("exogenize", ("m",))


def term_shape(rng):
    dag = PartitionedDag.of(
        visible=["a", "b"],
        marginalized=["ua"],
        selected=["s"],
        edges=[("ua", "a"), ("a", "s"), ("s", "b"), ("a", "b")],
    )
    return _rand_model(rng, dag), ("terminalize", ("s",))


def merge_m_shape(rng):
    dag = PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized=["m1", "m2", "u3"],
        selected=["s"],
        edges=[("m1", "s"), ("m1", "v1"), ("m2", "s"), ("m2", "v2"), ("v3", "s"), ("u3", "v3")],
    )
    return _rand_model(rng, dag, {"m1": rng.choice([2, 3])}), ("merge_marginalized", ("m1", "m2"))


def merge_s_shape(rng):
    dag = PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized=["m", "u1", "u2"],
        selected=["s1", "s2"],
        edges=[
            ("v1", "s1"), ("v2", "s2"), ("m", "s1"), ("m", "s2"), ("m", "v3"),
            ("u1", "v1"), ("u2", "v2"),
        ],
    )
    return _rand_model(rng, dag), ("merge_selected", ("s1", "s2"))


def split_shape(rng):
    dag = PartitionedDag.of(
        visible=["v1", "v2", "v3", "v4"],
        marginalized=["m", "u1", "u2"],
        selected=["s"],
        edges=[
            ("v1", "s"), ("v2", "s"), ("m", "s"), ("m", "v3"), ("m", "v4"),
            ("u1", "v1"), ("u2", "v2"),
        ],
    )
    return _rand_model(rng, dag), ("split_m_to_s", ("m", "s"))


def to_special_shape(rng):
    dag = PartitionedDag.of(
        visible=["a", "b"],
        marginalized=["m", "ua"],
        selected=["s"],
        edges=[("a", "b"), ("a", "s"), ("m", "b"), ("ua", "a")],
    )
    return _rand_model(rng, dag), ("to_special", ("a", "b"))


def redundant_m_shape(rng):
    dag = PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized=["m1", "m2"],
        selected=["s2"],
        edges=[
            ("m2", "v1"), ("m2", "v2"), ("m2", "v3"), ("m1", "v2"), ("m1", "v3"),
            ("v1", "s2"), ("v2", "s2"), ("v3", "s2"),
        ],
    )
    return _rand_model(rng, dag, {"m1": rng.choice([2, 3])}), ("remove_vertex", ("m1",))


def redundant_s_shape(rng):
    dag = PartitionedDag.of(
        visible=["v1", "v2", "v3"],
        marginalized=["m2"],
        selected=["s1", "s2"],
        edges=[
            ("m2", "v1"), ("m2", "v2"), ("m2", "v3"),
            ("v2", "s1"), ("v3", "s1"), ("v1", "s2"), ("v2", "s2"), ("v3", "s2"),
        ],
    )
    return _rand_model(rng, dag), ("remove_vertex", ("s1",))


SHAPES = {
    "exogenize": exog_shape,
    "terminalize": term_shape,
    "merge_marginalized": merge_m_shape,
    "merge_selected": merge_s_shape,
    "split_m_to_s": split_shape,
    "to_special": to_special_shape,
    "remove_redundant_marginalized": redundant_m_shape,
    "remove_redundant_selected": redundant_s_shape,
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_transport_preserves_selected_behaviour(shape):
    rng, q_rng = random.Random(f"transport-{shape}"), random.Random(f"transport-q-{shape}")
    for _ in range(8):
        model, move = SHAPES[shape](rng)
        assert_transport_preserves(model, move, q_rng, n_grid=2)


def test_merged_selection_kernel_is_the_product_of_rows():
    """The merged selection's rows, built from integer numerators, equal
    the kernel of the Fraction products of the two old rows."""
    rng = random.Random("merge-selected-rows")
    for _ in range(8):
        model, move = merge_s_shape(rng)
        moved = transport(model, move)
        (label,) = moved.dag.selected - model.dag.selected
        old1, old2 = model.kernel("s1"), model.kernel("s2")
        parents = sorted(moved.dag.parents_of(label))
        want = {}
        for key in product(*[moved.domain(p) for p in parents]):
            env = dict(zip(parents, key))
            r1 = dict(zip(model.domain("s1"), old1.row(tuple(env[p] for p in old1.parents))))
            r2 = dict(zip(model.domain("s2"), old2.row(tuple(env[p] for p in old2.parents))))
            want[key] = [r1[y1] * r2[y2] for y1, y2 in moved.domain(label)]
        assert moved.kernel(label) == KernelTable.of(parents, want)  # den and rows alike


def test_exogenize_library_domain_size():
    rng = random.Random(7)
    model, move = exog_shape(rng)
    base = len(model.domain("m"))
    moved = transport(model, move)
    assert len(moved.domain("m")) == base ** len(model.domain("p"))


def test_terminalize_children_condition_on_zero():
    rng = random.Random(3)
    model, move = term_shape(rng)
    moved = transport(model, move)
    assert moved.kernel("b").parents == ("a",)
    for key, _ in moved.kernel("b").rows:
        assert moved.kernel("b").row(key) == model.kernel("b").row((key[0], 0))


def test_transport_chain_through_full_canonicalization():
    from smdg.canon import canonicalize

    rng = random.Random(11)
    model, _ = split_shape(rng)
    report = canonicalize(model.dag)
    moved = transport_chain(model, report.steps)
    assert moved.dag == report.output
    assert smo_distribution(moved).dist == smo_distribution(model).dist


# The partitioned DAG that random.Random("eq-19") draws from the benchmark's
# dag_spec generator. Its canonicalization exogenizes m1 into a 16-value
# library and then asks m2 for one slot per assignment of (m0, m1, v0).
EQ19 = PartitionedDag.of(
    visible=["v0", "v1", "v2", "v3"],
    marginalized=["m0", "m1", "m2"],
    selected=["s0", "s1", "s2"],
    edges=[
        ("m0", "m1"), ("m0", "v1"), ("m0", "v2"), ("m0", "v3"), ("m1", "m2"),
        ("s0", "v1"), ("s2", "m1"), ("v0", "m1"), ("v0", "m2"), ("v0", "s0"),
        ("v0", "s2"), ("v0", "v1"), ("v1", "v3"),
    ],
)


def test_library_limit_stops_before_building():
    from smdg.canon import canonicalize

    model = _rand_model(random.Random("eq-19"), EQ19)
    steps = canonicalize(model.dag).steps
    stop = steps.index(("exogenize", ("m2",)))
    model = transport_chain(model, steps[:stop])
    assert len(model.domain("m1")) == 16
    tracemalloc.start()
    try:
        with pytest.raises(ModelError) as exc:
            transport(model, steps[stop])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == (
        f"exogenize: a library of 2^64 values exceeds the limit of {LIBRARY_LIMIT}"
    )
    assert peak < 1 << 20


def _shape_transports():
    """Eight seeded models of every shape, each carried across its move."""
    for shape in sorted(SHAPES):
        rng = random.Random(f"integer-rows-{shape}")
        for _ in range(8):
            model, move = SHAPES[shape](rng)
            yield transport(model, move)


def _too_large(model, step) -> bool:
    """Whether the model holds more than 4,000 kernel cells, or the step
    would build a library of more than 256 values."""
    if sum(len(kern.rows) * len(model.domain(v)) for v, kern in model.kernels) > 4000:
        return True
    name, args = step
    d = model.dag
    if name == "exogenize":
        slots = prod(len(model.domain(p)) for p in d.parents_of(args[0]))
    elif name == "split_m_to_s":
        slots = prod(len(model.domain(a)) for a in d.parents_of(args[1]) & d.visible)
    else:
        return False
    return len(model.domain(args[0])) ** slots > 256


def _chain_transports():
    """The canonicalization chains of 180 seeded random non-canonical DAGs,
    each model carried step by step until a step would be too large."""
    from smdg.canon import canonicalize
    from helpers import one_shot_dag

    rng = random.Random("integer-chains")
    for _ in range(180):
        model = _rand_model(rng, one_shot_dag(rng))
        for step in canonicalize(model.dag).steps:
            if _too_large(model, step):
                break
            model = transport(model, step)
            yield model


def transported_digest(models) -> tuple[int, str]:
    """How many models, and the sha256 of each one's JSON (or the reason it
    has none) and repr."""
    digest, count = hashlib.sha256(), 0
    for model in models:
        try:
            text = model_dumps(model)
        except ModelError as exc:
            text = str(exc)
        digest.update(text.encode())
        digest.update(repr(model).encode())
        count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("make, pinned", [
    (_shape_transports, (64, "cbe048ce9d9a89eb47addd5b0142af2adeca6b82f5c4c9c1b00609259eccdbcd")),
    (_chain_transports, (791, "8ad6d6a6c6f3fd3d69846c20d6001a3b19049b3bfdacdb2852cf24f6bf7e9bd7")),
], ids=["shapes", "chains"])
def test_constructions_compute_on_integer_rows(monkeypatch, make, pinned):
    """No construction reads a row as Fractions, and every transported model
    has the bytes pinned from the constructions that did."""

    def refuse(self, key):
        raise AssertionError("a transport construction read KernelTable.row")

    monkeypatch.setattr(KernelTable, "row", refuse)
    assert transported_digest(make()) == pinned


def test_moved_models_inherit_the_source_kernel_instances(monkeypatch):
    """Every kernel of a moved model that its construction did not build is
    the source model's own instance, so its recorded factor is found again
    and its rows are not checked again; every shape inherits some."""
    built = []
    init = KernelTable.__init__

    def recording(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(KernelTable, "__init__", recording)
    for shape in sorted(SHAPES):
        rng = random.Random(f"inherited-{shape}")
        for _ in range(4):
            model, move = SHAPES[shape](rng)
            built.clear()
            moved = transport(model, move)
            new = {id(kern) for kern in built}
            inherited = [v for v, kern in moved.kernels if id(kern) not in new]
            assert inherited, shape
            for v in inherited:
                assert moved.kernel(v) is model.kernel(v), (shape, v)


def _first_row_sums_to_two(kern):
    (key, vec), *rest = kern.rows
    return KernelTable(kern.parents, kern.den, ((key, (kern.den, 1) + vec[2:]), *rest))


# Faults that a construction of terminalize might leave in the maps of the
# term_shape model: in b's kernel, which it writes, or in the domain of ua,
# whose kernel and whose child a's kernel it inherits.
FAULTS = {
    "written_row": lambda domains, kernels: kernels.update(b=_first_row_sums_to_two(kernels["b"])),
    "parent_values": lambda domains, kernels: domains.update(ua=("p", "q")),
    "parent_width": lambda domains, kernels: domains.update(ua=(0, 1, 2)),
    "own_width": lambda domains, kernels: domains.update(a=(0, 1, 2)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_a_faulty_construction_is_refused_as_of_refuses_it(monkeypatch, fault):
    """transport checks the rows of every kernel whose instance, role, own
    domain or parent domains differ from the source's, so a fault there
    raises the ModelError that DiscreteModel.of raises on the same maps."""
    seen = []
    real = _CONSTRUCTIONS["terminalize"]

    def faulty(model, dag2, domains, kernels, zeros, *args):
        real(model, dag2, domains, kernels, zeros, *args)
        FAULTS[fault](domains, kernels)
        seen.append((dag2, domains, kernels, zeros))

    monkeypatch.setitem(_CONSTRUCTIONS, "terminalize", faulty)
    model, move = term_shape(random.Random(3))
    with pytest.raises(ModelError) as got:
        transport(model, move)
    with pytest.raises(ModelError) as want:
        DiscreteModel.of(*seen[0])
    assert type(got.value) is type(want.value) and str(got.value) == str(want.value)
    assert str(got.value).startswith(("kernel row", "kernel of")), str(got.value)


def test_constructions_cover_every_canon_step():
    assert set(_CONSTRUCTIONS) == {rule.step for rule in canon._RULES}


def _never_selected():
    dag = PartitionedDag.of(visible="a", selected="s")
    return DiscreteModel.of(
        dag,
        {"a": (0, 1), "s": (0, 1)},
        {"a": deterministic_kernel([], [], (0, 1), lambda: 0),
         "s": KernelTable.of([], {(): (0, 1)})},
    )


@pytest.mark.parametrize("make, move, error, message", [
    (lambda: split_shape(random.Random(0))[0], ("bogus", ()), ModelError,
     "unknown transport move 'bogus'"),
    (lambda: split_shape(random.Random(0))[0], ("remove_vertex", ("v1",)), ModelError,
     "cannot transport the removal of visible vertex 'v1'"),
    (lambda: redundant_m_shape(random.Random(0))[0], ("remove_vertex", ("m2",)), ModelError,
     "marginalized vertex 'm2' is not redundant"),
    (_never_selected, ("remove_vertex", ("s",)), SelectedOutError,
     "removing 's' would change a model whose selection never succeeds"),
    (lambda: split_shape(random.Random(0))[0], ("to_special", ("v1", "v3")), PreconditionError,
     "to_special: splittable marginalized -> selected edges remain"),
], ids=["unknown_move", "visible_removal", "not_redundant", "never_selected", "precondition"])
def test_transport_errors(make, move, error, message):
    with pytest.raises(error) as exc:
        transport(make(), move)
    assert type(exc.value) is error and str(exc.value) == message


# --- observe-or-do transport ---------------------------------------------------


def triangle_dag():
    return PartitionedDag.of(
        visible="v", marginalized="m", selected="s", edges=[("m", "v"), ("v", "s"), ("m", "s")]
    )


def witness_triangle_model():
    """Latent = pair of fair bits; the visible fires unless both are zero;
    selection fails exactly when the first bit and the visible are zero."""
    dag = triangle_dag()
    domains = {"m": ((0, 0), (0, 1), (1, 0), (1, 1)), "v": (0, 1), "s": (0, 1)}
    kernels = {
        "m": table_kernel([], [], domains["m"], lambda: uniform(domains["m"])),
        "v": deterministic_kernel(["m"], [domains["m"]], (0, 1),
                                  lambda m: 0 if m == (0, 0) else 1),
        "s": deterministic_kernel(sorted(["m", "v"]),
                                  [domains[p] for p in sorted(["m", "v"])], (0, 1),
                                  lambda m, v: 1 if (m[0] == 0 and v == 0) else 0),
    }
    return DiscreteModel.of(dag, domains, kernels)


def _ood_pairs(model, grid_points=(F(0), F(1, 4), F(1, 2), F(3, 4), F(1))):
    pairs = {"obs": observe_or_do_distribution(model, []).dist}
    for p in grid_points:
        q = ProbTable.of(("v",), {(0,): F(1) - p, (1,): p})
        pairs[("do_v", p)] = observe_or_do_distribution(model, ["v"], q).dist
    return pairs


def test_obs_or_do_transport_matches_on_grid():
    model = witness_triangle_model()
    moved = transport_obs_or_do(model)
    assert set(moved.dag.edges) == {("m", "v"), ("v", "s")}
    assert _ood_pairs(model) == _ood_pairs(moved)


def test_obs_or_do_transport_counterexample_kernels():
    """Kernels where naive per-latent-row normalization of the rewritten
    visible kernel would distort the observational pair."""
    dag = triangle_dag()
    domains = {"m": (0, 1), "v": (0, 1), "s": (0, 1)}
    s_rows = {(0, 0): F(1), (0, 1): F(1), (1, 0): F(0), (1, 1): F(1, 2)}
    kernels = {
        "m": table_kernel([], [], (0, 1), lambda: uniform((0, 1))),
        "v": deterministic_kernel(["m"], [(0, 1)], (0, 1), lambda m: m),
        "s": table_kernel(sorted(["m", "v"]), [(0, 1), (0, 1)], (0, 1),
                          lambda m, v: {0: s_rows[(m, v)], 1: 1 - s_rows[(m, v)]}),
    }
    model = DiscreteModel.of(dag, domains, kernels)
    moved = transport_obs_or_do(model)
    assert _ood_pairs(model) == _ood_pairs(moved)


def test_observe_and_do_still_separates_the_pair():
    """The full scheme that observes natural values alongside interventions
    distinguishes what observe-or-do cannot."""
    model = witness_triangle_model()
    moved = transport_obs_or_do(model)
    q = ProbTable.of(("v",), {(1,): F(1)})
    r1 = smi_distribution(model, q)
    r2 = smi_distribution(moved, q)
    assert r1.dist.marginal([flat("v")]) != r2.dist.marginal([flat("v")])


def _triangle_models():
    """The witness, the counterexample's shape with seeded rows, and seeded
    triangles of one to three values per vertex whose rows may hold zeros."""
    yield witness_triangle_model()
    rng = random.Random("obs-or-do-bytes")
    for _ in range(60):
        doms = {v: tuple(range(rng.randint(1, 3))) for v in "mv"}
        doms["s"] = (0, 1)

        def row(values):
            weights = [rng.choice([0, 0, 1, 2, 3]) for _ in values]
            weights[rng.randrange(len(values))] += 1
            return {x: F(w, sum(weights)) for x, w in zip(values, weights)}

        yield DiscreteModel.of(triangle_dag(), doms, {
            "m": table_kernel([], [], doms["m"], lambda: row(doms["m"])),
            "v": deterministic_kernel(["m"], [doms["m"]], doms["v"],
                                      lambda m: rng.choice(doms["v"])),
            "s": table_kernel(["m", "v"], [doms["m"], doms["v"]], (0, 1),
                              lambda m, v: row((0, 1))),
        })


def test_obs_or_do_transport_prints_the_pinned_bytes(monkeypatch):
    """transport_obs_or_do reads integer rows only, and its models print
    the bytes pinned from the construction that computed in Fractions."""

    def refuse(self, key):
        raise AssertionError("transport_obs_or_do read KernelTable.row")

    monkeypatch.setattr(KernelTable, "row", refuse)
    digest = hashlib.sha256()
    for model in _triangle_models():
        try:
            text = repr(transport_obs_or_do(model))
        except SelectedOutError as exc:
            text = str(exc)
        digest.update(text.encode())
    assert digest.hexdigest() == OBS_OR_DO_BYTES


OBS_OR_DO_BYTES = "6fc0b5d04f6055d87e3b0dbd301ba53ca2f396d6131bc55498eb11c7a64faa9a"


def test_obs_or_do_transport_rejects_other_shapes():
    dag = PartitionedDag.of(visible="v", marginalized="m", selected="s",
                            edges=[("m", "v"), ("v", "s")])
    rng = random.Random(0)
    with pytest.raises(Exception):
        transport_obs_or_do(_rand_model(rng, dag))
