"""The sum-product evaluator against the brute-force walk of tests/helpers.

Both sides must give equal tables with byte-equal ``repr`` and equal
selection probabilities: ``eval_joint``, smo, smi on a five-point grid plus
interventions whose cells have different denominators (on every cell, on a
seeded sparse draw, and a point mass at a seeded cell), and observe-or-do
with a partial intervention set. Each model also checks smo against the
diagonal of smi under the uniform intervention.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

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

from helpers import assert_smo_is_smi_diagonal, walk_joint, walk_ood, walk_smi
from test_transport import SHAPES, _grid

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


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_transport_shapes_match_walk(shape):
    rng = random.Random(f"evaluator-{shape}")
    for _ in range(2):
        model, move = SHAPES[shape](rng)
        assert_matches_walk(model)
        assert_matches_walk(transport(model, move))


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
