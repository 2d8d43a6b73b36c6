"""Seeded input generators for the benchmark workloads.

Every random draw comes from a ``random.Random`` seeded from the workload
seed, so one seed always yields the same inputs. The transport shapes and the criterion-5
query family follow the repository's transport and acceptance tests, written
out here so that editing a test cannot shift a workload. ``lib`` is the
namespace of smdg modules loaded by ``run.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

F = Fraction


# --- random partitioned DAGs -------------------------------------------------


def dag_spec(rng):
    """A random non-canonical partitioned DAG as plain data.

    3-4 visibles and 1-3 each of marginalized and selected vertices. The
    first marginalized vertex leads a random vertex order and every later
    pair is an edge with probability 1/4, so latents can have parents and
    selections children. Three in four visibles are then given a latent
    parent, which keeps most queries from being functionally determined.
    At least one marginalized vertex has a parent or one selected vertex has
    a child, so the exogenize or terminalize rewrite always applies. The
    query is two distinct visibles and a subset of the rest.
    """
    while True:
        vis = [f"v{i}" for i in range(rng.randint(3, 4))]
        mar = [f"m{i}" for i in range(rng.randint(1, 3))]
        sel = [f"s{i}" for i in range(rng.randint(1, 3))]
        rest = vis + mar[1:] + sel
        rng.shuffle(rest)
        order = [mar[0], *rest]
        edges = {
            (order[i], order[j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
            if rng.random() < 0.25
        }
        for j, v in enumerate(order):
            if v in vis and rng.random() < 0.75 and not any(
                a in mar and b == v for a, b in edges
            ):
                edges.add((rng.choice([m for m in order[:j] if m in mar]), v))
        if any(a in sel or b in mar for a, b in edges):
            break
    x, y = rng.sample(vis, 2)
    others = [v for v in vis if v not in (x, y)]
    z = tuple(sorted(rng.sample(others, rng.randint(0, len(others)))))
    return vis, mar, sel, sorted(edges), (x, y, z), rng.getrandbits(32)


def random_model(lib, dag, rng, sizes=None, pattern=None):
    """A random exact model on ``dag``.

    Visibles get deterministic kernels; marginalized and selected vertices
    get rows of positive weights, so selection never has probability zero.
    ``pattern`` draws the visible functions and each row's weights, and
    ``rng`` shuffles the weights of each row over its values; both are
    ``rng`` unless a pattern is given.
    """
    M = lib.model
    sizes = sizes or {}
    pattern = pattern or rng
    domains = {v: tuple(range(sizes.get(v, 2))) for v in dag.vertices}

    def row(dom):
        weights = [pattern.randint(1, 4) for _ in dom]
        rng.shuffle(weights)
        total = sum(weights)
        return {v: F(w, total) for v, w in zip(dom, weights)}

    kernels = {}
    for v in sorted(dag.vertices):
        parents = sorted(dag.parents_of(v))
        pdoms = [domains[p] for p in parents]
        dom = domains[v]
        if v in dag.visible:
            kernels[v] = M.deterministic_kernel(parents, pdoms, dom, lambda *k: pattern.choice(dom))
        else:
            kernels[v] = M.table_kernel(parents, pdoms, dom, lambda *k: row(dom))
    return M.DiscreteModel.of(dag, domains, kernels)


def one_rule_neighbour(lib, g, rng, t):
    """Apply one seeded local rewrite rule to a liftable smDG; ``g`` itself
    when no rule applies. Selected-face removal runs without folding in
    special-edge removals, so the result is a single search step away."""
    R = lib.rewrite
    candidates = []
    for face in g.selected_system.sorted_faces():
        candidates.append((R.rule_add_marginal_face, (g, face)))
        candidates.append((R.rule_remove_selected_face, (g, face, False)))
    for a, b in sorted(g.edges):
        if a == b:
            candidates.append((R.rule_remove_self_loop, (g, a)))
        else:
            candidates.append((R.rule_remove_special_edge, (g, a, b)))
    rng.shuffle(candidates)
    for rule, args in candidates:
        try:
            return t.call("rewrite.rule", rule, *args)
        except R.RulePreconditionError:
            continue
    return g


# --- criterion-5 query family --------------------------------------------------


def separation_queries(lib, visibles):
    """Unordered x/y pairs of one or two visibles, with every conditioning
    set of up to two of the remaining visibles."""
    SQ = lib.sep.SeparationQuery
    verts = sorted(visibles)
    out = []
    for nx in (1, 2):
        for x in combinations(verts, nx):
            rest_x = [v for v in verts if v not in x]
            for ny in (1, 2):
                for y in combinations(rest_x, ny):
                    if x > y:
                        continue
                    rest = [v for v in rest_x if v not in y]
                    for nz in range(0, min(2, len(rest)) + 1):
                        for z in combinations(rest, nz):
                            out.append(SQ.of(x, y, z))
    return out


# --- the eight transport shapes -------------------------------------------------

# name -> (visible, marginalized, selected, edges, domain sizes drawn from
# {2, 3} for these vertices, canonicalization move)
SHAPES = {
    "exogenize": (
        ["p", "w1", "w2"], ["m", "up"], ["s"],
        [("up", "p"), ("p", "m"), ("m", "w1"), ("m", "w2"), ("w1", "s")],
        ["m"], ("exogenize", ("m",)),
    ),
    "terminalize": (
        ["a", "b"], ["ua"], ["s"],
        [("ua", "a"), ("a", "s"), ("s", "b"), ("a", "b")],
        [], ("terminalize", ("s",)),
    ),
    "merge_marginalized": (
        ["v1", "v2", "v3"], ["m1", "m2", "u3"], ["s"],
        [("m1", "s"), ("m1", "v1"), ("m2", "s"), ("m2", "v2"), ("v3", "s"), ("u3", "v3")],
        ["m1"], ("merge_marginalized", ("m1", "m2")),
    ),
    "merge_selected": (
        ["v1", "v2", "v3"], ["m", "u1", "u2"], ["s1", "s2"],
        [("v1", "s1"), ("v2", "s2"), ("m", "s1"), ("m", "s2"), ("m", "v3"),
         ("u1", "v1"), ("u2", "v2")],
        [], ("merge_selected", ("s1", "s2")),
    ),
    "split_m_to_s": (
        ["v1", "v2", "v3", "v4"], ["m", "u1", "u2"], ["s"],
        [("v1", "s"), ("v2", "s"), ("m", "s"), ("m", "v3"), ("m", "v4"),
         ("u1", "v1"), ("u2", "v2")],
        [], ("split_m_to_s", ("m", "s")),
    ),
    "to_special": (
        ["a", "b"], ["m", "ua"], ["s"],
        [("a", "b"), ("a", "s"), ("m", "b"), ("ua", "a")],
        [], ("to_special", ("a", "b")),
    ),
    "remove_redundant_marginalized": (
        ["v1", "v2", "v3"], ["m1", "m2"], ["s2"],
        [("m2", "v1"), ("m2", "v2"), ("m2", "v3"), ("m1", "v2"), ("m1", "v3"),
         ("v1", "s2"), ("v2", "s2"), ("v3", "s2")],
        ["m1"], ("remove_vertex", ("m1",)),
    ),
    "remove_redundant_selected": (
        ["v1", "v2", "v3"], ["m2"], ["s1", "s2"],
        [("m2", "v1"), ("m2", "v2"), ("m2", "v3"),
         ("v2", "s1"), ("v3", "s1"), ("v1", "s2"), ("v2", "s2"), ("v3", "s2")],
        [], ("remove_vertex", ("s1",)),
    ),
}


def shape_model(lib, shape, index, seed):
    """The ``index``-th model of a transport shape.

    The zero pattern (visible functions, latent domain sizes) and the
    weights of every row depend only on the shape and the index; the seed
    decides which value of each row gets which weight. Exact evaluation
    costs follow the pattern and the denominators, so every seed loads the
    same mix of costs instead of one that swings by a fifth between seeds.
    """
    vis, mar, sel, edges, sized, move = SHAPES[shape]
    dag = lib.graph.PartitionedDag.of(visible=vis, marginalized=mar, selected=sel, edges=edges)
    pattern = random.Random(f"transport-pattern-{shape}-{index}")
    sizes = {v: pattern.choice([2, 3]) for v in sized}
    rng = random.Random(f"transport-{seed}-{shape}-{index}")
    return random_model(lib, dag, rng, sizes, pattern), move


def intervention_grid(lib, model):
    """Five product-form interventions over the visibles: point mass on the
    first value, on the last value, uniform, and two skewed rows."""
    M = lib.model
    domains = dict(model.domains)

    def skew(dom, rev):
        total = sum(1 + 2 * j for j in range(len(dom)))
        n = len(dom) - 1
        return {v: F(1 + 2 * (n - i if rev else i), total) for i, v in enumerate(dom)}

    specs = [
        lambda dom: {dom[0]: F(1)},
        lambda dom: {dom[-1]: F(1)},
        M.uniform,
        lambda dom: skew(dom, False),
        lambda dom: skew(dom, True),
    ]
    vis = sorted(model.dag.visible)
    return [M.product_intervention(model, {v: spec(domains[v]) for v in vis}) for spec in specs]
