"""Test-only helpers."""

import itertools
import os
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import smdg
from smdg.graph import PartitionedDag, SmDG
from smdg.model import (
    ProbTable,
    SelectedDistribution,
    SelectedOutError,
    SmiResult,
    flat,
    product_intervention,
    sharp,
    smi_distribution,
    smo_distribution,
    uniform,
)
from smdg.oracle import OracleError
from smdg.project import canonical_graph
from smdg.sep import D_separated, SeparationQuery, sm_separated

# Non-liftable smDGs: a two-cycle, a self-loop, and a three-cycle that the
# smallest vertex label is not on.
UNLIFTABLE = (
    SmDG.of("ab", edges=[("a", "b"), ("b", "a")]),
    SmDG.of("ab", edges=[("a", "b"), ("b", "b")]),
    SmDG.of("abcd", edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "b")]),
)


def python_env(**extra: str) -> dict:
    """Environment for a child Python process that imports this smdg."""
    src = str(Path(smdg.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


def chain_names(n: int) -> list[str]:
    """n visible names whose sorted order is their order along a chain."""
    return [f"v{i:04d}" for i in range(n)]


def long_chain_dag(n: int) -> PartitionedDag:
    names = chain_names(n)
    return PartitionedDag.of(visible=names, edges=zip(names, names[1:]))


def long_chain_smdg(n: int) -> SmDG:
    """A visible chain whose vertices each carry a singleton marginal face, so
    separation queries on it are not functionally determined."""
    names = chain_names(n)
    return SmDG.of(names, zip(names, names[1:]), marginal_faces=[[v] for v in names])


def decorated_chain_dag(n: int, role: str) -> PartitionedDag:
    """A visible chain with one non-visible vertex per visible: a parentless
    latent parent when role is "marginalized", a childless selected child
    when it is "selected"."""
    names = chain_names(n)
    extra = [f"{role[0]}{v}" for v in names]
    edges = list(zip(names, names[1:]))
    if role == "marginalized":
        edges += zip(extra, names)
    else:
        edges += zip(names, extra)
    return PartitionedDag.of(visible=names, edges=edges, **{role: extra})


def one_shot_dag(rng: random.Random) -> PartitionedDag:
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


def count_calls(monkeypatch, cls, *names: str) -> Counter:
    """Wrap the named methods of cls so that each call is counted by name."""
    calls: Counter = Counter()
    for name in names:
        def counted(self, *args, _name=name, _method=getattr(cls, name)):
            calls[_name] += 1
            return _method(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def cycle_in_message(message: str) -> tuple[str, ...]:
    """The vertices of the cycle that an error message names."""
    return tuple(message.split("the cycle ")[1].split(" has ")[0].split(" -> "))


def assert_cycle_witness(cycle, edges, message: str) -> None:
    """The witness is a closed walk over edges, and the message names it
    once: each vertex, then the closing one."""
    assert len(cycle) >= 2 and cycle[0] == cycle[-1], cycle
    assert all(pair in set(edges) for pair in zip(cycle, cycle[1:])), cycle
    assert f"the cycle {' -> '.join(cycle)} has" in message, message


def assert_matches_rebuild(d: PartitionedDag) -> None:
    """d, however it was derived, equals the graph built from scratch on its
    roles and edges, and answers every vertex query the same way."""
    want = PartitionedDag.from_roles(dict(d.roles), d.edges)
    assert d == want and hash(d) == hash(want) and repr(d) == repr(want)
    assert (d.vertices, d.visible, d.marginalized, d.selected) == (
        want.vertices, want.visible, want.marginalized, want.selected
    )
    for v in want.vertices:
        assert d.parents_of(v) == want.parents_of(v), v
        assert d.children_of(v) == want.children_of(v), v
        assert d.role_of(v) is want.role_of(v), v


def assert_sm_matches_D(g: SmDG, query: SeparationQuery) -> None:
    """The smDG criterion matches the determinism-aware criterion run on the
    rebuilt canonical DAG with all its selected vertices conditioned."""
    d = canonical_graph(g).to_partitioned_dag()
    rhs = D_separated(d, SeparationQuery(query.x, query.y, query.z | d.selected))
    assert sm_separated(g, query) == rhs, query


def moral_criterion(d: PartitionedDag):
    """A test of whether X and Y are separated given Z by the moralized
    ancestral graph criterion (Lauritzen, Dawid, Larsen & Leimer 1990): Z
    separates X from Y in the moral graph of An(X u Y u Z). Reads only
    d.edges, so it shares no code with the trail search."""
    parents: dict = {v: [] for v in d.vertices}
    for a, b in d.edges:
        parents[b].append(a)

    def separated(x, y, z) -> bool:
        keep = set(x) | set(y) | set(z)
        todo = list(keep)
        while todo:
            for p in parents[todo.pop()]:
                if p not in keep:
                    keep.add(p)
                    todo.append(p)
        neighbours: dict = {v: set() for v in keep}
        for v in keep:
            for a, b in itertools.combinations([v, *parents[v]], 2):
                neighbours[a].add(b)
                neighbours[b].add(a)
        seen = set(x)
        todo = list(x)
        while todo:
            for w in neighbours[todo.pop()]:
                if w in y:
                    return False
                if w not in seen and w not in z:
                    seen.add(w)
                    todo.append(w)
        return True

    return separated


def same_up_to_nonvisible_labels(d1: PartitionedDag, d2: PartitionedDag) -> bool:
    """Equality of partitioned DAGs allowing the non-visible vertices to be
    renamed (visible labels are identity and must match exactly)."""
    if d1.visible != d2.visible:
        return False
    if d1.marginalized == d2.marginalized and d1.selected == d2.selected:
        if set(d1.edges) == set(d2.edges):
            return True
    if len(d1.marginalized) != len(d2.marginalized) or len(d1.selected) != len(d2.selected):
        return False

    edges1 = set(d1.edges)

    def fingerprint(d, v):
        vis = d.visible
        return (
            d.role_of(v),
            tuple(sorted(d.parents_of(v) & vis)),
            tuple(sorted(d.children_of(v) & vis)),
            len(d.parents_of(v)),
            len(d.children_of(v)),
        )

    m1, m2 = sorted(d1.marginalized), sorted(d2.marginalized)
    s1, s2 = sorted(d1.selected), sorted(d2.selected)
    for m_perm in itertools.permutations(m2):
        if any(fingerprint(d1, a) != fingerprint(d2, b) for a, b in zip(m1, m_perm)):
            continue
        for s_perm in itertools.permutations(s2):
            if any(fingerprint(d1, a) != fingerprint(d2, b) for a, b in zip(s1, s_perm)):
                continue
            rename = {b: a for a, b in zip(m1, m_perm)}
            rename.update({b: a for a, b in zip(s1, s_perm)})
            rename.update({v: v for v in d1.visible})
            mapped = {(rename[a], rename[b]) for a, b in d2.edges}
            if mapped == edges1:
                return True
    return False


# --- brute-force evaluation oracle ---------------------------------------------


def walk(model, reads, evidence):
    """Stream (assignment, probability) over every vertex in topological
    order, pruning zero-probability branches.

    A kernel reads parent u from ``reads`` when u is there and from the
    assignment otherwise. A vertex in ``evidence`` is pinned to that value
    and weighted by its kernel. The yielded assignment is reused; read it
    before advancing the stream.
    """
    domains, kernels = dict(model.domains), dict(model.kernels)
    steps = []
    for v in model.dag.topological_order():
        dom = domains[v]
        choices = tuple(enumerate(dom))
        if v in evidence:
            i = dom.index(evidence[v])
            choices = ((i, dom[i]),)
        steps.append((v, kernels[v].parents, kernels[v].row, choices))
    assign = {}

    def rec(i, p):
        if i == len(steps):
            yield assign, p
            return
        v, parents, row, choices = steps[i]
        vec = row(tuple(reads[u] if u in reads else assign[u] for u in parents))
        for j, value in choices:
            if vec[j] != 0:
                assign[v] = value
                yield from rec(i + 1, p * vec[j])

    yield from rec(0, Fraction(1))


def assert_smo_is_smi_diagonal(model) -> None:
    """smo is the renormalized ``sharp == flat`` diagonal of smi under the
    uniform intervention on every visible: setting each visible to the value
    it takes anyway changes nothing, so the diagonal is ``q(c) * P(V = c,
    selection)`` with q constant. The diagonal's mass is zero exactly when
    smo is selected out, and otherwise smo's selection probability is smi's
    times that mass times the number of cells."""
    visibles = sorted(model.dag.visible)
    domains = dict(model.domains)
    q = product_intervention(model, {v: uniform(domains[v]) for v in visibles})
    res = smi_distribution(model, q)
    n = len(visibles)
    diagonal = {k[:n]: p for k, p in (res.dist.items() if res.dist else ()) if k[:n] == k[n:]}
    mass = sum(diagonal.values(), Fraction(0))
    try:
        smo = smo_distribution(model)
    except SelectedOutError:
        assert mass == 0
        return
    assert mass > 0
    assert smo.dist == ProbTable.of(visibles, {k: p / mass for k, p in diagonal.items()})
    assert smo.selection_probability == res.selection_probability * mass * len(q.table)


def greedy_order(model, read, outputs, pinned, cells) -> list:
    """The order in which ``sum_product(model, read, outputs, pinned,
    cells)`` should eliminate its vertices: next the vertex whose bucket
    spans the fewest assignments, ties broken by vertex id, with every
    factor's scope scanned again at each step.

    Scopes are those of the factors: a kernel reads a parent u in ``read``
    through ``(u,)``, whose width is the number of u's values that some cell
    holds; pinned vertices leave every scope. A vertex that is not needed
    by an output or a pinned vertex is never a factor.

    A tie is a pinned vertex with two free parents whose kernel, on the
    rows its pinned and read parents allow, gives its pinned value weight
    only where the two parents' values are equal. Taking the pinned
    vertices in sorted order, a tie renames one of its two variables, each
    read through the variables already standing for it, to the other: the
    second if it is summed out, else the first if that one is; a renamed
    vertex is never eliminated."""
    domains, kernels = dict(model.domains), dict(model.kernels)
    held = {u: {key[i] for key in cells} for i, u in enumerate(read)}
    width = {u: len(dom) for u, dom in domains.items()}
    width.update({(u,): len(held[u]) for u in read})
    needed, todo = set(outputs) | set(pinned), list(outputs) + list(pinned)
    while todo:
        for u in kernels[todo.pop()].parents:
            if u not in held and u not in needed:
                needed.add(u)
                todo.append(u)
    scopes = [{(u,) for u in read}]
    for v in needed:
        scope = {(u,) if u in read else u for u in kernels[v].parents if u not in pinned}
        scopes.append(scope if v in pinned else scope | {v})

    summed, stand = needed - set(outputs) - set(pinned), {}

    def standing(u):
        return standing(stand[u]) if u in stand else u

    for v in sorted(pinned):
        parents = kernels[v].parents
        free = [i for i, u in enumerate(parents) if u not in pinned]
        if len(free) != 2:
            continue
        column = domains[v].index(pinned[v])
        off_diagonal = [
            key for key, vec in kernels[v].rows
            if vec[column] and key[free[0]] != key[free[1]]
            and all(key[i] == pinned[u] if u in pinned else u not in read or key[i] in held[u]
                    for i, u in enumerate(parents))
        ]
        if off_diagonal:
            continue
        x, y = (standing((parents[i],) if parents[i] in read else parents[i]) for i in free)
        if x != y and y in summed:
            stand[y] = x
        elif x != y and x in summed:
            stand[x] = y
    scopes = [{standing(u) for u in s} for s in scopes]

    def cost(v):
        span = set().union(*(s for s in scopes if v in s))
        c = 1
        for u in span:
            c *= width[u]
        return c, v

    remaining, order = summed - stand.keys(), []
    while remaining:
        v = min(remaining, key=cost)
        remaining.discard(v)
        order.append(v)
        bucket = [s for s in scopes if v in s]
        scopes = [s for s in scopes if v not in s] + [set().union(*bucket) - {v}]
    return order


def walk_joint(model) -> ProbTable:
    order = tuple(model.dag.topological_order())
    out = {}
    for assign, p in walk(model, {}, {}):
        key = tuple(assign[v] for v in order)
        out[key] = out.get(key, 0) + p
    return ProbTable.of(order, out)


def _walk_selected(model, variables, cells, key):
    evidence = {s: model.selected_zero(s) for s in model.dag.selected}
    out = {}
    for reads, weight in cells:
        for assign, p in walk(model, reads, evidence):
            k = key(reads, assign)
            out[k] = out.get(k, 0) + weight * p
    total = sum(out.values(), Fraction(0))
    if total == 0:
        return None, Fraction(0)
    return ProbTable.of(variables, {k: p / total for k, p in out.items()}), total


def walk_smi(model, q) -> SmiResult:
    visibles = tuple(sorted(model.dag.visible))
    variables = tuple(sharp(v) for v in visibles) + tuple(flat(v) for v in visibles)
    cells = [(dict(zip(visibles, key)), p) for key, p in q.items()]
    dist, total = _walk_selected(
        model, variables, cells,
        lambda reads, a: tuple(reads[v] for v in visibles) + tuple(a[v] for v in visibles),
    )
    status = "selected_out" if dist is None else "ok"
    return SmiResult(q=q, status=status, dist=dist, selection_probability=total)


def walk_ood(model, z, q=None) -> SelectedDistribution:
    """Observe-or-do (smo when z is empty); raises SelectedOutError when the
    selection event has probability zero."""
    z = tuple(sorted(set(z)))
    cells = [(dict(zip(z, key)), p) for key, p in q.items()] if z else [({}, Fraction(1))]
    visibles = tuple(sorted(model.dag.visible))
    dist, total = _walk_selected(
        model, visibles, cells,
        lambda reads, a: tuple(reads[v] if v in reads else a[v] for v in visibles),
    )
    if dist is None:
        raise SelectedOutError("the selection event has probability zero")
    return SelectedDistribution(dist=dist, selection_probability=total)


def brute_force_support_feasible(fs, q) -> bool:
    """Independent exhaustive check of ``oracle.support_feasible``: try every
    zero/positive pattern over all factor cells (roots included, uniform
    weight on the positive ones)."""
    if not q.required:
        raise OracleError("degenerate query: at least one required point is needed")
    cells = [(fs.root_name(name), (v,)) for name, values in fs.variables for v in values]
    for f in fs.selection_factors:
        doms = [fs.domain(v) for v in f.scope]
        cells.extend((f.name, key) for key in itertools.product(*doms))
    req_cells = [fs.cells_of(p) for p in q.required]
    forb_cells = [fs.cells_of(p) for p in q.forbidden]
    for bits in itertools.product((True, False), repeat=len(cells)):
        positive = {c for c, bit in zip(cells, bits) if bit}
        if all(rc <= positive for rc in req_cells) and all(
            not fc <= positive for fc in forb_cells
        ):
            return True
    return False


def unshielded_colliders(d: PartitionedDag, region) -> list:
    """Each (p1, z, p2) with z in region and p1, p2 non-adjacent parents of z."""
    out = []
    for z in sorted(set(region)):
        parents = sorted(d.parents_of(z))
        for i, p1 in enumerate(parents):
            for p2 in parents[i + 1:]:
                if (p1, p2) not in d.edges and (p2, p1) not in d.edges:
                    out.append((p1, z, p2))
    return out
