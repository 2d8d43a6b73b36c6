"""Model transports across the canonicalization rewrites.

Each rewrite of :mod:`smdg.canon` comes with a kernel construction that maps
a discrete model on the source graph to one on the rewritten graph whose
selected observational distribution, and whose selected interventional
distributions under any soft intervention, are exactly unchanged. Latent
domains may grow: libraries of values indexed by parent assignments,
Cartesian products for merges, and fresh copy-check bits for indicators.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

from . import canon
from .graph import PartitionedDag, VertexId
from .model import (
    ONE,
    ZERO,
    DiscreteModel,
    KernelTable,
    ModelError,
    SelectedOutError,
    Value,
    deterministic_kernel,
    smo_distribution,
    table_kernel,
    uniform,
)

CanonMove = canon.CanonStep


def transport(model: DiscreteModel, move: CanonMove) -> DiscreteModel:
    """Apply a canonicalization move to the model's graph and carry the
    kernels along so the selected observational and interventional
    behaviour is exactly preserved."""
    name, args = move
    handlers = {
        "terminalize": _terminalize,
        "exogenize": _exogenize,
        "merge_marginalized": _merge_marginalized,
        "merge_selected": _merge_selected,
        "split_m_to_s": _split,
        "to_special": _to_special,
        "remove_vertex": _remove_vertex,
    }
    if name not in handlers:
        raise ModelError(f"unknown transport move {name!r}")
    return handlers[name](model, *args)


def transport_chain(model: DiscreteModel, moves: Sequence[CanonMove]) -> DiscreteModel:
    for move in moves:
        model = transport(model, move)
    return model


def _row_lookup(model: DiscreteModel, v: VertexId):
    kern = model.kernel(v)

    def lookup(env: Mapping[VertexId, Value]) -> tuple[Fraction, ...]:
        return kern.row(tuple(env[p] for p in kern.parents))

    return lookup


def _make_kernel(
    parents: Sequence[VertexId],
    parent_domains: Sequence[Sequence[Value]],
    row_fn,
) -> KernelTable:
    rows = {}
    for key in product(*parent_domains):
        rows[key] = tuple(row_fn(dict(zip(parents, key))))
    return KernelTable.of(parents, rows)


def _copy_check(domains, kernels, zeros, a: VertexId, m_label: VertexId,
                s_label: VertexId) -> None:
    """Add a uniform latent m_label over a's domain and an indicator selection
    s_label whose zero value means the latent copied a."""
    domains[m_label] = domains[a]
    kernels[m_label] = table_kernel([], [], domains[a], lambda: uniform(domains[a]))
    domains[s_label] = (0, 1)
    zeros[s_label] = 0
    par = sorted((a, m_label))
    kernels[s_label] = deterministic_kernel(
        par, [domains[p] for p in par], (0, 1), lambda x1, x2: 0 if x1 == x2 else 1
    )


def _library(
    base_dom: Sequence[Value], slot_dists: Sequence[Mapping[Value, Fraction]]
) -> tuple[tuple[Value, ...], KernelTable]:
    """Domain and parentless kernel of a latent that holds one value per
    slot, slot i drawn independently from slot_dists[i]."""
    library_dom = tuple(product(*[base_dom] * len(slot_dists)))
    probs = []
    for lib in library_dom:
        p = ONE
        for dist, x in zip(slot_dists, lib):
            p *= dist.get(x, ZERO)
            if p == 0:
                break
        probs.append(p)
    return library_dom, KernelTable.of([], {(): tuple(probs)})


def _pair_latent(
    model: DiscreteModel, dag2: PartitionedDag, m1: VertexId, m2: VertexId, label: VertexId
) -> DiscreteModel:
    """Latents m1 and m2 become one latent ``label`` carrying the pair of
    their values; every child reads the components it used to read."""
    d = model.dag
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)
    dom1, dom2 = domains.pop(m1), domains.pop(m2)
    kernels.pop(m1), kernels.pop(m2)
    p1 = dict(zip(dom1, _row_lookup(model, m1)({})))
    p2 = dict(zip(dom2, _row_lookup(model, m2)({})))
    pair_dom = list(product(dom1, dom2))
    domains[label] = tuple(pair_dom)
    kernels[label] = KernelTable.of([], {(): tuple(p1[x1] * p2[x2] for x1, x2 in pair_dom)})
    for w in sorted(d.children_of(m1) | d.children_of(m2)):
        old = _row_lookup(model, w)
        new_parents = sorted(dag2.parents_of(w))
        reads1 = m1 in d.parents_of(w)
        reads2 = m2 in d.parents_of(w)

        def row_fn(env, old=old, reads1=reads1, reads2=reads2):
            x1, x2 = env[label]
            sub = dict(env)
            if reads1:
                sub[m1] = x1
            if reads2:
                sub[m2] = x2
            return old(sub)

        kernels[w] = _make_kernel(new_parents, [domains[p] for p in new_parents], row_fn)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


# --- the individual constructions ------------------------------------------


def _terminalize(model: DiscreteModel, s: VertexId) -> DiscreteModel:
    """Children of s read their old kernel with s pinned to its zero value."""
    dag2 = canon.terminalize(model.dag, s)
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)
    zero = model.selected_zero(s)
    for w in sorted(model.dag.children_of(s)):
        old = _row_lookup(model, w)
        new_parents = sorted(dag2.parents_of(w))

        def row_fn(env, old=old, zero=zero, s=s):
            return old({**env, s: zero})

        kernels[w] = _make_kernel(new_parents, [domains[p] for p in new_parents], row_fn)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


def _exogenize(model: DiscreteModel, m: VertexId) -> DiscreteModel:
    """m becomes a library of values, one per assignment to its old parents;
    each child looks up the slot matching the actual parent values."""
    old_parents = sorted(model.dag.parents_of(m))
    if not old_parents:
        return model
    dag2 = canon.exogenize(model.dag, m)
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)
    slot_keys = list(product(*[domains[p] for p in old_parents]))
    slot_index = {key: i for i, key in enumerate(slot_keys)}
    base_dom, old_m = domains[m], _row_lookup(model, m)
    slot_dists = [dict(zip(base_dom, old_m(dict(zip(old_parents, key))))) for key in slot_keys]
    domains[m], kernels[m] = _library(base_dom, slot_dists)

    for w in sorted(model.dag.children_of(m)):
        old = _row_lookup(model, w)
        new_parents = sorted(dag2.parents_of(w))

        def row_fn(env, old=old, m=m):
            slot = slot_index[tuple(env[p] for p in old_parents)]
            actual = env[m][slot]
            return old({**env, m: actual})

        kernels[w] = _make_kernel(new_parents, [domains[p] for p in new_parents], row_fn)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


def _merge_marginalized(model: DiscreteModel, m1: VertexId, m2: VertexId) -> DiscreteModel:
    """The merged latent carries the Cartesian product of the two values."""
    dag2 = canon.merge_marginalized(model.dag, m1, m2)
    label = next(iter(dag2.marginalized - model.dag.marginalized))
    return _pair_latent(model, dag2, m1, m2, label)


def _merge_selected(model: DiscreteModel, s1: VertexId, s2: VertexId) -> DiscreteModel:
    """The merged selection records both old values; its zero is the pair of
    old zeros, so conditioning on it is conditioning on both."""
    dag2 = canon.merge_selected(model.dag, s1, s2)
    label = next(iter(dag2.selected - model.dag.selected))
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)
    dom1, dom2 = domains.pop(s1), domains.pop(s2)
    old1, old2 = _row_lookup(model, s1), _row_lookup(model, s2)
    pair_dom = [( # zero pair first for readability of tables
        zeros[s1], zeros[s2]
    )] + [p for p in product(dom1, dom2) if p != (zeros[s1], zeros[s2])]
    domains[label] = tuple(pair_dom)
    zeros[label] = (zeros.pop(s1), zeros.pop(s2))
    kernels.pop(s1), kernels.pop(s2)
    new_parents = sorted(dag2.parents_of(label))

    def row_fn(env):
        r1 = dict(zip(dom1, old1(env)))
        r2 = dict(zip(dom2, old2(env)))
        return [r1[y1] * r2[y2] for y1, y2 in pair_dom]

    kernels[label] = _make_kernel(new_parents, [domains[p] for p in new_parents], row_fn)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


def _split(model: DiscreteModel, m: VertexId, s: VertexId) -> DiscreteModel:
    """Library-plus-copy-check construction.

    Each new pair gets a uniform latent over the tail's domain and an
    indicator selection; the old latent becomes a library of values indexed
    by assignments to the selection's visible parents, conditioned on the
    old selection succeeding; children look the actual slot up through the
    copy-check latents.
    """
    d = model.dag
    v_s = sorted(d.parents_of(s) & d.visible)
    v_m = sorted(d.children_of(m) & d.visible)
    labels = canon.split_pair_label_map(d, m, s)
    dag2 = canon.split_m_to_s(d, m, s)
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)

    base_dom = domains[m]
    m_prior = dict(zip(base_dom, _row_lookup(model, m)({})))
    s_old = _row_lookup(model, s)
    s_dom = domains[s]
    s_zero_idx = s_dom.index(model.selected_zero(s))

    # the selection keeps its domain but marginalizes the lost latent parent
    new_s_parents = sorted(dag2.parents_of(s))

    def s_row(env):
        acc = [ZERO] * len(s_dom)
        for x_m in base_dom:
            row = s_old({**env, m: x_m})
            for i, p in enumerate(row):
                acc[i] += m_prior[x_m] * p
        return acc

    kernels[s] = _make_kernel(new_s_parents, [domains[p] for p in new_s_parents], s_row)

    for (a, b), (s_label, m_label) in labels.items():
        _copy_check(domains, kernels, zeros, a, m_label, s_label)

    if v_m:
        # library over assignments to the selection's visible parents
        slot_keys = list(product(*[domains[a] for a in v_s]))
        slot_index = {key: i for i, key in enumerate(slot_keys)}
        conditional: list[dict[Value, Fraction]] = []
        for key in slot_keys:
            env = dict(zip(v_s, key))
            weights = {
                x_m: m_prior[x_m] * s_old({**env, m: x_m})[s_zero_idx] for x_m in base_dom
            }
            total = sum(weights.values(), ZERO)
            if total == 0:
                conditional.append(uniform(base_dom))  # slot never consulted under selection
            else:
                conditional.append({x: w / total for x, w in weights.items()})
        domains[m], kernels[m] = _library(base_dom, conditional)

        for b in v_m:
            old = _row_lookup(model, b)
            new_parents = sorted(dag2.parents_of(b))
            check_latents = [labels[(a, b)][1] for a in v_s]

            def row_fn(env, old=old, check_latents=check_latents):
                key = tuple(env[u] for u in check_latents)
                actual = env[m][slot_index[key]]
                return old({**env, m: actual})

            kernels[b] = _make_kernel(new_parents, [domains[p] for p in new_parents], row_fn)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


def _to_special(model: DiscreteModel, a: VertexId, b: VertexId) -> DiscreteModel:
    """Uniform latent plus copy-check indicator standing in for the edge."""
    dag2 = canon.to_special(model.dag, a, b)
    s_label = next(iter(dag2.selected - model.dag.selected))
    m_label = next(iter(dag2.marginalized - model.dag.marginalized))
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)
    _copy_check(domains, kernels, zeros, a, m_label, s_label)
    old = _row_lookup(model, b)
    new_parents = sorted(dag2.parents_of(b))

    def row_fn(env, old=old):
        return old({**env, a: env[m_label]})

    kernels[b] = _make_kernel(new_parents, [domains[p] for p in new_parents], row_fn)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


def _remove_vertex(model: DiscreteModel, victim: VertexId) -> DiscreteModel:
    d = model.dag
    if victim in d.marginalized:
        if not d.children_of(victim):
            return _drop_plain(model, victim)
        return _remove_redundant_marginalized(model, victim)
    if victim in d.selected:
        if not d.parents_of(victim):
            return _drop_plain(model, victim)
        return _remove_redundant_selected(model, victim)
    raise ModelError(f"cannot transport the removal of visible vertex {victim!r}")


def _drop_plain(model: DiscreteModel, victim: VertexId) -> DiscreteModel:
    """A childless latent or parentless selection influences nothing after
    marginalization and renormalization; drop it outright."""
    if victim in model.dag.selected:
        zero = model.selected_zero(victim)
        row = _row_lookup(model, victim)({})
        if row[model.domain(victim).index(zero)] == 0:
            raise SelectedOutError(
                f"removing {victim!r} would change a model whose selection never succeeds"
            )
    dag2 = model.dag.with_vertices(remove={victim})
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)
    domains.pop(victim), kernels.pop(victim), zeros.pop(victim, None)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


def _dominator_m(d: PartitionedDag, victim: VertexId) -> VertexId:
    ch = d.children_of(victim)
    for m2 in sorted(d.marginalized):
        if m2 != victim and ch <= d.children_of(m2):
            return m2
    raise ModelError(f"marginalized vertex {victim!r} is not redundant")


def _dominator_s(d: PartitionedDag, victim: VertexId) -> VertexId:
    pa = d.parents_of(victim)
    for s2 in sorted(d.selected):
        if s2 != victim and pa <= d.parents_of(s2):
            return s2
    raise ModelError(f"selected vertex {victim!r} is not redundant")


def _remove_redundant_marginalized(model: DiscreteModel, m1: VertexId) -> DiscreteModel:
    """The dominating latent m2 carries the pair (old m1 value, old m2 value);
    the children of m1 are children of m2, and each reads the component it
    used to read."""
    m2 = _dominator_m(model.dag, m1)
    return _pair_latent(model, model.dag.with_vertices(remove={m1}), m1, m2, m2)


def _remove_redundant_selected(model: DiscreteModel, s1: VertexId) -> DiscreteModel:
    """The dominating selection s2 absorbs s1: its new zero succeeds exactly
    when both old selections did."""
    d = model.dag
    s2 = _dominator_s(d, s1)
    dag2 = d.with_vertices(remove={s1})
    domains, kernels, zeros = dict(model.domains), dict(model.kernels), dict(model.selected_zeros)
    old1, old2 = _row_lookup(model, s1), _row_lookup(model, s2)
    z1 = domains[s1].index(zeros[s1])
    z2 = domains[s2].index(zeros[s2])
    domains.pop(s1)
    kernels.pop(s1)
    zeros.pop(s1)
    domains[s2] = (0, 1)
    zeros[s2] = 0
    new_parents = sorted(dag2.parents_of(s2))

    def row_fn(env):
        p = old1(env)[z1] * old2(env)[z2]
        return [p, ONE - p]

    kernels[s2] = _make_kernel(new_parents, [domains[p] for p in new_parents], row_fn)
    return DiscreteModel.of(dag2, domains, kernels, zeros)


# --- observe-or-do transport -------------------------------------------------


def transport_obs_or_do(model: DiscreteModel) -> DiscreteModel:
    """Drop the latent-to-selection edge of a latent -> visible -> selection
    triangle while preserving every observe-or-do pair.

    The rewritten selection kernel marginalizes the latent out; the visible
    is re-sourced from fresh randomness folded into the latent so that its
    selected marginal is exactly reproduced (and stays deterministic given
    its parent).
    """
    d = model.dag
    vis, mar, sel = sorted(d.visible), sorted(d.marginalized), sorted(d.selected)
    if len(vis) != 1 or len(mar) != 1 or len(sel) != 1:
        raise ModelError("expected exactly one visible, one marginalized, one selected vertex")
    (v,), (m,), (s,) = vis, mar, sel
    if set(d.edges) != {(m, v), (v, s), (m, s)}:
        raise ModelError("expected the edge set {m->v, v->s, m->s}")

    dom_v, dom_m = model.domain(v), model.domain(m)
    m_prior = dict(zip(dom_m, _row_lookup(model, m)({})))
    s_old = _row_lookup(model, s)
    z = model.domain(s).index(model.selected_zero(s))

    # selection kernel with the latent marginalized out
    sel_given_v = {
        x_v: sum((m_prior[x_m] * s_old({m: x_m, v: x_v})[z] for x_m in dom_m), ZERO)
        for x_v in dom_v
    }
    # target marginal for the visible: its selected distribution, divided by
    # the new selection weight, renormalized
    selected_marginal = smo_distribution(model).dist  # raises when selected out
    weights = {}
    for x_v in dom_v:
        pv = selected_marginal.prob((x_v,))
        weights[x_v] = ZERO if sel_given_v[x_v] == 0 else pv / sel_given_v[x_v]
    total = sum(weights.values(), ZERO)
    target_v = {x_v: w / total for x_v, w in weights.items()}

    dag2 = PartitionedDag.of(
        visible=[v], marginalized=[m], selected=[s], edges=[(m, v), (v, s)]
    )
    pair_dom = list(product(dom_m, dom_v))
    domains = {v: dom_v, s: (0, 1), m: tuple(pair_dom)}
    kernels = {
        m: KernelTable.of(
            [], {(): tuple(m_prior[x_m] * target_v[r] for x_m, r in pair_dom)}
        ),
        v: deterministic_kernel([m], [tuple(pair_dom)], dom_v, lambda pair: pair[1]),
        s: table_kernel(
            [v], [dom_v], (0, 1),
            lambda x_v: {0: sel_given_v[x_v], 1: ONE - sel_given_v[x_v]},
        ),
    }
    return DiscreteModel.of(dag2, domains, kernels, {s: 0})
