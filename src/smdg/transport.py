"""Model transports across the canonicalization rewrites.

Each rewrite of :mod:`smdg.canon` comes with a kernel construction that maps
a discrete model on the source graph to one on the rewritten graph whose
selected observational distribution, and whose selected interventional
distributions under any soft intervention, are exactly unchanged. Latent
domains may grow: libraries of values indexed by parent assignments,
Cartesian products for merges, and fresh copy-check bits for indicators.

``_CONSTRUCTIONS`` maps each canon step name to its construction.
``transport`` computes the rewritten graph through canon's own rule table,
copies the source model's domain, kernel and zero maps once, lets the
construction edit those maps, and builds the transported model once. It
validates the rows only of the kernels that the construction wrote, or
whose role, own domain or parent domains differ from the source's; every
other kernel is the source's validated instance (see ``transport``).

Every construction computes on integer rows: it reads each old row as
integer numerators over its kernel's ``den`` (:func:`_read`), multiplies
and adds those integers over the product of the denominators involved, and
builds each new kernel with :meth:`KernelTable.over`, which reduces it to
the form :meth:`KernelTable.of` gives. No construction makes a
``Fraction``, and neither does ``transport_obs_or_do``: it divides the
selected marginal's integer weights by integer selection weights over one
common multiple.
"""

from __future__ import annotations

from itertools import product
from math import lcm, prod
from typing import Iterable, Mapping, Sequence

from . import canon
from .graph import PartitionedDag, VertexId
from .model import (
    DiscreteModel,
    KernelTable,
    ModelError,
    SelectedOutError,
    Value,
    copy_check,
    deterministic_kernel,
    smo_distribution,
)
from .sumproduct import picker

CanonMove = canon.CanonStep

# The most values a library latent may hold. A library keeps one value per
# slot, and a slot per assignment to the parents it stands in for, so it has
# |dom| ** slots values; exogenize and split_m_to_s raise ModelError rather
# than build a larger one. The test suite and the benchmark build at most 16.
LIBRARY_LIMIT = 2 ** 16


def transport(model: DiscreteModel, move: CanonMove) -> DiscreteModel:
    """Apply a canonicalization move to the model's graph and carry the
    kernels along so the selected observational and interventional
    behaviour is exactly preserved."""
    name, args = move
    if name not in _CONSTRUCTIONS:
        raise ModelError(f"unknown transport move {name!r}")
    dag2 = canon.replay_steps(model.dag, [move])
    domains, kernels, zeros = (dict(m) for m in model.maps)
    _CONSTRUCTIONS[name](model, dag2, domains, kernels, zeros, *args)
    # _derived checks coverage, domains, zeros and every kernel's parents,
    # but the rows only of kernels that are not the source's own instance
    # for a vertex of the same role over the same domain and parent domains:
    # a row check reads nothing else, so an inherited kernel passes it as it
    # did when the source was built. What is left to check, per construction:
    # - terminalize: the children of s, re-read with s at its zero;
    # - exogenize: m's library and m's children, which now read it;
    # - merge_marginalized: the merged latent and the children that read it;
    # - merge_selected: the merged selection;
    # - split_m_to_s: s, the copy-check pairs, m's library and m's visible
    #   children;
    # - to_special: the copy-check pair and b;
    # - remove_vertex: the dominating latent and its children, or the
    #   dominating selection; a vacuous vertex leaves only inherited kernels.
    # A construction that also changed some other vertex's domain would get
    # that vertex's kernel and its children's kernels checked as well.
    return DiscreteModel._derived(model, dag2, domains, kernels, zeros)


def transport_chain(model: DiscreteModel, moves: Sequence[CanonMove]) -> DiscreteModel:
    for move in moves:
        model = transport(model, move)
    return model


def _read(kern: KernelTable, env: Mapping[VertexId, Value]) -> tuple[int, ...]:
    """kern's row at the parent values in env, as integer numerators over kern.den."""
    return kern.numerators(tuple(env[p] for p in kern.parents))


def _make_kernel(dag2: PartitionedDag, domains, w: VertexId, den: int, row_fn) -> KernelTable:
    """Kernel of w over its parents in dag2, one row_fn(parent values) per
    parent assignment, each row integer numerators over ``den``."""
    parents = sorted(dag2.parents_of(w))
    rows = {
        key: row_fn(dict(zip(parents, key))) for key in product(*[domains[p] for p in parents])
    }
    return KernelTable.over(parents, den, rows)


def _reread(model: DiscreteModel, dag2: PartitionedDag, domains, kernels,
            children: Iterable[VertexId], replaced: Sequence[VertexId],
            reads: Sequence[VertexId], fn) -> None:
    """Each child keeps its old kernel, read at its new parent values with
    the old parents in ``replaced`` put in place by fn(values of the new
    parents in ``reads``), which returns a tuple of their values in order."""
    for w in sorted(children):
        old = model.kernel(w)
        parents = sorted(dag2.parents_of(w))
        src = picker(parents, reads)
        # replaced names come first, so a new parent that shares one's name is not read for it
        old_key = picker((*replaced, *parents), old.parents)
        rows = {
            key: old.numerators(old_key(fn(*src(key)) + key))
            for key in product(*[domains[p] for p in parents])
        }
        kernels[w] = KernelTable.over(parents, old.den, rows)


def _slot_library(move: str, base_dom: Sequence[Value], slot_domains: Sequence[Sequence[Value]],
                  dist_of):
    """Domain, parentless kernel and slot index of a latent that holds one
    value per slot, an assignment to ``slot_domains``, the value in a slot
    drawn independently from dist_of(slot), which returns ``(den, {value:
    integer numerator over den})``.

    The library has |base_dom| ** slots values; above ``LIBRARY_LIMIT`` it
    raises ModelError before building anything.
    """
    slots = prod(len(dom) for dom in slot_domains)
    # base ** n > LIBRARY_LIMIT for every base >= 2 once n reaches the limit's bit length
    if len(base_dom) ** min(slots, LIBRARY_LIMIT.bit_length()) > LIBRARY_LIMIT:
        raise ModelError(
            f"{move}: a library of {len(base_dom)}^{slots} values exceeds the limit of "
            f"{LIBRARY_LIMIT}"
        )
    keys = list(product(*slot_domains))
    dists = [dist_of(key) for key in keys]
    library_dom = tuple(product(base_dom, repeat=len(keys)))
    probs = [1]
    for _, dist in dists:  # in the order of library_dom, the last slot varying fastest
        probs = [p * dist[x] for p in probs for x in base_dom]
    kernel = KernelTable.over([], prod(den for den, _ in dists), {(): probs})
    return library_dom, kernel, {key: i for i, key in enumerate(keys)}


def _pair_latent(model: DiscreteModel, dag2: PartitionedDag, domains, kernels,
                 m1: VertexId, m2: VertexId, label: VertexId) -> None:
    """Latents m1 and m2 become one latent ``label`` carrying the pair of
    their values; every child reads the components it used to read."""
    dom1, dom2 = domains.pop(m1), domains.pop(m2)
    k1, k2 = kernels.pop(m1), kernels.pop(m2)
    p1, p2 = dict(zip(dom1, _read(k1, {}))), dict(zip(dom2, _read(k2, {})))
    pair_dom = tuple(product(dom1, dom2))
    domains[label] = pair_dom
    kernels[label] = KernelTable.over(
        [], k1.den * k2.den, {(): [p1[x1] * p2[x2] for x1, x2 in pair_dom]}
    )
    d = model.dag
    _reread(model, dag2, domains, kernels, d.children_of(m1) | d.children_of(m2),
            (m1, m2), (label,), lambda pair: pair)


def _dominator(d: PartitionedDag, victim: VertexId, peers, family) -> VertexId:
    """The first sorted peer whose family contains the victim's."""
    for v in sorted(peers):
        if v != victim and family(victim) <= family(v):
            return v
    raise ModelError(f"{d.role_of(victim).value} vertex {victim!r} is not redundant")


# --- the individual constructions ------------------------------------------


def _terminalize(model, dag2, domains, kernels, zeros, s: VertexId) -> None:
    """Children of s read their old kernel with s pinned to its zero value."""
    zero = zeros[s]
    _reread(model, dag2, domains, kernels, model.dag.children_of(s), (s,), (), lambda: (zero,))


def _exogenize(model, dag2, domains, kernels, zeros, m: VertexId) -> None:
    """m becomes a library of values, one per assignment to its old parents;
    each child looks up the slot matching the actual parent values."""
    old_parents = sorted(model.dag.parents_of(m))
    if not old_parents:
        return
    base_dom, old_m = domains[m], kernels[m]
    domains[m], kernels[m], slot = _slot_library(
        "exogenize",
        base_dom,
        [domains[p] for p in old_parents],
        lambda key: (old_m.den, dict(zip(base_dom, _read(old_m, dict(zip(old_parents, key)))))),
    )
    _reread(model, dag2, domains, kernels, model.dag.children_of(m),
            (m,), (m, *old_parents), lambda library, *key: (library[slot[key]],))


def _merge_marginalized(model, dag2, domains, kernels, zeros, m1: VertexId,
                        m2: VertexId) -> None:
    """The merged latent carries the Cartesian product of the two values."""
    (label,) = dag2.marginalized - model.dag.marginalized
    _pair_latent(model, dag2, domains, kernels, m1, m2, label)


def _merge_selected(model, dag2, domains, kernels, zeros, s1: VertexId,
                    s2: VertexId) -> None:
    """The merged selection records both old values; its zero is the pair of
    old zeros, so conditioning on it is conditioning on both."""
    (label,) = dag2.selected - model.dag.selected
    dom1, dom2 = domains.pop(s1), domains.pop(s2)
    old1, old2 = kernels.pop(s1), kernels.pop(s2)
    zero = (zeros.pop(s1), zeros.pop(s2))
    # zero pair first for readability of tables
    pair_dom = (zero,) + tuple(p for p in product(dom1, dom2) if p != zero)
    domains[label] = pair_dom
    zeros[label] = zero

    def row_fn(env):
        r1 = dict(zip(dom1, _read(old1, env)))
        r2 = dict(zip(dom2, _read(old2, env)))
        return [r1[y1] * r2[y2] for y1, y2 in pair_dom]

    kernels[label] = _make_kernel(dag2, domains, label, old1.den * old2.den, row_fn)


def _split(model, dag2, domains, kernels, zeros, m: VertexId, s: VertexId) -> None:
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
    base_dom, m_old = domains[m], kernels[m]
    m_prior = dict(zip(base_dom, _read(m_old, {})))
    s_old, s_dom = kernels[s], domains[s]
    s_zero_idx = s_dom.index(zeros[s])

    # the selection keeps its domain but marginalizes the lost latent parent;
    # every weight below is over m_old.den * s_old.den
    def s_row(env):
        acc = [0] * len(s_dom)
        for x_m in base_dom:
            for i, n in enumerate(_read(s_old, {**env, m: x_m})):
                acc[i] += m_prior[x_m] * n
        return acc

    kernels[s] = _make_kernel(dag2, domains, s, m_old.den * s_old.den, s_row)
    for (a, b), (s_label, m_label) in labels.items():
        copy_check(domains, kernels, zeros, a, m_label, s_label)
    if not v_m:
        return

    def conditional(key):
        # the old latent given the old selection, at one assignment of v_s
        env = dict(zip(v_s, key))
        weights = {
            x_m: m_prior[x_m] * _read(s_old, {**env, m: x_m})[s_zero_idx] for x_m in base_dom
        }
        total = sum(weights.values())
        if total == 0:  # slot never consulted under selection
            return len(base_dom), dict.fromkeys(base_dom, 1)
        return total, weights

    domains[m], kernels[m], slot = _slot_library(
        "split_m_to_s", base_dom, [domains[a] for a in v_s], conditional
    )
    for b in v_m:
        _reread(model, dag2, domains, kernels, [b], (m,), (m, *(labels[(a, b)][1] for a in v_s)),
                lambda library, *key: (library[slot[key]],))


def _to_special(model, dag2, domains, kernels, zeros, a: VertexId, b: VertexId) -> None:
    """Uniform latent plus copy-check indicator standing in for the edge."""
    (s_label,) = dag2.selected - model.dag.selected
    (m_label,) = dag2.marginalized - model.dag.marginalized
    copy_check(domains, kernels, zeros, a, m_label, s_label)
    _reread(model, dag2, domains, kernels, [b], (a,), (m_label,), lambda x: (x,))


def _remove_vertex(model, dag2, domains, kernels, zeros, victim: VertexId) -> None:
    """A vacuous vertex (a childless latent or a parentless selection)
    influences nothing after marginalization and renormalization and is
    dropped. A redundant one is absorbed by its dominator: a dominating
    latent carries the pair of old values, and a dominating selection
    succeeds exactly when both old selections did."""
    d = model.dag
    if victim in d.marginalized:
        peers, family = d.marginalized, d.children_of
    elif victim in d.selected:
        peers, family = d.selected, d.parents_of
    else:
        raise ModelError(f"cannot transport the removal of visible vertex {victim!r}")
    if not family(victim):
        if victim in d.selected:
            if _read(kernels[victim], {})[domains[victim].index(zeros[victim])] == 0:
                raise SelectedOutError(
                    f"removing {victim!r} would change a model whose selection never succeeds"
                )
        del domains[victim], kernels[victim]
        zeros.pop(victim, None)
        return
    keeper = _dominator(d, victim, peers, family)
    if victim in d.marginalized:
        _pair_latent(model, dag2, domains, kernels, victim, keeper, keeper)
        return
    old1, old2 = kernels.pop(victim), kernels[keeper]
    z1 = domains.pop(victim).index(zeros.pop(victim))
    z2 = domains[keeper].index(zeros[keeper])
    domains[keeper], zeros[keeper] = (0, 1), 0
    den = old1.den * old2.den

    def row_fn(env):
        n = _read(old1, env)[z1] * _read(old2, env)[z2]
        return [n, den - n]

    kernels[keeper] = _make_kernel(dag2, domains, keeper, den, row_fn)


_CONSTRUCTIONS = {
    "terminalize": _terminalize,
    "exogenize": _exogenize,
    "merge_marginalized": _merge_marginalized,
    "merge_selected": _merge_selected,
    "split_m_to_s": _split,
    "to_special": _to_special,
    "remove_vertex": _remove_vertex,
}


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
    m_kern, s_old = model.kernel(m), model.kernel(s)
    m_prior = dict(zip(dom_m, _read(m_kern, {})))
    z = model.domain(s).index(model.selected_zero(s))

    # selection kernel with the latent marginalized out, over den
    den = m_kern.den * s_old.den
    sel_given_v = {
        x_v: sum(m_prior[x_m] * _read(s_old, {m: x_m, v: x_v})[z] for x_m in dom_m)
        for x_v in dom_v
    }
    # target marginal for the visible: its selected distribution, divided by
    # the new selection weight, renormalized. Over the common multiple of the
    # nonzero selection weights, each weight is an integer over the selected
    # marginal's own denominator, which the renormalization cancels.
    selected_marginal = dict(smo_distribution(model).dist.weights)  # raises when selected out
    common = lcm(*(n for n in sel_given_v.values() if n))
    target_v = {
        x_v: 0 if n == 0 else selected_marginal.get((x_v,), 0) * (common // n)
        for x_v, n in sel_given_v.items()
    }
    total = sum(target_v.values())

    dag2 = PartitionedDag.of(
        visible=[v], marginalized=[m], selected=[s], edges=[(m, v), (v, s)]
    )
    pair_dom = list(product(dom_m, dom_v))
    domains = {v: dom_v, s: (0, 1), m: tuple(pair_dom)}
    kernels = {
        m: KernelTable.over(
            [], m_kern.den * total, {(): [m_prior[x_m] * target_v[r] for x_m, r in pair_dom]}
        ),
        v: deterministic_kernel([m], [tuple(pair_dom)], dom_v, lambda pair: pair[1]),
        s: KernelTable.over(
            [v], den, {(x_v,): (n, den - n) for x_v, n in sel_given_v.items()}
        ),
    }
    return DiscreteModel.of(dag2, domains, kernels, {s: 0})
