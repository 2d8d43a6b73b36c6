"""Exact finite discrete models over partitioned DAGs.

All probability arithmetic is exact: each :class:`KernelTable` holds its
rows once, as integer numerators over one denominator, and both validation
and evaluation read that form. A reported distribution (:class:`ProbTable`)
is held the same way, as integer weights over one denominator, from the
evaluator to the caller; equality, hash and marginals read the integers.
``fractions.Fraction`` values are made only where a caller reads one: by
:meth:`KernelTable.row`, the JSON writer, a :class:`ProbTable`'s ``table``
(made on its first read), ``prob`` and ``total``, and each selection
probability. There is no floating point and no tolerance anywhere in this
module.
Visible variables must have deterministic kernels (their randomness, when
needed, comes from explicit marginalized parents; see
:func:`add_private_latents`). Selected variables are conditioned to a
designated zero value in every reported distribution.

Every distribution here comes from one exact sum-product evaluator,
:func:`smdg.sumproduct.sum_product`. An intervention is one more factor: a
kernel reads an intervened parent through that parent's sharp copy, and
the intervention's weights are a factor over the sharp copies. Selection
is evidence: a selected vertex is pinned to its zero value, which gives
the numerator of the conditioning. Every other vertex outside the reported
variables is summed out, and each reported probability is one integer
weight over the table's denominator. The tests check this evaluator
against a brute-force walk over every joint assignment.

The plain joint and each observe-or-do distribution take one elimination
per call. The selected interventional distribution is linear in its
intervention q, so each model runs one elimination for it, with every
sharp cell weighted 1, the first time any q is asked; the result is kept
on the model instance, and every smi call contracts it with q's weights.

A model records its domain, kernel and selected-zero maps once
(:attr:`DiscreteModel.maps`), and every accessor, check and evaluation
reads them. :meth:`DiscreteModel.of` validates every kernel. A model built
from another model's edited maps (``DiscreteModel._derived``, which
:func:`smdg.transport.transport` uses) checks coverage, domains, zeros and
every kernel's parents, but re-checks rows only for kernels that are not
the source's own instance for a vertex of the same role over the same
domain and parent domains.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod
from typing import Any, Iterable, Mapping, Optional, Sequence

from .graph import GraphError, PartitionedDag, Role, VertexId, _recorded, _Value
from . import io as graph_io
from .sumproduct import picker, sum_product

Value = Any  # hashable; ints for serializable models, tuples for transported ones
Assignment = tuple[Value, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


class ModelError(GraphError):
    pass


class SelectedOutError(ModelError):
    """The selection event has probability zero; the distribution is undefined."""


class KernelTable(_Value):
    """Rows map an assignment of the declared parents to a probability vector
    over the vertex's domain values (aligned with the domain ordering), held
    as integer numerators over ``den``, the lcm of every entry's denominator.
    :meth:`row` reads one row back as ``Fraction``s. The evaluator records
    the kernel's whole factor on the instance the first time it reads it
    (:func:`smdg.sumproduct._whole_table`), and the first :meth:`numerators`
    or :meth:`row` read records an index of the rows by key; a kernel that
    is only evaluated and validated builds no index."""

    parents: tuple[VertexId, ...]
    den: int
    rows: tuple[tuple[Assignment, tuple[int, ...]], ...]

    def __init__(self, parents, den, rows) -> None:
        self.__dict__.update(parents=parents, den=den, rows=rows, _key=(parents, den, rows))

    @classmethod
    def of(
        cls,
        parents: Sequence[VertexId],
        rows: Mapping[Assignment, Sequence[Fraction | int]],
    ) -> "KernelTable":
        items = [(tuple(k), tuple(vec)) for k, vec in rows.items()]
        entries = [p for _, vec in items for p in vec]
        if bad := [p for p in entries if not isinstance(p, (int, Fraction))]:
            raise ModelError(f"kernel entry {bad[0]!r} is not an int or a Fraction")
        den = lcm(*{p.denominator for p in entries})
        fixed = tuple(sorted(
            (k, tuple(p.numerator * (den // p.denominator) for p in vec)) for k, vec in items
        ))
        return cls(parents=tuple(parents), den=den, rows=fixed)

    @classmethod
    def over(
        cls,
        parents: Sequence[VertexId],
        den: int,
        rows: Mapping[Assignment, Sequence[int]],
    ) -> "KernelTable":
        """Rows of integer numerators over ``den``, reduced to the same form
        :meth:`of` gives: over the lcm of every entry's reduced denominator,
        which is ``den`` divided by its gcd with every numerator."""
        g = gcd(den, *chain.from_iterable(rows.values()))
        fixed = tuple(sorted(
            (tuple(k), tuple(vec) if g == 1 else tuple(n // g for n in vec))
            for k, vec in rows.items()
        ))
        return cls(parents=tuple(parents), den=den // g, rows=fixed)

    def numerators(self, key: Assignment) -> tuple[int, ...]:
        """One row as integer numerators over ``den``."""
        return _recorded(self, "_index", _row_index)[tuple(key)]

    def row(self, key: Assignment) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.numerators(key))


def _row_index(kern: KernelTable) -> dict[Assignment, tuple[int, ...]]:
    return dict(kern.rows)


def deterministic_kernel(
    parents: Sequence[VertexId],
    parent_domains: Sequence[Sequence[Value]],
    domain: Sequence[Value],
    fn,
) -> KernelTable:
    """Point-mass rows computed by ``fn(*parent_values) -> value``."""
    rows = {}
    for key in product(*parent_domains):
        value = fn(*key)
        rows[key] = tuple(1 if v == value else 0 for v in domain)
    return KernelTable.over(parents, 1, rows)


def table_kernel(
    parents: Sequence[VertexId],
    parent_domains: Sequence[Sequence[Value]],
    domain: Sequence[Value],
    fn,
) -> KernelTable:
    """Rows computed by ``fn(*parent_values) -> mapping value -> probability``."""
    rows = {}
    for key in product(*parent_domains):
        dist = fn(*key)
        rows[key] = tuple(dist.get(v, 0) for v in domain)
    return KernelTable.of(parents, rows)


def uniform(domain: Sequence[Value]) -> dict[Value, Fraction]:
    p = Fraction(1, len(domain))
    return {v: p for v in domain}


class DiscreteModel(_Value):
    dag: PartitionedDag
    domains: tuple[tuple[VertexId, tuple[Value, ...]], ...]
    kernels: tuple[tuple[VertexId, KernelTable], ...]
    selected_zeros: tuple[tuple[VertexId, Value], ...]

    def __init__(self, dag, domains, kernels, selected_zeros) -> None:
        self.__dict__.update(dag=dag, domains=domains, kernels=kernels,
                             selected_zeros=selected_zeros,
                             _key=(dag, domains, kernels, selected_zeros))

    @classmethod
    def of(
        cls,
        dag: PartitionedDag,
        domains: Mapping[VertexId, Sequence[Value]],
        kernels: Mapping[VertexId, KernelTable],
        selected_zeros: Optional[Mapping[VertexId, Value]] = None,
    ) -> "DiscreteModel":
        model = cls._unchecked(dag, domains, kernels, selected_zeros)
        model.validate()
        return model

    @classmethod
    def _unchecked(cls, dag, domains, kernels, selected_zeros) -> "DiscreteModel":
        zeros = dict(selected_zeros or {})
        for s in dag.selected:
            zeros.setdefault(s, 0)
        return cls(
            dag=dag,
            domains=tuple(sorted((v, tuple(vals)) for v, vals in domains.items())),
            kernels=tuple(sorted(kernels.items())),
            selected_zeros=tuple(sorted(zeros.items())),
        )

    @classmethod
    def _derived(cls, source: "DiscreteModel", dag: PartitionedDag, domains, kernels,
                 selected_zeros) -> "DiscreteModel":
        """The model on these maps, checked as :meth:`of` checks it except
        for the rows that ``source``, a validated model, vouches for
        (:meth:`_vouches_for`)."""
        model = cls._unchecked(dag, domains, kernels, selected_zeros)
        model._validate(source)
        return model

    # --- accessors -------------------------------------------------------
    @property
    def maps(self) -> tuple[dict[VertexId, tuple[Value, ...]], dict[VertexId, KernelTable],
                            dict[VertexId, Value]]:
        """The domain, kernel and selected-zero maps, made once per instance
        and shared by every reader; never write to them."""
        return _recorded(self, "_maps", _maps)

    def domain(self, v: VertexId) -> tuple[Value, ...]:
        return self.maps[0][v]

    def kernel(self, v: VertexId) -> KernelTable:
        return self.maps[1][v]

    def selected_zero(self, v: VertexId) -> Value:
        return self.maps[2][v]

    def validate(self) -> None:
        self._validate(None)

    def _vouches_for(self, v: VertexId, kern: KernelTable, other: "DiscreteModel") -> bool:
        """Whether kern, as other's kernel of v, is this validated model's own
        instance for a vertex of the same role, over the same domain, whose
        parents' domains are the same too. Its row checks read nothing else,
        so they pass in other as they passed here. other must already have
        v and kern's parents as its vertices."""
        domains, kernels, _ = self.maps
        new = other.maps[0]
        return (
            kern is kernels.get(v)
            and self.dag.role_of(v) is other.dag.role_of(v)
            and all(new[u] is domains[u] or new[u] == domains[u] for u in (v, *kern.parents))
        )

    def _validate(self, source: Optional["DiscreteModel"]) -> None:
        """Coverage, domains, zeros and every kernel's parents, and the rows
        of each kernel that ``source`` does not vouch for."""
        domains, kernels, zeros = self.maps
        if set(domains) != self.dag.vertices or set(kernels) != self.dag.vertices:
            raise ModelError("domains and kernels must cover exactly the graph vertices")
        for v, dom in domains.items():
            if len(dom) < 1:
                raise ModelError(f"domain of {v!r} is empty")
            if len(set(dom)) != len(dom):
                raise ModelError(f"domain of {v!r} has duplicate values")
        if lacking := [s for s in self.dag.selected if zeros[s] not in domains[s]]:
            raise ModelError(f"selected vertex {min(lacking)!r} lacks its zero value")
        visible = self.dag.visible
        for v, kern in kernels.items():
            if set(kern.parents) != self.dag.parents_of(v):
                raise ModelError(f"kernel of {v!r} does not match its parents")
            if source is not None and source._vouches_for(v, kern, self):
                continue
            if len(kern.rows) != prod(len(domains[p]) for p in kern.parents):
                raise ModelError(f"kernel of {v!r} is missing parent-assignment rows")
            # the whole kernel at once; only a fault walks the rows, to name the first
            keys, vecs = zip(*kern.rows)
            if (
                set(map(len, keys)) == {len(kern.parents)}
                and all(set(col) <= set(domains[p]) for col, p in zip(zip(*keys), kern.parents))
                and set(map(len, vecs)) == {len(domains[v])}
                and set(map(sum, vecs)) == {kern.den}
                and min(map(min, vecs)) >= 0
                and (v not in visible or min(map(max, vecs)) == kern.den)
            ):
                continue
            parent_domains = [set(domains[p]) for p in kern.parents]
            for key, vec in kern.rows:
                if len(key) != len(parent_domains) or not all(
                    x in dom for x, dom in zip(key, parent_domains)
                ):
                    raise ModelError(
                        f"kernel row {key} of {v!r} lies outside its parents' domains"
                    )
                if len(vec) != len(domains[v]):
                    raise ModelError(f"kernel row of {v!r} has the wrong width")
                if sum(vec) != kern.den:
                    raise ModelError(f"kernel row {key} of {v!r} does not sum to 1")
                if any(n < 0 for n in vec):
                    raise ModelError(f"kernel row {key} of {v!r} has a negative entry")
                # a row summing to den with no negative entry that holds den is a point mass
                if v in visible and kern.den not in vec:
                    raise ModelError(
                        f"visible vertex {v!r} must have a deterministic kernel"
                    )


def _maps(model: DiscreteModel):
    return dict(model.domains), dict(model.kernels), dict(model.selected_zeros)


class ProbTable(_Value):
    """Exact distribution over an ordered tuple of variables, held as sorted
    ``(key, weight)`` pairs of integer weights over one denominator ``den``.

    Zero entries are dropped and the form is reduced (``den`` and the
    weights have no common factor), so two tables are equal exactly when
    their supports and values are, and equality and hash read the integers.
    ``table``, the same entries as ``Fraction``s, is made on its first read.
    """

    variables: tuple[str, ...]
    den: int
    weights: tuple[tuple[Assignment, int], ...]

    def __init__(self, variables, den, weights) -> None:
        # lowest terms; the running gcd is 1 after a few weights, almost always
        g = den
        for _, w in weights:
            if g == 1:
                break
            g = gcd(g, w)
        if g != 1:
            den, weights = den // g, tuple((k, w // g) for k, w in weights)
        self.__dict__.update(variables=variables, den=den, weights=weights,
                             _key=(variables, den, weights))

    @classmethod
    def of(cls, variables: Sequence[str], table: Mapping[Assignment, Fraction]) -> "ProbTable":
        entries = [(tuple(k), Fraction(p)) for k, p in table.items()]
        den = lcm(*(p.denominator for _, p in entries))
        weights = sorted((k, p.numerator * (den // p.denominator)) for k, p in entries if p)
        return cls(tuple(variables), den, tuple(weights))

    @property
    def table(self) -> tuple[tuple[Assignment, Fraction], ...]:
        return _recorded(self, "_table", _fractions)

    def __repr__(self) -> str:
        return f"ProbTable(variables={self.variables!r}, table={self.table!r})"

    def total(self) -> Fraction:
        return Fraction(sum(w for _, w in self.weights), self.den)

    def prob(self, key: Assignment) -> Fraction:
        return _recorded(self, "_index", lambda t: dict(t.table)).get(tuple(key), ZERO)

    def _sums(self, keep: Sequence[str]) -> dict[Assignment, int]:
        """The nonzero weights of the marginal over ``keep``, over ``den``."""
        idx = [self.variables.index(v) for v in keep]
        out: dict[Assignment, int] = {}
        for key, w in self.weights:
            sub = tuple(key[i] for i in idx)
            out[sub] = out.get(sub, 0) + w
        return {k: w for k, w in out.items() if w}

    def marginal(self, keep: Sequence[str]) -> "ProbTable":
        return ProbTable(tuple(keep), self.den, tuple(sorted(self._sums(keep).items())))

    def items(self):
        return self.table


def _fractions(t: ProbTable) -> tuple[tuple[Assignment, Fraction], ...]:
    return tuple((k, Fraction(w, t.den)) for k, w in t.weights)


def conditionally_independent(
    dist: ProbTable, x: Sequence[str], y: Sequence[str], z: Sequence[str]
) -> bool:
    """Exact test of X independent of Y given Z in a joint table:
    P(x,y,z) * P(z) == P(x,z) * P(y,z) for every assignment."""
    x, y, z = list(x), list(y), list(z)
    # every marginal is over dist.den, so both sides are over den squared
    pxyz, pz, pxz, pyz = (dist._sums(vs) for vs in (x + y + z, z, x + z, y + z))
    x_vals = {k[: len(x)] for k in pxz} | {k[: len(x)] for k in pxyz}
    y_vals = {k[len(x):len(x) + len(y)] for k in pxyz} | {k[: len(y)] for k in pyz}
    for zv, wz in pz.items():
        for xv in x_vals:
            for yv in y_vals:
                lhs = pxyz.get(xv + yv + zv, 0) * wz
                rhs = pxz.get(xv + zv, 0) * pyz.get(yv + zv, 0)
                if lhs != rhs:
                    return False
    return True


class SelectedDistribution(_Value):
    """Normalized distribution over the visible variables given that every
    selected variable took its zero value."""

    dist: ProbTable
    selection_probability: Fraction

    def __init__(self, dist, selection_probability) -> None:
        self.__dict__.update(dist=dist, selection_probability=selection_probability,
                             _key=(dist, selection_probability))


class SmiResult(_Value):
    """One intervention paired with the selected joint distribution over the
    intervened (sharp) and natural (flat) visible copies."""

    q: ProbTable
    status: str  # "ok" | "selected_out"
    dist: Optional[ProbTable]
    selection_probability: Fraction

    def __init__(self, q, status, dist, selection_probability) -> None:
        self.__dict__.update(q=q, status=status, dist=dist,
                             selection_probability=selection_probability,
                             _key=(q, status, dist, selection_probability))


def sharp(v: VertexId) -> str:
    return v + "#"


def flat(v: VertexId) -> str:
    return v + "~"


# --- evaluation -----------------------------------------------------------

def eval_joint(model: DiscreteModel) -> ProbTable:
    """Full product-of-kernels joint over all vertices (no conditioning)."""
    order = tuple(model.dag.topological_order())
    scope, table, den = sum_product(model, (), order, {}, {(): 1})
    key = picker(scope, order)
    return ProbTable.of(order, {key(k): Fraction(w, den) for k, w in table.items()})


def smo_distribution(model: DiscreteModel) -> SelectedDistribution:
    """Marginalize the latent variables and condition every selected variable
    to zero. Raises :class:`SelectedOutError` when the selection event has
    probability zero."""
    return observe_or_do_distribution(model, ())


def _pinned(model: DiscreteModel) -> dict[VertexId, Value]:
    """Each selected vertex at its zero value."""
    zeros = model.maps[2]
    return {s: zeros[s] for s in model.dag.selected}


def _normalized(variables, acc, scale) -> tuple[Optional[ProbTable], Fraction]:
    """The table of ``(key, weight)`` pairs over their total, and the total
    over ``scale``; ``(None, 0)`` when the total is zero."""
    total = sum(x for _, x in acc)
    if total == 0:
        return None, ZERO
    return ProbTable(variables, total, tuple(sorted(acc))), Fraction(total, scale)


def _cells(q: ProbTable) -> tuple[dict[Assignment, int], set[int], list[set[Value]],
                                  Optional[Assignment]]:
    """q's cells as a dict of integer weights over ``q.den``, the lengths of
    its keys, the set of values at each key position, and the first key in
    sorted order whose weight is negative (None when there is none)."""
    weights = dict(q.weights)
    negative = None
    if weights and min(weights.values()) < 0:
        negative = next(key for key, w in q.weights if w < 0)
    return weights, {len(key) for key in weights}, [set(col) for col in zip(*weights)], negative


def _check_q(model: DiscreteModel, q: ProbTable, over: Sequence[VertexId],
             full_support: bool) -> tuple[dict[Assignment, int], int]:
    """Check q against the variables ``over`` and return its cells as
    integer weights over their common denominator ``q.den``.

    The cells are recorded on q. Key lengths and the values at each
    position are checked as sets; only a failure walks the cells, to name
    the first offender."""
    if tuple(q.variables) != tuple(over):
        raise ModelError(f"intervention must range over {tuple(over)}, got {q.variables}")
    weights, lengths, columns, negative = _recorded(q, "_cells", _cells)
    if sum(weights.values()) != q.den:
        raise ModelError("intervention distribution must sum to 1")
    domains = model.maps[0]
    over_domains = [domains[v] for v in over]
    if lengths - {len(over)} or not all(
        col <= set(dom) for col, dom in zip(columns, over_domains)
    ):
        for key in weights:
            if len(key) != len(over):
                raise ModelError(f"intervention key {key} does not match {q.variables}")
            for v, value, dom in zip(over, key, over_domains):
                if value not in dom:
                    raise ModelError(
                        f"intervention assigns {value!r} outside the domain of {v!r}"
                    )
    if negative is not None:
        raise ModelError(f"intervention key {negative} has a negative weight")
    if full_support and len(weights) != prod(len(dom) for dom in over_domains):
        raise ModelError("intervention must have full support")
    return weights, q.den


def _smi_kernel(model: DiscreteModel):
    """``R(c, flat)``: the selected joint weight of the flat visibles when
    the sharp visibles are set to cell c, from one elimination that gives
    every cell weight 1. Returns ``({c: ((c + flat, weight), ...)}, den)``,
    each weight over ``den``; a cell whose selection never succeeds is
    absent."""
    visibles = tuple(sorted(model.dag.visible))
    domains = model.maps[0]
    cells = dict.fromkeys(product(*(domains[v] for v in visibles)), 1)
    scope, table, den = sum_product(model, visibles, visibles, _pinned(model), cells)
    # one pass re-keys each entry to sharp then flat values and groups it by cell
    key = picker(scope, tuple((v,) for v in visibles) + visibles)
    n, by_cell = len(visibles), {}
    for k, w in table.items():
        k = key(k)
        by_cell.setdefault(k[:n], []).append((k, w))
    return {c: tuple(rows) for c, rows in by_cell.items()}, den


def smi_distribution(
    model: DiscreteModel, q: ProbTable, *, full_support: bool = False
) -> SmiResult:
    """Joint selected distribution over sharp and flat visible copies under a
    soft intervention q on the sharp copies.

    Flat and non-visible variables read the sharp copies of their visible
    parents. A zero-probability selection yields status "selected_out" (the
    pair is omitted from the interventional family rather than an error).

    The result is linear in q: each entry is ``q(c) * R(c, flat)``, over the
    total of all of them, where ``R`` (:func:`_smi_kernel`) does not depend
    on q. ``R`` is built by one elimination the first time the model is
    asked, kept on the model instance, and every call contracts it with q's
    integer weights, touching only q's cells. The first call therefore costs
    one elimination over every cell, even for a point mass.
    """
    visibles = tuple(sorted(model.dag.visible))
    weights, q_den = _check_q(model, q, visibles, full_support)
    by_cell, den = _recorded(model, "_smi_kernel", _smi_kernel)
    acc = [(key, w * x) for c, w in weights.items() for key, x in by_cell.get(c, ())]
    variables = tuple(sharp(v) for v in visibles) + tuple(flat(v) for v in visibles)
    dist, total = _normalized(variables, acc, q_den * den)
    if dist is None:
        return SmiResult(q=q, status="selected_out", dist=None, selection_probability=ZERO)
    return SmiResult(q=q, status="ok", dist=dist, selection_probability=total)


def observe_or_do_distribution(
    model: DiscreteModel, z: Iterable[VertexId], q: Optional[ProbTable] = None,
    *, full_support: bool = False,
) -> SelectedDistribution:
    """Selected distribution over the visibles when the variables in z are
    intervened to q and everything else is passively observed; each visible
    is either intervened or observed, never both.

    The intervened values are read by z's children; z's own kernel then
    sums to one and drops out. Each call runs its own elimination, over q's
    cells only: nothing is recorded, since a (model, z) pair is asked about
    once by the command line and the tests.
    """
    z = tuple(sorted(set(z)))
    if not set(z) <= model.dag.visible:
        raise ModelError("only visible variables can be intervened")
    weights, q_den = {(): 1}, 1
    if z:
        if q is None:
            raise ModelError("an intervention distribution is required when z is non-empty")
        weights, q_den = _check_q(model, q, z, full_support)
    visibles = tuple(sorted(model.dag.visible))
    observed = tuple(v for v in visibles if v not in z)
    scope, table, den = sum_product(model, z, observed, _pinned(model), weights)
    key = picker(scope, [(v,) if v in z else v for v in visibles])
    acc = [(key(k), x) for k, x in table.items()]
    dist, total = _normalized(visibles, acc, q_den * den)
    if dist is None:
        raise SelectedOutError("the selection event has probability zero")
    return SelectedDistribution(dist=dist, selection_probability=total)


def product_intervention(
    model: DiscreteModel,
    marginals: Mapping[VertexId, Mapping[Value, Fraction]],
    over: Optional[Sequence[VertexId]] = None,
) -> ProbTable:
    """Product-form intervention from per-variable value distributions."""
    names = tuple(sorted(over if over is not None else model.dag.visible))
    table: dict[Assignment, Fraction] = {}
    per = []
    for v in names:
        if v not in marginals:
            raise ModelError(f"product intervention has no marginal for {v!r}")
        dist = marginals[v]
        per.append([(value, Fraction(p)) for value, p in dist.items() if p != 0])
    for combo in product(*per):
        table[tuple(value for value, _ in combo)] = prod((p for _, p in combo), start=ONE)
    return ProbTable.of(names, table)


def private_latent(v: VertexId) -> VertexId:
    """The label a private latent of v gets unless the graph already holds it."""
    return f"u⟨{v}⟩"


def private_latents(
    d: PartitionedDag, only: Optional[Iterable[VertexId]] = None
) -> dict[VertexId, VertexId]:
    """The label of each target's private latent (by default every visible
    vertex's), made fresh against d's vertices and each other."""
    from .canon import _fresh

    taken = set(d.vertices)
    labels = {}
    for v in sorted(d.visible if only is None else set(only)):
        labels[v] = _fresh(private_latent(v), taken)
        taken.add(labels[v])
    return labels


def add_private_latents(d: PartitionedDag, only: Optional[Iterable[VertexId]] = None) -> PartitionedDag:
    """Give each visible vertex a fresh marginalized parent, labelled by
    :func:`private_latents`, so the visible kernels can stay deterministic
    while the variables behave stochastically."""
    labels = private_latents(d, only)
    return d.with_vertices(
        add={u: Role.MARGINALIZED for u in labels.values()},
        add_edges={(u, v) for v, u in labels.items()},
    )


def copy_check(domains, kernels, zeros, a: VertexId, m_label: VertexId,
               s_label: VertexId) -> None:
    """Add a uniform latent m_label over a's domain and an indicator selection
    s_label whose zero value means the latent copied a: the kernels of the
    selected/marginalized pair that stands in for an edge a -> b."""
    n = len(domains[a])
    domains[m_label] = domains[a]
    kernels[m_label] = KernelTable.over([], n, {(): (1,) * n})
    domains[s_label] = (0, 1)
    zeros[s_label] = 0
    par = sorted((a, m_label))
    kernels[s_label] = deterministic_kernel(
        par, [domains[p] for p in par], (0, 1), lambda x1, x2: 0 if x1 == x2 else 1
    )


# --- JSON -------------------------------------------------------------------


def model_to_obj(model: DiscreteModel) -> dict[str, Any]:
    domains = {}
    for v, dom in model.domains:
        if tuple(dom) != tuple(range(len(dom))):
            raise ModelError(
                f"only index domains (0..k-1) are serializable; {v!r} has {dom!r}"
            )
        domains[v] = len(dom)
    kernels = {}
    for v, kern in model.kernels:
        table = {
            ",".join(str(x) for x in key): [str(Fraction(n, kern.den)) for n in vec]
            for key, vec in kern.rows
        }
        kernels[v] = {"parents": list(kern.parents), "table": table}
    return {"dag": graph_io.dag_to_obj(model.dag), "domains": domains, "kernels": kernels}


def _key_from_str(text: str) -> Assignment:
    return tuple(int(x) for x in text.split(",")) if text else ()


def model_from_obj(obj: Mapping[str, Any]) -> DiscreteModel:
    try:
        dag_obj, sizes, specs = obj["dag"], obj["domains"], obj["kernels"]
        kernels = {}
        for v, spec in specs.items():
            rows = {
                _key_from_str(key_text): tuple(
                    Fraction(p) for p in graph_io._array(vec, f"a kernel row of {v!r}")
                )
                for key_text, vec in spec["table"].items()
            }
            parents = graph_io._array(spec["parents"], f"the parents of {v!r}")
            kernels[v] = KernelTable.of([str(p) for p in parents], rows)
        for v, k in sizes.items():
            if type(k) is not int:
                raise TypeError(f"domain size of {v!r} must be an integer, got {k!r}")
    except KeyError as exc:
        raise ModelError(f"malformed model object: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ModelError(f"malformed model object: {exc}") from exc
    domains = {}
    for v, k in sizes.items():
        # each size must be the width of its kernel's rows before range(k) is
        # built, so no domain is larger than the input spells out
        if v not in kernels:
            raise ModelError("domains and kernels must cover exactly the graph vertices")
        if not kernels[v].rows:
            raise ModelError(f"kernel of {v!r} is missing parent-assignment rows")
        if any(len(vec) != k for _, vec in kernels[v].rows):
            raise ModelError(f"kernel row of {v!r} has the wrong width")
        domains[v] = tuple(range(k))
    return DiscreteModel.of(graph_io.dag_from_obj(dag_obj), domains, kernels)


def model_dumps(model: DiscreteModel) -> str:
    return json.dumps(model_to_obj(model), indent=2, sort_keys=True) + "\n"


def model_loads(text: str) -> DiscreteModel:
    return model_from_obj(json.loads(text))


def prob_table_to_obj(dist: ProbTable) -> dict[str, Any]:
    return {
        "variables": list(dist.variables),
        "table": {
            ",".join(str(x) for x in key): str(p) for key, p in dist.items()
        },
    }


def prob_table_from_obj(obj: Mapping[str, Any]) -> ProbTable:
    try:
        variables = [str(v) for v in graph_io._array(obj["variables"], "variables")]
        table = {
            _key_from_str(key_text): Fraction(p)
            for key_text, p in obj["table"].items()
        }
    except KeyError as exc:
        raise ModelError(f"malformed distribution object: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
        raise ModelError(f"malformed distribution object: {exc}") from exc
    return ProbTable.of(variables, table)
