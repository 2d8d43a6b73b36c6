"""Exact sum-product evaluation of a discrete model's kernels.

Each kernel's factor is read from the integer form its ``KernelTable``
built once, numerators over one denominator ``den``, so elimination
multiplies and adds integers only. A factor table maps a tuple of values,
one per vertex of the factor's scope, to a positive integer weight, and
zero weights are absent. Every vertex outside the requested outputs is
summed out by variable elimination (Koller & Friedman, *Probabilistic
Graphical Models*, ch. 9) in a greedy smallest-bucket order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .graph import VertexId

if TYPE_CHECKING:
    from .model import Assignment, DiscreteModel, KernelTable, Value

# A factor is its scope and its table.
Factor = tuple[tuple[VertexId, ...], dict[tuple, int]]


def _picker(positions: Sequence[int]):
    """key -> the tuple of key's entries at positions."""
    if not positions:
        return lambda key: ()
    if len(positions) == 1:
        (i,) = positions
        return lambda key: (key[i],)
    return itemgetter(*positions)


def _multiply(f: Factor, g: Factor, drop: Optional[VertexId] = None) -> Factor:
    """Pointwise product over the union of the two scopes, with ``drop``
    summed out of it when given."""
    (fs, ft), (gs, gt) = f, g
    pos = {v: i for i, v in enumerate(fs)}
    at_f, at_g, extra = [], [], []
    for j, v in enumerate(gs):
        if v in pos:
            at_f.append(pos[v])
            at_g.append(j)
        else:
            extra.append(j)
    at_f, at_g, rest = _picker(at_f), _picker(at_g), _picker(extra)
    scope = fs + tuple(gs[j] for j in extra)
    index: dict[Assignment, list] = {}
    for key, w in gt.items():
        index.setdefault(at_g(key), []).append((rest(key), w))
    out: dict[Assignment, int] = {}
    if drop is None:
        for key, w in ft.items():
            for r, x in index.get(at_f(key), ()):
                out[key + r] = w * x
        return scope, out
    i = scope.index(drop)
    keep = _picker([j for j in range(len(scope)) if j != i])
    for key, w in ft.items():
        for r, x in index.get(at_f(key), ()):
            k = keep(key + r)
            out[k] = out.get(k, 0) + w * x
    return scope[:i] + scope[i + 1:], out


_UNIT: Factor = ((), {(): 1})


def _product(factors: Iterable[Factor], drop: Optional[VertexId] = None) -> Factor:
    """Product of the factors, smallest first, with ``drop`` summed out in
    the last multiplication."""
    out, *rest = sorted(factors, key=lambda f: len(f[1])) or [_UNIT]
    if drop is not None and not rest:
        rest = [_UNIT]
    for i, f in enumerate(rest, 1):
        out = _multiply(out, f, drop if i == len(rest) else None)
    return out


def _kernel_factor(v: VertexId, kern: KernelTable, dom: Sequence[Value],
                   at: Mapping[VertexId, int], pinned: Mapping[VertexId, Value]):
    """The kernel of v as its integer numerators over ``kern.den``.

    Returns ``(scope, bound, tables)``: the parents in ``at`` are read
    from the cell, at positions ``bound``, and ``tables`` maps their values
    to the factor table over ``scope``, the other parents and v. Pinned
    parents keep only the rows at their pinned value, and a pinned v keeps
    only its pinned column and leaves the scope.
    """
    rows, parents = kern.numerators, kern.parents
    free, bound, fixed = [], [], []
    for i, u in enumerate(parents):
        if u in at:
            bound.append(i)
        elif u in pinned:
            fixed.append((i, pinned[u]))
        else:
            free.append(i)
    if fixed:
        rows = [(key, vec) for key, vec in rows if all(key[i] == x for i, x in fixed)]
    zero = dom.index(pinned[v]) if v in pinned else None
    whole, free_key, bound_key = len(free) == len(parents), _picker(free), _picker(bound)
    t: dict[Assignment, int] = {}
    tables = {} if bound else {(): t}
    for key, vec in rows:
        if bound:
            t = tables.setdefault(bound_key(key), {})
        k = key if whole else free_key(key)
        if zero is None:
            for x, n in zip(dom, vec):
                if n:
                    t[k + (x,)] = n
        elif vec[zero]:
            t[k] = vec[zero]
    scope = tuple(parents[i] for i in free) + (() if zero is not None else (v,))
    return scope, [at[parents[i]] for i in bound], tables


def sum_product(model: DiscreteModel, read: Sequence[VertexId], outputs: Sequence[VertexId],
                pinned: Mapping[VertexId, Value], n_cells: int = 1):
    """Plan the exact sum over every vertex outside ``outputs``.

    A kernel reads parent u from the cell's value when u is in ``read`` and
    from u's own value otherwise. A pinned vertex is fixed to its value, in
    its own factor and in its children's rows, so its factor carries the
    kernel weight of that value. A vertex that is not an output, not pinned
    and not read by a needed child sums to one and is left out.

    Returns ``(evaluate, den)``: ``evaluate(cell)`` maps each tuple of output
    values to its integer weight over ``den``, for one tuple of read values.
    Factors that read no cell value, and every elimination among them, are
    computed once here rather than once per cell; the elimination order
    weighs the other eliminations by the ``n_cells`` cells to come.
    """
    domains, kernels = dict(model.domains), dict(model.kernels)
    at = {v: i for i, v in enumerate(read)}
    needed, stack = set(outputs) | set(pinned), list(outputs) + list(pinned)
    while stack:
        for u in kernels[stack.pop()].parents:
            if u not in at and u not in needed:
                needed.add(u)
                stack.append(u)

    den = 1
    factors: list[Optional[Factor]] = []  # None until a cell fills it in
    scopes: dict[int, set[VertexId]] = {}  # the scopes of the unconsumed slots
    leaves = []  # (slot, scope, tables by read values, read picker)
    for v in sorted(needed):
        scope, bound, tables = _kernel_factor(v, kernels[v], domains[v], at, pinned)
        den *= kernels[v].den
        scopes[len(factors)] = set(scope)
        if bound:
            leaves.append((len(factors), scope, tables, _picker(bound)))
            factors.append(None)
        else:
            factors.append((scope, tables.get((), {})))

    # greedy order: next eliminate the vertex whose bucket spans the fewest
    # assignments, counted once per cell when the bucket reads a cell
    def cost(v):
        bucket = [i for i, s in scopes.items() if v in s]
        c = 1 if all(factors[i] is not None for i in bucket) else n_cells
        for u in set().union(*(scopes[i] for i in bucket)):
            c *= len(domains[u])
        return c, v

    steps = []  # (vertex, bucket slots, result slot) for buckets that read a cell
    remaining = needed - set(outputs) - set(pinned)
    while remaining:
        v = min(remaining, key=cost)
        remaining.discard(v)
        bucket = [i for i, s in scopes.items() if v in s]
        slot = len(factors)
        scopes[slot] = set().union(*(scopes.pop(i) for i in bucket)) - {v}
        if all(factors[i] is not None for i in bucket):
            factors.append(_product([factors[i] for i in bucket], v))
        else:
            factors.append(None)
            steps.append((v, bucket, slot))
    final, outputs = list(scopes), tuple(outputs)

    def finish(values) -> dict[Assignment, int]:
        scope, table = _product([values[i] for i in final])
        if scope == outputs:
            return table
        order = _picker([scope.index(v) for v in outputs])
        return {order(key): w for key, w in table.items()}

    if not leaves:
        result = finish(factors)
        return (lambda cell: result), den

    def evaluate(cell) -> dict[Assignment, int]:
        values = list(factors)
        for slot, scope, tables, pick in leaves:
            table = tables.get(pick(cell))
            if not table:
                return {}
            values[slot] = (scope, table)
        for v, bucket, slot in steps:
            values[slot] = _product([values[i] for i in bucket], v)
            if not values[slot][1]:
                return {}
        return finish(values)

    return evaluate, den
