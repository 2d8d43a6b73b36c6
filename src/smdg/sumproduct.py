"""Exact sum-product evaluation of a discrete model's kernels.

Each kernel's factor is read from the one form a ``KernelTable`` stores,
integer numerators over one denominator ``den``, so elimination multiplies
and adds integers only. A factor table maps a tuple of values, one per
variable of the factor's scope, to a positive integer weight, and zero
weights are absent. An intervention is one more factor: the kernels
that read an intervened vertex u read its sharp variable ``(u,)``, and the
intervention's weights are a factor over the sharp variables (Pearl,
*Causality*, 2009, sec. 3.2). Every vertex outside the requested outputs is
summed out in one variable elimination (Koller & Friedman, *Probabilistic
Graphical Models*, ch. 9) in a greedy smallest-bucket order.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Container, Iterable, Mapping, Optional, Sequence

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
    out, *rest = sorted(factors, key=lambda f: len(f[1]))
    if drop is not None and not rest:
        rest = [_UNIT]
    for i, f in enumerate(rest, 1):
        out = _multiply(out, f, drop if i == len(rest) else None)
    return out


def _kernel_factor(v: VertexId, kern: KernelTable, dom: Sequence[Value],
                   read: Mapping[VertexId, Container[Value]],
                   pinned: Mapping[VertexId, Value]) -> Factor:
    """The kernel of v as one factor of integer numerators over ``kern.den``.

    A parent u in ``read`` is read through its sharp variable ``(u,)`` and
    keeps only the rows at the values in ``read[u]``. Pinned parents keep
    only the rows at their pinned value and leave the scope, and a pinned v
    keeps only its pinned column and leaves the scope.
    """
    rows, parents = kern.rows, kern.parents
    free, allowed = [], []
    for i, u in enumerate(parents):
        if u in pinned:
            allowed.append((i, (pinned[u],)))
        else:
            free.append(i)
            if u in read:
                allowed.append((i, read[u]))
    if allowed:
        rows = [(key, vec) for key, vec in rows if all(key[i] in xs for i, xs in allowed)]
    zero = dom.index(pinned[v]) if v in pinned else None
    whole, free_key = len(free) == len(parents), _picker(free)
    t: dict[Assignment, int] = {}
    for key, vec in rows:
        k = key if whole else free_key(key)
        if zero is None:
            for x, n in zip(dom, vec):
                if n:
                    t[k + (x,)] = n
        elif vec[zero]:
            t[k] = vec[zero]
    scope = tuple((u,) if u in read else u for u in free_key(parents))
    return scope + (() if zero is not None else (v,)), t


def sum_product(model: DiscreteModel, read: Sequence[VertexId], outputs: Sequence[VertexId],
                pinned: Mapping[VertexId, Value], cells: Mapping[Assignment, int]):
    """The exact sum over every vertex outside ``outputs``, in one elimination.

    Each vertex u in ``read`` has a sharp variable ``(u,)``, which no vertex
    id equals, and a kernel reads parent u through it; ``cells`` maps each
    tuple of read values to an integer weight and is the sharp variables'
    own factor. Every factor keeps only the sharp values that some cell
    holds, so a point-mass intervention is read as if it were pinned. A
    pinned vertex is fixed to its value, in its own factor and in its
    children's rows, so its factor carries the kernel weight of that value.
    A vertex that is not an output, not pinned and not read by a needed
    child sums to one and is left out.

    Returns ``(scope, table, den)``: ``table`` maps each tuple of values of
    ``scope``, which holds the sharp variables and the outputs in the order
    the elimination left them, to its integer weight, over ``den`` times the
    weights' own denominator. A caller re-keys it with :func:`picker` in the
    same pass that reads it.
    """
    domains, kernels = dict(model.domains), dict(model.kernels)
    held = {u: {key[i] for key in cells} for i, u in enumerate(read)}
    needed, stack = set(outputs) | set(pinned), list(outputs) + list(pinned)
    while stack:
        for u in kernels[stack.pop()].parents:
            if u not in held and u not in needed:
                needed.add(u)
                stack.append(u)

    sharp = tuple((u,) for u in read)
    domains.update({(u,): held[u] for u in read})
    den, factors = 1, [(sharp, cells)]
    for v in sorted(needed):
        factors.append(_kernel_factor(v, kernels[v], domains[v], held, pinned))
        den *= kernels[v].den

    # greedy order: next eliminate the vertex whose bucket spans the fewest
    # assignments; sharp variables are outputs, so ties compare vertex ids
    def cost(v):
        c = 1
        for u in set().union(*(f[0] for f in factors if v in f[0])):
            c *= len(domains[u])
        return c, v

    remaining = needed - set(outputs) - set(pinned)
    while remaining:
        v = min(remaining, key=cost)
        remaining.discard(v)
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append(_product(bucket, v))
    scope, table = _product(factors)
    return scope, table, den


def picker(scope: Sequence, want: Sequence):
    """key over scope -> the tuple of its values of the variables in want."""
    return _picker([scope.index(v) for v in want])
