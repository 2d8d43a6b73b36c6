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

Evidence that forces two variables to be equal is a substitution, not a
sum. A pinned vertex whose factor has exactly two free variables and every
nonzero entry on the diagonal is a *tie*, such as the copy-check pair that
stands in for a special edge (a uniform latent and a selection pinned to
"copied"). When one of the two is summed out, it is renamed to the other
in every factor before the order is planned (:func:`_ties`,
:func:`_renamed`): the sum over y of ``f(..., y) * w(x) * [x == y]`` is
``f(..., x) * w(x)``, so a factor that holds both keeps only the entries
where they agree and one copy, the tie factor becomes ``w`` over one
variable, and the renamed vertex is never eliminated. The table and
``den`` are those of the elimination without the rename. Only the factors
of pinned vertices are checked, so a call with no selection pays nothing.

Set-up is paid once per kernel, not once per call. A kernel whose factor
needs no row filtered and no column pinned is its whole table, which the
``KernelTable`` instance records with the domain it was built over
(:func:`_whole_table`); a model transported from another shares most of
its kernel instances, and finds their tables built. A product where one
scope holds the other reads the larger factor once and looks each partner
up through one picker, with no index (:func:`_multiply`). The greedy order
keeps each vertex's bucket span up to date as buckets merge, which gives
the order that rescanning every factor at each step gives.
"""

from __future__ import annotations

from math import prod
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
    summed out of it when given.

    When one scope holds the other, the factor with the larger scope is
    read entry by entry, and each entry looks its partner up through one
    picker. Otherwise ``f`` is read entry by entry against an index of
    ``g`` by its values of the shared variables, so the product comes out
    grouped by ``f``'s entries."""
    (fs, ft), (gs, gt) = f, g
    pos = {v: i for i, v in enumerate(fs)}
    at_f, at_g, extra = [], [], []
    for j, v in enumerate(gs):
        if v in pos:
            at_f.append(pos[v])
            at_g.append(j)
        else:
            extra.append(j)
    if extra and len(at_f) == len(fs):  # g's scope holds f's: read g instead
        (fs, ft), (gs, gt) = g, f
        at_f, extra = [j for _, j in sorted(zip(at_f, at_g))], []
    elif drop is not None and drop not in pos and drop in gs:  # only g's scope has it
        return _multiply(_multiply(f, g), _UNIT, drop)
    at = _picker(at_f)
    if extra:
        index: dict[Assignment, list] = {}
        at_g, rest = _picker(at_g), _picker(extra)
        for key, w in gt.items():
            index.setdefault(at_g(key), []).append((rest(key), w))
    out: dict[Assignment, int] = {}
    if drop is None:
        if not extra:
            for key, w in ft.items():
                x = gt.get(at(key))
                if x is not None:
                    out[key] = w * x
            return fs, out
        for key, w in ft.items():
            for r, x in index.get(at(key), ()):
                out[key + r] = w * x
        return fs + tuple(gs[j] for j in extra), out
    i = fs.index(drop)
    front = _picker([j for j in range(len(fs)) if j != i])
    if not extra:
        for key, w in ft.items():
            x = gt.get(at(key))
            if x is not None:
                k = front(key)
                out[k] = out.get(k, 0) + w * x
        return fs[:i] + fs[i + 1:], out
    for key, w in ft.items():
        head = front(key)
        for r, x in index.get(at(key), ()):
            k = head + r
            out[k] = out.get(k, 0) + w * x
    return fs[:i] + fs[i + 1:] + tuple(gs[j] for j in extra), out


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


def _table(kern: KernelTable, dom: Sequence[Value]) -> dict[Assignment, int]:
    """The kernel's nonzero numerators keyed by parent values then v's value."""
    return {key + (x,): n for key, vec in kern.rows for x, n in zip(dom, vec) if n}


def _whole_table(kern: KernelTable, dom: Sequence[Value]) -> dict[Assignment, int]:
    """:func:`_table`, recorded on the kernel instance with the domain it
    was built over; a kernel shared with a model whose domain of v differs
    builds its table anew for that model."""
    built, table = kern.__dict__.get("_factor", (None, None))
    if built is None:
        table = _table(kern, dom)
        object.__setattr__(kern, "_factor", (dom, table))
    elif built is not dom and built != dom:
        table = _table(kern, dom)
    return table


def _kernel_factor(v: VertexId, kern: KernelTable, dom: Sequence[Value],
                   read: Mapping[VertexId, Container[Value]], narrowed: Container[VertexId],
                   pinned: Mapping[VertexId, Value]) -> Factor:
    """The kernel of v as one factor of integer numerators over ``kern.den``.

    A parent u in ``read`` is read through its sharp variable ``(u,)``; a
    read parent in ``narrowed`` keeps only the rows at the values in
    ``read[u]``. Pinned parents keep only the rows at their pinned value and
    leave the scope, and a pinned v keeps only its pinned column and leaves
    the scope. A kernel with none of these is its recorded whole table.
    """
    rows, parents = kern.rows, kern.parents
    free, allowed = [], []
    for i, u in enumerate(parents):
        if u in pinned:
            allowed.append((i, (pinned[u],)))
        else:
            free.append(i)
            if u in narrowed:
                allowed.append((i, read[u]))
    free_key = _picker(free)
    scope = tuple((u,) if u in read else u for u in free_key(parents))
    if not allowed and v not in pinned:
        return scope + (v,), _whole_table(kern, dom)
    if allowed:
        rows = [(key, vec) for key, vec in rows if all(key[i] in xs for i, xs in allowed)]
    zero = dom.index(pinned[v]) if v in pinned else None
    whole = len(free) == len(parents)
    t: dict[Assignment, int] = {}
    for key, vec in rows:
        k = key if whole else free_key(key)
        if zero is None:
            for x, n in zip(dom, vec):
                if n:
                    t[k + (x,)] = n
        elif vec[zero]:
            t[k] = vec[zero]
    return scope + (() if zero is not None else (v,)), t


def _ties(pairs: Iterable[tuple], summed: Container) -> dict:
    """Each summed-out variable that a tie renames, mapped to the variable
    that stands for it: its tie partner, or the partner's own stand-in along
    a chain of ties. Of two summed-out partners the second is renamed to
    the first; a tie between two variables that are not summed out stays a
    factor."""
    to: dict = {}

    def find(x):
        while x in to:
            x = to[x]
        return x

    for x, y in pairs:
        x, y = find(x), find(y)
        if x != y and y in summed:
            to[y] = x
        elif x != y and x in summed:
            to[x] = y
    return {x: find(x) for x in to}


def _renamed(f: Factor, rename: Mapping) -> Factor:
    """f with each variable renamed; a factor that then holds one variable
    twice keeps only the entries where the two agree, and one copy."""
    scope, table = f
    if rename.keys().isdisjoint(scope):
        return f
    new = tuple(rename.get(u, u) for u in scope)
    first = {u: new.index(u) for u in new}
    if len(first) == len(new):
        return new, table
    keep = list(first.values())
    same = [(i, first[u]) for i, u in enumerate(new) if first[u] != i]
    at = _picker(keep)
    return tuple(new[i] for i in keep), {
        at(key): w for key, w in table.items() if all(key[i] == key[j] for i, j in same)
    }


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
    same pass that reads it, and does not write to it.
    """
    domains, kernels, _ = model.maps
    held = {u: {key[i] for key in cells} for i, u in enumerate(read)}
    narrowed = {u for u in read if len(held[u]) < len(domains[u])}
    needed, stack = set(outputs) | set(pinned), list(outputs) + list(pinned)
    while stack:
        for u in kernels[stack.pop()].parents:
            if u not in held and u not in needed:
                needed.add(u)
                stack.append(u)

    width = {u: len(domains[u]) for u in needed}
    width.update({(u,): len(held[u]) for u in read})
    summed = needed - set(outputs) - set(pinned)
    den, factors, pairs = 1, [(tuple((u,) for u in read), cells)], []
    for v in sorted(needed):
        f = _kernel_factor(v, kernels[v], domains[v], held, narrowed, pinned)
        if v in pinned and len(f[0]) == 2 and all(x == y for x, y in f[1]):
            pairs.append(f[0])
        factors.append(f)
        den *= kernels[v].den
    if pairs and (rename := _ties(pairs, summed)):
        factors = [_renamed(f, rename) for f in factors]
        summed -= rename.keys()

    # greedy order: next eliminate the vertex whose bucket spans the fewest
    # assignments, equal spans broken by vertex id (sharp variables are
    # outputs, so only ids are compared). Eliminating v merges its bucket into one factor over span[v] - {v},
    # so each other vertex of that span now spans its own span and v's.
    span = {v: set() for v in summed}
    for scope, _ in factors:
        for v in scope:
            if v in span:
                span[v].update(scope)
    cost = {v: (prod(width[u] for u in vs), v) for v, vs in span.items()}
    while cost:
        v = min(cost, key=cost.__getitem__)
        del cost[v]
        merged = span.pop(v)
        merged.discard(v)
        for u in merged & span.keys():
            span[u] |= merged
            span[u].discard(v)
            cost[u] = (prod(width[w] for w in span[u]), u)
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append(_product(bucket, v))
    scope, table = _product(factors)
    return scope, table, den


def picker(scope: Sequence, want: Sequence):
    """key over scope -> the tuple of its values of the variables in want."""
    return _picker([scope.index(v) for v in want])
