"""Separation criteria: classical d-separation, its determinism-aware variant,
and the smDG analogue.

Visible vertices are deterministic functions of their parents, so
conditioning on a set Z also fixes every visible vertex whose parents are all
fixed; ``functional_closure`` computes that least fixed point. The
determinism-aware criterion runs d-separation against the closed set. The
smDG criterion walks paths built from four edge kinds: directed edges, a
bidirected connection for vertices sharing a marginal face, and an
undirected connection for vertices sharing a selected face.

All three criteria run on the graph compiled into integer masks
(:class:`Bitsets`), once per graph instance, from its edges, roles and faces,
and recorded on it: one trail search over frontier masks of (vertex,
arrowhead on entry) states, as in Shachter's Bayes-ball, and one worklist
for the closure. A query converts its three vertex sets to masks and builds
nothing else; a graph asked only separation queries never builds its parent
and child maps.

Queries whose endpoints are themselves functionally determined by Z get the
distinct ``DETERMINED`` verdict: conditional independence against a
point-mass variable is degenerate.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, NamedTuple

from .graph import (
    GraphError, PartitionedDag, SmDG, UnknownVertexError, VertexId, _recorded, _Value,
)
from .project import NotLiftableError, unliftable_cycle


class Verdict(enum.Enum):
    SEPARATED = "separated"
    CONNECTED = "connected"
    DETERMINED = "determined"


class SeparationQuery(_Value):
    x: frozenset[VertexId]
    y: frozenset[VertexId]
    z: frozenset[VertexId]

    def __init__(self, x, y, z) -> None:
        self.__dict__.update(x=x, y=y, z=z, _key=(x, y, z))

    @classmethod
    def of(cls, x: Iterable[VertexId], y: Iterable[VertexId], z: Iterable[VertexId] = ()):
        q = cls(frozenset(x), frozenset(y), frozenset(z))
        if not q.x or not q.y:
            raise GraphError("query sets x and y must be non-empty")
        if q.x & q.y or q.x & q.z or q.y & q.z:
            raise GraphError("query sets must be pairwise disjoint")
        return q

    def vertices(self) -> frozenset[VertexId]:
        return self.x | self.y | self.z


class Bitsets(NamedTuple):
    """A graph compiled into integer bitmasks, the form every separation
    query reads: vertex ``order[i]`` is the bit ``1 << i``, and each
    per-vertex table is keyed by that bit.

    ``parents`` and ``children`` hold the directed neighbours without
    self-loops. ``bidirected`` (``undirected``) holds, for an smDG, the other
    members of the maximal marginal (selected) faces that hold the vertex,
    and is all zeros for a DAG. ``closable`` holds the vertices that can join
    a functional closure: the visibles, for an smDG only those outside the
    marginal support, and never a vertex with a self-loop, since it is its
    own parent. ``selected`` holds a DAG's selected vertices, or an smDG's
    selected support.
    """

    order: tuple[VertexId, ...]
    bit: Mapping[VertexId, int]
    parents: Mapping[int, int]
    children: Mapping[int, int]
    bidirected: Mapping[int, int]
    undirected: Mapping[int, int]
    closable: int
    selected: int

    def masks(self, *tiers: tuple[Iterable[VertexId], ...]) -> list[int]:
        """The mask of each group of each tier, in order. A vertex that is
        not in the graph raises, naming the sorted-first such vertex of the
        first tier that holds one."""
        bit, out = self.bit, []
        try:
            for tier in tiers:
                for group in tier:
                    m = 0
                    for v in group:
                        m |= bit[v]
                    out.append(m)
        except KeyError:
            for tier in tiers:
                unknown = [v for group in tier for v in group if v not in bit]
                if unknown:
                    raise UnknownVertexError(
                        f"vertex {min(unknown)!r} is not in the graph"
                    ) from None
        return out

    def vertices(self, mask: int) -> frozenset[VertexId]:
        order, out = self.order, []
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


def _directed_masks(
    order: tuple[VertexId, ...], edges: Iterable[tuple[VertexId, VertexId]]
) -> tuple[dict[VertexId, int], dict[int, int], dict[int, int], int]:
    """The bit of each vertex, its parent and child masks without
    self-loops, and the mask of the vertices with a self-loop."""
    bit = {v: 1 << i for i, v in enumerate(order)}
    parents = dict.fromkeys(bit.values(), 0)
    children = dict(parents)
    looped = 0
    for a, b in edges:
        ba, bb = bit[a], bit[b]
        if ba == bb:
            looped |= ba
        else:
            parents[bb] |= ba
            children[ba] |= bb
    return bit, parents, children, looped


def _co_members(
    bit: Mapping[VertexId, int], faces: Iterable[Iterable[VertexId]]
) -> tuple[dict[int, int], int]:
    """Per vertex bit, the other members of the faces that hold it; and the
    mask of the faces' union."""
    out = dict.fromkeys(bit.values(), 0)
    support = 0
    for face in faces:
        m = 0
        for v in face:
            m |= bit[v]
        support |= m
        for v in face:
            out[bit[v]] |= m
    for b, m in out.items():
        out[b] = m & ~b
    return out, support


def _bitsets(g: PartitionedDag | SmDG) -> Bitsets:
    """g compiled once into :class:`Bitsets`, from its edges, roles and faces
    rather than its parent and child maps, and recorded on the instance."""
    return _recorded(g, "_bitsets", _compile_smdg if isinstance(g, SmDG) else _compile_dag)


def _compile_dag(d: PartitionedDag) -> Bitsets:
    order = tuple(v for v, _ in d.roles)
    bit, parents, children, _ = _directed_masks(order, d.edges)
    get, none = bit.__getitem__, dict.fromkeys(parents, 0)
    return Bitsets(order, bit, parents, children, none, none,
                   sum(map(get, d.visible)), sum(map(get, d.selected)))


def _compile_smdg(g: SmDG) -> Bitsets:
    bit, parents, children, looped = _directed_masks(tuple(sorted(g.visibles)), g.edges)
    bidirected, marginal = _co_members(bit, g.marginal_system.maximal_faces)
    undirected, selected = _co_members(bit, g.selected_system.maximal_faces)
    closable = ((1 << len(bit)) - 1) & ~marginal & ~looped
    return Bitsets(tuple(bit), bit, parents, children, bidirected, undirected,
                   closable, selected)


def functional_closure(g: PartitionedDag | SmDG, z: Iterable[VertexId]) -> frozenset[VertexId]:
    """Vertices fixed by conditioning on z: the least set containing z that is
    closed under adding visible vertices all of whose parents are in it (for
    an smDG, only vertices outside every marginal face, i.e. with no latent
    noise source). Terminates on cyclic structures too."""
    bits = _bitsets(g)
    (zm,) = bits.masks((frozenset(z),))
    return bits.vertices(_closure(bits, zm))


def _closure(bits: Bitsets, z: int) -> int:
    """The mask of the functional closure of the mask z, from a worklist of
    masks to check: first every candidate, then the children of each vertex
    that joins, since a vertex can only join once its last parent has."""
    parents, children = bits.parents, bits.children
    candidates = bits.closable & ~z
    closure, todo = z, [candidates]
    while todo:
        m = todo.pop() & ~closure
        while m:
            low = m & -m
            if not parents[low] & ~closure:
                closure |= low
                todo.append(children[low] & candidates)
            m ^= low
    return closure


def _connected(bits: Bitsets, x: int, y: int, blocking: int, activated: int) -> bool:
    """Whether a trail from x reaches y: reachability over (vertex, arrowhead
    on entry) states, run on frontier masks, heads (entered with an
    arrowhead) and tails (entered without).

    A step leaves a vertex either on its arrowhead side (to a parent, or a
    bidirected step to a marginal-face co-member) or on its tail side (to a
    child, or an undirected step to a selected-face co-member). Through a
    vertex entered with an arrowhead, an arrowhead-side step makes it a
    collider, which passes only when it is in activated; every other transit
    is a non-collider, which passes only when it is outside blocking. The
    first step out of x passes freely. A collider with a descendant in
    activated is passed by walking down to that descendant and back, so
    activated need not hold ancestors. Self-loops are never walked: their
    separation content is captured by face membership.
    """
    parents, children = bits.parents, bits.children
    bidirected, undirected = bits.bidirected, bits.undirected
    seen_heads = seen_tails = 0
    head_side = tail_side = x  # vertices whose steps on that side are taken next
    done_head = done_tail = 0  # vertices whose steps on that side were taken
    while True:
        done_head |= head_side
        done_tail |= tail_side
        heads = tails = 0
        while head_side:
            low = head_side & -head_side
            tails |= parents[low]
            heads |= bidirected[low]
            head_side ^= low
        while tail_side:
            low = tail_side & -tail_side
            heads |= children[low]
            tails |= undirected[low]
            tail_side ^= low
        if (heads | tails) & y:
            return True
        heads &= ~seen_heads
        tails &= ~seen_tails
        if not heads | tails:
            return False
        seen_heads |= heads
        seen_tails |= tails
        open_tails = tails & ~blocking
        head_side = ((heads & activated) | open_tails) & ~done_head
        tail_side = ((heads & ~blocking) | open_tails) & ~done_tail


def _verdict(bits: Bitsets, x: int, y: int, blocking: int, activators: int) -> Verdict:
    """The body the three criteria share: non-colliders in blocking block,
    endpoints in it give ``DETERMINED``, and colliders among the ancestors of
    activators are active. The trail search is handed the activators
    themselves; the comment below says why their ancestors come for free."""
    if (x | y) & blocking:
        return Verdict.DETERMINED
    # Write A for activators and C for blocking; C is z or its functional
    # closure, and A holds z. A collider in An(A) - A outside C is still
    # passed: take a shortest directed path from it down to A. No inner
    # vertex is in C: the first one would not be in z (the path is
    # shortest), so it joined the closure with all its parents in C, yet
    # its parent on the path is outside C. So the walk goes down, bounces at
    # the activated vertex and comes back up through non-colliders, as in
    # Shachter's Bayes-ball. A collider in C - A is never entered with an
    # arrowhead: it joined the closure, so it lies in no marginal face (no
    # bidirected step) and all its parents are in C, which block.
    connected = _connected(bits, x, y, blocking, activators)
    return Verdict.CONNECTED if connected else Verdict.SEPARATED


def d_separated(d: PartitionedDag, query: SeparationQuery) -> bool:
    """Classical d-separation: colliders are active when they have a
    descendant in the conditioning set (are among its ancestors), everything
    else blocks on it."""
    bits = _bitsets(d)
    x, y, z = bits.masks((query.x, query.y, query.z))
    return _verdict(bits, x, y, z, z) is Verdict.SEPARATED


def D_separated(d: PartitionedDag, query: SeparationQuery) -> Verdict:
    """d-separation with the conditioning set replaced by its functional
    closure; endpoint sets inside the closure yield ``DETERMINED``. An
    unknown vertex of z is named before one of x or y."""
    bits = _bitsets(d)
    z, x, y = bits.masks((query.z,), (query.x, query.y))
    closure = _closure(bits, z)
    return _verdict(bits, x, y, closure, closure)


def sm_separated(g: SmDG, query: SeparationQuery) -> Verdict:
    """Path blocking in an smDG.

    Non-colliders block when functionally determined by the conditioning
    set; colliders are active when some directed-structure descendant lies in
    the conditioning set or in a selected face. An unknown vertex of z is
    named before one of x or y.
    """
    cycle = unliftable_cycle(g)
    if cycle is not None:
        raise NotLiftableError(cycle)
    bits = _bitsets(g)
    z, x, y = bits.masks((query.z,), (query.x, query.y))
    closure = _closure(bits, z)
    return _verdict(bits, x, y, closure, z | bits.selected)
