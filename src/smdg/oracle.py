"""Support-feasibility decisions and distinguishability witness models.

``support_feasible`` decides, for a fully exogenous selected model described
by root factors (one per variable) and selection factors, whether a zero /
nonzero pattern of selected probabilities is achievable. The decision is
support-only: every factor cell touched by a required point is forced
positive, and a forbidden point is excludable exactly when one of its cells
is unforced. Do-intervention data is expressed by marking variables of a
point as intervened, which deactivates their root factors for that point.

The witness builders return small exact models realizing the selected
observational or interventional data that separates structures differing in
a self-loop, a directed edge, a marginal face, or a selected face.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from . import canon
from .graph import GraphError, PartitionedDag, Role, VertexId, _Value
from .model import (
    DiscreteModel,
    KernelTable,
    add_private_latents,
    copy_check,
    deterministic_kernel,
    private_latents,
    table_kernel,
    uniform,
)

Cell = tuple[str, tuple]


class OracleError(GraphError):
    pass


# Most domain values a structure may declare by size, summed over its
# variables; a listed domain is as large as the input spells it out.
_DOMAIN_LIMIT = 2 ** 16


class Factor(_Value):
    name: str
    scope: tuple[str, ...]

    def __init__(self, name, scope) -> None:
        self.__dict__.update(name=name, scope=scope, _key=(name, scope))


class FactorizationStructure(_Value):
    """Variables with finite domains, an implicit root factor per variable,
    and explicit selection factors. A domain is given by its values or by a
    size k (an int, not a bool), meaning 0..k-1; the sizes sum to at most
    ``_DOMAIN_LIMIT``."""

    variables: tuple[tuple[str, tuple], ...]
    selection_factors: tuple[Factor, ...]

    def __init__(self, variables, selection_factors) -> None:
        self.__dict__.update(variables=variables, selection_factors=selection_factors,
                             _key=(variables, selection_factors))

    @classmethod
    def of(
        cls, variables: Mapping[str, int | Sequence], factors: Mapping[str, Sequence[str]]
    ) -> "FactorizationStructure":
        vars_fixed = []
        declared = 0
        for name, dom in sorted(variables.items()):
            if isinstance(dom, bool):
                raise OracleError(f"domain size of {name!r} must be an integer, got {dom!r}")
            if isinstance(dom, int):
                declared += dom
                if declared > _DOMAIN_LIMIT:
                    raise OracleError(
                        f"domain size {dom} of {name!r} takes the declared sizes"
                        f" past the limit of {_DOMAIN_LIMIT}"
                    )
            values = tuple(range(dom)) if isinstance(dom, int) else tuple(dom)
            if not values:
                raise OracleError(f"variable {name!r} has an empty domain")
            vars_fixed.append((name, values))
        var_names = {name for name, _ in vars_fixed}
        factors_fixed = []
        for name, scope in sorted(factors.items()):
            scope = tuple(scope)
            if not set(scope) <= var_names:
                raise OracleError(f"factor {name!r} scope mentions unknown variables")
            if not scope:
                raise OracleError(f"factor {name!r} has an empty scope")
            factors_fixed.append(Factor(name=name, scope=scope))
        return cls(variables=tuple(vars_fixed), selection_factors=tuple(factors_fixed))

    def domain(self, v: str) -> tuple:
        return dict(self.variables)[v]

    def root_name(self, v: str) -> str:
        return f"root:{v}"

    def cells_of(self, point: "SupportPoint") -> frozenset[Cell]:
        assign = dict(point.assignment)
        domains = dict(self.variables)
        if assign.keys() != domains.keys():
            raise OracleError("support points must assign every variable")
        for v, value in assign.items():
            if value not in domains[v]:
                raise OracleError(f"value {value!r} outside the domain of {v!r}")
        cells = {
            (f.name, tuple(assign[v] for v in f.scope)) for f in self.selection_factors
        }
        for v in assign:
            if v not in point.intervened:
                cells.add((self.root_name(v), (assign[v],)))
        return frozenset(cells)


class SupportPoint(_Value):
    assignment: tuple[tuple[str, object], ...]
    intervened: frozenset[str]

    def __init__(self, assignment, intervened=frozenset()) -> None:
        self.__dict__.update(assignment=assignment, intervened=intervened,
                             _key=(assignment, intervened))

    @classmethod
    def of(cls, assignment: Mapping[str, object], intervened: Iterable[str] = ()):
        return cls(tuple(sorted(assignment.items())), frozenset(intervened))


class SupportQuery(_Value):
    required: tuple[SupportPoint, ...]
    forbidden: tuple[SupportPoint, ...]

    def __init__(self, required, forbidden) -> None:
        self.__dict__.update(required=required, forbidden=forbidden, _key=(required, forbidden))

    @classmethod
    def of(cls, required: Iterable[SupportPoint], forbidden: Iterable[SupportPoint]):
        req, forb = tuple(required), tuple(forbidden)
        if set(req) & set(forb):
            raise OracleError("required and forbidden points must be disjoint")
        return cls(req, forb)


class FeasibilityResult(_Value):
    feasible: bool
    # positive cells per factor when feasible
    witness: Optional[frozenset[Cell]]
    # a forbidden point whose every cell is forced when infeasible
    certificate: Optional[SupportPoint]
    forced: frozenset[Cell]

    def __init__(self, feasible, witness, certificate, forced) -> None:
        self.__dict__.update(feasible=feasible, witness=witness, certificate=certificate,
                             forced=forced, _key=(feasible, witness, certificate, forced))


def support_feasible(fs: FactorizationStructure, q: SupportQuery) -> FeasibilityResult:
    """Exact support decision by positivity propagation.

    Cells touched by required points are forced positive; a forbidden point
    is excludable when at least one of its cells is unforced (the witness
    zeroes every unforced cell). With no required points the query is
    degenerate and rejected: an all-zero selection is excluded by convention.
    """
    if not q.required:
        raise OracleError("degenerate query: at least one required point is needed")
    forced: set[Cell] = set()
    for point in q.required:
        forced |= fs.cells_of(point)
    for point in q.forbidden:
        cells = fs.cells_of(point)
        if cells <= forced:
            return FeasibilityResult(
                feasible=False, witness=None, certificate=point, forced=frozenset(forced)
            )
    return FeasibilityResult(
        feasible=True, witness=frozenset(forced), certificate=None, forced=frozenset(forced)
    )


def witness_to_model(fs: FactorizationStructure, witness: frozenset[Cell]) -> DiscreteModel:
    """Realize a positive-cell pattern as an exact model: each variable copies
    a private latent that is uniform over its positive root values, and each
    selection factor becomes a selected vertex whose zero indicates a
    positive cell."""
    var_names = [name for name, _ in fs.variables]
    dag = PartitionedDag.of(visible=var_names).with_vertices(
        add={f.name: Role.SELECTED for f in fs.selection_factors},
        add_edges={(v, f.name) for f in fs.selection_factors for v in f.scope},
    )
    latent = private_latents(dag)
    dag = add_private_latents(dag)
    domains: dict[VertexId, tuple] = {}
    kernels: dict[VertexId, KernelTable] = {}
    for name, values in fs.variables:
        positive_roots = tuple(
            v for v in values if (fs.root_name(name), (v,)) in witness
        ) or tuple(values)
        domains[name] = tuple(values)
        domains[latent[name]] = tuple(values)
        kernels[latent[name]] = table_kernel(
            [], [], values, lambda pr=positive_roots: uniform(pr)
        )
        kernels[name] = deterministic_kernel([latent[name]], [values], values, lambda u: u)
    for f in fs.selection_factors:
        domains[f.name] = (0, 1)
        doms = [domains[v] for v in f.scope]
        kernels[f.name] = deterministic_kernel(
            f.scope, doms, (0, 1),
            lambda *key, name=f.name: 0 if (name, tuple(key)) in witness else 1,
        )
    return DiscreteModel.of(dag, domains, kernels)


# --- witness models --------------------------------------------------------


def find_self_loop_pattern(
    d: PartitionedDag,
) -> Optional[tuple[VertexId, VertexId, VertexId]]:
    """A triple (v, s, m) with edges m -> v, v -> s, m -> s."""
    for v in sorted(d.visible):
        for s in sorted(d.children_of(v) & d.selected):
            for m in sorted(d.parents_of(v) & d.parents_of(s) & d.marginalized):
                return v, s, m
    return None


def witness_self_loop(d: PartitionedDag) -> DiscreteModel:
    """Model whose natural value responds to interventions on the same
    variable under selection: the latent holds two fair bits (b0, b1) as the
    index 2·b0 + b1, the visible fires unless both are zero, and selection
    fails exactly when the first bit and the visible are zero. Every other
    vertex is pinned to zero."""
    pattern = find_self_loop_pattern(d)
    if pattern is None:
        raise OracleError("graph contains no latent/visible/selection triangle")
    v, s, m = pattern
    domains: dict[VertexId, tuple] = {w: (0,) for w in d.vertices}
    domains[m] = (0, 1, 2, 3)
    domains[v] = (0, 1)
    domains[s] = (0, 1)
    kernels: dict[VertexId, KernelTable] = {}
    for w in d.vertices:
        parents = sorted(d.parents_of(w))
        pdoms = [domains[p] for p in parents]
        if w == m:
            kernels[w] = table_kernel(parents, pdoms, domains[m],
                                      lambda *k: uniform(domains[m]))
        elif w == v:
            kernels[w] = deterministic_kernel(
                parents, pdoms, (0, 1),
                lambda *key: 0 if dict(zip(parents, key))[m] == 0 else 1,
            )
        elif w == s:
            def s_fn(*key, parents=parents):
                env = dict(zip(parents, key))
                return 1 if (env[m] < 2 and env[v] == 0) else 0

            kernels[w] = deterministic_kernel(parents, pdoms, (0, 1), s_fn)
        else:
            kernels[w] = deterministic_kernel(parents, pdoms, (0,), lambda *k: 0)
    return DiscreteModel.of(d, domains, kernels)


def witness_directed_edge(a: VertexId, b: VertexId) -> tuple[DiscreteModel, DiscreteModel]:
    """A plain-edge model and a special-path model a -> s <- m -> b (built
    with the copy-check gadget) of the interventional data that only a
    directed connection explains: forcing the tail makes the head copy it,
    while forcing the head leaves the tail at zero."""
    bit = (0, 1)
    zero = deterministic_kernel([], [], bit, lambda: 0)
    plain = DiscreteModel.of(
        PartitionedDag.of(visible=[a, b], edges=[(a, b)]),
        {a: bit, b: bit},
        {a: zero, b: deterministic_kernel([a], [bit], bit, lambda x: x)},
    )
    s_ab, m_ab = canon.pair_labels(a, b)
    domains = {a: bit, b: bit}
    kernels = {a: zero, b: deterministic_kernel([m_ab], [bit], bit, lambda x: x)}
    zeros: dict[VertexId, int] = {}
    copy_check(domains, kernels, zeros, a, m_ab, s_ab)
    special_dag = PartitionedDag.of(
        visible=[a, b], marginalized=[m_ab], selected=[s_ab],
        edges=[(a, s_ab), (m_ab, s_ab), (m_ab, b)],
    )
    return plain, DiscreteModel.of(special_dag, domains, kernels, zeros)


def witness_marginal_face(face: Sequence[VertexId]) -> DiscreteModel:
    """Perfect correlation broadcast from one fair latent to the whole face;
    do-interventions on members leave the others' marginals fixed."""
    face = sorted(set(face))
    if not face:
        raise OracleError("face must be non-empty")
    m = canon._fresh("m", face)
    dag = PartitionedDag.of(
        visible=face, marginalized=[m], edges=[(m, v) for v in face]
    )
    domains = {v: (0, 1) for v in face}
    domains[m] = (0, 1)
    kernels = {m: table_kernel([], [], (0, 1), lambda: uniform((0, 1)))}
    for v in face:
        kernels[v] = deterministic_kernel([m], [(0, 1)], (0, 1), lambda x: x)
    return DiscreteModel.of(dag, domains, kernels)


def witness_selected_face(face: Sequence[VertexId]) -> DiscreteModel:
    """Independent fair bits whose selection keeps even-parity assignments."""
    face = sorted(set(face))
    if not face:
        raise OracleError("face must be non-empty")
    s = canon._fresh("s", face)
    dag = PartitionedDag.of(visible=face, selected=[s], edges=[(v, s) for v in face])
    latent = private_latents(dag, face)
    dag = add_private_latents(dag, only=face)
    domains: dict[VertexId, tuple] = {s: (0, 1)}
    kernels: dict[VertexId, KernelTable] = {}
    for v in face:
        domains[v] = (0, 1)
        domains[latent[v]] = (0, 1)
        kernels[latent[v]] = table_kernel([], [], (0, 1), lambda: uniform((0, 1)))
        kernels[v] = deterministic_kernel([latent[v]], [(0, 1)], (0, 1), lambda u: u)
    kernels[s] = deterministic_kernel(
        face, [(0, 1)] * len(face), (0, 1), lambda *bits: sum(bits) % 2
    )
    return DiscreteModel.of(dag, domains, kernels)

