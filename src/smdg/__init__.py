"""Causal DAGs with latent and selected vertices.

Canonicalization of partitioned DAGs, selected-latent projection to smDGs,
liftability, separation criteria, observational-equivalence rewrites, and an
exact discrete-model evaluator.

``import smdg`` is lazy: each exported name, and each submodule name, imports
its module on first access (PEP 562), so a program or an ``smdg`` command
loads only the modules it uses.
"""

from importlib import import_module as _import_module

# module -> the names it exports
_EXPORTS = {
    "graph": (
        "GraphError", "IndependenceSystem", "PartitionedDag", "Role", "SmDG",
        "UnknownVertexError", "VertexId", "is_acyclic",
    ),
    "canon": (
        "CanonReport", "ConfluenceError", "PreconditionError", "canonicalize", "exog_all",
        "exogenize", "is_canonical", "merge_marginalized", "merge_selected", "rmv_red_m",
        "rmv_red_s", "split_m_to_s", "term_all", "terminalize", "to_special",
    ),
    "project": (
        "CanonicalGraph", "CanonicalSignature", "NotCanonicalError", "NotLiftableError",
        "canonical_graph", "is_liftable", "lift", "observe_and_do_equivalent", "signature",
        "slp",
    ),
    "sep": (
        "SeparationQuery", "Verdict", "D_separated", "d_separated", "functional_closure",
        "sm_separated",
    ),
    "model": (
        "DiscreteModel", "KernelTable", "ModelError", "ProbTable", "SelectedDistribution",
        "SelectedOutError", "SmiResult", "add_private_latents", "conditionally_independent",
        "eval_joint", "observe_or_do_distribution", "product_intervention",
        "smi_distribution", "smo_distribution",
    ),
    "transport": ("transport_chain", "transport_obs_or_do"),
    "rewrite": (
        "EquivalenceProof", "RewriteStep", "RulePreconditionError", "SearchResult",
        "build_tilde_dag", "district_block_order", "identity_mdag_checker", "mdag_of",
        "rule_add_marginal_face", "rule_mdag_lift", "rule_remove_selected_face",
        "rule_remove_self_loop", "rule_remove_special_edge", "search_equivalence",
        "shield_completion",
    ),
    "oracle": (
        "FactorizationStructure", "FeasibilityResult", "OracleError", "SupportPoint",
        "SupportQuery", "support_feasible", "witness_directed_edge", "witness_marginal_face",
        "witness_selected_face", "witness_self_loop", "witness_to_model",
    ),
    "enumeration": (
        "SmdgBounds", "enumerate_canonical_dags", "enumerate_partitioned_dags",
        "enumerate_smdgs",
    ),
}
_SUBMODULES = (*_EXPORTS, "io", "sumproduct")
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_MODULE_OF, *_SUBMODULES})
__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(_import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
