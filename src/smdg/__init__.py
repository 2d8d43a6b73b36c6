"""Causal DAGs with latent and selected vertices.

Canonicalization of partitioned DAGs, selected-latent projection to smDGs,
liftability, separation criteria, observational-equivalence rewrites, and an
exact discrete-model evaluator.
"""

from .graph import (
    GraphError,
    IndependenceSystem,
    PartitionedDag,
    Role,
    SmDG,
    UnknownVertexError,
    VertexId,
    is_acyclic,
)
from .canon import (
    CanonReport,
    ConfluenceError,
    PreconditionError,
    canonicalize,
    exog_all,
    exogenize,
    is_canonical,
    merge_marginalized,
    merge_selected,
    rmv_red_m,
    rmv_red_s,
    split_m_to_s,
    term_all,
    terminalize,
    to_special,
)
from .project import (
    CanonicalGraph,
    CanonicalSignature,
    NotCanonicalError,
    NotLiftableError,
    canonical_graph,
    is_liftable,
    lift,
    observe_and_do_equivalent,
    signature,
    slp,
)
from .sep import (
    SeparationQuery,
    Verdict,
    D_separated,
    d_separated,
    functional_closure,
    sm_separated,
)
from .model import (
    DiscreteModel,
    KernelTable,
    ModelError,
    ProbTable,
    SelectedDistribution,
    SelectedOutError,
    SmiResult,
    add_private_latents,
    conditionally_independent,
    eval_joint,
    observe_or_do_distribution,
    product_intervention,
    smi_distribution,
    smo_distribution,
)
from .transport import transport, transport_chain, transport_obs_or_do
from .rewrite import (
    EquivalenceProof,
    RewriteStep,
    RulePreconditionError,
    SearchResult,
    build_tilde_dag,
    district_block_order,
    identity_mdag_checker,
    mdag_of,
    rule_add_marginal_face,
    rule_mdag_lift,
    rule_remove_selected_face,
    rule_remove_self_loop,
    rule_remove_special_edge,
    search_equivalence,
    shield_completion,
)
from .oracle import (
    FactorizationStructure,
    FeasibilityResult,
    OracleError,
    SupportPoint,
    SupportQuery,
    support_feasible,
    witness_directed_edge,
    witness_marginal_face,
    witness_selected_face,
    witness_self_loop,
    witness_to_model,
)
from .enumeration import (
    SmdgBounds,
    enumerate_canonical_dags,
    enumerate_partitioned_dags,
    enumerate_smdgs,
)

__version__ = "0.1.0"
