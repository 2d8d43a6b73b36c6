"""The package namespace: `import smdg` loads no submodule, and each exported
name imports its module on first access."""

import subprocess
import sys

import pytest

import smdg

from helpers import python_env

# The names `smdg` exported when its __init__ imported every module eagerly.
PUBLIC = frozenset("""
    CanonReport CanonicalGraph CanonicalSignature ConfluenceError D_separated DiscreteModel
    EquivalenceProof FactorizationStructure FeasibilityResult GraphError IndependenceSystem
    KernelTable ModelError NotCanonicalError NotLiftableError OracleError PartitionedDag
    PreconditionError ProbTable RewriteStep Role RulePreconditionError SearchResult
    SelectedDistribution SelectedOutError SeparationQuery SmDG SmdgBounds SmiResult
    SupportPoint SupportQuery UnknownVertexError Verdict VertexId add_private_latents
    build_tilde_dag canon canonical_graph canonicalize conditionally_independent d_separated
    district_block_order enumerate_canonical_dags enumerate_partitioned_dags enumerate_smdgs
    enumeration eval_joint exog_all exogenize functional_closure graph identity_mdag_checker
    io is_acyclic is_canonical is_liftable lift mdag_of merge_marginalized merge_selected model
    observe_and_do_equivalent observe_or_do_distribution oracle product_intervention project
    rewrite rmv_red_m rmv_red_s rule_add_marginal_face rule_mdag_lift rule_remove_selected_face
    rule_remove_self_loop rule_remove_special_edge search_equivalence sep shield_completion
    signature slp sm_separated smi_distribution smo_distribution split_m_to_s sumproduct
    support_feasible term_all terminalize to_special transport transport_chain
    transport_obs_or_do witness_directed_edge witness_marginal_face witness_selected_face
    witness_self_loop witness_to_model
""".split())

# Resolves every exported name in a fresh process and checks that each is the
# object its defining module holds: a submodule itself, or the class or
# function of that name in the module its __module__ names. VertexId is an
# alias of str, so it names no module of its own.
RESOLVE = """
import sys
import smdg

assert [m for m in sys.modules if m.startswith("smdg")] == ["smdg"], sys.modules
for name in smdg.__all__:
    value = getattr(smdg, name)
    if isinstance(value, type(smdg)):
        assert value is sys.modules["smdg." + name], name
    else:
        home = "smdg.graph" if name == "VertexId" else value.__module__
        assert home.startswith("smdg."), (name, home)
        assert getattr(sys.modules[home], name) is value, name
print(len(smdg.__all__))
"""

STAR = """
import smdg
namespace = {}
exec("from smdg import *", namespace)
for name in smdg.__all__:
    assert namespace[name] is getattr(smdg, name), name
print(sorted(set(namespace) - {"__builtins__"}) == sorted(smdg.__all__))
"""


# `smdg.transport` names the submodule whatever was imported first; the
# function is `smdg.transport.transport`.
TRANSPORT = """
import sys
import smdg

before = smdg.transport
import smdg.transport
from smdg import transport
assert before is smdg.transport is transport is sys.modules["smdg.transport"]
assert callable(transport.transport) and transport.transport.__module__ == "smdg.transport"
print("module")
"""


def run_child(script):
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=python_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_the_public_api():
    assert sorted(smdg.__all__) == sorted(PUBLIC)
    assert set(smdg.__all__) <= set(dir(smdg))
    assert smdg.__version__ == "0.1.0"


def test_each_export_is_its_defining_modules_object():
    assert run_child(RESOLVE) == f"{len(PUBLIC)}\n"


def test_transport_names_the_submodule():
    assert run_child(TRANSPORT) == "module\n"
    assert run_child("import smdg.transport\n" + TRANSPORT) == "module\n"


def test_star_import_binds_every_export():
    assert run_child(STAR) == "True\n"


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        smdg.no_such_name
    assert not hasattr(smdg, "no_such_name")
    with pytest.raises(ImportError):
        from smdg import no_such_name  # noqa: F401

