"""Value semantics of the library's frozen value classes.

Each class compares field by field with instances of its own class only,
hashes as the tuple of its fields, prints as ``Name(field=value, ...)`` and
refuses to have a field assigned or deleted. The instances come from the
``cases`` graphs, transported models with their smo and smi results, an
equivalence search and a support query.

Run as a script, this module prints the sha256 of each class's reprs; the
test runs it under a fixed hash seed, since a frozenset prints in hash order.
"""

import hashlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from smdg import rewrite
from smdg.canon import canonicalize
from smdg.enumeration import SmdgBounds
from smdg.graph import PartitionedDag, SmDG, UnknownVertexError
from smdg.model import SelectedOutError, smi_distribution, smo_distribution
from smdg.oracle import support_feasible
from smdg.project import canonical_graph, signature, slp
from smdg.rewrite import RewriteStep, apply_step, search_equivalence
from smdg.sep import SeparationQuery
from smdg.transport import transport

import cases
from helpers import UNLIFTABLE, python_env
from test_transport import SHAPES, _grid

# The fields of each class in declaration order: what ==, hash and repr read.
FIELDS = {
    "PartitionedDag": ("roles", "edges"),
    "IndependenceSystem": ("ground", "maximal_faces"),
    "SmDG": ("visibles", "edges", "marginal_system", "selected_system"),
    "CanonReport": ("input", "output", "steps"),
    "CanonicalGraph": ("roles", "edges", "cycle"),
    "CanonicalSignature": ("directed_edges", "special_pairs", "marginal_child_sets",
                           "selected_parent_sets"),
    "SeparationQuery": ("x", "y", "z"),
    "KernelTable": ("parents", "den", "rows"),
    "DiscreteModel": ("dag", "domains", "kernels", "selected_zeros"),
    "ProbTable": ("variables", "den", "weights"),
    "SelectedDistribution": ("dist", "selection_probability"),
    "SmiResult": ("q", "status", "dist", "selection_probability"),
    "_Rule": ("label", "check", "forward", "inverse"),
    "RewriteStep": ("rule", "params", "direction"),
    "EquivalenceProof": ("start", "end", "steps"),
    "SearchResult": ("proof", "diagnostic"),
    "SmdgBounds": ("max_edges",),
    "Factor": ("name", "scope"),
    "FactorizationStructure": ("variables", "selection_factors"),
    "SupportPoint": ("assignment", "intervened"),
    "SupportQuery": ("required", "forbidden"),
    "FeasibilityResult": ("feasible", "witness", "certificate", "forced"),
}

# sha256 of each class's reprs, one a line, under PYTHONHASHSEED=0, taken
# from the dataclass implementation these classes replaced.
REPR_DIGESTS = {
    "CanonReport":
        "259f15b0aee40ab881ba413a65d9714363b50475601c51bd04332ebe4ae3bd26",
    "CanonicalGraph":
        "cc4818799de23bf470a37ce4738224940d5399a1907dc047ffcecc47ad1de1a6",
    "CanonicalSignature":
        "6a5089b9623c30c62ca3781571e1522f354b9e9c26c7b10b5c0aae5d2dc78f7d",
    "DiscreteModel":
        "1391f343bc19cdcca42ef2d8fe60e0a8652cb6d43d5319a18036c2c603375429",
    "EquivalenceProof":
        "6212cd152fe10262cee9e68bc6792a4effb6eab321dc940e5e2af1292cf84d53",
    "Factor":
        "9bcbf03f248a5e8a8457a98ed7d8634f143fe5a946f5ffe599e57d8c52b551be",
    "FactorizationStructure":
        "b2a9b4c71f0b3979144e3ded6a1d2d12a84cb2077d570c0bfa1dd8bd27beafcc",
    "FeasibilityResult":
        "9fdb6ef85cad9d91d102627c3e87bb1de1e01cfdd3b8993d6cf0ed8ac1177601",
    "IndependenceSystem":
        "9bc494f248ecffddfb70edbdf4bbd13a837d137cedc795434a6bad16b2aadd3a",
    "KernelTable":
        "0b290163e7820e832cbb244ecadf65fcede1b49ff5ce6d50371902a556da5ad9",
    "PartitionedDag":
        "d84a68b8fbbd0bb634a246bd2c663c3676e68d9788c0e9de838447e046dc21ef",
    "ProbTable":
        "e49bb81ff9694a83c02e4bdee90f4d9f39b3a8c98de41ab660b162a95ee4f18e",
    "RewriteStep":
        "9adcea1c2d0ce3361974c1211d24f3d3aa717df7e6405d5366dfe6d4668044d0",
    "SearchResult":
        "b0b76e8a4fd7121a4e03c4b984a4aea400046a832eccb2af0b0986af5ab59dd3",
    "SelectedDistribution":
        "579e818dbf8aa8ff78119bde7e2e49915f5033309a82e64180036d5b8fc2ebdf",
    "SeparationQuery":
        "1a43c98f9d34c277ae68055cc7e8febbf2f8f244e2ce59a8297bfb56c2c1fb02",
    "SmDG":
        "3a9b4c5a977d291baf207aa79d6242e4bab41956ddf1f6681cdf55e0380d070b",
    "SmdgBounds":
        "fe4d6536b76b5db18911613c461e5432c61ed30f1e6a9d31e05a4f214026c70b",
    "SmiResult":
        "3df79f1588ada71435b4d4b518e2060ad1a7c26a9664b0860ef57aaeff4ac3df",
    "SupportPoint":
        "903c7a42fc85c47b615ce7c13023ca94420701a45da2b4df4b38be81afa5d74d",
    "SupportQuery":
        "47335a9a6b445554af9bc72ba1e865964302947db1c84c8aa96fe8f4974119ef",
    "_Rule":
        "d94388d70337cf6307f055c1ba4c8d03c4c8ef92b170f81d16be68bbf2696359",
}


def instances() -> dict[str, list]:
    """Instances of every value class, in a fixed order, keyed by class name."""
    made = [f() for _, f in sorted(vars(cases).items())
            if getattr(f, "__module__", None) == "cases"]
    dags = [x for x in made if isinstance(x, PartitionedDag)]
    smdgs = [x for x in made if isinstance(x, SmDG)] + [slp(d) for d in dags]
    reports = [canonicalize(d) for d in dags]
    out: dict[str, list] = {name: [] for name in FIELDS}
    out["PartitionedDag"] = dags + [r.output for r in reports]
    out["SmDG"] = smdgs
    out["IndependenceSystem"] = [s for g in smdgs
                                 for s in (g.marginal_system, g.selected_system)]
    out["CanonReport"] = reports
    out["CanonicalSignature"] = [signature(r.output) for r in reports]
    out["CanonicalGraph"] = [canonical_graph(g) for g in smdgs + list(UNLIFTABLE)]
    out["SeparationQuery"] = [SeparationQuery.of("a", "b"), SeparationQuery.of("ab", "c", "d"),
                              SeparationQuery.of(["x"], ["y"], ["z", "w"])]
    out["SmdgBounds"] = [SmdgBounds(), SmdgBounds.default_for(4), SmdgBounds(max_edges=2)]
    for shape in sorted(SHAPES):
        model, move = SHAPES[shape](random.Random(f"values-{shape}"))
        moved = transport(model, move)
        out["DiscreteModel"] += [model, moved]
        out["KernelTable"] += [k for m in (model, moved) for _, k in m.kernels]
        try:
            smo = smo_distribution(moved)
        except SelectedOutError:
            pass
        else:
            out["SelectedDistribution"].append(smo)
            out["ProbTable"].append(smo.dist)
        for q in _grid(moved):
            res = smi_distribution(moved, q)
            out["SmiResult"].append(res)
            out["ProbTable"] += [q] + ([res.dist] if res.dist is not None else [])
    found = search_equivalence(cases.canon_example_slp(), cases.chain_face_removed(), depth=4)
    missed = search_equivalence(cases.canon_example_slp(), cases.teaser_b_slp(), depth=0)
    out["SearchResult"] = [found, missed]
    out["EquivalenceProof"] = [found.proof]
    out["RewriteStep"] = list(found.proof.steps) + [RewriteStep("RemoveSelfLoop", ("a",))]
    out["_Rule"] = [rule for _, rule in sorted(rewrite._RULES.items())]
    structures = [cases.exactly_one_structure_joint(), cases.exactly_one_structure_pairwise()]
    query = cases.exactly_one_query()
    out["FactorizationStructure"] = structures
    out["Factor"] = [f for fs in structures for f in fs.selection_factors]
    out["SupportQuery"] = [query]
    out["SupportPoint"] = list(query.required + query.forbidden)
    out["FeasibilityResult"] = [support_feasible(fs, query) for fs in structures]
    return out


def repr_digests() -> dict[str, str]:
    """sha256 of each class's reprs, with the addresses of functions blanked."""
    return {
        name: hashlib.sha256("\n".join(
            re.sub(r" at 0x[0-9a-f]+", "", repr(x)) for x in xs
        ).encode("utf-8")).hexdigest()
        for name, xs in instances().items()
    }


@pytest.fixture(scope="module")
def made():
    return instances()


def test_every_class_has_instances(made):
    for name, xs in made.items():
        assert xs, name
        assert {type(x).__name__ for x in xs} == {name}


def test_reprs_print_the_pinned_bytes():
    proc = subprocess.run(
        [sys.executable, str(Path(__file__))], capture_output=True, text=True,
        env=python_env(PYTHONHASHSEED="0"), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == REPR_DIGESTS


def _key(x) -> tuple:
    return tuple(getattr(x, f) for f in FIELDS[type(x).__name__])


def test_repr_reads_the_fields_in_order(made):
    for name, xs in made.items():
        if name == "ProbTable":
            continue
        for x in xs:
            fields = ", ".join(f"{f}={getattr(x, f)!r}" for f in FIELDS[name])
            assert repr(x) == f"{name}({fields})"
    for t in made["ProbTable"]:
        assert repr(t) == f"ProbTable(variables={t.variables!r}, table={t.table!r})"


def test_equal_and_hash_read_the_fields(made):
    for name, xs in made.items():
        for x in xs:
            y = type(x)(**dict(zip(FIELDS[name], _key(x))))
            assert y is not x and y == x and not y != x
            assert hash(x) == hash(y) == hash(_key(x))
        for x in xs:
            for y in xs:
                assert (x == y) == (_key(x) == _key(y))


def test_a_different_class_compares_unequal(made):
    firsts = [xs[0] for xs in made.values()]
    for x in firsts:
        assert x.__eq__(object()) is NotImplemented
        for y in firsts:
            if y is not x:
                assert x.__eq__(y) is NotImplemented
                assert x != y


def test_fields_cannot_be_assigned_or_deleted(made):
    for name, xs in made.items():
        x = xs[0]
        for f in FIELDS[name]:
            # _Rule is a typing.NamedTuple, whose refusal Python words itself
            tuple_ = name == "_Rule"
            with pytest.raises(AttributeError,
                               match=None if tuple_ else f"cannot assign to field '{f}'"):
                setattr(x, f, getattr(x, f))
            with pytest.raises(AttributeError,
                               match=None if tuple_ else f"cannot delete field '{f}'"):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1


def test_kernel_repr_hides_its_row_index(made):
    for k in made["KernelTable"]:
        assert k.numerators(k.rows[0][0]) == k.rows[0][1]
        assert "_index" not in repr(k) and repr(k).endswith(f"rows={k.rows!r})")


@pytest.mark.parametrize("rule, params", [
    ("RemoveSpecialEdge", ("a", "zz")),
    ("RemoveSelfLoop", ("zz",)),
])
def test_a_rule_edit_still_checks_its_edges(rule, params):
    """A backward step rebuilds the graph through the constructor, whose
    checks refuse an edge outside the visible vertices."""
    g = cases.fork_mdag()
    with pytest.raises(UnknownVertexError, match="outside the graph"):
        apply_step(g, RewriteStep(rule, params, "backward"))


if __name__ == "__main__":
    print(json.dumps(repr_digests(), sort_keys=True))
