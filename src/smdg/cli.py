"""Command-line interface.

Exit codes: 0 success / affirmative verdict, 1 negative verdict, 2 degenerate
(functionally determined query or zero-probability selection), 3 proof not
found, 64 usage error, 65 invalid input. All commands are deterministic:
identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from . import io as graph_io
from .graph import GraphError, PartitionedDag, SmDG

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_DEGENERATE = 2
EXIT_NOT_FOUND = 3
EXIT_USAGE = 64
EXIT_INVALID = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _emit(text: str, out: Optional[str], quiet: bool) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        if not quiet:
            print(f"wrote {out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _graph_text(value, fmt: str) -> str:
    return graph_io.to_dot(value) if fmt == "dot" else graph_io.dumps(value)


def _dag_arg(path: str) -> PartitionedDag:
    value = graph_io.graph_from_obj(_read_json(path))
    if not isinstance(value, PartitionedDag):
        raise GraphError(f"{path} holds an smDG where a partitioned DAG was expected")
    return value


def _smdg_arg(path: str) -> SmDG:
    value = graph_io.graph_from_obj(_read_json(path))
    if not isinstance(value, SmDG):
        raise GraphError(f"{path} holds a partitioned DAG where an smDG was expected")
    return value


# --- subcommands -------------------------------------------------------------
# Each command imports the modules it runs, so a process loads only those.


def _cmd_canon(args) -> int:
    from . import canon

    d = _dag_arg(args.graph)
    report = canon.canonicalize(d)
    if args.report:
        steps = [{"op": name, "args": list(params)} for name, params in report.steps]
        _emit(json.dumps(steps, indent=2) + "\n", args.report, args.quiet)
    _emit(_graph_text(report.output, args.format), args.output, args.quiet)
    if args.check and report.output != d:
        return EXIT_NEGATIVE
    return EXIT_OK


def _cmd_project(args) -> int:
    from . import project

    d = _dag_arg(args.graph)
    _emit(_graph_text(project.slp(d), args.format), args.output, args.quiet)
    return EXIT_OK


def _cmd_lift(args) -> int:
    from . import project

    g = _smdg_arg(args.graph)
    try:
        d = project.lift(g)
    except project.NotLiftableError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_NEGATIVE
    _emit(_graph_text(d, args.format), args.output, args.quiet)
    return EXIT_OK


def _cmd_equiv_oad(args) -> int:
    from . import project

    d1, d2 = _dag_arg(args.graph1), _dag_arg(args.graph2)
    equivalent = project.observe_and_do_equivalent(d1, d2)
    if not args.quiet:
        print("equivalent" if equivalent else "not equivalent")
    return EXIT_OK if equivalent else EXIT_NEGATIVE


def _split_names(text: Optional[str]) -> list[str]:
    if not text:
        return []
    return [part for part in text.split(",") if part]


# criterion: (graph type it reads, the name of that input, its function in sep)
_CRITERIA = {
    "d": (PartitionedDag, "a partitioned DAG", "d_separated"),
    "D": (PartitionedDag, "a partitioned DAG", "D_separated"),
    "sm": (SmDG, "an smDG", "sm_separated"),
}


def _cmd_sep(args) -> int:
    from . import sep

    value = graph_io.graph_from_obj(_read_json(args.graph))
    query = sep.SeparationQuery.of(
        _split_names(args.x), _split_names(args.y), _split_names(args.z)
    )
    graph_type, input_name, criterion = _CRITERIA[args.criterion]
    if not isinstance(value, graph_type):
        raise GraphError(f"criterion {args.criterion} needs {input_name} input")
    verdict = getattr(sep, criterion)(value, query)
    if isinstance(verdict, bool):  # d_separated answers yes or no
        verdict = sep.Verdict.SEPARATED if verdict else sep.Verdict.CONNECTED
    print(verdict.value)
    return {
        sep.Verdict.SEPARATED: EXIT_OK,
        sep.Verdict.CONNECTED: EXIT_NEGATIVE,
        sep.Verdict.DETERMINED: EXIT_DEGENERATE,
    }[verdict]


def _cmd_eval(args) -> int:
    from . import model

    m = model.model_from_obj(_read_json(args.model))
    q = model.prob_table_from_obj(_read_json(args.q)) if args.q else None
    try:
        if args.mode == "smi":
            if q is None:
                raise model.ModelError("eval smi needs --q")
            res = model.smi_distribution(m, q)
            if res.status != "ok":
                print("selected-out: the intervention removes all data", file=sys.stderr)
                return EXIT_DEGENERATE
            payload = {"q": model.prob_table_to_obj(res.q)}
        else:
            # smo is ood with nothing intervened
            z = _split_names(args.z) if args.mode == "ood" else []
            res = model.observe_or_do_distribution(m, z, q)
            payload = {}
        payload["distribution"] = model.prob_table_to_obj(res.dist)
        payload["selection_probability"] = str(res.selection_probability)
    except model.SelectedOutError as exc:
        print(f"selected-out: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output, args.quiet)
    return EXIT_OK


def _cmd_equiv_obs(args) -> int:
    from . import rewrite

    g1, g2 = _smdg_arg(args.graph1), _smdg_arg(args.graph2)
    res = rewrite.search_equivalence(g1, g2, depth=args.depth)
    if res.proof is None:
        print(res.diagnostic, file=sys.stderr)
        return EXIT_NOT_FOUND
    steps = [
        {"rule": s.rule, "params": _jsonable(s.params), "direction": s.direction}
        for s in res.proof.steps
    ]
    _emit(json.dumps(steps, indent=2) + "\n", args.proof, args.quiet)
    return EXIT_OK


def _jsonable(value):
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    return value


def _cmd_oracle_support(args) -> int:
    from . import oracle

    structure, query_obj = _read_json(args.structure), _read_json(args.query)

    def points(key):
        return [
            oracle.SupportPoint.of(entry["assignment"], entry.get("intervened", ()))
            for entry in query_obj.get(key, [])
        ]

    try:
        fs = oracle.FactorizationStructure.of(structure["variables"], structure["factors"])
        query = oracle.SupportQuery.of(points("required"), points("forbidden"))
    except KeyError as exc:
        raise oracle.OracleError(f"malformed oracle input: missing key {exc}") from exc
    except (TypeError, AttributeError) as exc:
        raise oracle.OracleError(f"malformed oracle input: {exc}") from exc
    res = oracle.support_feasible(fs, query)
    if res.feasible:
        payload = {
            "feasible": True,
            "positive_cells": sorted(
                [name, list(key)] for name, key in res.witness
            ),
        }
    else:
        payload = {
            "feasible": False,
            "certificate": {
                "assignment": dict(res.certificate.assignment),
                "intervened": sorted(res.certificate.intervened),
            },
        }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output, args.quiet)
    return EXIT_OK if res.feasible else EXIT_NEGATIVE


def _visible(d) -> frozenset:
    return d.visibles if isinstance(d, SmDG) else d.visible


def _visibles_of(d, names: list[str], flag: str) -> list[str]:
    """names, refused unless each is a visible vertex of d."""
    outside = sorted(set(names) - _visible(d))
    if outside:
        raise GraphError(f"{flag} names {outside}, which are not visible vertices of the graph")
    return names


def _default_target(d, kind: str) -> list:
    """The first visible edge between two vertices (kind "edge") or the first
    marginal or selected face of either graph type; an smDG's self-loops are
    not edges to witness. A DAG's faces are the visible children (parents)
    of its marginalized (selected) vertices in sorted order; an smDG's are
    its sorted maximal faces."""
    if kind == "edge":
        visible = _visible(d)
        found = [
            (a, b) for a, b in (d.sorted_edges() if isinstance(d, SmDG) else d.edges)
            if a != b and a in visible and b in visible
        ]
    elif isinstance(d, SmDG):
        found = (d.marginal_system if kind == "marginal" else d.selected_system).sorted_faces()
    elif kind == "marginal":
        found = [sorted(d.children_of(m) & d.visible) for m in sorted(d.marginalized)]
    else:
        found = [sorted(d.parents_of(s) & d.visible) for s in sorted(d.selected)]
    for target in found:
        if target:
            return list(target)
    if kind == "edge":
        raise GraphError("no visible edge to witness; pass --pair a,b")
    raise GraphError(f"no {kind} face to witness; pass --face v1,v2")


# Each witness kind maps (its oracle builder, graph, args) to its models,
# keyed by payload name, and the expected data they realize.

def _self_loop_witness(build, d, args):
    if not isinstance(d, PartitionedDag):
        raise GraphError("self-loop witnesses need a partitioned DAG input")
    return {"model": build(d)}, {
        "natural_zero_given_selection": "0",
        "natural_zero_given_selection_do_0": "0",
        "natural_zero_given_selection_do_1": "1/4",
    }


def _edge_witness(build, d, args):
    pair = _split_names(args.pair)
    if not pair:
        a, b = _default_target(d, "edge")
    elif len(pair) != 2 or pair[0] == pair[1]:
        raise GraphError(f"--pair needs two distinct visibles tail,head, got {args.pair!r}")
    else:
        a, b = _visibles_of(d, pair, "--pair")
    plain, special = build(a, b)
    return {"plain_model": plain, "special_model": special}, {
        "tail": a,
        "head": b,
        "do_tail_copies": True,
        "do_head_leaves_tail_zero": True,
    }


def _face_witness(kind: str, selected_distribution: str):
    def witness(build, d, args):
        face = _visibles_of(d, _split_names(args.face), "--face") or _default_target(d, kind)
        return {"model": build(face)}, {
            "face": sorted(set(face)),
            "selected_distribution": selected_distribution,
        }

    return witness


# kind: (its builder's name in oracle, witness)
_WITNESSES = {
    "self-loop": ("witness_self_loop", _self_loop_witness),
    "edge": ("witness_directed_edge", _edge_witness),
    "marginal": ("witness_marginal_face", _face_witness(
        "marginal",
        "half all-zero, half all-one; marginals invariant under interventions on members",
    )),
    "selected": ("witness_selected_face", _face_witness(
        "selected",
        "uniform over even-parity assignments under independent fair interventions",
    )),
}


def _cmd_oracle_witness(args) -> int:
    from . import model, oracle

    d = graph_io.graph_from_obj(_read_json(args.graph))
    builder, witness = _WITNESSES[args.kind]
    models, expected = witness(getattr(oracle, builder), d, args)
    payload = {key: model.model_to_obj(m) for key, m in models.items()}
    expected = {"kind": args.kind, **expected}
    if args.expected:
        _emit(json.dumps(expected, indent=2, sort_keys=True) + "\n", args.expected, args.quiet)
    else:
        payload["expected"] = expected
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output, args.quiet)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    from . import enumeration

    if args.kind == "smdgs":
        bounds = None if args.max_edges is None else enumeration.SmdgBounds(args.max_edges)
        stream = enumeration.enumerate_smdgs(
            args.n_visible, bounds, liftable_only=args.liftable_only
        )
        to_obj = graph_io.smdg_to_obj
    else:
        stream = enumeration.enumerate_partitioned_dags(
            args.n_visible, args.n_marginalized, args.n_selected
        )
        to_obj = graph_io.dag_to_obj
    try:
        for value in stream:
            sys.stdout.write(json.dumps(to_obj(value), sort_keys=True) + "\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`| head`): stop quietly, and point stdout at
        # /dev/null so the interpreter's final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="smdg", description=__doc__)
    parser.add_argument("--format", choices=["json", "dot"], default="json")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonicalize a partitioned DAG")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--report", help="write the rewrite steps to this path")
    p.add_argument("--check", action="store_true",
                   help="exit 1 when the input is not already canonical")
    p.set_defaults(fn=_cmd_canon)

    p = sub.add_parser("project", help="selected-latent projection of a DAG")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("lift", help="canonical DAG of a liftable smDG")
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("equiv-oad", help="interventional equivalence of two DAGs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(fn=_cmd_equiv_oad)

    p = sub.add_parser("sep", help="separation verdicts")
    p.add_argument("graph")
    p.add_argument("--criterion", choices=list(_CRITERIA), required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="")
    p.set_defaults(fn=_cmd_sep)

    p = sub.add_parser("eval", help="exact selected distributions of a model")
    p.add_argument("mode", choices=["smo", "smi", "ood"])
    p.add_argument("model")
    p.add_argument("--q", help="intervention distribution (JSON)")
    p.add_argument("--z", default="", help="intervened variables for ood")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("equiv-obs", help="search an observational-equivalence proof")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--depth", type=int, default=5)
    p.add_argument("--proof", help="write the proof steps to this path")
    p.set_defaults(fn=_cmd_equiv_obs)

    p_oracle = sub.add_parser("oracle", help="support decisions and witness models")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p = oracle_sub.add_parser("support")
    p.add_argument("structure")
    p.add_argument("query")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_oracle_support)
    p = oracle_sub.add_parser("witness")
    p.add_argument("kind", choices=list(_WITNESSES))
    p.add_argument("graph")
    p.add_argument("-o", "--output")
    p.add_argument("--expected", help="write the expected data to this path")
    p.add_argument("--pair", help="tail,head for edge witnesses")
    p.add_argument("--face", help="comma-separated face members")
    p.set_defaults(fn=_cmd_oracle_witness)

    p = sub.add_parser("enumerate", help="stream small graphs as NDJSON")
    p.add_argument("kind", choices=["dags", "smdgs"])
    p.add_argument("--n-visible", type=int, required=True)
    p.add_argument("--n-marginalized", type=int, default=1)
    p.add_argument("--n-selected", type=int, default=1)
    p.add_argument("--max-edges", type=int, default=None)
    p.add_argument("--liftable-only", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
