"""JSON and DOT serialization for graphs.

Wire formats:

* partitioned DAG: ``{"vertices": [{"id": "a", "role": "visible"}, ...],
  "edges": [["a", "b"], ...]}``
* smDG: ``{"visibles": [...], "edges": [...], "marginal_faces": [["a","b"],
  ...], "selected_faces": [...]}`` (maximal faces only)

Serialization is deterministic: identical values produce identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _string
from typing import Any, Iterable, Mapping

from .graph import GraphError, PartitionedDag, Role, SmDG


def dag_to_obj(d: PartitionedDag) -> dict[str, Any]:
    return {
        "vertices": [{"id": v, "role": r.value} for v, r in d.roles],
        "edges": [list(e) for e in d.edges],
    }


def _array(value: Any, what: str) -> list:
    """A JSON array. A string is refused: ``"ab"`` would otherwise read as
    the vertices ``a`` and ``b``."""
    if not isinstance(value, list):
        raise GraphError(f"{what} must be an array, got {value!r}")
    return value


def _edges(value: Any) -> list[tuple]:
    edges = [tuple(_array(e, "an edge")) for e in _array(value, "edges")]
    for e in edges:
        if len(e) != 2:
            raise GraphError(f"an edge must have two endpoints, got {list(e)!r}")
    return edges


def _faces(value: Any, what: str) -> list[list]:
    return [_array(f, f"a face in {what}") for f in _array(value, what)]


def dag_from_obj(obj: Mapping[str, Any]) -> PartitionedDag:
    try:
        roles = {}
        for item in obj["vertices"]:
            v, role = item["id"], Role.parse(item["role"])
            if v in roles:
                raise GraphError(f"vertex {v!r} is listed more than once")
            roles[v] = role
        return PartitionedDag.from_roles(roles, _edges(obj["edges"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed DAG object: {exc}") from exc


def smdg_to_obj(g: SmDG) -> dict[str, Any]:
    return {
        "visibles": sorted(g.visibles),
        "edges": [list(e) for e in g.sorted_edges()],
        "marginal_faces": [list(f) for f in g.marginal_system.sorted_faces()],
        "selected_faces": [list(f) for f in g.selected_system.sorted_faces()],
    }


def smdg_from_obj(obj: Mapping[str, Any]) -> SmDG:
    try:
        return SmDG.of(
            _array(obj["visibles"], "visibles"),
            _edges(obj["edges"]),
            _faces(obj.get("marginal_faces", []), "marginal_faces"),
            _faces(obj.get("selected_faces", []), "selected_faces"),
        )
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed smDG object: {exc}") from exc


def graph_from_obj(obj: Mapping[str, Any]) -> PartitionedDag | SmDG:
    """Dispatch on the JSON shape: DAGs carry "vertices", smDGs "visibles"."""
    if not isinstance(obj, Mapping):
        raise GraphError(f"a graph must be a JSON object, got {obj!r}")
    if "vertices" in obj:
        return dag_from_obj(obj)
    if "visibles" in obj:
        return smdg_from_obj(obj)
    raise GraphError("object is neither a partitioned DAG nor an smDG")


def _block(brackets: str, parts: list[str], depth: int) -> str:
    """A JSON array or object of encoded parts at this nesting depth, laid
    out as ``json.dumps(indent=2)`` lays it out."""
    if not parts:
        return brackets
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(parts) + "\n" + "  " * depth + brackets[1]


def _rows(rows: Iterable[Iterable[str]], depth: int) -> str:
    """An array of string arrays; every row of both schemas (an edge or a
    maximal face) is non-empty."""
    pad = ",\n" + "  " * (depth + 2)
    close = "\n" + "  " * (depth + 1) + "]"
    return _block("[]", ["[" + pad[1:] + pad.join(map(_string, row)) + close for row in rows],
                  depth)


def dumps(value: PartitionedDag | SmDG) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"`` of ``dag_to_obj``
    or ``smdg_to_obj``, byte for byte. Each schema is written directly: with
    an indent, ``json`` runs its pure-Python encoder."""
    if isinstance(value, PartitionedDag):
        vertices = [f'{{\n      "id": {_string(v)},\n      "role": "{r.value}"\n    }}'
                    for v, r in value.roles]
        fields = [("edges", _rows(value.edges, 1)), ("vertices", _block("[]", vertices, 1))]
    else:
        fields = [("edges", _rows(value.sorted_edges(), 1)),
                  ("marginal_faces", _rows(value.marginal_system.sorted_faces(), 1)),
                  ("selected_faces", _rows(value.selected_system.sorted_faces(), 1)),
                  ("visibles", _block("[]", [_string(v) for v in sorted(value.visibles)], 1))]
    return _block("{}", [f'"{key}": {text}' for key, text in fields], 0) + "\n"


def loads(text: str) -> PartitionedDag | SmDG:
    return graph_from_obj(json.loads(text))


_ROLE_STYLE = {
    Role.VISIBLE: 'shape=ellipse, color=black, fillcolor=white, style=solid',
    Role.MARGINALIZED: 'shape=ellipse, color=red, fillcolor=grey90, style=filled',
    Role.SELECTED: 'shape=ellipse, color=blue, fillcolor=grey90, style=filled',
}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def dag_to_dot(d: PartitionedDag) -> str:
    lines = ["digraph {"]
    for v, role in d.roles:
        lines.append(f"  {_quote(v)} [{_ROLE_STYLE[role]}];")
    for a, b in d.edges:
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def smdg_to_dot(g: SmDG) -> str:
    """Visible vertices with plain edges, red fan-out hyperedges for marginal
    faces and blue undirected fan-in hyperedges for selected faces."""
    lines = ["digraph {"]
    for v in sorted(g.visibles):
        lines.append(f"  {_quote(v)} [{_ROLE_STYLE[Role.VISIBLE]}];")
    for a, b in g.sorted_edges():
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    for i, face in enumerate(g.marginal_system.sorted_faces()):
        hub = f"__m{i}"
        lines.append(f"  {_quote(hub)} [shape=point, color=red];")
        for v in face:
            lines.append(f"  {_quote(hub)} -> {_quote(v)} [color=red];")
    for i, face in enumerate(g.selected_system.sorted_faces()):
        hub = f"__s{i}"
        lines.append(f"  {_quote(hub)} [shape=point, color=blue];")
        for v in face:
            lines.append(f"  {_quote(v)} -> {_quote(hub)} [color=blue, dir=none];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_dot(value: PartitionedDag | SmDG) -> str:
    return dag_to_dot(value) if isinstance(value, PartitionedDag) else smdg_to_dot(value)
