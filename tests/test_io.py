import json

import pytest
from hypothesis import given, strategies as st

from smdg import io as graph_io
from smdg.enumeration import enumerate_partitioned_dags, enumerate_smdgs
from smdg.graph import GraphError, PartitionedDag, Role, SmDG

import cases


@given(st.data())
def test_dag_json_round_trip(data):
    n = data.draw(st.integers(1, 5))
    names = [f"x{i}" for i in range(n)]
    roles = data.draw(st.lists(st.sampled_from(list(Role)), min_size=n, max_size=n))
    edges = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if data.draw(st.booleans())
    ]
    d = PartitionedDag.from_roles(dict(zip(names, roles)), edges)
    text = graph_io.dumps(d)
    assert graph_io.loads(text) == d
    assert graph_io.dumps(graph_io.loads(text)) == text


def test_smdg_json_round_trip():
    for make in (cases.canon_example_slp, cases.teaser_b_slp, cases.fork_mdag):
        g = make()
        text = graph_io.dumps(g)
        assert graph_io.loads(text) == g
        assert graph_io.dumps(graph_io.loads(text)) == text


def test_dot_export_mentions_all_parts():
    dot = graph_io.to_dot(cases.canon_example())
    assert "m1" in dot and "s1" in dot and "->" in dot
    dot = graph_io.to_dot(cases.canon_example_slp())
    assert "color=red" in dot and "color=blue" in dot


def test_malformed_object_raises():
    with pytest.raises(GraphError):
        graph_io.graph_from_obj({"nothing": 1})
    with pytest.raises(GraphError):
        graph_io.dag_from_obj({"vertices": [{"id": "a", "role": "nope"}], "edges": []})


@pytest.mark.parametrize("second_role", ["selected", "visible"])
def test_vertex_listed_twice_raises(second_role):
    obj = {
        "vertices": [
            {"id": "a", "role": "visible"},
            {"id": "a", "role": second_role},
            {"id": "b", "role": "visible"},
        ],
        "edges": [["b", "a"]],
    }
    with pytest.raises(GraphError, match="vertex 'a' is listed more than once"):
        graph_io.dag_from_obj(obj)


def _json_dumps(value) -> str:
    obj = (graph_io.dag_to_obj(value) if isinstance(value, PartitionedDag)
           else graph_io.smdg_to_obj(value))
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("graphs", [
    lambda: enumerate_smdgs(3),
    lambda: enumerate_partitioned_dags(2, 1, 1, exogenous_terminal_only=False),
    lambda: [
        SmDG.of(["é", "s⟨a·b⟩", "\U0001F600", 'q"\\', "\t"], [("é", "é"), ("\t", "é")],
                [["é", "s⟨a·b⟩"]], [["\U0001F600"], ['q"\\', "é"]]),
        SmDG.of([]),
        PartitionedDag.of(["é", "\U0001F600"], ["m⟨a⟩"], ['s"\\'],
                          [("m⟨a⟩", "é"), ("é", 's"\\'), ("\U0001F600", 's"\\')]),
        PartitionedDag.of(),
    ],
], ids=["smdgs_3", "dags_2_1_1_all_shapes", "non_ascii"])
def test_dumps_writes_the_bytes_of_the_json_encoder(graphs):
    for g in graphs():
        assert graph_io.dumps(g) == _json_dumps(g), g
