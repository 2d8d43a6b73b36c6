import json
import subprocess
import sys

import pytest

from smdg import io as graph_io
from smdg.cli import main
from smdg.graph import SmDG
from smdg.model import model_loads, smo_distribution
from smdg.project import canonical_graph

import cases
from helpers import (
    UNLIFTABLE,
    assert_cycle_witness,
    chain_names,
    long_chain_smdg,
    python_env,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_canon_check_on_canonical_input(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_io.dumps(cases.canon_example()))
    code, out, _ = run(capsys, "canon", path, "--check")
    assert code == 0
    assert graph_io.loads(out) == cases.canon_example()


def test_canon_check_flags_non_canonical(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_io.dumps(cases.teaser_a()))
    code, out, _ = run(capsys, "canon", path, "--check")
    assert code == 1


def test_canon_report_steps(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_io.dumps(cases.teaser_a()))
    report = tmp_path / "steps.json"
    code, out, _ = run(capsys, "--quiet", "canon", path, "--report", str(report))
    assert code == 0
    steps = json.loads(report.read_text())
    assert any(step["op"] == "to_special" for step in steps)


def test_project_and_lift_round_trip(tmp_path, capsys):
    dag_path = write(tmp_path, "g.json", graph_io.dumps(cases.teaser_a()))
    code, out, _ = run(capsys, "project", dag_path)
    assert code == 0
    assert graph_io.loads(out) == cases.canon_example_slp()
    smdg_path = write(tmp_path, "s.json", out)
    code, lifted, _ = run(capsys, "lift", smdg_path)
    assert code == 0
    lifted_graph = graph_io.loads(lifted)
    code, out2, _ = run(
        capsys, "project", write(tmp_path, "l.json", graph_io.dumps(lifted_graph))
    )
    assert graph_io.loads(out2) == cases.canon_example_slp()


def test_lift_reports_cycle(tmp_path, capsys):
    for i, g in enumerate(UNLIFTABLE):
        path = write(tmp_path, f"g{i}.json", graph_io.dumps(g))
        code, _, err = run(capsys, "lift", path)
        assert code == 1
        (line,) = err.splitlines()
        cycle = tuple(line.split("the cycle ")[1].split(" has ")[0].split(" -> "))
        assert_cycle_witness(cycle, canonical_graph(g).edges, line)


def test_equiv_oad_exit_codes(tmp_path, capsys):
    p1 = write(tmp_path, "a.json", graph_io.dumps(cases.latent_fork()))
    p2 = write(tmp_path, "b.json", graph_io.dumps(cases.latent_chain()))
    p3 = write(tmp_path, "c.json", graph_io.dumps(cases.teaser_a()))
    p4 = write(tmp_path, "d.json", graph_io.dumps(cases.teaser_b()))
    assert run(capsys, "equiv-oad", p1, p2)[0] == 0
    assert run(capsys, "equiv-oad", p3, p4)[0] == 1


def test_sep_exit_codes(tmp_path, capsys):
    from smdg.graph import PartitionedDag

    collider = PartitionedDag.of(visible="abc", edges=[("a", "c"), ("b", "c")])
    path = write(tmp_path, "g.json", graph_io.dumps(collider))
    assert run(capsys, "sep", "--criterion", "d", path, "--x", "a", "--y", "b")[0] == 0
    assert run(
        capsys, "sep", "--criterion", "d", path, "--x", "a", "--y", "b", "--z", "c"
    )[0] == 1
    chain = PartitionedDag.of(visible="abc", edges=[("a", "b"), ("b", "c")])
    path = write(tmp_path, "h.json", graph_io.dumps(chain))
    assert run(
        capsys, "sep", "--criterion", "D", path, "--x", "c", "--y", "b", "--z", "a"
    )[0] == 2
    smdg_path = write(tmp_path, "s.json", graph_io.dumps(cases.canon_example_slp()))
    code, out, _ = run(
        capsys, "sep", "--criterion", "sm", smdg_path, "--x", "b", "--y", "d", "--z", "c"
    )
    assert code == 0 and out.strip() == "separated"


@pytest.mark.parametrize("criterion, named", [("d", "q1"), ("D", "q2"), ("sm", "q2")])
def test_sep_names_the_unknown_vertex(tmp_path, capsys, criterion, named):
    """With unknown ids in both x and z, d names the sorted-first of all of
    them and D and sm the sorted-first of z's."""
    from smdg.graph import PartitionedDag

    graph = (SmDG.of("abc", edges=[("a", "b")]) if criterion == "sm"
             else PartitionedDag.of(visible="abc", edges=[("a", "b")]))
    path = write(tmp_path, "g.json", graph_io.dumps(graph))
    code, out, err = run(capsys, "sep", "--criterion", criterion, path,
                         "--x", "q7,q1,a", "--y", "b", "--z", "q8,q2,q5")
    assert (code, out, err) == (65, "", f"error: vertex {named!r} is not in the graph\n")


def test_eval_smo(tmp_path, capsys):
    from test_model import joint_selector_model

    model = joint_selector_model()
    from smdg.model import model_dumps

    path = write(tmp_path, "m.json", model_dumps(model))
    code, out, _ = run(capsys, "eval", "smo", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["selection_probability"] == "3/8"
    assert payload["distribution"]["table"]["0,0,1"] == "1/3"


def test_eval_smi_needs_q(tmp_path, capsys):
    from test_model import joint_selector_model
    from smdg.model import model_dumps

    path = write(tmp_path, "m.json", model_dumps(joint_selector_model()))
    code, _, err = run(capsys, "eval", "smi", path)
    assert code == 65


def test_eval_ood_with_q(tmp_path, capsys):
    from test_model import joint_selector_model
    from smdg.model import model_dumps

    path = write(tmp_path, "m.json", model_dumps(joint_selector_model()))
    q = {"variables": ["a"], "table": {"0": "1/2", "1": "1/2"}}
    q_path = write(tmp_path, "q.json", json.dumps(q))
    code, out, _ = run(capsys, "eval", "ood", path, "--z", "a", "--q", q_path)
    assert code == 0


@pytest.mark.parametrize("argv, message", [
    (["smo", "{model}", "--q", "{q}"], "eval smo does not read --q"),
    (["ood", "{model}", "--q", "{q}"], "eval ood reads --q only with --z"),
    (["smo", "{model}", "--z", "a"], "eval smo does not read --z"),
    (["smi", "{model}", "--z", "a", "--q", "{q}"], "eval smi does not read --z"),
], ids=["smo_q", "ood_q_without_z", "smo_z", "smi_z"])
def test_eval_refuses_a_flag_the_mode_does_not_read(tmp_path, capsys, argv, message):
    """The q weighs a key negatively, which smi and ood --z refuse; a mode
    that would ignore the flag names it instead of passing the q unchecked."""
    from test_model import joint_selector_model
    from smdg.model import model_dumps

    paths = {
        "model": write(tmp_path, "m.json", model_dumps(joint_selector_model())),
        "q": write(tmp_path, "q.json", json.dumps(
            {"variables": ["a", "b", "c"], "table": {"0,0,0": "2", "1,1,1": "-1"}})),
    }
    code, out, err = run(capsys, "eval", *[arg.format(**paths) for arg in argv])
    assert (code, out, err) == (65, "", f"error: {message}\n")


def test_equiv_obs_found_and_not_found(tmp_path, capsys):
    p1 = write(tmp_path, "g1.json", graph_io.dumps(cases.canon_example_slp()))
    p2 = write(tmp_path, "g2.json", graph_io.dumps(cases.chain_face_removed()))
    p3 = write(tmp_path, "g3.json", graph_io.dumps(cases.teaser_b_slp()))
    proof_path = tmp_path / "proof.json"
    code, out, _ = run(capsys, "equiv-obs", p1, p2, "--depth", "4",
                       "--proof", str(proof_path))
    assert code == 0
    steps = json.loads(proof_path.read_text())
    assert len(steps) == 4
    code, _, err = run(capsys, "equiv-obs", p2, p3, "--depth", "4")
    assert code == 3
    assert "rule_mdag_lift" in err


def test_oracle_support_cli(tmp_path, capsys):
    structure = {
        "variables": {"a": 2, "b": 2, "c": 2},
        "factors": {"e": ["a", "b", "c"]},
    }
    query = {
        "required": [
            {"assignment": {"a": 1, "b": 0, "c": 0}},
            {"assignment": {"a": 0, "b": 1, "c": 0}},
            {"assignment": {"a": 0, "b": 0, "c": 1}},
        ],
        "forbidden": [
            {"assignment": {"a": 0, "b": 0, "c": 0}},
            {"assignment": {"a": 1, "b": 1, "c": 0}},
            {"assignment": {"a": 1, "b": 0, "c": 1}},
            {"assignment": {"a": 0, "b": 1, "c": 1}},
        ],
    }
    s_path = write(tmp_path, "structure.json", json.dumps(structure))
    q_path = write(tmp_path, "query.json", json.dumps(query))
    code, out, _ = run(capsys, "oracle", "support", s_path, q_path)
    assert code == 0 and json.loads(out)["feasible"]

    structure["factors"] = {"e1": ["a", "b"], "e2": ["a", "c"], "e3": ["b", "c"]}
    s_path = write(tmp_path, "structure2.json", json.dumps(structure))
    code, out, _ = run(capsys, "oracle", "support", s_path, q_path)
    assert code == 1
    payload = json.loads(out)
    assert payload["certificate"]["assignment"] == {"a": 0, "b": 0, "c": 0}


def test_oracle_witness_self_loop(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_io.dumps(cases.selfloop_shape()))
    code, out, _ = run(capsys, "oracle", "witness", "self-loop", path)
    assert code == 0
    payload = json.loads(out)
    model = model_loads(json.dumps(payload["model"]))
    assert smo_distribution(model).dist.prob((0,)) == 0


def test_enumerate_ndjson_deterministic(tmp_path, capsys):
    code, out1, _ = run(capsys, "enumerate", "smdgs", "--n-visible", "1")
    code, out2, _ = run(capsys, "enumerate", "smdgs", "--n-visible", "1")
    assert code == 0 and out1 == out2
    lines = [json.loads(line) for line in out1.strip().splitlines()]
    assert len(lines) == 8
    code, out3, _ = run(
        capsys, "enumerate", "smdgs", "--n-visible", "1", "--liftable-only"
    )
    assert len(out3.strip().splitlines()) == 5
    code, out4, _ = run(
        capsys, "enumerate", "dags", "--n-visible", "2",
        "--n-marginalized", "1", "--n-selected", "1",
    )
    assert code == 0
    first = out4.strip().splitlines()[0]
    assert graph_io.graph_from_obj(json.loads(first)) is not None


@pytest.mark.parametrize("argv", [
    ["enumerate", "smdgs", "--n-visible", "-1"],
    ["enumerate", "smdgs", "--n-visible", "9"],
    ["enumerate", "dags", "--n-visible", "9"],
    ["enumerate", "dags", "--n-visible", "2", "--n-marginalized", "-1"],
    ["enumerate", "smdgs", "--n-visible", "2", "--max-edges", "-1"],
    ["equiv-obs", "{g}", "{g}", "--depth", "-3"],
], ids=["smdgs_negative", "smdgs_above_cap", "dags_above_cap", "dags_negative_latents",
        "smdgs_negative_max_edges", "equiv_obs_negative_depth"])
def test_enumerate_counts_out_of_range_exit_65(tmp_path, capsys, argv):
    g = write(tmp_path, "g.json", graph_io.dumps(cases.fork_mdag()))
    code, out, err = run(capsys, *[arg.format(g=g) for arg in argv])
    assert code == 65 and out == "", err
    assert err.startswith("error:") and "Traceback" not in err, err


def test_enumerate_stops_quietly_on_closed_pipe():
    """`smdg enumerate smdgs --n-visible 3 | head -n 1`: the reader leaves
    after one line while the enumeration still has output to write."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "smdg.cli", "enumerate", "smdgs", "--n-visible", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=python_env(),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()
    assert json.loads(first)["visibles"] == ["a", "b", "c"]


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        main(["canon", "--bogus"])
    assert err.value.code == 64


def test_invalid_input_exit_code(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{\"vertices\": 3}")
    code, _, err = run(capsys, "canon", path)
    assert code == 65


def _model_obj():
    from test_model import joint_selector_model
    from smdg.model import model_to_obj

    return model_to_obj(joint_selector_model())


def _without_kernels():
    obj = _model_obj()
    del obj["kernels"]
    return obj


def _without_parents():
    obj = _model_obj()
    del obj["kernels"]["a"]["parents"]
    return obj


def _out_of_domain_row():
    obj = _model_obj()
    table = obj["kernels"]["a"]["table"]
    table["7"] = table.pop("1")
    return obj


def _kernel_parents_as_string():
    obj = _model_obj()
    obj["kernels"]["s"]["parents"] = "".join(obj["kernels"]["s"]["parents"])
    return obj


def _kernel_row_as_string():
    obj = _model_obj()
    table = obj["kernels"]["a"]["table"]
    table["0"] = "10"
    table["1"] = "01"
    return obj


def _fractional_domain_size():
    obj = _model_obj()
    obj["domains"]["a"] = 2.5
    return obj


def _huge_domain_size():
    obj = _model_obj()
    obj["domains"]["a"] = 10**15
    return obj


MALFORMED = {
    "model_without_kernels": (["eval", "smo", "{model}"], _without_kernels, None),
    "kernel_without_parents": (["eval", "smo", "{model}"], _without_parents, None),
    "q_without_table": (
        ["eval", "smi", "{model}", "--q", "{extra}"], _model_obj, {"variables": ["a"]}
    ),
    "q_key_too_short": (
        ["eval", "smi", "{model}", "--q", "{extra}"],
        _model_obj,
        {"variables": ["a", "b", "c"], "table": {"0": "1"}},
    ),
    "structure_without_factors": (
        ["oracle", "support", "{model}", "{extra}"],
        lambda: {"variables": {"a": 2}},
        {"required": [{"assignment": {"a": 1}}]},
    ),
    "row_outside_parent_domain": (["eval", "smo", "{model}"], _out_of_domain_row, None),
    "kernel_parents_as_string": (["eval", "smo", "{model}"], _kernel_parents_as_string, None),
    "kernel_row_as_string": (["eval", "smo", "{model}"], _kernel_row_as_string, None),
    "q_variables_as_string": (
        ["eval", "smi", "{model}", "--q", "{extra}"],
        _model_obj,
        {"variables": "abc", "table": {"0,1,0": "1"}},
    ),
    "fractional_domain_size": (["eval", "smo", "{model}"], _fractional_domain_size, None),
    "huge_domain_size": (["eval", "smo", "{model}"], _huge_domain_size, None),
    "oracle_huge_domain_size": (
        ["oracle", "support", "{model}", "{extra}"],
        lambda: {"variables": {"a": 10**15}, "factors": {"e": ["a"]}},
        {"required": [{"assignment": {"a": 0}}]},
    ),
    "oracle_many_domain_sizes": (
        ["oracle", "support", "{model}", "{extra}"],
        lambda: {"variables": {f"v{i}": 2**16 for i in range(4096)}, "factors": {"e": ["v0"]}},
        {"required": [{"assignment": {f"v{i}": 0 for i in range(4096)}}]},
    ),
    "oracle_bool_domain_size": (
        ["oracle", "support", "{model}", "{extra}"],
        lambda: {"variables": {"a": True}, "factors": {"e": ["a"]}},
        {"required": [{"assignment": {"a": 0}}]},
    ),
    "graph_json_scalar": (["lift", "{model}"], lambda: 5, None),
    "smdg_edge_one_endpoint": (
        ["lift", "{model}"], lambda: {"visibles": ["a"], "edges": [["a"]]}, None
    ),
    "smdg_edge_as_string": (
        ["lift", "{model}"], lambda: {"visibles": ["a", "b"], "edges": ["ab"]}, None
    ),
    "dag_edge_as_string": (
        ["canon", "{model}"],
        lambda: {
            "vertices": [{"id": "a", "role": "visible"}, {"id": "b", "role": "visible"}],
            "edges": ["ab"],
        },
        None,
    ),
    "smdg_face_as_string": (
        ["lift", "{model}"],
        lambda: {"visibles": ["a", "b"], "edges": [], "marginal_faces": ["ab"]},
        None,
    ),
    "smdg_visibles_as_string": (
        ["lift", "{model}"], lambda: {"visibles": "ab", "edges": []}, None
    ),
    "dag_vertex_listed_twice": (
        ["project", "{model}"],
        lambda: {
            "vertices": [
                {"id": "a", "role": "visible"},
                {"id": "a", "role": "selected"},
                {"id": "b", "role": "visible"},
            ],
            "edges": [["b", "a"]],
        },
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_inputs_exit_65(tmp_path, capsys, name):
    argv, make, extra = MALFORMED[name]
    paths = {
        "model": write(tmp_path, "main.json", json.dumps(make())),
        "extra": write(tmp_path, "extra.json", json.dumps(extra)),
    }
    code, _, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 65, err
    assert err.startswith("error:") and "Traceback" not in err, err


@pytest.mark.parametrize("argv, table, key", [
    (["smi", "--q"], {"0,0,0": "2", "1,1,1": "-1"}, (1, 1, 1)),
    (["ood", "--z", "a,b", "--q"], {"0,0": "3/2", "0,1": "-1/4", "1,0": "-1/4"}, (0, 1)),
], ids=["smi", "ood"])
def test_eval_refuses_a_negative_intervention_weight(tmp_path, capsys, argv, table, key):
    from test_model import joint_selector_model
    from smdg.model import model_dumps

    variables = ["a", "b", "c"][:len(next(iter(table)).split(","))]
    model = write(tmp_path, "model.json", model_dumps(joint_selector_model()))
    q = write(tmp_path, "q.json", json.dumps({"variables": variables, "table": table}))
    code, out, err = run(capsys, "eval", argv[0], model, *argv[1:], q)
    assert (code, out, err) == (65, "", f"error: intervention key {key} has a negative weight\n")


@pytest.mark.parametrize("argv", [
    ["edge", "{g}", "--pair", "a,zz"],
    ["edge", "{g}", "--pair", "a"],
    ["edge", "{g}", "--pair", "a,b,c"],
    ["edge", "{g}", "--pair", "a,a"],
    ["marginal", "{g}", "--face", "zz,a"],
    ["selected", "{g}", "--face", "a,s1"],
    ["edge", "{smdg}", "--pair", "b,zz"],
], ids=["pair_outside", "pair_one_name", "pair_three_names", "pair_repeated",
        "marginal_face_outside", "selected_face_non_visible", "smdg_pair_outside"])
def test_oracle_witness_rejects_names_outside_graph(tmp_path, capsys, argv):
    paths = {
        "g": write(tmp_path, "g.json", graph_io.dumps(cases.teaser_a())),
        "smdg": write(tmp_path, "s.json", graph_io.dumps(cases.fork_mdag())),
    }
    code, out, err = run(capsys, "oracle", "witness", *[arg.format(**paths) for arg in argv])
    assert code == 65 and out == "", err
    assert err.startswith("error:") and "Traceback" not in err, err


def test_oracle_witness_named_pair_and_face(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_io.dumps(cases.pairwise_selectors()))
    code, out, _ = run(capsys, "oracle", "witness", "edge", path, "--pair", "b,c")
    assert code == 0
    assert json.loads(out)["expected"]["tail"] == "b"
    code, out, _ = run(capsys, "oracle", "witness", "selected", path, "--face", "c,a")
    assert code == 0
    assert json.loads(out)["expected"]["face"] == ["a", "c"]


@pytest.mark.parametrize("case", [cases.canon_example_slp, cases.chain_face_added])
def test_oracle_witness_default_edge_skips_self_loops(tmp_path, capsys, case):
    """Both graphs have the edges a -> a and b -> a; the self-loop sorts first
    but is no edge between two vertices."""
    path = write(tmp_path, "g.json", graph_io.dumps(case()))
    code, out, err = run(capsys, "oracle", "witness", "edge", path)
    assert code == 0 and err == "", err
    expected = json.loads(out)["expected"]
    assert (expected["tail"], expected["head"]) == ("b", "a")


@pytest.mark.parametrize("kind, case", [
    ("self-loop", cases.selfloop_shape),
    ("edge", cases.teaser_a),
    ("marginal", cases.teaser_a),
    ("selected", cases.canon_example_slp),
])
def test_oracle_witness_expected_file(tmp_path, capsys, kind, case):
    """--expected writes the expected object of the combined payload to its
    own file, and stdout then carries everything but that key."""
    path = write(tmp_path, "g.json", graph_io.dumps(case()))
    code, out, _ = run(capsys, "oracle", "witness", kind, path)
    assert code == 0
    combined = json.loads(out)
    expected_path = tmp_path / "expected.json"
    code, out, err = run(capsys, "oracle", "witness", kind, path, "--expected", str(expected_path))
    assert code == 0 and err == f"wrote {expected_path}\n"
    text = expected_path.read_text()
    assert text == json.dumps(combined["expected"], indent=2, sort_keys=True) + "\n"
    assert json.loads(text)["kind"] == kind
    assert "expected" not in json.loads(out)
    assert json.loads(out) == {k: v for k, v in combined.items() if k != "expected"}


# Three unknown vertices in a set: which one a query checks first depends on
# the hash seed, so the message must name the sorted-first.
SEP_UNKNOWN_Z = (
    ["sep", "{model}", "--criterion", "D", "--x", "a", "--y", "b", "--z", "q1,q2,q3"],
    lambda: {"vertices": [{"id": v, "role": "visible"} for v in "ab"], "edges": [["a", "b"]]},
)


@pytest.mark.parametrize("argv, graph, error", [
    (["project", "{model}"], {
        "vertices": [{"id": v, "role": "visible"} for v in "abc"],
        "edges": [["a", "b"], ["c", "x1"], ["x2", "a"], ["b", "x3"], ["x4", "x5"], ["a", "a"]],
    }, "malformed DAG object: edge ('c', 'x1') has an endpoint outside the graph"),
    (["project", "{model}"], {
        "vertices": [{"id": v, "role": "visible"} for v in "abc"],
        "edges": [["a", "b"], ["b", "b"], ["c", "x1"], ["x2", "a"], ["x4", "x5"]],
    }, "malformed DAG object: self-loop on 'b' is not allowed in a DAG"),
    (["lift", "{model}"], {
        "visibles": ["a", "b", "c"],
        "edges": [["a", "b"], ["c", "x1"], ["x2", "a"], ["b", "x3"], ["x4", "x5"], ["y", "a"]],
    }, "edge ('c', 'x1') has an endpoint outside the graph"),
    (SEP_UNKNOWN_Z[0], SEP_UNKNOWN_Z[1](), "vertex 'q1' is not in the graph"),
], ids=["project_unknown_endpoints", "project_self_loop_first", "lift_unknown_endpoints",
        "sep_unknown_z"])
def test_first_bad_edge_is_named_whatever_the_hash_seed(tmp_path, argv, graph, error):
    """The error names the first bad input (in input order, or sorted order
    for a set), under any PYTHONHASHSEED."""
    path = write(tmp_path, "g.json", json.dumps(graph))
    for seed in ("0", "1", "3"):
        proc = subprocess.run(
            [sys.executable, "-m", "smdg.cli", *[arg.format(model=path) for arg in argv]],
            capture_output=True, text=True, env=python_env(PYTHONHASHSEED=seed), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (65, "", f"error: {error}\n")


def test_error_paths_are_the_same_under_any_hash_seed(tmp_path):
    """Every malformed input, and the sep query naming three unknown
    vertices, gives the same exit code and output bytes under two hash
    seeds."""
    inputs = {**MALFORMED, "sep_unknown_z": (*SEP_UNKNOWN_Z, None)}
    for name, (argv, make, extra) in sorted(inputs.items()):
        paths = {
            "model": write(tmp_path, f"{name}.json", json.dumps(make())),
            "extra": write(tmp_path, f"{name}.extra.json", json.dumps(extra)),
        }
        runs = [
            subprocess.run(
                [sys.executable, "-m", "smdg.cli", *[arg.format(**paths) for arg in argv]],
                capture_output=True, env=python_env(PYTHONHASHSEED=seed), timeout=60,
            )
            for seed in ("0", "1")
        ]
        results = [(proc.returncode, proc.stdout, proc.stderr) for proc in runs]
        assert results[0] == results[1], (name, results)


@pytest.mark.parametrize("kind, visibles, faces", [
    ("marginal", "am", {"marginal_faces": [("a", "m")]}),
    ("selected", "as", {"selected_faces": [("a", "s")]}),
    ("selected", ["a", "u⟨a⟩"], {"selected_faces": [("a", "u⟨a⟩")]}),
])
def test_oracle_face_witness_with_clashing_member(tmp_path, capsys, kind, visibles, faces):
    g = SmDG.of(visibles, **faces)
    path = write(tmp_path, "g.json", graph_io.dumps(g))
    code, out, err = run(capsys, "oracle", "witness", kind, path)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["expected"]["face"] == sorted(visibles)
    model = model_loads(json.dumps(payload["model"]))
    assert model.dag.visible == set(visibles)


def test_dot_output(tmp_path, capsys):
    path = write(tmp_path, "g.json", graph_io.dumps(cases.latent_fork()))
    code, out, _ = run(capsys, "--format", "dot", "project", path)
    assert code == 0 and out.startswith("digraph")


@pytest.mark.parametrize("argv, expected_code", [
    (["project", "{dag}"], 0),
    (["canon", "{dag}", "--check"], 0),
    (["lift", "{smdg}"], 0),
    (["sep", "{smdg}", "--criterion", "sm", "--x", "v0000", "--y", "v1499", "--z", "v0750"], 0),
    (["sep", "{smdg}", "--criterion", "sm", "--x", "v0000", "--y", "v1499"], 1),
], ids=["project", "canon", "lift", "sep_separated", "sep_connected"])
def test_long_chain_commands(tmp_path, argv, expected_code):
    """A 1,500-visible chain is valid input: each command gives its verdict."""
    names = chain_names(1500)
    dag = {
        "vertices": [{"id": v, "role": "visible"} for v in names],
        "edges": [list(e) for e in zip(names, names[1:])],
    }
    paths = {
        "dag": write(tmp_path, "dag.json", json.dumps(dag)),
        "smdg": write(tmp_path, "smdg.json", graph_io.dumps(long_chain_smdg(1500))),
    }
    proc = subprocess.run(
        [sys.executable, "-m", "smdg.cli", *[arg.format(**paths) for arg in argv]],
        capture_output=True, text=True, env=python_env(), timeout=120,
    )
    assert proc.returncode == expected_code, proc.stderr
    assert "Traceback" not in proc.stderr


# Modules that no command loads: dataclasses, and inspect, which it imports.
_UNLOADED = ("dataclasses", "inspect")

# Runs `smdg.cli.main` on the arguments after the report path, then writes the
# names of the smdg modules it loaded, and of those in _UNLOADED that it
# loaded, to that path; stdout stays the command's.
REPORT_MODULES = f"""
import sys
from smdg.cli import main
code = main(sys.argv[2:])
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.write(" ".join(sorted(m for m in sys.modules
                             if m.split(".")[0] == "smdg" or m in {_UNLOADED!r})))
sys.exit(code)
"""

_PROJECT = {"graph", "io", "canon", "project"}
_MODEL = {"graph", "io", "model", "sumproduct"}


@pytest.mark.parametrize("argv, expected_code, modules", [
    (["canon", "{dag}"], 0, {"graph", "io", "canon"}),
    (["project", "{dag}"], 0, _PROJECT),
    (["lift", "{smdg}"], 0, _PROJECT),
    (["equiv-oad", "{dag}", "{dag}"], 0, _PROJECT),
    (["sep", "{smdg}", "--criterion", "sm", "--x", "b", "--y", "c"], 1, _PROJECT | {"sep"}),
    (["sep", "{dag}", "--criterion", "d", "--x", "b", "--y", "c"], 1, _PROJECT | {"sep"}),
    (["eval", "smi", "{model}", "--q", "{q}"], 0, _MODEL),
    (["equiv-obs", "{smdg}", "{smdg}", "--depth", "2"], 0, _PROJECT | {"rewrite"}),
    (["oracle", "witness", "marginal", "{smdg}"], 0, _MODEL | {"canon", "oracle"}),
    (["enumerate", "smdgs", "--n-visible", "1"], 0, _PROJECT | {"enumeration"}),
], ids=["canon", "project", "lift", "equiv_oad", "sep_sm", "sep_d", "eval_smi", "equiv_obs",
        "oracle_witness", "enumerate"])
def test_each_command_loads_only_its_modules(tmp_path, argv, expected_code, modules):
    from test_model import joint_selector_model
    from smdg.model import model_dumps, prob_table_to_obj, product_intervention, uniform

    model = joint_selector_model()
    q = product_intervention(model, {v: uniform((0, 1)) for v in "abc"})
    paths = {
        "dag": write(tmp_path, "dag.json", graph_io.dumps(cases.latent_fork())),
        "smdg": write(tmp_path, "smdg.json", graph_io.dumps(cases.fork_mdag())),
        "model": write(tmp_path, "model.json", model_dumps(model)),
        "q": write(tmp_path, "q.json", json.dumps(prob_table_to_obj(q))),
    }
    argv = [arg.format(**paths) for arg in argv]
    report = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", REPORT_MODULES, str(report), *argv],
        capture_output=True, text=True, env=python_env(), timeout=120,
    )
    assert proc.returncode == expected_code, proc.stderr
    loaded = set(report.read_text(encoding="utf-8").split())
    assert not loaded & set(_UNLOADED), f"{argv[0]} loads {sorted(loaded & set(_UNLOADED))}"
    assert loaded == {"smdg", "smdg.cli"} | {f"smdg.{m}" for m in modules}
