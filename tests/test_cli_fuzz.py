"""Mutated JSON inputs to every subcommand end in a defined exit code.

Each example takes valid inputs for one command, mutates one of them (drops
a key or list item, or puts a scalar, a string, null or a nested list in
place of a value) and runs the command in process. The command may accept
or refuse the input, but it must return 0, 1, 2, 3 or 65 and raise nothing.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from smdg import io as graph_io
from smdg.cli import main
from smdg.model import model_to_obj

import cases
from test_model import joint_selector_model

INPUTS = {
    "dag": graph_io.dag_to_obj(cases.teaser_a()),
    "dag2": graph_io.dag_to_obj(cases.latent_chain()),
    "smdg": graph_io.smdg_to_obj(cases.fork_mdag()),
    "smdg2": graph_io.smdg_to_obj(cases.canon_example_slp()),
    "model": model_to_obj(joint_selector_model()),
    "q": {"variables": ["a", "b", "c"], "table": {"0,1,0": "1/2", "1,0,0": "1/2"}},
    "qa": {"variables": ["a"], "table": {"0": "1/2", "1": "1/2"}},
    "structure": {"variables": {"a": 2, "b": 2, "c": 2}, "factors": {"e": ["a", "b", "c"]}},
    "query": {
        "required": [{"assignment": {"a": 1, "b": 0, "c": 0}, "intervened": ["a"]}],
        "forbidden": [{"assignment": {"a": 0, "b": 0, "c": 0}}],
    },
}

COMMANDS = [
    ["canon", "{dag}", "--report", "{out}"],
    ["--format", "dot", "project", "{dag}"],
    ["lift", "{smdg}"],
    ["equiv-oad", "{dag}", "{dag2}"],
    ["sep", "{dag}", "--criterion", "d", "--x", "a", "--y", "c", "--z", "b"],
    ["sep", "{dag}", "--criterion", "D", "--x", "a", "--y", "d"],
    ["sep", "{smdg2}", "--criterion", "sm", "--x", "a", "--y", "d", "--z", "b"],
    ["eval", "smo", "{model}"],
    ["eval", "smi", "{model}", "--q", "{q}"],
    ["eval", "ood", "{model}", "--z", "a", "--q", "{qa}"],
    ["equiv-obs", "{smdg}", "{smdg}", "--depth", "1"],
    ["oracle", "support", "{structure}", "{query}"],
    ["oracle", "witness", "self-loop", "{dag}"],
    ["oracle", "witness", "edge", "{dag}"],
    ["oracle", "witness", "marginal", "{smdg2}"],
    ["oracle", "witness", "selected", "{dag}"],
]

REPLACEMENTS = st.one_of(
    st.integers(-2, 3),
    st.sampled_from(["", "a", "ab", "0,1", "1/2", "visible"]),
    st.none(),
    st.just([["a", 0], [[]]]),
)


@st.composite
def mutated(draw, value):
    """value with one part removed or replaced."""
    if isinstance(value, (dict, list)) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict) else range(len(value))))
        out = value.copy()
        if draw(st.booleans()):
            del out[key]
        else:
            out[key] = draw(mutated(value[key]))
        return out
    return draw(REPLACEMENTS)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_mutated_inputs_exit_cleanly(tmp_path_factory, data):
    argv = data.draw(st.sampled_from(COMMANDS))
    names = [arg[1:-1] for arg in argv if arg[1:-1] in INPUTS]
    target = data.draw(st.sampled_from(names))
    tmp = tmp_path_factory.getbasetemp()
    paths = {"out": str(tmp / "out.json")}
    for name in names:
        value = data.draw(mutated(INPUTS[name])) if name == target else INPUTS[name]
        paths[name] = str(tmp / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(value, fh)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--quiet", *[arg.format(**paths) for arg in argv]])
    assert code in (0, 1, 2, 3, 65), (argv, code)
