"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next item starts only
after the previous one has finished and been checked. ``setup`` builds the
inputs from the seed; ``epoch`` yields one callable per item, in a fixed
order, and the run repeats epochs until its time is up. Every item checks
its own invariants and raises ``CheckFailed`` when one does not hold.

Items record work counts and output text into a ``Record``; two epochs of
the same seed must give equal records.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import partial

import inputs


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


class Record:
    """Exact work counts of one epoch and a digest over its outputs, hashed
    as they arrive so that memory does not grow with the epochs a run
    completes."""

    def __init__(self):
        self.counts = Counter()
        self.items = 0
        self._digest = hashlib.sha256()

    def output(self, text):
        self.items += 1
        self._digest.update(text.encode("utf-8") + b"\n")

    def summary(self):
        return dict(sorted(self.counts.items())), self._digest.hexdigest()


CANON_STEPS = (
    "terminalize", "exogenize", "merge_marginalized", "merge_selected",
    "split_m_to_s", "to_special", "remove_vertex",
)


class Sweep:
    """Stream every 3-visible smDG with at most three edges; check the
    criterion-4 liftability identity on each, and on a seeded 15% of the
    liftable ones lift and run the criterion-5 query family through both
    separation criteria."""

    name = "sweep"
    tail_percentile = 99
    max_edges = 3
    sample = 0.15

    def setup(self, lib, seed, t):
        self.lib, self.seed = lib, seed
        self.queries = inputs.separation_queries(lib, ["a", "b", "c"])

    def epoch(self, t, rec):
        E = self.lib.enumeration
        pick = random.Random(f"sweep-{self.seed}")
        stream = E.enumerate_smdgs(3, E.SmdgBounds(max_edges=self.max_edges))
        for g in t.iterate("enumeration.enumerate_smdgs", stream):
            yield partial(self.item, t, rec, g, pick.random() < self.sample)

    def item(self, t, rec, g, sampled):
        P, S = self.lib.project, self.lib.sep
        liftable = t.call("project.is_liftable", P.is_liftable, g)
        acyclic = t.call("project.canonical_graph", P.canonical_graph, g).is_acyclic
        check(liftable == acyclic, "is_liftable disagrees with canonical_graph acyclicity")
        rec.counts["graphs"] += 1
        out = "L" if liftable else "-"
        if liftable:
            rec.counts["liftable"] += 1
        if liftable and sampled:
            rec.counts["lifted"] += 1
            d = t.call("project.lift", P.lift, g)
            for q in self.queries:
                lhs = t.call("sep.sm_separated", S.sm_separated, g, q)
                rhs = t.call("sep.D_separated", S.D_separated, d,
                             S.SeparationQuery(q.x, q.y, q.z | d.selected))
                check(lhs == rhs, f"sm verdict {lhs.value} != D verdict {rhs.value}")
                rec.counts["queries"] += 1
                rec.counts["verdict." + lhs.value] += 1
                out += lhs.value[0]
        rec.output(out)


class Oneshot:
    """One random non-canonical partitioned DAG per item, each used once
    inside the item: canonicalize, project, lift, one separation query, one
    exact model and one equivalence search."""

    name = "oneshot"
    tail_percentile = 99
    pool = 2048

    def setup(self, lib, seed, t):
        self.lib = lib
        rng = random.Random(f"oneshot-{seed}")
        self.specs = [inputs.dag_spec(rng) for _ in range(self.pool)]

    def epoch(self, t, rec):
        for spec in self.specs:
            yield partial(self.item, t, rec, spec)

    def item(self, t, rec, spec):
        L = self.lib
        C, P, S, M = L.canon, L.project, L.sep, L.model
        vis, mar, sel, edges, (x, y, z), model_seed = spec
        d = t.call("graph.partitioned_dag_of", L.graph.PartitionedDag.of, vis, mar, sel, edges)

        report = t.call("canon.canonicalize", C.canonicalize, d)
        out = report.output
        check(t.call("canon.replay", report.replay) == out, "replay() differs from the output")
        check(t.call("canon.is_canonical", C.is_canonical, out), "output is not canonical")
        for name, _ in report.steps:
            rec.counts["canon.steps." + name] += 1
        if has_duplicate_special_pair(out):
            rec.counts["canon.duplicate_special_pairs"] += 1

        g = t.call("project.slp", P.slp, out)
        check(t.call("project.slp", P.slp, d) == g, "slp(output) != slp(input)")
        lifted = t.call("project.lift", P.lift, g)
        check(t.call("project.slp", P.slp, lifted) == g, "slp(lift(g)) != g")

        q = S.SeparationQuery.of([x], [y], z)
        verdict = t.call("sep.sm_separated", S.sm_separated, g, q)
        lifted_verdict = t.call("sep.D_separated", S.D_separated, lifted,
                                S.SeparationQuery(q.x, q.y, q.z | lifted.selected))
        check(verdict == lifted_verdict,
              f"sm verdict {verdict.value} != D verdict on lift {lifted_verdict.value}")
        rec.counts["verdict." + verdict.value] += 1

        rng = random.Random(model_seed)
        model = inputs.random_model(L, d, rng)
        dist = t.call("model.smo_distribution", M.smo_distribution, model).dist
        rec.counts["model.table_entries"] += len(dist.table)
        d_verdict = t.call("sep.D_separated", S.D_separated, d,
                           S.SeparationQuery(q.x, q.y, q.z | d.selected))
        if d_verdict is S.Verdict.SEPARATED:
            rec.counts["model.independence_checks"] += 1
            check(t.call("model.conditionally_independent", M.conditionally_independent,
                         dist, [x], [y], list(z)),
                  "D-separated pair is dependent in the model")

        neighbour = inputs.one_rule_neighbour(L, g, rng, t)
        if neighbour == g:
            rec.counts["rewrite.no_rule_applies"] += 1
        res = t.call("rewrite.search_equivalence", L.rewrite.search_equivalence,
                     g, neighbour, depth=2)
        check(res.found, "no proof between an smDG and its one-rule neighbour")
        rec.counts["rewrite.search.found"] += 1
        rec.counts["items"] += 1

        rules = ",".join(s.rule + ":" + s.direction for s in res.proof.steps)
        rec.output(
            t.call("io.dumps", L.io.dumps, out)
            + f"{verdict.value} {d_verdict.value} {rules} {dist.table!r}"
        )


def has_duplicate_special_pair(d):
    """Whether two special paths a -> s <- m -> b share their (a, b)."""
    pairs = []
    for m in d.marginalized:
        for s in d.children_of(m) & d.selected:
            for a in d.parents_of(s) & d.visible:
                for b in d.children_of(m) & d.visible:
                    pairs.append((a, b))
    return len(pairs) != len(set(pairs))


class TransportEval:
    """Seeded models for all eight transport shapes, interleaved; each item
    transports one model and compares its exact selected observational and
    five-point interventional tables before and after."""

    name = "transport_eval"
    tail_percentile = 90
    models_per_shape = 6

    def setup(self, lib, seed, t):
        self.lib = lib
        self.entries = []
        for index in range(self.models_per_shape):
            for shape in sorted(inputs.SHAPES):
                model, move = inputs.shape_model(lib, shape, index, seed)
                self.entries.append((shape, model, move, inputs.intervention_grid(lib, model)))

    def epoch(self, t, rec):
        for entry in self.entries:
            yield partial(t.call, "transport.shape." + entry[0], self.item, t, rec, *entry)

    def item(self, t, rec, shape, model, move, grid):
        M = self.lib.model
        moved = t.call("transport.transport", self.lib.transport.transport, model, move)
        before = t.call("model.smo_distribution", M.smo_distribution, model)
        after = t.call("model.smo_distribution", M.smo_distribution, moved)
        check(before.dist == after.dist, f"{shape}: smo changed under transport")
        rec.counts["model.table_entries"] += 2 * len(before.dist.table)
        out = [shape, repr(before.dist.table)]
        for q in grid:
            r1 = t.call("model.smi_distribution", M.smi_distribution, model, q)
            r2 = t.call("model.smi_distribution", M.smi_distribution, moved, q)
            check(r1.status == r2.status and r1.dist == r2.dist,
                  f"{shape}: smi changed under transport")
            rec.counts["model.smi.q_cells"] += 2 * len(q.table)
            if r1.status == "ok":
                rec.counts["model.table_entries"] += 2 * len(r1.dist.table)
            else:
                rec.counts["model.smi.selected_out"] += 2
            out.append(r1.status + repr(r1.dist.table if r1.dist else None))
        rec.counts["items." + shape] += 1
        rec.output(" ".join(out))


CLI_MAIN = "import sys; from smdg.cli import main; sys.exit(main())"
CLI_COMMANDS = ("canon", "project", "lift", "sep", "eval", "equiv-obs")


class Cli:
    """A fixed mix of ``smdg`` commands, one child process at a time, on
    input files written during set-up. Each child's exit code and stdout
    bytes must equal those of the same command run in-process through
    ``cli.main``."""

    name = "cli"
    tail_percentile = 90
    input_sets = 12

    def __init__(self, root, workdir):
        self.root, self.workdir = root, workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONIOENCODING="utf-8")

    def setup(self, lib, seed, t):
        self.lib = lib
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = random.Random(f"cli-{seed}")
        self.commands = []  # (command name, argv, expected exit code, expected stdout)
        for i in range(self.input_sets):
            self.commands.extend(self._input_set(lib, rng, i, t))

    def _write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def _input_set(self, lib, rng, i, t):
        M = lib.model
        vis, mar, sel, edges, (x, y, z), model_seed = inputs.dag_spec(rng)
        d = lib.graph.PartitionedDag.of(vis, mar, sel, edges)
        g = lib.project.slp(d)
        h = inputs.one_rule_neighbour(lib, g, random.Random(model_seed), t)
        model = inputs.random_model(lib, d, random.Random(model_seed))
        q = M.product_intervention(model, {v: M.uniform((0, 1)) for v in vis})

        dag_file = self._write(f"dag{i}.json", lib.io.dumps(d))
        smdg_file = self._write(f"smdg{i}.json", lib.io.dumps(g))
        nb_file = self._write(f"neighbour{i}.json", lib.io.dumps(h))
        model_file = self._write(f"model{i}.json", M.model_dumps(model))
        q_file = self._write(f"q{i}.json", json.dumps(M.prob_table_to_obj(q)))
        for path, value in ((dag_file, d), (smdg_file, g), (nb_file, h)):
            text = path.read_text(encoding="utf-8")
            check(t.call("io.loads", lib.io.loads, text) == value, f"{path} does not round-trip")
        text = model_file.read_text(encoding="utf-8")
        check(t.call("model.model_loads", M.model_loads, text) == model,
              f"{model_file} does not round-trip")

        dag_file, smdg_file, nb_file, model_file, q_file = map(
            str, (dag_file, smdg_file, nb_file, model_file, q_file))
        argvs = {
            "canon": ["canon", dag_file],
            "project": ["project", dag_file],
            "lift": ["lift", smdg_file],
            "sep": ["sep", smdg_file, "--criterion", "sm", "--x", x, "--y", y,
                    "--z", ",".join(z)],
            "eval": ["eval", "smi", model_file, "--q", q_file],
            "equiv-obs": ["equiv-obs", smdg_file, nb_file, "--depth", "2"],
        }
        out = []
        for name in CLI_COMMANDS:
            code, stdout = t.call("cli.main." + name, self._in_process, argvs[name])
            allowed = (0, 1, 2) if name == "sep" else (0,)
            check(code in allowed, f"in-process {name} exited {code}")
            out.append((name, argvs[name], code, stdout))
        return out

    def _in_process(self, argv):
        buf, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(argv)
        return code, buf.getvalue().encode("utf-8")

    def epoch(self, t, rec):
        for command in self.commands:
            yield partial(t.call, "cli.subprocess." + command[0], self.item, rec, *command)

    def item(self, rec, name, argv, code, stdout):
        proc = self.run_child(["-c", CLI_MAIN, *argv])
        check(proc.returncode == code, f"{name} exited {proc.returncode}, in-process {code}")
        check(proc.stdout == stdout, f"{name} stdout differs from the in-process run")
        rec.counts["commands." + name] += 1
        rec.output(f"{name} {code} " + hashlib.sha256(proc.stdout).hexdigest())

    def run_child(self, args):
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, timeout=120,
        )


WORKLOADS = ("sweep", "oneshot", "transport_eval", "cli")
