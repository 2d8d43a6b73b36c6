"""Benchmark of the smdg library and CLI.

Run from the repository root, for example:

    python3 bench/run.py --workload oneshot --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; its times
are normalized for the host's speed drift (see ``calibrate.py``). ``--trace 1``
runs the workload untraced for half the time and traced for the other half,
prints the per-layer metrics, the self-time table and the tracing overhead,
and writes every span to ``bench/out/``. The last line of standard output is
one JSON object; the metric names and units come from ``BENCHMARK.json``.
See ``bench/NOTES.md`` for the workloads and what each metric should show.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MODULES = ("graph", "canon", "project", "sep", "model", "transport", "rewrite",
           "io", "enumeration", "cli")
SETUP_REPEATS = 9
SUBPROCESS_PROBES = 10


def forget_smdg():
    """Drop any earlier import of smdg, and the garbage it leaves, so that the
    next set-up pays for a full import without the process growing."""
    for name in [m for m in sys.modules if m == "smdg" or m.startswith("smdg.")]:
        del sys.modules[name]
    gc.collect()


def import_smdg():
    """Import smdg from this checkout's ``src``."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    lib = SimpleNamespace(**{m: importlib.import_module("smdg." + m) for m in MODULES})
    found = Path(sys.modules["smdg"].__file__).resolve().parent
    if found != src / "smdg":
        raise ImportError(f"smdg was imported from {found}, not from {src}")
    return lib


def make_workload(name):
    if name == "sweep":
        return workloads.Sweep()
    if name == "oneshot":
        return workloads.Oneshot()
    if name == "transport_eval":
        return workloads.TransportEval()
    return workloads.Cli(ROOT, OUT / f"cli-{os.getpid()}")


def set_up(wl, seed, t):
    forget_smdg()
    start = perf_counter()
    wl.setup(import_smdg(), seed, t)
    return perf_counter() - start


class Phase:
    """The timed items of one run phase and the records of its epochs."""

    def __init__(self, interrupt):
        self.calibrator = calibrate.Calibrator()
        # per-item normalized latencies when the blocks interrupt the items
        # (one array either way, so memory barely grows with speed)
        self.interrupt = interrupt
        self.latencies = array("d")
        self.failed = 0
        self.failures: list[str] = []
        self.records: list[workloads.Record] = []
        self.elapsed = 0.0

    @property
    def throughput(self):
        return len(self.latencies) / self.elapsed

    def fail(self, rec, exc):
        self.failed += 1
        rec.output(f"FAILED {type(exc).__name__}")
        self.failures.append(traceback.format_exc())

    def epochs_agree(self):
        first = self.records[0].summary()
        return all(r.summary() == first for r in self.records[1:])

    def print_record(self, label):
        counts, digest = self.records[0].summary()
        print(f"{label}: epochs={len(self.records)} "
              f"items/epoch={self.records[0].items} sha256={digest}")
        print(f"{label}: counts " + json.dumps(counts, sort_keys=True))


def run_phase(wl, t, seconds, interrupt):
    """Run items until ``seconds`` of item time have passed and at least one
    epoch is complete; an epoch cut by the deadline is not recorded.

    A calibration block runs every eighth of a second. With ``interrupt``
    it runs from a timer, inside the items, and each item's latency is
    divided at once by the mean slowdown of the block before it and the
    blocks inside it. Otherwise blocks run between items and latencies stay
    raw. Block time counts neither in the phase's time nor in any item."""
    phase = Phase(interrupt)
    cal = phase.calibrator

    def latency(t0, first):
        t1 = perf_counter()
        raw = t1 - t0 - cal.within(first, t0, t1)
        if not interrupt:
            return raw
        near = cal.blocks[first - 1:]
        return raw * len(near) / sum(near)

    with cal.interrupting() if interrupt else contextlib.nullcontext():
        cal.block()
        start = perf_counter()
        deadline = start + seconds
        done = False
        while not done:
            rec = workloads.Record()
            stream = wl.epoch(t, rec)
            while True:
                if not interrupt:
                    cal.maybe_block()
                t.begin_item(len(phase.latencies))
                first = len(cal.times)
                t0 = perf_counter()
                try:
                    work = next(stream)
                except StopIteration:
                    t.drop_open_item()
                    break
                except Exception as exc:  # the input stream itself broke
                    phase.fail(rec, exc)
                    t.end_item()
                    phase.latencies.append(latency(t0, first))
                    break
                try:
                    work()
                except Exception as exc:
                    phase.fail(rec, exc)
                t.end_item()
                phase.latencies.append(latency(t0, first))
                if perf_counter() >= deadline + cal.spent and phase.records:
                    done = True
                    break
            if not done:
                phase.records.append(rec)
                done = perf_counter() >= deadline + cal.spent
        phase.elapsed = perf_counter() - start - cal.spent
    return phase


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(wl, setups, setup_cal, phase, peak_rss):
    """Throughput multiplied, and set-up time divided, by the mean host
    slowdown of the blocks run with them (``calibrate.py``). Latencies
    were normalized item by item when the blocks interrupted the items,
    and are divided by the phase's mean slowdown otherwise."""
    slow, setup_slow = phase.calibrator.slowdown, setup_cal.slowdown
    ordered = sorted(phase.latencies)
    if not phase.interrupt:
        ordered = [x / slow for x in ordered]
    tail, beyond = percentile(ordered, wl.tail_percentile)
    values = {
        "setup_s": statistics.median(setups) / setup_slow,
        "throughput_per_s": phase.throughput * slow,
        "item_p50_ms": statistics.median(ordered) * 1e3,
        "item_tail_ms": tail * 1e3,
        "peak_rss_mb": peak_rss,
    }
    n = len(ordered)
    blocks = phase.calibrator.blocks
    print("set-ups: " + " ".join(f"{s:.4f}" for s in setups) + f" s raw; slowdown "
          f"{setup_slow:.4f} over {len(setup_cal.blocks)} blocks")
    print(f"timed phase: slowdown {slow:.4f} over {len(blocks)} blocks "
          f"(min {min(blocks):.4f}, max {max(blocks):.4f}); raw throughput "
          f"{phase.throughput:.3f} 1/s over {n} items in {phase.elapsed:.2f} s")
    print(f"normalized: setup_s={values['setup_s']:.4f} s (median of {len(setups)}); "
          f"throughput_per_s={values['throughput_per_s']:.3f} 1/s; "
          f"item_p50_ms={values['item_p50_ms']:.4f} ms; item_tail_ms={values['item_tail_ms']:.4f} ms "
          f"at p{wl.tail_percentile}, {beyond} samples beyond it")
    print(f"error_rate={phase.failed / n:.6f} ({phase.failed}/{n})")
    rss = f"peak_rss_mb={values['peak_rss_mb']:.2f} MB"
    if isinstance(wl, workloads.Cli):
        rss += f"; largest child peak {peak_rss_mb(resource.RUSAGE_CHILDREN):.2f} MB"
    print(rss)
    return values


def subprocess_probe(wl, args):
    """Median wall time in ms of running the interpreter with ``args``."""
    times = []
    for _ in range(SUBPROCESS_PROBES):
        start = perf_counter()
        proc = wl.run_child(args)
        times.append(perf_counter() - start)
        if proc.returncode != 0:
            raise workloads.CheckFailed(f"probe {args} exited {proc.returncode}")
    return statistics.median(times) * 1e3


def per_layer(wl, seed, untraced, traced, tr):
    table = tracer.layer_table(tr.spans)
    values = {}
    for name, row in table.items():
        values[name + ".calls"] = row["calls"]
        values[name + ".busy_s"] = row["busy_s"]
        values[name + ".p50_us"] = row["p50_s"] * 1e6
        values[name + ".p50_ms"] = row["p50_s"] * 1e3
    counts = traced.records[0].counts
    if counts["graphs"]:
        values["project.liftable_ratio"] = counts["liftable"] / counts["graphs"]
    for verdict in ("separated", "connected", "determined"):
        values["sep.verdict." + verdict] = counts["verdict." + verdict]
    for step in workloads.CANON_STEPS:
        values["canon.steps." + step] = counts["canon.steps." + step]
    for name in ("canon.duplicate_special_pairs", "model.smi.q_cells",
                 "model.smi.selected_out", "model.table_entries", "rewrite.search.found"):
        values[name] = counts[name]
    values["trace.throughput_untraced_per_s"] = untraced.throughput
    values["trace.throughput_traced_per_s"] = traced.throughput
    values["trace.overhead_pct"] = 100 * (untraced.throughput / traced.throughput - 1)
    values["trace.spans"] = len(tr.spans)
    if isinstance(wl, workloads.Cli):
        values["cli.interpreter_ms"] = subprocess_probe(wl, ["-c", "pass"])
        values["cli.import_ms"] = subprocess_probe(wl, ["-c", "import smdg.cli"])
        values["cli.child_peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)

    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{wl.name}-seed{seed}.json"
    tr.dump(span_file, {"workload": wl.name, "seed": seed})
    print(tracer.format_table(table))
    print(f"tracing overhead: untraced {untraced.throughput:.2f}/s, "
          f"traced {traced.throughput:.2f}/s ({values['trace.overhead_pct']:+.1f}%); "
          f"{len(tr.spans)} spans written to {span_file.relative_to(ROOT)}")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wl = make_workload(args.workload)
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        setup_cal = calibrate.Calibrator()
        try:
            setups = []
            for _ in range(SETUP_REPEATS):
                setup_cal.block()
                setup_cal.block()
                setups.append(set_up(wl, args.seed, tracer.NullTracer()))
            setup_cal.block()
        except ImportError as exc:
            print(f"error: cannot import smdg from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        # the Cli items wait on a child process, which a block in the
        # parent would run beside; its blocks stay between items
        in_process = not isinstance(wl, workloads.Cli)
        untraced = run_phase(wl, tracer.NullTracer(), seconds, interrupt=in_process)
        # read before the statistics below build their own lists
        peak_rss = peak_rss_mb(resource.RUSAGE_SELF)
        phases = [untraced]
        print(f"workload={wl.name} seed={args.seed} trace={args.trace}")
        untraced.print_record("untraced")
        same = True
        if args.trace:
            tr = tracer.Tracer()
            set_up(wl, args.seed, tr)
            # blocks between items, so that no span covers one
            traced = run_phase(wl, tr, seconds, interrupt=False)
            phases.append(traced)
            traced.print_record("traced")
            same = traced.records[0].summary() == untraced.records[0].summary()
            if not same:
                print("error: traced and untraced first epochs disagree", file=sys.stderr)
            values = per_layer(wl, args.seed, untraced, traced, tr)
            metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            values = end_to_end(wl, setups, setup_cal, untraced, peak_rss)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        if isinstance(wl, workloads.Cli):
            shutil.rmtree(wl.workdir, ignore_errors=True)
    agree = all(p.epochs_agree() for p in phases)
    if not agree:
        print("error: complete epochs of one phase disagree", file=sys.stderr)
    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    for text in [f for p in phases for f in p.failures][:5]:
        print(text, file=sys.stderr)
    print(json.dumps({"correct": agree and same and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
