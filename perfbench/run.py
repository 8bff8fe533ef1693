#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the puiseux expander.

    python3 perfbench/run.py --workload deep_multi --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` and the reference expander from ``tests/``.  Workloads are described
in ``perfbench/workloads.py``.

Set-up imports the package, generates the workload's inputs from the seed,
writes the problem and solution files, and computes the oracle references.
It runs three times, each in a fresh child interpreter, and ``setup_s`` is
the median.  In a child, the oracle's memory is not counted in
``peak_rss_mb``, the peak resident size of the benchmark process after the
untraced passes: the program, its inputs and one pass's outputs.

Load is a closed loop with a single caller: one process and one thread send
the problems to ``puiseux.cli.main`` (``run ... --json`` or ``check``) back to
back, the next after the previous returned.  Passes over the whole problem
set repeat until ``--seconds`` have elapsed, at least twice.  ``run_s`` is the
mean pass, and ``problem_p50_s``/``problem_p90_s`` are percentiles over the
problems of each problem's mean latency over the passes; on the deep
workloads, with two problems, they are the small and the large problem's
latency.  Each pass's outputs are compared byte for byte with the first
pass's as the pass ends, then dropped; the first pass's are checked after
the timed passes, against the oracle or sympy.

Every time reported is scaled to a reference host speed: between problems,
a fixed unit of pure-Python work is timed, an eighth of the time spent in
the program, and the run's times are scaled by how much slower or faster the
mean unit ran than its reference time (see ``speed.py``).  On a shared host
this cancels the drift of the machine's speed between runs, which no median
over one run removes.  Each set-up child scales its time by units of its
own.  The wall times and the units are kept in the run's record.

With ``--trace 1`` the untraced passes run as above for half of
``--seconds``, then traced passes (at least one) for the other half, with a
span at each layer boundary (see ``spans.py``); the per-layer metrics come
from the traced passes, their seconds scaled by the traced passes' own
units, and ``trace.overhead_s`` is the traced minus the untraced ``run_s``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  ``attempted`` counts
the workload's problems and ``failed`` those whose output did not match
its reference; ``failed / attempted`` is the failure fraction and
``ok_frac`` its complement.  ``correct`` is false when the program printed
something false (an extra or altered branch, a wrong residual order, an
error) or printed different bytes for the same problem; a branch that is
left out only counts as failed.  Every metric is also printed above that
line with its unit, and the run's record, spans included, is written to
``.perfbench-run/records/``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from math import ceil
from pathlib import Path
from time import perf_counter

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-run"
SETUP_REPS = 3
MIN_PASSES = 2

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "problem_p50_s": "s",
    "problem_p90_s": "s",
    "terms_per_s": "1/s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = dict(spans.LAYER_METRICS, **{"trace.run_s": "s", "trace.overhead_s": "s"})


def load_program():
    """Import the package from the checkout; returns its cli module."""
    src = ROOT / "src"
    for need in (src / "puiseux" / "cli.py", ROOT / "tests" / "oracle_newton.py"):
        if not need.is_file():
            raise ImportError("%s is missing; run from a puiseux source checkout" % need)
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import puiseux.cli

    if Path(puiseux.cli.__file__).resolve().parent != (src / "puiseux").resolve():
        raise ImportError("puiseux was imported from %s" % puiseux.cli.__file__)
    return puiseux.cli


def call(cli, argv, rec):
    """One call of the program: (exit code, standard output)."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            if rec is None:
                rc = cli.main(argv)
            else:
                with rec.span("cli." + argv[0]):
                    rc = cli.main(argv)
    except Exception:
        return "error", traceback.format_exc()
    return rc, out.getvalue()


def set_up(workload: str, seed: int, workdir: Path):
    """The workload's set-up, SETUP_REPS times, each in a fresh child interpreter.

    Returns the seconds of each (the package import plus the set-up, scaled
    by the child's own reference units) and the problems of the first.
    """
    times, problems = [], None
    for rep in range(SETUP_REPS):
        d = workdir / ("setup%d" % rep)
        d.mkdir()
        argv = [sys.executable, str(HERE / "workloads.py"), workload, str(seed), str(d)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, check=True)
        seconds, factor, made = pickle.loads(child.stdout)
        times.append(seconds * factor)
        problems = problems or made
    return times, problems


class Passes:
    """Timed passes over the problem set, as wall times.

    ``gauge`` runs the reference units between problems; its factor scales
    the wall times to the reference speed.  Only the outputs of the first
    pass (or of ``reference``) are kept: each later pass is compared with
    them as it ends, and its outputs dropped.
    """

    def __init__(self, reference=None):
        self.gauge = speed.Gauge()
        self.latencies: list[list[float]] = []
        self.out_bytes = 0
        self.outputs = reference
        self.differs: set[int] = set()

    def add(self, latencies, outputs):
        self.latencies.append(latencies)
        self.out_bytes += sum(len(out) for _, out in outputs)
        if self.outputs is None:
            self.outputs = outputs
        else:
            self.differs.update(j for j, (a, b) in enumerate(zip(self.outputs, outputs))
                                if a != b)

    @property
    def wall_times(self) -> list[float]:
        return [sum(lat) for lat in self.latencies]

    def run_s(self) -> float:
        """The mean pass, scaled to the reference speed."""
        return statistics.fmean(self.wall_times) * self.gauge.factor()

    def latency(self, q) -> float:
        """The q-th percentile over problems of each problem's mean latency, scaled."""
        means = [statistics.fmean(runs) for runs in zip(*self.latencies)]
        return percentile(means, q) * self.gauge.factor()


def one_pass(cli, problems, rec, index, gauge):
    """Send every problem once; returns (latencies, outputs).

    Between problems, ``gauge`` runs its reference units, outside the latencies.
    """
    gc.collect()
    lat, outs = [], []
    for p in problems:
        if rec is not None:
            rec.problem = "%d/%s" % (index, p.name)
        t = perf_counter()
        outs.append(call(cli, p.argv, rec))
        lat.append(perf_counter() - t)
        gauge.add(lat[-1])
    return lat, outs


def measure(cli, problems, seconds, min_passes, rec=None, reference=None):
    """Passes until ``seconds`` have elapsed, at least ``min_passes``."""
    passes = Passes(reference)
    start = perf_counter()
    while len(passes.latencies) < min_passes or perf_counter() - start < seconds:
        passes.add(*one_pass(cli, problems, rec, len(passes.latencies), passes.gauge))
    return passes


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with q% of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, ceil(q / 100 * len(ordered)) - 1)]


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when it has no .git of its own."""
    try:
        # --git-dir keeps git from searching the directories above the checkout
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def judge(workload, problems, outputs, differs):
    """One verdict per problem; output that is malformed or changes between passes is wrong."""
    verdicts = []
    for j, p in enumerate(problems):
        try:
            v = workload.check(p, *outputs[j])
        except (KeyError, IndexError, TypeError, ValueError) as e:
            v = workloads.Verdict(False, True, 0, "malformed output: %r" % e)
        if j in differs:
            v.ok, v.wrong, v.detail = False, True, "output differs between passes"
        verdicts.append(v)
    return verdicts


def report(metrics: dict, units: dict, bases: dict):
    for name, unit in units.items():
        base = " (base: %s)" % bases[name] if name in bases else ""
        print("  %-30s %14.6g %s%s" % (name, metrics[name], unit, base))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        cli = load_program()
    except ImportError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=OUT))
    try:
        setup_times, problems = set_up(args.workload, args.seed, workdir)
        seconds = args.seconds / 2 if args.trace else args.seconds
        passes = measure(cli, problems, seconds, MIN_PASSES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rec = traced = None
        if args.trace:
            rec = spans.Recorder()
            with spans.instrument(rec):
                traced = measure(cli, problems, seconds, 1, rec, passes.outputs)
        differs = passes.differs | (traced.differs if traced else set())
        verdicts = judge(workload, problems, passes.outputs, differs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    run_s = passes.run_s()
    factor = passes.gauge.factor()
    failed = [(p.name, v.detail) for p, v in zip(problems, verdicts) if not v.ok]
    e2e = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "problem_p50_s": passes.latency(50),
        "problem_p90_s": passes.latency(90),
        "terms_per_s": sum(v.terms for v in verdicts) / run_s,
        "ok_frac": 1 - len(failed) / len(problems),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = "percentile over %d problems of each one's mean over %d passes" % (
        len(problems), len(passes.latencies))
    e2e_bases = {
        "problem_p50_s": samples,
        "problem_p90_s": samples,
        "ok_frac": "%d problems, %d failed" % (len(problems), len(failed)),
    }
    layers, bases = {}, {}
    if traced:
        layers, bases = spans.layer_metrics(rec, len(traced.latencies), traced.out_bytes)
        for name, unit in spans.LAYER_METRICS.items():
            if unit == "s":
                layers[name] *= traced.gauge.factor()
        layers["trace.run_s"] = traced.run_s()
        layers["trace.overhead_s"] = layers["trace.run_s"] - run_s

    env = environment()
    correct = not any(v.wrong for v in verdicts)
    print("perfbench %s seed=%d: python %s, git %s, nproc %d; %d problems, %d passes"
          % (args.workload, args.seed, env["python"], env["git_sha"][:12], env["nproc"],
             len(problems), len(passes.latencies)))
    print("  mean pass %.6g s wall; host speed %.3g of the reference, from %d units"
          % (statistics.fmean(passes.wall_times), factor, len(passes.gauge.units)))
    for name, detail in failed:
        print("  failed %s: %s" % (name, detail))
    print("end-to-end (failed_frac = %d/%d):" % (len(failed), len(problems)))
    report(e2e, END_TO_END, e2e_bases)
    if traced:
        print("per layer (%d traced passes):" % len(traced.latencies))
        report(layers, PER_LAYER, bases)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "setup_times": setup_times, "latencies": passes.latencies,
        "units": passes.gauge.units,
        "traced_pass_wall_times": traced.wall_times if traced else [],
        "traced_units": traced.gauge.units if traced else [], "failed": failed,
        "correct": correct, "end_to_end": e2e, "per_layer": layers,
        "bases": dict(e2e_bases, **bases),
    }
    if rec is not None:
        record["spans"] = [s.as_dict(i) for i, s in enumerate(rec.spans)]
    records = OUT / "records"
    records.mkdir(exist_ok=True)
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    (records / name).write_text(json.dumps(record, separators=(",", ":")) + "\n")

    chosen, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    print(json.dumps({
        "correct": correct,
        "attempted": len(problems),
        "failed": len(failed),
        "metrics": {k: {"value": chosen[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
