#!/usr/bin/env python3
"""End-to-end benchmark of the Fermihedral compiler.

Run from the repository root::

    python3 e2ebench/run.py --workload prove --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics from a traced run.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output passed the correctness gate.  See ``README.md`` beside this
file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("prove", "grid", "service", "smoke")

#: Setup probes per in-process run: fresh interpreters timed from spawn
#: to "ready" (imports plus one untimed N=2 warm-up compile).
SETUP_PROBES = 5
#: An untraced in-process run always measures at least this many passes,
#: so its median never rests on one or two on a slow host.
MIN_PASSES = 3
PROBE_CODE = (
    "from repro.core.pipeline import FermihedralCompiler\n"
    "FermihedralCompiler(2).compile()\n"
    "print('ready', flush=True)\n"
)


class Report:
    """Metric values plus the gate's tally for one run."""

    def __init__(self):
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def jobs(self, problem_lists) -> None:
        """Count jobs; a job with any problem is a failed one."""
        for problems in problem_lists:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += problems

    def extra(self, problems: list[str]) -> None:
        """Problems not tied to one job (drift between passes) each fail
        one more attempted check."""
        self.attempted += len(problems)
        self.failed += len(problems)
        self.problems += problems


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics this mode must report."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    entries = spec["per_layer"] if trace else spec["end_to_end"]
    return {entry["name"]: entry["unit"] for entry in entries}


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def setup_probe(host) -> float:
    """Scaled seconds from spawning a fresh interpreter to its "ready"."""
    procs = []

    def spawn_until_ready() -> str:
        procs.append(subprocess.Popen(
            [sys.executable, "-c", PROBE_CODE], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True))
        return procs[0].stdout.readline()

    try:
        line, _, scaled = host.measure(spawn_until_ready)
    finally:
        for proc in procs:
            proc.wait()
            proc.stdout.close()
    if line.strip() != "ready" or procs[0].returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {procs[0].returncode})")
    return scaled


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def cache_api_times(jobs, work: Path, host) -> dict:
    """Median scaled seconds per call of the public cache API on this
    run's results: fingerprint (``key_for``), ``put`` and ``get``."""
    times, wall, scaled = host.measure(lambda: _time_cache_api(jobs, work))
    return {name: value * scaled / wall for name, value in times.items()}


def _time_cache_api(jobs, work: Path) -> dict:
    from repro.store.cache import CompilationCache

    cache = CompilationCache(work / "cache-api")
    times: dict[str, list[float]] = {"key": [], "put": [], "get": []}
    for key_args, result in jobs:
        started = time.perf_counter()
        key = cache.key_for(**key_args)
        stored = time.perf_counter()
        cache.put(key, result)
        fetched = time.perf_counter()
        if cache.get(key) is None:
            raise RuntimeError("cache get missed a key just put")
        done = time.perf_counter()
        times["key"].append(stored - started)
        times["put"].append(fetched - stored)
        times["get"].append(done - fetched)
    return {f"cache.{name}_s": statistics.median(values) if values else 0.0
            for name, values in times.items()}


# -- in-process workloads ------------------------------------------------------


def run_inprocess(args, work: Path, tracer, host) -> Report:
    import inproc
    from gate import drift_problems, load_expected
    from repro.core.pipeline import FermihedralCompiler

    report = Report()
    setups = [setup_probe(host) for _ in range(SETUP_PROBES)]
    expected = load_expected(args.expected)
    inputs = inproc.workload_inputs(args.workload, args.seed)
    FermihedralCompiler(2).compile()  # untimed warm-up, as in the probes

    untraced, traced = [], []
    least = 1 if tracer is not None else MIN_PASSES
    started = time.perf_counter()
    while len(untraced) < least or time.perf_counter() - started < args.seconds:
        outcomes = inproc.untraced_pass(inputs, expected, host)
        if untraced:  # keep results of the first pass only (cache timing)
            for outcome in outcomes:
                outcome.result = None
        untraced.append(outcomes)
        print(f"pass {len(untraced) - 1}: " + ", ".join(
            f"{o.name} {o.scaled:.3f} s (wall {o.seconds:.3f})" for o in outcomes),
            flush=True)
        if tracer is not None:
            traced.append(inproc.traced_pass(inputs, outcomes, tracer,
                                             len(traced), host))
    for index, inp in enumerate(inputs):
        runs = [outcomes[index] for outcomes in untraced]
        for pass_index, problem in drift_problems(
                inp.name, [o.signature() for o in runs]):
            runs[pass_index].problems.append(problem)
    report.jobs(o.problems for outcomes in untraced for o in outcomes)

    if tracer is None:
        first = untraced[0]
        report.metrics = {
            "setup_s": statistics.median(setups),
            "pass_s": statistics.median(
                sum(o.scaled for o in outcomes) for outcomes in untraced),
            "weight": sum(o.weight for o in first),
            "peak_rss_mb": peak_rss_mb(),
        }
        return report

    report.jobs(problems for t in traced for problems in t.problems)
    report.extra([problem for _, problem in drift_problems(
        "replay counts", [t.counts for t in traced])])
    report.metrics = inproc.layer_metrics(tracer, traced, untraced)
    report.metrics.update(cache_api_times(
        [(inproc.cache_key_args(inp), o.result)
         for inp, o in zip(inputs, untraced[0]) if o.result is not None],
        work, host))
    return report


# -- service workload ----------------------------------------------------------


def run_service(args, work: Path, tracer, host) -> Report:
    import svcload
    from gate import load_expected

    report = Report()
    run = svcload.measure(ROOT, work, args.seed, args.seconds,
                          load_expected(args.expected), host, tracer)
    report.jobs(s.problems for p in run.passes for s in p.samples)
    report.extra(run.problems)
    first = run.untraced()[0]
    if tracer is None:
        report.metrics = {
            "setup_s": statistics.median(run.setups),
            "pass_s": statistics.median(p.scaled for p in run.untraced()),
            "weight": sum(r.weight for r in first.results if r is not None),
            "peak_rss_mb": statistics.median(run.rss),
        }
        return report
    report.metrics = svcload.layer_metrics(run, tracer)
    report.metrics.update(cache_api_times(
        [(svcload.cache_key_args(s.spec), r)
         for s, r in zip(first.samples, first.results) if r is not None],
        work, host))
    return report


# -- entry point ---------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--expected", default=None,
                        help="expected-optima file (default: expected.json "
                             "beside this script)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no compiler source under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from gate import EXPECTED_PATH
    from hostspeed import HostSpeed
    from tracing import Tracer

    args.expected = args.expected or EXPECTED_PATH
    # The host's CPUs slow down independently of each other, so the
    # reference kernel only tracks the speed of the CPU it runs on: pin
    # this process and every process it starts to one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and of the daemons it starts stay
    # inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    tracer = Tracer() if args.trace else None
    try:
        runner = run_service if args.workload == "service" else run_inprocess
        host = HostSpeed()
        report = runner(args, work, tracer, host)
        report.metrics["host.ref_s"] = host.median_reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")

    report.metrics["ok_ratio"] = (
        (report.attempted - report.failed) / max(report.attempted, 1))
    metrics = {name: {"value": float(report.metrics.get(name, 0.0)), "unit": unit}
               for name, unit in declared_metrics(bool(args.trace)).items()}
    for problem in report.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    correct = report.failed == 0 and report.attempted > 0
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
