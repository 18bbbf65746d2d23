"""The ``service`` workload: ``repro serve --jobs 1`` driven over HTTP.

Wall times are scaled to a nominal host speed by ``hostspeed``.  Each
pass starts a fresh daemon on the run's cache directory (the spawn
to ``/healthz`` interval is one ``setup_s`` sample) and sends, over two
closed-loop client connections, three cold small proofs plus three times
as many resubmissions of already-compiled specs.  A fresh daemon has an
empty job registry, so a resubmission is answered by a real cache read
(outcome ``cache-hit``) rather than by in-memory deduplication.

Cold jobs carry a pass-specific ``max_conflicts`` far above what they
use, so their fingerprints are new while their work is identical.  A
client learns that a cold job is done from the daemon's ``job`` event on
the ``/events`` long-poll, not from ``ServiceClient.wait``'s sleep loop;
the record's server-side timestamps then split the latency into submit,
queue, run, dispatch and notify intervals.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import FermihedralConfig, SolverBudget
from repro.core.verify import verify_encoding
from repro.service.client import ServiceClient, ServiceError

from gate import drift_problems, optimum_problem

#: Cold jobs per pass (mode counts); hits are ``HIT_FACTOR`` times as many.
COLD_MODES = (2, 2, 3)
HIT_FACTOR = 3
#: Client connections, each a closed loop (next request after the reply).
CONNECTIONS = 2
#: Server-side long-poll per ``/events`` request, seconds.
EVENT_POLL_S = 5.0
#: A job not done after this long counts as failed, seconds.
JOB_TIMEOUT_S = 60.0
#: The daemon's default per-SAT-call budget (``repro serve --budget-s``);
#: a job finishing well inside it cannot have been cut short by it.
DAEMON_BUDGET_S = 60.0


def _spec(modes: int, budget: int) -> dict:
    return {"modes": modes, "method": "independent",
            "config": {"max_conflicts": budget}}


@dataclass
class Plan:
    """The seeded inputs: the hit pool and each pass's shuffled requests."""

    seed: int
    pool: list[dict] = field(init=False)

    def __post_init__(self):
        rng = random.Random(self.seed)
        self._base = 1_000_000 + 1000 * rng.randrange(1000)
        hits = HIT_FACTOR * len(COLD_MODES)
        self.pool = [_spec(2 + index % 2, self._base + index)
                     for index in range(hits)]

    def requests(self, pass_index: int) -> list[tuple[str, dict]]:
        budget = self._base + 100 * (pass_index + 1)
        items = [("cold", _spec(modes, budget + slot))
                 for slot, modes in enumerate(COLD_MODES)]
        items += [("hit", spec) for spec in self.pool]
        random.Random(self.seed * 7919 + pass_index).shuffle(items)
        return items


class Daemon:
    """One ``repro serve`` process on the run's cache directory."""

    def __init__(self, root: Path, cache_dir: Path, work: Path):
        self.root, self.cache_dir, self.work = root, cache_dir, work
        self.proc: subprocess.Popen | None = None
        self.client: ServiceClient | None = None

    def start(self) -> None:
        """Spawn the daemon and return once ``/healthz`` answers ok."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        deadline = time.perf_counter() + 60
        with open(self.work / "daemon.log", "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--jobs", "1", "--cache", str(self.cache_dir)],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True,
            )
        banner = self.proc.stdout.readline()
        if not banner.startswith("repro service at "):
            raise RuntimeError(f"daemon did not start: {banner!r}")
        self.client = ServiceClient(banner.split()[-1], retries=0)
        while True:
            try:
                if self.client.healthz().get("status") in ("ok", "degraded"):
                    return
            except ServiceError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not become healthy in 60 s")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the daemon plus every process it started."""
        pids, frontier = [self.proc.pid], [self.proc.pid]
        while frontier:
            children = _children(frontier)
            pids += children
            frontier = children
        return sum(_hwm_kb(pid) for pid in pids) / 1024

    def stop(self) -> None:
        if self.proc is None:
            return
        try:
            if self.client is None:
                self.proc.kill()
            elif self.proc.poll() is None:
                self.client.shutdown()
            self.proc.wait(timeout=30)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()
            self.proc = None


def _children(pids: list[int]) -> list[int]:
    wanted, found = set(pids), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) in wanted:
            found.append(int(entry))
    return found


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class Sample:
    """One request as the client saw it (wall-clock seconds)."""

    kind: str
    spec: dict
    job_id: str = ""
    sent: float = 0.0
    posted: float = 0.0
    seen: float = 0.0
    record: dict | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.seen - self.sent


def _wait_done(client: ServiceClient, job_id: str, cursor: list[int]) -> str:
    """Long-poll ``/events`` until ``job_id``'s terminal ``job`` event."""
    deadline = time.monotonic() + JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        batch = client.events(since=cursor[0], timeout=EVENT_POLL_S)
        cursor[0] = batch["next"]
        for event in batch["events"]:
            if (event.get("kind") == "job" and event.get("job") == job_id
                    and event.get("state") in ("done", "failed")):
                return event["state"]
    return "timeout"


def _connection(client: ServiceClient, work: deque, samples: list) -> None:
    """One closed-loop connection: send, wait for done, send the next."""
    cursor = [0]
    while True:
        try:
            kind, spec = work.popleft()
        except IndexError:
            return
        sample = Sample(kind, spec)
        samples.append(sample)
        sample.sent = time.time()
        try:
            record = client.submit(spec)
            sample.posted = time.time()
            sample.job_id = record["id"]
            if record["status"] == "done":
                if kind == "cold" or record.get("outcome") != "cache-hit":
                    sample.problems.append(
                        f"{kind} job answered at submit with outcome "
                        f"{record.get('outcome')}")
                state = "done"
            else:
                if kind == "hit":
                    sample.problems.append("resubmission was not a cache hit")
                state = _wait_done(client, sample.job_id, cursor)
            sample.seen = time.time()
        except (ServiceError, OSError) as error:
            sample.seen = time.time()
            sample.problems.append(f"{type(error).__name__}: {error}")
            continue
        if state != "done":
            sample.problems.append(f"job {sample.job_id[:12]} ended {state}")


def run_pass(client: ServiceClient, requests: list) -> list[Sample]:
    """Send one pass's requests over the closed-loop connections."""
    work, samples = deque(requests), []
    threads = [threading.Thread(target=_connection,
                                args=(client, work, samples))
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return samples


def check_pass(client: ServiceClient, samples: list[Sample],
               expected: dict) -> list:
    """Fetch each job's record and result (untimed) and gate them.
    Returns the decoded results in sample order."""
    results = []
    for sample in samples:
        if sample.problems or not sample.job_id:
            results.append(None)
            continue
        try:
            sample.record = client.job(sample.job_id)
            result = client.result(sample.record)
        except (ServiceError, ValueError, KeyError) as error:
            sample.problems.append(f"fetching result: {error}")
            results.append(None)
            continue
        results.append(result)
        modes = sample.spec["modes"]
        if not verify_encoding(result.encoding).valid:
            sample.problems.append(f"{modes}-mode result fails verify_encoding")
        problem = optimum_problem(expected, modes, result.weight,
                                  result.proved_optimal)
        if problem:
            sample.problems.append(problem)
        if (sample.record.get("elapsed_s") or 0.0) >= DAEMON_BUDGET_S / 2:
            sample.problems.append("job ran long enough for --budget-s to bind")
    return results


def _signature(samples: list[Sample], results: list) -> tuple:
    return tuple(sorted(
        (s.kind, s.spec["modes"], r.weight, r.proved_optimal,
         tuple((st.bound, st.status, st.conflicts) for st in r.descent.steps))
        for s, r in zip(samples, results) if r is not None
    ))


def record_spans(tracer, samples: list[Sample], pass_index: int) -> None:
    """Spans of one traced pass: the client's view (submit, notify) plus
    the daemon's own timestamps for queue, run and dispatch."""
    for index, sample in enumerate(samples):
        if sample.problems:
            continue
        trace = f"{sample.kind}-{index}#{pass_index}"
        root = tracer.record("job", trace, sample.sent, sample.seen, None)
        record = sample.record
        edges = [("service.submit", sample.posted)]
        if sample.kind == "cold" and record is not None:
            ran = record["started_at"] + record["elapsed_s"]
            edges += [("service.queue", record["started_at"]),
                      ("service.run", ran),
                      ("service.dispatch", record["finished_at"]),
                      ("service.notify", sample.seen)]
        # Consecutive intervals; the two clocks are one host clock, so a
        # server stamp can only trail the client's by scheduling jitter.
        start = sample.sent
        for name, end in edges:
            end = min(max(end, start), sample.seen)
            tracer.record(name, trace, start, end, root["id"])
            start = end


@dataclass
class Pass:
    samples: list[Sample]
    wall: float
    scaled: float
    traced: bool
    results: list


@dataclass
class ServiceRun:
    setups: list[float] = field(default_factory=list)
    rss: list[float] = field(default_factory=list)
    passes: list[Pass] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def untraced(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]


def measure(root: Path, work: Path, seed: int, seconds: float, expected: dict,
            host, tracer=None) -> ServiceRun:
    """Run passes for ``seconds``.  With a tracer, passes alternate
    untraced / traced so the tracing overhead is measured in one run."""
    plan = Plan(seed)
    run = ServiceRun()
    cache_dir = work / "service-cache"
    with_daemon(root, cache_dir, work, run, host,
                lambda client: _warm(client, plan, run))
    started = time.perf_counter()
    least = 1 if tracer is None else 2
    while len(run.passes) < least or time.perf_counter() - started < seconds:
        index = len(run.passes)
        traced = tracer is not None and index % 2 == 1

        def one_pass(client, index=index, traced=traced):
            samples, wall, scaled = host.measure(
                lambda: run_pass(client, plan.requests(index)))
            results = check_pass(client, samples, expected)
            run.passes.append(Pass(samples, wall, scaled, traced, results))
            print(f"pass {index}: {scaled:.3f} s (wall {wall:.3f})", flush=True)
            if traced:
                record_spans(tracer, samples, index)

        with_daemon(root, cache_dir, work, run, host, one_pass)
    run.problems += [problem for _, problem in drift_problems(
        "service pass", [_signature(p.samples, p.results) for p in run.passes])]
    return run


def _warm(client: ServiceClient, plan: Plan, run: ServiceRun) -> None:
    """Compile the hit pool once (untimed) so later passes can hit it."""
    for sample in run_pass(client, [("cold", spec) for spec in plan.pool]):
        run.problems += sample.problems


def with_daemon(root, cache_dir, work, run: ServiceRun, host, body) -> None:
    daemon = Daemon(root, cache_dir, work)
    try:
        _, _, setup = host.measure(daemon.start)
        run.setups.append(setup)
        body(daemon.client)
        run.rss.append(daemon.peak_rss_mb())
    finally:
        daemon.stop()


def cache_key_args(spec: dict) -> dict:
    """``CompilationCache.key_for`` arguments of a job the daemon ran."""
    budget = SolverBudget(max_conflicts=spec["config"]["max_conflicts"],
                          time_budget_s=DAEMON_BUDGET_S)
    return {"num_modes": spec["modes"], "method": spec["method"],
            "config": FermihedralConfig(budget=budget)}


def layer_metrics(run: ServiceRun, tracer) -> dict:
    """Per-layer numbers of a traced service run: client-side latency
    medians over untraced passes, server-side interval medians over
    every cold job, and the tracing ratios.  Every interval is scaled
    like the pass it ran in."""
    def scaled(passes, kinds):
        return [(s, p.scaled / p.wall) for p in passes for s in p.samples
                if s.kind in kinds and not s.problems and s.record]

    untraced = run.untraced()
    cold = scaled(run.passes, ("cold",))
    metrics = {
        "service.job_p50_s": statistics.median(
            s.latency * k for s, k in scaled(untraced, ("cold",))),
        "service.hit_p50_s": statistics.median(
            s.latency * k for s, k in scaled(untraced, ("hit",))),
        "service.submit_s": statistics.median(
            (s.posted - s.sent) * k for s, k in scaled(untraced, ("cold", "hit"))),
    }
    for name, interval in (
        ("queue", lambda r, s: r["started_at"] - r["submitted_at"]),
        ("run", lambda r, s: r["elapsed_s"]),
        ("dispatch", lambda r, s: r["finished_at"] - r["started_at"] - r["elapsed_s"]),
        ("notify", lambda r, s: s.seen - r["finished_at"]),
    ):
        metrics[f"service.{name}_s"] = statistics.median(
            interval(s.record, s) * k for s, k in cold)
    metrics["trace.overhead_ratio"] = statistics.median(
        p.scaled for p in run.passes if p.traced) / statistics.median(
        p.scaled for p in untraced)
    latency = sum(span["end"] - span["start"] for span in tracer.spans
                  if span["parent"] is None)
    layers = sum(t for name, t in tracer.self_times().items() if name != "job")
    metrics["trace.coverage"] = layers / latency
    metrics["result.proved"] = sum(
        bool(r is not None and r.proved_optimal) for r in untraced[0].results)
    return metrics
