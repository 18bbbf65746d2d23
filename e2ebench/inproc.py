"""The in-process workloads: ``prove`` and ``grid``.

An untraced pass compiles each input once through the public entry
point, ``FermihedralCompiler.compile``, then checks the result the way a
user would: ``verify_encoding`` on the encoding and, for proof inputs,
``check_trace`` on the DRAT certificate.  That whole sequence is the
input's timed region; ``gc.collect()`` runs between inputs, untimed.

Each input's wall time is also scaled to a nominal host speed by the
reference kernel of ``hostspeed`` run around it.

A traced pass replays the same compile stage by stage through the public
layer functions, in the order ``core/descent.py`` and
``core/pipeline.py`` call them, with a benchmark-side span around each
call.  The replay must reproduce the untraced compile's rungs (bound,
status, conflicts) and final weight exactly, or the run fails.
"""

from __future__ import annotations

import gc
import random
import statistics
from dataclasses import dataclass, field

from repro.core.annealing import anneal_pairing
from repro.core.baselines import best_baseline, candidate_baselines
from repro.core.config import (
    METHOD_ANNEALING,
    METHOD_FULL_SAT,
    METHOD_INDEPENDENT,
    FermihedralConfig,
    SolverBudget,
)
from repro.core.descent import build_base_formula, measured_weight
from repro.core.pipeline import FermihedralCompiler, hardware_config
from repro.core.verify import verify_encoding
from repro.fermion.catalog import parse_model
from repro.hardware import HardwareCostModel, resolve_device
from repro.paulis.symplectic import are_algebraically_independent
from repro.sat.drat import ProofLog, build_trace, check_trace
from repro.sat.preprocess import preprocess
from repro.sat.solver import CdclSolver

from gate import optimum_problem


@dataclass(frozen=True)
class Input:
    """One compile job of a workload.  ``max_conflicts`` is a per-rung
    conflict budget: budgets are never in seconds, so every count and
    weight repeats exactly."""

    name: str
    modes: int
    method: str = METHOD_INDEPENDENT
    model: str | None = None
    device: str | None = None
    max_conflicts: int | None = None
    algebraic_independence: bool = True
    proof: bool = False
    seed: int = 2024

    def config(self) -> FermihedralConfig:
        return FermihedralConfig(
            algebraic_independence=self.algebraic_independence,
            proof=self.proof,
            budget=SolverBudget(max_conflicts=self.max_conflicts),
        )

    @property
    def known_optimum_modes(self) -> int | None:
        """Mode count whose Hamiltonian-independent optimum the descent
        must prove: unbudgeted Full-SAT independent descents (SAT+Anl.
        runs one before annealing)."""
        if (self.method in (METHOD_INDEPENDENT, METHOD_ANNEALING)
                and self.max_conflicts is None and self.device is None
                and self.algebraic_independence):
            return self.modes
        return None


def workload_inputs(workload: str, seed: int) -> list[Input]:
    """The fixed input list of one pass; the seed picks the annealing seed."""
    if workload == "prove":
        return [
            Input("indep-3", 3, proof=True),
            Input("indep-4", 4),
            Input("h2-anl", 4, METHOD_ANNEALING, "h2",
                  seed=random.Random(seed).randrange(1 << 30)),
            Input("h2-full", 4, METHOD_FULL_SAT, "h2", max_conflicts=2000),
        ]
    if workload == "grid":
        return [
            Input("hubbard-2x2", 8, METHOD_FULL_SAT, "hubbard:2x2",
                  device="grid-3x3", max_conflicts=2000,
                  algebraic_independence=False),
            Input("indep-6-woalg", 6, max_conflicts=3000,
                  algebraic_independence=False),
        ]
    if workload == "smoke":
        return [Input("indep-2", 2), Input("indep-3", 3, proof=True)]
    raise ValueError(f"not an in-process workload: {workload!r}")


@dataclass
class Outcome:
    """What one compile of one input returned, and how it checked out."""

    name: str
    seconds: float = 0.0
    scaled: float = 0.0
    weight: int = 0
    proved: bool = False
    two_qubit: int = 0
    rungs: tuple = ()
    drat_lines: int = 0
    problems: list[str] = field(default_factory=list)
    result: object = None

    def signature(self) -> tuple:
        """Everything that must repeat exactly from pass to pass."""
        return (self.weight, self.proved, self.two_qubit, self.rungs,
                self.drat_lines)


def _rungs(steps) -> tuple:
    return tuple((step.bound, step.status, step.conflicts) for step in steps)


def compile_once(inp: Input, expected: dict) -> Outcome:
    """One untraced compile plus the user's checks."""
    outcome = Outcome(inp.name)
    try:
        hamiltonian = parse_model(inp.model) if inp.model else None
        compiler = FermihedralCompiler(inp.modes, inp.config(), device=inp.device)
        result = compiler.compile(method=inp.method, hamiltonian=hamiltonian,
                                  seed=inp.seed)
        report = verify_encoding(result.encoding)
        proof_ok = None
        if inp.proof:
            trace = result.descent.proof_trace
            proof_ok = trace is not None and check_trace(trace).ok
    except Exception as error:  # one input's failure must not end the run
        outcome.problems.append(f"{inp.name}: {type(error).__name__}: {error}")
        return outcome
    outcome.result = result
    outcome.weight = result.weight
    outcome.proved = result.proved_optimal
    outcome.two_qubit = result.hardware.two_qubit_count if result.hardware else 0
    outcome.rungs = _rungs(result.descent.steps)
    outcome.drat_lines = (result.proof or {}).get("drat_lines", 0)
    if not report.valid:
        outcome.problems.append(f"{inp.name}: verify_encoding: {report.violations}")
    if proof_ok is False:
        outcome.problems.append(f"{inp.name}: DRAT trace rejected by check_trace")
    if inp.known_optimum_modes is not None:
        problem = optimum_problem(expected, inp.known_optimum_modes,
                                  result.descent.weight,
                                  result.descent.proved_optimal)
        if problem:
            outcome.problems.append(f"{inp.name}: {problem}")
    return outcome


def cache_key_args(inp: Input) -> dict:
    """``CompilationCache.key_for`` arguments of the job ``compile`` ran."""
    topology = resolve_device(inp.device)
    return {
        "num_modes": inp.modes,
        "config": hardware_config(inp.config(), topology, inp.modes),
        "hamiltonian": parse_model(inp.model) if inp.model else None,
        "method": inp.method,
        "seed": inp.seed,
        "device": topology,
    }


def untraced_pass(inputs: list[Input], expected: dict, host) -> list[Outcome]:
    outcomes = []
    for inp in inputs:
        gc.collect()
        outcome, outcome.seconds, outcome.scaled = host.measure(
            lambda inp=inp: compile_once(inp, expected))
        outcomes.append(outcome)
    return outcomes


# -- traced replay -------------------------------------------------------------


@dataclass
class Replay:
    """The replay's answer plus the counts the layers reported."""

    weight: int = 0
    rungs: tuple = ()
    drat_lines: int = 0
    counts: dict = field(default_factory=dict)


def replay(inp: Input, tracer, trace_id: str) -> Replay:
    """Re-run one compile layer by layer under spans (see module doc)."""
    span = tracer.span
    out = Replay()
    counts = out.counts
    with span("compile", trace_id):
        with span("parse", trace_id):
            hamiltonian = parse_model(inp.model) if inp.model else None
        topology = resolve_device(inp.device)
        config = hardware_config(inp.config(), topology, inp.modes)
        weights = config.qubit_weights
        objective = hamiltonian if inp.method == METHOD_FULL_SAT else None
        with span("baseline", trace_id):
            baseline = best_baseline(inp.modes, config, objective)

        with span("encoder", trace_id):
            encoder, indicators = build_base_formula(inp.modes, config, objective)
        formula = encoder.formula
        counts["encoder.clauses"] = formula.num_clauses
        counts["encoder.vars"] = formula.num_variables

        phases = encoder.encoding_assignment(baseline) if config.warm_start else None
        best, best_weight = baseline, measured_weight(baseline, objective, weights)
        bound = best_weight - 1
        rungs, repairs, trace = [], 0, None
        conflicts = propagations = 0
        with span("ladder", trace_id):
            selectors = encoder.weight_ladder(indicators, bound, weights)
        counts["ladder.clauses"] = formula.num_clauses - counts["encoder.clauses"]
        log = ProofLog() if config.proof else None
        solve_formula, reconstruct = formula, None
        if config.preprocess:
            frozen = set(encoder.all_string_variables())
            frozen.update(abs(selector) for selector in selectors)
            with span("preprocess", trace_id):
                simplified = preprocess(formula, frozen=frozen, proof=log)
            solve_formula, reconstruct = simplified.formula, simplified.reconstruct
        counts["preprocess.clauses_out"] = solve_formula.num_clauses
        with span("solver.init", trace_id):
            solver = CdclSolver(solve_formula, seed_phases=phases, proof=log)

        while bound >= 0:
            selector = selectors[bound]
            level_repairs = 0
            candidate = None
            while True:
                with span("solver", trace_id) as solve_span:
                    result = solver.solve(
                        max_conflicts=config.budget.max_conflicts,
                        time_budget_s=config.budget.time_budget_s,
                        assumptions=(selector,),
                    )
                solve_span["name"] = "solver." + result.status.lower()
                conflicts += result.stats.conflicts
                propagations += result.stats.propagations
                status = result.status
                if not result.is_sat:
                    break
                with span("decode", trace_id):
                    model = result.model
                    if reconstruct is not None:
                        model = reconstruct(model)
                    candidate = encoder.decode(model)
                    dependent = not config.algebraic_independence and not (
                        are_algebraically_independent(candidate.strings))
                if not dependent:
                    break
                level_repairs += 1
                candidate = None
                solver.add_clause(encoder.blocking_clause(model))
                if level_repairs > config.max_repairs:
                    status = "REPAIR-LIMIT"
                    break
            repairs += level_repairs
            rungs.append((bound, status, result.stats.conflicts))
            if candidate is not None:
                if config.warm_start:
                    solver.set_phases({v: model[v]
                                       for v in encoder.all_string_variables()})
                best = candidate
                best_weight = measured_weight(candidate, objective, weights)
                bound = best_weight - 1
                continue
            if status == "UNSAT" and log is not None:
                with span("drat.build", trace_id):
                    trace = build_trace(formula, log, assumptions=(selector,))
            break

        encoding, weight = best, best_weight
        if inp.method == METHOD_ANNEALING:
            with span("anneal", trace_id):
                annealed = anneal_pairing(encoding, hamiltonian, seed=inp.seed)
            encoding, weight = annealed.encoding, annealed.weight
        if topology is not None:
            with span("routing", trace_id):
                chosen, cost = HardwareCostModel(topology).best_encoding(
                    [encoding] + candidate_baselines(
                        inp.modes, config.vacuum_preservation),
                    hamiltonian,
                )
                encoding = chosen
                weight = measured_weight(encoding, hamiltonian)
            counts["routing.swaps"] = cost.swap_count
        with span("verify", trace_id):
            report = verify_encoding(encoding)
        if trace is not None:
            with span("drat.check", trace_id):
                checked = check_trace(trace)
            out.drat_lines = trace.num_proof_lines
            counts["drat.lines"] = out.drat_lines
            if not checked.ok:
                raise RuntimeError(f"replayed DRAT trace rejected: {checked.reason}")
        if not report.valid:
            raise RuntimeError(f"replayed encoding invalid: {report.violations}")
    counts["solver.rungs"] = len(rungs)
    counts["solver.conflicts"] = conflicts
    counts["solver.propagations"] = propagations
    counts["descent.repairs"] = repairs
    out.weight, out.rungs = weight, tuple(rungs)
    return out


def replay_problems(inp: Input, untraced: Outcome, replayed: Replay) -> list[str]:
    """Differences between a replay and the untraced compile it mirrors."""
    problems = []
    if replayed.rungs != untraced.rungs:
        problems.append(f"{inp.name}: replay rungs {replayed.rungs} != "
                        f"untraced {untraced.rungs}")
    if replayed.weight != untraced.weight:
        problems.append(f"{inp.name}: replay weight {replayed.weight} != "
                        f"untraced {untraced.weight}")
    if replayed.drat_lines != untraced.drat_lines:
        problems.append(f"{inp.name}: replay DRAT lines {replayed.drat_lines} "
                        f"!= untraced {untraced.drat_lines}")
    return problems


def _replay_or_error(inp: Input, tracer, trace_id: str):
    try:
        return replay(inp, tracer, trace_id)
    except Exception as error:  # reported through the gate
        return f"{inp.name}: replay: {type(error).__name__}: {error}"


@dataclass
class TracedPass:
    """One traced replay of every input: its spans, summed layer counts,
    one problem list per input, and its wall and scaled seconds."""

    spans: list[dict]
    counts: dict
    problems: list[list[str]]
    wall: float
    scaled: float


def traced_pass(inputs: list[Input], untraced: list[Outcome], tracer,
                pass_index: int, host) -> TracedPass:
    first_span = len(tracer.spans)
    done = TracedPass([], {}, [], 0.0, 0.0)
    for inp, outcome in zip(inputs, untraced):
        gc.collect()
        replayed, wall, scaled = host.measure(
            lambda inp=inp: _replay_or_error(inp, tracer, f"{inp.name}#{pass_index}"))
        done.wall += wall
        done.scaled += scaled
        if isinstance(replayed, str):
            done.problems.append([replayed])
            continue
        done.problems.append(replay_problems(inp, outcome, replayed))
        for name, value in replayed.counts.items():
            done.counts[name] = done.counts.get(name, 0) + value
    done.spans = tracer.spans[first_span:]
    return done


#: Span name -> per-layer time metric.
SPAN_METRICS = {
    "parse": "parse.s",
    "baseline": "baseline.s",
    "encoder": "encoder.s",
    "ladder": "ladder.s",
    "preprocess": "preprocess.s",
    "solver.init": "solver.init_s",
    "solver.sat": "solver.sat_s",
    "solver.unsat": "solver.unsat_s",
    "solver.unknown": "solver.unknown_s",
    "decode": "descent.decode_s",
    "anneal": "anneal.s",
    "routing": "routing.s",
    "verify": "verify.s",
    "drat.build": "drat.build_s",
    "drat.check": "drat.check_s",
}


def layer_metrics(tracer, traced_passes: list[TracedPass],
                  untraced_passes: list[list[Outcome]]) -> dict:
    """Per-layer numbers of a traced run: medians over traced passes of
    each layer's self time (scaled like the pass it ran in), the counts,
    and the tracing ratios."""
    per_pass = []
    for traced in traced_passes:
        self_times = tracer.self_times(traced.spans)
        per_pass.append({metric: self_times.get(name, 0.0) * traced.scaled / traced.wall
                         for name, metric in SPAN_METRICS.items()})
    metrics = {metric: statistics.median(p[metric] for p in per_pass)
               for metric in SPAN_METRICS.values()}
    counts = traced_passes[0].counts
    metrics.update(counts)
    inputs = counts.get("encoder.clauses", 0) + counts.get("ladder.clauses", 0)
    if inputs:
        metrics["preprocess.removed_ratio"] = (
            (inputs - counts["preprocess.clauses_out"]) / inputs)
    solve_s = sum(metrics[m] for m in
                  ("solver.sat_s", "solver.unsat_s", "solver.unknown_s"))
    if solve_s > 0:
        metrics["solver.props_per_s"] = counts["solver.propagations"] / solve_s
    untraced = statistics.median(sum(o.scaled for o in outcomes)
                                 for outcomes in untraced_passes)
    metrics["trace.overhead_ratio"] = statistics.median(
        traced.scaled for traced in traced_passes) / untraced
    metrics["trace.coverage"] = (
        statistics.median(sum(p.values()) for p in per_pass) / untraced)
    for name in {o.name for outcomes in untraced_passes for o in outcomes}:
        metrics[f"compile_s.{name}"] = statistics.median(
            o.scaled for outcomes in untraced_passes for o in outcomes
            if o.name == name)
    first = untraced_passes[0]
    metrics["result.proved"] = sum(o.proved for o in first)
    metrics["result.two_qubit"] = sum(o.two_qubit for o in first)
    return metrics
