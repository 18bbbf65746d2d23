"""Adversarial and structural tests for the CDCL solver.

Targets the machinery the basic tests miss: XOR chains (the dominant
structure in Fermihedral instances), restart/reduction paths, model
validity on Tseitin-heavy formulas, and budget semantics.
"""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    CdclSolver,
    CnfFormula,
    add_at_most_k,
    dpll_solve,
    encode_xor_many,
    evaluate_formula,
    solve_formula,
)
from tests.sat.test_solver_fuzz import _random_instance


def _xor_chain_formula(num_vars: int, parity: int, seed: int) -> CnfFormula:
    """Random XOR system: k constraints over subsets, parities fixed."""
    rng = random.Random(seed)
    formula = CnfFormula()
    variables = formula.new_variables(num_vars)
    for _ in range(num_vars):
        subset = rng.sample(variables, rng.randint(2, num_vars))
        gate = encode_xor_many(formula, subset)
        formula.add_unit(gate if rng.random() < 0.5 else -gate)
    return formula


class TestXorStructures:
    @pytest.mark.parametrize("seed", range(10))
    def test_xor_systems_agree_with_dpll(self, seed):
        formula = _xor_chain_formula(6, parity=1, seed=seed)
        cdcl = solve_formula(formula)
        reference = dpll_solve(formula)
        assert cdcl.status == reference.status
        if cdcl.is_sat:
            assert evaluate_formula(formula, cdcl.model)

    def test_inconsistent_xor_pair_unsat(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        gate1 = encode_xor_many(formula, [a, b])
        gate2 = encode_xor_many(formula, [a, b])
        formula.add_unit(gate1)
        formula.add_unit(-gate2)
        assert solve_formula(formula).is_unsat

    def test_long_xor_chain_sat(self):
        formula = CnfFormula()
        variables = formula.new_variables(40)
        gate = encode_xor_many(formula, variables)
        formula.add_unit(gate)
        result = solve_formula(formula)
        assert result.is_sat
        assert sum(result.model[v] for v in variables) % 2 == 1


class TestCardinalityInteraction:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 8), st.integers(0, 1000))
    def test_at_most_k_with_forcing_clauses(self, n, k, seed):
        rng = random.Random(seed)
        formula = CnfFormula()
        variables = formula.new_variables(n)
        add_at_most_k(formula, variables, min(k, n))
        forced = rng.sample(variables, rng.randint(0, n))
        for variable in forced:
            formula.add_unit(variable)
        result = solve_formula(formula)
        expected_sat = len(forced) <= min(k, n)
        assert result.is_sat == expected_sat
        if result.is_sat:
            assert sum(result.model[v] for v in variables) <= min(k, n)

    def test_exactly_boundary(self):
        formula = CnfFormula()
        variables = formula.new_variables(6)
        add_at_most_k(formula, variables, 3)
        formula.add_clause(variables)  # at least one
        result = solve_formula(formula)
        assert result.is_sat
        count = sum(result.model[v] for v in variables)
        assert 1 <= count <= 3


class TestSolverInternals:
    def test_restarts_occur_on_hard_instances(self):
        # A hard random instance at the phase transition forces restarts.
        rng = random.Random(7)
        formula = CnfFormula()
        formula.new_variables(60)
        for _ in range(256):
            vs = rng.sample(range(1, 61), 3)
            formula.add_clause(rng.choice((-1, 1)) * v for v in vs)
        result = solve_formula(formula)
        assert result.status in ("SAT", "UNSAT")

    def test_zero_conflict_budget(self):
        formula = CnfFormula()
        a, b, c = formula.new_variables(3)
        formula.add_clause((a, b))
        formula.add_clause((-a, c))
        result = solve_formula(formula, max_conflicts=0)
        # no conflicts needed: pure decisions suffice -> still SAT
        assert result.is_sat

    def test_time_budget_respected(self):
        import itertools

        formula = CnfFormula()
        slot = {}
        pigeons, holes = 10, 9
        for p in range(pigeons):
            for h in range(holes):
                slot[p, h] = formula.new_variable()
        for p in range(pigeons):
            formula.add_clause(slot[p, h] for h in range(holes))
        for h in range(holes):
            for p1, p2 in itertools.combinations(range(pigeons), 2):
                formula.add_clause((-slot[p1, h], -slot[p2, h]))
        result = solve_formula(formula, time_budget_s=0.2)
        assert result.status == "UNKNOWN"
        assert result.elapsed_s < 5.0

    def test_duplicate_clauses_harmless(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        for _ in range(50):
            formula.add_clause((a, b))
            formula.add_clause((-a, b))
        result = solve_formula(formula)
        assert result.is_sat
        assert result.model[b]

    def test_all_variables_in_model_even_unconstrained(self):
        formula = CnfFormula()
        formula.new_variables(5)
        formula.add_unit(3)
        result = solve_formula(formula)
        assert set(result.model) == {1, 2, 3, 4, 5}
        assert result.model[3] is True

    def test_activity_rescale_keeps_branching_on_the_most_active(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_clause((a, b))
        solver = CdclSolver(formula)
        rescaled = False
        while not rescaled:
            solver._decay_activities()
            before = solver.activity[a]
            solver._bump_variable(a)
            rescaled = solver.activity[a] < before
        while solver.activity[b] <= solver.activity[a]:
            solver._bump_variable(b)
        # a's pre-rescale key must not outrank b's later, larger activity.
        assert solver._pick_branch_variable() == b


def _check_order_heap(solver: CdclSolver) -> None:
    """One live entry per flagged variable, one for every free in-use
    variable, and branching picks the argmax of (activity, -index)."""
    activity = solver.activity
    live = [v for key, v in solver.order_heap if key == -activity[v]]
    assert len(live) == len(set(live))
    assert sum(solver.in_heap) == len(live)
    assert all(solver.in_heap[v] for v in live)
    free = [
        v for v in range(1, solver.num_vars + 1)
        if solver.in_use[v] and solver.assign[v << 1] == 0
    ]
    assert set(free) <= set(live)
    expected = max(free, key=lambda v: (activity[v], -v), default=None)
    # Picking pops the heap; check on a copy so the run can continue.
    assert copy.deepcopy(solver)._pick_branch_variable() == expected


class TestOrderHeapInvariant:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.95, 0.5, 0.1]))
    def test_incremental_calls_keep_the_heap_invariant(self, seed, decay):
        # Four fuzz instances side by side, chained by binaries; units
        # are dropped so most calls search instead of failing at the root.
        rng = random.Random(seed)
        num_vars, clauses = 0, []
        for _ in range(4):
            more_vars, more, _ = _random_instance(rng)
            clauses += [
                tuple(lit + num_vars if lit > 0 else lit - num_vars for lit in c)
                for c in more if len(c) > 1
            ]
            if num_vars:
                clauses.append((rng.randint(1, num_vars),
                                rng.randint(1, more_vars) + num_vars))
            num_vars += more_vars
        formula = CnfFormula()
        formula.new_variables(num_vars)
        formula.add_clauses(clauses)
        solver = CdclSolver(formula, activity_decay=decay)
        _check_order_heap(solver)
        for _ in range(8):
            if rng.random() < 0.3:
                solver.var_inc = 1e101  # the next bump rescales
            used = [v for v in range(1, num_vars + 1) if solver.in_use[v]]
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(used, min(len(used), rng.randint(0, 6)))
            ]
            solver.solve(max_conflicts=rng.randint(1, 20), assumptions=assumptions)
            _check_order_heap(solver)
            solver.add_clause(
                rng.choice((-1, 1)) * rng.randint(1, num_vars) for _ in range(3)
            )
            _check_order_heap(solver)
