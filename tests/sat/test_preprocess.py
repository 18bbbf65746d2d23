"""Preprocessing correctness: equisatisfiability against the DPLL
reference, model reconstruction onto the original formula, and the
frozen-variable contract (assumptions and late clause additions keep
their meaning on the simplified instance)."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    CdclSolver,
    CnfFormula,
    dpll_solve,
    evaluate_formula,
    preprocess,
)
from repro.sat.preprocess import _Simplifier


def _random_formula(seed: int, num_vars: int, num_clauses: int) -> CnfFormula:
    rng = random.Random(seed)
    formula = CnfFormula()
    formula.new_variables(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        formula.add_clause(
            rng.choice([-1, 1]) * rng.randint(1, num_vars) for _ in range(width)
        )
    return formula


class TestEquisatisfiability:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 12), st.integers(1, 50))
    def test_status_matches_dpll(self, seed, num_vars, num_clauses):
        formula = _random_formula(seed, num_vars, num_clauses)
        simplified = preprocess(formula)
        assert CdclSolver(simplified.formula).solve().status == dpll_solve(formula).status

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 12), st.integers(1, 50))
    def test_reconstructed_models_satisfy_original(self, seed, num_vars, num_clauses):
        formula = _random_formula(seed, num_vars, num_clauses)
        simplified = preprocess(formula)
        result = CdclSolver(simplified.formula).solve()
        if result.is_sat:
            full = simplified.reconstruct(result.model)
            assert evaluate_formula(formula, full)

    def test_unsat_shortcircuits(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_unit(a)
        formula.add_clause((-a, b))
        formula.add_unit(-b)
        simplified = preprocess(formula)
        assert simplified.unsat
        assert CdclSolver(simplified.formula).solve().is_unsat
        # The refuted stand-in keeps the variable pool intact.
        assert simplified.formula.num_variables == 2

    def test_variable_pool_preserved(self):
        formula = _random_formula(5, num_vars=9, num_clauses=20)
        simplified = preprocess(formula)
        assert simplified.formula.num_variables == 9


class TestFrozenContract:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(4, 10),
        st.integers(2, 40),
        st.data(),
    )
    def test_assumptions_on_frozen_match_dpll(self, seed, num_vars, num_clauses, data):
        """Assuming frozen literals on the simplified instance must answer
        exactly like adding them as units to the untouched original."""
        formula = _random_formula(seed, num_vars, num_clauses)
        frozen = data.draw(
            st.sets(st.integers(1, num_vars), min_size=1, max_size=num_vars // 2)
        )
        assumptions = [
            variable if data.draw(st.booleans()) else -variable
            for variable in sorted(frozen)
        ]
        simplified = preprocess(formula, frozen=frozen)
        augmented = formula.copy()
        for literal in assumptions:
            augmented.add_clause((literal,))
        expected = dpll_solve(augmented).status
        result = CdclSolver(simplified.formula).solve(assumptions=assumptions)
        assert result.status == expected
        if result.is_sat:
            full = simplified.reconstruct(result.model)
            assert evaluate_formula(formula, full)
            # Frozen variables keep their solver-visible values.
            for literal in assumptions:
                assert full[abs(literal)] is (literal > 0)

    def test_frozen_variables_never_eliminated(self):
        formula = CnfFormula()
        a, b, c = formula.new_variables(3)
        # b is a pure literal and a single-use gate — prime elimination bait.
        formula.add_clause((a, b))
        formula.add_clause((b, c))
        simplified = preprocess(formula, frozen=[b])
        assert not any(
            kind == "elim" and variable == b
            for kind, variable, _ in simplified._records
        )

    def test_root_fixed_frozen_variable_keeps_unit(self):
        """A frozen variable fixed by unit propagation must stay visible as
        a unit clause so a contradicting assumption answers UNSAT."""
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_unit(a)
        formula.add_clause((-a, b))
        simplified = preprocess(formula, frozen=[a, b])
        result = CdclSolver(simplified.formula).solve(assumptions=[-b])
        assert result.is_unsat and result.under_assumptions
        result = CdclSolver(simplified.formula).solve(assumptions=[b])
        assert result.is_sat

    def test_late_blocking_clause_over_frozen_variables(self):
        """Model enumeration over frozen variables agrees with the
        original formula (the descent repair-loop pattern)."""
        formula = _random_formula(17, num_vars=6, num_clauses=10)
        frozen = [1, 2, 3]
        simplified = preprocess(formula, frozen=frozen)
        solver = CdclSolver(simplified.formula)
        seen = set()
        while True:
            result = solver.solve()
            if not result.is_sat:
                break
            full = simplified.reconstruct(result.model)
            assert evaluate_formula(formula, full)
            projection = tuple(full[v] for v in frozen)
            assert projection not in seen
            seen.add(projection)
            solver.add_clause([-v if full[v] else v for v in frozen])
        # Compare against brute force over the original formula.
        expected = set()
        import itertools
        for bits in itertools.product([False, True], repeat=6):
            assignment = {v: bits[v - 1] for v in range(1, 7)}
            if evaluate_formula(formula, assignment):
                expected.add(tuple(assignment[v] for v in frozen))
        assert seen == expected


def _preprocess_full_sweeps(formula, **kwargs):
    """``preprocess`` with every variable re-checked by every elimination
    sweep, the behaviour before dirty tracking."""
    sweep = _Simplifier.eliminate_variables

    def full_sweep(self, occurrence_limit):
        self.dirty[:] = b"\x01" * len(self.dirty)
        return sweep(self, occurrence_limit)

    with mock.patch.object(_Simplifier, "eliminate_variables", full_sweep):
        return preprocess(formula, **kwargs)


class TestDirtyElimination:
    """Elimination only re-checks variables whose clauses changed; the
    result must be exactly what full sweeps produce."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 12), st.integers(1, 50),
           st.data())
    def test_matches_full_sweeps(self, seed, num_vars, num_clauses, data):
        formula = _random_formula(seed, num_vars, num_clauses)
        frozen = data.draw(st.sets(st.integers(1, num_vars), max_size=3))
        dirty = preprocess(formula, frozen=frozen)
        full = _preprocess_full_sweeps(formula, frozen=frozen)
        assert list(dirty.formula.clauses()) == list(full.formula.clauses())
        assert dirty._records == full._records
        assert dirty.stats == full.stats

    # In each CNF, x = 2 survives round 1 (3 x 2 non-tautological
    # resolvents outnumber its 5 clauses).  One round-2 change to x's
    # clauses then makes it eliminable, and nothing else touches them, so
    # x is eliminated only if that change marks it dirty.  Variables from
    # 3 on are frozen.
    @pytest.mark.parametrize("clauses", [
        # Self-subsuming strengthening: eliminating 1 in round 1 yields
        # (3 4 -2), which strengthens (3 4 2 5) to (3 4 5).
        [(1, 3), (-1, 4, -2), (3, 4, 2, 5), (2, 6, 7), (2, 8, 9), (-2, 10, 11)],
        # Subsumption: eliminating 1 in round 1 yields (3 4), which
        # subsumes (3 4 2).
        [(1, 3), (-1, 4), (3, 4, 2), (2, 6, 7), (2, 8, 9), (-2, 10, 11),
         (-2, 5, 6)],
        # Substitution: round 1 strengthens (-1 3 -4) to (-1 3), so round 2
        # substitutes 1 := 3, and (3 2 5) resolves tautologically with
        # (-2 -3 10).
        [(-1, 3, 4), (-1, 3, -4), (1, -3), (1, 2, 5), (1, 13, 14),
         (1, 15, 16), (-1, 17, 18), (2, 6, 7), (2, 8, 9), (-2, -3, 10),
         (-2, 11, 12)],
    ], ids=["strengthening", "subsumption", "substitution"])
    def test_round_two_change_reopens_elimination(self, clauses):
        formula = CnfFormula()
        formula.new_variables(max(abs(lit) for clause in clauses for lit in clause))
        formula.add_clauses(clauses)
        frozen = range(3, formula.num_variables + 1)

        def eliminated(result):
            return [variable for kind, variable, _ in result._records
                    if kind == "elim"]

        assert 2 not in eliminated(preprocess(formula, frozen=frozen, max_rounds=1))
        simplified = preprocess(formula, frozen=frozen)
        assert 2 in eliminated(simplified)
        assert simplified.stats == _preprocess_full_sweeps(formula, frozen=frozen).stats


class TestStats:
    def test_stats_reflect_work(self):
        formula = CnfFormula()
        variables = formula.new_variables(6)
        formula.add_unit(variables[0])                       # fixed
        formula.add_clause((variables[1], variables[2]))
        formula.add_clause((variables[1], variables[2], variables[3]))  # subsumed
        simplified = preprocess(formula)
        stats = simplified.stats
        assert stats.original_clauses == 3
        assert stats.fixed_variables >= 1
        assert stats.simplified_clauses <= stats.original_clauses
        assert "clauses" in stats.summary()

    def test_pure_literal_is_eliminated(self):
        formula = CnfFormula()
        a, b = formula.new_variables(2)
        formula.add_clause((a, b))  # both pure
        simplified = preprocess(formula)
        assert simplified.formula.num_clauses == 0
        model = simplified.reconstruct({})
        assert evaluate_formula(formula, model)

    def test_bounded_elimination_respects_growth_limit(self):
        # A variable with many occurrences on both sides must survive.
        formula = CnfFormula()
        pivot = formula.new_variable()
        others = formula.new_variables(30)
        for other in others[:15]:
            formula.add_clause((pivot, other))
        for other in others[15:]:
            formula.add_clause((-pivot, other))
        simplified = preprocess(formula)
        assert not any(
            kind == "elim" and variable == pivot
            for kind, variable, _ in simplified._records
        )


class TestIdempotence:
    @pytest.mark.parametrize("seed", range(6))
    def test_second_pass_is_stable(self, seed):
        formula = _random_formula(seed, num_vars=10, num_clauses=30)
        once = preprocess(formula)
        twice = preprocess(once.formula)
        assert twice.formula.num_clauses <= once.formula.num_clauses
        assert (
            CdclSolver(twice.formula).solve().status
            == CdclSolver(once.formula).solve().status
        )
