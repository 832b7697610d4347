"""PDE-suite tests: the four family solvers, the residual harness with its
finite-difference cross-check, exact transform-domain identities, tail
bounds against extended partial sums, and exact rational profiles."""

import functools
import math
import random
import struct
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from l2transform import (
    Convention, EXP_HALF, Family, GExpr, GTerm, GridDomainError, LPoly, algebra,
    classify_exact, default_grid, evaluate, lpoly, profile_gexpr, residual,
    solve_family_a, solve_family_b, solve_family_c, solve_family_d,
    star_power, truncation_bound,
)
from l2transform import pde

from support import (
    eager_fold, exponential_series_identity, finite_difference_reference, log_abs_envelope,
    pole_profiles, rand_fraction, term_value,
)

GRID = default_grid()
SMALL_GRID = default_grid(0.2, 2, 4, 0.5, 2, 4)
M_ONE = lpoly({0: 1})
M_T = lpoly({1: 1})
M_2T = lpoly({1: 2})
M_1PT = lpoly({0: 1, 1: 1})
RATIOS = (M_ONE, lpoly({0: 1, 1: F(1, 3)}), lpoly({0: F(-2, 3), 2: F(5, 7), 3: 1}))

VARIANTS = {
    "A": lambda ratio, n: solve_family_a(n),
    "B-derived": lambda ratio, n: solve_family_b(ratio, n),
    "B-paper": lambda ratio, n: solve_family_b(ratio, n, Convention.PAPER_LITERAL),
    "C-derived": lambda ratio, n: solve_family_c(ratio, n),
    "C-paper": lambda ratio, n: solve_family_c(ratio, n, Convention.PAPER_LITERAL),
    "D": lambda ratio, n: solve_family_d(ratio, n),
}


@functools.lru_cache(maxsize=64)
def _solution(variant: str, ratio: LPoly, depth: int):
    return VARIANTS[variant](ratio, depth)


def _bits(f, *args):
    """f(*args) as its IEEE-754 bytes, or the type of the error it raised."""
    try:
        return struct.pack("<d", f(*args))
    except ArithmeticError as error:
        return type(error)


class TestLPoly:
    def test_canonical_drops_zeros(self):
        p = LPoly(((2, F(0)), (0, F(1)), (0, F(2))))
        assert p.coefficients == ((0, F(3)),)

    def test_antiderivative_vanishes_at_zero(self):
        p = lpoly({0: 3, 2: 1})
        ap = p.antiderivative()
        assert ap == lpoly({1: 3, 3: F(1, 3)})
        assert ap.evaluate_exact(F(0)) == 0

    def test_boolean_degrees_rejected(self):
        for build in (lambda: LPoly(((True, F(1)),)), lambda: lpoly({True: 1})):
            with pytest.raises(ValueError):
                build()

    def test_evaluate(self):
        p = lpoly({1: 2})
        assert p.evaluate(1.5) == 3.0
        assert p.evaluate_exact(F(3, 2)) == 3

    def test_cached_evaluate_is_the_fraction_sum(self):
        # the float coefficients are cached per LPoly; the sum keeps its order
        rng = random.Random(11)
        for _ in range(40):
            p = lpoly({d: rand_fraction(rng, -9, 9, max_den=13)
                       for d in rng.sample(range(12), rng.randint(1, 6))})
            for t in (0.0, 0.37, 1.0, 2.5, 17.0):
                expected = sum(float(c) * t ** d for d, c in p.coefficients)
                assert p.evaluate(t) == expected
                assert p.evaluate(t) == expected
            assert p == LPoly(p.coefficients) and hash(p) == hash(LPoly(p.coefficients))


def _series_a_partial_sum(depth: int) -> float:
    # independent oracle: exact partial sum of (1/2)^n / (n!)^2
    total = F(0)
    for n in range(depth + 1):
        total += F(1, 2) ** n / math.factorial(n) ** 2
    return float(total)


class TestFamilyA:
    def test_value_on_axis(self):
        sol = solve_family_a(30)
        for t in (0.5, 1.0, 1.7):
            assert sol.value(0.0, t) == 1.0

    def test_value_at_one_one(self):
        sol = solve_family_a(30)
        oracle = _series_a_partial_sum(30)
        assert oracle == pytest.approx(1.5660829297563503, abs=1e-15)
        assert abs(sol.value(1.0, 1.0) - oracle) <= 1e-12

    def test_residual_small_on_default_grid(self):
        rep = residual(pde.PDEProblem(Family.A), solve_family_a(30), GRID)
        assert rep.max_abs <= 1e-10
        assert rep.fd_max_deviation <= 1e-4

    def test_residual_decreases_geometrically(self):
        r10 = residual(pde.PDEProblem(Family.A), solve_family_a(10), GRID).max_abs
        r20 = residual(pde.PDEProblem(Family.A), solve_family_a(20), GRID).max_abs
        assert r20 * 10 <= r10

    def test_residual_is_the_boundary_term(self):
        # truncating at N leaves exactly 2 c_N x^(2N+1) t^(-2N)
        sol = solve_family_a(6)
        x, t = 2.0, 0.7
        rep = residual(sol.problem, sol, [(x, t)])
        expected = 2 * float(F(1, 2) ** 6 / math.factorial(6) ** 2) * x ** 13 * t ** -12
        assert rep.exact[0] == pytest.approx(expected, rel=1e-6)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            solve_family_a(0)

    @pytest.mark.parametrize("solve", [
        solve_family_a,
        lambda depth: solve_family_b(lpoly({0: 1}), depth),
        lambda depth: solve_family_c(lpoly({0: 1}), depth),
        lambda depth: solve_family_d(lpoly({0: 1}), depth),
    ])
    def test_boolean_depth_rejected(self, solve):
        with pytest.raises(ValueError):
            solve(True)


class TestFamilyB:
    def test_zero_ratio_is_constant_one(self):
        sol = solve_family_b(lpoly({}), 10)
        for x, t in ((0.3, 0.5), (1.0, 1.0), (2.0, 1.7)):
            assert sol.value(x, t) == 1.0
        rep = residual(sol.problem, sol, GRID)
        assert rep.max_abs == 0.0

    def test_derived_residual_m_one(self):
        sol = solve_family_b(M_ONE, 40)
        rep = residual(sol.problem, sol, GRID)
        assert rep.max_abs <= 1e-8
        assert rep.fd_max_deviation <= 1e-4

    def test_derived_residual_m_one_square_grid(self):
        sol = solve_family_b(M_ONE, 40)
        square = default_grid(0.2, 2.0, 10, 0.2, 2.0, 10)
        assert residual(sol.problem, sol, square).max_abs <= 1e-8

    def test_derived_residual_other_ratios(self):
        for m in (M_T, M_2T, M_1PT):
            sol = solve_family_b(m, 40)
            rep = residual(sol.problem, sol, GRID)
            assert rep.max_abs <= 1e-8

    def test_transform_identity_battery(self):
        for m in (M_ONE, M_T, M_2T, M_1PT):
            assert exponential_series_identity(m, 12)

    def test_transform_identity_random_polynomials(self):
        rng = random.Random(123)
        for _ in range(10):
            coeffs = {d: F(rng.randint(-5, 5), rng.randint(1, 3))
                      for d in range(rng.randint(1, 4))}
            assert exponential_series_identity(lpoly(coeffs), 8)

    def test_literal_reproduces_double_series(self):
        # oracle: the printed product of two sums, each taken to convergence
        def printed(mm: float, x: float) -> float:
            s1 = sum(mm ** n * x ** (2 * n) / (math.factorial(n) ** 2 * 2.0 ** (n - 1))
                     for n in range(60))
            s2 = sum(mm ** n / (2.0 * math.factorial(n)) for n in range(60))
            return s1 * s2

        sol = solve_family_b(M_ONE, 40, Convention.PAPER_LITERAL)
        assert sol.value(1.0, 1.0) == pytest.approx(printed(1.0, 1.0), rel=1e-13)
        sol_t = solve_family_b(M_T, 40, Convention.PAPER_LITERAL)
        assert sol_t.value(1.0, 1.2) == pytest.approx(printed(0.72, 1.0), rel=1e-13)

    def test_literal_fd_agreement(self):
        sol = solve_family_b(M_ONE, 30, Convention.PAPER_LITERAL)
        rep = residual(sol.problem, sol, GRID)
        assert rep.fd_max_deviation <= 1e-4


class TestFamilyC:
    def test_frozen_ratio_series_values(self):
        # with H = 1 and t = 1 the printed series is
        # 1 + sum x^(2n-2) e^(x^2/2) / (n! 2^(n-1) (n-1)!)
        sol = solve_family_c(M_ONE, 40, Convention.PAPER_LITERAL)
        for x in (0.0, 0.5, 1.0, 2.0):
            oracle = 1.0 + sum(
                x ** (2 * n - 2) * math.exp(x * x / 2)
                / (math.factorial(n) * 2.0 ** (n - 1) * math.factorial(n - 1))
                for n in range(1, 41)
            )
            assert sol.value(x, 1.0) == pytest.approx(oracle, rel=1e-13)

    def test_axis_value_is_one_plus_signed_antiderivative(self):
        lit = solve_family_c(M_ONE, 40, Convention.PAPER_LITERAL)
        der = solve_family_c(M_ONE, 40, Convention.DERIVED)
        for t in (0.25, 1.0, 1.5):
            assert lit.value(0.0, t) == pytest.approx(1.0 + t, rel=1e-14)
            assert der.value(0.0, t) == pytest.approx(1.0 - t, rel=1e-14)

    def test_term_two_is_scaled_star_power(self):
        sol = solve_family_c(M_ONE, 6, Convention.PAPER_LITERAL)
        t0 = F(3, 2)
        hh = sol.problem.ratio.antiderivative().evaluate_exact(t0)
        term = algebra.scale(sol.star_part(2), hh ** 2 / 2)
        assert sol.star_part(2) == star_power(EXP_HALF, 2)
        assert term == algebra.gaussian("1/2", c=hh ** 2 / 4, k=1)
        assert term_value(sol, 2, 1.3, float(t0)) == pytest.approx(
            evaluate(term, 1.3), rel=1e-14)

    def test_star_part_consistency(self):
        sol = solve_family_c(M_T, 6)
        for n in range(1, 7):
            assert sol.star_part(n) == star_power(EXP_HALF, n)

    def test_star_part_refusals(self):
        sol = solve_family_c(M_T, 6)
        for n in (0, 7):
            with pytest.raises(ValueError, match="1 <= n <= depth"):
                sol.star_part(n)
        with pytest.raises(ValueError, match="unfolded series"):
            solve_family_b(M_ONE, 6, Convention.PAPER_LITERAL).star_part(1)

    def test_transform_identity_battery(self):
        for h in (M_ONE, M_T, M_2T, M_1PT):
            assert exponential_series_identity(h, 10)

    def test_derived_residual_equals_ratio(self):
        # the retained unit term contributes exactly H(t); everything else
        # cancels, so the derived residual is H(t) up to truncation noise
        for h in (M_ONE, M_2T):
            sol = solve_family_c(h, 40)
            rep = residual(sol.problem, sol, GRID)
            for (x, t), r in zip(rep.points, rep.exact):
                assert r == pytest.approx(h.evaluate(t), abs=1e-9)

    def test_literal_residual_reported_nonzero(self):
        sol = solve_family_c(M_ONE, 40, Convention.PAPER_LITERAL)
        rep = residual(sol.problem, sol, GRID)
        assert rep.max_abs > 0.1
        assert rep.fd_max_deviation <= 1e-4
        assert sol.metadata["has_impulse_content"] is True

    def test_both_conventions_fd_agreement(self):
        for conv in Convention:
            sol = solve_family_c(M_ONE, 40, conv)
            rep = residual(sol.problem, sol, GRID)
            assert rep.fd_max_deviation <= 1e-4


class TestValue:
    def test_value_is_the_jet_while_t_alternates(self):
        sol = solve_family_c(M_1PT, 30, Convention.PAPER_LITERAL)
        for t in (1.0, 0.5, 1.0, 1.0, 2.0, 0.5):
            for x in (0.0, 0.7, 1.3):
                assert sol.value(x, t) == sol.at(t)(x)[0]

    def test_one_collapse_per_t(self, monkeypatch):
        sol = solve_family_c(M_ONE, 60, Convention.PAPER_LITERAL)
        collapse, calls = sol._table.collapse, []

        def counted(tau):
            calls.append(tau)
            return collapse(tau)

        monkeypatch.setattr(sol._table, "collapse", counted)
        for i in range(40):
            sol.value(0.5 + 0.1 * i, 1.0)
        assert len(calls) == 1

    @settings(max_examples=300, deadline=None)
    @given(variant=st.sampled_from(sorted(VARIANTS)), ratio=st.sampled_from(RATIOS),
           depth=st.integers(1, 40), x=st.one_of(st.just(0.0), st.floats(0, 3)),
           t=st.floats(0, 3, exclude_min=True))
    # tau = t^-2 is a float there, its derivative -2 t^-3 is not
    @example(variant="A", ratio=RATIOS[0], depth=1, x=0.0, t=1.6437131629938158e-140)
    def test_value_path_is_the_jet_bit_for_bit(self, variant, ratio, depth, x, t):
        sol = _solution(variant, ratio, depth)
        assert _bits(sol.value, x, t) == _bits(lambda x, t: sol.at(t)(x)[0], x, t)

    def test_jet_keeps_u_where_only_tau_prime_overflows(self):
        sol, t = solve_family_a(1), 1e-140  # tau = t^-2 is a float, -2 t^-3 is not
        u, u_t, u_x, u_xt = sol.at(t)(0.0)
        assert (u, u_x) == (sol.value(0.0, t), 0.0)
        assert math.isnan(u_t) and math.isnan(u_xt)


class TestFamilyD:
    def test_zero_ratio(self):
        sol = solve_family_d(lpoly({}))
        assert sol.value(1.0, 2.0) == 1.0
        assert residual(sol.problem, sol, GRID).max_abs == 0.0

    def test_constant_ratio(self):
        sol = solve_family_d(M_ONE)
        assert sol.value(0.7, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        rep = residual(sol.problem, sol, GRID)
        assert rep.max_abs <= 1e-13

    def test_linear_ratio(self):
        sol = solve_family_d(M_2T)
        assert sol.value(1.0, 1.5) == pytest.approx(math.exp(-2.25), rel=1e-14)
        rep = residual(sol.problem, sol, GRID)
        assert rep.max_abs <= 1e-12
        assert rep.fd_max_deviation <= 1e-4


class TestResidualHarness:
    def test_rejects_nonpositive_grid(self):
        sol = solve_family_a(5)
        with pytest.raises(GridDomainError):
            residual(sol.problem, sol, [(0.0, 1.0)])
        with pytest.raises(GridDomainError):
            residual(sol.problem, sol, [(1.0, -0.5)])

    def test_rejects_points_within_the_fd_step_of_the_axes(self):
        # the central differences would evaluate the candidate at x - h or
        # t - h, outside the quadrant
        sol = solve_family_a(5)
        for point in ((pde.FD_STEP, 1.0), (1.0, pde.FD_STEP / 2)):
            with pytest.raises(GridDomainError):
                residual(sol.problem, sol, [point])
        rep = residual(sol.problem, sol, [(2 * pde.FD_STEP, 1.0)])
        assert len(rep.exact) == 1

    def test_default_grid_preconditions(self):
        for bounds in ((0.0, 2.0, 0.5, 2.0), (0.1, 2.0, 0.0, 1.0), (-1.0, 2.0, 0.5, 2.0),
                       (0.1, 2.0, math.nan, 1.0), (0.1, math.nan, 0.5, 1.0),
                       (0.1, math.inf, 0.5, 2.0), (0.1, 2.0, 0.5, math.inf)):
            x_lo, x_hi, t_lo, t_hi = bounds
            with pytest.raises(GridDomainError):
                default_grid(x_lo, x_hi, 2, t_lo, t_hi, 2)
        for nx, nt in ((0, 2), (2, -3), (True, 2), (2, True), (2.5, 2), (2, 2.5)):
            with pytest.raises(ValueError):
                default_grid(0.5, 2.0, nx, 0.5, 1.0, nt)
        assert default_grid(0.5, 2.0, 1, 0.5, 1.0, 1) == [(0.5, 0.5)]

    def test_rejects_family_mismatch(self):
        with pytest.raises(ValueError):
            residual(pde.PDEProblem(Family.A), solve_family_d(M_ONE), GRID)
        # same family, another equation: another ratio, or another convention
        sol = solve_family_b(M_ONE, 5)
        for problem in (pde.PDEProblem(Family.B, M_2T, Convention.DERIVED),
                        pde.PDEProblem(Family.B, M_ONE, Convention.PAPER_LITERAL),
                        pde.PDEProblem(Family.B, M_ONE)):
            with pytest.raises(ValueError):
                residual(problem, sol, GRID)
        assert residual(pde.PDEProblem(Family.B, lpoly({0: 1}), Convention.DERIVED),
                        sol, GRID) == residual(sol.problem, sol, GRID)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_stencil_equals_the_jet_reference(self, variant):
        for ratio in RATIOS:
            for depth in (1, 5, 12, 40):
                sol = _solution(variant, ratio, depth)
                rep = residual(sol.problem, sol, SMALL_GRID)
                assert rep.finite_difference == finite_difference_reference(sol, SMALL_GRID)

    def test_one_jet_per_point_and_one_collapse_per_time(self, monkeypatch):
        sol = solve_family_b(M_1PT, 12)
        calls = {"collapse": [], "collapse_jet": [], "jet": []}

        def counted(name, f):
            def wrapper(arg):
                calls[name].append(arg)
                return f(arg)
            return wrapper

        for name in ("collapse", "collapse_jet"):
            monkeypatch.setattr(sol._table, name, counted(name, getattr(sol._table, name)))
        at = sol.at
        monkeypatch.setattr(sol, "at", lambda t: counted("jet", at(t)))
        rep = residual(sol.problem, sol, SMALL_GRID)
        h = pde.FD_STEP
        times = {t for _, t in SMALL_GRID}
        assert len(calls["collapse_jet"]) == len(times)
        assert len(calls["collapse"]) == len({s for t in times for s in (t - h, t, t + h)})
        assert len(calls["jet"]) == len(rep.points)

    def test_family_a_metadata_records_side_condition(self):
        assert "side_condition" in solve_family_a(5).metadata

    def test_maxima_are_nan_whenever_a_point_is_nan(self):
        # at x = 37.5 family C's Horner sums overflow to inf and inf - inf
        # gives NaN; the maxima must not depend on where in the grid it sits
        sol = solve_family_c(M_ONE, 12)
        grid = default_grid(36, 37.5, 2, 0.5, 1, 2)
        for order in (grid, grid[::-1]):
            rep = residual(sol.problem, sol, order)
            assert any(map(math.isnan, rep.exact))
            assert math.isnan(rep.max_abs) and math.isnan(rep.fd_max_deviation)

    def test_fd_agreement_every_family(self):
        sols = [
            solve_family_a(20),
            solve_family_b(M_ONE, 20),
            solve_family_b(M_ONE, 20, Convention.PAPER_LITERAL),
            solve_family_c(M_ONE, 20),
            solve_family_c(M_ONE, 20, Convention.PAPER_LITERAL),
            solve_family_d(M_2T),
        ]
        for sol in sols:
            rep = residual(sol.problem, sol, GRID)
            assert rep.fd_max_deviation <= 1e-4


class TestTruncationIncrement:
    CASES = [
        lambda n: solve_family_a(n),
        lambda n: solve_family_b(M_T, n),
        lambda n: solve_family_b(M_T, n, Convention.PAPER_LITERAL),
        lambda n: solve_family_c(M_T, n),
        lambda n: solve_family_c(M_T, n, Convention.PAPER_LITERAL),
    ]

    @pytest.mark.parametrize("make", CASES)
    def test_depth_step_adds_exactly_one_term(self, make):
        lo, hi = make(12), make(13)
        for x, t in ((0.5, 0.8), (1.5, 1.2), (2.0, 0.6)):
            diff = hi.value(x, t) - lo.value(x, t)
            term = term_value(hi, 13, x, t)
            scale = max(1.0, abs(lo.value(x, t)))
            assert abs(diff - term) <= 1e-12 * scale


class TestTruncationBound:
    def test_family_a_bound(self):
        sol = solve_family_a(30)
        bound = truncation_bound(sol, 2.0, (0.5, 2.0))
        assert bound <= 1e-12
        # oracle: extended partial sums of the majorant terms, accumulated
        # by term ratios so large factorials never leave float range
        r = 2.0 ** 2 / (2 * 0.5 ** 2)
        term = r ** 31 / math.factorial(31) ** 2
        tail = 0.0
        for n in range(31, 231):
            tail += term
            term *= r / (n + 1) ** 2
        assert bound >= tail

    def test_family_a_bound_decreases(self):
        bounds = [truncation_bound(solve_family_a(n), 2.0, (0.5, 2.0))
                  for n in (10, 20, 30)]
        assert bounds[0] > bounds[1] > bounds[2] > 0

    def test_family_c_bound(self):
        sol = solve_family_c(M_ONE, 25, Convention.PAPER_LITERAL)
        bound = truncation_bound(sol, 2.0, (0.5, 1.0))
        assert bound <= 1e-10
        hbar, xm2 = 1.0, 4.0
        term = hbar ** 26 * xm2 ** 25 * math.exp(2.0) \
            / (math.factorial(26) * 2.0 ** 25 * math.factorial(25))
        tail = 0.0
        for n in range(26, 226):
            tail += term
            term *= hbar * xm2 / (2.0 * (n + 1) * n)
        assert bound >= tail

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_bounds_cover_extended_sums(self, variant):
        # the bound at depth n against terms n+1..n+100 of the depth-(n+100)
        # series, at the corners and midpoints of each box
        t_ranges = [(0.5, 2.0)] if variant == "A" else [(0.5, 2.0), (0.0, 1.0)]
        for ratio in RATIOS:
            for depth in (3, 12):
                sol, longer = VARIANTS[variant](ratio, depth), VARIANTS[variant](ratio, depth + 100)
                for x_max in (0.0, 0.5, 2.0):
                    for t_lo, t_hi in t_ranges:
                        bound = truncation_bound(sol, x_max, (t_lo, t_hi))
                        for x in (0.0, x_max / 2, x_max):
                            for t in (t_lo, (t_lo + t_hi) / 2, t_hi):
                                tail = sum(abs(term_value(longer, n, x, t))
                                           for n in range(depth + 1, depth + 101))
                                assert bound >= tail, (variant, ratio, depth, x_max, x, t)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_deep_truncations_stay_finite(self, variant):
        # every factorial of the majorant stays out of float range
        for ratio in RATIOS:
            for depth in (99, 120, 200):
                sol = VARIANTS[variant](ratio, depth)
                for x_max, t_range in ((2.0, (0.5, 2.0)), (3.0, (1.0, 3.0))):
                    assert 0.0 <= truncation_bound(sol, x_max, t_range) < math.inf

    def test_prefactor_past_float_range_is_inf(self):
        # e^(tau_bar) for B-derived, e^(x_max^2 / 2) for C: past exp's range
        assert truncation_bound(solve_family_b(M_1PT, 12), 2.0, (0.5, 40.0)) == math.inf
        assert truncation_bound(solve_family_c(M_ONE, 12), 40.0, (0.5, 1.0)) == math.inf
        assert truncation_bound(solve_family_b(M_1PT, 12), 0.0, (0.5, 40.0)) == 0.0

    @pytest.mark.parametrize("solve, t_range", [
        (lambda: solve_family_a(10), (1e-200, 1.0)),
        (lambda: solve_family_b(M_1PT, 10), (0.5, 1e200)),
        (lambda: solve_family_b(M_1PT, 10, Convention.PAPER_LITERAL), (0.5, 1e200)),
        (lambda: solve_family_c(M_1PT, 10), (0.5, 1e200)),
        (lambda: solve_family_b(lpoly({0: 3}), 5), (0.5, 1e308)),
    ], ids=["A", "B-derived", "B-paper", "C-derived", "B-derived-rounded"])
    def test_tau_bar_past_float_range_is_inf(self, solve, t_range):
        # tau_bar = t_lo^-2 for A, t_hi + t_hi^2 / 2 for the others; 3 t_hi for
        # M = 3 rounds to inf without an OverflowError
        assert truncation_bound(solve(), 2.0, t_range) == math.inf

    @pytest.mark.parametrize("solve, x_max, t_range", [
        (lambda: solve_family_d(M_1PT, 10), 2.0, (0.5, 1e200)),
        (lambda: solve_family_d(lpoly({0: 3}), 5), 2.0, (0.5, 1e308)),
        (lambda: solve_family_b(M_1PT, 10), 0.0, (0.5, 1e200)),
    ], ids=["D", "D-rounded", "B-derived-at-x-zero"])
    def test_vanishing_tail_is_zero_past_float_range(self, solve, x_max, t_range):
        # D drops no term (k1 = 0), and at x_max = 0 every dropped term of an
        # unfolded row is zero, so tau_bar past float range does not matter
        assert truncation_bound(solve(), x_max, t_range) == 0.0

    def test_geometric_tail_stops_at_inf(self):
        # the folded row's ratio r / (q + 1) with r = inf, as for x_max^2 = inf
        calls = []

        def ratio(q):
            calls.append(q)
            return math.inf

        assert pde._geometric_tail(1.0, ratio, 0, 11) == math.inf
        assert len(calls) < 20

    def test_family_d_bound_is_zero(self):
        assert truncation_bound(solve_family_d(M_ONE), 2.0, (0.5, 2.0)) == 0.0

    @pytest.mark.parametrize("x_max, t_range", [
        (2.0, (-3.0, -1.0)), (2.0, (-1.0, 1.0)), (2.0, (2.0, 1.0)), (-1.0, (0.5, 2.0)),
        (math.nan, (0.5, 2.0)), (2.0, (math.nan, 2.0)), (2.0, (0.5, math.nan)),
    ])
    @pytest.mark.parametrize("solve", [
        lambda: solve_family_a(10),
        lambda: solve_family_b(M_ONE, 10, Convention.DERIVED),
        lambda: solve_family_b(M_ONE, 10, Convention.PAPER_LITERAL),
        lambda: solve_family_c(M_ONE, 10, Convention.DERIVED),
        lambda: solve_family_d(M_ONE),
    ], ids=["A", "B-derived", "B-paper", "C-derived", "D"])
    def test_box_outside_the_quadrant_rejected(self, solve, x_max, t_range):
        # below t = 0 the coefficient bound sum |c_d| t_hi**d is no bound,
        # and families B and C used to return negative "upper bounds"
        with pytest.raises(ValueError):
            truncation_bound(solve(), x_max, t_range)

    def test_box_may_touch_t_zero_except_for_family_a(self):
        assert truncation_bound(solve_family_b(M_ONE, 10), 2.0, (0.0, 1.0)) > 0
        assert truncation_bound(solve_family_c(M_ONE, 10), 0.0, (0.0, 0.0)) >= 0
        with pytest.raises(ValueError):
            truncation_bound(solve_family_a(10), 2.0, (0.0, 1.0))


class TestProfiles:
    def test_family_a_profile(self):
        sol = solve_family_a(5)
        prof = profile_gexpr(sol, F(1, 2))
        expected = GExpr()
        for n in range(6):
            c = F(1, 2) ** n / math.factorial(n) ** 2 * 4 ** n
            expected = expected + algebra.monomial(c, n)
        assert prof == expected
        assert evaluate(prof, 1.3) == pytest.approx(sol.value(1.3, 0.5), rel=1e-13)

    def test_family_c_profile(self):
        sol = solve_family_c(M_ONE, 8, Convention.PAPER_LITERAL)
        prof = profile_gexpr(sol, F(1))
        assert classify_exact(prof).exact_rate == F(1, 2)
        for x in (0.4, 1.0, 2.2):
            assert evaluate(prof, x) == pytest.approx(sol.value(x, 1.0), rel=1e-13)

    def test_family_b_paper_profile(self):
        # oracle: the coefficient of x^(2i) is
        # sum_{i <= p <= N} MM^p / ((i!)^2 2^i (p-i)!), exactly
        depth, t0 = 8, F(3, 2)
        sol = solve_family_b(M_1PT, depth, Convention.PAPER_LITERAL)
        prof = profile_gexpr(sol, t0)
        mm = t0 + t0 ** 2 / 2
        f = math.factorial
        expected = GExpr()
        for i in range(depth + 1):
            c = sum(mm ** p / (f(i) ** 2 * 2 ** i * f(p - i)) for p in range(i, depth + 1))
            expected = expected + algebra.monomial(c, i)
        assert prof == expected
        for x in (0.3, 1.0, 2.0):
            assert evaluate(prof, x) == pytest.approx(sol.value(x, float(t0)), rel=1e-13)

    def test_profile_rejects_exponential_prefactor_families(self):
        with pytest.raises(ValueError):
            profile_gexpr(solve_family_b(M_ONE, 5), F(1))
        with pytest.raises(ValueError):
            profile_gexpr(solve_family_d(M_ONE), F(1))

    def test_family_a_profile_needs_positive_time(self):
        with pytest.raises(ValueError):
            profile_gexpr(solve_family_a(5), F(0))


def _weighted_series(sol, weights) -> GExpr:
    """sum_n w_n X_n over the solution's exact profiles."""
    return GExpr(tuple(GTerm(term.c * w, term.k, term.a)
                       for w, profile in zip(weights, sol.profiles) for term in profile.terms))


class TestJet:
    """`at(t0)(x)` against the exact algebra: S = sum tau^n X_n, its
    tau-derivative, and delta_x of both, built exactly at rational t0 and
    then evaluated in floats, within 1e-12 of their term-wise envelopes."""

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    @pytest.mark.parametrize("t0", [F(1, 2), F(1), F(3, 2)])
    def test_jet_matches_the_exact_algebra(self, name, t0):
        sol = _solution(name, M_1PT, 12)
        tau = sol.problem.tau.exact(t0)
        tau_t = -2 / t0 ** 3 if sol.problem.ratio is None else sol.problem.ratio.evaluate_exact(t0)
        orders = range(len(sol.profiles))
        s = _weighted_series(sol, [tau ** n for n in orders])
        s_tau = _weighted_series(sol, [n * tau ** (n - 1) if n else 0 for n in orders])
        if sol.prefactor:
            # u = e^(-tau) S, so u_t = tau' e^(-tau) (S_tau - S)
            p, s_tau = math.exp(-float(tau)), s_tau - s
        else:
            p = 1.0
            assert s == profile_gexpr(sol, t0)
        oracles = (s, algebra.scale(s_tau, tau_t),
                   algebra.delta_x(s), algebra.scale(algebra.delta_x(s_tau), tau_t))
        jet = sol.at(float(t0))
        for x in (0.3, 1.0, 1.7, 2.5):
            for got, g, w in zip(jet(x), oracles, (1.0, 1.0, x, x)):
                envelope = math.exp(log_abs_envelope(g, x)) if g else 0.0
                assert abs(got - p * w * evaluate(g, x)) <= 1e-12 * p * w * envelope


def _closed_form_profiles(variant: str, depth: int) -> tuple[GExpr, ...]:
    """The x-profiles X_n of u = P(t) sum_n tau^n X_n, read off the closed
    forms of the README's family table (A, B-derived, C, D) and of the
    paper conventions (exponent data with the opposite sign; B-paper's
    exp(+MM) multiplied into the series and summed by total order p)."""
    f = math.factorial
    orders = range(depth + 1)
    if variant == "A":        # sum (1/2)^n x^(2n) / (t^(2n) (n!)^2)
        return tuple(algebra.monomial(F(1, 2 ** n * f(n) ** 2), n) for n in orders)
    if variant == "B-derived":  # exp(-MM) sum (-MM/2)^n x^(2n) / (n!)^2
        return tuple(algebra.monomial(F(-1, 2) ** n / f(n) ** 2, n) for n in orders)
    if variant == "B-paper":  # sum_p MM^p sum_{i<=p} x^(2i) / ((i!)^2 2^i (p-i)!)
        return tuple(sum((algebra.monomial(F(1, f(i) ** 2 * 2 ** i * f(p - i)), i)
                          for i in range(p + 1)), GExpr()) for p in orders)
    if variant in ("C-derived", "C-paper"):
        # 1 + sum (sign HH)^n / n! p_n(x), p_n = x^(2n-2) e^(x^2/2) / (2^(n-1) (n-1)!)
        sign = -1 if variant == "C-derived" else 1
        return (algebra.constant(1),) + tuple(
            algebra.gaussian(F(1, 2), F(sign ** n, f(n) * 2 ** (n - 1) * f(n - 1)), n - 1)
            for n in orders[1:])
    return (algebra.constant(1),)  # D: exp(-MM), x-free


class TestClosedForms:
    """Every variant's profiles, time variable and prefactor against its
    closed form, structurally, at every depth from 1 to 40."""

    PREFACTOR = {"B-derived", "D"}  # P = exp(-MM); P = 1 for the others

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_profiles_are_the_closed_forms(self, variant):
        t0 = F(3, 2)
        tau0 = t0 ** -2 if variant == "A" else t0 + t0 ** 2 / 2  # t^-2, or MM for M = 1 + t
        for depth in range(1, 41):
            sol = VARIANTS[variant](M_1PT, depth)
            assert sol.depth == depth
            assert sol.profiles == _closed_form_profiles(variant, depth), (variant, depth)
            assert bool(sol.prefactor) == (variant in self.PREFACTOR)
            assert sol.problem.tau.exact(t0) == tau0


def _float_table(profiles: tuple[GExpr, ...]) -> list:
    """The layout of `_HornerTable.rates` for S = sum_n tau^n X_n, read off
    exact profiles: per rate ascending, per y-power k from the highest down,
    (lowest tau-power, float(c) from the highest tau-power down, 0.0 where
    X_n has no term at k)."""
    slots: dict = {}
    for n, profile in enumerate(profiles):
        for t in profile.terms:
            slots.setdefault(t.a, {}).setdefault(t.k, {})[n] = float(t.c)
    rates = []
    for a, polys in sorted(slots.items()):
        rows = []
        for k in range(max(polys), -1, -1):
            poly = polys.get(k, {0: 0.0})
            low = min(poly)
            rows.append((low, tuple(poly.get(n, 0.0) for n in range(max(poly), low - 1, -1))))
        rates.append((float(a), tuple(rows)))
    return rates


def _ieee(rates: list) -> list:
    """A float table with every float replaced by its IEEE-754 bytes."""
    return [(struct.pack("<d", a), tuple((low, tuple(struct.pack("<d", c) for c in coeffs))
                                         for low, coeffs in rows))
            for a, rows in rates]


class TestProfileBuilder:
    """`solve`'s closed-form profiles and its float table against the slow
    transform-domain route: pole, inverse, and an eager exact fold."""

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_profiles_are_the_pole_inverse_oracle(self, variant):
        for ratio in RATIOS:
            for depth in range(1, 41):
                sol = VARIANTS[variant](ratio, depth)
                oracle = pole_profiles(sol.problem, depth)
                assert sol._profiles == oracle, (variant, ratio, depth)
                assert sol.profiles == eager_fold(sol.problem, oracle), (variant, ratio, depth)

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_table_is_the_float_of_the_eager_fold(self, variant):
        for ratio in RATIOS:
            for depth in (1, 5, 12, 40):
                sol = VARIANTS[variant](ratio, depth)
                folded = eager_fold(sol.problem, pole_profiles(sol.problem, depth))
                assert _ieee(sol._table.rates) == _ieee(_float_table(folded)), (variant, depth)

    def test_float_paths_leave_the_exact_fold_unbuilt(self):
        sol = solve_family_b(M_1PT, 40, Convention.PAPER_LITERAL)
        residual(sol.problem, sol, SMALL_GRID)
        sol.value(0.7, 1.1)
        sol.at(1.3)(0.4)
        assert "profiles" not in sol.__dict__
        assert sol.profiles == _closed_form_profiles("B-paper", 40)
        assert "profiles" in sol.__dict__


class TestProblem:
    def test_family_a_rejects_ratio(self):
        with pytest.raises(ValueError):
            pde.PDEProblem(Family.A, M_ONE)

    def test_ratio_families_require_ratio(self):
        with pytest.raises(ValueError):
            pde.PDEProblem(Family.B)

    @pytest.mark.parametrize("family, ratio", [(Family.A, None), (Family.D, M_ONE)])
    def test_paper_convention_needs_a_row_that_carries_one(self, family, ratio):
        with pytest.raises(ValueError, match="no paper convention"):
            pde.solve(family, ratio, 3, Convention.PAPER_LITERAL)
        with pytest.raises(ValueError, match="no paper convention"):
            pde.PDEProblem(family, ratio, Convention.PAPER_LITERAL)
        assert pde.solve(family, ratio, 3, Convention.DERIVED).problem.convention is None

    def test_describe(self):
        assert "t^3" in pde.PDEProblem(Family.A).row.text
        assert "u_t" in pde.PDEProblem(Family.D, M_ONE).row.text
