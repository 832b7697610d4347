"""Numeric-oracle tests: known integral values, divergence detection,
truncation-cutoff behavior, the failure path, the G10/K21 rule itself and
its agreement with scipy's QUADPACK (a test-only dependency)."""

import math
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from l2transform import (
    DivergentIntegralError, GExpr, QuadratureFailureError,
    algebra, convolution, convolve_numeric, forward, l2_quadrature, quadrature,
)
from l2transform.quadrature import (
    ABS_TOL, MAX_SUBINTERVALS, REL_TOL, TAIL_EPSILON, integrate_interval, truncation_cutoff,
)

from support import child_env, evaluate_at, rand_gexpr


class TestKnownValues:
    def test_unit(self):
        assert l2_quadrature(algebra.constant(1), 1.0) == pytest.approx(0.5, rel=1e-10)

    def test_x_squared(self):
        assert l2_quadrature(algebra.monomial(1, 1), 2.0) == pytest.approx(0.03125, rel=1e-10)

    def test_gaussian_half(self):
        assert l2_quadrature(algebra.gaussian("1/2"), 1.0) == pytest.approx(1.0, rel=1e-10)

    def test_zero_expression(self):
        assert l2_quadrature(GExpr(), 1.0) == 0.0

    def test_divergence_at_rate_boundary(self):
        with pytest.raises(DivergentIntegralError):
            l2_quadrature(algebra.gaussian(1), 1.0)

    def test_divergence_below_rate(self):
        with pytest.raises(DivergentIntegralError):
            l2_quadrature(algebra.gaussian(1), 0.9)

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf])
    def test_nonpositive_s_rejected(self, s):
        with pytest.raises(ValueError):
            l2_quadrature(algebra.constant(1), s)

    def test_zero_valued_integral_stops_on_round_off(self):
        # 1000 - 1000 x^2 transforms to 500 / s^2 - 500 / s^4, 0 at s = 1:
        # only ABS_TOL is left, below the round-off floor
        with pytest.raises(QuadratureFailureError, match="round-off"):
            l2_quadrature(algebra.constant(1000) - algebra.monomial(1000, 1), 1.0)

    @pytest.mark.parametrize("c, k, s", [
        (1, 120, 1.0), (1, 80, 0.1), (1, 100, math.sqrt(0.5)), (1, 150, 1.0),
        (1, 170, 1.0), (1, 200, 2.0), (1000, 80, 0.1), (-3, 110, 1.0),
        (1, 800, math.sqrt(300)),
    ])
    def test_large_values_inside_float_range(self, c, k, s):
        # x^(2k+1), (s^2 x^2)^j or k! of the float path overflow while
        # the exact value c k! / (2 s^(2k+2)) is a double; for k = 800 the
        # peak lies at s^2 x^2 = 800, beyond where exp(-s^2 x^2) underflows,
        # and the value 2.6e-8 is held to ABS_TOL
        exact = F(c * math.factorial(k), 2) / F(s * s) ** (k + 1)
        got = l2_quadrature(algebra.monomial(c, k), s)
        assert abs(F(got) - exact) <= max(ABS_TOL, 1e-12 * abs(exact))

    @pytest.mark.parametrize("k, s", [(100, 0.1), (400, 1.0)])
    def test_values_past_float_range_overflow(self, k, s):
        with pytest.raises(OverflowError):
            l2_quadrature(algebra.monomial(1, k), s)


class TestAgreement:
    def test_battery(self):
        rng = random.Random(17)
        for _ in range(15):
            # the rate-0 anchor keeps s^2 = rho + 1/2 positive
            e = rand_gexpr(rng, rate_lo=-2, rate_hi=0) + algebra.constant(1)
            rho = float(e.max_rate())
            for sigma in (rho + 0.5, rho + 2.0):
                exact = evaluate_at(forward(e), sigma)
                num = l2_quadrature(e, math.sqrt(sigma))
                assert abs(num - exact) <= max(ABS_TOL, REL_TOL * abs(exact)) * 10


class TestTruncation:
    def test_monotone_beyond_cutoff(self):
        # pushing the cutoff out changes the result by < 10 * TAIL_EPSILON
        e = algebra.gaussian("1/4", c=3, k=2)
        sigma = 1.25
        envelope = [(abs(float(t.c)), t.k, sigma - float(t.a)) for t in e.terms]
        cutoff = truncation_cutoff(envelope)

        def integrand(x):
            return 3 * x ** 5 * math.exp((0.25 - sigma) * x * x)

        base = integrate_interval(integrand, 0.0, cutoff)
        extended = integrate_interval(integrand, 0.0, 2 * cutoff)
        assert abs(extended - base) < 10 * TAIL_EPSILON

    def test_cutoff_tail_is_small(self):
        envelope = [(1.0, 0, 0.5)]
        x = truncation_cutoff(envelope)
        from l2transform.quadrature import _tail_bound
        assert _tail_bound(envelope, x) < TAIL_EPSILON
        assert _tail_bound(envelope, 0.9 * x) >= TAIL_EPSILON

    def test_cutoff_search_gives_up_after_200_doublings(self):
        # at x = 2^201, beta x^2 is about 4e-95 and the tail 1/(2 beta) about 1e215
        with pytest.raises(QuadratureFailureError, match="does not fall below TAIL_EPSILON"):
            truncation_cutoff([(1.0, 0, 4e-216)])

    def test_cutoff_matches_full_80_step_bisection(self):
        from l2transform.quadrature import _tail_bound

        def reference(envelope):
            # truncation_cutoff as it was, bisecting all 80 steps
            x = 1.0
            doubles = 0
            while _tail_bound(envelope, x) >= TAIL_EPSILON:
                x *= 2.0
                doubles += 1
            lo, hi = x / 2.0, x
            if doubles == 0:
                lo = 0.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if _tail_bound(envelope, mid) < TAIL_EPSILON:
                    hi = mid
                else:
                    lo = mid
            return hi

        rng = random.Random(2080)
        for _ in range(300):
            envelope = [(10.0 ** rng.uniform(-30, 6), rng.randint(0, 5), rng.uniform(0.05, 5.0))
                        for _ in range(rng.randint(1, 3))]
            assert truncation_cutoff(envelope).hex() == reference(envelope).hex()


def _counted(fn, calls):
    def wrapper(x):
        calls.append(x)
        return fn(x)
    return wrapper


@pytest.fixture
def pieces(monkeypatch):
    """Records (fn, lo, hi) and the evaluation count of every
    integrate_interval call made by l2_quadrature and convolve_numeric."""
    seen = []

    def spy(fn, lo, hi):
        calls = []
        seen.append((fn, lo, hi, calls))
        return integrate_interval(_counted(fn, calls), lo, hi)

    monkeypatch.setattr(quadrature, "integrate_interval", spy)
    monkeypatch.setattr(convolution, "integrate_interval", spy)
    return seen


def _criterion5_pairs(n):
    # the draws of test_acceptance's criterion 5
    rng = random.Random(1005)
    return [tuple(rand_gexpr(rng, max_terms=2, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=3)
                  for _ in range(2)) for _ in range(n)]


ZERO_VALUED = (algebra.monomial(-1, 2),
               algebra.monomial(F(-12, 5), 1) + algebra.monomial(F(3, 2), 2), 2.0)


class TestRule:
    def test_one_panel_is_exact_to_degree_19(self):
        for d in range(20):
            calls = []
            got = integrate_interval(_counted(lambda x, d=d: x ** d, calls), 0.0, 1.0)
            assert got == pytest.approx(1 / (d + 1), rel=1e-14)
            assert len(calls) == 21

    def test_convolution_pieces_take_one_panel(self, pieces):
        f, g = _criterion5_pairs(1)[0]
        for t in (0.5, 1.0, 2.0):
            convolve_numeric(f, g, t)
        assert [len(calls) for *_, calls in pieces] == [21] * 3

    def test_every_criterion5_convolution_takes_one_panel(self, pieces):
        # both factors are entire in v = (x/t)^2, so one G10/K21 panel suffices
        for f, g in _criterion5_pairs(50):
            for t in (0.5, 1.0, 2.0):
                convolve_numeric(f, g, t)
        assert [(lo, hi, len(calls)) for _, lo, hi, calls in pieces] == [(0.0, 1.0, 21)] * 150

    @pytest.mark.parametrize("f, g, exact", [
        (lambda x: x, lambda x: 1.0, lambda t: t ** 3 / 3),
        (lambda x: x, lambda x: x, lambda t: math.pi * t ** 4 / 16),
        (math.sqrt, lambda x: 1.0, lambda t: 0.4 * t ** 2.5),
    ], ids=["x*1", "x*x", "sqrt(x)*1"])
    def test_bare_callables_with_odd_powers(self, f, g, exact):
        # convolve_numeric's integrand in v for factors that are not functions
        # of x^2: sqrt-type endpoint behaviour the rule must still bisect down
        for t in (0.5, 2.0):
            got = integrate_interval(
                lambda v: 0.5 * t * t * f(t * math.sqrt(1.0 - v)) * g(t * math.sqrt(v)), 0.0, 1.0)
            assert got == pytest.approx(exact(t), rel=1e-12)

    def test_budget_exhaustion_fails(self):
        # sin(1/x) at x = 2 sqrt(1 - v) oscillates without end as v -> 1
        with pytest.raises(QuadratureFailureError, match=f"within {MAX_SUBINTERVALS} subintervals"):
            integrate_interval(lambda v: 2.0 * math.sin(1 / (2.0 * math.sqrt(1.0 - v)))
                               if v < 1.0 else 0.0, 0.0, 1.0)

    def test_empty_interval_is_zero_without_a_call(self):
        calls = []
        for lo, hi in ((1.0, 1.0), (2.0, 1.0)):
            assert integrate_interval(calls.append, lo, hi) == 0.0
        assert calls == []

    def test_nan_integrand_fails(self):
        for fn in (lambda x: math.nan, lambda x: math.nan if x == 0.5 else 1.0):
            with pytest.raises(QuadratureFailureError):
                integrate_interval(fn, 0.0, 1.0)

    def test_budget_counts_subintervals(self, pieces):
        # this criterion-5 convolution converges after one bisection: two subintervals
        f, g = _criterion5_pairs(7)[6]
        convolve_numeric(f, g, 4.0)
        assert len(pieces[0][-1]) == 3 * 21
        # 1/x never converges at 0: the first panel, then bisections of two
        # panels each, one subinterval more per bisection, up to the budget
        calls = []
        with pytest.raises(QuadratureFailureError, match=f"within {MAX_SUBINTERVALS} subintervals"):
            integrate_interval(_counted(lambda x: 1 / x, calls), 0.0, 1.0)
        assert len(calls) == 21 * (2 * MAX_SUBINTERVALS - 1)

    def test_zero_valued_convolution_stops_on_round_off(self, pieces):
        # exact value 0, so only abs_tol is left, below the round-off floor
        with pytest.raises(QuadratureFailureError, match="round-off"):
            convolve_numeric(*ZERO_VALUED)
        budget = 21 * (2 * MAX_SUBINTERVALS - 1)
        assert len(pieces) == 1 and len(pieces[0][-1]) < budget


class TestAgainstQuadpack:
    def test_agreement_battery_and_convolution_pieces(self, pieces):
        from scipy.integrate import quad

        rng = random.Random(17)  # the inputs of TestAgreement
        for _ in range(15):
            e = rand_gexpr(rng, rate_lo=-2, rate_hi=0) + algebra.constant(1)
            rho = float(e.max_rate())
            for sigma in (rho + 0.5, rho + 2.0):
                l2_quadrature(e, math.sqrt(sigma))
        for f, g in _criterion5_pairs(50):
            for t in (0.5, 1.0, 2.0):
                convolve_numeric(f, g, t)
        assert len(pieces) == 30 + 150
        for fn, lo, hi, _ in pieces:
            ref = quad(fn, lo, hi, epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_SUBINTERVALS)[0]
            got = integrate_interval(fn, lo, hi)
            assert abs(got - ref) <= 1e-12 * abs(ref), (lo, hi, got, ref)


_NO_THIRD_PARTY = """
import runpy, sys
from l2transform import algebra, convolve_numeric, l2_quadrature
l2_quadrature(algebra.gaussian("1/2"), 1.0)
convolve_numeric(algebra.constant(1), algebra.monomial(1, 1), 1.0)
sys.argv = ["l2t", "quad", sys.argv[1], "--s", "1"]
try:
    runpy.run_module("l2transform.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy")))
"""


def test_runtime_imports_no_third_party_module(tmp_path):
    doc = tmp_path / "exp_half.json"
    doc.write_text('{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"1/2"}]}')
    proc = subprocess.run([sys.executable, "-c", _NO_THIRD_PARTY, str(doc)],
                          capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith('{"kind":"quadrature"')
    assert proc.stdout.splitlines()[-1] == "[]"
