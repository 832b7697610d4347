"""Acceptance suite: one test per numbered criterion, each printing a
single pass/fail line (run with `pytest -s tests/test_acceptance.py` to see
them).  Tolerances are the stated ones; exact means structural equality of
canonical forms, with no tolerance at all."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction as F

from l2transform import (
    Convention, EXP_HALF, Family, GExpr, GTerm, algebra, check_bound,
    classify_exact, convolve_numeric, convolve_symbolic, default_grid,
    delta_s, delta_x, estimate_rate, evaluate, forward, inverse,
    l2_quadrature, limit_at_zero, lpoly, mul_sigma, partial_fractions,
    profile_gexpr, residual, solve_family_a, solve_family_b, solve_family_c,
    solve_family_d, star_power,
)
from l2transform import pde
from l2transform import transform as tf

from support import (
    child_env, evaluate_at, exponential_series_identity, linspace, rand_fraction, rand_gexpr,
    recombines_to_one,
)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number} failed: {label}" + (f"\n{detail}" if detail else "")


def _criterion1_battery():
    rng = random.Random(1001)
    rates = []
    while len(rates) < 20:
        # rates above -1/2 keep s^2 = a + 1/2 positive for criterion 4
        a = rand_fraction(rng, -1, 2, max_den=8)
        if a > F(-1, 2):
            rates.append(a)
    monomials = [algebra.monomial(1, n) for n in range(11)]
    gaussians = [algebra.gaussian(a) for a in rates]
    return monomials, gaussians, rates


def test_criterion_01_transform_pairs():
    monomials, gaussians, rates = _criterion1_battery()
    ok = all(
        forward(monomials[n]) == tf.pole(F(math.factorial(n), 2), 0, n + 1)
        for n in range(11)
    )
    ok = ok and all(
        forward(g) == tf.pole(F(1, 2), a, 1) for g, a in zip(gaussians, rates)
    )
    report(1, "transform pairs for even monomials and Gaussians, exact", ok)


def test_criterion_02_round_trip():
    rng = random.Random(1002)
    ok = True
    for _ in range(200):
        e = rand_gexpr(rng, max_terms=5, max_k=4, rate_lo=-3, rate_hi=2)
        ok = ok and inverse(forward(e)) == e
    report(2, "inverse(forward(e)) structural on 200 random expressions", ok)


def test_criterion_03_operator_identities():
    rng = random.Random(1003)
    ok = True
    for _ in range(50):
        e = rand_gexpr(rng)
        lhs = forward(delta_x(e))
        rhs = tf.scale(mul_sigma(forward(e)), 2) - tf.constant(limit_at_zero(e))
        ok = ok and lhs == rhs
        for n in range(5):
            lhs_n = forward(algebra.monomial(1, n) * e)
            rhs_n = forward(e)
            for _ in range(n):
                rhs_n = delta_s(rhs_n)
            ok = ok and lhs_n == tf.scale(rhs_n, F((-1) ** n, 2 ** n))
    report(3, "derivation and even-multiplier identities, exact, 50 expressions", ok)


def test_criterion_04_quadrature_agreement():
    monomials, gaussians, _ = _criterion1_battery()
    ok = True
    for e in monomials + gaussians:
        rho = float(e.max_rate())
        for sigma in (rho + 0.5, rho + 2.0):
            exact = evaluate_at(forward(e), sigma)
            num = l2_quadrature(e, math.sqrt(sigma))
            ok = ok and abs(num - exact) <= 1e-8 * abs(exact)
    report(4, "quadrature vs symbolic transform, relative 1e-8", ok)


def test_criterion_05_convolution_theorem():
    rng = random.Random(1005)
    ok = True
    for i in range(50):
        f = rand_gexpr(rng, max_terms=2, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=3)
        g = rand_gexpr(rng, max_terms=2, max_k=2, rate_lo=-1, rate_hi=0, coeff_hi=3)
        conv = convolve_symbolic(f, g)
        ok = ok and forward(conv) == forward(f) * forward(g)
        for t in (0.5, 1.0, 2.0):
            sym = evaluate(conv, t)
            num = convolve_numeric(f, g, t)
            ok = ok and abs(num - sym) <= 1e-8 * max(1.0, abs(sym))
    report(5, "product theorem exact and pointwise to 1e-8, 50 pairs", ok)


def test_criterion_06_star_power_closed_form():
    ok = all(
        star_power(EXP_HALF, n) == GExpr((GTerm(
            F(1, 2 ** (n - 1) * math.factorial(n - 1)), n - 1, F(1, 2)),))
        for n in range(1, 7)
    )
    report(6, "convolution powers of e^(x^2/2), closed form exact, n = 1..6", ok)


def test_criterion_07_family_a():
    grid = default_grid()
    rep30 = residual(pde.PDEProblem(Family.A), solve_family_a(30), grid)
    r10 = residual(pde.PDEProblem(Family.A), solve_family_a(10), grid).max_abs
    r20 = residual(pde.PDEProblem(Family.A), solve_family_a(20), grid).max_abs
    oracle = float(sum(
        (F(1, 2) ** n / math.factorial(n) ** 2 for n in range(31)), F(0)))
    ok = (rep30.max_abs <= 1e-8
          and r20 * 10 <= r10
          and abs(solve_family_a(30).value(1.0, 1.0) - oracle) <= 1e-12)
    report(7, "family A residual, geometric decrease, partial-sum oracle", ok)


def test_criterion_08_family_b_derived():
    ratios = [lpoly({0: 1}), lpoly({1: 1}), lpoly({1: 2}), lpoly({0: 1, 1: 1})]
    ok = all(exponential_series_identity(m, 12) for m in ratios)
    sol = solve_family_b(lpoly({0: 1}), 40)
    rep = residual(sol.problem, sol, default_grid())
    ok = ok and rep.max_abs <= 1e-8
    report(8, "family B derived: exact transform ODE identity, residual 1e-8", ok)


def test_criterion_09_family_d():
    ok = True
    for m in (lpoly({}), lpoly({0: 1}), lpoly({1: 2})):
        sol = solve_family_d(m)
        ok = ok and residual(sol.problem, sol, default_grid()).max_abs <= 1e-12
    report(9, "family D residual at 1e-12 for three ratios", ok)


def test_criterion_10_order_analysis():
    sol = solve_family_c(lpoly({0: 1}), 60, Convention.PAPER_LITERAL)
    u_minus_1 = lambda x: sol.value(x, 1.0) - 1.0
    xs = linspace(0.5, 4.0, 40)
    ok = check_bound(u_minus_1, algebra.gaussian("3/4"), xs)
    ok = ok and check_bound(EXP_HALF, u_minus_1, xs)
    exact = classify_exact(profile_gexpr(sol, F(1)))
    ok = ok and exact.is_exp_squared_order is True
    ok = ok and exact.is_exponential_order is False
    est = estimate_rate(lambda x: sol.value(x, 1.0), linspace(2.0, 6.0, 17))
    ok = ok and est.is_exp_squared_order is True
    ok = ok and est.is_exponential_order is False
    report(10, "growth sandwich and order classification of the family C series", ok)


def test_criterion_11_family_c_residual_harness():
    grid = default_grid()
    ok = True
    for conv in Convention:
        sol = solve_family_c(lpoly({0: 1}), 40, conv)
        rep = residual(sol.problem, sol, grid)
        ok = ok and rep.fd_max_deviation <= 1e-4
    report(11, "family C exact vs finite-difference residuals, both conventions", ok)


def test_criterion_12_partial_fractions():
    rng = random.Random(1012)
    pool = [F(0), F(1), F(-1), F(1, 2), F(-1, 2), F(2), F(1, 3), F(-2, 3)]
    ok = True
    for _ in range(100):
        poles = rng.sample(pool, rng.randint(1, 4))
        factors = [(a, rng.randint(1, 3)) for a in poles]
        ok = ok and recombines_to_one(partial_fractions(factors), factors)
    report(12, "100 random partial-fraction recombinations, exact", ok)


def _cli(args, data_dir):
    return subprocess.run(
        [sys.executable, "-m", "l2transform.cli", *args],
        capture_output=True, cwd=data_dir, env=child_env(),
    )


def _cli_failure(args, proc, why: str) -> str:
    """One line naming a failed CLI check: argv, exit code, stderr tail."""
    tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
    return (f"l2t {' '.join(args)}: {why}, exit {proc.returncode}; "
            f"stderr: {' | '.join(tail) or '(empty)'}")


def _is_nonempty_json(data: bytes) -> bool:
    try:
        return bool(json.loads(data))
    except ValueError:
        return False


def test_criterion_13_cli(tmp_path):
    docs = {
        "one.json": '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"0"}]}',
        "exp_half.json": '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"1/2"}]}',
        "exp_x2.json": '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"1"}]}',
        "e34.json": '{"kind":"gexpr","terms":[{"c":"1","k":0,"a":"3/4"}]}',
        "ratio.json": '{"kind":"lpoly","terms":[{"degree":0,"c":"1"}]}',
        "const.json": '{"kind":"sexpr","terms":[{"c":"1/2","a":"0","m":0}]}',
        "bad.json": '{"kind":"gexpr","terms":[{"c":"1/0","k":0,"a":"0"}]}',
        "fwd_one.json": '{"kind":"sexpr","terms":[{"c":"1/2","a":"0","m":1}]}',
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text)

    battery = [
        ["transform", "one.json"],
        ["invert", "fwd_one.json"],
        ["convolve", "one.json", "exp_half.json"],
        ["starpow", "exp_half.json", "--n", "3"],
        ["quad", "exp_half.json", "--s", "1"],
        ["solve", "--family", "A", "--n", "8"],
        ["solve", "--family", "C", "--ratio", "ratio.json", "--n", "8",
         "--convention", "paper", "--freeze-t", "1"],
        ["residual", "--family", "C", "--ratio", "ratio.json", "--n", "12",
         "--convention", "paper", "--grid", "0.2,2,4,0.5,2,4"],
        ["classify", "exp_half.json", "--samples", "2,6,17"],
        ["bound-check", "exp_x2.json", "e34.json", "--samples", "0.5,4,20"],
    ]
    failures = []
    for args in battery:
        first = _cli(args, tmp_path)
        second = _cli(args, tmp_path)
        if first.returncode != 0:
            failures.append(_cli_failure(args, first, "expected exit 0"))
        elif first.stdout != second.stdout:
            failures.append(_cli_failure(args, second, "stdout differs from first run"))
        elif not _is_nonempty_json(first.stdout):
            failures.append(_cli_failure(args, first, "stdout is not non-empty JSON"))

    # the three documented failure classes
    for args, code in [(["transform", "bad.json"], 2),
                       (["quad", "exp_x2.json", "--s", "1"], 3),
                       (["invert", "const.json"], 4)]:
        proc = _cli(args, tmp_path)
        if proc.returncode != code:
            failures.append(_cli_failure(args, proc, f"expected exit {code}"))
    report(13, "CLI battery byte-stable with documented error codes",
           not failures, "\n".join(failures))
