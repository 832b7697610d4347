"""Command-line front end.

Every core operation is reachable as a subcommand; expressions travel as
the JSON documents of :mod:`l2transform.serialization` ("-" reads standard
input).  Success prints a JSON result on stdout and exits 0.  Failures
print {"code", "message"} on stderr and exit 2 for schema or precondition
errors, 3 for numerical failures (a non-finite result included, which JSON
cannot hold), 4 for impulse content.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

# Only serialization, transform and errors load with this module (the
# docstring above is `l2t --help`); each handler imports the other modules it
# calls, so a subcommand loads none it does not use.
from . import serialization
from . import transform as tf
from .errors import (
    DivergentIntegralError,
    GridDomainError,
    ImpulseContentError,
    NonPositiveSampleError,
    QuadratureFailureError,
    SchemaError,
)
from .serialization import (
    object_to_document,
    render_json,
    rational_from_string,
    rational_to_string,
)

if TYPE_CHECKING:
    from . import pde


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_typed(path: str, kind: str):
    return serialization.loads(_read_source(path), kind)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _parse_samples(text: str) -> list[float]:
    try:
        lo, hi, n = text.split(",")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise _UsageError(f"samples must be 'x0,x1,count', got {text!r}") from exc
    if n < 1 or not hi > lo:  # NaN included
        raise _UsageError("samples need x1 > x0 and count >= 1")
    return _linspace(lo, hi, n)


def _parse_grid(text: str):
    parts = text.split(",")
    try:
        if len(parts) != 6:
            raise ValueError
        x0, x1, t0, t1 = float(parts[0]), float(parts[1]), float(parts[3]), float(parts[4])
        nx, nt = int(parts[2]), int(parts[5])
    except ValueError as exc:
        raise _UsageError(f"grid must be 'x0,x1,nx,t0,t1,nt', got {text!r}") from exc
    return x0, x1, nx, t0, t1, nt


# The values of pde.Family and pde.Convention, so that parsing loads no pde
_FAMILIES = ("A", "B", "C", "D")
_CONVENTIONS = ("derived", "paper")


def _build_solution(args) -> pde.SeriesSolution:
    from . import pde
    ratio = None if args.ratio is None else _load_typed(args.ratio, "lpoly")
    return pde.solve(pde.Family(args.family), ratio, args.n, pde.Convention(args.convention))


def _solution_terms(sol: pde.SeriesSolution) -> list:
    """Profile n's terms with the t-power the row names for tau^n."""
    row = sol.problem.row
    if not row.recipe[0]:  # r1 = 0: u is its prefactor alone
        return [{"form": f"exp(-{row.tau_name}(t))"}]
    key = f"{row.tau_name.lower()}_power"
    if sol.problem.folded:
        return [
            {
                "p": p,
                key: row.tau_power * p,
                "monomials": [
                    {"c": rational_to_string(term.c), "x_half_degree": term.k}
                    for term in profile.terms
                ],
            }
            for p, profile in enumerate(sol.profiles)
        ]
    out = []
    # a formal-unit u_hat_0 leaves profile 0 as retained content, not a listed term
    for n in range(0 if row.u0.is_proper() else 1, len(sol.profiles)):
        (term,) = sol.profiles[n].terms
        entry = {"n": n, "c": rational_to_string(term.c), "x_half_degree": term.k}
        if term.a:
            entry["gauss_rate"] = rational_to_string(term.a)
        entry[key] = row.tau_power * n
        out.append(entry)
    return out


def _cmd_transform(args):
    return object_to_document(tf.forward(_load_typed(args.expr, "gexpr")))


def _cmd_invert(args):
    return object_to_document(tf.inverse(_load_typed(args.expr, "sexpr")))


def _cmd_convolve(args):
    from . import convolution
    f = _load_typed(args.f, "gexpr")
    g = _load_typed(args.g, "gexpr")
    return object_to_document(convolution.convolve_symbolic(f, g))


def _cmd_starpow(args):
    from . import convolution
    return object_to_document(convolution.star_power(_load_typed(args.f, "gexpr"), args.n))


def _cmd_quad(args):
    from . import quadrature
    f = _load_typed(args.expr, "gexpr")
    value = quadrature.l2_quadrature(f, args.s)
    return {"kind": "quadrature", "s": args.s, "sigma": args.s * args.s, "value": value}


def _cmd_solve(args):
    from . import pde
    sol = _build_solution(args)
    if args.freeze_t is not None:
        t0 = rational_from_string(args.freeze_t, "--freeze-t")
        return object_to_document(pde.profile_gexpr(sol, t0))
    ratio = sol.problem.ratio
    return {
        "kind": "solution",
        "family": sol.problem.family.value,
        "convention": sol.problem.convention.value if sol.problem.convention else None,
        "depth": sol.depth,
        "equation": sol.problem.row.text,
        "ratio": object_to_document(ratio) if ratio is not None else None,
        "ratio_antiderivative": object_to_document(ratio.antiderivative()) if ratio is not None else None,
        "terms": _solution_terms(sol),
        "metadata": sol.metadata,
    }


def _cmd_residual(args):
    from . import pde
    sol = _build_solution(args)
    x0, x1, nx, t0, t1, nt = _parse_grid(args.grid)
    grid = pde.default_grid(x0, x1, nx, t0, t1, nt)
    report = pde.residual(sol.problem, sol, grid)
    bound = pde.truncation_bound(sol, x1, (t0, t1))
    return {
        "kind": "residual_report",
        "family": sol.problem.family.value,
        "convention": sol.problem.convention.value if sol.problem.convention else None,
        "depth": report.depth,
        "equation": sol.problem.row.text,
        "grid": {"x_lo": x0, "x_hi": x1, "nx": nx,
                 "t_lo": t0, "t_hi": t1, "nt": nt, "spacing": "log"},
        "points": [
            {"x": x, "t": t, "residual": r, "fd_residual": fr}
            for (x, t), r, fr in zip(report.points, report.exact, report.finite_difference)
        ],
        "max_abs": report.max_abs,
        "fd_max_deviation": report.fd_max_deviation,
        "truncation_bound": bound,
        "metadata": sol.metadata,
    }


def _growth_flag(value):
    return "unknown" if value is None else value


def _cmd_classify(args):
    from . import growth
    e = _load_typed(args.expr, "gexpr")
    exact = growth.classify_exact(e)
    out = {
        "kind": "growth_report",
        "exact_rate": rational_to_string(exact.exact_rate),
        "is_exponential_order": exact.is_exponential_order,
        "is_exp_squared_order": exact.is_exp_squared_order,
    }
    if args.samples:
        est = growth.estimate_rate(e, _parse_samples(args.samples))
        out["estimated_rate"] = est.estimated_rate
        out["r_squared"] = est.r_squared
        out["estimate_is_exponential_order"] = _growth_flag(est.is_exponential_order)
        out["estimate_is_exp_squared_order"] = _growth_flag(est.is_exp_squared_order)
    return out


def _cmd_bound_check(args):
    from . import growth
    f = _load_typed(args.f, "gexpr")
    g = _load_typed(args.g, "gexpr")
    xs = _parse_samples(args.samples)
    holds = growth.check_bound(f, g, xs)
    return {"kind": "bound_check", "holds": holds,
            "samples": {"x_lo": xs[0], "x_hi": xs[-1], "count": len(xs)}}


def _build_parser() -> _Parser:
    parser = _Parser(prog="l2t", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="forward transform of a gexpr document")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("invert", help="inverse transform of an sexpr document")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("convolve", help="symbolic convolution of two gexpr documents")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("starpow", help="n-fold convolution power")
    p.add_argument("f")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_starpow)

    p = sub.add_parser("quad", help="numeric transform integral at s")
    p.add_argument("expr")
    p.add_argument("--s", type=float, required=True)
    p.set_defaults(handler=_cmd_quad)

    for name, handler in (("solve", _cmd_solve), ("residual", _cmd_residual)):
        p = sub.add_parser(name)
        p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
        p.add_argument("--ratio", default=None, help="lpoly.json coefficient ratio")
        p.add_argument("--n", type=int, default=40, help="truncation depth")
        p.add_argument("--convention", choices=sorted(_CONVENTIONS), default="derived")
        if name == "solve":
            p.add_argument("--freeze-t", default=None, metavar="T",
                           help="emit the exact x-profile gexpr at rational t = T")
        else:
            p.add_argument("--grid", default="0.1,2,10,0.5,2,10",
                           metavar="x0,x1,nx,t0,t1,nt")
        p.set_defaults(handler=handler)

    p = sub.add_parser("classify", help="growth-order classification of a gexpr")
    p.add_argument("expr")
    p.add_argument("--samples", default=None, metavar="x0,x1,count",
                   help="also run the sampled-rate estimate")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("bound-check", help="pointwise f <= g on a sample range")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--samples", default="0.5,4,40", metavar="x0,x1,count")
    p.set_defaults(handler=_cmd_bound_check)

    return parser


def _fail(code: int, message: str) -> int:
    sys.stderr.write(render_json({"code": code, "message": message}) + "\n")
    return code


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = render_json(args.handler(args))
    except (_UsageError, SchemaError, ValueError, GridDomainError,
            NonPositiveSampleError, OSError) as exc:
        return _fail(2, str(exc))
    except (DivergentIntegralError, QuadratureFailureError, OverflowError) as exc:
        return _fail(3, f"{type(exc).__name__}: {exc}")
    except ImpulseContentError as exc:
        return _fail(4, str(exc))
    sys.stdout.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
