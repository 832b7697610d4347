"""Standing mutation check for the exact and float fast paths.

Each row of MUTANTS names a file of the package, an exact snippet of it
(found exactly once), the snippet's replacement, and the tests that must
fail once it is applied.  For each row the script copies src/ to a
temporary directory, applies the mutant there, and runs the named tests
with pytest in a subprocess that imports the mutated copy.  A mutant is
killed when every named test (or, for a file or class, at least one test
in it) fails.  The script exits 1 when a snippet is not found exactly once
or when a mutant is not killed, so a refactor of a fast path updates the
table, and a test edit that lets a mutant survive is caught.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutants.py
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # relative to src/l2transform
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids relative to the repository root


POWER = (
    "tests/test_transform.py::TestPower::test_multi_pole_powers_match_the_oracle",
    "tests/test_transform.py::test_power_is_a_left_fold_of_multiply_property",
)
PRODUCT = (
    "tests/test_transform.py::test_product_matches_the_fraction_reference_property",
    "tests/test_transform.py::test_partial_fractions_match_the_fraction_reference_property",
)
SERIES_POWER = "tests/test_transform.py::test_series_power_is_a_fold_of_truncated_products_property"

MUTANTS = [
    # the power recurrence k V_0 W_k = sum ((e + 1) j - k) V_j W_(k-j), W_0 = V_0^e over den^e
    Mutant("transform.py", "((e + 1) * j - k) * v[j]", "(e * j - k) * v[j]", (SERIES_POWER, *POWER)),
    Mutant("transform.py", "w = [v[0] ** e]", "w = [v[0] ** (e - (e > 9))]", (SERIES_POWER, *POWER)),
    Mutant("transform.py", "return w, den ** e", "return w, den ** (e + (len(v) > 30))", POWER),
    Mutant("transform.py", "if exponent > 1 else series", "if exponent > 2 else series",
           (PRODUCT[0], "tests/test_convolution.py")),
    # the offset p/q = a - b of a far pole, and its series c q^m / (q u + p)^m
    Mutant("transform.py", "p = an * bd - bn * ad", "p = bn * ad - an * bd", PRODUCT),
    Mutant("transform.py", "num, nums = cn * g ** m, []", "num, nums = cn, []", PRODUCT),
    Mutant("transform.py", "for j in range(length):", "for j in range(length - 1):", PRODUCT),
    # truncation_bound's tail is 0 where every dropped term vanishes, even past float range
    Mutant("pde.py", "    except OverflowError:\n        tau_bar = math.inf\n",
           "    except OverflowError:\n        return math.inf\n",
           ("tests/test_pde.py::TestTruncationBound::test_vanishing_tail_is_zero_past_float_range",)),
    # the canonical sums: a sigma-constant's pole slot is 0, and scaling by 0 gives the empty sum
    Mutant("transform.py", "(t.a if t.m else _ZERO, t.m)", "(t.a, t.m)",
           ("tests/test_algebra.py::TestCanonicalSum::test_repr_is_the_dataclass_repr",
            "tests/test_transform.py::TestOperatorIdentities::test_derivation_identity_battery")),
    Mutant("algebra.py", "for tc, x, y in e.terms] if c else ())", "for tc, x, y in e.terms])",
           ("tests/test_algebra.py::test_scale_is_the_public_rebuild_property",)),
]


def killed(failed: list[str], test: str) -> bool:
    """True when the node id `test` is one of the failed ids, or contains one."""
    return any(f == test or f.startswith((test + "::", test + "[")) for f in failed)


def run(mutant: Mutant, scratch: Path) -> str:
    """'' when the mutant is killed, else what went wrong."""
    src = scratch / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "l2transform" / mutant.file
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        return f"snippet found {text.count(mutant.snippet)} times, not once"
    path.write_text(text.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    # the working directory is the scratch one, so Hypothesis keeps no mutant's examples
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
         "--hypothesis-seed=0", *[str(ROOT / test) for test in mutant.tests]],
        cwd=scratch, env=env, capture_output=True, text=True)
    # pytest prints node ids relative to its working directory; make them relative to ROOT
    failed = [Path(os.path.normpath(scratch / path)).relative_to(ROOT).as_posix() + rest
              for path, rest in re.findall(r"^FAILED ([^:\s]+)(\S*)", result.stdout, re.MULTILINE)]
    survivors = [test for test in mutant.tests if not killed(failed, test)]
    if result.returncode not in (0, 1):
        return f"pytest exited {result.returncode}:\n{result.stdout[-2000:]}{result.stderr[-2000:]}"
    return f"survives {', '.join(survivors)}" if survivors else ""


def main() -> int:
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in MUTANTS:
            problem = run(mutant, Path(scratch))
            bad += bool(problem)
            print(f"{'FAIL' if problem else 'killed'}  {mutant.file}: {mutant.snippet.strip()!r}"
                  f" -> {mutant.replacement.strip()!r}" + (f"\n      {problem}" if problem else ""),
                  flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
