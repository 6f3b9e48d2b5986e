import time
from fractions import Fraction

import pytest

from erskit.base_system import simple_config
from erskit.roots import RootWindow, check_ebs, generate, reflection_closure_oracle
from erskit.unfold import verify_pi

# One representative per affine family at its minimal rank.  Quantified
# checks (window closure, unfolding soundness, dimension witnesses) run over
# this list; doubled-class variants are exercised where the classification
# tables need them.
SUITE_NAMES = [
    "A2(1)",
    "B3(1)",
    "C2(1)",
    "D4(1)",
    "E6(1)",
    "E7(1)",
    "E8(1)",
    "F4(1)",
    "G2(1)",
    "A4(2)",
    "A5(2)",
    "D3(2)",
    "E6(2)",
    "D4(3)",
]

# Small-rank slice used where a graded algebra must actually be built.
SMALL_SUITE_NAMES = [
    "A2(1)",
    "C2(1)",
    "G2(1)",
    "A4(2)",
    "D3(2)",
    "D4(3)",
]


@pytest.fixture(scope="session")
def suite():
    return [simple_config(name) for name in SUITE_NAMES]


@pytest.fixture(scope="session")
def small_suite():
    return [simple_config(name) for name in SMALL_SUITE_NAMES]


# the invariant-form normalization kappa of D3(2), frozen per doubling class
KAPPA_CASES = [
    ({}, Fraction(1, 2)),
    ({"g": {0: "2Z+1"}}, Fraction(2)),
    ({"g": {0: "Z"}}, Fraction(1, 2)),
]

# Session results that more than one test module asserts on, computed once.
# Each timed value comes with the seconds it took, so a test with a time
# budget still charges the shared work to that budget.


def _timed(compute, keys):
    out = {}
    for key in keys:
        t0 = time.monotonic()
        value = compute(key)
        out[key] = (value, time.monotonic() - t0)
    return out


@pytest.fixture(scope="session")
def ebs_runs():
    """{name: ((root set, its check_ebs report) at window (6,6,2), seconds)}
    over SUITE_NAMES."""
    def run(name):
        rs = generate(simple_config(name), RootWindow(6, 6, 2))
        return rs, check_ebs(rs)

    return _timed(run, SUITE_NAMES)


@pytest.fixture(scope="session")
def ebs_reports(ebs_runs):
    """{name: (check_ebs report at window (6,6,2), seconds)} over SUITE_NAMES."""
    return {name: (rep, seconds) for name, ((_, rep), seconds) in ebs_runs.items()}


@pytest.fixture(scope="session")
def oracle_pairs():
    """{name: (generated root set, reflection-closure oracle)} at window
    (3,3,2) over SUITE_NAMES."""
    window = RootWindow(3, 3, 2)
    out = {}
    for name in SUITE_NAMES:
        cfg = simple_config(name)
        out[name] = (set(generate(cfg, window).inner),
                     reflection_closure_oracle(cfg, window))
    return out


@pytest.fixture(scope="session")
def kappa_realizations():
    """{repr(kwargs): ((report, realization) of verify_pi, seconds)} on D3(2)
    over KAPPA_CASES."""
    cases = {repr(kwargs): kwargs for kwargs, _ in KAPPA_CASES}
    return _timed(lambda key: verify_pi(simple_config("D3(2)", **cases[key])), cases)
