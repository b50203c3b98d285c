"""End-to-end acceptance sweep.

Eleven numbered criteria, each a self-contained test that prints a single
``criterion NN: PASS`` / ``criterion NN: FAIL`` line (visible with ``-s``;
the test name itself carries the same number).  Every tolerance is exact
zero in rational or polynomial arithmetic; the stated runtime budgets are
asserted where a criterion carries one.
"""

import functools
import json
import random
import time
from fractions import Fraction
from importlib import resources

from vpq.algebra import verify_algebra
from vpq.caseaudit import (
    case_constants_audit,
    quadratic_in_x_check,
)
from vpq.classify import degeneracy_table_audit, identity_audit
from vpq.modules import (
    ExcAlpha,
    ExcAlphaPrime,
    ExcBeta,
    ExcBetaPrime,
    Mab,
    find_intertwiner,
    shift_params,
    verify_module,
)
from vpq.scalar import ScalarContext, pascal_residual, reflection_residual
from vpq.suite import SuiteConfig, run_suite
from vpq.uqsl2 import Uqsl2Rep, quadratic_in_x_fit, rep_relation_audit


POINTS = (("2", "3"), ("5", "7"), ("-3/2", "1/4"))
SEED = 20260814


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                print("criterion %02d: FAIL" % num)
                raise
            print("criterion %02d: PASS" % num)
        return wrapper
    return deco


def rand_fraction(rng, nonzero=False):
    while True:
        num = rng.randint(-12, 12)
        if nonzero and num == 0:
            continue
        return Fraction(num, rng.randint(1, 12))


@criterion(1)
def test_criterion_01():
    """Quantum-integer addition and reflection rules, |m|,|n| <= 20,
    three rational points plus the formal backend, under one second."""
    t0 = time.perf_counter()
    for p, q in POINTS:
        ctx = ScalarContext.numeric(p, q)
        for m in range(-20, 21):
            assert reflection_residual(ctx, m) == 0
            for n in range(-20, 21):
                assert pascal_residual(ctx, m, n) == 0
    sym = ScalarContext.symbolic()
    for m in range(-20, 21):
        assert reflection_residual(sym, m).is_zero()
        for n in range(-20, 21):
            assert pascal_residual(sym, m, n).is_zero()
    assert time.perf_counter() - t0 < 1.0


@criterion(2)
def test_criterion_02():
    """Skew symmetry and the twisted Jacobi identity on |k|,|l|,|m| <= 8 at
    three rational points, with the central cocycle recorded on every
    zero-sum triple, under ten seconds."""
    t0 = time.perf_counter()
    zero_sum = sum(
        1 for k in range(-8, 9) for l in range(k, 9) for m in range(l, 9)
        if k + l + m == 0)
    for p, q in POINTS:
        rep = verify_algebra(ScalarContext.numeric(p, q), 8)
        assert rep.failed == 0
        triples = rep.to_dict()["sections"]["central_cocycle_residuals"]
        assert len(triples) == zero_sum
        assert all(t["residual"] == "0" for t in triples)
    assert time.perf_counter() - t0 < 10.0


@criterion(3)
def test_criterion_03():
    """Defining module relation for the two-parameter family on
    |n|,|m| <= 6, |k| <= 10: five seeded rational parameter pairs and a
    formal (a, b) sweep, under thirty seconds."""
    t0 = time.perf_counter()
    ctx = ScalarContext.numeric(2, 3)
    rng = random.Random(SEED)
    for _ in range(5):
        a, b = rand_fraction(rng), rand_fraction(rng)
        assert verify_module(ctx, Mab(a, b), 6, 10).failed == 0
    sctx = ScalarContext.symbolic("2", "3")
    formal = Mab(sctx.var("a"), sctx.var("b"))
    assert verify_module(sctx, formal, 6, 10).failed == 0
    assert time.perf_counter() - t0 < 30.0


@criterion(4)
def test_criterion_04():
    """Ten seeded parameter shifts admit a diagonal intertwiner on
    |k| <= 8; ten seeded unrelated pairs admit none."""
    ctx = ScalarContext.numeric(2, 3)
    rng = random.Random(SEED)
    for _ in range(10):
        a, b = rand_fraction(rng), rand_fraction(rng)
        m = rng.randint(-4, 4)
        a2, b2 = shift_params(ctx, a, b, m)
        assert find_intertwiner(ctx, Mab(a, b), Mab(a2, b2), m, 8) is not None
    for _ in range(10):
        a, b = rand_fraction(rng), rand_fraction(rng)
        m = rng.randint(-4, 4)
        sa, sb = shift_params(ctx, a, b, m)
        while True:
            a2, b2 = rand_fraction(rng), rand_fraction(rng)
            if (a2, b2) != (sa, sb):
                break
        assert find_intertwiner(ctx, Mab(a, b), Mab(a2, b2), m, 8) is None


@criterion(5)
def test_criterion_05():
    """Reducibility grid m in [-4, 4] at (2, 3): both catalogued parameter
    branches are reducible with the closed-form witness, and the exponent
    variant from the derivation text is irreducible away from m = 0
    (recorded as a finding)."""
    config = SuiteConfig.from_dict({
        "context": {"p": "2", "q": "3"},
        "checks": [{"check": "is-reducible-grid", "mmax": 4, "window": 8}],
    })
    report = run_suite(config).to_dict()["checks"][0]
    assert report["counts"]["failed"] == 0
    assert report["counts"]["checked"] == 9 * 4 + 8
    assert [f["id"] for f in report["findings"]] == ["reducibility-exponent"]
    assert f"{sorted(report['findings'][0]['data']['irreducible_at'])}" == \
        str([m for m in range(-4, 5) if m != 0])


@criterion(6)
def test_criterion_06():
    """All sixteen factor-coincidence table lines hold as bidirectional
    equivalences, formally in (a, b), at three rational (p, q) points."""
    for p, q in POINTS:
        rep = degeneracy_table_audit(ScalarContext.symbolic(p, q))
        d = rep.to_dict()
        assert rep.failed == 0
        assert d["counts"]["checked"] == 16
        # four lines carry adjudicated right-hand sides
        assert [f["id"] for f in d["findings"]] == ["table-line-adjusted"] * 4


@criterion(7)
def test_criterion_07():
    """Cubic-difference audit: the first difference is the constant F, the
    adjusted second difference is the constant G with F = -p^{-6} q^6 G,
    the adjusted quintic combinations vanish (degree <= 1 holds), and the
    whole report is deterministic."""
    ctx = ScalarContext.numeric(2, 3)
    a, b = Fraction(1), Fraction(1)
    d = identity_audit(ctx, a, b).to_dict()
    assert d["counts"]["failed"] == 0
    first = d["sections"]["first_difference"]
    assert first["degree"] == "0" and first["coefficients"] == ["15/16"]
    assert d["sections"]["F"] == "15/16"
    assert d["sections"]["G"] == "-20/243"
    p, q = Fraction(2), Fraction(3)
    assert Fraction("15/16") == -p ** -6 * q ** 6 * Fraction("-20/243")
    for key in ("f5", "g5"):
        assert d["sections"][key]["adjusted_degree"] == "-inf"
        assert d["sections"][key]["given_degree"] == "2"
    assert identity_audit(ctx, a, b).to_dict() == d


@criterion(8)
def test_criterion_08():
    """Exceptional families: parameter-zero modules satisfy the relation on
    |n|,|m| <= 5, |k| <= 8 with zero failures; three seeded nonzero
    parameters per family pass on the generator window {n, m, n+m} within
    [-2, 2], |k| <= 8."""
    ctx = ScalarContext.numeric(2, 3)
    assert verify_module(ctx, ExcAlpha(0), 5, 8).failed == 0
    assert verify_module(ctx, ExcBetaPrime(0), 5, 8).failed == 0
    rng = random.Random(SEED)
    for family in (ExcAlpha, ExcAlphaPrime, ExcBeta, ExcBetaPrime):
        for _ in range(3):
            t = rand_fraction(rng, nonzero=True)
            rep = verify_module(ctx, family(t), 2, 8,
                                pair_filter="generators")
            assert rep.failed == 0


@criterion(9)
def test_criterion_09():
    """Case analysis at (2, 3): the catalogued action constants of all four
    parameter cases satisfy their constraint identities exactly under the
    adjudicated values, and the junction weight lands at -3 and 0 on the
    two exceptional lines."""
    ctx = ScalarContext.numeric(2, 3)
    expected_findings = {
        Fraction(5): [],
        Fraction(-1, 5): ["EG-catalogued-value", "G-catalogued-value"],
        Fraction(-1, 2): [],
        Fraction(0): ["G-narrative-sign"],
    }
    j0 = {}
    for a, finding_ids in expected_findings.items():
        rep = case_constants_audit(ctx, a)
        d = rep.to_dict()
        assert rep.failed == 0
        assert sorted(f["id"] for f in d["findings"]) == finding_ids
        j0[a] = d["sections"]["j0"]
    assert j0[Fraction(-1, 2)] == -3
    assert j0[Fraction(0)] == 0


@criterion(10)
def test_criterion_10():
    """Comparison representations: ladder relations hold for every
    two_l <= 8 and both signs at three q values; the scaled eigenvalues are
    quadratic in x on the even ladders {4, 6, 8}; the analogous step
    products on the two-parameter side are quadratic in x on |j| <= 8."""
    for q in (Fraction(2), Fraction(3, 2), Fraction(5)):
        for omega in (1, -1):
            for two_l in range(0, 9):
                assert rep_relation_audit(Uqsl2Rep(omega, two_l, q)).failed == 0
    for two_l in (4, 6, 8):
        assert quadratic_in_x_fit(Uqsl2Rep(1, two_l, 2)).failed == 0
    ctx = ScalarContext.numeric(2, 3)
    a = Fraction(1, 7)
    assert quadratic_in_x_check(ctx, Mab(a, a * 3), 8).failed == 0


@criterion(11)
def test_criterion_11():
    """The bundled suite configuration runs clean and its serialized JSON
    report is byte-identical across two runs, within two minutes."""
    t0 = time.perf_counter()
    data = resources.files("vpq").joinpath("data/acceptance_suite.json")
    config = SuiteConfig.from_dict(json.loads(data.read_text()))
    first = run_suite(config)
    second = run_suite(config)
    assert first.to_dict()["totals"]["failed"] == 0
    assert first.serialize() == second.serialize()
    assert first.serialize().encode() == second.serialize().encode()
    assert time.perf_counter() - t0 < 120.0
