"""Weight modules: defining relation, reducibility, shifts, intertwiners."""

import hashlib
import inspect
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from vpq import cli, modules, scalar, suite
from vpq.algebra import verify_algebra
from vpq.caseaudit import case3_constants, case_constants_audit
from vpq.classify import (fg_recurrence_audit, identity_audit,
                          l2_display_audit, quadratic_roots_audit,
                          second_solution)
from vpq.modules import (
    SUBMODULE_CAP,
    ExcAlpha,
    ExcAlphaPrime,
    ExcBeta,
    ExcBetaPrime,
    Mab,
    MemoRule,
    TableRule,
    find_intertwiner,
    find_submodules,
    find_submodules_ex,
    is_reducible_closed_form,
    parse_family,
    relation_residual,
    shift_params,
    verify_module,
)
from vpq.report import ResidualReport
from vpq.scalar import (Poly, RationalFunction, ScalarContext, is_zero,
                        pascal_numerators, reflection_residual, scalar_str)


small_fracs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5)


def test_mab_coefficient_values(ctx):
    # c(n,k) = p^{-k}[k] - a p^{-k} q^k - b p^{-k-n} q^k [n] at p=2, q=3
    rule = Mab(Fraction(1), Fraction(1))
    assert rule.coeff(ctx, 1, 0) == Fraction(-3, 2)
    assert rule.coeff(ctx, 2, 1) == Fraction(-23, 8)
    assert rule.coeff(ctx, 0, 1) == -1  # [0] = 0 kills the b term


@given(small_fracs, small_fracs, st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-8, 8))
@settings(max_examples=120)
def test_mab_satisfies_the_defining_relation(ctx, a, b, n, m, k):
    assert relation_residual(ctx, Mab(a, b), n, m, k) == 0


def test_mab_relation_formal_in_all_four_letters():
    sctx = ScalarContext.symbolic()
    rule = Mab(sctx.var("a"), sctx.var("b"))
    for n in range(-2, 3):
        for m in range(-2, 3):
            for k in range(-3, 4):
                assert is_zero(relation_residual(sctx, rule, n, m, k))


def test_verify_module_counts_and_validation(ctx):
    rep = verify_module(ctx, Mab(Fraction(1, 3), Fraction(-2)), 2, 4)
    assert rep.failed == 0
    assert rep.to_dict()["counts"]["checked"] == 5 * 5 * 9
    with pytest.raises(ValueError):
        verify_module(ctx, Mab(0, 0), 0, 4)
    with pytest.raises(ValueError):
        verify_module(ctx, Mab(0, 0), 4, 2)
    with pytest.raises(ValueError):
        verify_module(ctx, Mab(0, 0), 2, 4, pair_filter="some")


def test_float_module_parameters_raise(ctx):
    # in floats, rounding would read as failed residuals
    with pytest.raises(TypeError, match="not an exact scalar"):
        verify_module(ctx, Mab(0.3, 0.1), 2, 4)


def test_exceptional_families_pass_at_param_zero(ctx):
    for rule in (ExcAlpha(0), ExcAlphaPrime(0), ExcBeta(0), ExcBetaPrime(0)):
        assert verify_module(ctx, rule, 3, 6).failed == 0


def test_exceptional_families_pass_on_generator_triples(ctx):
    # nonzero deformation parameter: the axiom holds on the small window
    # where {n, m, n+m} stay within the generator range
    for rule in (ExcAlpha(Fraction(1, 2)), ExcAlphaPrime(Fraction(-2)),
                 ExcBeta(Fraction(3)), ExcBetaPrime(Fraction(1, 5))):
        rep = verify_module(ctx, rule, 2, 6, pair_filter="generators")
        assert rep.failed == 0


def test_betap_catalogued_reading_breaks_the_axiom(ctx):
    # the bracket-pair variant only closes when pq = 1; 2*3 != 1
    given_reading = ExcBetaPrime(Fraction(1), reading="given")
    rep = verify_module(ctx, given_reading, 2, 4, pair_filter="generators")
    assert rep.failed > 0
    assert verify_module(ctx, ExcBetaPrime(Fraction(1)), 2, 4,
                         pair_filter="generators").failed == 0


def test_betap_catalogued_reading_closes_when_pq_is_one():
    ctx = ScalarContext.numeric("1/3", "3")  # pq = 1
    g = ExcBetaPrime(Fraction(2, 7), reading="given")
    assert verify_module(ctx, g, 2, 4, pair_filter="generators").failed == 0


def test_betap_rejects_unknown_reading():
    with pytest.raises(ValueError):
        ExcBetaPrime(0, reading="original")


def test_parse_family_round_trip():
    rule = parse_family("mab:a=1/3,b=-2")
    assert isinstance(rule, Mab)
    assert rule.a == Fraction(1, 3) and rule.b == Fraction(-2)
    assert rule.describe() == "mab:a=1/3,b=-2"


def test_parse_family_accepts_aliases():
    assert parse_family("alpha:α=0").t == 0
    assert parse_family("alphap:a'=1/2").t == Fraction(1, 2)
    assert parse_family("betap:t=1").t == 1
    assert parse_family("beta:param=-3").t == -3


def test_parse_family_rejects_bad_specs():
    for bad in ("nope:x=1", "mab:a=1/3", "mab:c=1,a=0,b=0", "mab:a", "",
                "mab:a=1,b=2,a=3", "alphap:α'=1,alphap=2", "alpha:t=1,alpha=2"):
        with pytest.raises(ValueError):
            parse_family(bad)


def test_table_rule_guards_its_window(ctx):
    rule = TableRule({(1, 0): Fraction(2)}, window=1)
    assert rule.coeff(ctx, 1, 0) == 2
    with pytest.raises(ValueError):
        rule.coeff(ctx, 1, 5)


def _weights_distinct(ctx, a, window):
    """Whether k -> c(0, k) of mab(a, 0), the weight of v_k, is injective on
    |k| <= window, by a distinctness scan."""
    seen = [Mab(a, ctx.zero).coeff(ctx, 0, k)
            for k in range(-window, window + 1)]
    return all(not is_zero(x - y)
               for i, x in enumerate(seen) for y in seen[i + 1:])


def test_weight_injectivity_closed_form(ctx):
    # injective exactly off the line a = -1/(p-q), here a = 1
    assert -1 / (ctx.p - ctx.q) == 1
    assert _weights_distinct(ctx, Fraction(1), 8) is False
    assert _weights_distinct(ctx, Fraction(0), 8) is True
    assert _weights_distinct(ctx, Fraction(-1, 2), 8) is True


def test_shift_params_values(ctx):
    assert shift_params(ctx, Fraction(0), Fraction(1), 1) == \
        (Fraction(1, 3), Fraction(2, 3))
    a2, b2 = shift_params(ctx, Fraction(1, 5), Fraction(-2), 0)
    assert (a2, b2) == (Fraction(1, 5), Fraction(-2))


@given(small_fracs, small_fracs, st.integers(-4, 4), st.integers(-4, 4))
@settings(max_examples=60)
def test_shift_params_compose_additively(ctx, a, b, m1, m2):
    once = shift_params(ctx, *shift_params(ctx, a, b, m1), m2)
    assert once == shift_params(ctx, a, b, m1 + m2)


def test_shifted_module_admits_diagonal_intertwiner(ctx):
    a, b, m = Fraction(0), Fraction(1), 1
    a2, b2 = shift_params(ctx, a, b, m)
    h = find_intertwiner(ctx, Mab(a, b), Mab(a2, b2), m, 6)
    assert h is not None
    assert h[0] == 1
    # h_{k+n} cA(n,k) = h_k cB(n,k+m) on the validated window
    ra, rb = Mab(a, b), Mab(a2, b2)
    for n in range(-2, 3):
        for k in range(-4, 4):
            assert h[k + n] * ra.coeff(ctx, n, k) == h[k] * rb.coeff(ctx, n, k + m)


def test_unrelated_parameters_admit_no_intertwiner(ctx):
    h = find_intertwiner(ctx, Mab(Fraction(0), Fraction(1)),
                         Mab(Fraction(1, 3), Fraction(1, 2)), 1, 8)
    assert h is None


def test_reducibility_closed_form_witnesses(ctx):
    # a = -p^{-m}[m], b in {0, -p^{-m} q^m}
    assert is_reducible_closed_form(ctx, Fraction(-1, 2), Fraction(0), 4) == 1
    assert is_reducible_closed_form(ctx, Fraction(-1, 2), Fraction(-3, 2), 4) == 1
    assert is_reducible_closed_form(ctx, Fraction(5), Fraction(0), 4) is None
    assert is_reducible_closed_form(ctx, Fraction(-1, 2), Fraction(7), 4) is None


def test_reducibility_rejects_the_degenerate_weight_line(ctx):
    with pytest.raises(ValueError):
        is_reducible_closed_form(ctx, Fraction(1), Fraction(0), 4)


def test_find_submodules_on_reducible_points(ctx):
    # b = -p^{-1} q: the complement of the killed index is invariant
    subs = find_submodules(ctx, Mab(Fraction(-1, 2), Fraction(-3, 2)), 5)
    assert subs == [[k for k in range(-5, 6) if k != -1]]
    # b = 0: v_{-1} spans a one-dimensional invariant line
    assert find_submodules(ctx, Mab(Fraction(-1, 2), Fraction(0)), 4) == [[-1]]


def test_find_submodules_empty_for_generic_parameters(ctx):
    subs, truncated = find_submodules_ex(ctx, Mab(Fraction(5), Fraction(7)), 4)
    assert subs == [] and truncated is False


def test_submodule_supports_are_action_closed(ctx):
    rule = Mab(Fraction(-1, 2), Fraction(-3, 2))
    window = 5
    for support in find_submodules(ctx, rule, window):
        sset = set(support)
        for k in support:
            for t in range(-window, window + 1):
                n = t - k
                if n == 0:
                    continue
                if rule.coeff(ctx, n, k) != 0:
                    assert t in sset


def _is_closed(ctx, rule, window, support):
    return all(t in support for k in support
               for t in range(-window, window + 1)
               if t != k and rule.coeff(ctx, t - k, k) != 0)


def _closed_supports(ctx, rule, window):
    """Brute force: every proper nonempty index set closed under the action."""
    idx = list(range(-window, window + 1))
    out = []
    for mask in range(1, (1 << len(idx)) - 1):
        sset = {k for i, k in enumerate(idx) if mask >> i & 1}
        if _is_closed(ctx, rule, window, sset):
            out.append(sorted(sset))
    return sorted(out, key=lambda s: (len(s), s))


def _table_pairs(window):
    return [(t - k, k) for k in range(-window, window + 1)
            for t in range(-window, window + 1) if t != k]


@given(st.integers(0, 3).flatmap(lambda w: st.tuples(
    st.just(w),
    st.sets(st.sampled_from(_table_pairs(w))) if w else st.just(set()))))
@settings(max_examples=80, deadline=None)
def test_submodule_search_matches_brute_force(ctx, case):
    window, edges = case
    rule = TableRule({nk: int(nk in edges) for nk in _table_pairs(window)},
                     window)
    subs, truncated = find_submodules_ex(ctx, rule, window)
    assert truncated is False
    assert subs == _closed_supports(ctx, rule, window)


def test_submodule_search_truncates_at_the_cap(ctx):
    # no edges: every one of the 2^13 - 2 proper supports is closed
    window = 6
    rule = TableRule({nk: 0 for nk in _table_pairs(window)}, window)
    subs, truncated = find_submodules_ex(ctx, rule, window)
    assert truncated is True and len(subs) == SUBMODULE_CAP == 4096
    assert subs[:3] == [[-6], [-5], [-4]]
    assert len({tuple(s) for s in subs}) == len(subs)
    assert all(0 < len(s) < 2 * window + 1 for s in subs)
    assert all(_is_closed(ctx, rule, window, set(s)) for s in subs)


def test_submodule_search_time_follows_its_output(ctx):
    # a chain (only c(1,k) nonzero) has 2*window + 1 singleton components but
    # only the 2*window tails {j, ..., window} are closed; the search must not
    # walk all 2^29 component sets to find them
    window = 14
    rule = TableRule({nk: int(nk[0] == 1) for nk in _table_pairs(window)},
                     window)
    start = time.perf_counter()
    subs, truncated = find_submodules_ex(ctx, rule, window)
    assert time.perf_counter() - start < 1.0
    assert truncated is False
    assert subs == [list(range(j, window + 1))
                    for j in range(window, -window, -1)]
    assert len(subs) == 28


# -- the memoised sweep against a direct one ----------------------------------

def _literal_coeff(ctx, rule, n, k):
    """Each family's coefficient as its docstring writes it, in p**, q**."""
    p, q, J = ctx.p, ctx.q, ctx.qint
    if isinstance(rule, Mab):
        a, b = rule.a, rule.b
        return (p ** -k * J(k) - a * p ** -k * q ** k
                - b * p ** (-k - n) * q ** k * J(n))
    if isinstance(rule, ExcAlpha):
        if k != -1:
            return p ** (-n - k - 1) * J(n + k + 1)
        return -q ** n * J(-n) + J(-n) * J(n + 1) * p ** -n * q ** n * rule.t
    if isinstance(rule, ExcBeta):
        if k != 1:
            return -(q ** (n + k - 1)) * J(-n - k + 1)
        return -q ** n * J(-n) + p ** -n * q ** n * J(n) * J(1 - n) * rule.t
    if k != -n:
        return p ** -k * J(k)
    if isinstance(rule, ExcAlphaPrime):
        pair = J(-n) * J(n + 1)
    elif rule.reading == "given":
        pair = J(n) * J(n + 1)
    else:
        pair = J(n) * J(1 - n)
    return p ** n * J(-n) + p ** n * q ** -n * pair * rule.t


def _direct_sweep(ctx, rule, nmax, kmax, pair_filter):
    """verify_module's report, built without any coefficient memo."""
    rep = ResidualReport("verify-module", {
        "family": rule.describe(), "nmax": nmax, "kmax": kmax,
        "pair_filter": pair_filter, **ctx.describe()})
    for n in range(-nmax, nmax + 1):
        for m in range(-nmax, nmax + 1):
            if pair_filter == "generators" and not (
                    -2 <= n <= 2 and -2 <= m <= 2 and -2 <= n + m <= 2):
                continue
            for k in range(-kmax, kmax + 1):
                rep.record("module-relation", (n, m, k),
                           relation_residual(ctx, rule, n, m, k))
    return rep


def _family_rules(make):
    """Mab and the four exceptional families, parameters from make(i)."""
    return [Mab(make(0), make(1)), ExcAlpha(make(2)), ExcAlphaPrime(make(3)),
            ExcBeta(make(4)), ExcBetaPrime(make(5)),
            ExcBetaPrime(make(6), reading="given")]


_NUMERIC = (Fraction(1, 3), Fraction(-2), Fraction(1, 2), Fraction(-2),
            Fraction(3), Fraction(1, 5), Fraction(1))


@pytest.mark.parametrize("backend", ["numeric", "symbolic", "formal",
                                     "numeric-5/2,-3/4", "formal-pq"])
def test_memoised_sweep_matches_direct_sweep(backend):
    # verify_module judges each residual by its numerator over a common
    # denominator and reduces only the nonzero ones; the reference reduces
    # every residual with relation_residual
    if backend.startswith("numeric"):
        ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
               else ScalarContext.numeric("5/2", "-3/4"))
        rules = _family_rules(lambda i: _NUMERIC[i])
    else:
        ctx = (ScalarContext.symbolic() if backend == "formal-pq"
               else ScalarContext.symbolic("2", "3"))
        if backend.startswith("formal"):
            rules = _family_rules(lambda i: ctx.var("ab"[i % 2]))
        else:
            rules = _family_rules(lambda i: ctx.scalar(_NUMERIC[i]))
    # a random table fails almost everywhere, so the negated residuals of the
    # swapped pairs are compared string by string
    rnd = random.Random(20261018)

    def entry():
        x = Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
        return x * ctx.var("a") + 1 if backend.startswith("formal") else x

    table = TableRule({(n, k): entry() for n in range(-4, 5)
                       for k in range(-6, 7)}, 6)
    for rule in rules + [table]:
        # the generator window is where the exceptional families close up;
        # the betap "given" reading leaves failures, which must match too
        for pair_filter, nmax, kmax in (("generators", 2, 4), ("all", 2, 3)):
            memo = verify_module(ctx, rule, nmax, kmax, pair_filter)
            direct = _direct_sweep(ctx, rule, nmax, kmax, pair_filter)
            assert memo.to_dict() == direct.to_dict()
    assert direct.failed > 100
    # without c(±4, k) the table is too small for nmax 2; only the diagonal
    # (±2, ±2) reads c(±4, k), and both sweeps must stop there
    small = TableRule({nk: v for nk, v in table.entries.items()
                       if abs(nk[0]) < 4}, 6)
    errors = []
    for sweep in (verify_module, _direct_sweep):
        with pytest.raises(ValueError) as err:
            sweep(ctx, small, 2, 3, "all")
        errors.append(str(err.value))
    assert errors == ["table rule queried outside its window: (-4,-3)"] * 2


@pytest.mark.parametrize("backend", ["numeric", "numeric-5/2,-3/4",
                                     "symbolic", "formal-pq"])
def test_row_numerators_vanish_exactly_with_their_residuals(backend):
    # the numerator over D1·D2·D3 is zero exactly when the reduced residual
    # is, on passing rules (a wrong denominator factor shows there) and on
    # a random table that fails almost everywhere
    if backend == "formal-pq":
        ctx = ScalarContext.symbolic()
        rules = _family_rules(lambda i: ctx.var("ab"[i % 2]))
    else:
        ctx = {"numeric": ScalarContext.numeric(2, 3),
               "numeric-5/2,-3/4": ScalarContext.numeric("5/2", "-3/4"),
               "symbolic": ScalarContext.symbolic("2", "3")}[backend]
        rules = _family_rules(lambda i: ctx.scalar(_NUMERIC[i]))
    rnd = random.Random(20261019)
    rules.append(TableRule({(n, k): ctx.scalar(Fraction(rnd.randint(-3, 3),
                                                        rnd.randint(1, 3)))
                            for n in range(-4, 5) for k in range(-5, 6)}, 5))
    ks = range(-3, 4)
    zeros = nonzeros = 0
    for rule in rules:
        memo = MemoRule(ctx, rule)
        for n in range(-2, 3):
            for m in range(-2, 3):
                nums = modules._pair_numerators(ctx, memo, n, m, ks)
                assert len(nums) == len(ks)
                for k, x in zip(ks, nums):
                    want = is_zero(relation_residual(ctx, rule, n, m, k))
                    assert is_zero(x) == want, (rule.describe(), n, m, k)
                    zeros += want
                    nonzeros += not want
    assert zeros > 1000 and nonzeros > 100


@pytest.mark.parametrize("backend", ["numeric", "formal-pq"])
def test_passing_sweep_reduces_no_residual(backend, monkeypatch):
    # a zero numerator is recorded as the context's zero; only a nonzero
    # one is reduced by relation_residual
    if backend == "numeric":
        ctx = ScalarContext.numeric("5/2", "-3/4")
        passing = Mab(Fraction(1, 3), Fraction(-2))
        failing = ExcBetaPrime(Fraction(1), reading="given")
    else:
        ctx = ScalarContext.symbolic()
        passing = Mab(ctx.var("a"), ctx.var("b"))
        failing = ExcBetaPrime(ctx.var("a"), reading="given")
    reduced = []

    def counting(ctx, rule, n, m, k):
        reduced.append((n, m, k))
        return relation_residual(ctx, rule, n, m, k)

    monkeypatch.setattr(modules, "relation_residual", counting)
    rep = verify_module(ctx, passing, 2, 3)
    assert rep.checked == 5 * 5 * 7 and rep.failed == 0
    assert reduced == []
    rep = verify_module(ctx, failing, 2, 3, pair_filter="generators")
    # each failing unordered pair is reduced once, its swap negated
    assert 0 < len(reduced) <= rep.failed
    assert {tuple(f["indices"]) for f in rep.failures} >= set(reduced)


@pytest.mark.parametrize("backend", ["numeric", "formal-pq"])
def test_passing_rows_build_no_quotient(backend, monkeypatch):
    # once a sweep's coefficients are in its MemoRule, the rows of a passing
    # rule take ring products only: no gcd, no Fraction, no RationalFunction
    if backend == "numeric":
        ctx = ScalarContext.numeric("5/2", "-3/4")
        rule = Mab(Fraction(1, 3), Fraction(-2))
    else:
        ctx = ScalarContext.symbolic()
        rule = Mab(ctx.var("a"), ctx.var("b"))
    memo = MemoRule(ctx, rule)
    pairs = [(n, m) for n in range(-2, 3) for m in range(n, 3)]
    ks = range(-3, 4)
    for n, m in pairs:
        modules._pair_numerators(ctx, memo, n, m, ks)

    def forbidden(*args, **kwargs):
        raise AssertionError("quotient arithmetic on a passing row")

    monkeypatch.setattr(Fraction, "__new__", forbidden)
    monkeypatch.setattr(RationalFunction, "__init__", forbidden)
    monkeypatch.setattr(scalar, "poly_gcd", forbidden)
    rows = [modules._pair_numerators(ctx, memo, n, m, ks) for n, m in pairs]
    monkeypatch.undo()
    assert all(is_zero(x) for row in rows for x in row)


@st.composite
def _pair_tables(draw):
    """(n, m, k) and a value for each coefficient that the three
    relation_residual calls below read; TableRule raises on any other."""
    n, m, k = (draw(st.integers(-2, 2)) for _ in range(3))
    keys = sorted({(m, k), (n, m + k), (n, k), (m, n + k), (n + m, k),
                   (n, n + k), (2 * n, k)})
    values = draw(st.lists(small_fracs, min_size=len(keys),
                           max_size=len(keys)))
    return dict(zip(keys, values)), n, m, k


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
@given(_pair_tables())
@settings(max_examples=60, deadline=None)
def test_relation_residual_is_antisymmetric_in_its_pair(backend, table):
    # verify_module records the negated residual of (n, m) at (m, n) and
    # never computes the latter, for any coefficient rule
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    entries, n, m, k = table
    rule = TableRule(entries, 4)
    forward = relation_residual(ctx, rule, n, m, k)
    swapped = relation_residual(ctx, rule, m, n, k)
    assert swapped == -forward
    assert scalar_str(swapped) == scalar_str(-forward)
    assert is_zero(relation_residual(ctx, rule, n, n, k))


@pytest.mark.parametrize("pair_filter", ["all", "generators"])
def test_verify_module_computes_each_pair_once(ctx, monkeypatch, pair_filter):
    calls = []
    pair_numerators = modules._pair_numerators

    def counting(ctx, rule, n, m, ks):
        rows = pair_numerators(ctx, rule, n, m, ks)
        calls.append(((n, m), len(rows)))
        return rows

    monkeypatch.setattr(modules, "_pair_numerators", counting)
    nmax, kmax = 3, 5
    rep = verify_module(ctx, ExcBetaPrime(Fraction(1), reading="given"),
                        nmax, kmax, pair_filter)
    pairs = [(n, m) for n in range(-nmax, nmax + 1)
             for m in range(n, nmax + 1)
             if pair_filter == "all" or max(abs(n), abs(m), abs(n + m)) <= 2]
    # one row evaluation per off-diagonal unordered pair, 2·kmax + 1
    # residuals each; a diagonal pair (n, n) is zero by antisymmetry and
    # forms no numerator
    assert sorted(pair for pair, _ in calls) == [
        (n, m) for n, m in pairs if n != m]
    assert all(size == 2 * kmax + 1 for _, size in calls)
    assert rep.failed > 0
    # every ordered pair, the diagonal included, is still recorded
    diagonal = sum(n == m for n, m in pairs)
    assert rep.checked == (2 * len(pairs) - diagonal) * (2 * kmax + 1)


def test_a_diagonal_pair_reads_its_rows(ctx):
    # (1, 1) is zero for any rule and forms no numerator, but it reads its
    # rows, so an entry the rule cannot give raises, also where the sweep's
    # plan leaves the reads lazy (a list of ks)
    entries = {(n, k): Fraction(n + k) for n in (1, 2) for k in range(-3, 4)}
    rep = ResidualReport("diagonal")
    modules._sweep_pairs(ctx, MemoRule(ctx, TableRule(entries, 3)), rep,
                         [(1, 1, [0, 2])])
    assert rep.checked == 2 and rep.failed == 0
    del entries[2, 2]
    with pytest.raises(ValueError, match=r"\(2,2\)"):
        modules._sweep_pairs(ctx, MemoRule(ctx, TableRule(entries, 3)), rep,
                             [(1, 1, [0, 2])])


@pytest.mark.parametrize("ctx_kind", ["numeric", "formal", "formal-ab"])
def test_family_coefficients_match_their_literal_formulas(ctx_kind):
    # each value and each joined row entry against the docstring formula,
    # at a point, at formal p, q and with formal a, b at a point; the
    # window holds n = 0, k = 0 and the special lines k = -1, 1, -n
    if ctx_kind == "numeric":
        ctx = ScalarContext.numeric("5/2", "-3/4")
        rules = _family_rules(lambda i: _NUMERIC[i])
    elif ctx_kind == "formal":
        ctx = ScalarContext.symbolic()
        rules = _family_rules(lambda i: ctx.var("ab"[i % 2]))
    else:
        ctx, rules = _row_case("formal-ab")
        rules = [r for r in rules if not isinstance(r, TableRule)]
    ks = range(-4, 5)
    for rule in rules:
        for n in range(-3, 4):
            for k, parts in zip(ks, rule.parts_row(ctx, n, ks)):
                want = _literal_coeff(ctx, rule, n, k)
                where = (rule.describe(), n, k)
                assert is_zero(rule.coeff(ctx, n, k) - want), where
                assert is_zero(ctx.join(*parts) - want), where


def test_rule_under_two_contexts_keeps_them_apart():
    c23 = ScalarContext.numeric(2, 3)
    c57 = ScalarContext.numeric(5, 7)
    rule = Mab(Fraction(1, 3), Fraction(-2))
    memo = MemoRule(c23, rule)
    for n, k in ((1, 0), (2, -3), (-1, 4)):
        want23 = _literal_coeff(c23, rule, n, k)
        want57 = _literal_coeff(c57, rule, n, k)
        assert want23 != want57
        assert rule.coeff(c23, n, k) == want23
        assert rule.coeff(c57, n, k) == want57
        assert memo.coeff(c23, n, k) == want23
        assert memo.coeff(c57, n, k) == want57
        assert memo.coeff(c23, n, k) == want23
    ks = [-2, 0, 3]
    for n in (1, -2):
        assert memo.parts_row(c23, n, ks) == rule.parts_row(c23, n, ks)
        assert memo.parts_row(c57, n, ks) == rule.parts_row(c57, n, ks)
        assert memo.parts_row(c57, n, ks) != memo.parts_row(c23, n, ks)
    assert verify_module(c23, rule, 2, 4).failed == 0
    assert verify_module(c57, rule, 2, 4).failed == 0


def test_memo_rule_describes_its_rule(ctx):
    rule = ExcBetaPrime(Fraction(1, 5), reading="given")
    memo = MemoRule(ctx, rule)
    assert memo.describe() == rule.describe() == "betap:betap=1/5,reading=given"
    assert memo.coeff(ctx, 2, -2) is memo.coeff(ctx, 2, -2)
    assert memo.parts_row(ctx, 2, [-2])[0] is memo.parts_row(ctx, 2, [-2])[0]
    # a row read at other ks, in another order, keeps each entry with its k
    row = memo.parts_row(ctx, 2, [1, -2, 0, -3])
    assert row == rule.parts_row(ctx, 2, [1, -2, 0, -3])
    assert row[1] is memo.parts_row(ctx, 2, [-2])[0]


def test_verify_module_asks_each_coefficient_once():
    # the sweep reads every row through one MemoRule, so the rule is asked
    # for the parts of each c(n, k) at most once
    ctx = ScalarContext.numeric(2, 3)
    rule = Mab(Fraction(1, 3), Fraction(-2))
    asked = []
    real = rule.parts_row

    def counting(ctx, n, ks):
        asked.extend((n, k) for k in ks)
        return real(ctx, n, ks)

    rule.parts_row = counting
    assert verify_module(ctx, rule, 4, 8).failed == 0
    assert asked and len(asked) == len(set(asked))


@pytest.mark.parametrize("pair_filter", ["all", "generators"])
@pytest.mark.parametrize("backend", ["numeric", "formal-ab"])
def test_range_sweep_reads_each_row_once(backend, pair_filter):
    # the sweep plans its range reads, so the rule is asked for each row
    # by one parts_row call, however many pairs read it
    ctx = ScalarContext.numeric(2, 3) if backend == "numeric" else (
        ScalarContext.symbolic("2", "3"))
    a, b = ((Fraction(1, 3), Fraction(-2)) if backend == "numeric"
            else (ctx.var("a"), ctx.var("b")))
    rule = Mab(a, b)
    calls = []
    own = rule.parts_row

    def counting(ctx, n, ks):
        calls.append(n)
        return own(ctx, n, ks)

    rule.parts_row = counting
    assert verify_module(ctx, rule, 4, 6, pair_filter).failed == 0
    assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("pair_filter", ["all", "generators"])
def test_sweep_over_a_table_of_exactly_its_reads(ctx, pair_filter):
    # a TableRule raises outside its entries: built on exactly the entries
    # a sweep reads, the planned reads ask for none beyond them
    a, b = Fraction(1, 3), Fraction(-2)
    rule = _asking(Mab(a, b))
    want = verify_module(ctx, rule, 3, 5, pair_filter)
    table = TableRule({nk: rule.coeff(ctx, *nk) for nk in rule.asked}, 5)
    got = verify_module(ctx, table, 3, 5, pair_filter)
    assert got.failed == 0 and got.checked == want.checked
    del table.entries[max(table.entries)]
    with pytest.raises(ValueError, match="outside its window"):
        verify_module(ctx, table, 3, 5, pair_filter)


def _asking(rule):
    """rule, its parts_row noting the ks it is asked for in `rule.asked`;
    `rule.own` is the uncounted parts_row."""
    rule.own = rule.parts_row
    rule.asked = []

    def counting(ctx, n, ks):
        rule.asked.extend((n, k) for k in ks)
        return rule.own(ctx, n, ks)

    rule.parts_row = counting
    return rule


@pytest.mark.parametrize("backend", ["numeric", "symbolic", "formal-pq"])
def test_memo_reads_compute_each_entry_once(backend):
    # overlapping range reads, list reads with gaps, repeats and any order,
    # and reads that widen a row's span to either side: each read gives the
    # rule's own row, and the rule is asked for each entry once
    ctx = {"numeric": ScalarContext.numeric(2, 3),
           "symbolic": ScalarContext.symbolic("2", "3"),
           "formal-pq": ScalarContext.symbolic()}[backend]
    reads = [range(-3, 4), range(0, 8), [10, 5, -6, 10], range(-8, 12),
             [7, -3], range(-2, 2), [14, -12, 14], range(-12, 15),
             range(5, 5), [], range(3, -3, -2)]
    for rule in _family_rules(lambda i: ctx.scalar(_NUMERIC[i])):
        memo = MemoRule(ctx, _asking(rule))
        want = set()
        for n in (-2, 1, 3):
            for ks in reads:
                got = memo.parts_row(ctx, n, ks)
                assert got == [rule.own(ctx, n, [k])[0] for k in ks], (
                    rule.describe(), n, ks)
                want |= {(n, k) for k in ks}
        assert sorted(rule.asked) == sorted(want), rule.describe()


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
def test_memo_computes_no_entry_it_was_not_asked_for(backend):
    # a TableRule raises outside its window: a read is filled by one call
    # on exactly its missing ks, so a read at the window's edge, or one
    # whose list of ks spans a gap in a row, asks for nothing beyond them,
    # and a read that fails leaves the memo as it was
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    window = 3
    entries = {(n, k): Fraction(n * n + k, 3) for n in (1, 2)
               for k in range(-window, window + 1)}
    del entries[1, 0]       # a gap inside row 1
    rule = _asking(TableRule(entries, window))
    memo = MemoRule(ctx, rule)

    def asks(n, ks, error=None):
        del rule.asked[:]
        if error is None:
            assert memo.parts_row(ctx, n, ks) == [
                ctx.parts(ctx.scalar(entries[n, k])) for k in ks]
        else:
            with pytest.raises(ValueError, match=error):
                memo.parts_row(ctx, n, ks)
        return rule.asked

    edge = range(-window, window + 1)
    assert asks(2, edge) == [(2, k) for k in edge]
    assert asks(2, range(-window, window + 2), r"\(2,4\)") == [(2, 4)]
    assert asks(2, [-window - 1, 0], r"\(2,-4\)") == [(2, -4)]
    assert asks(2, edge) == asks(2, edge[::-1]) == asks(2, [3, 0, 3]) == []
    assert asks(1, [-window, window]) == [(1, -window), (1, window)]
    assert asks(1, [window, -2, -window]) == [(1, -2)]
    assert asks(1, edge, r"\(1,0\)") == [(1, -1), (1, 0), (1, 1), (1, 2)]
    assert asks(1, range(1, window + 1)) == [(1, 1), (1, 2)]
    assert asks(1, [-1, 3]) == [(1, -1)]
    assert asks(1, range(1, window + 1)) == []


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
def test_intertwiner_reads_each_coefficient_once(backend):
    # each rule is read through one MemoRule: the validation's n = 1 rows
    # are those the propagation read
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    a, b, m = ctx.scalar(Fraction(1, 3)), ctx.scalar(-2), 2
    ruleA, ruleB = _asking(Mab(a, b)), _asking(Mab(*shift_params(ctx, a, b,
                                                                 m)))
    assert find_intertwiner(ctx, ruleA, ruleB, m, 6) is not None
    for rule in (ruleA, ruleB):
        assert rule.asked and len(rule.asked) == len(set(rule.asked))


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
def test_parameters_may_be_ints_fractions_or_scalars(backend):
    # every formula mixes its parameters with context scalars, so int and
    # Fraction parameters promote exactly; only the outside value changes
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    results = []
    for conv in (int, Fraction, ctx.scalar):
        a, b, t = conv(1), conv(-2), conv(3)
        coeffs = [rule.coeff(ctx, n, k)
                  for rule in (Mab(a, b), ExcAlpha(t), ExcAlphaPrime(t),
                               ExcBeta(t), ExcBetaPrime(t))
                  for n in (-2, 1) for k in (-1, 1, 2)]
        assert all(type(c) is type(ctx.one) for c in coeffs)
        reports = [verify_module(ctx, Mab(a, b), 2, 3),
                   identity_audit(ctx, a, b),
                   l2_display_audit(ctx, a, b, 2),
                   quadratic_roots_audit(ctx, a, b),
                   case_constants_audit(ctx, conv(-1), window=4)]
        scalars = [*shift_params(ctx, a, b, 2), second_solution(ctx, a, b),
                   case3_constants(ctx, t).H]
        results.append(([str(c) for c in coeffs + scalars],
                        [r.to_dict() for r in reports],
                        is_reducible_closed_form(ctx, conv(0), conv(0), 2),
                        _weights_distinct(ctx, a, 4)))
    assert results[0] == results[1] == results[2]


def test_table_rule_converts_its_entries_once_read():
    sym = ScalarContext.symbolic("2", "3")
    rule = TableRule({(1, 0): 2, (0, 0): "1/3", (0, 1): Fraction(-1)},
                     window=1)
    for ctx in (ScalarContext.numeric(2, 3), sym):
        got = [rule.coeff(ctx, 1, 0), rule.coeff(ctx, 0, 0),
               rule.coeff(ctx, 0, 1)]
        assert all(type(c) is type(ctx.one) for c in got)
        assert [str(c) for c in got] == ["2", "1/3", "-1"]
    with pytest.raises(ValueError, match="symbolic parameter"):
        TableRule({(0, 0): sym.var("a")}, window=0).coeff(
            ScalarContext.numeric(2, 3), 0, 0)


# -- coefficient rows against single values -----------------------------------

def _row_case(backend):
    """A context and every family at it, with a random table rule."""
    if backend.startswith("numeric"):
        ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
               else ScalarContext.numeric("5/2", "-3/4"))
    else:
        ctx = (ScalarContext.symbolic() if backend == "formal-pq"
               else ScalarContext.symbolic("2", "3"))
    if backend.startswith("formal"):
        rules = _family_rules(lambda i: ctx.var("ab"[i % 2]))
    else:
        rules = _family_rules(lambda i: ctx.scalar(_NUMERIC[i]))
    rnd = random.Random(20261020)
    rules.append(TableRule({(n, k): Fraction(rnd.randint(-2, 2),
                                             rnd.randint(1, 3))
                            for n in range(-3, 4) for k in range(-6, 7)}, 6))
    return ctx, rules


@pytest.mark.parametrize("backend", ["numeric", "numeric-5/2,-3/4",
                                     "symbolic", "formal-pq", "formal-ab"])
def test_parts_row_matches_coeff(backend):
    # each pair is an unreduced quotient of c(n, k): num = c·den exactly
    # and den nonzero, on the special lines k = -1, 1, -n and off them, for
    # rows given in any order
    ctx, rules = _row_case(backend)
    for rule in rules:
        for n in range(-3, 4):
            for ks in (range(-6, 7), [4, -n, 1, -1, 0]):
                row = rule.parts_row(ctx, n, ks)
                assert len(row) == len(ks)
                for k, (num, den) in zip(ks, row):
                    cn, cd = ctx.parts(rule.coeff(ctx, n, k))
                    assert not is_zero(den), (rule.describe(), n, k)
                    assert is_zero(scalar.ring_sum(
                        (num, cd), (-1, cn, den))), (rule.describe(), n, k)


@pytest.mark.parametrize("backend", ["numeric", "formal-pq"])
def test_mab_rows_reduce_nothing(backend, monkeypatch):
    # with the parts of a, b and the basis ctx.hu at hand, a Mab row builds
    # A_n = a + b h(n) and every entry from parts: on a warm context it
    # makes no Fraction, calls no gcd (math.gcd included) and splits no
    # cached value, however long it is; one coeff value on a cold context
    # and one row there do all three, which shows that the hooks count
    def case():
        if backend == "numeric":
            ctx = ScalarContext.numeric("5/2", "-3/4")
            return ctx, Mab(Fraction(1, 3), Fraction(-2))
        ctx = ScalarContext.symbolic()
        return ctx, Mab(ctx.var("a"), ctx.var("b"))

    ctx, rule = case()
    for n in (-2, 3):
        rule.parts_row(ctx, n, range(-12, 13))
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__",
                        counting("Fraction", Fraction.__new__))
    monkeypatch.setattr(scalar, "poly_gcd",
                        counting("poly_gcd", scalar.poly_gcd))
    monkeypatch.setattr(math, "gcd", counting("gcd", math.gcd))
    monkeypatch.setattr(ScalarContext, "split",
                        counting("split", ScalarContext.split))
    counts = []
    for n in (-2, 3):
        for ks in (range(-1, 2), range(-12, 13)):
            del calls[:]
            rule.parts_row(ctx, n, ks)
            counts.append(len(calls))
    del calls[:]
    cold, rule = case()
    rule.coeff(cold, 3, 5)
    rule.parts_row(cold, 3, range(5, 6))
    control = set(calls)
    monkeypatch.undo()
    assert counts == [0, 0, 0, 0]
    want = {"split"} | ({"Fraction", "gcd"} if backend == "numeric"
                        else {"poly_gcd"})
    assert want <= control, control


@pytest.mark.parametrize("backend", ["numeric", "formal-ab", "formal-pq"])
def test_mab_rows_share_the_basis_of_their_context(backend):
    # the basis ctx.hu depends on k alone, so rows of one Mab read after
    # those of another Mab and of an exceptional family on the same
    # context are the rows a fresh context gives
    def fresh():
        if backend == "numeric":
            ctx = ScalarContext.numeric("-3/2", "1/4")
            return ctx, ctx.scalar
        ctx = (ScalarContext.symbolic("-3/2", "1/4")
               if backend == "formal-ab" else ScalarContext.symbolic())
        a, b = ctx.var("a"), ctx.var("b")
        return ctx, lambda i: [a, b, a * b, 1 / a][i]

    ctx, make = fresh()
    first, second = Mab(make(0), make(1)), Mab(make(2), make(3))
    fill = (first, ExcAlpha(make(1)), ExcBetaPrime(make(0)))
    for rule in fill:
        for n in range(-4, 5):
            rule.parts_row(ctx, n, range(-9, 10))
    want_ctx, want_make = fresh()
    want_rule = Mab(want_make(2), want_make(3))
    for n in range(-6, 7):
        for ks in (range(-12, 13), [7, -n, 0, 3, -11]):
            assert (second.parts_row(ctx, n, ks)
                    == want_rule.parts_row(want_ctx, n, ks)), (n, ks)


def test_mab_rows_at_a_point_keep_int_denominators(monkeypatch):
    # at a rational point with formal a, b every part of h(k), u^k and the
    # basis is an int, so a Mab row hands out int denominators and takes
    # one ring_sum per entry for its numerator, beside the two that build
    # A_n's parts; a rule with a formal denominator (1/a) keeps Polys there
    summed = []
    real = modules.ring_sum

    def counting(*products):
        summed.append(products)
        return real(*products)

    for p, q in (("2", "3"), ("-3/2", "1/4")):
        ctx = ScalarContext.symbolic(p, q)
        a, b = ctx.var("a"), ctx.var("b")
        for rule in (Mab(a, b), Mab(ctx.scalar(2), b), Mab(a * b, a + b)):
            for n in range(-3, 4):
                for ks in (range(-2, 1), range(-12, 13), [5, -n, 1]):
                    with monkeypatch.context() as patch:
                        patch.setattr(modules, "ring_sum", counting)
                        del summed[:]
                        row = rule.parts_row(ctx, n, ks)
                    assert all(type(den) is int for _, den in row)
                    assert len(summed) == len(ks) + 2, (p, q, n, ks)
        row = Mab(1 / a, b).parts_row(ctx, 1, range(-3, 4))
        assert all(type(den) is Poly for _, den in row)


# sha256 of the verify_module reports of Mab(a, b) with formal a, b that the
# formal workload sweeps: (6, 10) at its three points, (4, 6) at formal
# p, q ("p,q").  Rows are built from different parts at a point and at
# formal p, q; a change that alters any report byte on purpose updates
# these and says why
_SWEEP_SHA256 = {
    "2,3": "4edaa24ce4bd84e54777211c7896810442b2ef108028a3de969e180bf409cc23",
    "5,7": "da6cbd0dbca33b7e0ddd300c1b168b7df1471c53f460ae1dd7a5959becd1274f",
    "-3/2,1/4": "c3b089bd70068015cfcf45c24060829d9722c95d26458228b2ea4199b5eb491f",
    "p,q": "dff9a6c31e3d267ae504bebddfee24ff252f5c24372f98927ffebb8864059d7a",
}


@pytest.mark.parametrize("point", sorted(_SWEEP_SHA256))
def test_formal_sweep_bytes_are_unchanged(point):
    if point == "p,q":
        ctx, window = ScalarContext.symbolic(), (4, 6)
    else:
        ctx, window = ScalarContext.symbolic(*point.split(",")), (6, 10)
    rep = verify_module(ctx, Mab(ctx.var("a"), ctx.var("b")), *window)
    data = json.dumps(rep.to_dict(), sort_keys=True, indent=2)
    got = hashlib.sha256(data.encode("utf-8")).hexdigest()
    assert got == _SWEEP_SHA256[point]


@pytest.mark.parametrize("backend", ["numeric", "formal-ab", "formal-pq"])
def test_module_sweep_splits_cached_values_once(backend, monkeypatch):
    # the parts of h(k) and u^k come from ctx.split, so on a warm context
    # a sweep calls ctx.parts only for a and b, once per row: as often at
    # kmax 16 as at kmax 8
    if backend == "numeric":
        ctx = ScalarContext.numeric("5/2", "-3/4")
        rule = Mab(Fraction(1, 3), Fraction(-2))
    else:
        ctx = (ScalarContext.symbolic() if backend == "formal-pq"
               else ScalarContext.symbolic("2", "3"))
        rule = Mab(ctx.var("a"), ctx.var("b"))
    real = ScalarContext.parts
    calls = []

    def counting(self, x):
        calls.append(1)
        return real(self, x)

    counts = []
    for kmax in (8, 16):
        assert verify_module(ctx, rule, 4, kmax).failed == 0   # warms ctx
        with monkeypatch.context() as patch:
            patch.setattr(ScalarContext, "parts", counting)
            del calls[:]
            assert verify_module(ctx, rule, 4, kmax).failed == 0
        counts.append(len(calls))
    assert 0 < counts[0] == counts[1], counts


def test_ground_rows_multiply_no_constant_polys(monkeypatch):
    # at a rational point every h(k) and u^k is a constant, so their parts
    # are ints and the row kernels multiply no two constant Polys on a warm
    # context, and a Mab row with formal a, b builds A_n = a + b h(n) from
    # parts, so that count stays flat as the rows grow
    real = Poly.__mul__
    products = []

    def counting(self, other):
        if isinstance(other, Poly) and self.is_const() and other.is_const():
            products.append(1)
        return real(self, other)

    def constant_products(run):
        rep = run()    # warms the context caches
        with monkeypatch.context() as patch:
            patch.setattr(Poly, "__mul__", counting)
            del products[:]
            again = run()
        for r in (rep, again):
            if r is not None:
                assert r.checked > 0 and r.failed == 0
        return len(products)

    ctx = ScalarContext.symbolic("2", "3")
    assert constant_products(lambda: verify_algebra(ctx, 4)) == 0
    nums = []
    assert constant_products(
        lambda: nums.append(pascal_numerators(ctx, 3, range(-6, 7)))) == 0
    assert all(is_zero(x) for row in nums for x in row)
    for p, q in (("2", "3"), ("-3/2", "1/4")):
        ctx = ScalarContext.symbolic(p, q)
        rule = Mab(ctx.var("a"), ctx.var("b"))
        counts = [constant_products(lambda: verify_module(ctx, rule, 3, kmax))
                  for kmax in (5, 10)]
        assert counts[0] == counts[1], (p, q, counts)


def test_kernels_meet_ints_and_polys_only_in_ring_sum():
    # Poly operators raise TypeError on an int operand, so each sweep that
    # completes mixes ints and Polys only in ring_sum (or ctx.join).  The
    # sweeps of the formal workload, with fg_recurrence_audit beside its
    # l2_display_audit, rules whose rows mix int and Poly parts (an int
    # numerator over a Poly denominator too), and find_intertwiner, which
    # validates by cross-multiplied parts: formal a, b at two points, then
    # formal p, q
    for p, q in (("2", "3"), ("-3/2", "1/4")):
        ctx = ScalarContext.symbolic(p, q)
        a, b = ctx.var("a"), ctx.var("b")
        for rep in (verify_module(ctx, Mab(a, b), 3, 5),
                    verify_module(ctx, Mab(ctx.scalar(2), b), 3, 5),
                    verify_module(ctx, Mab(1 / a, ctx.zero), 3, 5),
                    verify_module(ctx, ExcBetaPrime(a), 3, 5),
                    l2_display_audit(ctx, a, b, 4),
                    fg_recurrence_audit(ctx, a, b, 4)):
            assert rep.checked > 0 and rep.failed == 0
        shifted = Mab(*shift_params(ctx, a, b, 1))
        assert find_intertwiner(ctx, Mab(a, b), shifted, 1, 4) is not None
        assert find_intertwiner(ctx, Mab(a, b), Mab(a + ctx.one, b),
                                0, 4) is None
    f = ScalarContext.symbolic()
    for rep in (verify_module(f, Mab(f.var("a"), f.var("b")), 2, 3),
                verify_module(f, Mab(f.scalar(2), f.scalar(-1)), 2, 3),
                verify_algebra(f, 3),
                fg_recurrence_audit(f, f.var("a"), f.var("b"), 2)):
        assert rep.checked > 0 and rep.failed == 0
    for m in range(-3, 4):
        assert all(is_zero(x) for x in pascal_numerators(f, m, range(-4, 5)))
        assert is_zero(reflection_residual(f, m))


def test_mixed_rows_take_columns(monkeypatch):
    # at (2,3), Mab(2, b) has constant numerators on its row n = 0 (A_0 = 2)
    # and Polys in b elsewhere, and ExcBetaPrime(a) has Poly numerators on
    # its line k = -n only; every denominator is an int, so each row of
    # numerators is taken by columns, five column reads and no ring_sum,
    # and Mab(1/a, 0), whose denominators are Polys, keeps three-product
    # ring_sums.  Each numerator agrees with the reduced relation_residual,
    # zero or not
    ctx = ScalarContext.symbolic("2", "3")
    a, b = ctx.var("a"), ctx.var("b")
    summed, read = [], []
    real_sum, real_columns = modules.ring_sum, MemoRule.columns

    def counting(*products):
        summed.append(len(products))
        return real_sum(*products)

    def reading(self, ctx, n, ks):
        read.append(n)
        return real_columns(self, ctx, n, ks)

    ks = range(-4, 5)
    zeros = nonzeros = 0
    for rule, columns in ((Mab(ctx.scalar(2), b), True),
                          (ExcBetaPrime(a), True),
                          (ExcBetaPrime(a, reading="given"), True),
                          (Mab(1 / a, ctx.zero), False)):
        memo = MemoRule(ctx, rule)
        for n in range(-3, 4):
            for m in range(-3, 4):
                modules._pair_numerators(ctx, memo, n, m, ks)
                with monkeypatch.context() as patch:
                    patch.setattr(modules, "ring_sum", counting)
                    patch.setattr(MemoRule, "columns", reading)
                    del summed[:], read[:]
                    nums = modules._pair_numerators(ctx, memo, n, m, ks)
                if columns:
                    assert summed == [] and len(read) == 5, rule.describe()
                    assert all(type(x) is int for x in nums)
                else:
                    assert read == [] and summed.count(3) == len(ks)
                for k, x in zip(ks, nums):
                    want = is_zero(relation_residual(ctx, rule, n, m, k))
                    assert is_zero(x) == want, (rule.describe(), n, m, k)
                    zeros += want
                    nonzeros += not want
        # every entry the sweep read: rows n + m at ks, rows n, m at k + m
        kinds = set()
        for n in range(-6, 7):
            span = range(-7, 8) if abs(n) <= 3 else ks
            for num, den in memo.parts_row(ctx, n, span):
                kinds |= {(type(num), type(den))}
        assert {den for _, den in kinds} == ({int} if columns else {Poly})
        assert {num for num, _ in kinds} >= {Poly}, rule.describe()
    assert zeros > 1000 and nonzeros > 10
    # a rule with int parts only keeps the int expressions
    memo = MemoRule(ctx, Mab(ctx.scalar(2), ctx.scalar(3)))
    with monkeypatch.context() as patch:
        patch.setattr(modules, "ring_sum", counting)
        patch.setattr(MemoRule, "columns", reading)
        del summed[:], read[:]
        nums = modules._pair_numerators(ctx, memo, 1, 2, ks)
    assert summed == read == [] and all(type(x) is int and x == 0
                                        for x in nums)


def _ring_sum_numerators(ctx, memo, n, m, ks):
    """The numerators of the pair (n, m) as three-product ring_sums over
    the memo's parts, whatever their types: the reference the column
    kernel is held to."""
    a1, b1 = ctx.split("upow", n)
    a2, b2 = ctx.split("upow", m)
    hm, dhm = ctx.split("hq", m)
    hn, dhn = ctx.split("hq", n)
    k1 = scalar.ring_sum((a1, b2, dhm, dhn))
    k2 = scalar.ring_sum((-1, a2, b1, dhm, dhn))
    k3 = scalar.ring_sum((hn, dhm, b1, b2), (-1, hm, dhn, b1, b2))
    return [scalar.ring_sum((k1, nm, nnm, dn, dmn, ds),
                            (k2, nn, nmn, dm, dnm, ds),
                            (k3, ns, dm, dnm, dn, dmn))
            for (nm, dm), (nnm, dnm), (nn, dn), (nmn, dmn), (ns, ds)
            in zip(*modules._pair_reads(memo.parts_row, ctx, n, m, ks))]


@pytest.mark.parametrize("point", [("2", "3"), ("5", "7"), ("-3/2", "1/4")])
def test_column_flags_match_ring_sum_numerators(point, monkeypatch):
    # formal a, b at a point: the column kernel's zero flags are those of
    # the ring_sum numerators, for ks as a range and as a list, on rows
    # whose span a list read has grown with holes (a range read there
    # takes the columns of its own entries) and once they are filled
    # again; a random table with Poly entries fails almost everywhere.  A
    # sweep turns each row it reads by columns into columns once
    ctx = ScalarContext.symbolic(*point)
    a, b = ctx.var("a"), ctx.var("b")
    rnd = random.Random(20261022)
    table = TableRule({(n, k): (ctx.scalar(Fraction(rnd.randint(-3, 3),
                                                    rnd.randint(1, 3))) * a
                                + ctx.scalar(rnd.randint(-2, 2)) * b)
                       for n in range(-6, 7) for k in range(-12, 13)}, 12)
    holey = []
    real = MemoRule.columns

    def reading(self, ctx, n, ks):
        holey.append(type(ks) is range and self._rows[n][2] > 0)
        return real(self, ctx, n, ks)

    monkeypatch.setattr(MemoRule, "columns", reading)
    zeros = nonzeros = 0
    for rule in (Mab(a, b), Mab(ctx.scalar(2), b), Mab(a * b, a + b),
                 ExcAlpha(b), ExcBetaPrime(a),
                 ExcBetaPrime(a, reading="given"), table):
        memo = MemoRule(ctx, rule)
        for ks in (range(-1, 2), [-7, 6], range(-3, 4), [3, -2, 0, 3],
                   range(-8, 9)):
            for n in range(-3, 4):
                for m in range(-3, 4):
                    flags = modules._pair_numerators(ctx, memo, n, m, ks)
                    want = _ring_sum_numerators(ctx, memo, n, m, ks)
                    assert [bool(x) for x in flags] == [
                        not is_zero(x) for x in want], (rule.describe(), ks)
                    zeros += flags.count(0)
                    nonzeros += len(flags) - flags.count(0)
        assert not any(entry[2] for entry in memo._rows.values())
    assert zeros > 1000 and nonzeros > 500
    assert any(holey) and not all(holey)
    built, real_columns = [], modules._columns
    monkeypatch.setattr(modules, "_columns",
                        lambda parts: built.append(len(parts))
                        or real_columns(parts))
    memo = MemoRule(ctx, Mab(a, b))
    ns, ks = range(-3, 4), range(-5, 6)
    modules._sweep_pairs(ctx, memo, ResidualReport("columns"),
                         [(n, m, ks) for n in ns for m in ns])
    assert sorted(built) == sorted(length for _, length, _, _
                                   in memo._cols.values())
    assert len(built) == len(memo._cols) > 0


def test_column_kernel_raises_past_emax_as_ring_sum_does(capsys,
                                                         monkeypatch):
    # every entry is a^16384 + 1, so c(m,k) c(n,m+k) holds a^32768: the
    # column kernel raises ring_sum's ValueError before any ring_sum or
    # relation_residual is called, and the CLI maps it to exit 2.  Where
    # the columns a^16384 of two rows are never nonzero at the same k,
    # their products add nothing, and neither ring_sum nor the columns
    # raise
    def overflowing(ctx):
        half = ctx.var("a") ** 16384 + ctx.one
        return TableRule({(n, k): half for n in range(-4, 5)
                          for k in range(-6, 7)}, 6)

    def forbidden(*args):
        raise AssertionError("the overflow is the column kernel's to find")

    ctx = ScalarContext.symbolic("2", "3")
    with monkeypatch.context() as patch:
        patch.setattr(modules, "ring_sum", forbidden)
        patch.setattr(modules, "relation_residual", forbidden)
        with pytest.raises(ValueError, match="exponent above 32767"):
            verify_module(ctx, overflowing(ctx), 2, 3)
        with pytest.raises(ValueError, match="exponent above 32767"):
            _ring_sum_numerators(ctx, MemoRule(ctx, overflowing(ctx)),
                                 1, 2, range(-3, 4))
    half = ctx.var("a") ** 16384
    apart = TableRule({(n, k): half if (n, k) in ((1, 0), (2, 5)) else 1
                       for n in range(1, 4) for k in range(-3, 10)}, 9)
    memo = MemoRule(ctx, apart)
    ks = range(-2, 5)
    flags = modules._pair_numerators(ctx, memo, 1, 2, ks)
    assert [bool(x) for x in flags] == [
        not is_zero(x) for x in _ring_sum_numerators(ctx, memo, 1, 2, ks)]
    assert any(e & scalar._GUARD for e in (
        e1 + e2 for e1 in memo.columns(ctx, 2, ks)[0]
        for e2 in memo.columns(ctx, 1, range(0, 7))[0]))
    monkeypatch.setitem(suite._HANDLERS, "verify-module",
                        lambda ctx, spec, rng: verify_module(
                            ctx, overflowing(ctx), 2, 3))
    rc = cli.main(["verify-module", "--backend", "symbolic",
                   "--family", "mab:a=1,b=1"])
    out = capsys.readouterr()
    assert rc == 2 and out.out == ""
    assert out.err == "vpq: exponent above 32767, the limit of a packed " \
        "monomial\n"


def test_a_column_kernel_mutant_breaks_the_formal_sweep(monkeypatch):
    # with the sign of the third product flipped in the column kernel, the
    # sweep of Mab(a, b) at a point fails and its pinned bytes change.
    # Mab is a module, so each numerator the flip makes nonzero reduces to
    # a zero value and is reported as module-row-value.  The bundled
    # numeric suite never takes this kernel: its parts are all ints
    source = inspect.getsource(modules._pair_columns)
    third = "w3.append(-a3 * d1 * d2)"
    assert source.count(third) == 1
    space = {}
    exec(source.replace(third, third.replace("-", "")), vars(modules), space)
    monkeypatch.setattr(modules, "_pair_columns", space["_pair_columns"])
    ctx = ScalarContext.symbolic("2", "3")
    rep = verify_module(ctx, Mab(ctx.var("a"), ctx.var("b")), 6, 10)
    assert rep.failed > 0
    assert {f["identity"] for f in rep.failures} == {"module-row-value"}
    with pytest.raises(AssertionError):
        test_formal_sweep_bytes_are_unchanged("2,3")


def _pair_scan_edges(ctx, rule, window):
    """The action graph by one c(n, k) value per (k, t) pair."""
    adj = {k: [] for k in range(-window, window + 1)}
    for k in range(-window, window + 1):
        for t in range(-window, window + 1):
            if t != k and not is_zero(rule.coeff(ctx, t - k, k)):
                adj[k].append(t)
    return adj


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
def test_edges_match_the_pair_scan(backend):
    # the is-reducible-grid rules of the bundled suite (mmax 4, window 8)
    # and random tables, whose zeros fall anywhere
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    rules = []
    for m in range(-4, 5):
        a = -ctx.hq(m)
        rules += [Mab(a, -ctx.upow(m)), Mab(a, ctx.zero)]
        if m:
            rules.append(Mab(a, -ctx.ppow(-m) * ctx.qpow(-m)))
    rnd = random.Random(20261021)
    for window in (0, 1, 3, 5):
        rules.append(TableRule({nk: rnd.choice((0, 0, 1, Fraction(-2, 3)))
                                for nk in _table_pairs(window)}, window))
    edges = 0
    for rule in rules:
        window = getattr(rule, "window", 8)
        adj = _decoded(modules._edges(ctx, rule, window), window)
        assert adj == _pair_scan_edges(ctx, rule, window), rule.describe()
        edges += sum(map(len, adj.values()))
    assert edges > 1000


def _decoded(masks, window):
    """`_edges`' bitmask per index as {k: [targets in increasing order]}."""
    idx = range(-window, window + 1)
    return {k: [t for t in idx if mask >> (t + window) & 1]
            for k, mask in zip(idx, masks)}


def _set_search(adj):
    """The submodule search over sets: `find_submodules_ex` before its
    graph became bitmasks, a reference for it.  adj is {k: [targets]}."""
    reach = {}
    for k in adj:
        seen, todo = {k}, [k]
        while todo:
            for t in adj[todo.pop()]:
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        reach[k] = frozenset(seen)
    by_reach = {}
    for k, r in reach.items():
        by_reach.setdefault(r, []).append(k)
    comps = list(by_reach.values())
    nc = len(comps)
    succ = [sum(1 << j for j, comp in enumerate(comps) if comp[0] in r)
            for r in by_reach]
    pred = [sum(1 << j for j in range(nc) if succ[j] >> i & 1)
            for i in range(nc)]
    results = []
    full = (1 << nc) - 1
    truncated = False
    todo = [(nc - 1, 0, 0)]
    while todo:
        i, inc, exc = todo.pop()
        while i >= 0 and (inc | exc) >> i & 1:
            i -= 1
        if i >= 0:
            todo.append((i - 1, inc | succ[i], exc))
            todo.append((i - 1, inc, exc | pred[i]))
            continue
        if inc in (0, full):
            continue
        members = []
        for i in range(nc):
            if inc >> i & 1:
                members.extend(comps[i])
        results.append(sorted(members))
        if len(results) >= SUBMODULE_CAP:
            truncated = True
            break
    results.sort(key=lambda s: (len(s), s))
    return results, truncated


@pytest.mark.parametrize("backend", ["numeric", "symbolic"])
def test_bitmask_search_matches_the_set_search(backend):
    # random tables of every density, the five families at windows 3 and 8,
    # the reducible Mab points and a table with no edges, which truncates
    ctx = (ScalarContext.numeric(2, 3) if backend == "numeric"
           else ScalarContext.symbolic("2", "3"))
    rnd = random.Random(20261020)
    rules = [(TableRule({nk: int(rnd.random() < density)
                         for nk in _table_pairs(window)}, window), window)
             for window in (1, 2, 3, 4, 5, 6)
             for density in (0.05, 0.15, 0.3, 0.6)]
    rules.append((TableRule({nk: 0 for nk in _table_pairs(6)}, 6), 6))
    families = _family_rules(lambda i: ctx.scalar(_NUMERIC[i]))
    families += [Mab(-ctx.hq(m), b) for m in (-2, 1, 3)
                 for b in (-ctx.upow(m), ctx.zero)]
    families += [ExcAlpha(ctx.zero), ExcAlphaPrime(ctx.zero)]
    rules += [(rule, window) for rule in families for window in (3, 8)]
    found = truncations = 0
    for rule, window in rules:
        got = find_submodules_ex(ctx, rule, window)
        want = _set_search(_pair_scan_edges(ctx, rule, window))
        assert got == want, (rule.describe(), window)
        found += len(got[0])
        truncations += got[1]
    assert truncations >= 1 and found > SUBMODULE_CAP + 100


def test_submodule_search_calls_no_coeff(ctx, monkeypatch):
    def forbidden(*args):
        raise AssertionError("Mab.coeff read by the submodule search")

    monkeypatch.setattr(Mab, "coeff", forbidden)
    subs, truncated = find_submodules_ex(
        ctx, Mab(Fraction(-1, 2), Fraction(-3, 2)), 5)
    assert subs == [[k for k in range(-5, 6) if k != -1]]
    assert truncated is False


def _value_intertwiner(ctx, ruleA, ruleB, m, window):
    """find_intertwiner validated by values: h_{k+n} cA(n,k) - h_k cB(n,k+m)
    reduced and tested for zero."""
    h = {0: ctx.one}
    for step in (1, -1):
        for k in range(0, step * window, step):
            j = min(k, k + step)
            ca = ruleA.coeff(ctx, 1, j)
            cb = ruleB.coeff(ctx, 1, j + m)
            if is_zero(ca) and is_zero(cb):
                h[k + step] = ctx.one
            elif is_zero(ca) or is_zero(cb):
                return None
            else:
                h[k + step] = h[k] * (cb / ca if step > 0 else ca / cb)
    for n in range(-2, 3):
        for k in range(-window, window + 1):
            if abs(k + n) <= window and not is_zero(
                    h[k + n] * ruleA.coeff(ctx, n, k)
                    - h[k] * ruleB.coeff(ctx, n, k + m)):
                return None
    return h


class _Regauged(modules.CoefficientRule):
    """rule carried along v_k -> g(k) v_k, its coefficient at `bump` (an
    (n, k) pair) then moved by one."""

    family = "regauged"

    def __init__(self, rule, g, bump=None):
        self.rule, self.g, self.bump = rule, g, bump

    def coeff(self, ctx, n, k):
        c = self.rule.coeff(ctx, n, k) * self.g(k + n) / self.g(k)
        return c + 1 if (n, k) == self.bump else c


@pytest.mark.parametrize("backend", ["numeric", "numeric-5/2,-3/4",
                                     "symbolic", "formal-ab"])
def test_intertwiner_validation_matches_values(backend, monkeypatch):
    # shifted pairs (h = 1), regauged shifts (h_k = g(k+m)/g(m), so the
    # parts of h have denominators), unrelated pairs, and regauged shifts
    # with one |n| = 2 coefficient bumped: that breaks one constraint of
    # the validation and none of the n = 1 propagation.  h, propagated by
    # parts and reduced once, is the value path's h, which divides values
    # at every step (`_value_intertwiner`), and prints alike
    ctx = {"numeric": ScalarContext.numeric(2, 3),
           "numeric-5/2,-3/4": ScalarContext.numeric("5/2", "-3/4"),
           "symbolic": ScalarContext.symbolic("2", "3"),
           "formal-ab": ScalarContext.symbolic("2", "3")}[backend]

    def g(j):
        return ctx.scalar(Fraction(j * j + 1, abs(j) + 2))

    def draw(var):
        x = Fraction(rnd.randint(-4, 4), rnd.randint(1, 4))
        if backend == "formal-ab":     # a parameter linear in a or b
            return ctx.var(var) * rnd.randint(1, 3) + ctx.scalar(x)
        return x

    rnd = random.Random(20261022)
    window = 4 if backend == "formal-ab" else 6
    cases = []
    for _ in range(5):
        a, b = draw("a"), draw("b")
        m = rnd.randint(-3, 3)
        a2, b2 = shift_params(ctx, a, b, m)
        k0 = rnd.choice((-window, 0, window - 2))
        cases += [(Mab(a, b), Mab(a2, b2), m, "related"),
                  (Mab(a, b), _Regauged(Mab(a2, b2), g), m, "related"),
                  (Mab(a, b), Mab(a2 + 1, b2), m, "unrelated"),
                  (Mab(a, b), Mab(a2, b2 * 2 + 1), m, "unrelated"),
                  (Mab(a, b), _Regauged(Mab(a2, b2), g, (2, k0 + m)), m,
                   "bumped")]

    def no_value(self, ctx, n, k):
        raise AssertionError("find_intertwiner read c(%d, %d) as a value"
                             % (n, k))

    gauged = 0
    for ruleA, ruleB, m, kind in cases:
        want = _value_intertwiner(ctx, ruleA, ruleB, m, window)
        with monkeypatch.context() as patch:
            if isinstance(ruleB, Mab):
                patch.setattr(Mab, "coeff", no_value)
            got = find_intertwiner(ctx, ruleA, ruleB, m, window)
        assert (got is not None) == (kind == "related") == (want is not None)
        if kind == "related":
            assert got == want
            assert {k: scalar_str(v) for k, v in got.items()} == {
                k: scalar_str(v) for k, v in want.items()}
            assert all(type(v) is type(ctx.one) for v in got.values())
            gauged += any("/" in scalar_str(v) for v in got.values())
        if kind == "bumped":
            h = find_intertwiner(ctx, ruleA, _Regauged(ruleB.rule, g), m,
                                 window)
            broken = [(n, k) for n in range(-2, 3)
                      for k in range(-window, window + 1)
                      if abs(k + n) <= window and not is_zero(
                          h[k + n] * ruleA.coeff(ctx, n, k)
                          - h[k] * ruleB.coeff(ctx, n, k + m))]
            assert broken == [(2, ruleB.bump[1] - m)]
    assert gauged == 5
