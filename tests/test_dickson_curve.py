"""Dickson evaluation, root sets, Kloosterman sums, and curve counts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from field_oracle import dickson_bits, field_from_record
from thetamap.dickson_curve import (
    IDENTITY_RANDOM_TRIALS,
    _dickson_ladder,
    _identity_check,
    _root_bits,
    _split_roots,
    _theta_image_of_small_subgroup,
    curve_point_count,
    curve_point_count_naive,
    dickson_coeff_bits,
    dickson_report,
    kloosterman,
    leaf_set_equalities,
)
from thetamap.gf2_arith import (
    FieldError,
    is_irreducible,
    make_field,
)
from thetamap.theta_graph import build_graph, verify_structure


# ---------------------------------------------------------------------------
# evaluation


def test_degree_one_is_identity():
    f = make_field(4)
    for x in range(f.q):
        assert dickson_bits(f, 1, x) == x


def test_small_degrees_by_hand():
    # D_2 = x^2, D_3 = x^3 + x (two recurrence steps by hand)
    for t in (1, 3):
        f = make_field(t)
        for x in range(f.q):
            assert dickson_bits(f, 2, x) == f.mul(x, x)
            assert dickson_bits(f, 3, x) == f.mul(f.mul(x, x), x) ^ x
    assert dickson_bits(make_field(1), 3, 1) == 0


def test_degree_must_be_positive():
    f = make_field(2)
    with pytest.raises(FieldError):
        dickson_bits(f, 0, 1)


def test_functional_identity_random_sample():
    f = make_field(12)
    rng = random.Random(2024)
    for _ in range(100):
        y = rng.randrange(1, f.q)
        lhs = dickson_bits(f, 5, y ^ f.inv(y))
        assert lhs == f.pow(y, 5) ^ f.pow(f.inv(y), 5)


def test_closed_form_coefficients():
    assert dickson_coeff_bits(1) == 0b10
    assert dickson_coeff_bits(2) == 0b100          # x^2 (the -2 vanishes)
    assert dickson_coeff_bits(3) == 0b1010         # x^3 + x
    assert dickson_coeff_bits(5) == 0b101010       # x^5 + x^3 + x


@pytest.mark.parametrize("t", [4, 6])
def test_closed_form_matches_recurrence(t):
    f = make_field(t)
    for m in range(1, 11):
        coeffs = dickson_coeff_bits(m)
        for x in range(f.q):
            assert dickson_bits(f, m, x) == f.eval_poly(coeffs, x)


@pytest.mark.parametrize("t", [6, 24, 32])
def test_table_recurrence_matches_dickson_bits(t):
    # the split-table recurrence of the identity check and the seed walk,
    # with log tables (GF(2^6)) and on the shift-xor path (GF(2^24), beyond
    # TABLE_MAX_T; GF(2^32), whose values take 8 bytes); D_0 = 0
    f = make_field(t)
    rng = random.Random(t)
    for x in [0, 1] + [rng.randrange(2, f.q) for _ in range(20)]:
        m = rng.randrange(1, 40)
        assert list(f.dickson_values(x, m)) == [
            0, *(dickson_bits(f, k, x) for k in range(1, m + 1))]


def test_ladder_matches_recurrence_everywhere_in_gf256():
    # every x and every m <= 64, on the log tables of GF(2^8)
    f = make_field(8)
    f.tables()
    for x in range(f.q):
        for m in range(1, 65):
            assert _dickson_ladder(f, m, x) == dickson_bits(f, m, x), (m, x)


def test_ladder_matches_recurrence_sampled_in_gf2_24():
    # shift-xor products beyond TABLE_MAX_T; m up to 2^16 + 1.  The split-
    # table recurrence gives D_0..D_M in one pass (it equals `dickson_bits`,
    # as tested above); the last value is checked by `dickson_bits` itself
    f = make_field(24)
    rng = random.Random(24)
    top = (1 << 16) + 1
    for x in [1, f.gen] + [rng.randrange(2, f.q) for _ in range(2)]:
        values = f.dickson_values(x, top)
        ms = ([1, 2, 3, 1 << 16, top]
              + [rng.randrange(4, top) for _ in range(30)])
        for m in ms:
            assert _dickson_ladder(f, m, x) == values[m], (m, x)
    assert _dickson_ladder(f, top, x) == dickson_bits(f, top, x)


@pytest.mark.parametrize("n", [5, 12])
def test_identity_check_draws_the_pinned_pairs(n):
    # the random branch draws IDENTITY_RANDOM_TRIALS pairs (m, y), m first,
    # from the battery's generator and nothing more, so the closed-form
    # check after it samples the same x as it always has
    f, double = make_field(n), make_field(2 * n)
    rng, want = random.Random(n), random.Random(n)
    assert _identity_check(f, double, rng)
    for _ in range(IDENTITY_RANDOM_TRIALS):
        want.randrange(1, f.q + 2)
        want.randrange(1, double.q)
    assert rng.getstate() == want.getstate()


def test_ladder_refuses_nonpositive_degree():
    with pytest.raises(FieldError):
        _dickson_ladder(make_field(3), 0, 1)


# ---------------------------------------------------------------------------
# root sets


def test_root_sets_tiny_fields():
    f2 = make_field(1)
    s, t = _split_roots(f2, _root_bits(f2, 3))
    assert s == {1} and not t
    f4 = make_field(2)
    s, t = _split_roots(f4, _root_bits(f4, 5))
    assert len(s) == 2 and not t
    assert s == {f4.inv(x) for x in s}


def test_root_sets_t_nonempty_beyond_four():
    f8 = make_field(3)
    s, t = _split_roots(f8, _root_bits(f8, 9))
    assert t, "T must be nonempty for q = 8"
    assert len(s) == 1 and next(iter(s)) == 1


def test_root_sets_proper_divisor():
    f8 = make_field(3)
    s, t = _split_roots(f8, _root_bits(f8, 3))
    assert s == {1} and not t


@pytest.mark.parametrize("n", range(1, 7))
def test_roots_are_subgroup_images(n):
    # every root of D_m in GF(q)* is the image of an order-dividing-m point
    f = make_field(n)
    double = make_field(2 * n)
    q = f.q
    for m in range(2, q + 2):
        if (q + 1) % m:
            continue
        assert (_theta_image_of_small_subgroup(f, double, m)
                == (_root_bits(f, m), None))


def _roots_by_recurrence(f, m):
    """The O(q*m) scan: D_m by the linear recurrence at every unit."""
    return {x for x in range(1, f.q) if dickson_bits(f, m, x) == 0}


@pytest.mark.parametrize("field", [*range(1, 9), "t=8 modulus=11b generator=3"])
def test_ladder_matches_recurrence(field):
    # every m, not only divisors of q+1; the non-Conway field included
    f = make_field(field) if isinstance(field, int) else field_from_record(field)
    for m in range(1, 81):
        assert _root_bits(f, m) == _roots_by_recurrence(f, m), m


@pytest.mark.parametrize("t, modulus", [(9, None), (10, None), (10, 0x409)],
                         ids=["9", "10", "10-0x409"])
def test_ladder_matches_recurrence_at_q_plus_1(t, modulus):
    # 0x409 is x^10 + x^3 + 1: irreducible, not Conway, beyond t = 8
    f = make_field(t, modulus)
    assert _root_bits(f, f.q + 1) == _roots_by_recurrence(f, f.q + 1)


def test_root_scan_refuses_untabled_fields():
    with pytest.raises(FieldError):
        _root_bits(make_field(21), 3)


# ---------------------------------------------------------------------------
# Kloosterman sums and counts


def test_kloosterman_tiny():
    assert kloosterman(make_field(1)) == 1
    assert kloosterman(make_field(2)) == 3


@pytest.mark.parametrize("n", range(1, 9))
def test_kloosterman_equals_curve_excess(n):
    # Tr(x + 1/x) = Tr(x) + Tr(1/x) vanishes exactly on the curve's
    # admissible x-coordinates, so K = |E| - (q+1) with |E| counted by
    # brute-force enumeration of the curve equation
    f = make_field(n)
    assert kloosterman(f) == curve_point_count_naive(f) - (f.q + 1)


@pytest.mark.parametrize("n", range(1, 11))
def test_count_matches_prediction(n):
    doc = dickson_report(make_field(n))
    assert doc["N_pred"] == doc["S_size"]
    assert doc["N_pred"] >= 1


def test_count_small_values():
    for n, n_pred in ((1, 1), (2, 2)):
        doc = dickson_report(make_field(n))
        assert doc["N_pred"] == doc["S_size"] == n_pred


def test_kloosterman_and_curve_closed_form():
    # y^2 + xy = x^3 + 1 has 4 points over GF(2), so its Frobenius trace is
    # s_1 = -1 and s_n = -s_(n-1) - 2 s_(n-2); then K(2^n) = -s_n and
    # |E(GF(2^n))| = 2^n + 1 - s_n (Lachaud-Wolfmann 1990)
    s_prev, s_n = 2, -1
    for n in range(1, 15):
        f = make_field(n)
        assert kloosterman(f) == -s_n, n
        assert curve_point_count(f) == f.q + 1 - s_n, n
        s_prev, s_n = s_n, -s_n - 2 * s_prev


def test_weil_bound():
    for n in range(1, 13):
        k = kloosterman(make_field(n))
        assert k * k <= 4 * 2 ** n


# ---------------------------------------------------------------------------
# the curve


def test_curve_count_f2():
    # {O, (0,1), (1,1), (1,0)}
    assert curve_point_count(make_field(1)) == 4


@pytest.mark.parametrize("n", range(1, 9))
def test_curve_criterion_matches_enumeration(n):
    f = make_field(n)
    assert curve_point_count(f) == curve_point_count_naive(f)


def test_curve_count_lower_bound():
    for n in range(1, 13):
        assert curve_point_count(make_field(n)) >= 4


# ---------------------------------------------------------------------------
# leaf set equalities


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_leaf_set_equalities(n):
    f = make_field(n)
    rep = leaf_set_equalities(build_graph(f))
    assert rep.passed, rep.failures()


@pytest.mark.parametrize("n", range(3, 13))
def test_t_member_traces(n):
    f = make_field(n)
    _, t_set = _split_roots(f, _root_bits(f, f.q + 1))
    assert t_set
    for x in t_set:
        assert (f.trace(x), f.trace(f.inv(x))) == (0, 1)
        assert f.inv(x) not in t_set


# ---------------------------------------------------------------------------
# reports


def test_root_set_report_worked_example():
    # anchored to the worked example over GF(2^6): 12 + 2 leaf pairs in the
    # A components, 9 + 9 in the B components, 27 admissible unit abscissas
    doc = dickson_report(make_field(6))
    assert doc["q"] == 64 and doc["m"] == 65
    assert doc["S_size"] == 14 and doc["T_size"] == 18
    assert doc["E_count"] == 56
    assert doc["K"] == doc["E_count"] - 65 == -9
    assert doc["N_pred"] == 14
    assert doc["passed"]


def test_dickson_report_schema_and_determinism():
    doc = dickson_report(make_field(3), seed=5)
    assert doc["passed"] and doc["n"] == 3 and doc["m"] == 9
    names = {c["name"] for c in doc["checks"]}
    assert {"weil-bound", "kloosterman-count", "root-image-equality",
            "t-emptiness", "curve-count-oracle",
            "identity-on-double-field"} <= names
    assert doc == dickson_report(make_field(3), seed=5)


def test_dickson_report_large_field_random_paths():
    doc = dickson_report(make_field(9), seed=11)
    assert doc["passed"]
    assert all(c["pass"] for c in doc["checks"])


IRREDUCIBLE_MODULI = [(t, f) for t in range(1, 9) for f in range(1 << t, 2 << t)
                      if is_irreducible(f)]


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(IRREDUCIBLE_MODULI))
def test_batteries_pass_for_any_modulus(t_modulus):
    spec = make_field(*t_modulus)
    assert dickson_report(spec)["passed"]
    assert verify_structure(build_graph(spec)).passed
