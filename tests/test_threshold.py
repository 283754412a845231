from fractions import Fraction

import pytest

from balgame.core import canonical_family
from balgame.threshold import (critical_M, cross_validate,
                               half_central_parity, is_power_of_two, r_direct,
                               r_value)


def test_half_central_parity_examples():
    assert half_central_parity(4) == "odd"
    assert half_central_parity(6) == "even"
    assert half_central_parity(1024) == "odd"
    with pytest.raises(ValueError):
        half_central_parity(5)


def test_half_central_parity_sweep():
    for n in range(2, 2049, 2):
        want = "odd" if is_power_of_two(n) else "even"
        assert half_central_parity(n) == want, n


def test_r_values():
    assert r_value(3) == 5
    assert r_value(4) == 10
    # direct n=3: members with positive dot against all-ones
    assert r_direct(canonical_family(3)) == 3 + 1 + 1


def test_r_identity():
    for n in range(2, 13):
        assert r_value(n) == r_direct(canonical_family(n)), n


def test_critical_m_table():
    expect = {2: 1, 3: 1, 4: 3, 5: 5, 6: 11, 7: 22, 8: 47, 10: 193}
    for n, m in expect.items():
        rep = critical_M(n)
        assert rep.m_crit == m, n


def test_critical_m_classes():
    assert critical_M(3).parity_class == "odd"
    assert critical_M(6).parity_class == "even-not-pow2"
    assert critical_M(8).parity_class == "pow2"
    with pytest.raises(ValueError):
        critical_M(1)


def test_critical_m_integrality_and_bound():
    for n in range(2, 21):
        rep = critical_M(n)
        assert rep.m_crit_exact.denominator == 1
        assert rep.m_crit >= rep.raw_bound


def test_asymptotic_sanity():
    # M_crit / 2^(n-2) within [1 - 3/sqrt(n), 1]
    for n in range(8, 21):
        ratio = Fraction(critical_M(n).m_crit, 2 ** (n - 2))
        assert ratio <= 1
        gap = 1 - ratio
        assert gap * gap * n <= 9, n


def test_cross_validate_small():
    for n, mc in ((2, 1), (3, 1)):
        res = cross_validate(n, margin=2)
        assert res["M_crit"] == mc
        assert res["flip_exact"]


def test_cross_validate_rejects_n5_at_once():
    with pytest.raises(ValueError, match="n <= 4"):
        cross_validate(5)
