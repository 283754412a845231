"""Closed-form critical thresholds for the canonical balancing game.

The least M for which Chooser wins G(V, K_M) splits into three cases by
the arithmetic of n: odd, even but not a power of two, and a power of
two (where a parity obstruction pushes the threshold up by one).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import canonical_family, vdot


def is_power_of_two(n):
    return n >= 1 and n & (n - 1) == 0


def half_central_parity(n):
    """Parity of (1/2) C(n, n/2) for even n: 'odd' iff n is a power of 2."""
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be even and >= 2, got %s" % n)
    half = comb(n, n // 2) // 2
    return "odd" if half % 2 == 1 else "even"


def r_value(n):
    """max over P(V) of u.1 for the canonical family, in closed form."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n % 2 == 1:
        return (n * comb(n - 1, (n - 1) // 2)) // 2 + 2 ** (n - 2)
    return (n * comb(n, n // 2)) // 4 + 2 ** (n - 2)


def r_direct(f):
    """Same quantity by direct summation of v.1 over members with
    positive coordinate sum."""
    ones = (1,) * f.dim
    return sum(vdot(v, ones) for v in f if vdot(v, ones) > 0)


@dataclass(frozen=True)
class ThresholdReport:
    n: int
    parity_class: str      # odd | even-not-pow2 | pow2
    r: int
    m_crit: int
    m_crit_exact: Fraction
    raw_bound: Fraction    # 2^{n-2} + (1/n)(2^{n-2} - r)
    trace: dict

    def as_dict(self):
        return {
            "n": self.n,
            "class": self.parity_class,
            "r": self.r,
            "M_crit": self.m_crit,
            "raw_bound": str(self.raw_bound),
            "trace": {k: str(v) for k, v in self.trace.items()},
        }


def critical_M(n):
    """Exact least M for which Chooser wins, with the derivation trace."""
    if n < 2:
        raise ValueError("n must be >= 2, got %s" % n)
    pow2 = 2 ** (n - 2)
    r = r_value(n)
    raw = Fraction(pow2) + Fraction(pow2 - r, n)
    if n % 2 == 1:
        cls = "odd"
        half_binom = Fraction(comb(n - 1, (n - 1) // 2), 2)
        exact = pow2 - half_binom
    else:
        half_binom = Fraction(comb(n - 1, n // 2), 2)
        if is_power_of_two(n):
            cls = "pow2"
            exact = pow2 - half_binom + Fraction(1, 2)
        else:
            cls = "even-not-pow2"
            exact = pow2 - half_binom
    if exact.denominator != 1:
        raise AssertionError("threshold not integral for n=%d: %s" % (n, exact))
    m = int(exact)
    # the integer threshold is the ceiling of the raw lower bound
    if m != -((-raw.numerator) // raw.denominator):
        raise AssertionError("ceiling relation failed for n=%d" % n)
    return ThresholdReport(
        n=n, parity_class=cls, r=r, m_crit=m, m_crit_exact=exact,
        raw_bound=raw,
        trace={"2^(n-2)": pow2, "half_binom": half_binom, "r": r,
               "raw_bound": raw})


def cross_validate(n, margin=2):
    """Sweep M around the closed-form threshold and check the
    brute-force game verdict flips exactly there; margin >= 1 puts
    both M_crit - 1 and M_crit in the sweep."""
    from . import game

    if margin < 1:
        raise ValueError("margin must be >= 1, got %d" % margin)
    if n > 4:
        raise ValueError("cross_validate covers n <= 4: at n=%d the window "
                         "has %d cells, and the safe set keeps each safe "
                         "cell as a tuple"
                         % (n, (2 ** n + 3) ** n))
    m_crit = critical_M(n).m_crit
    f = canonical_family(n)
    rows = []
    for m in range(m_crit - margin, m_crit + margin + 1):
        if m < 0:
            # the region already excludes the start position
            rows.append((m, "pusher"))
            continue
        region = game.GameRegion(n, (m,) * n)
        res = game.verdict(region, f)
        rows.append((m, res.winner))
    ok = all((winner == "chooser") == (m >= m_crit) for m, winner in rows)
    return {"n": n, "M_crit": m_crit, "sweep": rows, "flip_exact": ok}
