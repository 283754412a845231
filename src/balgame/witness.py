"""Translate witnesses on finite V-closed configurations.

For an exposed point x of the hull of a finite V-closed set T, the
witness is the translate t + P(V) with t = x - p, where p is the
zonotope vertex in the direction of x's supporting normal.  Everything
is checked by exact rational feasibility; in the plane a cross-product
hull test replaces the LP.
"""

import random as _random
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .core import (PointSet, enumerate_psum, vadd, vdot, vsub,
                   zonotope_vertex, DegenerateNormalError)
from .game import is_vclosed

T_SIZE_LIMIT = 500


class NotVClosedError(ValueError):
    pass


class NotApplicableError(ValueError):
    """The point is extreme but carries no usable strict normal."""


class TheoremContradictionError(AssertionError):
    """Containment of the translate failed; indicates a bug or a broken
    precondition, never a legitimate outcome."""


# --- planar fast path ---------------------------------------------------

def _cross(o, a, b):
    return ((a[0] - o[0]) * (b[1] - o[1])
            - (a[1] - o[1]) * (b[0] - o[0]))


def _hull2d(points):
    """Monotone-chain hull; exact integer/rational cross products."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _in_hull2d(hull, q):
    if not hull:
        return False
    if len(hull) == 1:
        return tuple(q) == tuple(hull[0])
    if len(hull) == 2:
        a, b = hull
        if _cross(a, b, q) != 0:
            return False
        lo = min(a, b)
        hi = max(a, b)
        return lo <= tuple(q) <= hi
    k = len(hull)
    for i in range(k):
        if _cross(hull[i], hull[(i + 1) % k], q) < 0:
            return False
    return True


# --- exact hull membership / extremality --------------------------------

def in_convex_hull(points, q):
    pts = list(points)
    if len(q) == 2 and all(
            isinstance(a, int) or Fraction(a).denominator == 1
            for p in pts for a in p):
        return _in_hull2d(_hull2d(pts), q)
    return lp.feasible_combination(pts, q) is not None


_EXTREME_CACHE = {}


def extreme_points(t):
    """All x in T that are not convex combinations of the rest."""
    if len(t) > T_SIZE_LIMIT:
        raise ValueError("point set too large (%d > %d)"
                         % (len(t), T_SIZE_LIMIT))
    key = (t.dim, t.points)
    if key in _EXTREME_CACHE:
        return list(_EXTREME_CACHE[key])
    pts = sorted(t.points)
    if t.dim == 2:
        out = sorted(_hull2d(pts))
    else:
        out = []
        for x in pts:
            others = [p for p in pts if p != x]
            if not others or lp.feasible_combination(others, x) is None:
                out.append(x)
    _EXTREME_CACHE[key] = tuple(out)
    return out


def exposed_normal(t, x):
    """A rational direction a with a.x > a.y for every other y of T,
    maximizing the minimum margin under |a_i| <= 1.  None when the best
    margin is not strictly positive."""
    pts = sorted(t.points)
    if x not in t.points:
        raise ValueError("x must belong to T")
    if x not in set(extreme_points(t)):
        raise ValueError("x is not an extreme point of T")
    others = [p for p in pts if p != x]
    n = t.dim
    if not others:
        return (Fraction(1),) * n
    # variables: a+ (n), a- (n), mu+ , mu-; maximize mu = mu+ - mu-
    nv = 2 * n + 2
    a_ub = []
    b_ub = []
    for y in others:
        d = vsub(x, y)
        row = [Fraction(0)] * nv
        for i in range(n):
            row[i] = -Fraction(d[i])
            row[n + i] = Fraction(d[i])
        row[2 * n] = Fraction(1)
        row[2 * n + 1] = Fraction(-1)
        a_ub.append(row)      # mu - a.(x-y) <= 0
        b_ub.append(Fraction(0))
    for i in range(2 * n):
        row = [Fraction(0)] * nv
        row[i] = Fraction(1)
        a_ub.append(row)
        b_ub.append(Fraction(1))
    c = [Fraction(0)] * nv
    c[2 * n] = Fraction(1)
    c[2 * n + 1] = Fraction(-1)
    status, value, z = lp.simplex_max(c, a_ub, b_ub)
    if status != lp.OPTIMAL or value <= 0:
        return None
    return tuple(z[i] - z[n + i] for i in range(n))


def _strict_normal(a, x, t, f):
    """Perturb a supporting normal so every a.v is nonzero while keeping
    every margin a.(x-y) strictly positive.  Exact rational bounds."""
    others = [y for y in t.points if y != x]
    if all(vdot(a, v) != 0 for v in f):
        return a
    n = len(a)
    margin = min(vdot(a, vsub(x, y)) for y in others) if others else Fraction(1)
    for denom in (3, 5, 7, 11, 13, 17, 19, 23):
        beta = Fraction(1, denom)
        d = tuple(beta ** i for i in range(n))
        if any(vdot(d, v) == 0 for v in f if vdot(a, v) == 0):
            continue
        # scale so margins and existing nonzero dot products survive
        bounds = []
        if others:
            worst = max(sum(abs(Fraction(c)) for c in vsub(x, y))
                        for y in others)
            bounds.append(margin / (2 * worst))
        for v in f:
            av = vdot(a, v)
            dv = vdot(d, v)
            if av != 0 and dv != 0:
                bounds.append(abs(av) / (2 * abs(dv)))
        delta = min(bounds) if bounds else Fraction(1)
        cand = tuple(ai + delta * di for ai, di in zip(a, d))
        if all(vdot(cand, v) != 0 for v in f) and \
                all(vdot(cand, vsub(x, y)) > 0 for y in others):
            return cand
    raise NotApplicableError("could not find a strict admissible normal")


@dataclass
class WitnessCertificate:
    family: object
    t_set: PointSet
    x: tuple
    normal: tuple
    vertex: tuple
    translate: tuple
    verified: bool

    def as_dict(self):
        return {
            "family": self.family.label,
            "T_size": len(self.t_set),
            "x": list(self.x),
            "normal": [str(a) for a in self.normal],
            "vertex": list(self.vertex),
            "translate": [str(a) for a in self.translate],
            "verified": self.verified,
        }

    def replay(self):
        """Re-verify the stored certificate from its fields alone."""
        p = zonotope_vertex(self.family, self.normal)
        if p != self.vertex:
            return False
        if vsub(self.x, p) != self.translate:
            return False
        hull_pts = sorted(self.t_set.points)
        for u in enumerate_psum(self.family):
            if not in_convex_hull(hull_pts, vadd(self.translate, u)):
                return False
        return True


def translate_witness(t, f, x):
    """Witness certificate for an exposed point x of conv T."""
    ok, viol = is_vclosed(t, f)
    if not ok:
        raise NotVClosedError("T is not V-closed: violation %s" % (viol,))
    a = exposed_normal(t, x)
    if a is None:
        raise NotApplicableError(
            "x=%s is extreme but not exposed with a strict normal" % (x,))
    a = _strict_normal(a, x, t, f)
    try:
        p = zonotope_vertex(f, a)
    except DegenerateNormalError as exc:
        raise NotApplicableError("normal degenerate: %s" % exc)
    trans = vsub(x, p)
    hull_pts = sorted(t.points)
    for u in enumerate_psum(f):
        q = vadd(trans, u)
        if not in_convex_hull(hull_pts, q):
            raise TheoremContradictionError(
                "translate point %s escapes conv T" % (q,))
    return WitnessCertificate(f, t, tuple(x), tuple(a), tuple(p),
                              tuple(trans), True)


def random_vclosed(f, seed, budget=2000):
    """Seeded test instance: a union of random translates of P(V).

    P(V) is V-closed (for z = sum S, z - v is in P(V) when v is in S and
    z + v is when it is not), and so is any union of its translates; the
    closure is still checked before the set is returned."""
    rng = _random.Random(seed)
    base = sorted(enumerate_psum(f).points)
    k = rng.randint(1, 3)
    pts = set()
    for _ in range(k):
        off = tuple(rng.randint(-4, 4) for _ in range(f.dim))
        pts.update(vadd(off, p) for p in base)
    if len(pts) > budget:
        raise ValueError("instance larger than budget")
    ok, viol = is_vclosed(pts, f)
    if not ok:
        raise AssertionError("generator produced a non-V-closed set: %s"
                             % (viol,))
    return PointSet(f.dim, frozenset(pts), meta={"seed": seed})
