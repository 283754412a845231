"""Translate witnesses on finite V-closed configurations.

For an exposed point x of the hull of a finite V-closed set T, the
witness is the translate t + P(V) with t = x - p, where p is the
zonotope vertex in the direction of x's supporting normal.  Every hull
question is one exact LP in `lp`: membership is a phase one, and the
normal is a max-margin LP whose optimum mu* also decides extremality,
since every extreme point of a finite set is exposed (mu* > 0).  A
translate point that is itself in T needs no LP; `replay()` still runs
one for every point.

The normal needs no perturbation: since T is V-closed, one of x +- v
lies in T for each nonzero member v, whose margin row gives
|a.v| >= mu* > 0.
"""

import random as _random
from dataclasses import dataclass
from fractions import Fraction

from . import lp
from .core import (PointSet, enumerate_psum, vadd, vsub,
                   zonotope_vertex, DegenerateNormalError)
from .game import is_vclosed

T_SIZE_LIMIT = 500


class NotVClosedError(ValueError):
    pass


class NotApplicableError(ValueError):
    """The family has a member orthogonal to the exposed normal, which
    only a zero member (a family built with strict=False) can be."""


class TheoremContradictionError(AssertionError):
    """Containment of the translate failed; indicates a bug or a broken
    precondition, never a legitimate outcome."""


# --- exact hull membership / extremality --------------------------------

def in_convex_hull(points, q):
    return lp.feasible_combination(list(points), q) is not None


def extreme_points(t):
    """All x in T that are not convex combinations of the rest."""
    if len(t) > T_SIZE_LIMIT:
        raise ValueError("point set too large (%d > %d)"
                         % (len(t), T_SIZE_LIMIT))
    pts = sorted(t.points)
    return [x for x in pts
            if lp.feasible_combination([p for p in pts if p != x], x) is None]


def exposed_normal(t, x):
    """A rational direction a with a.x > a.y for every other y of T,
    maximizing the minimum margin under |a_i| <= 1; x is an extreme
    point of T exactly when that margin is positive."""
    if x not in t.points:
        raise ValueError("x must belong to T")
    if len(t) > T_SIZE_LIMIT:
        raise ValueError("point set too large (%d > %d)"
                         % (len(t), T_SIZE_LIMIT))
    others = [p for p in sorted(t.points) if p != x]
    n = t.dim
    if not others:
        return (Fraction(1),) * n
    # variables: a+ (n), a- (n), mu+ , mu-; maximize mu = mu+ - mu-
    nv = 2 * n + 2
    a_ub = []
    b_ub = []
    for y in others:
        d = vsub(x, y)
        row = [0] * nv
        for i in range(n):
            row[i] = -d[i]
            row[n + i] = d[i]
        row[2 * n] = 1
        row[2 * n + 1] = -1
        a_ub.append(row)      # mu - a.(x-y) <= 0
        b_ub.append(0)
    for i in range(2 * n):
        row = [0] * nv
        row[i] = 1
        a_ub.append(row)
        b_ub.append(1)
    c = [0] * nv
    c[2 * n] = 1
    c[2 * n + 1] = -1
    _status, value, z = lp.simplex_max(c, a_ub, b_ub)
    if value <= 0:
        raise ValueError("x is not an extreme point of T")
    return tuple(z[i] - z[n + i] for i in range(n))


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
    try:
        p = zonotope_vertex(f, a)
    except DegenerateNormalError as exc:
        raise NotApplicableError("normal degenerate: %s" % exc)
    trans = vsub(x, p)
    hull_pts = sorted(t.points)
    for u in enumerate_psum(f):
        q = vadd(trans, u)
        # a point of T lies in conv T; the LP decides only the rest
        if q not in t.points and not in_convex_hull(hull_pts, q):
            raise TheoremContradictionError(
                "translate point %s escapes conv T" % (q,))
    return WitnessCertificate(f, t, tuple(x), tuple(a), tuple(p),
                              tuple(trans), True)


def random_vclosed(f, seed):
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
    if len(pts) > 2000:
        raise ValueError("instance larger than 2000 points")
    ok, viol = is_vclosed(pts, f)
    if not ok:
        raise AssertionError("generator produced a non-V-closed set: %s"
                             % (viol,))
    return PointSet(f.dim, frozenset(pts))
