"""Exact integer lattice primitives.

Vectors are plain tuples of Python ints (or Fractions where halves are
needed), so all arithmetic is exact with no overflow.  A VectorFamily is
an ordered, duplicate-free list of pairwise non-parallel vectors; a
PointSet is a finite set of lattice points of a common dimension.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product, starmap
from math import gcd
from operator import add, countOf, itemgetter, mul, neg, sub

MAX_DIM = 24  # widths go up to 2^n; reject anything wider than desk scale
PSUM_CAP = 10 ** 7  # most subset sums enumerate_psum builds


class DimensionError(ValueError):
    pass


class SizeLimitError(RuntimeError):
    pass


class DegenerateNormalError(ValueError):
    def __init__(self, members):
        self.members = list(members)
        super().__init__("direction orthogonal to members %s" % (self.members,))


def vadd(u, v):
    return tuple(map(add, u, v))


def vsub(u, v):
    return tuple(map(sub, u, v))


def vneg(u):
    return tuple(map(neg, u))


def smul(s, u):
    return tuple(s * a for a in u)


def vdot(u, v):
    return sum(map(mul, u, v))


def zero(n):
    return (0,) * n


def vsum(vectors, n, signs=None):
    """The sum of a sequence of n-vectors, or with `signs` the signed
    sum of signs[k] * vectors[k]; one C-level pass per coordinate, with
    no transpose, so both must be sequences (or sets), not iterators."""
    if signs is None:
        return tuple(sum(map(itemgetter(i), vectors)) for i in range(n))
    return tuple(sum(map(mul, signs, map(itemgetter(i), vectors)))
                 for i in range(n))


def direction(v):
    """The primitive vector along a nonzero v: v over the gcd of its
    entries, signed so that its first nonzero entry is positive.  Two
    nonzero vectors are parallel iff their directions are equal."""
    g = gcd(*v)
    if g == 1 and v[0] > 0:  # the common case: v is its own direction
        return v
    if next(filter(None, v)) < 0:
        g = -g
    return tuple(a // g for a in v)


def is_parallel(u, v):
    """Exact parallelism test: u_i v_j == u_j v_i for all i < j."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            if u[i] * v[j] != u[j] * v[i]:
                return False
    return True


@dataclass(frozen=True)
class VectorFamily:
    dim: int
    members: tuple
    label: str = ""
    strict: bool = True

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError("dimension must be >= 1, got %d" % self.dim)
        # the checks run as whole-family passes; only a failed one looks
        # for the first offending member, to name it
        ms = self.members
        if any(map(self.dim.__ne__, map(len, ms))):
            v = next(v for v in ms if len(v) != self.dim)
            raise DimensionError("member %s has wrong dimension" % (v,))
        if self.strict and not (
                countOf(starmap(gcd, ms), 1) == len(ms)
                and min(map(itemgetter(0), ms), default=1) > 0):
            # one direction per member rules out duplicates and parallels
            ok = (all(map(any, ms))
                  and len(set(map(direction, ms))) == len(ms))
        else:
            # every member of a strict family that passed the C-level
            # pre-pass (entry gcd 1, first entry > 0) is its own
            # direction, so the member set is the direction set
            ok = len(set(ms)) == len(ms)
        if not ok:
            self._reject()

    def _reject(self):
        """Raise for the first failed check, in the order duplicate,
        zero vector, parallel pair; the pair named is the first (i, j),
        i < j, in index order."""
        ms = self.members
        if len(set(ms)) != len(ms):
            raise ValueError("duplicate members in family")
        if not all(map(any, ms)):
            raise ValueError("zero vector in strict family")
        groups = {}
        for v in ms:
            groups.setdefault(direction(v), []).append(v)
        u, v = next(g for g in groups.values() if len(g) > 1)[:2]
        raise ValueError("parallel members %s, %s" % (u, v))

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, v):
        return v in self.member_set

    @cached_property
    def member_set(self):
        """The members as a frozenset, built on first use (the frozen
        dataclass only blocks setattr)."""
        return frozenset(self.members)

    def index(self, v):
        return self.members.index(v)


@dataclass(frozen=True)
class PointSet:
    dim: int
    points: frozenset

    def __len__(self):
        return len(self.points)

    def __contains__(self, p):
        return p in self.points

    def __iter__(self):
        return iter(self.points)


@dataclass(frozen=True)
class SignAssignment:
    family: VectorFamily
    signs: tuple

    def __post_init__(self):
        if len(self.signs) != len(self.family.members):
            raise ValueError("one sign per family member required")
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be -1 or +1")

    def signed_sum(self):
        return vsum(self.family.members, self.family.dim, self.signs)


def canonical_members(n):
    """The members of canonical_family(n), lazily and in family order;
    n is not checked."""
    return ((1,) + rest for rest in product((1, -1), repeat=n - 1))


def canonical_family(n):
    """All 2^(n-1) vectors with v_1 = +1 and the rest in {-1,+1}.

    Members are ordered by the (+1 first) pattern of the trailing
    coordinates, so the all-ones vector comes first.
    """
    if n < 1:
        raise DimensionError("invalid dimension %d" % n)
    if n > MAX_DIM:
        raise DimensionError("dimension %d exceeds supported range %d"
                             % (n, MAX_DIM))
    return VectorFamily(n, tuple(canonical_members(n)),
                        label="canonical(%d)" % n)


def center(f):
    """g(V) = half the member sum, as exact Fractions."""
    return tuple(Fraction(a, 2) for a in vsum(f.members, f.dim))


def enumerate_psum(f):
    """All distinct subset sums of the family, by set doubling."""
    pts = {zero(f.dim)}
    for k, v in enumerate(f):
        pts |= {vadd(p, v) for p in pts}
        if len(pts) > PSUM_CAP:
            raise SizeLimitError(
                "subset-sum set exceeded cap %d at member %d" % (PSUM_CAP, k))
    return PointSet(f.dim, frozenset(pts))


def zonotope_vertex(f, a):
    """The vertex of conv P(V) with outer normal a: sum of members with
    a.v > 0.  Requires a.v != 0 for every member."""
    degenerate = [v for v in f if vdot(a, v) == 0]
    if degenerate:
        raise DegenerateNormalError(degenerate)
    return vsum([v for v in f if vdot(a, v) > 0], f.dim)


def family_width(f, i):
    """Width of P(V) in direction e_i: sum of |v_i| over members."""
    return sum(abs(v[i]) for v in f)


# --- family file format -------------------------------------------------
# first line: "dim n"; then one vector per line, either comma-separated
# integers or a 0/1 string (0 -> -1, 1 -> +1); with n = 1 every line is
# one integer, as format_family writes it.

BIT_VALUES = {"0": -1, "1": 1}
BIT_DIGITS = {-1: "0", 1: "1"}


def bits_to_vector(bits):
    try:
        return tuple(map(BIT_VALUES.__getitem__, bits))
    except KeyError:
        raise ValueError("not a 0/1 bit string: %r" % (bits,)) from None


def vector_to_bits(v):
    try:
        return "".join(map(BIT_DIGITS.__getitem__, v))
    except KeyError:
        raise ValueError("not a +-1 vector: %s" % (v,)) from None


def parse_family(text, label=""):
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "dim" or not head[1].isdigit():
        raise ValueError("family file must start with 'dim n'")
    n = int(head[1])
    members = []
    for ln in lines[1:]:
        if "," in ln or n == 1:
            v = tuple(int(x) for x in ln.split(","))
        else:
            v = bits_to_vector(ln)
        if len(v) != n:
            raise DimensionError("vector %s does not have dimension %d"
                                 % (v, n))
        members.append(v)
    return VectorFamily(n, tuple(members), label=label)


def format_family(f):
    lines = ["dim %d" % f.dim]
    for v in f:
        lines.append(",".join(str(a) for a in v))
    return "\n".join(lines) + "\n"


def parse_pointset(text, n=None):
    pts = set()
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        p = tuple(int(x) for x in ln.split(","))
        if n is None:
            n = len(p)
        if len(p) != n:
            raise DimensionError("point %s does not have dimension %d"
                                 % (p, n))
        pts.add(p)
    if n is None:
        raise ValueError("empty point set and no dimension given")
    return PointSet(n, frozenset(pts))


def format_pointset(ps):
    lines = [",".join(str(a) for a in p) for p in sorted(ps.points)]
    return "\n".join(lines) + "\n"
