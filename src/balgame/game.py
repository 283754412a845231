"""Game-side machinery for the balancing game.

The central object is the greatest fixed point of the deletion operator:
repeatedly remove points z for which some family member v has both z+v
and z-v already gone.  What survives is the unique maximal V-closed
subset.  One bitset kernel computes it for every cell of a finite
window, where out-of-window counts as gone: the origin survives iff
Chooser can win inside the window, and deletion rounds give Pusher a
rank-decreasing strategy.  The kernel turns its bitsets back into points
without running Python per cell: `format` spreads a bitset to one lane
per cell, and `itertools.product` streams the cells against the lanes.
It builds the safe set at once; each removed cell's round and member
are one code kept in bit planes, and the certificate decodes Pusher's
rank table from them on first read, so a verdict that only asks
whether the origin survives never builds it.

`simulate` plays the game itself: each round asks Pusher for a member,
asks Chooser for a sign and steps by one `vadd` or `vsub`, so a round
builds exactly one tuple, the new position, and runs no generator.
"""

import heapq
import random as _random
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import (accumulate, chain, compress, count, product,
                       repeat)
from math import prod
from operator import le, setitem

from .core import (DimensionError, PointSet, SizeLimitError, family_width,
                   vadd, vsub, vsum, zero)

# Kernel memory grows about linearly with the window, and time with the
# window times the rounds: a canonical(3) verdict cube took 0.3-0.4 s and
# 113 MB for 10^6 cells, 1.6-2.8 s and 404 MB for 3.9 * 10^6 (79 rounds,
# nearly all cells safe); a 2 x 1400 x 1400 canonical(3) box, every cell
# removed in 700 rounds, took 6-10 s and 553 MB (2-vCPU Xeon, Python 3.11).
WINDOW_VOLUME_LIMIT = 4 * 10 ** 6

# Each round costs about one pass over the padded cells, and a window
# under the volume limit can still take a round per cell along a thin
# side.  The 2 x 1400 x 1400 box above does 701 rounds over 7.9 * 10^6
# padded cells, 5.5 * 10^9 cell-rounds; the largest verdict or window in
# the tests and the benchmark does 1.9 * 10^7.
WORK_LIMIT = 6 * 10 ** 9

# lanes for per-cell removal codes of at most 8, 16 or 32 bits: the array
# typecode, and the encoding that writes one binary digit per lane;
# DIGIT_VALUES turns the digits "0" and "1" into the lane values 0 and 1
LANES = ((8, "B", "ascii"), (16, "H", "utf-16-be"), (32, "I", "utf-32-be"))
DIGIT_VALUES = bytes.maketrans(b"01", b"\0\1")


class NoWinningMoveError(RuntimeError):
    pass


class WindowEscape(RuntimeError):
    """Position left the analysis window below the region; the windowed
    strategy makes no claim there."""


@dataclass(frozen=True)
class GameRegion:
    dim: int
    upper_bounds: tuple  # x_i <= upper_bounds[i]

    def __post_init__(self):
        if len(self.upper_bounds) != self.dim:
            raise DimensionError(
                "region of dimension %d has %d upper bounds"
                % (self.dim, len(self.upper_bounds)))

    def contains(self, z):
        return all(map(le, z, self.upper_bounds))

    def slack(self, z):
        return tuple(m - a for a, m in zip(z, self.upper_bounds))


@dataclass(frozen=True)
class Window:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise DimensionError("window corners have dimensions %d and %d"
                                 % (len(self.lo), len(self.hi)))
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("empty window")

    @property
    def dim(self):
        return len(self.lo)

    def volume(self):
        vol = 1
        for a, b in zip(self.lo, self.hi):
            vol *= b - a + 1
        return vol

    def contains(self, z):
        return all(map(le, self.lo, z)) and all(map(le, z, self.hi))


def spread(x, size, encoding):
    """The low `size` bits of x, highest cell first, one lane per cell."""
    return format(x, "0%db" % size).encode(encoding).translate(DIGIT_VALUES)


@dataclass
class SafeSetCertificate:
    """The deletion kernel's answer on a window: the safe set, the
    number of rounds that removed a cell, and Pusher's rank table
    `rank`, decoded from the kernel's code planes on first read."""
    window: Window
    family: object
    safe: PointSet
    rounds: int  # deletion rounds that removed a cell
    # (code planes, code -> (round, member), padded ranges) until `rank`
    # is read, then None
    codes: tuple = field(repr=False, compare=False)

    def as_dict(self):
        return {
            "family": self.family.label,
            "window": {"lo": list(self.window.lo), "hi": list(self.window.hi)},
            "safe_size": len(self.safe),
            "removed": self.window.volume() - len(self.safe),
        }

    @cached_property
    def rank(self):
        """Removed point -> (round, first member in family order that
        hits it), filled by round, then family order, then point.

        No Python runs per cell: `format` writes each code plane as
        binary digits, one lane per padded cell, the planes' lanes add
        up to each cell's code, and `product` over the padded box
        streams the cells against the codes.  Codes ascend with round,
        then family order, and `product` yields cells in ascending
        (lexicographic) order, so a stable counting sort of the removed
        cells by code fills the table in that order.  The planes are
        dropped once it is built."""
        planes, values, ranges = self.codes
        self.codes = None
        size = prod(map(len, ranges))
        bits, typecode, encoding = next(lane for lane in LANES
                                        if len(planes) <= lane[0])
        # lane i of the sum holds the code of cell i
        lanes = sum(int.from_bytes(spread(x, size, encoding), "big") << k
                    for k, x in enumerate(planes))
        del planes
        lanes = memoryview(lanes.to_bytes(size * bits // 8, "little"))
        lanes = lanes.cast(typecode)

        # a stable counting sort by code: code c owns the slots after all
        # cells of lower codes, and each removed cell, in ascending order,
        # takes the next slot of its code (deque(maxlen=0) runs the map)
        codes = array(typecode, filter(None, lanes))
        tally = Counter(codes)
        sizes = [tally[c] for c in range(len(values))]
        slots = list(map(count, accumulate(sizes, initial=0)))
        ordered = [None] * len(codes)
        deque(map(setitem, repeat(ordered),
                  map(next, map(slots.__getitem__, codes)),
                  compress(product(*ranges), lanes)), maxlen=0)
        del lanes, codes
        return dict(zip(ordered, chain.from_iterable(map(repeat, values,
                                                         sizes))))


@dataclass
class Transcript:
    region: GameRegion
    initial: tuple
    rounds: list = field(default_factory=list)  # (v, eps, z_after)
    outcome: str = "survived"  # survived | escaped | left_window

    @property
    def final(self):
        return self.rounds[-1][2] if self.rounds else self.initial


def is_vclosed(t, f):
    """Check the closure condition on a finite point set.

    Returns (True, None) or (False, (z, v)) with the lexicographically
    first violating pair.
    """
    pts = t.points if isinstance(t, PointSet) else frozenset(t)
    for z in sorted(pts):
        for v in f:
            if vadd(z, v) not in pts and vsub(z, v) not in pts:
                return False, (z, v)
    return True, None


def maximal_vclosed_subset(window, f):
    """Greatest fixed point of the deletion operator on the window, as a
    certificate: the safe set, the number of rounds that removed a
    cell, and the rank table, removed cell -> (round, first member in
    family order that hits it), which is decoded on its first read.

    Cells are the bits of one integer over the window padded by the
    longest member step, so z +- v is a constant bit offset and padding
    is always dead.  A round removes every live z with some v whose z+v
    and z-v are both dead at the start of the round.

    The cells member j (its index in family order) removes in round r
    get the code (r-1)*|f| + j + 1, and safe cells and padding get 0.
    The rounds keep the codes as bit planes: plane k holds every cell
    whose code has bit k set.  After the fixed point `format` writes
    the live cells as binary digits, one per cell, and `product` over
    the padded box streams the cells against them into the safe set.
    The certificate keeps the planes, the codes' (round, member) values
    and the padded ranges until `rank` is first read.
    """
    n = window.dim
    if n != f.dim:
        raise ValueError("window has dimension %d but the family has "
                         "dimension %d" % (n, f.dim))
    if window.volume() > WINDOW_VOLUME_LIMIT:
        raise SizeLimitError("window volume %d exceeds limit %d"
                             % (window.volume(), WINDOW_VOLUME_LIMIT))
    margin = max((abs(a) for v in f for a in v), default=0)
    sides = [b - a + 1 for a, b in zip(window.lo, window.hi)]
    padded = [side + 2 * margin for side in sides]
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * padded[i + 1]
    size = strides[0] * padded[0]
    full = (1 << size) - 1

    alive = 1  # the window, one coordinate at a time, innermost first
    for s, side in zip(reversed(strides), reversed(sides)):
        row, alive = alive << margin * s, 0
        for c in range(side):
            alive |= row << c * s

    offsets = [abs(sum(a * s for a, s in zip(v, strides))) for v in f]
    values = [None]  # code -> (round, member)
    planes = []  # plane k: the removed cells whose code has bit k set
    rnd = 0
    while True:
        rnd += 1
        if rnd * size > WORK_LIMIT:
            raise SizeLimitError("deletion round %d over %d padded cells "
                                 "exceeds the work limit %d"
                                 % (rnd, size, WORK_LIMIT))
        dead = full ^ alive
        start = alive
        for v, off in zip(f.members, offsets):
            # claimed cells leave alive: each goes to the first member
            code = len(values)
            values.append((rnd, v))
            sel = alive & (dead >> off) & (dead << off)
            if sel:
                alive ^= sel
                planes += [0] * (code.bit_length() - len(planes))
                for k in range(code.bit_length()):
                    if code >> k & 1:
                        planes[k] |= sel
        if alive == start:
            break

    # padded cells in bit order; padding is neither safe nor coded
    ranges = [range(a - margin, b + margin + 1)
              for a, b in zip(window.lo, window.hi)]
    safe = frozenset(compress(product(*ranges),
                              spread(alive, size, "ascii")[::-1]))
    return SafeSetCertificate(window, f, PointSet(n, safe), rnd - 1,
                              (planes, values, ranges))


def default_margin(f):
    """Window depth below the region bound, 2^n + 2; `verdict` reaches
    further down where the bound is large."""
    return 2 ** f.dim + 2


@dataclass
class Verdict:
    winner: str  # chooser | pusher
    certificate: SafeSetCertificate
    window_relative: bool

    @property
    def origin_rank(self):
        return self.certificate.rank.get(zero(self.certificate.window.dim))

    def as_dict(self):
        doc = self.certificate.as_dict()
        doc["verdict"] = self.winner
        doc["window_relative"] = self.window_relative
        if self.winner == "pusher":
            rnd, v = self.origin_rank
            doc["origin_rank"] = rnd
            sample = []
            for z in heapq.nsmallest(5, self.certificate.rank):
                r, w = self.certificate.rank[z]
                sample.append({"z": list(z), "rank": r, "offer": list(w)})
            doc["strategy_sample"] = sample
        return doc


def verdict(region, f):
    """Windowed game verdict.  ChooserWins is sound unconditionally;
    PusherWins is relative to the window for non-canonical families.
    Coordinate i of the window runs from min(M_i - depth, -width_i) to
    M_i: a translate of P(V) through the origin lies above -width_i, so
    the window holds every such translate that fits the region."""
    n = region.dim
    if not region.contains(zero(n)):
        raise ValueError("region must contain the origin")
    depth = default_margin(f)
    window = Window(tuple(min(m - depth, -family_width(f, i))
                          for i, m in enumerate(region.upper_bounds)),
                    tuple(region.upper_bounds))
    cert = maximal_vclosed_subset(window, f)
    if zero(n) in cert.safe:
        return Verdict("chooser", cert, window_relative=False)
    return Verdict("pusher", cert, window_relative=True)


class ChooserEngine:
    """Subset-state Chooser: the position is always t + sum(S).

    Offered v already in S -> answer -1 and drop it; otherwise answer
    +1 and add it.  The position never leaves t + P(V).  The initial
    subset is checked against the family once, by one set inclusion.
    `respond` looks in S first: every member of S passed the family
    check when it entered, so only a vector about to be added is looked
    up in the family.
    """

    def __init__(self, family, t, s0):
        self.family = family
        self.t = tuple(Fraction(a) for a in t)
        self.subset = set(s0)
        if not self.subset <= family.member_set:
            stray = next(v for v in s0 if v not in family.member_set)
            raise ValueError("subset member %s not in family" % (stray,))

    def position(self):
        return vadd(self.t, vsum(self.subset, self.family.dim))

    def respond(self, v):
        if v in self.subset:
            self.subset.discard(v)
            return -1
        if v not in self.family.member_set:
            raise ValueError("offered vector %s not in family" % (v,))
        self.subset.add(v)
        return 1


class PusherEngine:
    """Rank-following Pusher extracted from a deletion certificate."""

    def __init__(self, cert, region):
        self.cert = cert
        self.region = region

    def offer(self, z):
        if not self.region.contains(z):
            return None  # game already over
        if z in self.cert.safe:
            raise NoWinningMoveError("position %s is in the safe set" % (z,))
        if z not in self.cert.rank:
            raise WindowEscape("position %s outside the analysis window"
                               % (z,))
        _rnd, v = self.cert.rank[z]
        return v


class RandomPusher:
    def __init__(self, family, seed=0):
        self.family = family
        self.rng = _random.Random(seed)

    def offer(self, z):
        return self.rng.choice(self.family.members)


def simulate(region, f, chooser, pusher, rounds):
    """Play the game for at most `rounds` rounds and record everything.

    chooser: ChooserEngine or callable (v, z) -> eps.
    pusher: object with offer(z) -> v, or callable z -> v.

    Each round checks z against the region, asks Pusher for v (None, or
    WindowEscape, ends the game), asks Chooser for eps and steps to
    z + v (eps = 1) or z - v (eps = -1); any other answer raises
    ValueError.  That step is the one tuple the round builds, and it is
    recorded as is.  `f` is not read: the chooser and the pusher carry
    the family.
    """
    tr = Transcript(region, zero(region.dim))
    z = tr.initial
    inside = region.contains
    record = tr.rounds.append
    offer = pusher.offer if hasattr(pusher, "offer") else pusher
    respond = chooser.respond if hasattr(chooser, "respond") else None
    for _ in range(rounds):
        if not inside(z):
            tr.outcome = "escaped"
            return tr
        try:
            v = offer(z)
        except WindowEscape:
            tr.outcome = "left_window"
            return tr
        if v is None:
            tr.outcome = "escaped"
            return tr
        eps = respond(v) if respond else chooser(v, z)
        if eps == 1:
            z = vadd(z, v)
        elif eps == -1:
            z = vsub(z, v)
        else:
            raise ValueError("chooser must answer -1 or +1")
        record((v, eps, z))
    if not inside(z):
        tr.outcome = "escaped"
    return tr
