import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from balgame import core
from balgame.core import (DegenerateNormalError, DimensionError, PointSet,
                          SignAssignment, SizeLimitError, VectorFamily,
                          bits_to_vector, canonical_family, center,
                          enumerate_psum, family_width, format_family,
                          format_pointset, is_parallel, parse_family,
                          parse_pointset, vadd, vector_to_bits, vsub, vsum,
                          zonotope_vertex)


def brute_psum(members):
    """Independent oracle: iterate all 2^k subsets."""
    n = len(members[0]) if members else 1
    pts = set()
    for r in range(len(members) + 1):
        for c in combinations(members, r):
            s = (0,) * n
            for v in c:
                s = vadd(s, v)
            pts.add(s)
    return pts


def test_canonical_family_small():
    assert canonical_family(2).members == ((1, 1), (1, -1))
    f3 = canonical_family(3)
    assert len(f3) == 4
    assert all(v[0] == 1 for v in f3)
    assert (1, -1, 1) in f3 and (-1, 1, 1) not in f3
    assert len(canonical_family(6)) == 32


def test_canonical_family_errors():
    with pytest.raises(DimensionError):
        canonical_family(0)
    with pytest.raises(DimensionError):
        canonical_family(25)


def test_family_errors_name_first_bad_member():
    with pytest.raises(DimensionError,
                       match=r"^member \(1,\) has wrong dimension$"):
        VectorFamily(2, ((1, 1), (1,), (1, 2, 3)))
    with pytest.raises(ValueError, match="^zero vector in strict family$"):
        VectorFamily(2, ((1, 1), (0, 0)))
    assert len(VectorFamily(2, ((1, 1), (0, 0)), strict=False)) == 2


def test_vsum_and_center():
    assert vsum(canonical_family(3).members, 3) == (4, 0, 0)
    empty = VectorFamily(2, ())
    assert vsum(empty.members, 2) == (0, 0)
    assert vsum((), 3, ()) == (0, 0, 0)
    assert center(empty) == (0, 0)
    from balgame.balance import middle_layer
    assert vsum(middle_layer(4).members, 4) == (3, -1, -1, -1)
    # signed: (1,1,1) - (1,1,-1) + (1,-1,1) - (1,-1,-1) = (0, 0, 4)
    assert vsum(canonical_family(3).members, 3, (1, -1, 1, -1)) == (0, 0, 4)
    # a set is summed as it stands, Fractions exactly
    assert vsum({(1, 2), (3, -4)}, 2) == (4, -2)
    assert vsum([(Fraction(1, 2), 1)] * 3, 2, [1, 1, -1]) == (
        Fraction(1, 2), 1)


def test_enumerate_psum_n2():
    got = enumerate_psum(canonical_family(2)).points
    assert got == frozenset({(0, 0), (1, 1), (1, -1), (2, 0)})


def test_enumerate_psum_empty():
    assert enumerate_psum(VectorFamily(3, ())).points == frozenset({(0, 0, 0)})


def test_enumerate_psum_matches_bruteforce():
    # 16 subsets for n=3, one coincident sum, 15 distinct points
    f = canonical_family(3)
    oracle = brute_psum(list(f.members))
    got = enumerate_psum(f).points
    assert got == frozenset(oracle)
    assert len(got) == 15


def test_enumerate_psum_cap(monkeypatch):
    monkeypatch.setattr(core, "PSUM_CAP", 10)
    with pytest.raises(SizeLimitError):
        enumerate_psum(canonical_family(5))


def test_zonotope_vertex():
    f = canonical_family(2)
    assert zonotope_vertex(f, (1, 0)) == (2, 0)
    assert zonotope_vertex(canonical_family(3), (1, 1, 1)) == (3, 1, 1)
    with pytest.raises(DegenerateNormalError):
        zonotope_vertex(f, (1, -1))  # orthogonal to (1,1)


def test_zonotope_vertex_maximizes():
    for n in (2, 3, 4):
        f = canonical_family(n)
        pts = enumerate_psum(f).points
        for a in [(1,) * n, tuple(range(1, n + 1)), (3,) + (-1,) * (n - 1)]:
            if any(sum(x * y for x, y in zip(a, v)) == 0 for v in f):
                continue
            p = zonotope_vertex(f, a)
            assert p in pts
            best = max(sum(x * y for x, y in zip(a, u)) for u in pts)
            assert sum(x * y for x, y in zip(a, p)) == best


def test_family_width():
    assert family_width(canonical_family(2), 0) == 2
    assert family_width(canonical_family(2), 1) == 2
    for i in range(5):
        assert family_width(canonical_family(5), i) == 16
    for n in range(2, 13):
        f = canonical_family(n)
        assert all(family_width(f, i) == 2 ** (n - 1) for i in range(n))


def test_psum_symmetry_and_closure():
    for n in (2, 3, 4):
        f = canonical_family(n)
        sigma = vsum(f.members, n)
        pts = enumerate_psum(f).points
        for u in pts:
            assert vsub(sigma, u) in pts
            for v in f:
                assert vadd(u, v) in pts or vsub(u, v) in pts


def test_parallel_detection():
    assert is_parallel((1, 2), (2, 4))
    assert is_parallel((1, -1), (-2, 2))
    assert not is_parallel((1, 2), (2, 1))
    with pytest.raises(ValueError):
        VectorFamily(2, ((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        VectorFamily(2, ((0, 0), (1, 1)))
    # past 256 members too: the last is parallel to the first
    members = canonical_family(9).members + ((-1,) * 9,)
    assert len(members) == 257
    with pytest.raises(ValueError, match=r"^parallel members \(1, 1, 1, 1, "
                       r"1, 1, 1, 1, 1\), \(-1, -1, -1, -1, -1, -1, -1, "
                       r"-1, -1\)$"):
        VectorFamily(9, members)
    # a scaled copy of a member is parallel to it
    members = canonical_family(9).members + ((3, -3) * 4 + (3,),)
    with pytest.raises(ValueError, match=r"^parallel members \(1, -1, 1, "):
        VectorFamily(9, members)
    assert len(VectorFamily(9, members, strict=False)) == 257


def reference_family_error(members, strict=True):
    """The message the family checks gave when they compared every pair
    of members, or None for a valid family."""
    if len(set(members)) != len(members):
        return "duplicate members in family"
    if not strict:
        return None
    if not all(any(v) for v in members):
        return "zero vector in strict family"
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if is_parallel(members[i], members[j]):
                return "parallel members %s, %s" % (members[i], members[j])
    return None


def family_error(members, dim, strict=True):
    try:
        VectorFamily(dim, tuple(members), strict=strict)
    except ValueError as exc:
        return str(exc)
    return None


def test_family_checks_match_pairwise_reference():
    # small entries, so that duplicates, zeros and parallels all turn up
    # the strict check's pre-pass: either every member is its own
    # direction and the member set decides, or one is not (entry gcd
    # above 1, first entry 0 or negative) and the directions decide
    for members in [((1, 1), (1, -1)), ((1, 1), (1, 1)), ((1,),),
                    ((1, 1), (2, 2)), ((1, 1), (0, 1)), ((1, 1), (-1, -1)),
                    ((1, 1), (0, 0)), ((-1, 2), (1, 3)), ((0, 1), (0, 2))]:
        assert (family_error(members, len(members[0]))
                == reference_family_error(members)), members
    rng = random.Random(20261019)
    seen = set()
    for _ in range(3000):
        dim = rng.randint(1, 3)
        members = [tuple(rng.randint(-3, 3) for _ in range(dim))
                   for _ in range(rng.randint(0, 7))]
        strict = rng.random() < 0.8
        want = reference_family_error(members, strict)
        assert family_error(members, dim, strict) == want, members
        seen.add(want.split()[0] if want else None)
    assert seen == {None, "duplicate", "zero", "parallel"}


def test_sign_assignment():
    f = canonical_family(2)
    sa = SignAssignment(f, (1, -1))
    assert sa.signed_sum() == (0, 2)
    with pytest.raises(ValueError):
        SignAssignment(f, (1,))
    with pytest.raises(ValueError):
        SignAssignment(f, (1, 0))


def random_strict_family(rng, dim):
    members = []
    for _ in range(rng.randint(0, 6)):
        v = tuple(rng.randint(-12, 12) for _ in range(dim))
        if any(v) and not any(is_parallel(v, u) for u in members):
            members.append(v)
    return VectorFamily(dim, tuple(members))


def test_family_file_roundtrip():
    f = canonical_family(3)
    assert parse_family(format_family(f)).members == f.members
    # a 1-D member is written without a comma, so "-1" and "10" must not
    # be read as bit strings
    rng = random.Random(20261018)
    for dim in (1, 2, 3, 4):
        for _ in range(50):
            f = random_strict_family(rng, dim)
            assert parse_family(format_family(f)) == f
    # binary-string form
    g = parse_family("dim 4\n1100\n1010\n")
    assert g.members == ((1, 1, -1, -1), (1, -1, 1, -1))
    assert bits_to_vector("0011") == (-1, -1, 1, 1)
    with pytest.raises(ValueError):
        parse_family("1,2\n")


@pytest.mark.parametrize("text", ["dim\n1,1\n", "dim3\n1,1,1\n",
                                  "dimension 2\n1,1\n", "dim x\n1,1\n",
                                  "dim 3\n1x1\n", "dim 2\n1 1\n",
                                  "dim 1\n0\n"])
def test_family_file_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_family(text)


def test_bits_to_vector_rejects_other_characters():
    with pytest.raises(ValueError, match=r"^not a 0/1 bit string: '1x1'$"):
        bits_to_vector("1x1")


def test_bit_strings_roundtrip():
    for v in product((1, -1), repeat=4):
        bits = vector_to_bits(v)
        assert bits == "".join("1" if a == 1 else "0" for a in v)
        assert bits_to_vector(bits) == v
    assert (bits_to_vector(""), vector_to_bits(())) == ((), "")
    with pytest.raises(ValueError, match=r"^not a \+-1 vector: "
                       r"\(1, 0, -1\)$"):
        vector_to_bits((1, 0, -1))


def test_pointset_roundtrip():
    ps = PointSet(2, frozenset({(0, 0), (1, -1)}))
    assert parse_pointset(format_pointset(ps)).points == ps.points
    rng = random.Random(7)
    for dim in (1, 2, 3, 4):
        for _ in range(50):
            pts = frozenset(tuple(rng.randint(-30, 30) for _ in range(dim))
                            for _ in range(rng.randint(1, 40)))
            ps = PointSet(dim, pts)
            assert parse_pointset(format_pointset(ps)) == ps
            assert parse_pointset(format_pointset(ps), n=dim) == ps
