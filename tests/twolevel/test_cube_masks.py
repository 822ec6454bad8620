"""The mask arithmetic of the cube algebra against per-variable loops.

Every rewritten operation must give what the field-by-field loops it
replaced gave: the same booleans and counts, the same literals in the
same order, the same cubes in the same order.  The references below are
those loop bodies.  Widths 31-33 and 40 put the fields across the 64-bit
word; cubes include empty (00) fields.
"""

import random

import pytest

from repro.twolevel import Cover, Cube, expand
from repro.twolevel.cube import DC, EMPTY, LOW, ONE, ZERO

WIDTHS = [1, 2, 31, 32, 33, 40]


# -- per-variable references ------------------------------------------------#


def ref_literals(cube):
    out = []
    for var in range(cube.num_vars):
        f = cube.field(var)
        if f == ONE:
            out.append((var, 1))
        elif f == ZERO:
            out.append((var, 0))
    return out


def ref_num_literals(cube):
    return len(ref_literals(cube))


def ref_minterm_count(cube):
    return 1 << (cube.num_vars - ref_num_literals(cube))


def ref_is_void(cube):
    bits = cube.bits
    for _ in range(cube.num_vars):
        if bits & 0b11 == EMPTY:
            return True
        bits >>= 2
    return False


def ref_distance(a, b):
    inter = a.bits & b.bits
    count = 0
    for _ in range(a.num_vars):
        if inter & 0b11 == EMPTY:
            count += 1
        inter >>= 2
    return count


def ref_consensus(a, b):
    inter = a.bits & b.bits
    conflict_var = None
    probe = inter
    for var in range(a.num_vars):
        if probe & 0b11 == EMPTY:
            if conflict_var is not None:
                return None
            conflict_var = var
        probe >>= 2
    if conflict_var is None:
        return None
    return Cube(a.num_vars, inter | (DC << (2 * conflict_var)))


def ref_cofactor_cube(cover, cube):
    result = Cover(cover.num_vars)
    for c in cover.cubes:
        if ref_is_void(c.intersect(cube)):
            continue
        out = c
        for var, value in ref_literals(cube):
            cf = out.cofactor(var, value)
            if cf is None:
                out = None
                break
            out = cf
        if out is not None:
            result.add(out)
    return result


def ref_remove_contained(cover):
    kept = []
    for cube in sorted(cover.cubes, key=lambda c: -ref_minterm_count(c)):
        if not any(other.contains(cube) for other in kept):
            kept.append(cube)
    return Cover(cover.num_vars, kept)


def ref_binate_select(cover):
    pos = [0] * cover.num_vars
    neg = [0] * cover.num_vars
    for cube in cover.cubes:
        for var, value in ref_literals(cube):
            if value:
                pos[var] += 1
            else:
                neg[var] += 1
    best, best_score = None, -1
    for var in range(cover.num_vars):
        if pos[var] and neg[var]:
            score = pos[var] + neg[var]
            if score > best_score:
                best, best_score = var, score
    return best


def ref_most_bound_variable(cover):
    counts = [0] * cover.num_vars
    for cube in cover.cubes:
        for var, _value in ref_literals(cube):
            counts[var] += 1
    if not any(counts):
        return None
    return max(range(cover.num_vars), key=lambda v: counts[v])


def ref_expand(cover, off):
    expanded = []
    for cube in sorted(cover.cubes, key=lambda c: -ref_num_literals(c)):
        for var, _value in ref_literals(cube):
            candidate = cube.without_literal(var)
            if all(ref_is_void(candidate.intersect(r)) for r in off.cubes):
                cube = candidate
        expanded.append(cube)
    return ref_remove_contained(Cover(cover.num_vars, expanded))


# -- random inputs ------------------------------------------------------------#


def random_cube(rng, num_vars, empty_rate, dc_rate=1 / 3):
    bits = 0
    for var in range(num_vars):
        r = rng.random()
        if r < empty_rate:
            field = EMPTY
        elif r < empty_rate + dc_rate:
            field = DC
        else:
            field = rng.choice((ONE, ZERO))
        bits |= field << (2 * var)
    return Cube(num_vars, bits)


def near_cube(rng, cube, changes):
    """``cube`` with ``changes`` random fields redrawn (small distances)."""
    bits = cube.bits
    for _ in range(changes):
        var = rng.randrange(cube.num_vars)
        field = rng.choice((EMPTY, ONE, ZERO, DC))
        bits = (bits & ~(0b11 << (2 * var))) | (field << (2 * var))
    return Cube(cube.num_vars, bits)


def cube_pairs(num_vars, count=300, seed=0):
    rng = random.Random(seed * 1000 + num_vars)
    for _ in range(count):
        empty_rate = rng.choice((0.0, 0.0, 0.5 / num_vars, 0.25))
        a = random_cube(rng, num_vars, empty_rate)
        if rng.random() < 0.5:
            b = near_cube(rng, a, rng.randrange(4))
        else:
            b = random_cube(rng, num_vars, empty_rate)
        yield a, b


def random_cover(rng, num_vars, num_cubes, dc_rate):
    return Cover(
        num_vars,
        [random_cube(rng, num_vars, 0.0, dc_rate) for _ in range(num_cubes)],
    )


# -- cube operations -----------------------------------------------------------#


def test_low_mask_has_one_bit_per_field():
    for n in [0] + WIDTHS:
        assert LOW[n] == sum(1 << (2 * var) for var in range(n))
        assert bin(LOW[n]).count("1") == n


@pytest.mark.parametrize("num_vars", WIDTHS)
def test_single_cube_ops_match_the_loops(num_vars):
    for a, _b in cube_pairs(num_vars):
        assert a.is_void() == ref_is_void(a)
        assert list(a.literals()) == ref_literals(a)
        assert a.num_literals() == ref_num_literals(a)
        assert a.minterm_count() == ref_minterm_count(a)


@pytest.mark.parametrize("num_vars", WIDTHS)
def test_pair_ops_match_the_loops(num_vars):
    distances = set()
    consensus_found = 0
    for a, b in cube_pairs(num_vars):
        assert a.distance(b) == ref_distance(a, b)
        assert b.distance(a) == ref_distance(b, a)
        got, want = a.consensus(b), ref_consensus(a, b)
        assert got == want
        if want is not None:
            assert got.bits == want.bits
            consensus_found += 1
        distances.add(ref_distance(a, b))
    # the inputs reach every branch: disjoint, one conflict, several
    assert {0, 1} <= distances and max(distances) >= min(2, num_vars)
    assert consensus_found


def test_void_cube_at_every_field():
    for n in WIDTHS:
        universe = Cube.universe(n)
        assert not universe.is_void() and not ref_is_void(universe)
        for var in range(n):
            void = Cube(n, universe.bits & ~(0b11 << (2 * var)))
            assert void.is_void() and ref_is_void(void)
            assert universe.distance(void) == 1 == ref_distance(universe, void)


# -- cover operations ------------------------------------------------------------#


@pytest.mark.parametrize("num_vars", WIDTHS)
def test_cover_ops_match_the_loops(num_vars):
    rng = random.Random(num_vars)
    for _ in range(40):
        dc_rate = rng.choice((0.3, 0.6, 0.9))
        cover = random_cover(rng, num_vars, rng.randrange(1, 12), dc_rate)
        cube = random_cube(rng, num_vars, rng.choice((0.0, 0.0, 0.1)), 0.8)
        got, want = cover.cofactor_cube(cube), ref_cofactor_cube(cover, cube)
        assert [c.bits for c in got.cubes] == [c.bits for c in want.cubes]
        got, want = cover.remove_contained(), ref_remove_contained(cover)
        assert [c.bits for c in got.cubes] == [c.bits for c in want.cubes]
        assert cover.binate_select() == ref_binate_select(cover)
        assert cover.most_bound_variable() == ref_most_bound_variable(cover)


@pytest.mark.parametrize("num_vars", WIDTHS)
def test_expand_matches_the_greedy_loop(num_vars):
    """Any OFF cover will do: the raise rule only asks that the raised
    cube miss every OFF cube, and ON cubes that meet an OFF cube (a
    zero conflict mask) must stay as they are."""
    rng = random.Random(100 + num_vars)
    for _ in range(30):
        on = random_cover(rng, num_vars, rng.randrange(1, 10), 0.4)
        off = random_cover(rng, num_vars, rng.randrange(0, 10), rng.choice((0.5, 0.9)))
        got, want = expand(on, off), ref_expand(on, off)
        assert [c.bits for c in got.cubes] == [c.bits for c in want.cubes]


def test_cofactor_cube_rejects_a_cube_of_another_arity():
    with pytest.raises(ValueError):
        Cover.from_strings(["1-"]).cofactor_cube(Cube.from_string("1--"))
