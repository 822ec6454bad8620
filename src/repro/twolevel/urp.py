"""The unate recursive paradigm: tautology, complement, containment.

The classic recursive cube-algebra engine underlying espresso
(Brayton et al.): pick the most binate variable, Shannon-expand, recurse,
with unate special cases terminating the recursion.
"""

from __future__ import annotations


from .cube import DC, LOW, Cube
from .cover import Cover


def _has_universe(cover: Cover) -> bool:
    """Is the all-don't-care cube in the cover?"""
    full = LOW[cover.num_vars] * DC
    return any(cube.bits == full for cube in cover.cubes)


def is_tautology(cover: Cover) -> bool:
    """Does the cover contain every minterm?"""
    cover = cover.remove_contained()
    if not cover.cubes:
        return False  # constant 0
    if _has_universe(cover):
        return True
    # unate reduction: a unate cover is a tautology iff it contains the
    # universe cube (checked above)
    split = cover.binate_select()
    if split is None:
        return False
    return is_tautology(cover.cofactor(split, 0)) and is_tautology(
        cover.cofactor(split, 1)
    )


def complement(cover: Cover) -> Cover:
    """The complement cover via URP.

    f = x f_x + x' f_x'  =>  f' = x (f_x)' + x' (f_x')'.
    Unate leaves fall back to sharp-by-DeMorgan on a single cube.
    """
    # terminal cases
    if not cover.cubes:
        return Cover.tautology(cover.num_vars)
    if _has_universe(cover):
        return Cover.empty(cover.num_vars)
    if len(cover.cubes) == 1:
        return _complement_cube(cover.cubes[0])
    split = cover.binate_select()
    if split is None:
        split = cover.most_bound_variable()
    if split is None:  # all cubes are the universe, handled above
        return Cover.empty(cover.num_vars)
    neg = complement(cover.cofactor(split, 0))
    pos = complement(cover.cofactor(split, 1))
    result = [cube.with_literal(split, 0) for cube in neg.cubes]
    result += [cube.with_literal(split, 1) for cube in pos.cubes]
    return Cover._of(cover.num_vars, result).remove_contained()


def _complement_cube(cube: Cube) -> Cover:
    """DeMorgan complement of a single cube (one cube per literal)."""
    universe = Cube.universe(cube.num_vars)
    return Cover._of(
        cube.num_vars,
        [universe.with_literal(var, 1 - value) for var, value in cube.literals()],
    )


def cube_covered(cube: Cube, cover: Cover) -> bool:
    """Is ``cube`` contained in the cover (as point sets)?

    Standard reduction: cube <= f  iff  f cofactored by cube is a
    tautology.
    """
    return is_tautology(cover.cofactor_cube(cube))


def covers_equal(a: Cover, b: Cover) -> bool:
    """Point-set equality of two covers."""
    return all(cube_covered(c, b) for c in a.cubes) and all(
        cube_covered(c, a) for c in b.cubes
    )
