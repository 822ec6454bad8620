"""Espresso-lite: heuristic two-level minimization.

The EXPAND / IRREDUNDANT / REDUCE loop of espresso, in its simplest
sound form:

* EXPAND raises literals of each cube as long as the cube stays inside
  F + D (equivalently: disjoint from the OFF-set R = (F + D)');
* IRREDUNDANT drops cubes covered by the rest of the cover plus D;
* REDUCE shrinks each cube to the supercube of what it alone must cover,
  re-enabling different expansions on the next pass.

The loop iterates until the (cubes, literals) cost stops improving.
Multi-output functions are minimized per output (a documented
simplification versus real espresso's multi-output cube calculus); the
synthesizer feeds each output's cover through here before multilevel
restructuring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .cube import DC, LOW, Cube, bound_mask
from .cover import Cover
from .urp import complement, cube_covered


@dataclass
class EspressoResult:
    """Minimization outcome."""

    cover: Cover
    passes: int
    initial_cost: Tuple[int, int]
    final_cost: Tuple[int, int]


def _cost(cover: Cover) -> Tuple[int, int]:
    return (len(cover.cubes), cover.num_literals())


def _dontcare_cubes(num_vars: int, dontcare: Optional[Cover]) -> List[Cube]:
    """The don't-care cubes every ``rest`` cover gets, checked once."""
    if dontcare is None:
        return []
    return Cover(num_vars, dontcare.cubes).cubes


def expand(cover: Cover, off: Cover) -> Cover:
    """Raise literals while staying disjoint from the OFF-set.

    Deterministic greedy: variables are tried in index order; a literal
    is raised if the enlarged cube still misses every OFF cube.

    The cube keeps one conflict mask per OFF cube.  Raising a literal
    empties that variable's field of the conflict, so the enlarged cube
    misses every OFF cube iff no mask is 0 or exactly the literal's bit;
    after a raise the bit leaves every mask.
    """
    n = cover.num_vars
    low = LOW[n]
    off_bits = [r.bits for r in off.cubes]
    expanded: List[Cube] = []
    for cube in sorted(cover.cubes, key=lambda c: -c.num_literals()):
        bits = cube.bits
        inters = [bits & r for r in off_bits]
        masks = [~(i | (i >> 1)) & low for i in inters]  # conflict masks
        if 0 not in masks:
            bound = bound_mask(bits, n)
            while bound:
                bit = bound & -bound
                bound ^= bit
                if bit not in masks:
                    bits |= bit * DC
                    masks = [m & ~bit for m in masks]
            cube = Cube(n, bits)
        expanded.append(cube)
    return Cover._of(n, expanded).remove_contained()


def irredundant(cover: Cover, dontcare: Optional[Cover] = None) -> Cover:
    """Drop cubes covered by the union of the others (plus don't cares).

    Greedy: cubes are considered largest-first so small cubes swallowed
    by big ones go first.
    """
    n = cover.num_vars
    dc = _dontcare_cubes(n, dontcare)
    cubes = sorted(cover.cubes, key=lambda c: c.minterm_count())
    kept = list(cubes)
    for cube in cubes:
        rest = Cover._of(n, [c for c in kept if c is not cube] + dc)
        if cube_covered(cube, rest):
            kept.remove(cube)
    return Cover._of(n, kept)


def reduce_cover(cover: Cover, dontcare: Optional[Cover] = None) -> Cover:
    """Shrink each cube to the supercube of its essential part.

    The essential part of cube c is c minus (rest + D); reducing to its
    supercube keeps correctness while freeing room for EXPAND to take a
    different direction next pass.
    """
    n = cover.num_vars
    dc = _dontcare_cubes(n, dontcare)
    current = list(cover.cubes)
    for i, cube in enumerate(list(current)):
        rest = Cover._of(n, current[:i] + current[i + 1:] + dc)
        # essential = cube & complement(rest): compute via cofactor
        # complement in the subspace of the cube
        sub = complement(rest.cofactor_cube(cube))
        if not sub.cubes:
            continue  # fully covered by rest; irredundant will drop it
        essential_super = sub.cubes[0]
        for extra in sub.cubes[1:]:
            essential_super = essential_super.supercube(extra)
        # re-impose the cube's own literals on top of the supercube
        shrunk = essential_super.intersect(cube)
        if not shrunk.is_void():
            current[i] = shrunk
    return Cover._of(n, current)


def espresso(
    on: Cover,
    dontcare: Optional[Cover] = None,
    max_passes: int = 10,
) -> EspressoResult:
    """Minimize ``on`` against optional don't-cares.

    The result covers every ON minterm, avoids every OFF minterm, and is
    irredundant w.r.t. single-cube removal.
    """
    dc = dontcare if dontcare is not None else Cover.empty(on.num_vars)
    fd = Cover(on.num_vars, list(on.cubes) + list(dc.cubes))
    off = complement(fd)
    initial = _cost(on)
    current = on.remove_contained()
    best_cost = _cost(current)
    passes = 0
    for passes in range(1, max_passes + 1):
        current = expand(current, off)
        current = irredundant(current, dc)
        cost = _cost(current)
        if cost >= best_cost and passes > 1:
            break
        best_cost = min(best_cost, cost)
        current = reduce_cover(current, dc)
    current = expand(current, off)
    current = irredundant(current, dc)
    return EspressoResult(
        cover=current,
        passes=passes,
        initial_cost=initial,
        final_cost=_cost(current),
    )
