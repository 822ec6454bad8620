"""Covers: sums of cubes (single-output two-level logic)."""

from __future__ import annotations

import random
from typing import Iterable, Iterator, List, Optional, Sequence

from .cube import DC, LOW, Cube, bound_mask


class Cover:
    """A sum-of-products over ``num_vars`` variables."""

    def __init__(self, num_vars: int, cubes: Iterable[Cube] = ()) -> None:
        self.num_vars = num_vars
        self.cubes: List[Cube] = []
        for cube in cubes:
            self.add(cube)

    @classmethod
    def from_strings(cls, rows: Sequence[str]) -> "Cover":
        if not rows:
            raise ValueError("cannot infer variable count from empty rows")
        return cls(len(rows[0]), [Cube.from_string(r) for r in rows])

    @classmethod
    def empty(cls, num_vars: int) -> "Cover":
        return cls(num_vars)

    @classmethod
    def tautology(cls, num_vars: int) -> "Cover":
        return cls(num_vars, [Cube.universe(num_vars)])

    @classmethod
    def from_minterms(cls, num_vars: int, minterms: Iterable[int]) -> "Cover":
        cubes = []
        for m in minterms:
            assignment = {v: (m >> v) & 1 for v in range(num_vars)}
            cubes.append(Cube.from_assignment(num_vars, assignment))
        return cls(num_vars, cubes)

    @classmethod
    def _of(cls, num_vars: int, cubes: List[Cube]) -> "Cover":
        """A cover holding ``cubes`` as given: for results built inside
        the package from cubes already known non-void and of arity
        ``num_vars``, so :meth:`add`'s checks are skipped."""
        cover = cls.__new__(cls)
        cover.num_vars = num_vars
        cover.cubes = cubes
        return cover

    def add(self, cube: Cube) -> None:
        if cube.num_vars != self.num_vars:
            raise ValueError("cube arity mismatch")
        if not cube.is_void():
            self.cubes.append(cube)

    def copy(self) -> "Cover":
        return Cover._of(self.num_vars, list(self.cubes))

    # -- semantics --------------------------------------------------------#

    def evaluate(self, point: Sequence[int]) -> bool:
        return any(cube.evaluate(point) for cube in self.cubes)

    def minterms(self) -> Iterator[int]:
        """All covered minterms (exponential; small-n oracle only)."""
        for m in range(1 << self.num_vars):
            point = [(m >> v) & 1 for v in range(self.num_vars)]
            if self.evaluate(point):
                yield m

    def is_empty_cover(self) -> bool:
        return not self.cubes

    def num_literals(self) -> int:
        return sum(cube.num_literals() for cube in self.cubes)

    # -- structure ----------------------------------------------------------#

    def cofactor_cube(self, cube: Cube) -> "Cover":
        """Generalized (Shannon) cofactor of the cover w.r.t. a cube:
        every cube meeting ``cube``, with ``cube``'s bound variables
        raised to don't-care."""
        if cube.num_vars != self.num_vars:
            raise ValueError("cube arity mismatch")
        n = self.num_vars
        low = LOW[n]
        bits = cube.bits
        raised = bound_mask(bits, n) * DC
        out = []
        for c in self.cubes:
            inter = c.bits & bits
            if (inter | (inter >> 1)) & low == low:
                out.append(Cube(n, c.bits | raised))
        return Cover._of(n, out)

    def cofactor(self, var: int, value: int) -> "Cover":
        cube = Cube.universe(self.num_vars).with_literal(var, value)
        return self.cofactor_cube(cube)

    def remove_contained(self) -> "Cover":
        """Single-cube containment removal (cheap cleanup).  Cubes are
        kept largest first (fewest literals; ties in cover order)."""
        kept: List[Cube] = []
        kept_bits: List[int] = []
        for cube in sorted(self.cubes, key=Cube.num_literals):
            bits = cube.bits
            for other in kept_bits:
                if other | bits == other:
                    break
            else:
                kept.append(cube)
                kept_bits.append(bits)
        return Cover._of(self.num_vars, kept)

    def _bound_counts(self, select: int) -> List[int]:
        """Per variable, the number of cubes binding it, counted only
        for the variables whose low field bit is in ``select``."""
        n = self.num_vars
        counts = [0] * (2 * n)  # indexed by the field's low bit
        for cube in self.cubes:
            mask = bound_mask(cube.bits, n) & select
            while mask:
                low = mask & -mask
                mask ^= low
                counts[low.bit_length() - 1] += 1
        return counts[::2]

    def binate_select(self) -> Optional[int]:
        """The most binate variable (appears in both polarities in the
        most cubes); None when the cover is unate.  URP splitting rule."""
        n = self.num_vars
        ones = zeros = 0
        for cube in self.cubes:
            bits = cube.bits
            bound = bound_mask(bits, n)
            ones |= bound & bits
            zeros |= bound & ~bits
        binate = ones & zeros
        if not binate:
            return None
        counts = self._bound_counts(binate)
        return max(range(n), key=counts.__getitem__)

    def most_bound_variable(self) -> Optional[int]:
        """The variable bound in the most cubes (unate splitting)."""
        counts = self._bound_counts(LOW[self.num_vars])
        if not any(counts):
            return None
        return max(range(self.num_vars), key=counts.__getitem__)

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __repr__(self) -> str:
        return f"<Cover {self.num_vars} vars, {len(self.cubes)} cubes>"


def random_cover(
    num_vars: int,
    num_cubes: int,
    literal_probability: float = 0.5,
    seed: int = 0,
) -> Cover:
    """Deterministic pseudo-random cover (benchmark stand-ins)."""
    rng = random.Random(seed)
    cover = Cover(num_vars)
    for _ in range(num_cubes):
        cube = Cube.universe(num_vars)
        bound = False
        for var in range(num_vars):
            if rng.random() < literal_probability:
                cube = cube.with_literal(var, rng.getrandbits(1))
                bound = True
        if not bound:  # avoid accidental tautologies
            cube = cube.with_literal(rng.randrange(num_vars), 1)
        cover.add(cube)
    return cover
