"""Cubes: products of literals in positional (espresso) encoding.

A cube over n variables packs two bits per variable:

    bit pair 01 -> literal x   (variable must be 1)
    bit pair 10 -> literal x'  (variable must be 0)
    bit pair 11 -> don't care  (variable absent from the product)
    bit pair 00 -> empty       (contradiction; the cube is void)

This is the representation behind espresso's cube operations; the paper's
benchmark circuits were born as PLA covers minimized this way before
multilevel synthesis, so the reproduction carries the same machinery.

Every operation works on the whole word at once (positional-cube
notation, Brayton et al., *Logic Minimization Algorithms for VLSI
Synthesis*, 1984).  With ``LOW[n]`` the mask ``0b0101...01`` holding the
low bit of each of the ``n`` fields:

* a cube ``b`` is void iff ``(b | b >> 1) & LOW != LOW`` (some field has
  neither bit);
* its bound literals are the bits of ``(b ^ b >> 1) & LOW`` (fields 01
  and 10), and bit ``2 * var`` of ``b`` is the literal's value;
* the conflicts of cubes ``a`` and ``b`` -- the empty fields of their
  intersection ``i = a & b`` -- are the bits of ``~(i | i >> 1) & LOW``.

Bits are counted with ``bin(x).count("1")``: ``int`` gained its own
popcount method only in Python 3.10, and the package supports 3.9.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

#: per-variable field values
ZERO = 0b10  # literal x'
ONE = 0b01  # literal x
DC = 0b11  # don't care
EMPTY = 0b00


class _LowMasks(dict):
    """``LOW[n]``: the low bit of each of ``n`` fields, cached per width."""

    def __missing__(self, num_vars: int) -> int:
        mask = self[num_vars] = ((1 << (2 * num_vars)) - 1) // 3
        return mask


LOW = _LowMasks()


def popcount(x: int) -> int:
    return bin(x).count("1")


def bound_mask(bits: int, num_vars: int) -> int:
    """The low bit of every bound (01 or 10) field of ``bits``."""
    return (bits ^ (bits >> 1)) & LOW[num_vars]


def conflict_mask(inter: int, num_vars: int) -> int:
    """The low bit of every empty (00) field of ``inter``."""
    return ~(inter | (inter >> 1)) & LOW[num_vars]


class Cube:
    """An immutable cube over ``num_vars`` variables."""

    __slots__ = ("num_vars", "bits")

    def __init__(self, num_vars: int, bits: Optional[int] = None) -> None:
        self.num_vars = num_vars
        if bits is None:
            bits = (1 << (2 * num_vars)) - 1  # all don't-care (universe)
        self.bits = bits

    # -- construction ---------------------------------------------------#

    @classmethod
    def universe(cls, num_vars: int) -> "Cube":
        return cls(num_vars)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse espresso notation: '1', '0', '-' per variable."""
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                field = ONE
            elif ch == "0":
                field = ZERO
            elif ch in "-2":
                field = DC
            else:
                raise ValueError(f"bad cube character {ch!r}")
            bits |= field << (2 * i)
        return cls(len(text), bits)

    @classmethod
    def from_assignment(
        cls, num_vars: int, assignment: Dict[int, int]
    ) -> "Cube":
        """Cube fixing the given variables (others don't-care)."""
        cube = cls.universe(num_vars)
        for var, value in assignment.items():
            cube = cube.with_literal(var, value)
        return cube

    def with_literal(self, var: int, value: int) -> "Cube":
        """Copy with variable ``var`` restricted to ``value``."""
        field = ONE if value else ZERO
        mask = ~(0b11 << (2 * var))
        return Cube(self.num_vars, (self.bits & mask) | (field << (2 * var)))

    def without_literal(self, var: int) -> "Cube":
        """Copy with variable ``var`` raised to don't-care."""
        return Cube(self.num_vars, self.bits | (DC << (2 * var)))

    # -- field access ---------------------------------------------------#

    def field(self, var: int) -> int:
        return (self.bits >> (2 * var)) & 0b11

    def literals(self) -> Iterator[Tuple[int, int]]:
        """Yield (var, value) for every bound literal, lowest var first."""
        bits = self.bits
        bound = bound_mask(bits, self.num_vars)
        while bound:
            low = bound & -bound
            bound ^= low
            pos = low.bit_length() - 1
            yield (pos >> 1, (bits >> pos) & 1)

    def num_literals(self) -> int:
        return popcount(bound_mask(self.bits, self.num_vars))

    # -- algebra ----------------------------------------------------------#

    def is_void(self) -> bool:
        """True if some variable field is empty (no minterms)."""
        bits = self.bits
        low = LOW[self.num_vars]
        return (bits | (bits >> 1)) & low != low

    def intersect(self, other: "Cube") -> "Cube":
        """Cube intersection (may be void)."""
        return Cube(self.num_vars, self.bits & other.bits)

    def contains(self, other: "Cube") -> bool:
        """self >= other as point sets (both assumed non-void)."""
        return (self.bits | other.bits) == self.bits

    def distance(self, other: "Cube") -> int:
        """Number of variables where the cubes conflict (empty fields in
        the intersection).  distance 0 = cubes intersect; distance 1 =
        consensus exists."""
        return popcount(conflict_mask(self.bits & other.bits, self.num_vars))

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """The consensus cube when distance is exactly 1, else None."""
        inter = self.bits & other.bits
        conflict = conflict_mask(inter, self.num_vars)
        if not conflict or conflict & (conflict - 1):
            return None
        # raise the one empty field to don't-care
        return Cube(self.num_vars, inter | (conflict * DC))

    def supercube(self, other: "Cube") -> "Cube":
        """Smallest cube containing both."""
        return Cube(self.num_vars, self.bits | other.bits)

    def cofactor(self, var: int, value: int) -> Optional["Cube"]:
        """Shannon cofactor w.r.t. a literal; None if the cube vanishes."""
        f = self.field(var)
        want = ONE if value else ZERO
        if f == want or f == DC:
            return self.without_literal(var)
        return None

    def evaluate(self, point: Sequence[int]) -> bool:
        """Is the 0/1 point inside the cube?"""
        for var, value in self.literals():
            if point[var] != value:
                return False
        return True

    def minterm_count(self) -> int:
        """Number of minterms covered (2^(free variables))."""
        return 1 << (self.num_vars - self.num_literals())

    # -- misc -------------------------------------------------------------#

    def to_string(self) -> str:
        out = []
        for var in range(self.num_vars):
            f = self.field(var)
            out.append({ONE: "1", ZERO: "0", DC: "-", EMPTY: "#"}[f])
        return "".join(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cube)
            and self.num_vars == other.num_vars
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.num_vars, self.bits))

    def __repr__(self) -> str:
        return f"Cube({self.to_string()})"
