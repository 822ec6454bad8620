"""A compact And-Inverter Graph with two-level structural hashing.

An AIG represents logic with exactly two primitives -- two-input AND
nodes and complemented edges -- which makes structural identity checks
O(1) hash lookups and gives every rewriting engine one canonical
currency.  This is the substrate of modern redundancy removal and
SAT sweeping (Teslenko & Dubrova, *A Fast Heuristic Algorithm for
Redundancy Removal*; Kuehlmann et al., *Robust Boolean Reasoning*):
most equivalences collapse *combinationally*, at node-creation time,
before simulation or SAT ever run.

Encoding conventions (the standard AIGER ones):

* a *node* is a small integer id; node 0 is the constant-FALSE node;
* a *literal* is ``2 * node + phase`` where phase 1 marks a complemented
  edge, so ``lit ^ 1`` negates and ``lit >> 1`` is the node;
* literal 0 is constant false, literal 1 constant true;
* AND-node fanin literals always refer to *earlier* nodes, so node id
  order is a topological order by construction.

Node creation (:meth:`Aig.add_and`) applies, in order: constant folding
(``x & 0``, ``x & 1``, ``x & x``, ``x & !x``), *one-level* rewriting
against the fanin structure of either operand (containment,
contradiction, and substitution -- e.g. ``a & !(a & b) -> a & !b``),
*two-level* rewriting against both operands' grandchildren, and finally
the structural hash table.  The absorption law ``a | (a & b) = a`` --
the shape plain redundancy removal leaves behind -- folds away here
without any SAT call.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: The constant-false literal (node 0, positive phase).
LIT_FALSE = 0
#: The constant-true literal (node 0, complemented).
LIT_TRUE = 1


def lit_node(lit: int) -> int:
    """Node id of a literal."""
    return lit >> 1


def lit_phase(lit: int) -> int:
    """1 when the literal is a complemented edge."""
    return lit & 1


def lit_make(node: int, phase: int = 0) -> int:
    """Literal for ``node`` with the given phase."""
    return (node << 1) | phase


def lit_neg(lit: int) -> int:
    """The complemented literal."""
    return lit ^ 1


class AigError(Exception):
    """Raised on structurally invalid AIG operations."""


class Aig:
    """A structurally-hashed And-Inverter Graph.

    Nodes are appended only; the graph never reorders, so node id order
    is always topological.  Dangling nodes (created then superseded by a
    rewrite or a fraig merge) are legal and simply ignored by cone-based
    consumers.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        #: fanin literals per node; inputs use (-1, -1), node 0 (0, 0).
        self._fanin0: List[int] = [0]
        self._fanin1: List[int] = [0]
        self._inputs: List[int] = []  # node ids in PI order
        self._input_name: Dict[int, str] = {}
        self._outputs: List[Tuple[str, int]] = []  # (name, literal)
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    def add_input(self, name: str) -> int:
        """Add a primary input; returns its (positive) literal."""
        node = len(self._fanin0)
        self._fanin0.append(-1)
        self._fanin1.append(-1)
        self._inputs.append(node)
        self._input_name[node] = name
        return lit_make(node)

    def add_output(self, name: str, lit: int) -> None:
        """Register ``lit`` as the primary output ``name``."""
        if lit_node(lit) >= len(self._fanin0):
            raise AigError(f"output {name!r} references unknown literal {lit}")
        self._outputs.append((name, lit))

    def add_and(self, a: int, b: int) -> int:
        """AND of two literals, maximally simplified; returns a literal.

        Never creates a node when constant folding, one-level or
        two-level rewriting, or the structural hash can answer first.
        """
        n = len(self._fanin0)
        if lit_node(a) >= n or lit_node(b) >= n:
            raise AigError(f"unknown literal in AND({a}, {b})")
        # constant folding and trivial cases
        if a == LIT_FALSE or b == LIT_FALSE or a == lit_neg(b):
            return LIT_FALSE
        if a == LIT_TRUE:
            return b
        if b == LIT_TRUE:
            return a
        if a == b:
            return a
        if a > b:
            a, b = b, a
        rewritten = self._rewrite(a, b)
        if rewritten is not None:
            return rewritten
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self._fanin0)
            self._fanin0.append(a)
            self._fanin1.append(b)
            self._strash[key] = node
        return lit_make(node)

    def _and_fanins(self, lit: int) -> Optional[Tuple[int, int]]:
        """Fanin literals when ``lit`` points at an AND node, else None."""
        node = lit_node(lit)
        f0 = self._fanin0[node]
        if node == 0 or f0 < 0:
            return None
        return f0, self._fanin1[node]

    def _rewrite(self, a: int, b: int) -> Optional[int]:
        """One- and two-level rewriting of AND(a, b); None = no rule fired.

        Substitution rules recurse through :meth:`add_and`; every
        recursive operand is a strict subterm (smaller node id), so the
        recursion terminates.
        """
        fa = self._and_fanins(a)
        fb = self._and_fanins(b)
        # one-level: compare each operand against the other's fanins
        for x, f in ((a, fb), (b, fa)):
            if f is None:
                continue
            y0, y1 = f
            other = b if x is a else a
            if lit_phase(other) == 0:
                # x & (y0 & y1)
                if x == lit_neg(y0) or x == lit_neg(y1):
                    return LIT_FALSE  # contradiction
                if x == y0 or x == y1:
                    return other  # containment
            else:
                # x & !(y0 & y1)
                if x == lit_neg(y0) or x == lit_neg(y1):
                    return x  # x=1 forces y_i=0 forces !(y0&y1)=1
                if x == y0:
                    return self.add_and(x, lit_neg(y1))  # substitution
                if x == y1:
                    return self.add_and(x, lit_neg(y0))
        if fa is None or fb is None:
            return None
        a0, a1 = fa
        b0, b1 = fb
        pa, pb = lit_phase(a), lit_phase(b)
        if pa == 0 and pb == 0:
            # (a0 & a1) & (b0 & b1): any complementary pair is 0
            if (a0 == lit_neg(b0) or a0 == lit_neg(b1)
                    or a1 == lit_neg(b0) or a1 == lit_neg(b1)):
                return LIT_FALSE
        elif pa == 0 and pb == 1:
            return self._rewrite_pos_neg(a, a0, a1, b0, b1)
        elif pa == 1 and pb == 0:
            return self._rewrite_pos_neg(b, b0, b1, a0, a1)
        return None

    def _rewrite_pos_neg(
        self, pos: int, p0: int, p1: int, n0: int, n1: int
    ) -> Optional[int]:
        """Rules for (p0 & p1) & !(n0 & n1) where ``pos`` = p0 & p1."""
        if n0 == lit_neg(p0) or n0 == lit_neg(p1) \
                or n1 == lit_neg(p0) or n1 == lit_neg(p1):
            return pos  # pos=1 forces some n_i=0, so the NAND side is 1
        if n0 in (p0, p1) and n1 in (p0, p1):
            return LIT_FALSE  # pos=1 forces n0=n1=1, NAND side is 0
        if n0 in (p0, p1):
            return self.add_and(pos, lit_neg(n1))
        if n1 in (p0, p1):
            return self.add_and(pos, lit_neg(n0))
        return None

    # -- derived connectives ------------------------------------------- #

    def add_or(self, a: int, b: int) -> int:
        return lit_neg(self.add_and(lit_neg(a), lit_neg(b)))

    def add_xor(self, a: int, b: int) -> int:
        return lit_neg(self.add_and(
            lit_neg(self.add_and(a, lit_neg(b))),
            lit_neg(self.add_and(lit_neg(a), b)),
        ))

    def add_and_many(self, lits: Iterable[int]) -> int:
        acc = LIT_TRUE
        for lit in lits:
            acc = self.add_and(acc, lit)
        return acc

    def add_or_many(self, lits: Iterable[int]) -> int:
        acc = LIT_FALSE
        for lit in lits:
            acc = self.add_or(acc, lit)
        return acc

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #

    @property
    def inputs(self) -> List[int]:
        """Input node ids in PI order."""
        return list(self._inputs)

    @property
    def outputs(self) -> List[Tuple[str, int]]:
        """(name, literal) pairs in PO order."""
        return list(self._outputs)

    def input_name(self, node: int) -> str:
        return self._input_name[node]

    def input_names(self) -> List[str]:
        return [self._input_name[n] for n in self._inputs]

    def find_input(self, name: str) -> int:
        """Node id of the input with the given name."""
        for node in self._inputs:
            if self._input_name[node] == name:
                return node
        raise KeyError(f"no AIG input named {name!r}")

    def is_input(self, node: int) -> bool:
        return self._fanin0[node] < 0

    def is_and(self, node: int) -> bool:
        return node != 0 and self._fanin0[node] >= 0

    def fanins(self, node: int) -> Tuple[int, int]:
        """Fanin literals of an AND node."""
        if not self.is_and(node):
            raise AigError(f"node {node} is not an AND node")
        return self._fanin0[node], self._fanin1[node]

    def num_nodes(self) -> int:
        """All nodes including the constant and inputs."""
        return len(self._fanin0)

    def num_inputs(self) -> int:
        return len(self._inputs)

    def num_ands(self, live_only: bool = False) -> int:
        """AND-node count; ``live_only`` counts only output cones."""
        if not live_only:
            return len(self._fanin0) - 1 - len(self._inputs)
        return sum(1 for n in self.cone() if self.is_and(n))

    def and_nodes(self) -> Iterable[int]:
        """AND node ids in topological (id) order."""
        for node in range(1, len(self._fanin0)):
            if self._fanin0[node] >= 0:
                yield node

    def cone(self, lits: Optional[Iterable[int]] = None) -> List[int]:
        """Transitive-fanin node ids of ``lits`` (default: all outputs),
        in topological (ascending id) order."""
        if lits is None:
            lits = [lit for _, lit in self._outputs]
        seen = set()
        stack = [lit_node(lit) for lit in lits]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if self.is_and(node):
                f0, f1 = self.fanins(node)
                stack.append(lit_node(f0))
                stack.append(lit_node(f1))
        return sorted(seen)

    def levels(self) -> int:
        """Depth in AND nodes of the deepest output cone."""
        level = [0] * len(self._fanin0)
        for node in self.and_nodes():
            f0, f1 = self.fanins(node)
            level[node] = 1 + max(level[lit_node(f0)], level[lit_node(f1)])
        return max(
            (level[lit_node(lit)] for _, lit in self._outputs), default=0
        )

    def stats(self) -> Dict[str, int]:
        return {
            "inputs": len(self._inputs),
            "outputs": len(self._outputs),
            "ands": self.num_ands(),
            "ands_live": self.num_ands(live_only=True),
            "levels": self.levels(),
        }

    # ------------------------------------------------------------------ #
    # simulation
    # ------------------------------------------------------------------ #

    def simulate(
        self, packed_inputs: Mapping[int, int], width: int
    ) -> List[int]:
        """Bit-parallel simulation of ``width`` packed patterns.

        ``packed_inputs`` maps input *node id* -> packed word (bit i =
        pattern i's value); returns one word per node, indexed by node
        id.  Mirrors :func:`repro.sim.parallel.simulate_packed`.
        """
        mask = (1 << width) - 1
        fanin0, fanin1 = self._fanin0, self._fanin1
        values = [0] * len(fanin0)
        for node in self._inputs:
            values[node] = packed_inputs.get(node, 0) & mask
        neg = (0, mask)
        for node in range(1, len(fanin0)):
            f0 = fanin0[node]
            if f0 < 0:
                continue  # a primary input
            f1 = fanin1[node]
            values[node] = (
                (values[f0 >> 1] ^ neg[f0 & 1])
                & (values[f1 >> 1] ^ neg[f1 & 1])
            )
        return values

    def lit_value(self, values: Sequence[int], lit: int, mask: int) -> int:
        """Packed value of a literal given node values from simulate()."""
        value = values[lit_node(lit)]
        return (value ^ mask) & mask if lit_phase(lit) else value & mask

    def evaluate(self, assignment: Mapping[str, int]) -> Dict[str, int]:
        """2-valued single-pattern evaluation: PI name -> 0/1 in,
        PO name -> 0/1 out."""
        packed = {
            node: assignment[self._input_name[node]] & 1
            for node in self._inputs
        }
        values = self.simulate(packed, 1)
        return {
            name: self.lit_value(values, lit, 1)
            for name, lit in self._outputs
        }

    def random_patterns(
        self, width: int, rng: random.Random
    ) -> Dict[int, int]:
        """Uniform random packed input words for ``width`` patterns."""
        return {node: rng.getrandbits(width) for node in self._inputs}

    def __repr__(self) -> str:
        return (
            f"<Aig {self.name!r}: {self.num_ands()} ands, "
            f"{len(self._inputs)} PI, {len(self._outputs)} PO>"
        )
