"""Finite abelian groups as explicit products of cyclic factors.

A group is a tuple of cyclic moduli [n1, ..., nd].  An element is its
canonical integer index, the mixed-radix (row-major) encoding of its
coordinates over the factors in the order given; bitmapped element sets and
all serialized artifacts use it.  Where coordinates are needed, the
vectorized helpers convert whole arrays of indices to coordinate rows and back.

Element sets are read-only bitmaps.  `materialized_order` is the one check of
`config.MATERIALIZE_CAP`, run before any order-length array is built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import config

__all__ = [
    "GroupSpec",
    "ElementSet",
    "make_group",
    "materialized_order",
    "parse_group_literal",
]


@dataclass(frozen=True)
class GroupSpec:
    """Product of cyclic groups Z_{n1} x ... x Z_{nd}."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli:
            raise ValueError("a group needs at least one cyclic factor")
        for n in self.moduli:
            if not isinstance(n, int) or n < 2:
                raise ValueError(f"cyclic factor {n!r} must be an int >= 2")
        if self.order > config.INDEX_TYPE_MAX:
            raise ValueError(
                f"group order {self.order} does not fit the platform index type"
            )

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.moduli)

    # -- vectorized index helpers --------------------------------------------

    def indices_to_coords(self, idx: np.ndarray) -> np.ndarray:
        """(N,) indices -> (N, rank) coordinate array."""
        return np.stack(
            np.unravel_index(np.asarray(idx, dtype=np.int64), self.moduli), axis=-1
        )

    def coords_to_indices(self, coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.int64)
        return np.ravel_multi_index(
            tuple(coords[..., i] % n for i, n in enumerate(self.moduli)), self.moduli
        ).astype(np.int64)

    def negate_indices(self, idx: np.ndarray) -> np.ndarray:
        coords = self.indices_to_coords(idx)
        neg = (-coords) % np.asarray(self.moduli, dtype=np.int64)
        return self.coords_to_indices(neg)

    # -- formatting ----------------------------------------------------------

    @property
    def literal(self) -> str:
        """Canonical text form: Z(7), Z(3)^4, Z(2)xZ(3)xZ(5), ..."""
        parts = []
        i = 0
        while i < self.rank:
            j = i
            while j < self.rank and self.moduli[j] == self.moduli[i]:
                j += 1
            run = j - i
            parts.append(f"Z({self.moduli[i]})" + (f"^{run}" if run > 1 else ""))
            i = j
        return "x".join(parts)

    def __str__(self) -> str:
        return self.literal


def make_group(moduli: Sequence[int]) -> GroupSpec:
    """Build a product group from a list of cyclic moduli (each >= 2)."""
    return GroupSpec(tuple(int(n) for n in moduli))


_LITERAL_PART = re.compile(r"^Z\((\d+)\)(?:\^(\d+))?$")


def parse_group_literal(text: str) -> GroupSpec:
    """Parse a group literal: "Z(7)", "Z(3)^4", "Z(2)xZ(3)".

    Factors are joined by "x", and "^r" repeats a factor r >= 1 times; the
    result prints back as the same canonical literal (GroupSpec.literal).
    """
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty group literal")
    moduli: list[int] = []
    for part in text.split("x"):
        mobj = _LITERAL_PART.match(part)
        if not mobj:
            raise ValueError(f"bad group literal component {part!r}")
        n, power = int(mobj.group(1)), int(mobj.group(2) or 1)
        if power < 1:
            raise ValueError(f"group literal component {part!r} has exponent below 1")
        moduli.extend([n] * power)
    return make_group(moduli)


def materialized_order(group: GroupSpec) -> int:
    """group.order; a ValueError, before any array is built, above `config.MATERIALIZE_CAP`."""
    if group.order > config.MATERIALIZE_CAP:
        raise ValueError(f"group order {group.order} exceeds the materialization cap "
                         f"{config.MATERIALIZE_CAP}")
    return group.order


# ---------------------------------------------------------------------------
# Element sets
# ---------------------------------------------------------------------------


class ElementSet:
    """A subset of a group, stored as a dense read-only bitmap over canonical indices.

    The constructor copies its bitmap and marks the copy read-only, so a set
    never changes after it is built: set operations return new sets, and a
    write through mask() raises ValueError.
    The serialized form is a run-length-encoded bitmap with a header recording
    the group literal, so files are portable across machines.
    """

    def __init__(self, group: GroupSpec, bits: np.ndarray):
        order = materialized_order(group)
        bits = np.array(bits, dtype=bool)
        if bits.shape != (order,):
            raise ValueError("bitmap length does not match group order")
        bits.setflags(write=False)
        self.group = group
        self._bits = bits

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_indices(cls, group: GroupSpec, indices: Iterable[int]) -> "ElementSet":
        idx = np.asarray(list(indices) if not isinstance(indices, np.ndarray) else indices,
                         dtype=np.int64)
        bits = np.zeros(materialized_order(group), dtype=bool)
        if idx.size:
            if idx.min() < 0 or idx.max() >= group.order:
                raise ValueError("element index out of range")
            bits[idx] = True
        # adopt the fresh bitmap: a copy would touch every page np.zeros left untouched
        bits.setflags(write=False)
        s = cls.__new__(cls)
        s.group, s._bits = group, bits
        return s

    # -- queries -------------------------------------------------------------

    @property
    def count(self) -> int:
        return int(self._bits.sum())

    def __len__(self) -> int:
        return self.count

    def contains_index(self, idx: int) -> bool:
        return bool(self._bits[idx])

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self._bits).astype(np.int64)

    def mask(self) -> np.ndarray:
        return self._bits

    # -- set algebra (each returns a new set) --------------------------------

    def _same_group(self, other: "ElementSet"):
        if self.group != other.group:
            raise ValueError("element sets live in different groups")

    def union(self, other: "ElementSet") -> "ElementSet":
        self._same_group(other)
        return ElementSet(self.group, self._bits | other._bits)

    def intersection(self, other: "ElementSet") -> "ElementSet":
        self._same_group(other)
        return ElementSet(self.group, self._bits & other._bits)

    def negated(self) -> "ElementSet":
        """The set {-a : a in self}."""
        out = np.zeros_like(self._bits)
        idx = self.indices()
        if idx.size:
            out[self.group.negate_indices(idx)] = True
        return ElementSet(self.group, out)

    def symmetrized_without_zero(self) -> "ElementSet":
        """self | (-self), with the identity removed."""
        bits = self._bits | self.negated()._bits
        bits[0] = False
        return ElementSet(self.group, bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElementSet):
            return NotImplemented
        return self.group == other.group and bool(np.array_equal(self._bits, other._bits))

    def __repr__(self) -> str:
        return f"ElementSet({self.group.literal}, count={self.count})"

    # -- serialization -------------------------------------------------------

    FORMAT_TAG = "BITS1"

    def to_rle_text(self) -> str:
        """Header line with the group literal, then value:length runs."""
        bits = self._bits
        # a run starts at 0 and wherever a bit differs from the one before it
        starts = np.concatenate(([0], np.flatnonzero(bits[1:] != bits[:-1]) + 1))
        lengths = np.diff(starts, append=bits.size)
        runs = " ".join(f"{v}:{n}" for v, n in zip(bits[starts].astype(int).tolist(),
                                                  lengths.tolist()))
        return f"{self.FORMAT_TAG} {self.group.literal}\n{runs}\n"

    @classmethod
    def from_rle_text(cls, text: str) -> "ElementSet":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty bitset file")
        header = lines[0].split(None, 1)
        if len(header) != 2 or header[0] != cls.FORMAT_TAG:
            raise ValueError(f"bad bitset header {lines[0]!r}")
        group = parse_group_literal(header[1])
        bits = np.zeros(materialized_order(group), dtype=bool)
        pos = 0
        for tok in " ".join(lines[1:]).split():
            v, sep, ln = tok.partition(":")
            if sep != ":" or v not in ("0", "1"):
                raise ValueError(f"bad run token {tok!r}")
            length = int(ln)
            if length < 0 or pos + length > group.order:
                raise ValueError("run lengths exceed group order")
            if v == "1":
                bits[pos:pos + length] = True
            pos += length
        if pos != group.order:
            raise ValueError(f"runs cover {pos} of {group.order} elements")
        return cls(group, bits)

    def save(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(self.to_rle_text())

    @classmethod
    def load(cls, path) -> "ElementSet":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_rle_text(fh.read())
