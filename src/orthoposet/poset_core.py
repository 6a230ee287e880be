"""Finite bounded posets with bitmask subset arithmetic.

Elements are dense indices 0..n-1; labels exist only at the I/O boundary.
A subset of the carrier is a plain int used as a bitmask, so every bound
operator is a couple of word operations. The carrier is capped so one
machine word always suffices.

Complements need no join or meet table: x v y is the top exactly when
U(x, y) = ``up[x] & up[y]`` is ``1 << top``, and x ^ y is the bottom exactly
when L(x, y) = ``down[x] & down[y]`` is ``1 << bottom``.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

CARRIER_CAP = 64


class PosetError(ValueError):
    """Structurally invalid poset, document or argument."""


class UndefinedOperationError(PosetError):
    """A meet or join required by a set-valued operation does not exist.

    Carries the offending pair so callers can explain *why* an operation
    table could not be built (typically: the poset is not orthogonal).
    """

    def __init__(self, kind: str, left: int, right: int, poset: Poset):
        self.kind = kind
        self.left = left
        self.right = right
        super().__init__(f"undefined {kind} of ({poset.names[left]}, {poset.names[right]})")


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_mask(mask: int) -> Iterator[int]:
    """Ascending element indices of a subset mask."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def indices_of(mask: int) -> tuple[int, ...]:
    return tuple(iter_mask(mask))


def add_cover(up: list[int], i: int, j: int) -> None:
    """Add i <= j to the up rows of a reflexive-transitive relation, in place.

    Every row that contains i gains ``up[j]``, so the rows stay closed; a
    self cover (i, i) changes nothing. A cover that closes a cycle leaves
    rows the ``Poset`` constructor rejects as not antisymmetric.
    """
    above_j = up[j]
    for k, row in enumerate(up):
        if (row >> i) & 1:
            up[k] = row | above_j


class Poset:
    """Finite bounded poset.

    ``up[i]`` is the mask of all j with i <= j (including i itself) and
    ``down[i]`` the mask of all j with j <= i. The constructor validates
    reflexivity, antisymmetry, transitivity and the existence of a least
    and greatest element, for every poset built from parsed or user input.
    The one exception is ``enumerate_posets``: it validates each middle
    relation once through the constructor, on a ``frame``, and builds its
    relabeled copies with the unchecked ``_trusted``; a copy's element i is
    ``to_frame[i]`` of its frame (both None on other posets). The name index,
    the join and meet tables, the Min U and Max L masks (``min_upper``,
    ``max_lower``), the cover list (``covers``) and the kernel state
    (``_packed``, on a poset without a frame or on a frame) are built on
    first use.
    """

    __slots__ = ("names", "n", "up", "down", "bottom", "top", "full", "frame", "to_frame",
                 "_index", "_joins", "_meets", "_min_upper", "_max_lower", "_covers", "_packed")

    def __init__(self, names: Sequence[str], up_rows: Sequence[int]):
        names = tuple(names)
        up = tuple(int(r) for r in up_rows)
        n = len(names)
        if n < 1:
            raise PosetError("a poset needs at least one element")
        if n > CARRIER_CAP:
            raise PosetError(f"carrier size {n} exceeds cap {CARRIER_CAP}")
        if len(up) != n:
            raise PosetError("order relation size does not match element count")
        if any(not isinstance(s, str) or not s for s in names):
            raise PosetError("element names must be nonempty strings")
        if len(set(names)) != n:
            raise PosetError("element names must be unique")
        full = (1 << n) - 1
        down = [0] * n
        for i, row in enumerate(up):
            if row & ~full:
                raise PosetError(f"row {i} references elements outside the carrier")
            if not (row >> i) & 1:
                raise PosetError(f"order is not reflexive at {names[i]}")
            for j in iter_mask(row):
                down[j] |= 1 << i
        for i in range(n):
            for j in iter_mask(up[i]):
                if i != j and (up[j] >> i) & 1:
                    raise PosetError(f"order is not antisymmetric on {names[i]}, {names[j]}")
                if up[j] & ~up[i]:
                    raise PosetError(f"order is not transitive at {names[i]} <= {names[j]}")
        bottoms = [i for i in range(n) if up[i] == full]
        tops = [i for i in range(n) if down[i] == full]
        if not bottoms:
            raise PosetError("poset has no least element")
        if not tops:
            raise PosetError("poset has no greatest element")
        self.names = names
        self.n = n
        self.up = up
        self.down = tuple(down)
        self.bottom = bottoms[0]
        self.top = tops[0]
        self.full = full
        self.frame = self.to_frame = self._packed = None
        self._index = self._joins = self._meets = self._min_upper = self._max_lower = self._covers = None

    # -- construction -----------------------------------------------------

    @classmethod
    def _trusted(cls, names: tuple[str, ...], up: tuple[int, ...], down: tuple[int, ...],
                 bottom: int, top: int, frame: "Poset", to_frame: tuple[int, ...]) -> "Poset":
        """A copy of ``frame`` whose element i is frame element ``to_frame[i]``.

        Nothing is checked, so the caller must derive the rows from the
        frame's; ``enumerate_posets`` does.
        """
        self = cls.__new__(cls)
        self.names = names
        self.n = len(names)
        self.up = up
        self.down = down
        self.bottom = bottom
        self.top = top
        self.full = (1 << self.n) - 1
        self.frame, self.to_frame, self._packed = frame, to_frame, None
        self._index = self._joins = self._meets = self._min_upper = self._max_lower = self._covers = None
        return self

    @classmethod
    def from_covers(cls, names: Sequence[str], covers: Iterable[tuple[int, int]]) -> "Poset":
        """Build from cover pairs (i, j) meaning i < j; computes the closure."""
        n = len(names)
        up = [1 << i for i in range(n)]
        for i, j in covers:
            if not (0 <= i < n and 0 <= j < n):
                raise PosetError(f"cover ({i}, {j}) outside the carrier")
            add_cover(up, i, j)
        return cls(names, up)

    def frame_instance(self, prime: Sequence[int]) -> tuple["Poset", tuple[int, ...]]:
        """``(frame, moved map)`` of the map ``prime`` on a copy, isomorphic
        to ``(self, prime)``: frame element ``to_frame[i]`` goes to
        ``to_frame[prime[i]]``. ``(self, prime)`` itself on a poset without a
        frame. The one relabeling, for the flag kernel and for verify."""
        s = self.to_frame
        if s is None:
            return self, tuple(prime)
        moved = [0] * self.n
        for i, v in enumerate(prime):
            moved[s[i]] = s[v]
        return self.frame, tuple(moved)

    # -- element and subset plumbing --------------------------------------

    def index(self, name: str) -> int:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.names)}
        try:
            return self._index[name]
        except KeyError:
            raise PosetError(f"unknown element {name!r}") from None

    def mask(self, names: Iterable[str]) -> int:
        return mask_of(self.index(s) for s in names)

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.names[i] for i in iter_mask(mask))

    def le(self, x: int, y: int) -> bool:
        return bool((self.up[x] >> y) & 1)

    def lt(self, x: int, y: int) -> bool:
        return x != y and self.le(x, y)

    # -- bound operators ---------------------------------------------------

    def lower_bounds(self, mask: int) -> int:
        """Common lower bounds; the full carrier for the empty subset."""
        out = self.full
        for i in iter_mask(mask):
            out &= self.down[i]
        return out

    def upper_bounds(self, mask: int) -> int:
        out = self.full
        for i in iter_mask(mask):
            out &= self.up[i]
        return out

    def maximal(self, mask: int) -> int:
        """Elements of the subset with nothing of the subset strictly above."""
        out = 0
        for i in iter_mask(mask):
            if not (self.up[i] & mask & ~(1 << i)):
                out |= 1 << i
        return out

    def minimal(self, mask: int) -> int:
        out = 0
        for i in iter_mask(mask):
            if not (self.down[i] & mask & ~(1 << i)):
                out |= 1 << i
        return out

    def up_closure(self, mask: int) -> int:
        """Every element above some member of the subset."""
        out = 0
        for i in iter_mask(mask):
            out |= self.up[i]
        return out

    # -- set comparisons ---------------------------------------------------

    def leq1(self, a: int, b: int) -> bool:
        """Every element of a has an upper bound in b."""
        return all(self.up[i] & b for i in iter_mask(a))

    def leq2(self, a: int, b: int) -> bool:
        """Every element of b has a lower bound in a."""
        return all(self.down[j] & a for j in iter_mask(b))

    # -- partial lattice operations ----------------------------------------

    @property
    def join_table(self) -> tuple[tuple[Optional[int], ...], ...]:
        """``join_table[x][y]`` is the join of x and y, or None."""
        if self._joins is None:
            # the join is the one element whose up-set is all of U(x, y); dually the meet
            self._joins = pair_table(self.up, {row: i for i, row in enumerate(self.up)}.get)
        return self._joins

    @property
    def meet_table(self) -> tuple[tuple[Optional[int], ...], ...]:
        if self._meets is None:
            self._meets = pair_table(self.down, {row: i for i, row in enumerate(self.down)}.get)
        return self._meets

    @property
    def min_upper(self) -> tuple[tuple[int, ...], ...]:
        """``min_upper[x][y]`` is the mask of Min U(x, y)."""
        if self._min_upper is None:
            self._min_upper = pair_table(self.up, self.minimal)
        return self._min_upper

    @property
    def max_lower(self) -> tuple[tuple[int, ...], ...]:
        """``max_lower[x][y]`` is the mask of Max L(x, y)."""
        if self._max_lower is None:
            self._max_lower = pair_table(self.down, self.maximal)
        return self._max_lower

    def join(self, x: int, y: int) -> Optional[int]:
        """Least upper bound, or None when no unique one exists."""
        return self.join_table[x][y]

    def meet(self, x: int, y: int) -> Optional[int]:
        return self.meet_table[x][y]

    # -- structure ----------------------------------------------------------

    def covers(self) -> tuple[tuple[int, int], ...]:
        """Cover pairs (i, j), i.e. the transitive reduction of the order,
        built on first use."""
        if self._covers is None:
            self._covers = tuple(
                (i, j)
                for i in range(self.n)
                for j in iter_mask(self.up[i] & ~(1 << i))
                if not self.up[i] & self.down[j] & ~(1 << i | 1 << j)
            )
        return self._covers

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poset)
            and self.names == other.names
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.names, self.up))

    def __repr__(self) -> str:
        return f"Poset({len(self.names)} elements: {', '.join(self.names)})"


def pair_table(rows: tuple[int, ...], fn) -> tuple[tuple, ...]:
    """Per pair x, y: ``fn(rows[x] & rows[y])``, computed once per distinct set."""
    found = {c: fn(c) for c in {a & b for a in rows for b in rows}}
    return tuple(tuple(found[a & b] for b in rows) for a in rows)


class OpPoset:
    """A bounded poset together with a total unary operation on its carrier.

    No law is assumed of the operation; being a complementation, antitone,
    an involution etc. are properties to be checked, never presumed.
    """

    __slots__ = ("poset", "prime")

    def __init__(self, poset: Poset, prime: Sequence[int]):
        prime = tuple(int(v) for v in prime)
        if len(prime) != poset.n:
            raise PosetError("unary operation must be total")
        if any(not (0 <= v < poset.n) for v in prime):
            raise PosetError("unary operation maps outside the carrier")
        self.poset = poset
        self.prime = prime

    @classmethod
    def from_named_map(cls, poset: Poset, mapping: dict[str, str]) -> "OpPoset":
        prime = [-1] * poset.n
        for src, dst in mapping.items():
            prime[poset.index(src)] = poset.index(dst)
        if any(v < 0 for v in prime):
            missing = [poset.names[i] for i, v in enumerate(prime) if v < 0]
            raise PosetError(f"unary operation is partial; missing {', '.join(missing)}")
        return cls(poset, prime)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OpPoset)
            and self.poset == other.poset
            and self.prime == other.prime
        )

    def __hash__(self) -> int:
        return hash((self.poset, self.prime))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{self.poset.names[i]}->{self.poset.names[v]}" for i, v in enumerate(self.prime)
        )
        return f"OpPoset({pairs})"
