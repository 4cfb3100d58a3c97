"""Symbols, permutations, isotopies and value tables of quasigroups of order 4.

Everything operates on the fixed symbol set {0, 1, 2, 3}.  A quasigroup of
arity n is stored as a read-only numpy table of shape (4,)*n with the first
argument on the most significant axis, so the flat index of (x_1, ..., x_n)
is sum(x_j * 4**(n-j)).  Printed digit strings follow the same convention.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

ORDER = 4
SYMBOLS = (0, 1, 2, 3)
MAX_ARITY = 12  # 4**12 table entries (~16 MiB); far above the search range
SPLIT_CELLS = 4**10  # larger tables are Latin-checked an axis-0 quarter at a time
SMALL_CELLS = 4**3  # tables up to this size are Latin-checked line by line as bytes


class FormatError(ValueError):
    """Malformed qg4 file or tree document."""


class LatinError(ValueError):
    """A value table violates the Latin (section-bijectivity) property."""


class ArityError(ValueError):
    """Arity mismatch between operands."""


class CapError(RuntimeError):
    """A search refused to run above its configured arity cap."""


# ---------------------------------------------------------------------------
# Permutations of {0,1,2,3}
# ---------------------------------------------------------------------------

class Perm:
    """A permutation of {0,1,2,3}, interned: the 24 instances are singletons.

    `images[x]` is the image of x.  Composition follows (p * q)(x) = p(q(x)).
    """

    __slots__ = ("images", "index", "arr")

    _registry: dict[tuple[int, int, int, int], "Perm"] = {}

    def __new__(cls, images: Iterable[int]) -> "Perm":
        key = tuple(int(x) for x in images)
        cached = cls._registry.get(key)
        if cached is not None:
            return cached
        if sorted(key) != list(SYMBOLS):
            raise ValueError(f"not a permutation of 0..3: {key!r}")
        self = super().__new__(cls)
        self.images = key
        self.index = -1  # assigned once, below, in lexicographic order
        self.arr = np.array(key, dtype=np.uint8)
        self.arr.setflags(write=False)
        cls._registry[key] = self
        return self

    def __reduce__(self):
        return (Perm, (self.images,))  # unpickles to the interned instance

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Perm") -> "Perm":
        return PERMS[_MUL[self.index][other.index]]

    def inverse(self) -> "Perm":
        return PERMS[_INV[self.index]]

    def order(self) -> int:
        return _ORDERS[self.index]

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen: set[int] = set()
        out = []
        for start in SYMBOLS:
            if start in seen or self.images[start] == start:
                continue
            cyc = [start]
            seen.add(start)
            x = self.images[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return tuple(out)

    @classmethod
    def from_cycles(cls, *cycles: Sequence[int]) -> "Perm":
        images = list(SYMBOLS)
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:]):
                images[a] = b
            images[cyc[-1]] = cyc[0]
        return cls(images)

    def __repr__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + "".join(str(x) for x in c) + ")" for c in cycs)

    def __hash__(self) -> int:
        return self.index

    def __eq__(self, other: object) -> bool:
        return self is other

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images


PERMS: tuple[Perm, ...] = tuple(Perm(p) for p in itertools.permutations(SYMBOLS))
for _i, _p in enumerate(PERMS):
    _p.index = _i
IDENTITY = PERMS[0]

_MUL = tuple(
    tuple(PERMS.index(Perm(tuple(p.images[q.images[x]] for x in SYMBOLS))) for q in PERMS)
    for p in PERMS
)
_INV = tuple(_MUL[i].index(0) for i in range(len(PERMS)))
_PERM_LINES = frozenset(bytes(p.images) for p in PERMS)  # the Latin lines of order 4


def _perm_order(i: int) -> int:
    k, j = 1, i
    while j != 0:
        j = _MUL[j][i]
        k += 1
    return k


_ORDERS = tuple(_perm_order(i) for i in range(len(PERMS)))

# PERMS_FIXING[v][w] lists the six permutations mapping v to w, in lex order.
PERMS_FIXING: tuple[tuple[tuple[Perm, ...], ...], ...] = tuple(
    tuple(tuple(p for p in PERMS if p.images[v] == w) for w in SYMBOLS) for v in SYMBOLS
)


# ---------------------------------------------------------------------------
# Isotopies
# ---------------------------------------------------------------------------

class Isotopy:
    """A tuple (theta_0, ..., theta_n) of permutations; slot 0 acts on values."""

    __slots__ = ("parts", "_hash")

    def __init__(self, parts: Iterable[Perm]):
        self.parts = tuple(parts)
        if len(self.parts) < 2:
            raise ArityError("an isotopy needs at least two permutations")
        self._hash = hash(tuple(p.index for p in self.parts))

    def __reduce__(self):
        return (Isotopy, (self.parts,))  # __slots__ alone pickles only from protocol 2

    @property
    def arity(self) -> int:
        return len(self.parts) - 1

    @classmethod
    def identity(cls, arity: int) -> "Isotopy":
        return cls((IDENTITY,) * (arity + 1))

    @classmethod
    def uniform(cls, perm: Perm, arity: int) -> "Isotopy":
        return cls((perm,) * (arity + 1))

    def __mul__(self, other: "Isotopy") -> "Isotopy":
        if len(self.parts) != len(other.parts):
            raise ArityError("isotopy arity mismatch")
        return Isotopy(a * b for a, b in zip(self.parts, other.parts))

    def inverse(self) -> "Isotopy":
        return Isotopy(p.inverse() for p in self.parts)

    @property
    def is_identity(self) -> bool:
        return all(p.is_identity for p in self.parts)

    def apply(self, tup: Sequence[int]) -> tuple[int, ...]:
        """Coordinate-wise action on a point of Sigma^(n+1)."""
        if len(tup) != len(self.parts):
            raise ArityError("tuple length does not match isotopy")
        return tuple(p.images[x] for p, x in zip(self.parts, tup))

    def __getitem__(self, i: int) -> Perm:
        return self.parts[i]

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.parts)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Isotopy) and self.parts == other.parts

    def __lt__(self, other: "Isotopy") -> bool:
        return self.key() < other.key()

    def key(self) -> tuple[tuple[int, ...], ...]:
        """Lexicographic sort key (tuple of image tuples)."""
        return tuple(p.images for p in self.parts)

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(p) for p in self.parts) + ")"


# ---------------------------------------------------------------------------
# Quasigroups
# ---------------------------------------------------------------------------

def _latin_violation(table: np.ndarray) -> int | None:
    """The first axis (0-based) with a section that is not a bijection, if any.

    Symbols must lie in 0..3, so a line is a bijection iff the one-hot bytes
    1 << v of its cells OR, or sum, to 0b1111.  `_lines_bijective` checks the
    axes lowest first.  A table past SPLIT_CELLS (1 MiB) is one-hot coded by
    axis-0 quarters, into one buffer that stays in a 2 MiB L2 cache: the
    quarters OR into `seen` for axis 0, and later quarters check only the
    axes below one that failed.  A table of at most SMALL_CELLS, a decomposition
    label, is read as bytes, each line looked up among the 24 permutations: a
    few microseconds, where numpy's fixed costs take 17-33."""
    if table.size <= SMALL_CELLS:
        cells, n = table.tobytes(), table.ndim
        for axis in range(n):
            step = ORDER ** (n - 1 - axis)  # the lines along axis start at digit 0 of it
            if not all(cells[s:s + ORDER * step:step] in _PERM_LINES
                       for block in range(0, len(cells), ORDER * step) for s in range(block, block + step)):
                return axis
        return None
    n, split = table.ndim, int(table.size > SPLIT_CELLS)
    chunks = table.reshape(ORDER**split, -1)
    onehot = np.empty_like(chunks[0])
    seen = np.zeros_like(onehot) if split else None
    buf = np.empty(len(onehot) // ORDER, dtype=np.uint8)
    first = n  # the lowest failing axis so far, or n
    for chunk in chunks:
        np.left_shift(1, chunk, out=onehot)
        if split:
            seen |= onehot
        first = next((axis for axis in range(split, first)
                      if not _lines_bijective(onehot, n - 1 - axis, buf)), first)
    if split and seen.min() < 15:
        return 0
    return first if first < n else None


def _lines_bijective(onehot: np.ndarray, inner: int, buf: np.ndarray) -> bool:
    """Whether the lines along the axis with `inner` axes after it are bijections.

    A line's cells are the four blocks of a (-1, 4, run) view in 64-bit words
    (32-bit for runs of 4 bytes), ORed in place into `buf`, a quarter of
    `onehot`; runs under 8 words go lane by lane, so every loop is long.
    Lines of adjacent bytes are 32-bit words, whose bytes sum to 15 iff they
    are distinct: one multiplication, in place, leaves the sum in the top byte."""
    if inner == 0:
        sums = onehot.view(np.uint32)
        sums *= np.uint32(0x01010101)
        return sums.min() >> 24 == 15 == sums.max() >> 24
    words = onehot.view(np.uint64 if inner > 1 else np.uint32)
    lines = words.reshape(-1, ORDER, ORDER**inner // words.itemsize)
    blocks = lines.transpose(1, 2, 0) if lines.shape[2] < 8 else lines.transpose(1, 0, 2)
    out = buf.view(words.dtype).reshape(blocks.shape[1:])
    np.bitwise_or(blocks[0], blocks[1], out=out)
    out |= blocks[2]
    out |= blocks[3]
    return buf.min() == 15


def _require_latin(table: np.ndarray) -> None:
    axis = _latin_violation(table)
    if axis is not None:
        raise LatinError(f"section through argument {axis + 1} is not a bijection")


def _splitmix(count: int, bits: int) -> np.ndarray:
    """SplitMix64 outputs for the counters 1..count, cut to their top `bits` bits:
    fixed, well-spread cells of a table of 2^bits entries, without numpy.random."""
    z = np.arange(1, count + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9
    z = (z ^ z >> 27) * 0x94D049BB133111EB
    return ((z ^ z >> 31) >> 64 - bits).astype(np.int64)


def _lookup(images: Sequence[int], table: np.ndarray) -> np.ndarray:
    """images[table] for four images in 0..3, packed two bits each and shifted
    out: a few times faster than a fancy-indexed lookup on a large table."""
    out = np.left_shift(table, 1)
    np.right_shift(np.uint8(sum(int(x) << 2 * i for i, x in enumerate(images))), out, out=out)
    return np.bitwise_and(out, 3, out=out)


def _gather(table: np.ndarray, perms: Sequence[Perm]) -> np.ndarray:
    """table[np.ix_(p_1.arr, ..., p_n.arr)], one take per axis; identities are skipped."""
    for axis, p in enumerate(perms):
        if not p.is_identity:
            table = np.take(table, p.arr, axis=axis)
    return table


class Quasigroup:
    """An n-ary quasigroup on {0,1,2,3} held as an immutable value table; `_profile`
    keeps its semilinear profile, once scanned or derived, and `_split` its split
    verdict, once searched, for the object's life."""

    __slots__ = ("table", "arity", "_hash", "_profile", "_split")

    def __init__(self, table: np.ndarray, *, _trusted: bool = False):
        arr = np.asarray(table, dtype=np.uint8)
        if arr.ndim < 1 or arr.shape != (ORDER,) * arr.ndim:
            raise FormatError(f"table shape {arr.shape} is not (4,)*n")
        if arr.ndim > MAX_ARITY:
            raise CapError(f"arity {arr.ndim} exceeds the table cap {MAX_ARITY}")
        if not _trusted:
            if arr.max(initial=0) > 3:
                raise FormatError("table contains a symbol outside 0..3")
            _require_latin(arr)
        if arr.flags.writeable:
            arr = arr.copy()
            arr.setflags(write=False)
        self.table = arr
        self.arity = arr.ndim
        self._hash = None  # on first use: most intermediate tables are never hashed
        self._profile = None  # set by the semilinear module
        self._split = None  # set by the decompose module: () when q does not split

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_digits(cls, arity: int, digits: str | bytes | memoryview, *,
                    _latin: bool = True) -> "Quasigroup":
        """The table from its 4^arity digits, as text or as ASCII bytes read in place;
        `_latin=False` skips the Latin check, for `full_decomposition(q, _latin=False)`."""
        if arity < 1 or arity > MAX_ARITY:
            raise FormatError(f"unsupported arity {arity}")
        if len(digits) != ORDER**arity:
            raise FormatError(
                f"expected {ORDER**arity} digits for arity {arity}, got {len(digits)}")
        # A non-ASCII character becomes "?"; below "0" wraps around above 3.
        raw = digits.encode("ascii", "replace") if isinstance(digits, str) else digits
        arr = np.frombuffer(raw, dtype=np.uint8) - ord("0")
        if arr.max() > 3:
            bad = digits[int(np.argmax(arr > 3))]
            raise FormatError(f"invalid table digit {bad if isinstance(bad, str) else chr(bad)!r}")
        arr = arr.reshape((ORDER,) * arity)
        if _latin:
            _require_latin(arr)  # the digit check above was the symbol scan
        arr.setflags(write=False)  # a fresh array: Quasigroup need not copy it
        return cls(arr, _trusted=True)

    @classmethod
    def from_callable(cls, arity: int, fn) -> "Quasigroup":
        arr = np.empty((ORDER,) * arity, dtype=np.uint8)
        for x in np.ndindex(*arr.shape):
            arr[x] = fn(*x)
        return cls(arr)

    # -- basic accessors ----------------------------------------------------

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise ArityError(f"expected {self.arity} arguments, got {len(args)}")
        return int(self.table[args])

    def digits(self) -> str:
        return (self.table.ravel() + ord("0")).tobytes().decode("ascii")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Quasigroup) and self.arity == other.arity
                and np.array_equal(self.table, other.table))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.arity, self.table.tobytes()))
        return self._hash

    def __reduce__(self):
        # Rebuild on load: the hash of bytes is salted per process; no profile or split is kept.
        return (Quasigroup, (self.table,))

    def __repr__(self) -> str:
        if self.arity <= 2:
            return f"Quasigroup({self.arity}, {self.digits()!r})"
        return f"Quasigroup(arity={self.arity})"

    # -- sections and inverses ----------------------------------------------

    def section(self, i: int, fixed: Sequence[int]) -> Perm:
        """The bijection x -> f(..., x at argument i, ...) for fixed others."""
        self._check_arg_index(i)
        fixed = tuple(int(v) for v in fixed)
        if len(fixed) != self.arity - 1:
            raise ArityError(f"expected {self.arity - 1} fixed arguments")
        idx = fixed[: i - 1] + (slice(None),) + fixed[i - 1:]
        return Perm(self.table[idx])

    def zero_section(self, i: int) -> Perm:
        return self.section(i, (0,) * (self.arity - 1))

    def inverse(self, i: int) -> "Quasigroup":
        """The inverse in argument i: g(x with a at slot i) = x_i iff f(x) = a."""
        self._check_arg_index(i)
        moved = np.moveaxis(self.table, i - 1, -1)
        rows = np.ascontiguousarray(moved).reshape(-1, ORDER)
        inv = np.empty_like(rows)
        np.put_along_axis(inv, rows.astype(np.intp),
                          np.broadcast_to(np.arange(ORDER, dtype=np.uint8), rows.shape), axis=1)
        out = np.ascontiguousarray(np.moveaxis(inv.reshape(moved.shape), -1, i - 1))
        out.setflags(write=False)  # a fresh array: Quasigroup need not copy it
        return Quasigroup(out, _trusted=True)

    # -- isotopy action and composition --------------------------------------

    def isotope(self, theta: Isotopy) -> "Quasigroup":
        """g(x) = theta_0^{-1} f(theta_1 x_1, ..., theta_n x_n)."""
        if theta.arity != self.arity:
            raise ArityError("isotopy arity does not match quasigroup arity")
        out = _lookup(theta.parts[0].inverse().images, _gather(self.table, theta.parts[1:]))
        out.setflags(write=False)  # a fresh array: Quasigroup need not copy it
        return Quasigroup(out, _trusted=True)

    def compose_at(self, inner: "Quasigroup", pos: int) -> "Quasigroup":
        """Substitute `inner` for argument `pos`, keeping argument order.

        Unary factors are rejected; both operands must have arity >= 2.
        """
        self._check_arg_index(pos)
        if self.arity < 2 or inner.arity < 2:
            raise ArityError("composition factors must have arity at least 2")
        if self.arity + inner.arity - 1 > MAX_ARITY:
            raise CapError("composed arity exceeds the table cap")
        out = np.take(self.table, inner.table, axis=pos - 1)
        out.setflags(write=False)  # a fresh array: Quasigroup need not copy it
        return Quasigroup(out, _trusted=True)

    # -- the code ------------------------------------------------------------

    def code(self) -> frozenset[tuple[int, ...]]:
        """The set {(f(x), x_1, ..., x_n)} of 4^n tuples in Sigma^(n+1)."""
        flat = self.table.ravel()
        return frozenset(
            (int(flat[k]), *x) for k, x in enumerate(np.ndindex(*self.table.shape)))

    def code_tuples(self) -> Iterator[tuple[int, ...]]:
        """Code tuples in lexicographic order of the argument part."""
        flat = self.table.ravel()
        for k, x in enumerate(np.ndindex(*self.table.shape)):
            yield (int(flat[k]), *x)

    def _check_arg_index(self, i: int) -> None:
        if not 1 <= i <= self.arity:
            raise ArityError(f"argument index {i} out of range 1..{self.arity}")


def is_autotopy(q: Quasigroup, theta: Isotopy) -> bool:
    """True iff theta_0 f(x) = f(theta_1 x_1, ..., theta_n x_n) everywhere."""
    if theta.arity != q.arity:
        raise ArityError("isotopy arity does not match quasigroup arity")
    values = q.table if theta[0].is_identity else _lookup(theta[0].images, q.table)
    return np.array_equal(values, _gather(q.table, theta.parts[1:]))


# ---------------------------------------------------------------------------
# qg4 file format
# ---------------------------------------------------------------------------

def parse_table(data: bytes | str, *, _latin: bool = True) -> Quasigroup:
    """Parse the qg4 format: "qg4 <n>\\n<4^n digits>\\n", nothing else.

    The digits of bytes input are read in place, not decoded to text.  The
    digit check rejects a newline or a non-ASCII byte in the body, so a valid
    file is not scanned for them; a malformed one is, to name its first fault."""
    newline = "\n" if isinstance(data, str) else b"\n"
    cut = data.find(newline)
    try:
        if cut < 0 or not data.endswith(newline):
            raise FormatError("expected exactly two newline-terminated lines")
        header = data[:cut] if isinstance(data, str) else data[:cut].decode("ascii", "replace")
        parts = header.split(" ")
        if len(parts) != 2 or parts[0] != "qg4" or not parts[1].isdigit():
            raise FormatError(f"malformed header {header!r}; expected 'qg4 <n>'")
        body = data[cut + 1:-1] if isinstance(data, str) else memoryview(data)[cut + 1:-1]
        return Quasigroup.from_digits(int(parts[1]), body, _latin=_latin)
    except FormatError:
        if isinstance(data, bytes) and not data.isascii():
            raise FormatError("qg4 file is not ASCII") from None
        if data.count(newline) != 2 or not data.endswith(newline):
            raise FormatError("expected exactly two newline-terminated lines") from None
        raise


def qg4_text(q: Quasigroup) -> str:
    """Serialize to the qg4 format (bit-exact, newline-terminated)."""
    return f"qg4 {q.arity}\n{q.digits()}\n"
