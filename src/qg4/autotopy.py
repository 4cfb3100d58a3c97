"""Exact autotopy groups: in closed form, as a join of split factors, or by a search.

A group comes by the first of three routes that applies:
- in closed form (`_closed_form`), for linear tables and tables with exactly
  one semilinear assignment: |Atp| = 6 * 4^n, and 2^(n+1) |V| for a Boolean
  function b up to isotopy, V the shifts along which b's derivative is affine;
- as a join (`_split_join`), for a table that splits as
  q = outer(inner(x_S), x_rest): the fiber product of the factors' groups,
  each found by the same three routes;
- by the orbit-stabilizer search over the code below, for every other table.

The join is exact.  Let theta be an autotopy of q and
sigma = outer(., theta_rest 0)^-1 theta_0 outer(., 0).  At x_rest = 0,
outer(inner(theta_S a), theta_rest 0) = theta_0 outer(inner(a), 0), so
inner(theta_S a) = sigma(inner(a)): (sigma, theta_S) lies in Atp(inner), and as
inner is onto, (theta_0, sigma, theta_rest) lies in Atp(outer).  Conversely,
pi in Atp(inner) and tau in Atp(outer) with pi_0 = tau_1 splice into the
autotopy (tau_0; pi_1, ... on S; tau_2, ... on the rest) of q, and theta
gives back its pair.  So Atp(q) is in bijection with {(pi, tau) : pi_0 = tau_1},
and by induction over the splits a whole decomposition tree's join is exact.

By Krotov and Potapov (SIAM J. Discrete Math. 23, 2009), every quasigroup of
order 4 and arity at least 3 is semilinear or permutably reducible, and every
one of arity 1 or 2 is semilinear.  A profile has one or three assignments,
never two (see `semilinear_profile`), and the factors of a split are
quasigroups again, so no Latin table reaches the search.  It stays as the
engine of are_isotopic and as the independent route the tests check the other
two against.

The search.  A candidate (target code tuple, value permutation theta_0) forces at most one
isotopy through the sections at the all-zero anchor and at the target.
Candidates are uint8 rows of permutation indices, built for a block of targets
by one index-arithmetic pass; a block too large for one full-table check
block first meets 64 fixed probe cells, which reject most wrong candidates,
and a candidate is a hit only once it holds on the whole table.

|Atp(f)| = |orbit of the anchor| * |stabilizer|.  The first block is the
anchor and the n unit targets, the flat indices 4^j, where a transitive group
has its generators.  Its hits at the anchor are exactly the stabilizer, a
group, so the subgroup H the search grows starts as the stabilizer in one
step.  As H holds the stabilizer, an autotopy x lies in a left coset r * H iff
x(anchor) lies in r(orbit_H): if x(a) = r h(a), then (r h)^-1 x fixes a, so it
lies in H.  Membership in H is thus a bool mask of H's orbit over the 4^n
targets.  The other targets are taken lazily in flat order from target 1, in
blocks of the next 1, 2, 4, ... targets outside H's orbit, back to one after a
block that adds a generator; each hit outside H becomes a generator, and H
grows by its new left cosets, each marking its targets in the orbit.
Once a block after the first adds no generator, targets are also pruned by
their 2-D sections: an isotopy maps the (i, j)-section through the anchor
onto an isotopic one through its target, and an order-4 Latin square is of
Z4 or of Klein type; the open targets left must match the anchor's count of
Klein-type (i, j)-sections along x_k in each (i, j, k)-cube.  A target outside
H's final orbit was pruned or had all its candidates rejected, so orbit(H) =
orbit(G) and the group is exact.  The same candidates and the same filter
between two quasigroups, swept by the same block loop, decide isotopy at the
first hit.  H is held as a transversal of its orbit, one row per target, and
the stabilizer; the group is the int64 keys of their products, sorted once in
place.  Greedy generators are read off them down the kernel chain of key order
by binary search, with no second closure; the record is cached with the orbit.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_ARITY,
    ORDER,
    PERMS,
    PERMS_FIXING,
    _INV,
    _MUL,
    _gather,
    _lookup,
    _splitmix,
    ArityError,
    CapError,
    Isotopy,
    Perm,
    Quasigroup,
    is_autotopy,  # bound here too, as the library has always exported it
)
from .decompose import find_split
from .semilinear import boolean_form, semilinear_profile, xor_isotopy

DEFAULT_CAP = 6
MATERIALIZE_LIMIT = 2**20
TARGET_BLOCK = 1024  # targets per candidate block, six candidates each
PROBE_CELLS = 64
CHECK_AXES = 8  # a full-table check block spans 4^8 = 2^16 cells of the trailing axes

_log = logging.getLogger("qg4")

# The 24 permutations as arrays, indexed by Perm.index.
_IMG = np.array([p.images for p in PERMS], dtype=np.uint8)
_ZERO_IMG = _IMG[:, 0].astype(np.int32)
_MUL_A = np.array(_MUL, dtype=np.uint8)
_INV_A = np.array(_INV, dtype=np.uint8)
_FIXING = np.array([[[p.index for p in w] for w in v] for v in PERMS_FIXING], np.uint8)
_ROW_W = np.array([64, 16, 4, 1])  # an image row read as a base-4 number
_ROW_PERM = np.zeros(256, dtype=np.uint8)
_ROW_PERM[_IMG @ _ROW_W] = np.arange(len(PERMS))
_PACKED = (_IMG << 2 * np.arange(ORDER, dtype=np.uint8)).sum(axis=1, dtype=np.uint8)  # images, 2 bits each
_WEIGHTS = 4 ** np.arange(MAX_ARITY - 1, -1, -1, dtype=np.int32)  # flat-index weights
# _INVOLUTION_QUOTIENT[24 * p + r]: p o r^-1 is an involution.
_INVOLUTION_QUOTIENT = np.array([p.order() == 2 for p in PERMS])[_MUL_A[:, _INV_A]].ravel()
# x -> 2(u ^ s) + (v ^ a u ^ t) for x = 2u + v, at 4s + 2a + t: the maps keeping 01|23.
_D4 = np.array([Perm([2 * (x >> 1 ^ s) + (x & 1 ^ a & x >> 1 ^ t) for x in range(ORDER)]).index
                for s in (0, 1) for a in (0, 1) for t in (0, 1)], dtype=np.uint8)
# x -> alpha(x) ^ c at (alpha, c), alpha over the six linear maps of F_2^2: all of S_4.
_AFFINE = np.array([[Perm([alpha(x) ^ c for x in range(ORDER)]).index for c in range(ORDER)]
                    for alpha in PERMS_FIXING[0][0]], dtype=np.uint8)


class _Elements(Sequence):
    """Group elements held as their sorted int64 keys and the row width; the
    read-only rows and the Isotopy objects are decoded when first read."""

    def __init__(self, keys: np.ndarray, width: int):
        self.keys, self.width = keys, width

    @functools.cached_property
    def rows(self) -> np.ndarray:
        rows = _rows(self.keys, self.width)
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def _items(self) -> tuple[Isotopy, ...]:
        return tuple(_isotopies(self.rows))

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, theta: Isotopy) -> bool:
        if theta.arity + 1 != self.width:  # before _keys, which refuses a wider row
            return False
        key = _keys(_to_rows([theta]))[0]
        return self.keys[min(np.searchsorted(self.keys, key), len(self) - 1)] == key

    def __getitem__(self, i):
        return self._items[i]

    def __eq__(self, other: object) -> bool:
        return self._items == (other._items if isinstance(other, _Elements) else other)

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return repr(self._items)


@dataclass(frozen=True)
class AutotopyGroup:
    """Exact autotopy group: order, a greedy generating set, optional elements."""

    order: int
    generators: tuple[Isotopy, ...]
    elements: Sequence[Isotopy] | None

    def __contains__(self, theta: Isotopy) -> bool:
        if self.elements is None:
            raise ValueError("group elements are not materialized")
        return theta in self.elements


@dataclass(frozen=True)
class StabilizerWitness:
    """The autotopies fixing one code tuple coordinate-wise."""

    base_tuple: tuple[int, ...]
    members: tuple[Isotopy, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def zero_anchor(q: Quasigroup) -> tuple[int, ...]:
    """The code tuple over the all-zero argument tuple."""
    zeros = (0,) * q.arity
    return (q(*zeros), *zeros)


def _propagate_candidate(source: Quasigroup, constraint: Quasigroup, zero_secs: list[Perm],
                         inv_target_secs: list[Perm], theta0: Perm) -> Isotopy | None:
    """Build one isotopy candidate and verify it on the full table.

    Solves theta_0 * constraint = source(theta_1 ., ..., theta_n .): the i-th
    permutation is forced to inv_target_sec_i o theta_0 o zero_sec_i, where
    zero_sec_i runs through the constraint at the zero anchor and
    inv_target_sec_i inverts the source section through the target tuple.
    The sweep builds the same candidates in bulk; this is the scalar route.
    """
    parts = [theta0]
    for z, s_inv in zip(zero_secs, inv_target_secs):
        parts.append(s_inv * theta0 * z)
    if not np.array_equal(_lookup(theta0.images, constraint.table), _gather(source.table, parts[1:])):
        return None
    return Isotopy(parts)


def propagate(q: Quasigroup, target: tuple[int, ...], theta0: Perm) -> Isotopy | None:
    """Candidate autotopy mapping the zero-anchor code tuple onto `target`.

    Returns the verified isotopy, or None when the propagated candidate fails
    the full-table check.  `target` must lie in the code and `theta0` must map
    f(0,...,0) to the target's value coordinate.
    """
    n = q.arity
    if len(target) != n + 1:
        raise ArityError(f"target must have {n + 1} coordinates")
    b0, b = target[0], tuple(target[1:])
    if q(*b) != b0:
        raise ValueError(f"target {target} is not in the code")
    if theta0.images[q(*((0,) * n))] != b0:
        raise ValueError("theta0 is inconsistent with the target's value coordinate")
    zero_secs = [q.zero_section(i) for i in range(1, n + 1)]
    inv_secs = [q.section(i, b[: i - 1] + b[i:]).inverse() for i in range(1, n + 1)]
    return _propagate_candidate(q, q, zero_secs, inv_secs, theta0)


def _sections(flat: np.ndarray, n: int, cells: np.ndarray) -> np.ndarray:
    """Permutation indices (len(cells), n) of the sections through flat cells."""
    w = _WEIGHTS[-n:]
    base = cells[:, None] - cells[:, None] // w % 4 * w  # the cell with digit i zeroed
    return _ROW_PERM[flat[base[:, :, None] + w[:, None] * np.arange(ORDER)] @ _ROW_W]


@functools.lru_cache(maxsize=None)
def _probes(n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The probe cells at arity n, and per axis each permutation's flat-index term at
    each cell.  A cell is the SplitMix64 output for a counter, cut to 2n bits.  Fibonacci
    hashing alone spreads cells along the flat index but correlates their digits: 64
    such cells at arity 5 passed candidates that fail on an eighth of the table."""
    cells = _splitmix(PROBE_CELLS, 2 * n)
    return cells, [_IMG[:, cells // w % 4].astype(np.int32) * w for w in _WEIGHTS[-n:]]


class _Candidates:
    """The (target, theta_0) candidates of a search for the isotopies theta with
    theta_0 * constraint = source(theta_1 ., ..., theta_n .), built as rows."""

    def __init__(self, source: Quasigroup, constraint: Quasigroup):
        n = self.n = source.arity
        if constraint.arity != n:
            raise ArityError("arity mismatch")
        self.src = source.table.ravel()
        self.con = self.src if constraint is source else constraint.table.ravel()
        self.con_zero = _sections(self.con, n, np.zeros(1, dtype=np.intp))[0]
        self.shifts = np.left_shift(self.con, 1)  # theta_0's image of v sits at bit 2v
        self.per_check = 4 ** max(0, CHECK_AXES - n)  # candidates per check block
        cells, self.terms = _probes(n)
        self.lhs = _IMG[:, self.con[cells]]  # theta_0's image of the constraint at each cell
        self.open = np.ones(4**n, dtype=bool)  # targets not swept, pruned or in a group's orbit
        self.swept = self.rejected = self.skipped = self.checks = self.hits = 0

    def block(self, targets: np.ndarray) -> np.ndarray:
        """The candidate rows at `targets` worth a full-table check, in sweep order:
        target flat index, then theta_0 in lexicographic order.  All six per
        target when they fit in one check block, else those that hold on every
        probe cell."""
        n, src = self.n, self.src
        theta0 = _FIXING[self.con[0]][src[targets]]
        rows = np.empty((len(targets), 6, n + 1), dtype=np.uint8)
        rows[:, :, 0] = theta0
        inv = _INV_A[_sections(src, n, targets)]
        rows[:, :, 1:] = _MUL_A[_MUL_A[inv[:, None, :], theta0[:, :, None]], self.con_zero]
        rows = rows.reshape(-1, n + 1)
        if len(rows) <= self.per_check:
            return rows
        flat = sum(axis[rows[:, i]] for i, axis in enumerate(self.terms, 1))
        return rows[(np.take(src, flat) == self.lhs[rows[:, 0]]).all(axis=1)]

    def sweep(self, targets: np.ndarray):
        """Yield the hits of each check block of the candidates at `targets`, in sweep
        order, then close the targets.  Rows whose target has left `open` are skipped.
        The anchor's rows, at most six and first, all go in one check block: a group
        search holds the whole stabilizer before it skips rows in H's orbit."""
        rows = self.block(targets)
        self.swept, self.rejected = self.swept + len(targets), self.rejected + 6 * len(targets) - len(rows)
        while len(rows):
            outside = self.open[_targets(rows)]
            self.skipped, rows = self.skipped + len(rows) - int(outside.sum()), rows[outside]
            chunk = max(self.per_check, 6) if targets[0] == 0 and not self.checks else self.per_check
            found, rows = rows[:chunk], rows[chunk:]
            self.checks += len(found)
            found = found[self.verify(found)]
            self.hits += len(found)
            yield found
        self.open[targets] = False

    def verify(self, rows: np.ndarray) -> np.ndarray:
        """Mask of the candidate rows that hold on every cell of the table; the
        leading axes outside one check block are walked one value at a time."""
        n, head = self.n, max(0, self.n - CHECK_AXES)
        moved = _IMG[rows[:, 1:]].astype(np.int32) * _WEIGHTS[-n:, None]  # (B, n, 4)
        offsets = moved[:, -1]
        for i in range(n - 2, head - 1, -1):  # the long axis last; there may be no rows
            offsets = (moved[:, i, :, None] + offsets[:, None, :]).reshape(len(rows), 4 ** (n - i))
        codes, span = _PACKED[rows[:, :1]], offsets.shape[1]
        ok = np.ones(len(rows), dtype=bool)
        for h in range(4**head):
            flat = offsets
            for i in range(head):  # the leading digits of slab h shift every offset
                flat = flat + moved[:, i, None, h >> 2 * (head - 1 - i) & 3]
            lhs = np.right_shift(codes, self.shifts[h * span:(h + 1) * span])  # theta_0(con)
            ok &= (np.take(self.src, flat) == np.bitwise_and(lhs, 3, out=lhs)).all(axis=1)
        return ok

    def matching(self) -> np.ndarray:
        """Mask of the targets whose 2-D sections have the classes of the
        constraint's sections through the anchor, axis pair by axis pair, and,
        if still open, whose (i, j, k)-cubes hold as many Klein-type
        (i, j)-sections along x_k as the anchor's.  An isotopy maps the
        (i, j)-section through the anchor onto an isotopic (i, j)-section
        through its target, and isotopy keeps the class; it maps the anchor's
        cube onto the target's, permuting x_k."""
        n, keep = self.n, np.ones(4**self.n, dtype=bool)
        mine = _klein(self.src, n)
        theirs = mine if self.con is self.src else _klein(self.con, n)
        pairs = iter(mine == theirs[:, :1])  # j ascending, then i ascending
        for j in range(1, n):  # the pairs (i, j) skip x_j: AND them without it, then into keep
            along = np.ones(4 ** (n - 1), dtype=bool)
            for i in range(j):
                view = along.reshape(4**i, 4, -1)
                view &= next(pairs).reshape(4**i, 1, -1)
            view = keep.reshape(4**j, 4, -1)
            view &= along.reshape(4**j, 1, -1)
        weights, pair, axis, lines = _cubes(n)  # cube counts, gathered at kept open targets
        counts = theirs.ravel()[lines].sum(axis=0)
        kept = np.flatnonzero(keep & self.open).astype(np.int32)
        for block in (kept[s:s + TARGET_BLOCK] for s in range(0, len(kept), TARGET_BLOCK)):
            digits = block[:, None] // _WEIGHTS[-n:] % 4
            at = (digits @ weights)[:, pair] - digits[:, axis] * (lines[1] - lines[0])
            found = sum(np.take(mine.ravel(), at + line).view(np.uint8) for line in lines)
            keep[block] = (found == counts).all(axis=1)
        return keep


def _klein(flat: np.ndarray, n: int) -> np.ndarray:
    """For each axis pair i < j, j ascending then i ascending, whether the
    (i, j)-section through each point is Klein-type: a bool row per pair over
    the other axes in flat order.

    A Latin square of order 4 is isotopic to the table of the Klein group or
    of Z4, and of its row quotients row_r o row_0^-1 (r = 1, 2, 3) three or
    one are involutions: it is Klein-type iff the first two are.  Each axis's
    lines are read once as uint16 permutation indices; row r of the
    (i, j)-section is the j-line at x_i = r."""
    out = np.empty((n * (n - 1) // 2, 4**n // 16), dtype=bool)
    rows, row_perm = iter(out), _ROW_PERM.astype(np.uint16)
    for j in range(1, n):
        t = flat.reshape(4**j, 4, -1)  # base-4 digits of a line fit in a uint8
        lines = row_perm[t[:, 0] * 64 + t[:, 1] * 16 + t[:, 2] * 4 + t[:, 3]]
        for i in range(j):
            r = lines.reshape(4**i, 4, -1)
            klein = next(rows).reshape(r[:, 0].shape)
            np.take(_INVOLUTION_QUOTIENT, r[:, 1] * np.uint16(24) + r[:, 0], out=klein)
            klein &= np.take(_INVOLUTION_QUOTIENT, r[:, 2] * np.uint16(24) + r[:, 0])
    return out


@functools.lru_cache(maxsize=None)
def _cubes(n: int) -> tuple[np.ndarray, ...]:
    """The cubes (i, j, k) at arity n, by pair i < j in _klein's order, then k:
    the weights (n, pairs) of the axes in each pair's row, and per cube its
    pair, its axis k and the flat indices (4, cubes) in _klein's output of the
    four (i, j)-sections along x_k through the anchor."""
    j, i = np.tril_indices(n, -1)  # j ascending, then i ascending
    axes = np.arange(n)
    weights = (_WEIGHTS[-n:] >> 2 * (axes < i[:, None]) + 2 * (axes < j[:, None])) \
        * (axes != i[:, None]) * (axes != j[:, None])
    pair, axis = np.nonzero(weights)
    lines = pair * 4**n // 16 + weights[pair, axis] * np.arange(ORDER)[:, None]
    return weights.T.astype(np.int32), pair, axis, lines.astype(np.int32)


def _targets(rows: np.ndarray) -> np.ndarray:
    """Flat index of each row's image of the zero anchor's argument part."""
    return _ZERO_IMG[rows[:, 1:]] @ _WEIGHTS[1 - rows.shape[1]:]


def _next_targets(open_: np.ndarray, start: int, size: int) -> np.ndarray:
    """The first `size` open targets at or after `start`, in flat order."""
    width = size
    while True:
        found = np.flatnonzero(open_[start:start + width])
        if len(found) >= size or start + width >= len(open_):
            return start + found[:size]
        width *= 4


def _autotopies(q: Quasigroup) -> tuple[_Elements, np.ndarray]:
    """The autotopies of q as sorted keys, and a bool mask of the anchor's orbit over
    the flat index, by the orbit-stabilizer search; H is held as reps * stab."""
    cand, n = _Candidates(q, q), q.arity
    orbit = np.zeros(4**n, dtype=bool)  # H's orbit of the anchor: x is in H iff its target is
    gens, reps, pruned = np.empty((0, n + 1), dtype=np.uint8), None, 0
    targets = np.r_[0, 4 ** np.arange(n)]  # the first block: the anchor and the unit targets
    start, size, pruning = 1, 1, False
    while len(targets):
        before = len(gens)
        for found in cand.sweep(targets):
            if reps is None:  # the hits at the anchor are the stabilizer, a group: H
                stab = found[_targets(found) == 0]
                orbit[0], reps = True, stab[:1]  # the identity, the first hit
                gens = stab[stab.any(axis=1)]
            while len(found := found[~orbit[_targets(found)]]):  # the first hit outside H
                gens = np.concatenate([gens, found[:1]])
                reps = _extend(reps, gens, orbit, cand.open)
        size = 1 if len(gens) > before or targets[0] == 0 else min(2 * size, TARGET_BLOCK)
        if not pruning and targets[0] and len(gens) == before:
            # Only now are the section classes worth computing: a transitive
            # group adds a generator at every block until its orbit is complete.
            pruning, unmatched = True, ~cand.matching()
            pruned = int((unmatched & cand.open).sum())
            cand.open &= ~unmatched
        if len(targets := _next_targets(cand.open, start, size)):
            start = int(targets[-1]) + 1
    skipped = cand.skipped + 6 * (4**n - cand.swept - pruned)  # the targets never swept lie in the orbit
    _log.debug("sweep: arity %d, %d candidates, %d targets pruned, %d probe survivors, "
               "%d skipped in the orbit, %d full-table checks, %d hits, %d generators, order %d",
               n, 6 * 4**n, pruned, 6 * 4**n - 6 * pruned - cand.rejected, skipped, cand.checks,
               cand.hits, len(gens), len(reps) * len(stab))
    if orbit.sum() != len(reps):
        raise AssertionError("the order is not |orbit| * |stabilizer|")
    keys = np.empty(len(stab) * len(reps), dtype=np.int64)  # H = reps * stab, keyed in place
    for s, out in zip(stab, keys.reshape(len(stab), -1)):
        out[:] = _keys(_MUL_A[reps, s])
    keys.sort()
    return _Elements(keys, n + 1), orbit


def _first_isotopy(q1: Quasigroup, q2: Quasigroup) -> np.ndarray:
    """The first row theta, in sweep order, with theta_0 * q2 = q1(theta_1 ., ...),
    or no row.  After the first target, only targets whose sections match q2's
    at the anchor are swept; the others carry no such theta."""
    cand = _Candidates(q1, q2)
    hit, start, size = np.empty((0, q1.arity + 1), dtype=np.uint8), 0, 1
    while not len(hit) and len(targets := _next_targets(cand.open, start, size)):
        hit = next((found[:1] for found in cand.sweep(targets) if len(found)), hit)
        if not start and not len(hit):
            cand.open &= cand.matching()
        start, size = int(targets[-1]) + 1, min(2 * size, TARGET_BLOCK)
    _log.debug("isotopy search: arity %d, %d candidates, %d probe survivors, %d full-table checks, "
               "%d hits", q1.arity, 6 * cand.swept, 6 * cand.swept - cand.rejected, cand.checks, len(hit))
    return hit


def _check_cap(q: Quasigroup, cap: int) -> None:
    if q.arity > cap:
        raise CapError(f"arity {q.arity} exceeds the search cap {cap}; raise the cap to force")


def _closed_form(q: Quasigroup) -> tuple[_Elements, np.ndarray, tuple] | None:
    """The autotopies of q as sorted keys, the anchor's orbit mask and their DEBUG
    record, without the search when q is linear or has one semilinear assignment;
    else None.  An autotopy phi of q.isotope(theta) is theta phi theta^-1 of q,
    slot by slot.

    Linear: q.isotope(theta) is the xor table for theta = xor_isotopy(q), and
    (alpha(x) ^ c_j)_j is an autotopy of the xor for each alpha in GL(2, 2) and
    c_0 = c_1 ^ ... ^ c_n.  These are 6 * 4^n, the most any table has (six
    candidates per target), so they are all of them, and the orbit is everything.

    One assignment (P_0, ..., P_n): an autotopy maps q's profile onto itself, so it
    keeps each P_j, and in q.isotope(theta) = 2(+u_i + c) + (+v_i + b(u)), theta
    and b from boolean_form(q) and + the xor, each of its maps is x -> 2(u + s_j) +
    (v + a_j u + t_j).  The high bits give s_0 = +s_i, the low bits
    D_s b(u) = +(a_i + a_0) u_i + (a_0 c + t_0 + +t_i).  So s ranges over V, a_0 and
    t_1, ..., t_n are free, a_i = a_0 + slope_i and t_0 = offset + a_0 c + +t_i: 2^(n+1) |V|
    autotopies, whose targets theta(2s + t) are the 2^n points over each s in V."""
    n, assignments = q.arity, semilinear_profile(q).assignments
    if len(assignments) == 3:
        terms = _conjugated(xor_isotopy(q), _AFFINE.ravel()).reshape(n + 1, 6, ORDER)
        keys = _keys_over(terms[0], terms[1:], ORDER)
        orbit = np.ones(4**n, dtype=bool)
        record = ("linear: arity %d, order %d", n, len(keys))
    elif len(assignments) == 1:
        form = boolean_form(q)
        terms = _conjugated(form.theta, _D4)
        s, slope = (x[:, None] >> np.arange(n - 1, -1, -1) & 1 for x in (form.shifts, form.slopes))
        a0, t = np.arange(2)[:, None], np.arange(2)
        first = terms[0, 4 * (s.sum(axis=1)[:, None, None] & 1) + 2 * a0
                      + (form.offsets[:, None, None] ^ a0 & form.c ^ t)]  # (|V|, a_0, +t_i)
        rest = terms[np.arange(1, n + 1)[:, None, None, None],
                     4 * s.T[:, :, None, None] + 2 * (slope.T[:, :, None, None] ^ a0) + t]
        keys = _keys_over(first.reshape(-1, 2), rest.reshape(n, -1, 2), 2)
        mask = np.zeros(2**n, dtype=bool)
        mask[form.shifts] = True
        mask = mask.reshape((2,) * n)
        for axis, perm in enumerate(form.theta.parts[1:]):  # the high bit of theta_j^-1(y)
            mask = np.take(mask, _IMG[perm.inverse().index] >> 1, axis=axis)
        orbit = mask.ravel()
        record = ("boolean: arity %d, |V| %d, order %d", n, len(form.shifts), len(keys))
    else:
        return None
    return _Elements(keys, n + 1), orbit, record


def _conjugated(theta: Isotopy, maps: np.ndarray) -> np.ndarray:
    """Slot j's key term of theta_j m theta_j^-1 for each map index m: (n + 1, len(maps))."""
    th = np.array([p.index for p in theta], dtype=np.uint8)[:, None]
    weights = 24 ** np.arange(len(th) - 1, -1, -1, dtype=np.int64)[:, None]
    return _MUL_A[th, _MUL_A[maps, _INV_A[th]]] * weights


def _keys_over(first: np.ndarray, rest: np.ndarray, radix: int) -> np.ndarray:
    """Sorted keys first[h, x_1 ^ ... ^ x_n] + rest[0][h, x_1] + ... + rest[n-1][h, x_n]
    over the rows h and the digits x_j below radix, filled in place by slot."""
    n, heads = len(rest), len(first)
    digits = np.arange(radix, dtype=np.uint8)
    keys = np.empty((heads, radix**n), dtype=np.int64)
    xor = functools.reduce(np.bitwise_xor, np.ix_(*[digits] * n)).ravel()
    np.take(first, xor, axis=1, out=keys, mode="clip")  # "raise" would buffer a copy
    for j, term in enumerate(rest):
        view = keys.reshape(heads, radix**j, radix, -1)
        view += term[:, None, :, None]
    keys = keys.ravel()
    keys.sort()
    return keys


def _split_join(q: Quasigroup) -> tuple[_Elements, np.ndarray, tuple] | None:
    """The autotopies of q as sorted keys, the anchor's orbit mask and their DEBUG
    record, as the fiber product of its split factors' groups when q splits (see the
    module docstring); else None.  The factors' groups come by _elements_of, and the
    record names the route of each from the factor's own record, which is not logged."""
    if (split := find_split(q)) is None:
        return None
    subset, inner, outer = split
    (pi, _, pi_record), (tau, _, tau_record) = _elements_of(inner), _elements_of(outer)
    orbit = np.zeros(4**q.arity, dtype=bool)
    keys = _fiber_product(pi.rows, tau.rows, subset, orbit)
    return _Elements(keys, q.arity + 1), orbit, (
        "join: arity %d, subset %s, inner %s order %d, outer %s order %d, order %d",
        q.arity, subset, _route(pi_record), len(pi), _route(tau_record), len(tau), len(keys))


def _fiber_product(inner: np.ndarray, outer: np.ndarray, subset: Sequence[int],
                   orbit: np.ndarray | None = None) -> np.ndarray:
    """Sorted keys of the isotopies theta of outer(inner(x_subset), x_rest) spliced
    from each inner row pi and each outer row tau with tau_1 = pi_0: theta_0 = tau_0,
    theta_subset = pi_1, ..., theta_rest = tau_2, ....  A key and a target are sums
    of a tau term and a pi term, so each value v of pi_0 fills one block of the
    keys by an outer sum.  `orbit`, if given, gets every theta's target marked."""
    n = inner.shape[1] + outer.shape[1] - 3
    if n > MAX_ARITY:  # 24^13 < 2^63 < 24^14: a wider key would wrap
        raise CapError(f"arity {n} exceeds the table cap {MAX_ARITY}")
    at = np.asarray(subset)
    rest = np.array([j for j in range(1, n + 1) if j not in subset], dtype=np.intp)
    weights = 24 ** np.arange(n, -1, -1, dtype=np.int64)  # slot j's key weight
    pi_keys = inner[:, 1:] @ weights[at]
    tau_keys = outer[:, 0].astype(np.int64) * weights[0] + outer[:, 2:] @ weights[rest]
    pi_at, tau_at = inner[:, 0], outer[:, 1]
    counts = np.bincount(tau_at, minlength=24) * np.bincount(pi_at, minlength=24)
    keys, start = np.empty(counts.sum(), dtype=np.int64), 0
    for v in np.flatnonzero(counts):  # no np.unique or set op: they import numpy.ma
        pi, tau = pi_at == v, tau_at == v
        block = keys[start:start + counts[v]].reshape(-1, pi.sum())
        np.add.outer(tau_keys[tau], pi_keys[pi], out=block)
        start += counts[v]
        if orbit is not None:
            pi_targets = _ZERO_IMG[inner[pi, 1:]] @ _WEIGHTS[at - n - 1]
            tau_targets = _ZERO_IMG[outer[tau, 2:]] @ _WEIGHTS[rest - n - 1]
            orbit[np.add.outer(tau_targets, pi_targets)] = True
    keys.sort()
    return keys


def _elements_of(q: Quasigroup) -> tuple[_Elements, np.ndarray, tuple | None]:
    """The autotopies of q as sorted keys, the anchor's orbit mask and the DEBUG
    record (format, *args) of the route that found them: in closed form, else as a
    join, else by the search, which logs its own record and gives None."""
    return _closed_form(q) or _split_join(q) or (*_autotopies(q), None)


def _route(record: tuple | None) -> str:
    """The name of the route a record of _elements_of comes from."""
    return record[0].split(":")[0] if record else "sweep"


@functools.lru_cache(maxsize=1)
def _sweep(q: Quasigroup) -> tuple[AutotopyGroup, np.ndarray]:
    """The group record of q and the anchor's orbit as a read-only mask over
    the flat index, by _elements_of.  The cache holds one table: its readers
    (is_transitive, zero_orbit) follow the group of the same table.  Above
    MATERIALIZE_LIMIT the record keeps no elements, so no keys outlive it."""
    elements, orbit, record = _elements_of(q)
    if record:
        _log.debug(*record)
    for a in (elements.keys, orbit):
        a.setflags(write=False)
    return _group(elements), orbit


def _group(elements: _Elements) -> AutotopyGroup:
    """Group record of sorted keys: greedy generators, and the elements in key
    order when the order is within MATERIALIZE_LIMIT."""
    keep = elements if len(elements) <= MATERIALIZE_LIMIT else None
    return AutotopyGroup(order=len(elements), generators=tuple(greedy_generators(elements)),
                         elements=keep)


def autotopy_group(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> AutotopyGroup:
    """The exact autotopy group: in closed form for linear tables and tables with one
    semilinear assignment, else as the join of a split's factors' groups, else by the
    orbit-stabilizer search over the 6 * 4^n candidates.

    Generators come from a greedy lexicographic sieve and are reproducible.
    """
    _check_cap(q, cap)
    return _sweep(q)[0]


def _orbit(q: Quasigroup, cap: int) -> np.ndarray:
    """Sorted flat indices of the zero-anchor orbit: its images under every autotopy."""
    _check_cap(q, cap)
    return np.flatnonzero(_sweep(q)[1])


def zero_orbit(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> frozenset:
    """Orbit of the zero-anchor code tuple under the autotopy group."""
    flat = _orbit(q, cap)
    tuples = np.column_stack([q.table.ravel()[flat], flat[:, None] // _WEIGHTS[-q.arity:] % ORDER])
    return frozenset(map(tuple, tuples.tolist()))


def is_transitive(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> bool:
    """True iff the autotopy group acts transitively on the code."""
    return len(_orbit(q, cap)) == ORDER**q.arity


def stabilizer(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> StabilizerWitness:
    """The stabilizer of the zero-anchor code tuple, by direct propagation."""
    _check_cap(q, cap)
    anchor = zero_anchor(q)
    zero_secs = [q.zero_section(i) for i in range(1, q.arity + 1)]
    # The anchor's argument part is all zeros: its sections are the zero sections.
    inv_secs = [z.inverse() for z in zero_secs]
    members = []
    for theta0 in PERMS_FIXING[anchor[0]][anchor[0]]:
        found = _propagate_candidate(q, q, zero_secs, inv_secs, theta0)
        if found is not None:
            members.append(found)
    members.sort(key=Isotopy.key)
    return StabilizerWitness(base_tuple=anchor, members=tuple(members))


def are_isotopic(q1: Quasigroup, q2: Quasigroup, *, cap: int = DEFAULT_CAP) -> Isotopy | None:
    """An isotopy theta with q1.isotope(theta) == q2, or None.

    The search anchors the zero tuple of q2's code and sweeps targets over
    q1's code, in the same candidate order as the group computation, and
    returns the first hit in that order.
    """
    if q1.arity != q2.arity:
        raise ArityError("cannot compare quasigroups of different arity")
    _check_cap(q1, cap)
    hits = _first_isotopy(q1, q2)
    return _isotopies(hits)[0] if len(hits) else None


# ---------------------------------------------------------------------------
# Group machinery on rows of permutation indices
# ---------------------------------------------------------------------------

def _keys(rows: np.ndarray) -> np.ndarray:
    """Base-24 int64 key of each row; key order is Isotopy.key order.  Horner's
    rule, one column at a time, so no int64 copy of the rows is made."""
    if rows.shape[1] > MAX_ARITY + 1:  # 24^13 < 2^63 < 24^14: a wider key would wrap
        raise CapError(f"arity {rows.shape[1] - 1} exceeds the table cap {MAX_ARITY}")
    keys = rows[:, 0].astype(np.int64)
    for c in range(1, rows.shape[1]):
        keys *= 24
        keys += rows[:, c]
    return keys


def _rows(keys: np.ndarray, width: int) -> np.ndarray:
    """The rows of permutation indices whose keys are `keys`: _keys' inverse."""
    return np.column_stack(np.unravel_index(keys, (24,) * width)).astype(np.uint8)


def _to_rows(isotopies) -> np.ndarray:
    return np.array([[p.index for p in t.parts] for t in isotopies], dtype=np.uint8)


def _isotopies(rows: np.ndarray) -> list[Isotopy]:
    return [Isotopy(map(PERMS.__getitem__, r)) for r in rows.tolist()]


def _extend(reps: np.ndarray, gens: np.ndarray, orbit: np.ndarray,
            open_: np.ndarray) -> np.ndarray:
    """One row per anchor target of the group generated by gens: `reps` first, one
    row per target in H's orbit, where H, generated by gens[:-1], holds the
    anchor's stabilizer S, so H = reps * S; then the new rows, whose targets it
    marks in `orbit`, H's orbit of the anchor, and clears in `open_`.  The new
    elements fill left cosets r * H; a BFS over the representatives r, from
    gens[-1] by left multiplication by gens, reaches every coset (in a finite
    group positive words suffice).  As H holds S, x lies in r * H iff x(anchor)
    lies in r(orbit_H): if x(a) = r h(a), then (r h)^-1 x fixes a.  So distinct
    left cosets have disjoint targets, r * reps meets each target of r * H once,
    a product lies in a known coset iff its target is marked, and a new coset
    meeting a marked target means H lacked part of S."""
    grown, todo = [reps], gens[-1:]
    while len(todo):
        new = []
        while len(todo := todo[~orbit[_targets(todo)]]):  # the first product in a new coset
            new.append(todo[0])
            grown.append(_MUL_A[todo[0], reps])
            at = _targets(grown[-1])
            if orbit[at].any():
                raise AssertionError("a new coset meets a marked target")
            orbit[at], open_[at] = True, False
        todo = _MUL_A[gens, np.array(new)[:, None, :]].reshape(-1, gens.shape[1]) if new else []
    return np.concatenate(grown)


def close_isotopies(gens) -> set[Isotopy]:
    """Group generated by a set of isotopies (closure under composition)."""
    rows = _to_rows(gens)
    if not len(rows):
        return set()
    known = {(0,) * rows.shape[1]}  # the identity
    frontier = list(known)
    while frontier:
        prods = _MUL_A[np.array(frontier, dtype=np.uint8)[:, None, :], rows]
        frontier = list(set(map(tuple, prods.reshape(-1, rows.shape[1]).tolist())) - known)
        known.update(frontier)
    return set(_isotopies(np.array(list(known), dtype=np.uint8)))


@functools.lru_cache(maxsize=None)
def _join(span: frozenset, p: int) -> frozenset:
    """The subgroup of S_4 generated by a subgroup and p, as Perm indices."""
    grown = span | {p}
    while (more := {_MUL[a][b] for a in grown for b in grown}) - grown:
        grown |= more
    return grown


def greedy_generators(elements) -> list[Isotopy]:
    """Greedy generating subset: each element of S (the search's _Elements, or
    isotopies or rows of permutation indices), in lexicographic order, that the
    earlier picks do not generate.  In key order, PERMS[0] = id first, the
    kernels K_i = {theta_0 = ... = theta_i = id} are a chain listed as {id},
    then layer n, ..., layer 0: the rows whose first non-identity column is i,
    with value v from key v * 24^(n-i), found by binary search.  On entering
    layer i the picks generate K_i, so a row there is generated iff theta_i
    lies in the span in S_4 of the layer's picks.  Each layer's values with id
    must be a subgroup of S_4, their orders must multiply to |S|, and S other
    than the search's closed rows must hold S * p for each pick p: then the
    picks generate a group of at least |S| elements inside S."""
    if isinstance(elements, _Elements):  # key-sorted already
        keys, width = elements.keys, elements.width
    else:
        rows = elements if isinstance(elements, np.ndarray) else _to_rows(elements)
        if not len(rows):
            return []
        keys, width = np.sort(_keys(rows)), rows.shape[1]
    if keys[0] or (keys[1:] <= keys[:-1]).any():
        raise AssertionError("element set lacks the identity or repeats an element")
    bounds = np.arange(1, 25) * 24 ** np.arange(width, dtype=np.int64)[:, None]  # v * 24^(n-i)
    picks, size = [], 1
    for starts in np.searchsorted(keys, bounds).tolist():  # layer n first; v = 24 ends a layer
        values, span = [v for v in range(1, 24) if starts[v - 1] < starts[v]], frozenset({0})
        for v in values:
            if v not in span:
                span = _join(span, v)
                picks.append(starts[v - 1])
        if span != {0, *values}:
            raise AssertionError("a layer's values are not a subgroup of S_4")
        size *= len(span)
    if size != len(keys):
        raise AssertionError("the layer orders do not multiply to the order")
    gens = _rows(keys[picks], width)
    if not isinstance(elements, _Elements):
        for p in gens:  # the keys are strictly increasing: a product is in S iff found there
            prods = _keys(_MUL_A[rows, p])
            if (keys[np.minimum(np.searchsorted(keys, prods), len(keys) - 1)] != prods).any():
                raise AssertionError("element set is not closed under composition")
    return _isotopies(gens)


def atp_join(atp_inner: AutotopyGroup, atp_outer: AutotopyGroup, m: int) -> AutotopyGroup:
    """Autotopy group of outer(inner(x_1..x_m), x_{m+1}..x_n) from the factors.

    Pairs every inner element pi with every outer element tau whose slot-1
    permutation equals pi's value permutation, splicing them into one isotopy,
    by the fiber product the join route uses.  Both inputs must be materialized.
    """
    if atp_inner.elements is None or atp_outer.elements is None:
        raise ValueError("atp_join needs materialized element lists")
    if not atp_inner.elements or (inner := _rows_of(atp_inner.elements)).shape[1] != m + 1:
        raise ArityError(f"inner group must have arity {m}")
    outer = _rows_of(atp_outer.elements)
    keys = _fiber_product(inner, outer, range(1, m + 1))
    return _group(_Elements(keys, inner.shape[1] + outer.shape[1] - 2))


def _rows_of(elements) -> np.ndarray:
    return elements.rows if isinstance(elements, _Elements) else _to_rows(elements)
