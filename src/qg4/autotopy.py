"""Exact autotopy groups via anchored propagation over the code.

A candidate (target code tuple, value permutation theta_0) forces at most one
isotopy through the sections at the all-zero anchor and at the target.  The
sweep holds all 6 * 4^n candidates as uint8 rows of permutation indices, in
blocks of targets: one index-arithmetic pass builds a block's sections, a few
fixed probe cells reject most wrong candidates, and every survivor is checked
on the whole table, so exactly the autotopies remain.  The same search between
two quasigroups decides isotopy at its first hit.  Closure and greedy
generators run on the same rows, keyed as base-24 integers.
"""

from __future__ import annotations

import bisect
import functools
import logging
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_ARITY,
    ORDER,
    PERMS,
    PERMS_FIXING,
    _INV,
    _MUL,
    ArityError,
    CapError,
    Isotopy,
    Perm,
    Quasigroup,
)

DEFAULT_CAP = 6
MATERIALIZE_LIMIT = 2**20
TARGET_BLOCK = 1024  # targets per candidate block, six candidates each
PROBE_CELLS = 16
CHECK_AXES = 8  # a full-table check block spans 4^8 = 2^16 cells of the trailing axes

_log = logging.getLogger("qg4")

# The 24 permutations as arrays, indexed by Perm.index.
_IMG = np.array([p.images for p in PERMS], dtype=np.uint8)
_MUL_A = np.array(_MUL, dtype=np.uint8)
_INV_A = np.array(_INV, dtype=np.uint8)
_FIXING = np.array([[[p.index for p in w] for w in v] for v in PERMS_FIXING], np.uint8)
_ROW_W = np.array([64, 16, 4, 1])  # an image row read as a base-4 number
_ROW_PERM = np.zeros(256, dtype=np.uint8)
_ROW_PERM[_IMG @ _ROW_W] = np.arange(len(PERMS))
_WEIGHTS = 4 ** np.arange(MAX_ARITY - 1, -1, -1, dtype=np.int32)  # flat-index weights
_KEY_W = 24 ** np.arange(MAX_ARITY, -1, -1, dtype=np.int64)  # base-24 row keys


@dataclass(frozen=True)
class AutotopyGroup:
    """Exact autotopy group: order, a greedy generating set, optional elements."""

    order: int
    generators: tuple[Isotopy, ...]
    elements: tuple[Isotopy, ...] | None

    def __contains__(self, theta: Isotopy) -> bool:
        if self.elements is None:
            raise ValueError("group elements are not materialized")
        # elements are sorted by Isotopy.key
        i = bisect.bisect_left(self.elements, theta.key(), key=Isotopy.key)
        return i < len(self.elements) and self.elements[i] == theta


@dataclass(frozen=True)
class StabilizerWitness:
    """The autotopies fixing one code tuple coordinate-wise."""

    base_tuple: tuple[int, ...]
    members: tuple[Isotopy, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def is_autotopy(q: Quasigroup, theta: Isotopy) -> bool:
    """True iff theta_0 f(x) = f(theta_1 x_1, ..., theta_n x_n) everywhere."""
    if theta.arity != q.arity:
        raise ArityError("isotopy arity does not match quasigroup arity")
    lhs = theta[0].arr[q.table]
    rhs = q.table[np.ix_(*(p.arr for p in theta.parts[1:]))]
    return np.array_equal(lhs, rhs)


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
    rhs = source.table[np.ix_(*(p.arr for p in parts[1:]))]
    if not np.array_equal(theta0.arr[constraint.table], rhs):
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
    out = np.empty((len(cells), n), dtype=np.uint8)
    for i in range(n):
        w = 4 ** (n - 1 - i)
        base = cells - (cells // w % 4) * w
        out[:, i] = _ROW_PERM[flat[base[:, None] + w * np.arange(ORDER)] @ _ROW_W]
    return out


def _verify(src: np.ndarray, con: np.ndarray, n: int, rows: np.ndarray) -> np.ndarray:
    """Mask of the candidate rows that hold on every cell of the table; the
    leading axes outside one check block are walked one value at a time."""
    head = max(0, n - CHECK_AXES)
    moved = _IMG[rows[:, 1:]].astype(np.int32) * _WEIGHTS[-n:, None]  # (B, n, 4)
    offsets = moved[:, head]
    for i in range(head + 1, n):
        offsets = (offsets[:, :, None] + moved[:, i, None, :]).reshape(len(rows), -1)
    theta0, span = rows[:, :1].astype(np.int32) * ORDER, offsets.shape[1]
    ok = np.ones(len(rows), dtype=bool)
    for h in range(4**head):
        flat = offsets
        for i in range(head):  # the leading digits of slab h shift every offset
            flat = flat + moved[:, i, None, h >> 2 * (head - 1 - i) & 3]
        lhs = np.take(_IMG, theta0 + con[h * span:(h + 1) * span])
        ok &= (np.take(src, flat) == lhs).all(axis=1)
    return ok


def _search(source: Quasigroup, constraint: Quasigroup, *, find_all: bool) -> np.ndarray:
    """Rows of the isotopies with theta_0 * constraint = source(theta_1 ., ...),
    the autotopies when source == constraint, in sweep order: target flat index,
    then theta_0 in lexicographic order.  find_all=False stops at the first."""
    n = source.arity
    if constraint.arity != n:
        raise ArityError("arity mismatch")
    src, con = source.table.ravel(), constraint.table.ravel()
    con_zero = _sections(con, n, np.zeros(1, dtype=np.intp))[0]
    # Probe cells spread over every axis by Fibonacci hashing; per axis, each
    # permutation's flat-index term at each cell.
    cells = np.array([(k * 0x9E3779B97F4A7C15 % 2**64) >> (64 - 2 * n)
                      for k in range(1, PROBE_CELLS + 1)])
    probe = [_IMG[:, cells // w % 4].astype(np.int32) * w for w in _WEIGHTS[-n:]]
    probe_lhs = _IMG[:, con[cells]]
    per_check = 4 ** max(0, CHECK_AXES - n)  # candidates per check block
    candidates = survivors = checks = 0
    hits = [np.empty((0, n + 1), dtype=np.uint8)]
    lo, size = 0, TARGET_BLOCK if find_all else 1  # a first-hit search widens its blocks
    while lo < src.size:
        targets = np.arange(lo, min(lo + size, src.size))
        lo, size = lo + size, min(2 * size, TARGET_BLOCK)
        theta0 = _FIXING[con[0]][src[targets]]
        rows = np.empty((len(targets), 6, n + 1), dtype=np.uint8)
        rows[:, :, 0] = theta0
        inv = _INV_A[_sections(src, n, targets)]
        rows[:, :, 1:] = _MUL_A[_MUL_A[inv[:, None, :], theta0[:, :, None]], con_zero]
        rows = rows.reshape(-1, n + 1)
        flat = sum(axis[rows[:, i]] for i, axis in enumerate(probe, 1))
        rows = rows[(np.take(src, flat) == probe_lhs[rows[:, 0]]).all(axis=1)]
        candidates, survivors = candidates + 6 * len(targets), survivors + len(rows)
        for s in range(0, len(rows), per_check):
            block = rows[s:s + per_check]
            checks += len(block)
            hits.append(block[_verify(src, con, n, block)])
            if len(hits[-1]) and not find_all:
                break
        if len(hits[-1]) and not find_all:
            break
    out = np.concatenate(hits)[: None if find_all else 1]
    _log.debug("sweep: arity %d, %d candidates, %d probe survivors, "
               "%d full-table checks, %d hits", n, candidates, survivors, checks, len(out))
    return out


def _check_cap(q: Quasigroup, cap: int) -> None:
    if q.arity > cap:
        raise CapError(f"arity {q.arity} exceeds the search cap {cap}; raise the cap to force")


@functools.lru_cache(maxsize=32)
def _sweep(q: Quasigroup) -> np.ndarray:
    """The autotopies of q as read-only rows, in sweep order."""
    rows = _search(q, q, find_all=True)
    rows.setflags(write=False)
    return rows


def _group(rows: np.ndarray) -> AutotopyGroup:
    """Group record of a closed element set: lexicographic elements, greedy
    generators, elements kept when the order is within MATERIALIZE_LIMIT."""
    rows = rows[np.argsort(_keys(rows))]
    gens = tuple(greedy_generators(rows))
    keep = tuple(_isotopies(rows)) if len(rows) <= MATERIALIZE_LIMIT else None
    return AutotopyGroup(order=len(rows), generators=gens, elements=keep)


def autotopy_group(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> AutotopyGroup:
    """The exact autotopy group, by exhausting all 6 * 4^n candidates.

    Generators come from a greedy lexicographic sieve and are reproducible.
    """
    _check_cap(q, cap)
    return _group(_sweep(q))


def _orbit(q: Quasigroup, cap: int) -> np.ndarray:
    """Sorted keys of the zero-anchor orbit: its images under every autotopy."""
    _check_cap(q, cap)
    return np.unique(_keys(_IMG[_sweep(q), np.array(zero_anchor(q))]))


def zero_orbit(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> frozenset:
    """Orbit of the zero-anchor code tuple under the autotopy group."""
    return frozenset(map(tuple, _rows(_orbit(q, cap), q.arity + 1).tolist()))


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
    hits = _search(q1, q2, find_all=False)
    return _isotopies(hits)[0] if len(hits) else None


# ---------------------------------------------------------------------------
# Group machinery on rows of permutation indices, keyed as base-24 integers
# ---------------------------------------------------------------------------

def _keys(rows: np.ndarray) -> np.ndarray:
    """Base-24 int64 key of each row; key order is Isotopy.key order."""
    return rows.astype(np.int64) @ _KEY_W[-rows.shape[1]:]


def _rows(keys: np.ndarray, width: int) -> np.ndarray:
    return (keys[:, None] // _KEY_W[-width:] % 24).astype(np.uint8)


def _to_rows(isotopies) -> np.ndarray:
    return np.array([[p.index for p in t.parts] for t in isotopies], dtype=np.uint8)


def _isotopies(rows: np.ndarray) -> list[Isotopy]:
    return [Isotopy(map(PERMS.__getitem__, r)) for r in rows.tolist()]


def _close(gens: np.ndarray, known: np.ndarray, frontier: np.ndarray,
           limit: int | None = None) -> np.ndarray:
    """Sorted keys of the closure of `known` under right multiplication by gens,
    where only the `frontier` part of `known` may have products outside it.  In
    a finite group the positive words over the generators already form the group."""
    width = gens.shape[1]
    while len(frontier):
        prods = _MUL_A[_rows(frontier, width)[:, None, :], gens]
        frontier = np.setdiff1d(_keys(prods.reshape(-1, width)), known)
        known = np.union1d(known, frontier)
        if limit is not None and len(known) > limit:
            raise CapError(f"closure exceeded {limit} elements")
    return known


def close_isotopies(gens, *, limit: int | None = None) -> set[Isotopy]:
    """Group generated by a set of isotopies (closure under composition)."""
    rows = _to_rows(gens)
    if not len(rows):
        return set()
    identity = np.zeros(1, dtype=np.int64)
    return set(_isotopies(_rows(_close(rows, identity, identity, limit), rows.shape[1])))


def greedy_generators(elements) -> list[Isotopy]:
    """Greedy generating subset, scanning elements (isotopies, or rows of
    permutation indices) in lexicographic order.  Each generator g taken
    extends the known subgroup by a BFS from the coset known * g."""
    rows = elements if isinstance(elements, np.ndarray) else _to_rows(elements)
    if not len(rows):
        return []
    keys, width = np.sort(_keys(rows)), rows.shape[1]
    known, gens = np.zeros(1, dtype=np.int64), rows[:0]  # the identity; no generators
    while not (member := np.isin(keys, known)).all():
        g = _rows(keys[[np.argmin(member)]], width)  # the first element not yet known
        gens = np.concatenate([gens, g])
        coset = np.unique(_keys(_MUL_A[_rows(known, width), g]))
        try:
            known = _close(gens, np.union1d(known, coset), coset, limit=len(keys))
        except CapError:
            break
    if not np.array_equal(known, keys):
        raise AssertionError("element set is not closed under composition")
    return _isotopies(gens)


def atp_join(atp_inner: AutotopyGroup, atp_outer: AutotopyGroup, m: int) -> AutotopyGroup:
    """Autotopy group of outer(inner(x_1..x_m), x_{m+1}..x_n) from the factors.

    Pairs every inner element pi with every outer element tau whose slot-1
    permutation equals pi's value permutation, splicing them into one isotopy.
    Both inputs must be materialized.
    """
    if atp_inner.elements is None or atp_outer.elements is None:
        raise ValueError("atp_join needs materialized element lists")
    if not atp_inner.elements or atp_inner.elements[0].arity != m:
        raise ArityError(f"inner group must have arity {m}")
    inner, outer = _to_rows(atp_inner.elements), _to_rows(atp_outer.elements)
    joined = []
    for v in range(len(PERMS)):
        pi, tau = inner[inner[:, 0] == v], outer[outer[:, 1] == v]
        pi, tau = np.repeat(pi, len(tau), axis=0), np.tile(tau, (len(pi), 1))
        joined.append(np.concatenate([tau[:, :1], pi[:, 1:], tau[:, 2:]], axis=1))
    return _group(np.concatenate(joined))
