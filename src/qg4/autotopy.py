"""Exact autotopy groups via anchored propagation over the code.

The search space for a group computation is the 6 * 4^n candidates
(target code tuple, value permutation): a candidate determines at most one
isotopy through one-dimensional sections anchored at the all-zero argument
tuple, and a full-table verification keeps exactly the autotopies.  The same
propagation, run between two quasigroups, decides isotopy.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import (
    ORDER,
    PERMS,
    PERMS_FIXING,
    _MUL,
    ArityError,
    CapError,
    Isotopy,
    Perm,
    Quasigroup,
)

DEFAULT_CAP = 6
MATERIALIZE_LIMIT = 2**20


@dataclass(frozen=True)
class AutotopyGroup:
    """Exact autotopy group: order, a greedy generating set, optional elements."""

    order: int
    generators: tuple[Isotopy, ...]
    elements: tuple[Isotopy, ...] | None

    def __contains__(self, theta: Isotopy) -> bool:
        if self.elements is None:
            raise ValueError("group elements are not materialized")
        return theta in set(self.elements)


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


def _propagate_candidate(
    source: Quasigroup,
    constraint: Quasigroup,
    zero_secs: list[Perm],
    inv_target_secs: list[Perm],
    theta0: Perm,
    probe=None,
) -> Isotopy | None:
    """Build the unique isotopy candidate and verify it on the full table.

    Solves theta_0 * constraint = source(theta_1 ., ..., theta_n .): the i-th
    permutation is forced to inv_target_sec_i o theta_0 o zero_sec_i, where
    zero_sec_i runs through the constraint at the zero anchor and
    inv_target_sec_i inverts the source section through the target tuple.
    `probe`, when given, is a cheap necessary check run before the full scan.
    """
    parts = [theta0]
    for z, s_inv in zip(zero_secs, inv_target_secs):
        parts.append(s_inv * theta0 * z)
    if probe is not None and not probe(parts):
        return None
    rhs = source.table[np.ix_(*(p.arr for p in parts[1:]))]
    if not np.array_equal(theta0.arr[constraint.table], rhs):
        return None
    return Isotopy(parts)


def _inverse_sections(q: Quasigroup, target: tuple[int, ...]) -> list[Perm]:
    """Inverses of the n sections of q through the argument part of `target`."""
    b = target[1:]
    return [q.section(i, b[: i - 1] + b[i:]).inverse() for i in range(1, q.arity + 1)]


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
    return _propagate_candidate(q, q, zero_secs, _inverse_sections(q, target), theta0)


def _search(
    source: Quasigroup, constraint: Quasigroup, *, find_all: bool
) -> tuple[list[Isotopy], set[tuple[int, ...]]]:
    """Sweep all (target, theta_0) candidates; return hits and their targets.

    Hits are isotopies with theta_0 * constraint = source composed with the
    argument permutations; for source == constraint these are the autotopies.
    With find_all=False the sweep stops at the first hit.
    """
    n = source.arity
    if constraint.arity != n:
        raise ArityError("arity mismatch")
    zero_secs = [constraint.zero_section(i) for i in range(1, n + 1)]
    c0 = constraint(*((0,) * n))

    # Probe cells (x_1, x_2, 0, ..., 0): the two-argument face through the
    # anchor rejects almost every wrong candidate before the full scan.
    src_flat = source.table.ravel()
    con_face = constraint.table[(slice(None), slice(None)) + (0,) * (n - 2)] \
        if n >= 3 else None
    probe_cells = [(x1, x2) for x1 in range(1, 4) for x2 in range(1, 4)]

    hits: list[Isotopy] = []
    hit_targets: set[tuple[int, ...]] = set()
    for target in source.code_tuples():
        b0, b = target[0], target[1:]
        inv_secs = _inverse_sections(source, target)
        probe = None
        if n >= 3:
            tail = 0
            for j in range(2, n):
                tail = tail * 4 + int(b[j])

            def probe(parts, _tail=tail):
                im0 = parts[0].images
                im1 = parts[1].images
                im2 = parts[2].images
                for x1, x2 in probe_cells:
                    flat = ((im1[x1] * 4 + im2[x2]) * 4 ** (n - 2)) + _tail
                    if im0[con_face[x1, x2]] != src_flat[flat]:
                        return False
                return True

        for theta0 in PERMS_FIXING[c0][b0]:
            found = _propagate_candidate(
                source, constraint, zero_secs, inv_secs, theta0, probe)
            if found is not None:
                hits.append(found)
                hit_targets.add(target)
                if not find_all:
                    return hits, hit_targets
    return hits, hit_targets


def _check_cap(q: Quasigroup, cap: int) -> None:
    if q.arity > cap:
        raise CapError(
            f"arity {q.arity} exceeds the search cap {cap}; raise the cap to force")


@functools.lru_cache(maxsize=32)
def _sweep(q: Quasigroup) -> tuple[tuple[Isotopy, ...], frozenset]:
    elements, orbit = _search(q, q, find_all=True)
    return tuple(elements), frozenset(orbit)


def _group(elements) -> AutotopyGroup:
    """Group record of a closed element set: lexicographic elements, greedy
    generators, elements kept when the order is within MATERIALIZE_LIMIT."""
    ordered = tuple(sorted(elements, key=Isotopy.key))
    gens = tuple(greedy_generators(ordered))
    keep = ordered if len(ordered) <= MATERIALIZE_LIMIT else None
    return AutotopyGroup(order=len(ordered), generators=gens, elements=keep)


def autotopy_group(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> AutotopyGroup:
    """The exact autotopy group, by exhausting all 6 * 4^n candidates.

    Generators come from a greedy lexicographic sieve and are reproducible.
    """
    _check_cap(q, cap)
    elements, _ = _sweep(q)
    return _group(elements)


def zero_orbit(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> frozenset:
    """Orbit of the zero-anchor code tuple under the autotopy group."""
    _check_cap(q, cap)
    _, orbit = _sweep(q)
    return orbit


def is_transitive(q: Quasigroup, *, cap: int = DEFAULT_CAP) -> bool:
    """True iff the autotopy group acts transitively on the code."""
    return len(zero_orbit(q, cap=cap)) == ORDER**q.arity


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


def are_isotopic(
    q1: Quasigroup, q2: Quasigroup, *, cap: int = DEFAULT_CAP
) -> Isotopy | None:
    """An isotopy theta with q1.isotope(theta) == q2, or None.

    The search anchors the zero tuple of q2's code and sweeps targets over
    q1's code, in the same candidate order as the group computation.
    """
    if q1.arity != q2.arity:
        raise ArityError("cannot compare quasigroups of different arity")
    _check_cap(q1, cap)
    hits, _ = _search(q1, q2, find_all=False)
    return hits[0] if hits else None


# ---------------------------------------------------------------------------
# Group machinery on materialized element sets
# ---------------------------------------------------------------------------

def _mulclose_idx(gens_idx: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Subgroup generated by index-encoded isotopies, by right-multiplication BFS.

    In a finite group the words of positive length over the generators already
    form the generated subgroup, so no explicit inverses are needed.
    """
    width = len(gens_idx[0])
    identity = (0,) * width
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in gens_idx:
                y = tuple(_MUL[a][b] for a, b in zip(x, g))
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def _to_idx(theta: Isotopy) -> tuple[int, ...]:
    return tuple(p.index for p in theta.parts)


def _from_idx(idx: tuple[int, ...]) -> Isotopy:
    return Isotopy(PERMS[i] for i in idx)


def close_isotopies(gens, *, limit: int | None = None) -> set[Isotopy]:
    """Group generated by a set of isotopies (closure under composition)."""
    gens = list(gens)
    if not gens:
        return set()
    closed = _mulclose_idx([_to_idx(g) for g in gens])
    if limit is not None and len(closed) > limit:
        raise CapError(f"closure exceeded {limit} elements")
    return {_from_idx(i) for i in closed}


def greedy_generators(elements) -> list[Isotopy]:
    """Greedy generating subset, scanning elements in lexicographic order."""
    ordered = sorted(elements, key=Isotopy.key)
    if not ordered:
        return []
    width = ordered[0].arity + 1
    known: set[tuple[int, ...]] = {(0,) * width}
    gens_idx: list[tuple[int, ...]] = []
    for e in ordered:
        idx = _to_idx(e)
        if idx not in known:
            gens_idx.append(idx)
            known = _mulclose_idx(gens_idx)
    if len(known) != len(ordered):
        raise AssertionError("element set is not closed under composition")
    return [_from_idx(i) for i in gens_idx]


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
    by_slot1: dict[Perm, list[Isotopy]] = {}
    for tau in atp_outer.elements:
        by_slot1.setdefault(tau[1], []).append(tau)
    joined = []
    for pi in atp_inner.elements:
        for tau in by_slot1.get(pi[0], ()):
            joined.append(Isotopy((tau[0],) + pi.parts[1:] + tau.parts[2:]))
    return _group(joined)
