"""Semilinearity and linearity detection, with the autotopies they induce.

A quasigroup is semilinear when its table respects a splitting of {0,1,2,3}
into two pairs in every coordinate (value included).  Pairs only matter up to
complement, so each coordinate carries one of the three pair partitions
01|23, 02|13, 03|12.  The output partition forces the argument partitions
through the zero-anchored sections, so detection costs three verified scans,
each comparing the value's block with an xor of the argument blocks.

Isotopes and compositions are profiled from their factors, without a scan.
q.isotope(theta) respects (theta_0^-1 P_0, theta_1^-1 P_1, ...) iff q
respects (P_0, P_1, ...).  C = A.compose_at(B, pos), C(y, z) = A(B(y), z),
respects exactly a[:pos] + b[1:] + a[pos+1:] for a of A and b of B with
b[0] = a[pos]: if C respects c, pulling c_0 back through A(., 0) gives a P
such that B respects (P; c_y), and since B is onto, A respects (c_0; P; c_z).

A profile is kept on its table's object (`Quasigroup._profile`) and freed with it.
Threads need no lock: two that race to profile one table store equal values.

A table with one assignment is a Boolean function up to isotopy (`boolean_form`),
and a linear one is an isotope of the xor table (`xor_isotopy`): the autotopy
module reads the group of either in closed form from these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_ARITY, PERMS_FIXING, ArityError, Isotopy, Perm, Quasigroup, _lookup, is_autotopy

_PARITY = np.bitwise_xor.reduce(np.arange(2**MAX_ARITY)[:, None] >> np.arange(MAX_ARITY) & 1,
                                axis=1).astype(np.uint8)  # _PARITY[u]: the xor of u's bits


class PairPartition:
    """One of the three splittings of {0,1,2,3} into two pairs.

    Identified by the partner of 0; `mask[x]` is 0 on the pair of 0 and 1 on
    the complementary pair.  The three instances are interned.
    """

    __slots__ = ("partner", "mask", "name")

    _registry: dict[int, "PairPartition"] = {}

    def __new__(cls, partner: int) -> "PairPartition":
        partner = int(partner)
        cached = cls._registry.get(partner)
        if cached is not None:
            return cached
        if partner not in (1, 2, 3):
            raise ValueError("the partner of 0 must be 1, 2 or 3")
        self = super().__new__(cls)
        self.partner = partner
        mask = np.zeros(4, dtype=np.uint8)
        for x in range(4):
            mask[x] = 0 if x in (0, partner) else 1
        mask.setflags(write=False)
        self.mask = mask
        rest = sorted(set(range(4)) - {0, partner})
        self.name = f"0{partner}|{rest[0]}{rest[1]}"
        cls._registry[partner] = self
        return self

    @property
    def low(self) -> tuple[int, int]:
        return (0, self.partner)

    @property
    def high(self) -> tuple[int, int]:
        return tuple(x for x in range(4) if x not in (0, self.partner))

    @classmethod
    def of_pair(cls, a: int, b: int) -> "PairPartition":
        """The partition containing {a, b} as one of its pairs."""
        pair = {a, b}
        if len(pair) != 2 or not pair <= {0, 1, 2, 3}:
            raise ValueError(f"not a pair of distinct symbols: {a}, {b}")
        if 0 in pair:
            return cls(max(pair))
        return cls(min(set(range(1, 4)) - pair))

    def image_under(self, perm: Perm) -> "PairPartition":
        """The partition whose pairs are the images of this one's pairs."""
        return PairPartition.of_pair(perm(0), perm(self.partner))

    def __repr__(self) -> str:
        return f"PairPartition({self.name})"

    def __hash__(self) -> int:
        return self.partner

    def __eq__(self, other: object) -> bool:
        return self is other

    def __lt__(self, other: "PairPartition") -> bool:
        return self.partner < other.partner


PARTITIONS = (PairPartition(1), PairPartition(2), PairPartition(3))


@dataclass(frozen=True)
class SemilinearProfile:
    """All verified partition assignments (P_0, ..., P_n) of a quasigroup."""

    arity: int
    assignments: tuple[tuple[PairPartition, ...], ...]

    @property
    def is_semilinear(self) -> bool:
        return bool(self.assignments)

    @property
    def is_linear(self) -> bool:
        return len(self.assignments) == 3

    def partitions_at(self, j: int) -> frozenset[PairPartition]:
        """Partitions occurring at coordinate j (0 is the value) across assignments."""
        if not 0 <= j <= self.arity:
            raise ArityError(f"coordinate {j} out of range 0..{self.arity}")
        return frozenset(a[j] for a in self.assignments)

    def constant_partitions(self) -> frozenset[PairPartition]:
        """Partitions P whose constant assignment (P, ..., P) is valid."""
        return frozenset(a[0] for a in self.assignments if len(set(a)) == 1)

    def uniform_partition(self) -> PairPartition | None:
        """The smallest partition with a valid constant assignment, if any."""
        constant = self.constant_partitions()
        return min(constant) if constant else None


def semilinear_profile(q: Quasigroup) -> SemilinearProfile:
    """Detect every valid partition assignment by quotient verification.

    For each candidate output partition, the argument partitions are forced as
    preimages under the zero-anchored sections.  The quotient of a quasigroup
    by partitions it respects is a binary quasigroup of order 2, which is the
    xor up to a constant; so the assignment survives iff the value's block is
    c ^ block_1(x_1) ^ ... ^ block_n(x_n) everywhere, c the block of f(0,...,0).
    The profile is kept on q: later calls return the same object.

    A profile has 0, 1 or 3 assignments, never exactly 2.  The masks of any two
    partitions xor to the third's.  Let q respect two assignments A and B; as
    P_0 forces the rest, A_0 != B_0.  Xor their equations: the block of q(x) in
    the third partition C_0 is c ^ (A_1 ^ B_1)(x_1) ^ ... ^ (A_n ^ B_n)(x_n),
    the masks read at each x_i and c a constant.  If A_i = B_i at some i >= 1,
    that block does not depend on x_i, but q is a bijection in x_i and meets
    both blocks of C_0.  So A_i != B_i everywhere, each A_i ^ B_i is the mask
    of the third partition C_i at x_i, and q respects (C_0, ..., C_n) too.
    """
    if q._profile is not None:
        return q._profile
    n = q.arity
    zero_secs = [q.zero_section(i) for i in range(1, n + 1)]
    found = []
    for p0 in PARTITIONS:
        assignment = [p0] + [p0.image_under(sec.inverse()) for sec in zero_secs]
        expected = p0.mask[q.table[(0,) * n]]  # grown from the last axis, in flat order
        for p in reversed(assignment[1:]):
            expected = (p.mask[:, None] ^ expected).ravel()
        if np.array_equal(_lookup(p0.mask, q.table).ravel(), expected):
            found.append(tuple(assignment))
    return _store(q, found)


def _store(q: Quasigroup, assignments) -> SemilinearProfile:
    """Keep q's profile on q, its assignments ordered by P_0 as a scan finds them."""
    q._profile = profile = SemilinearProfile(arity=q.arity, assignments=tuple(sorted(assignments)))
    return profile


def _isotope(q: Quasigroup, theta: Isotopy) -> Quasigroup:
    """q.isotope(theta), its profile derived from q's without a scan."""
    image, inverses = q.isotope(theta), [p.inverse() for p in theta]
    _store(image, [tuple(part.image_under(t) for part, t in zip(a, inverses))
                   for a in semilinear_profile(q).assignments])
    return image


def _compose_at(outer: Quasigroup, inner: Quasigroup, pos: int) -> Quasigroup:
    """outer.compose_at(inner, pos), its profile derived from theirs without a scan."""
    composed = outer.compose_at(inner, pos)
    inner_at = {b[0]: b[1:] for b in semilinear_profile(inner).assignments}
    _store(composed, [a[:pos] + inner_at[a[pos]] + a[pos + 1:]
                      for a in semilinear_profile(outer).assignments if a[pos] in inner_at])
    return composed


def is_semilinear(q: Quasigroup) -> bool:
    return semilinear_profile(q).is_semilinear


def is_semilinear_in_pair(q: Quasigroup, j: int, partition: PairPartition) -> bool:
    """True iff some valid assignment uses `partition` at coordinate j."""
    return partition in semilinear_profile(q).partitions_at(j)


def is_linear(q: Quasigroup) -> bool:
    """True iff every pair partition yields a valid assignment."""
    return semilinear_profile(q).is_linear


@dataclass(frozen=True, eq=False)
class BooleanForm:
    """A table q with exactly one assignment (P_0, ..., P_n) as a Boolean function b.

    theta_j fixes 0 and maps the pair {0, 1} onto P_j's pair of 0, so
    q.isotope(theta) respects 01|23 in every coordinate.  With x_i = 2u_i + v_i
    it reads 2(u_1 ^ ... ^ u_n ^ c) + (v_1 ^ ... ^ v_n ^ b(u)): its quotient by
    01|23 is the xor up to the constant c, and for fixed u the low bits form an
    n-ary quasigroup of order 2, the xor up to the constant b(u).

    `shifts` is V = {s : D_s b affine}, a subspace, where D_s b(u) = b(u ^ s) ^ b(u)
    = slopes[k] . u ^ offsets[k] for s = shifts[k].  A vector of bits is read as
    an integer with coordinate 1 most significant, as b is indexed."""

    theta: Isotopy
    c: int
    shifts: np.ndarray
    slopes: np.ndarray
    offsets: np.ndarray


def boolean_form(q: Quasigroup) -> BooleanForm:
    """q's Boolean form; q's profile must have exactly one assignment.

    b(u) and c are read on the 2^n cells x = theta(2u), where v = 0, and V on
    all 2^n derivatives of b, in blocks of at most 2^16 values: D_s b is affine
    iff it equals D_s b(0) ^ lambda . u with lambda_i = D_s b(e_i) ^ D_s b(0)."""
    (assignment,) = semilinear_profile(q).assignments
    n = q.arity
    theta = Isotopy(Perm([0, p.partner, *p.high]) for p in assignment)
    corner = q.table[np.ix_(*[np.array([0, p.high[0]]) for p in assignment[1:]])]
    values = _lookup(theta[0].inverse().images, corner).ravel()
    b, u = values & 1, np.arange(2**n)
    units = 1 << np.arange(n - 1, -1, -1)  # e_1, ..., e_n
    step, found = max(1, 2**16 >> n), []
    for s in (u[k:k + step] for k in range(0, 2**n, step)):
        d = b[s[:, None] ^ u] ^ b  # d[., u] = D_s b(u)
        slopes = (d[:, units] ^ d[:, :1]) @ units
        affine = (d == d[:, :1] ^ _PARITY[slopes[:, None] & u]).all(axis=1)
        found.append((s[affine], slopes[affine], d[affine, 0]))
    shifts, slopes, offsets = map(np.concatenate, zip(*found))
    return BooleanForm(theta, int(values[0] >> 1), shifts, slopes, offsets)


def xor_isotopy(q: Quasigroup) -> Isotopy:
    """For a linear q, the theta with q.isotope(theta) the xor table x_1 ^ ... ^ x_n.

    theta_0 is the first permutation mapping 0 to q(0, ..., 0), and theta_i =
    z_i^-1 theta_0 for q's zero section z_i.  So q.isotope(theta) is 0 at the
    anchor, its zero sections are the identity, and its profile, moved from q's,
    has three assignments: each is then (P, ..., P), the zero sections forcing
    the argument partitions.  Under 01|23 and 02|13 the blocks are the high and
    the low bit, so both bits of the value are the xors of the arguments' bits."""
    theta0 = PERMS_FIXING[0][q(*(0,) * q.arity)][0]
    return Isotopy([theta0] + [q.zero_section(i).inverse() * theta0 for i in range(1, q.arity + 1)])


@dataclass(frozen=True)
class NativeElements:
    """The distinguished permutations of a {0,a}-semilinear nonlinear quasigroup."""

    pair: tuple[int, int]
    involution: Perm
    transpositions: tuple[Perm, Perm]
    cycles: tuple[Perm, Perm]
    foreign_involutions: tuple[Perm, Perm]


def native_elements(pair) -> NativeElements:
    """Native involution/transpositions/cycles for the pair {0, a}.

    The pair must contain 0 (the canonical representative of its partition).
    Accepts a PairPartition, a partner symbol, or a pair of distinct symbols.
    """
    if isinstance(pair, PairPartition):
        a = pair.partner
    elif isinstance(pair, bool):  # bool is an int
        raise ValueError(f"not a symbol: {pair}")
    elif isinstance(pair, int):
        a = pair
    else:
        pair = tuple(pair)
        if len(pair) != 2 or 0 not in pair:
            raise ValueError(f"the canonical pair must be two symbols, one of them 0: {pair}")
        a = PairPartition.of_pair(*pair).partner
    if a not in (1, 2, 3):
        raise ValueError("the partner of 0 must be 1, 2 or 3")
    b, c = sorted(set(range(1, 4)) - {a})
    involution = Perm.from_cycles((0, a), (b, c))
    transpositions = (Perm.from_cycles((0, a)), Perm.from_cycles((b, c)))
    cycles = (Perm.from_cycles((0, b, a, c)), Perm.from_cycles((0, c, a, b)))
    foreign = (Perm.from_cycles((0, b), (c, a)), Perm.from_cycles((0, c), (a, b)))
    return NativeElements(
        pair=(0, a),
        involution=involution,
        transpositions=transpositions,
        cycles=cycles,
        foreign_involutions=foreign,
    )


def low_cube_closed(q: Quasigroup, partition: PairPartition) -> bool:
    """True iff f maps the cube {0,a}^n into the pair {0,a} (not its complement)."""
    lows = np.array(partition.low, dtype=np.intp)
    sub = q.table[np.ix_(*([lows] * q.arity))]
    return bool(np.all(partition.mask[sub] == 0))


def canonical_semilinear_autotopies(q: Quasigroup) -> list[Isotopy]:
    """The involution-pair and transposition autotopies of a {0,a}-semilinear q.

    Emits the C(n+1, 2) isotopies carrying the native involution in two slots,
    plus one all-transposition isotopy: all (bc) when f({0,a}^n) = {0,a},
    otherwise (0a) in the value slot and (bc) elsewhere.  Every returned
    isotopy is re-verified against the table.
    """
    profile = semilinear_profile(q)
    partition = profile.uniform_partition()
    if partition is None:
        raise ValueError("quasigroup is not uniformly {0,a}-semilinear")
    native = native_elements(partition)
    n = q.arity
    out = []
    identity = Isotopy.identity(n).parts
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            parts = list(identity)
            parts[i] = native.involution
            parts[j] = native.involution
            out.append(Isotopy(parts))
    t0a, tbc = native.transpositions
    if low_cube_closed(q, partition):
        out.append(Isotopy((tbc,) * (n + 1)))
    else:
        out.append(Isotopy((t0a,) + (tbc,) * n))
    for theta in out:
        if not is_autotopy(q, theta):
            raise AssertionError(f"canonical isotopy {theta} failed verification")
    return out
