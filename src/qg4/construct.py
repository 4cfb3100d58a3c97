"""Builders: the classical binary tables, linear families, chains, Construction T."""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .core import (
    MAX_ARITY,
    ORDER,
    PERMS,
    ArityError,
    CapError,
    Isotopy,
    Perm,
    Quasigroup,
)
from .decompose import Leaf, Node, Tree, tree_eval
from .semilinear import PairPartition

# The two binary quasigroups every order-4 square is isotopic to, in
# lexicographic argument order (row = first argument).
XOR2_DIGITS = "0123103223013210"
Z4_DIGITS = "0123123023013012"


def xor2() -> Quasigroup:
    """Bitwise xor on {0..3}: the elementary abelian group of order 4."""
    return Quasigroup.from_digits(2, XOR2_DIGITS)


def z4() -> Quasigroup:
    """Addition modulo 4."""
    return Quasigroup.from_digits(2, Z4_DIGITS)


def g3() -> Quasigroup:
    """The ternary mixed composition x1 xor (x2 + x3 mod 4)."""
    return xor2().compose_at(z4(), 2)


def h3() -> Quasigroup:
    """The ternary sum x1 + x2 + x3 modulo 4."""
    return z4().compose_at(z4(), 1)


_BUILTINS = {"xor2": xor2, "z4": z4, "g3": g3, "h3": h3}


def builtin(name: str) -> Quasigroup:
    """One of the named base tables: xor2, z4, g3, h3."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; choose from {sorted(_BUILTINS)}")


def linear(n: int) -> Quasigroup:
    """The n-fold xor x_1 ^ ... ^ x_n."""
    if n < 1:
        raise ArityError("arity must be positive")
    if n > MAX_ARITY:
        raise CapError(f"arity {n} exceeds the table cap {MAX_ARITY}")
    grids = np.indices((ORDER,) * n, dtype=np.uint8)
    acc = grids[0]
    for g in grids[1:]:
        acc = acc ^ g
    return Quasigroup(acc, _trusted=True)


def shifted_linear(n: int) -> Quasigroup:
    """The n-fold xor with outputs on the {0,2}^n subcube shifted by xor 2.

    The smallest semilinear-but-not-linear family; its autotopy group has
    order 2^(n+1) for n >= 3.
    """
    if n < 2:
        raise ArityError("arity must be at least 2")
    table = np.array(linear(n).table)
    evens = np.array([0, 2], dtype=np.intp)
    sub = np.ix_(*([evens] * n))
    table[sub] ^= 2
    return Quasigroup(table)


def semilinear_from_boolean(b) -> Quasigroup:
    """The table 2(u_1 ^ ... ^ u_n) + (v_1 ^ ... ^ v_n ^ b(u)) with x_i = 2u_i + v_i.

    `b` lists the 2^n bits b(u), u_1 most significant.  The table is linear(n)
    with its low bit flipped where b(u) = 1.  It is Latin for every b: changing
    an argument's high bit changes the value's high bit, and changing only its
    low bit changes only the value's low bit.  It respects 01|23 in every
    coordinate."""
    b = np.asarray(b, dtype=np.uint8)
    n = len(b).bit_length() - 1
    if n < 1 or len(b) != 2**n or b.max() > 1:
        raise ValueError("b must list 2^n bits for some n >= 1")
    if n > MAX_ARITY:
        raise CapError(f"arity {n} exceeds the table cap {MAX_ARITY}")
    flips = b.reshape((2,) * n)
    for axis in range(n):  # b(u) on both cells 2u_i and 2u_i + 1 of each axis
        flips = flips.repeat(2, axis=axis)
    return Quasigroup(linear(n).table ^ flips, _trusted=True)


def conjugate_uniform(q: Quasigroup, tau: Perm) -> Quasigroup:
    """Relabel all coordinates by the same permutation: tau^-1 f(tau x_1, ...)."""
    return q.isotope(Isotopy.uniform(tau, q.arity))


_TAU12 = Perm.from_cycles((1, 2))


def _chain_blocks(n: int) -> list[Quasigroup]:
    """Innermost-to-outermost labels of the straight chain of arity n."""
    if n < 5:
        raise ArityError("chains start at arity 5")
    low = shifted_linear(3)               # respects 02|13 everywhere
    high = conjugate_uniform(low, _TAU12)  # respects 01|23 everywhere
    if n % 2 == 1:
        blocks = [low]
        count = (n - 1) // 2 - 1
    else:
        blocks = [shifted_linear(4)]
        count = n // 2 - 2
    for k in range(count):
        blocks.append(high if k % 2 == 0 else low)
    return blocks


def chain(n: int) -> Quasigroup:
    """The straight alternating composition attaining the lower bound.

    Odd n: ternary blocks alternating between the 02|13 and 01|23 classes,
    innermost first; even n: the same with a 4-ary innermost block.  The
    autotopy order is 2^((n-1)/2+2) for odd n and 2^(n/2+2) for even n.
    """
    if n > MAX_ARITY:  # before tree_eval recurses down a chain_tree of any depth
        raise CapError(f"arity {n} exceeds the table cap {MAX_ARITY}")
    return tree_eval(chain_tree(n))


def chain_tree(n: int) -> Tree:
    """The decomposition tree whose evaluation is chain(n)."""
    blocks = _chain_blocks(n)
    tree: Tree = Node(blocks[0], tuple(Leaf(i) for i in range(1, blocks[0].arity + 1)))
    var = blocks[0].arity + 1
    for label in blocks[1:]:
        tree = Node(label, (tree, Leaf(var), Leaf(var + 1)))
        var += 2
    return tree


# ---------------------------------------------------------------------------
# Construction T
# ---------------------------------------------------------------------------

def partition_stabilizer(partition: PairPartition) -> tuple[Perm, ...]:
    """The eight permutations preserving a pair partition (as a partition)."""
    low = set(partition.low)
    return tuple(
        p for p in PERMS if {p(x) for x in low} in (low, set(partition.high)))


@dataclass(frozen=True)
class ConstructionTSpec:
    """Free choices of the minimal-autotopy-group tree construction.

    The skeleton has (n-1)/2 nodes of degree at most 3; each degree-3 node
    (the ones adjacent to exactly one leaf after leaf attachment) may be split
    into a bridge/bald pair in one of three ways.  Remaining choices pick the
    bipartition orientation, a class-preserving twist per label, and which
    leaf carries the value.  Unset label twists and output leaf are derived
    from the seed (identity twists and leaf 0 when no seed is given).
    """

    node_count: int
    skeleton_edges: tuple[tuple[int, int], ...]
    splits: tuple[tuple[int, int], ...] = ()
    bipartition_flip: bool = False
    label_twists: tuple[tuple[int, ...], ...] | None = None
    output_leaf: int | None = None
    seed: int | None = None

    @property
    def arity(self) -> int:
        return 2 * self.node_count + 1

    @classmethod
    def random(cls, n: int, seed: int) -> "ConstructionTSpec":
        """Sample skeleton, splits and flip from the seed; defer the rest."""
        if n < 3 or n % 2 == 0:
            raise ArityError("the construction produces odd arities n >= 3")
        k = (n - 1) // 2
        rng = random.Random(f"skeleton:{seed}")
        degree = [0] * k
        edges = []
        for i in range(1, k):
            options = [j for j in range(i) if degree[j] < 3]
            j = rng.choice(options)
            degree[j] += 1
            degree[i] += 1
            edges.append((j, i))
        eligible = [i for i in range(k) if degree[i] == 3]
        splits = tuple(
            (i, rng.randint(1, 3)) for i in eligible if rng.random() < 0.5)
        return cls(
            node_count=k,
            skeleton_edges=tuple(edges),
            splits=splits,
            bipartition_flip=bool(rng.getrandbits(1)),
            label_twists=None,
            output_leaf=None,
            seed=seed,
        )


def _validate_skeleton(spec: ConstructionTSpec) -> list[list[int]]:
    k = spec.node_count
    if k < 1:
        raise ValueError("the skeleton needs at least one node")
    if len(spec.skeleton_edges) != k - 1:
        raise ValueError("a tree on k nodes has k-1 edges")
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in spec.skeleton_edges:
        if not (0 <= a < k and 0 <= b < k and a != b):
            raise ValueError(f"bad skeleton edge ({a}, {b})")
        adj[a].append(b)
        adj[b].append(a)
    if any(len(nb) > 3 for nb in adj):
        raise ValueError("skeleton degrees must not exceed 3")
    seen = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != k:
        raise ValueError("skeleton is not connected")
    return adj


def construction_t(spec: ConstructionTSpec) -> tuple[Tree, Quasigroup]:
    """Build a reduced decomposition tree meeting the minimality conditions.

    Nodes of the final tree have degree 3 or 4 and are labeled with twisted
    copies of the mod-4 addition or the shifted xor, 01|23-flavored on one
    side of the bipartition and 02|13-flavored on the other.  For odd
    n >= 5 the represented quasigroup attains the minimal autotopy order
    2^((n+3)/2) exactly.
    """
    skeleton_adj = _validate_skeleton(spec)
    k = spec.node_count

    # Adjacency over ('n', id) / ('l', id) entities; neighbor order is the
    # construction order and fixes child order after rooting.
    adj: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for i in range(k):
        adj[("n", i)] = [("n", j) for j in sorted(skeleton_adj[i])]
    leaf_count = 0
    for i in range(k):
        for _ in range(4 - len(skeleton_adj[i])):
            leaf = ("l", leaf_count)
            leaf_count += 1
            adj[("n", i)].append(leaf)
            adj[leaf] = [("n", i)]

    next_node = k
    split_targets = dict(spec.splits)
    if len(split_targets) != len(spec.splits):
        raise ValueError("duplicate split node")
    for s, choice in sorted(split_targets.items()):
        key = ("n", s)
        node_nbrs = [x for x in adj[key] if x[0] == "n"]
        leaves = [x for x in adj[key] if x[0] == "l"]
        if len(leaves) != 1 or len(node_nbrs) != 3:
            raise ValueError(f"node {s} is not eligible for a split")
        if choice not in (1, 2, 3):
            raise ValueError("split choice must be 1, 2 or 3")
        companion = node_nbrs[choice - 1]
        others = [x for x in node_nbrs if x != companion]
        bridge = ("n", next_node)
        next_node += 1
        adj[bridge] = [companion, leaves[0], key]
        adj[key] = others + [bridge]
        for moved in (companion, leaves[0]):
            adj[moved] = [bridge if x == key else x for x in adj[moved]]

    node_keys = [x for x in adj if x[0] == "n"]
    color: dict[tuple[str, int], int] = {node_keys[0]: 0}
    frontier = [node_keys[0]]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y[0] == "n" and y not in color:
                color[y] = 1 - color[x]
                frontier.append(y)

    rng = random.Random(f"labels:{spec.seed}") if spec.seed is not None else None
    labels: dict[tuple[str, int], Quasigroup] = {}
    twists = dict(spec.label_twists or ())
    for key in sorted(node_keys, key=lambda x: x[1]):
        degree = len(adj[key])
        partner = 1 if (color[key] == 0) != spec.bipartition_flip else 2
        base = z4() if degree == 3 else shifted_linear(3)
        if partner == 1:
            base = conjugate_uniform(base, _TAU12)
        stab = partition_stabilizer(PairPartition(partner))
        if key[1] in twists:
            parts = tuple(PERMS[i] for i in twists[key[1]])
            if len(parts) != degree or any(p not in stab for p in parts):
                raise ValueError(f"twist for node {key[1]} does not preserve its class")
        elif rng is not None:
            parts = tuple(rng.choice(stab) for _ in range(degree))
        else:
            parts = (PERMS[0],) * degree
        labels[key] = base.isotope(Isotopy(parts))

    if spec.output_leaf is not None:
        out_leaf = spec.output_leaf
    elif rng is not None:
        out_leaf = rng.randrange(leaf_count)
    else:
        out_leaf = 0
    if not 0 <= out_leaf < leaf_count:
        raise ValueError(f"output leaf {out_leaf} out of range")

    next_var = [1]

    def build(key: tuple[str, int], parent: tuple[str, int]) -> Tree:
        if key[0] == "l":
            var = next_var[0]
            next_var[0] += 1
            return Leaf(var)
        children = tuple(build(nb, key) for nb in adj[key] if nb != parent)
        return Node(labels[key], children)

    root_key = adj[("l", out_leaf)][0]
    tree = build(root_key, ("l", out_leaf))
    q = tree_eval(tree)
    if q.arity != spec.arity:
        raise AssertionError("construction produced the wrong arity")
    return tree, q


# ---------------------------------------------------------------------------
# Corpus helpers
# ---------------------------------------------------------------------------

def all_binary_quasigroups():
    """All 576 binary quasigroups of order 4 (Latin squares), lexicographically."""
    rows = [p.images for p in PERMS]

    def extend(chosen: list[tuple[int, ...]]):
        if len(chosen) == ORDER:
            yield Quasigroup(np.array(chosen, dtype=np.uint8))
            return
        for row in rows:
            if all(all(row[c] != prev[c] for c in range(ORDER)) for prev in chosen):
                yield from extend(chosen + [row])

    yield from extend([])


def random_isotopy(arity: int, rng: random.Random) -> Isotopy:
    return Isotopy(tuple(PERMS[rng.randrange(len(PERMS))] for _ in range(arity + 1)))


def random_semilinear_composition(arity: int, seed: int) -> Quasigroup:
    """A random repetition-free composition of semilinear blocks, isotoped.

    Blocks are drawn from the binary/ternary/4-ary base families; the result
    is Latin by construction and reducible whenever at least two blocks occur.
    """
    if arity < 2:
        raise ArityError("arity must be at least 2")
    rng = random.Random(f"composition:{seed}")
    bases = {
        2: [xor2, z4],
        3: [lambda: linear(3), lambda: shifted_linear(3), g3, h3],
        4: [lambda: linear(4), lambda: shifted_linear(4)],
    }

    def block(k: int) -> Quasigroup:
        q = rng.choice(bases[k])()
        return q.isotope(random_isotopy(k, rng))

    start = rng.randint(2, min(4, arity))
    q = block(start)
    while q.arity < arity:
        k = rng.randint(2, min(4, arity - q.arity + 1))
        piece = block(k)
        if rng.getrandbits(1):
            q = piece.compose_at(q, rng.randint(1, piece.arity))
        else:
            q = q.compose_at(piece, rng.randint(1, q.arity))
    return q.isotope(random_isotopy(arity, rng))
