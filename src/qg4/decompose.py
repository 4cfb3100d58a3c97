"""Decomposition trees: splitting, merging, reduction and bunch statistics.

A repetition-free composition is stored as a rooted tree whose internal nodes
carry quasigroup labels (arity = child count) and whose leaves carry the
variable indices 1..n.  The root's value slot plays the role of the extra
leaf x_0 in the unrooted view used by the counting machinery, so every node
of arity k has degree k+1 there.  Splits are found probe first: every
argument subset of one size is tested at a few cells at once, and only the
survivors are checked on the whole table.

A table read by `qg4 decompose` is not Latin-checked up front: its
decomposition certifies it.  A split that passes the full check gives
q(a, r) = outer(inner(a), r) on every cell, and a composition of
quasigroups is a quasigroup, so q is Latin iff every final label is, and
those are checked when the recursion ends.  A Latin q has Latin factors (they
are restrictions of q), so it gets the same tree as on the eager route.  The
first failed full check on a table not yet certified Latin-checks it, which
bounds the failure path; any failure ends in the eager check of the input.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .core import (
    ORDER,
    ArityError,
    FormatError,
    IDENTITY,
    PERMS,
    Isotopy,
    Perm,
    Quasigroup,
    _lookup,
    _require_latin,
    _splitmix,
    is_autotopy,
)
from .semilinear import (
    PairPartition,
    _compose_at,
    _isotope,
    native_elements,
    semilinear_profile,
    xor_isotopy,
)

SPLIT_POINTS = 64  # probe points per subset, at most (sampled beyond 4^3)
SPLIT_COMPLETIONS = 8  # fixed completions of the other arguments
_log = logging.getLogger("qg4")


@dataclass(frozen=True)
class Leaf:
    """A variable leaf; `var` is the 1-based argument index."""

    var: int


@dataclass(frozen=True)
class Node:
    """An internal node: a quasigroup label applied to ordered children."""

    label: Quasigroup
    children: tuple["Tree", ...]


Tree = Union[Node, Leaf]

EdgeKey = tuple[str, int]  # ('leaf', var) or ('node', child_node_id)


# ---------------------------------------------------------------------------
# Tree plumbing
# ---------------------------------------------------------------------------

def leaf_vars(t: Tree) -> list[int]:
    """Leaf variable indices in traversal (depth-first, left-to-right) order."""
    if isinstance(t, Leaf):
        return [t.var]
    out: list[int] = []
    for child in t.children:
        out.extend(leaf_vars(child))
    return out


def validate_tree(t: Tree) -> int:
    """Check leaf indices form a permutation of 1..n and arities match; return n."""
    if isinstance(t, Leaf):
        raise FormatError("a decomposition tree must have at least one node")
    vars_seen = leaf_vars(t)
    n = len(vars_seen)
    if sorted(vars_seen) != list(range(1, n + 1)):
        raise FormatError(f"leaf indices {sorted(vars_seen)} are not 1..{n}")
    for node, _path in iter_nodes(t):
        if node.label.arity != len(node.children):
            raise FormatError("node label arity does not match its child count")
        if node.label.arity < 2:
            raise FormatError("internal nodes must have arity at least 2")
    return n


def iter_nodes(t: Tree, path: tuple[int, ...] = ()) -> Iterator[tuple[Node, tuple[int, ...]]]:
    """All internal nodes with their root paths, in preorder."""
    if isinstance(t, Node):
        yield t, path
        for k, child in enumerate(t.children):
            yield from iter_nodes(child, path + (k,))


def node_at(t: Tree, path: tuple[int, ...]) -> Node:
    cur = t
    for k in path:
        if not isinstance(cur, Node):
            raise ValueError(f"path {path} leaves the tree")
        cur = cur.children[k]
    if not isinstance(cur, Node):
        raise ValueError(f"path {path} points at a leaf")
    return cur


def _replace_at(t: Tree, path: tuple[int, ...], sub: Tree) -> Tree:
    if not path:
        return sub
    assert isinstance(t, Node)
    k = path[0]
    children = list(t.children)
    children[k] = _replace_at(children[k], path[1:], sub)
    return Node(t.label, tuple(children))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _permute_args(q: Quasigroup, var_order: list[int]) -> Quasigroup:
    """Reorder arguments so axis v-1 receives variable v.

    `var_order[k]` is the variable currently read by q's (k+1)-th argument.
    """
    if var_order == sorted(var_order):
        return q
    axes = [var_order.index(v) for v in range(1, q.arity + 1)]
    return Quasigroup(np.transpose(q.table, axes), _trusted=True)


def _eval_node(node: Node) -> tuple[Quasigroup, list[int]]:
    q = node.label
    vars_seen: list[int] = []
    pos = 1
    for child in node.children:
        if isinstance(child, Leaf):
            vars_seen.append(child.var)
            pos += 1
        else:
            cq, cvars = _eval_node(child)
            q = q.compose_at(cq, pos)
            vars_seen.extend(cvars)
            pos += cq.arity
    return q, vars_seen


def tree_eval(t: Tree) -> Quasigroup:
    """The quasigroup a decomposition tree represents."""
    validate_tree(t)
    q, vars_seen = _eval_node(t)
    return _permute_args(q, vars_seen)


# ---------------------------------------------------------------------------
# Splitting into repetition-free factors
# ---------------------------------------------------------------------------

def _try_split(q: Quasigroup, subset: tuple[int, ...]):
    """Factor q as outer(inner(x_subset), x_rest), or None.

    The congruence test: anchoring x_rest at zero defines the candidate inner
    value; the subset splits iff arguments with equal inner values give equal
    q values over every completion of the rest.
    """
    n = q.arity
    axes_a = [a - 1 for a in subset]
    axes_rest = [k for k in range(n) if k + 1 not in subset]
    m = len(subset)
    flat = np.transpose(q.table, axes_a + axes_rest).reshape(ORDER**m, -1)
    inner_vals = flat[:, 0]
    reps = []
    for v in range(ORDER):
        members = flat[inner_vals == v]
        if not len(members) or not (members == members[0]).all():  # empty: q is not Latin
            return None
        reps.append(int(np.argmax(inner_vals == v)))
    # Trusted if q is (else _decompose checks them): q(a, r) = outer(inner(a), r)
    # on every cell.  On a line of inner, q(., r) is injective, so inner is too
    # and takes all four values, where outer(., r) meets q's four.  outer's other
    # lines are q's.
    inner = Quasigroup(inner_vals.reshape((ORDER,) * m), _trusted=True)
    outer = Quasigroup(flat[reps].reshape((ORDER,) * (n - m + 1)), _trusted=True)
    return inner, outer


@functools.lru_cache(maxsize=32)
def _split_probe(n: int, m: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The size-m subsets at arity n and their probe cells (subsets, completions,
    points): the other arguments at zero, then at SPLIT_COMPLETIONS fixed values."""
    subsets = list(itertools.combinations(range(1, n + 1), m))
    weights = ORDER ** (n - np.array(subsets))  # (subsets, m)
    points = np.arange(ORDER**m) if ORDER**m <= SPLIT_POINTS else _splitmix(SPLIT_POINTS, 2 * m)
    inside = (points[:, None] >> 2 * np.arange(m - 1, -1, -1) & 3) @ weights.T  # (points, subsets)
    rest = np.append(0, _splitmix(SPLIT_COMPLETIONS, 2 * n))[:, None]
    rest = rest - (rest[..., None] // weights % ORDER * weights).sum(axis=2)  # subset digits cut out
    return subsets, (rest.T[:, :, None] + inside.T[:, None, :]).astype(np.int32)


def find_split(q: Quasigroup, *, _missed=None):
    """Smallest-then-lexicographic argument subset splitting q, or None.

    Returns (subset, inner, outer) with q = outer(inner(x_subset), x_rest),
    both parts reading their arguments in increasing index order and the
    inner value feeding outer's first argument.

    Probe first: if the subset splits, q(a, r) = sigma_r(q(a, 0)) for every
    completion r of the other arguments.  All subsets of one size are probed
    at once at a few fixed r, and only those where q(a, r) is a function of
    q(a, 0) get the full check, in lexicographic order.  `_missed`, if given,
    is called after each full check that fails.

    The verdict is kept on q (`Quasigroup._split`), as a profile is: a later
    call returns it, the same factor objects included, with no search and no
    record.  Threads need no lock, as two that race store equal verdicts.
    """
    if q._split is not None:
        return q._split or None
    n, found, probed, survivors, checks = q.arity, None, 0, 0, 0
    for size in range(2, n):
        subsets, cells = _split_probe(n, size)
        values = q.table.ravel()[cells].astype(np.uint16)
        # one bit per (value at 0, value at r) pair seen; a function sets at
        # most one bit in each nibble, the pairs with one value at 0
        seen = np.bitwise_or.reduce(1 << (4 * values[:, :1] + values[:, 1:]), axis=2)
        nibbles = seen[..., None] >> np.arange(0, 16, 4, dtype=np.uint16) & 15
        passed = np.flatnonzero(((nibbles & (nibbles - 1)) == 0).all(axis=(1, 2)))
        probed, survivors = probed + len(subsets), survivors + len(passed)
        for i in passed:
            checks += 1
            if (got := _try_split(q, subsets[i])) is not None:
                found = subsets[i], *got
                break
            if _missed is not None:
                _missed()
        if found:
            break
    _log.debug("split: arity %d, %d subsets probed, %d probe survivors, %d full checks, "
               "subset %s", n, probed, survivors, checks, found and found[0])
    q._split = found or ()
    return found


def _decompose(q: Quasigroup, latin: bool, args: tuple[Tree, ...]) -> Tree:
    """q's tree, its k-th argument read by the subtree args[k-1]: one node over args,
    or for q = outer(inner(x_S), x_rest), outer's over (inner's over args[S], *args[rest])."""
    def certify() -> None:  # at most once per table: it bounds the failure path
        nonlocal latin
        if not latin:
            _require_latin(q.table)
            latin = True

    split = find_split(q, _missed=certify)
    if split is None:
        certify()
        return Node(q, args)
    subset, inner, outer = split
    inner_tree = _decompose(inner, latin, tuple(args[i - 1] for i in subset))
    rest = (a for i, a in enumerate(args, start=1) if i not in subset)
    return _decompose(outer, latin, (inner_tree, *rest))


def full_decomposition(q: Quasigroup, *, _latin: bool = True) -> Tree:
    """Split recursively until every label is irreducible.

    `_latin=False` takes a q not yet known to be Latin and certifies it
    through the splits (see the module docstring).  Any failure then runs the
    eager check on q, which raises LatinError unless q is Latin; if it is, the
    failure is re-raised."""
    try:
        if q.arity < 2:
            raise ArityError("decomposition needs arity at least 2")
        return _decompose(q, _latin, tuple(Leaf(i) for i in range(1, q.arity + 1)))
    except Exception:
        if not _latin:
            _require_latin(q.table)
        raise


# ---------------------------------------------------------------------------
# Coherence, merging, proper and reduced decompositions
# ---------------------------------------------------------------------------

def _adjacent_node_pair(t: Tree, parent_path: tuple[int, ...], child_index: int):
    parent = node_at(t, parent_path)
    if not 0 <= child_index < len(parent.children):
        raise ValueError(f"child index {child_index} out of range")
    child = parent.children[child_index]
    if not isinstance(child, Node):
        raise ValueError("the selected child is a leaf, not a node")
    return parent, child


def _coherent(parent: Node, k: int) -> bool:
    """Whether parent and its node child k share a pair partition across their edge."""
    at_parent = semilinear_profile(parent.label).partitions_at(k + 1)
    return bool(at_parent & semilinear_profile(parent.children[k].label).partitions_at(0))


def are_coherent(t: Tree, parent_path: tuple[int, ...], child_index: int) -> bool:
    """True iff the labels share a pair partition across the connecting edge."""
    return _coherent(_adjacent_node_pair(t, parent_path, child_index)[0], child_index)


def merge_nodes(t: Tree, parent_path: tuple[int, ...], child_index: int) -> Tree:
    """Replace an adjacent node pair by one node with the composed label."""
    parent, child = _adjacent_node_pair(t, parent_path, child_index)
    label = _compose_at(parent.label, child.label, child_index + 1)
    children = (parent.children[:child_index] + child.children
                + parent.children[child_index + 1:])
    return _replace_at(t, parent_path, Node(label, children))


def proper_decomposition(q: Quasigroup, *, _latin: bool = True) -> Tree:
    """Merge coherent pairs of the full decomposition until none remain."""
    return merge_coherent(full_decomposition(q, _latin=_latin))


def merge_coherent(t: Tree) -> Tree:
    """Merge coherent adjacent pairs until none remain, in one top-down pass.

    Each node tests its children left to right, merges a coherent one and
    tests the same index again; then the pass recurses into the children.
    These are the merges of a breadth-first search restarted after every
    merge, in the same order at each node: a merged label's assignments are
    a[:pos] + b[1:] + a[pos+1:] (`_compose_at`), so each of its partition
    sets is a subset of the parent's, and no pair above it, or earlier at its
    node, becomes coherent.  Merges in disjoint subtrees do not interact.
    """
    if isinstance(t, Leaf):
        return t
    k = 0
    while k < len(t.children):
        if isinstance(t.children[k], Node) and _coherent(t, k):
            t = merge_nodes(t, (), k)
        else:
            k += 1
    return Node(t.label, tuple(merge_coherent(c) for c in t.children))


def is_proper(t: Tree) -> bool:
    """Semilinear labels and no coherent adjacent pair."""
    nodes = [node for node, _ in iter_nodes(t)]
    return (all(semilinear_profile(node.label).is_semilinear for node in nodes)
            and not any(_coherent(node, k) for node in nodes
                        for k, child in enumerate(node.children) if isinstance(child, Node)))


def is_reduced(t: Tree) -> bool:
    """Proper, and every label respects the 01|23 or 02|13 partition uniformly."""
    return is_proper(t) and all(
        any(p.partner in (1, 2) for p in semilinear_profile(node.label).constant_partitions())
        for node, _ in iter_nodes(t))


def _slot_partner(label: Quasigroup, slot: int, target: PairPartition) -> int:
    """Partner of 0 at a slot, preferring the color target when it is valid."""
    options = semilinear_profile(label).partitions_at(slot)
    if not options:
        raise ValueError("label is not semilinear; reduce needs a proper tree")
    if target in options:
        return target.partner
    if len(options) > 1:
        raise ValueError("ambiguous partition at a nonlinear label slot")
    return next(iter(options)).partner


def reduce_decomposition(t: Tree) -> tuple[Tree, Isotopy]:
    """Make every label 01|23- or 02|13-semilinear according to depth parity.

    Even-depth nodes end up respecting 01|23 and odd-depth nodes 02|13.  The
    returned isotopy theta satisfies tree_eval(t).isotope(theta) == the new
    tree's value, per the edge-isotopy action on decompositions.  One top-down
    pass sets each node's edge permutations from its side and moves its label.
    """
    n = validate_tree(t)
    if not is_proper(t):
        raise ValueError("reduce_decomposition needs a proper tree")
    leaves: dict[int, Perm] = {}  # variable -> the permutation on its leaf edge; x_0 is 0

    def leaf(var: int, label: Quasigroup, slot: int, here: PairPartition) -> Perm:
        a = _slot_partner(label, slot, here)
        leaves[var] = IDENTITY if a == here.partner else Perm.from_cycles((here.partner, a))
        return leaves[var]

    def down(node: Node, depth: int, above: Perm) -> Node:
        """node moved by the permutations on its edges, `above` on its parent edge."""
        here, theta = PairPartition(1 + depth % 2), [above]  # 01|23 at even depth, 02|13 at odd
        for slot, child in enumerate(node.children, 1):
            if isinstance(child, Leaf):
                theta.append(leaf(child.var, node.label, slot, here))
            else:  # the edge to a child is the child's slot 0
                a = _slot_partner(node.label, slot, here)
                b = _slot_partner(child.label, 0, PairPartition(2 - depth % 2))
                a1, a2 = (a, b) if here.partner == 1 else (b, a)
                theta.append(Perm([0, a1, a2, 6 - a1 - a2]))
        label = _isotope(node.label, Isotopy(theta))
        return Node(label, tuple(c if isinstance(c, Leaf) else down(c, depth + 1, p)
                                 for c, p in zip(node.children, theta[1:])))

    if all(isinstance(c, Leaf) for c in t.children) and semilinear_profile(t.label).is_linear:
        # A lone linear label goes straight to the xor table by the search's first
        # isotopy onto it: all six theta_0 at the anchor hit, and xor's zero sections
        # are the identity.  The slot permutations spread onto the leaf edges by variable.
        theta = xor_isotopy(t.label)
        leaves.update(zip([0] + leaf_vars(t), theta))
        reduced = Node(_isotope(t.label, theta), t.children)
        if not np.array_equal(reduced.label.table, functools.reduce(
                np.bitwise_xor, np.ix_(*[np.arange(ORDER, dtype=np.uint8)] * n))):
            raise AssertionError("a linear label did not normalize to the xor table")
    else:
        reduced = down(t, 0, leaf(0, t.label, 0, PairPartition(1)))
    return reduced, Isotopy(leaves[j] for j in range(n + 1))


# ---------------------------------------------------------------------------
# Unrooted structure and bunch statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _NodeInfo:
    label: Quasigroup
    depth: int
    parent: int | None
    slots: tuple[EdgeKey, ...]  # slot 0 faces the parent (or x_0)


class _Structure:
    """Unrooted view of a validated tree, nodes numbered in preorder.

    Each slot holds the key of its edge: ("leaf", v) for the leaf x_v, and
    ("node", u) for the edge between node u and its parent, so slot 0 of a
    non-root node u holds ("node", u) and slot 0 of the root ("leaf", 0).
    """

    def __init__(self, t: Tree):
        self.arity = validate_tree(t)
        self.infos: list[_NodeInfo] = []
        self.leaf_at: dict[int, tuple[int, int]] = {}  # var -> (node, slot)
        self._walk(t, 0, None)

    def _walk(self, sub: Node, depth: int, parent: int | None) -> int:
        u = len(self.infos)
        self.infos.append(None)  # reserve the id; children get later ids
        slots: list[EdgeKey] = [("leaf", 0) if parent is None else ("node", u)]
        for child in sub.children:
            if isinstance(child, Leaf):
                slots.append(("leaf", child.var))
            else:
                slots.append(("node", self._walk(child, depth + 1, u)))
        for slot, (kind, ref) in enumerate(slots):
            if kind == "leaf":
                self.leaf_at[ref] = (u, slot)
        self.infos[u] = _NodeInfo(sub.label, depth, parent, tuple(slots))
        return u

    def degree(self, u: int) -> int:
        return len(self.infos[u].slots)

    def leaf_count(self, u: int) -> int:
        return sum(1 for kind, _ in self.infos[u].slots if kind == "leaf")

    def node_neighbors(self, u: int) -> list[int]:
        info = self.infos[u]
        return [info.parent if ref == u else ref
                for kind, ref in info.slots if kind == "node"]

    def node_path(self, a: int, b: int) -> list[int]:
        """Nodes on the unique tree path from node a to node b, inclusive."""
        up_a, up_b = [a], [b]
        x, y = a, b
        while self.infos[x].depth > self.infos[y].depth:
            x = self.infos[x].parent
            up_a.append(x)
        while self.infos[y].depth > self.infos[x].depth:
            y = self.infos[y].parent
            up_b.append(y)
        while x != y:
            x = self.infos[x].parent
            y = self.infos[y].parent
            up_a.append(x)
            up_b.append(y)
        return up_a + up_b[-2::-1]


@dataclass(frozen=True)
class TreeStats:
    """Counts of the unrooted tree driving the structural lower bound."""

    n_leaves: int
    n_nodes: int
    n_bald: int
    n_bridges: int
    n_forks: int
    n_bunches: int
    n_bald_bunches: int
    bunch_members: tuple[frozenset[int], ...]

    @property
    def structural_exponent(self) -> int:
        return (self.n_leaves - self.n_nodes + self.n_bridges
                + self.n_bald_bunches + self.n_forks)


def _bunches(struct: _Structure) -> list[frozenset[int]]:
    """Components of the graph joining the two node-neighbors of each bridge."""
    parent = list(range(len(struct.infos)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u in range(len(struct.infos)):
        if struct.degree(u) == 3 and struct.leaf_count(u) == 1:
            a, b = struct.node_neighbors(u)
            parent[find(a)] = find(b)
    groups: dict[int, set[int]] = {}
    for u in range(len(struct.infos)):
        groups.setdefault(find(u), set()).add(u)
    members = [frozenset(g) for g in groups.values()]
    members.sort(key=min)
    return members


def _stats(struct: _Structure) -> TreeStats:
    n_nodes = len(struct.infos)
    n_bald = sum(1 for u in range(n_nodes) if struct.leaf_count(u) == 0)
    n_bridges = 0
    n_forks = 0
    for u in range(n_nodes):
        if struct.degree(u) == 3:
            leaves_here = struct.leaf_count(u)
            if leaves_here == 1:
                n_bridges += 1
            elif leaves_here == 2:
                n_forks += 1
    members = _bunches(struct)
    bald_bunches = 0
    for group in members:
        if all(struct.leaf_count(u) == 0 for u in group):
            bald_bunches += 1
    return TreeStats(
        n_leaves=struct.arity + 1,
        n_nodes=n_nodes,
        n_bald=n_bald,
        n_bridges=n_bridges,
        n_forks=n_forks,
        n_bunches=len(members),
        n_bald_bunches=bald_bunches,
        bunch_members=tuple(members),
    )


def tree_stats(t: Tree) -> TreeStats:
    """Leaf/node/bald/bridge/fork/bunch counts on the unrooted view."""
    return _stats(_Structure(t))


def lower_bound_predict(stats: TreeStats) -> int:
    """Order of the structural subgroup guaranteed by the bunch machinery."""
    return 2**stats.structural_exponent


def floor_lower_bound(n: int) -> int:
    """The closed-form bound holding for every quasigroup of arity n."""
    return 2 ** (n // 2 + 2)


# ---------------------------------------------------------------------------
# Structural autotopies of a reduced decomposition
# ---------------------------------------------------------------------------

@dataclass
class EdgeIsotopy:
    """A permutation per tree edge; identity on edges left unlisted.

    `origin` tags structural generators with the bunch that induced them:
    ("bunch-path", bunch, x, y) for leaf-pair involutions and
    ("fork-cycles", bunch, node_id) for fork cycle pairs.
    """

    arity: int
    perms: dict[EdgeKey, Perm]
    origin: tuple | None = None

    def perm_at(self, key: EdgeKey) -> Perm:
        return self.perms.get(key, IDENTITY)

    def flatten(self) -> Isotopy:
        """Restriction to the leaf edges: an isotopy of the represented quasigroup."""
        return Isotopy(self.perm_at(("leaf", j)) for j in range(self.arity + 1))


def _node_isotopy(info: _NodeInfo, perms: dict[EdgeKey, Perm]) -> Isotopy:
    return Isotopy(perms.get(key, IDENTITY) for key in info.slots)


def _fixes_labels(struct: _Structure, perms: dict[EdgeKey, Perm]) -> bool:
    """Every node's label is fixed; the identity fixes any label, so it is not checked."""
    return all(is_autotopy(info.label, theta) for info in struct.infos
               if not (theta := _node_isotopy(info, perms)).is_identity)


def _bunch_partition(struct: _Structure, members: frozenset[int]) -> PairPartition:
    """The common pair partition of a bunch's labels in a reduced tree."""
    rep = struct.infos[min(members)]
    constant = semilinear_profile(rep.label).constant_partitions()
    preferred = PairPartition(1 if rep.depth % 2 == 0 else 2)
    if preferred in constant:
        return preferred
    low = [p for p in constant if p.partner in (1, 2)]
    if not low:
        raise ValueError("tree is not reduced: a label lacks a 01|23 or 02|13 partition")
    return low[0]


def _bridge_leaf_transposition(
    info: _NodeInfo, path_keys: set[EdgeKey], xi: Perm
) -> tuple[EdgeKey, Perm]:
    """The native transposition completing (xi, xi) to an autotopy of a bridge."""
    leaf_keys = [key for key in info.slots if key[0] == "leaf"]
    assert len(leaf_keys) == 1, "a path node outside the bunch must be a bridge"
    partition = semilinear_profile(info.label).uniform_partition()
    assert partition is not None
    hits = []
    for tau in native_elements(partition).transpositions:
        trial = {k: xi for k in info.slots if k in path_keys}
        trial[leaf_keys[0]] = tau
        if is_autotopy(info.label, _node_isotopy(info, trial)):
            hits.append(tau)
    if len(hits) != 1:
        raise AssertionError("exactly one native transposition must complete a bridge")
    return leaf_keys[0], hits[0]


def _leaf_path_edges(struct: _Structure, x: int, y: int):
    """Edge keys and interior nodes of the leaf-to-leaf path."""
    ux, _ = struct.leaf_at[x]
    uy, _ = struct.leaf_at[y]
    nodes = struct.node_path(ux, uy)
    keys = [("leaf", x)]
    for a, b in zip(nodes, nodes[1:]):
        child = a if struct.infos[a].parent == b else b
        keys.append(("node", child))
    keys.append(("leaf", y))
    return keys, nodes


def structural_autotopies(t: Tree) -> list[EdgeIsotopy]:
    """Bunch path involutions and fork cycles of a reduced decomposition.

    For every non-bald bunch with leaves x < y_1 < ... the generators pair x
    with each y_i: the path between them carries the bunch's native
    involution and each crossed bridge contributes one native transposition
    on its leaf edge.  Every fork contributes its two native-cycle
    autotopies.  All outputs are verified node by node.
    """
    if not is_reduced(t):
        raise ValueError("structural autotopies need a reduced tree")
    struct = _Structure(t)
    members = _bunches(struct)
    member_bunch: dict[int, int] = {}
    for b, group in enumerate(members):
        for u in group:
            member_bunch[u] = b

    out: list[EdgeIsotopy] = []
    for b, group in enumerate(members):
        leaves = sorted(
            v for v, (u, _s) in struct.leaf_at.items() if u in group)
        if len(leaves) < 2:
            continue
        xi = native_elements(_bunch_partition(struct, group)).involution
        x = leaves[0]
        for y in leaves[1:]:
            keys, nodes = _leaf_path_edges(struct, x, y)
            perms: dict[EdgeKey, Perm] = {k: xi for k in keys}
            for u in nodes:
                if member_bunch[u] != b:
                    leaf_key, tau = _bridge_leaf_transposition(struct.infos[u], set(keys), xi)
                    perms[leaf_key] = tau
            out.append(EdgeIsotopy(struct.arity, perms,
                                   origin=("bunch-path", b, x, y)))

    for u, info in enumerate(struct.infos):
        if struct.degree(u) == 3 and struct.leaf_count(u) == 2:
            partition = semilinear_profile(info.label).uniform_partition()
            assert partition is not None
            cycles = native_elements(partition).cycles
            leaf_keys = [key for key in info.slots if key[0] == "leaf"]
            found = []
            origin = ("fork-cycles", member_bunch[u], u)
            for c1, c2 in itertools.product(cycles, repeat=2):
                trial = {leaf_keys[0]: c1, leaf_keys[1]: c2}
                if is_autotopy(info.label, _node_isotopy(info, trial)):
                    found.append(EdgeIsotopy(struct.arity, trial, origin=origin))
            if len(found) != 2:
                raise AssertionError("a fork must admit exactly two cycle autotopies")
            out.extend(found)

    for edge_iso in out:
        if not _fixes_labels(struct, edge_iso.perms):
            raise AssertionError("structural candidate failed node verification")
    return out


# ---------------------------------------------------------------------------
# Minimality conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinimalityReport:
    """The structural conditions a minimal-group reduced tree must satisfy."""

    no_high_degree: bool
    no_forks: bool
    no_bald_bunches: bool
    single_nonbald_per_bunch: bool
    no_bald_high_degree: bool
    degree4_labels_ok: bool

    @property
    def satisfied(self) -> bool:
        return (self.no_high_degree and self.no_forks and self.no_bald_bunches
                and self.single_nonbald_per_bunch and self.no_bald_high_degree
                and self.degree4_labels_ok)


@functools.lru_cache(maxsize=1)
def _lbullet3_keys() -> frozenset[bytes]:
    """The tables of shifted_linear(3) under all 24^3 argument isotopies, each
    relabelled so that f(0, 0, .) reads 0123: 864 distinct 64-byte keys."""
    from .construct import shifted_linear  # here: construct imports this module as it loads

    perms = np.array([p.images for p in PERMS], dtype=np.intp)
    tables = shifted_linear(3).table[perms[:, None, None, :, None, None],
                                     perms[None, :, None, None, :, None],
                                     perms[None, None, :, None, None, :]].reshape(-1, ORDER**3)
    # the inverse of each line f(0, 0, .), packed two bits per image as in _lookup
    inverses = (np.arange(ORDER, dtype=np.uint8) << 2 * tables[:, :ORDER]).sum(1, dtype=np.uint8)
    tables <<= 1
    np.right_shift(inverses[:, None], tables, out=tables)
    tables &= 3
    return frozenset(map(bytes, tables))


def _is_lbullet3(q: Quasigroup) -> bool:
    """Whether ternary q is isotopic to shifted_linear(3), by lookup: relabelling
    its values so that q(0, 0, .) reads 0123 fixes the value permutation, and
    the keys hold every argument isotopy."""
    return _lookup(Perm(q.table[0, 0]).inverse().images, q.table).tobytes() in _lbullet3_keys()


def minimality_conditions(t: Tree) -> MinimalityReport:
    """Check the degree/fork/bunch conditions plus the degree-4 label class:
    each such label must be isotopic to shifted_linear(3), which `_is_lbullet3`
    decides by a table lookup, without an isotopy search."""
    struct = _Structure(t)
    stats = _stats(struct)
    degrees = [struct.degree(u) for u in range(len(struct.infos))]
    balds = [u for u in range(len(struct.infos)) if struct.leaf_count(u) == 0]
    single_nonbald = all(
        sum(1 for u in group if struct.leaf_count(u) > 0) <= 1
        for group in stats.bunch_members)
    degree4_ok = all(_is_lbullet3(info.label) for u, info in enumerate(struct.infos)
                     if degrees[u] == 4)
    return MinimalityReport(
        no_high_degree=all(d <= 4 for d in degrees),
        no_forks=stats.n_forks == 0,
        no_bald_bunches=stats.n_bald_bunches == 0,
        single_nonbald_per_bunch=single_nonbald,
        no_bald_high_degree=all(struct.degree(u) == 3 for u in balds),
        degree4_labels_ok=degree4_ok,
    )


# ---------------------------------------------------------------------------
# Re-rooting (decomposition of an inverse)
# ---------------------------------------------------------------------------

def reroot_to_leaf(t: Tree, var: int) -> Tree:
    """The decomposition tree of the represented quasigroup's inverse at `var`.

    Labels along the path from the value slot to the chosen leaf are replaced
    by their inverses in the path argument; the old value slot becomes the
    leaf carrying `var`.
    """
    n = validate_tree(t)
    if not 1 <= var <= n:
        raise ArityError(f"variable {var} out of range 1..{n}")

    def down(node: Node, above: Tree) -> Node:
        k = next(k for k, child in enumerate(node.children) if var in leaf_vars(child))
        here = Node(node.label.inverse(k + 1), node.children[:k] + (above,) + node.children[k + 1:])
        child = node.children[k]
        return here if isinstance(child, Leaf) else down(child, here)

    return down(t, Leaf(var))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def tree_to_doc(t: Tree) -> dict:
    if isinstance(t, Leaf):
        return {"var": t.var}
    return {"table": t.label.digits(),
            "children": [tree_to_doc(c) for c in t.children]}


def doc_to_tree(doc) -> Tree:
    if not isinstance(doc, dict):
        raise FormatError("tree document entries must be objects")
    if "var" in doc:
        if set(doc) != {"var"} or type(doc["var"]) is not int:  # bool is an int
            raise FormatError("a leaf is exactly {\"var\": <int>}")
        return Leaf(doc["var"])
    if set(doc) != {"table", "children"} or not isinstance(doc["children"], list):
        raise FormatError("a node is exactly {\"table\": ..., \"children\": [...]}")
    children = tuple(doc_to_tree(c) for c in doc["children"])
    k = len(children)
    if k < 2:
        raise FormatError("a node needs at least two children")
    if not isinstance(doc["table"], str):
        raise FormatError("a node's table is a string of digits")
    label = Quasigroup.from_digits(k, doc["table"])
    return Node(label, children)


def dumps_tree(t: Tree) -> str:
    validate_tree(t)
    return json.dumps(tree_to_doc(t), separators=(",", ":"), sort_keys=True)


def loads_tree(text: str) -> Tree:
    try:
        t = doc_to_tree(json.loads(text))
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid tree document: {exc}") from exc
    except RecursionError:  # from either json.loads or doc_to_tree
        raise FormatError("tree document is nested too deeply") from None
    validate_tree(t)
    return t
