"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The corpus fixture is shared by several criteria.
"""

import itertools
import time

import pytest

from qg4 import (
    ConstructionTSpec,
    IDENTITY,
    Isotopy,
    Perm,
    all_binary_quasigroups,
    are_isotopic,
    autotopy_group,
    chain,
    close_isotopies,
    construction_t,
    floor_lower_bound,
    full_decomposition,
    is_autotopy,
    is_linear,
    linear,
    lower_bound_predict,
    merge_nodes,
    minimality_conditions,
    proper_decomposition,
    reduce_decomposition,
    semilinear_profile,
    shifted_linear,
    stabilizer,
    structural_autotopies,
    tree_eval,
    tree_stats,
    xor2,
    z4,
)
from qg4.decompose import Node, iter_nodes
from qg4.semilinear import PARTITIONS, native_elements
from qg4.construct import random_semilinear_composition

from conftest import acceptance_corpus
from test_decompose import build_figure_tree


def report(k, text):
    print(f"ACCEPTANCE {k:>2}: PASS - {text}")


@pytest.fixture(scope="module")
def corpus():
    """Builtins, chains, 100 seeded constructions, 100 random compositions."""
    members = list(acceptance_corpus())
    assert all(q.arity <= 6 for _name, q in members)
    return members


@pytest.fixture(scope="module")
def corpus_orders(corpus):
    return {name: autotopy_group(q).order for name, q in corpus}


def test_criterion_01_z4_group_is_32_with_the_four_families():
    started = time.monotonic()
    group = autotopy_group(z4())
    assert group.order == 32
    elements = set(group.elements)

    native = native_elements((0, 2))
    xi = native.involution
    t02, t13 = native.transpositions

    involution_family = {Isotopy.identity(2)}
    for i, j in itertools.combinations(range(3), 2):
        parts = [IDENTITY] * 3
        parts[i] = parts[j] = xi
        involution_family.add(Isotopy(parts))

    # f({0,2}^2) = {0,2}: valid transposition triples carry an even number
    # of (02) entries
    transposition_family = {
        Isotopy(parts)
        for parts in itertools.product((t02, t13), repeat=3)
        if sum(p == t02 for p in parts) % 2 == 0
    }

    def closed_family(movers, closers):
        out = set()
        for pair in itertools.product(movers, repeat=2):
            for slot in range(3):
                hits = []
                for closer in closers:
                    parts = list(pair)
                    parts.insert(slot, closer)
                    theta = Isotopy(parts)
                    if is_autotopy(z4(), theta):
                        hits.append(theta)
                assert len(hits) == 1, "the closing permutation must be unique"
                out.add(hits[0])
        return out

    cycle_family = closed_family(native.cycles, (IDENTITY, xi))
    foreign_family = closed_family(native.foreign_involutions, native.transpositions)

    assert len(involution_family) == 4
    assert len(transposition_family) == 4
    assert len(cycle_family) == 12
    assert len(foreign_family) == 12
    assert elements == (involution_family | transposition_family
                        | cycle_family | foreign_family)
    assert time.monotonic() - started < 1.0
    report(1, "Atp(z4) has order 32 and matches the four element families")


def test_criterion_02_linear_orders_reach_the_maximum():
    started = time.monotonic()
    for n in (2, 3, 4, 5):
        assert autotopy_group(linear(n)).order == 6 * 4**n
    assert time.monotonic() - started < 60.0
    report(2, "Atp(xor chain) = 6*4^n for n = 2..5")


def test_criterion_03_shifted_linear_orders():
    for n in (3, 4, 5):
        assert autotopy_group(shifted_linear(n)).order == 2 ** (n + 1)
    report(3, "Atp(shifted xor) = 2^(n+1) for n = 3..5")


def test_criterion_04_chain_orders_attain_the_bound():
    assert autotopy_group(chain(5)).order == 16 == 2 ** ((5 - 1) // 2 + 2)
    assert autotopy_group(chain(6)).order == 32 == 2 ** (6 // 2 + 2)
    report(4, "chain(5) and chain(6) have autotopy orders 16 and 32 exactly")


def test_criterion_05_binary_sweep_two_classes():
    started = time.monotonic()
    reference_xor, reference_z4 = xor2(), z4()
    counts = {32: 0, 96: 0}
    for q in all_binary_quasigroups():
        order = autotopy_group(q).order
        assert order in (32, 96)
        counts[order] += 1
        if order == 96:
            assert are_isotopic(q, reference_xor) is not None
        else:
            assert are_isotopic(q, reference_z4) is not None
    assert counts == {32: 432, 96: 144}
    assert sum(counts.values()) == 576
    assert time.monotonic() - started < 60.0
    report(5, "all 576 squares have order 32 or 96 and fall into the two classes")


def test_criterion_06_lower_bound_over_the_corpus(corpus, corpus_orders):
    for name, q in corpus:
        assert corpus_orders[name] >= floor_lower_bound(q.arity), name
    report(6, f"order >= 2^(n//2+2) on all {len(corpus)} corpus members")


def test_criterion_07_upper_bounds(corpus, corpus_orders):
    for name, q in corpus:
        order = corpus_orders[name]
        if is_linear(q):
            assert order == 6 * 4**q.arity, name
        else:
            assert order <= 2 * 4**q.arity, name
    assert corpus_orders["z4"] == 2 * 4**2
    from qg4 import is_transitive

    assert is_transitive(z4())
    report(7, "nonlinear members stay below 2*4^n (z4 attains it); linear hit 6*4^n")


def _normalize_zero(q):
    v = q(*((0,) * q.arity))
    if v == 0:
        return q
    swap = Perm.from_cycles((0, v))
    return q.isotope(Isotopy((swap,) + (IDENTITY,) * q.arity))


def test_criterion_08_stabilizer_trichotomy(corpus):
    seen = {1: 0, 2: 0, 6: 0}
    for name, q in corpus:
        norm = _normalize_zero(q)
        size = stabilizer(norm).size
        profile = semilinear_profile(norm)
        if profile.is_linear:
            expected = 6
        elif profile.is_semilinear:
            expected = 2
        else:
            expected = 1
        assert size == expected, name
        seen[size] += 1
    assert all(count > 0 for count in seen.values())
    report(8, f"stabilizer sizes 6/2/1 match linearity classes ({seen})")


def test_criterion_09_construction_t_minimality():
    for seed in range(20):
        tree, q = construction_t(ConstructionTSpec.random(5, seed))
        assert autotopy_group(q).order == 16 == 2 ** ((5 + 3) // 2)
    for n in (7, 9):
        expected = 2 ** ((n + 3) // 2)
        for seed in range(10):
            tree, q = construction_t(ConstructionTSpec.random(n, seed))
            assert minimality_conditions(tree).satisfied, (n, seed)
            flattened = [g.flatten() for g in structural_autotopies(tree)]
            assert len(close_isotopies(flattened)) == expected, (n, seed)
    report(9, "construction outputs: exact order 16 at n=5; structural order "
              "2^((n+3)/2) and conditions hold at n=7,9")


def test_criterion_10_structural_machinery(corpus, corpus_orders):
    checked = 0
    for name, q in corpus:
        if q.arity < 2:
            continue
        reduced, _theta = reduce_decomposition(proper_decomposition(q))
        stats = tree_stats(reduced)
        assert stats.n_bunches == stats.n_nodes - stats.n_bridges, name
        generators = structural_autotopies(reduced)
        value = tree_eval(reduced)
        flattened = [g.flatten() for g in generators]
        for theta in flattened:
            assert is_autotopy(value, theta), name
        for a, b_iso in itertools.combinations(generators, 2):
            if a.origin[1] != b_iso.origin[1]:
                assert (a.flatten() * b_iso.flatten()
                        == b_iso.flatten() * a.flatten()), name
        subgroup = close_isotopies(flattened) if flattened else {
            Isotopy.identity(q.arity)}
        assert len(subgroup) >= lower_bound_predict(stats), name
        assert len(subgroup) <= corpus_orders[name], name
        checked += 1
    report(10, f"bunch identity, verified generators, commutation and the "
               f"2^(N-V+B+L+F) bound on {checked} corpus trees")


def test_criterion_11_figure_regression():
    stats = tree_stats(build_figure_tree())
    assert stats.n_bald == 1
    assert stats.n_bridges == 5
    assert stats.n_forks == 1
    assert stats.n_bunches == 7
    assert stats.n_nodes == 12
    assert stats.n_nodes - stats.n_bridges == stats.n_bunches
    report(11, "the twelve-node regression tree has E=1, B=5, F=1, bunches=7")


def test_criterion_12_merging_and_reduction():
    trees = 0
    for seed in range(200):
        arity = 4 + seed % 3
        q = random_semilinear_composition(arity, 10_000 + seed)
        t = full_decomposition(q)
        for node, path in list(iter_nodes(t)):
            for k, child in enumerate(node.children):
                if isinstance(child, Node):
                    merged = merge_nodes(t, path, k)
                    assert tree_eval(merged) == q, seed
        reduced, theta = reduce_decomposition(proper_decomposition(q))
        assert q.isotope(theta) == tree_eval(reduced), seed
        for node, path in iter_nodes(reduced):
            target = PARTITIONS[0] if len(path) % 2 == 0 else PARTITIONS[1]
            constant = semilinear_profile(node.label).constant_partitions()
            assert target in constant, seed
        trees += 1
    assert trees == 200
    report(12, "200 random trees keep their value under merging and reduce "
               "to the 01|23 / 02|13 color discipline")
