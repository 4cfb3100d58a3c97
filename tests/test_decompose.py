import dataclasses
import functools
import io
import itertools
import json
import logging
import random
from collections import Counter

import numpy as np
import pytest

from qg4 import (
    ArityError,
    ConstructionTSpec,
    FormatError,
    Isotopy,
    Perm,
    Quasigroup,
    all_binary_quasigroups,
    are_coherent,
    are_isotopic,
    autotopy_group,
    close_isotopies,
    chain,
    chain_tree,
    construction_t,
    dumps_tree,
    find_split,
    floor_lower_bound,
    full_decomposition,
    g3,
    is_autotopy,
    is_reduced,
    linear,
    loads_tree,
    lower_bound_predict,
    merge_nodes,
    minimality_conditions,
    proper_decomposition,
    reduce_decomposition,
    reroot_to_leaf,
    semilinear_profile,
    shifted_linear,
    structural_autotopies,
    tree_eval,
    tree_stats,
    xor2,
    z4,
)
from qg4 import autotopy, cli, core, qg4_text
from qg4 import decompose as dec
from qg4.core import PERMS, LatinError
from qg4.decompose import (Leaf, Node, _is_lbullet3, _lbullet3_keys, _permute_args, _try_split,
                           is_proper, iter_nodes, validate_tree)
from qg4.semilinear import PARTITIONS
from qg4.construct import conjugate_uniform, random_semilinear_composition

from conftest import acceptance_corpus, oracle_tables, random_isotopy

P01, P02, P03 = PARTITIONS


def node_count(t):
    return sum(1 for _ in iter_nodes(t))


def build_figure_tree():
    """The 12-node regression shape: one bald node, five bridges, one fork."""
    vars_iter = iter(range(1, 20))

    def leaves(c):
        return tuple(Leaf(next(vars_iter)) for _ in range(c))

    kappa = Node(linear(3), leaves(3))
    mu = Node(linear(4), leaves(4))
    lam = Node(linear(3), leaves(2) + (mu,))
    iota = Node(linear(2), (kappa, lam))
    theta = Node(linear(2), (Leaf(next(vars_iter)), iota))
    eta = Node(linear(2), (Leaf(next(vars_iter)), theta))
    zeta = Node(linear(2), (Leaf(next(vars_iter)), eta))
    alpha = Node(linear(3), leaves(3))
    gamma = Node(linear(2), (Leaf(next(vars_iter)), alpha))
    beta = Node(linear(2), leaves(2))
    delta = Node(linear(2), (Leaf(next(vars_iter)), beta))
    return Node(linear(3), (zeta, gamma, delta))


class TestFindSplit:
    def test_chain5_splits_at_inner_block(self):
        subset, inner, outer = find_split(chain(5))
        assert subset == (1, 2, 3)
        assert inner.arity == 3 and outer.arity == 3
        assert outer.compose_at(inner, 1) == chain(5)

    def test_l4_smallest_subset(self):
        subset, inner, outer = find_split(linear(4))
        assert subset == (1, 2)
        assert outer.compose_at(inner, 1) == linear(4)

    def test_irreducible_ternary(self):
        # exhausting all two-element subsets leaves the shifted xor unsplit
        assert find_split(shifted_linear(3)) is None

    def test_binary_none(self):
        assert find_split(z4()) is None

    def test_congruence_oracle(self):
        # Exhaustive check of the split relation for a non-prefix subset.
        q = xor2().compose_at(z4(), 2)  # x1 ^ (x2 + x3)
        got = find_split(q)
        assert got is not None
        subset, inner, outer = got
        assert subset == (2, 3)
        rest = [i for i in range(1, 4) if i not in subset]
        for x in itertools.product(range(4), repeat=3):
            val = outer(inner(*(x[a - 1] for a in subset)),
                        *(x[r - 1] for r in rest))
            assert val == q(*x)


def scan_split(q):
    """find_split's old route: the full check on every subset, smallest first."""
    for size in range(2, q.arity):
        for subset in itertools.combinations(range(1, q.arity + 1), size):
            got = _try_split(q, subset)
            if got is not None:
                return subset, got[0], got[1]
    return None


class TestSplitOracle:
    def test_probe_first_matches_the_exhaustive_scan(self):
        for q in oracle_tables():
            assert find_split(q) == scan_split(q)

    def test_split_factors_are_latin_and_compose_back(self):
        # the factors are built trusted: each must pass the untrusted check;
        # they are split in turn, as full_decomposition does
        spec = ConstructionTSpec.random
        todo = [*oracle_tables(), construction_t(spec(9, 1))[1],
                random_semilinear_composition(10, 1), construction_t(spec(11, 1))[1]]
        splits = 0
        while todo:
            q = todo.pop()
            if (got := find_split(q)) is None:
                continue
            subset, inner, outer = got
            for factor in (inner, outer):
                assert Quasigroup(np.array(factor.table)) == factor
            rest = [v for v in range(1, q.arity + 1) if v not in subset]
            assert _permute_args(outer.compose_at(inner, 1), [*subset, *rest]) == q
            todo += [inner, outer]
            splits += 1
        assert splits > 400

    def test_split_probed_at_sampled_points(self):
        # the irreducible shifted xor splits off at size 5, probed at sampled
        # points of the subset rather than at all 4^5
        rng = random.Random(7)
        for q in (z4().compose_at(shifted_linear(5), 1), z4().compose_at(shifted_linear(5), 2)):
            q = q.isotope(random_isotopy(6, rng))
            got = find_split(q)
            assert len(got[0]) == 5 and got == scan_split(q)


class TestSplitLog:
    def records(self, caplog, q):
        with caplog.at_level(logging.DEBUG, logger="qg4"):
            got = find_split(q)
        (record,) = [r for r in caplog.records if r.name == "qg4"]
        assert record.levelno == logging.DEBUG and record.getMessage().startswith("split: ")
        return got, record.args

    def test_one_debug_record_per_call(self, caplog):
        got, (arity, probed, survivors, checks, subset) = self.records(caplog, chain(7))
        assert (arity, subset) == (7, got[0])
        assert probed >= survivors >= checks >= 1

    def test_irreducible_label_checks_only_survivors(self, caplog):
        got, (arity, probed, survivors, checks, subset) = self.records(caplog, shifted_linear(4))
        assert got is None and subset is None
        assert (arity, probed) == (4, 6 + 4) and survivors == checks

    def test_default_level_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "q.qg4"
        path.write_text(qg4_text(chain(7)))
        out = io.StringIO()
        assert cli.run(["decompose", str(path), "--reduced"], out=out) == 0
        assert out.getvalue().startswith("{") and out.getvalue().count("\n") == 1
        assert capsys.readouterr() == ("", "")


class TestFullDecomposition:
    def test_binary_single_node(self):
        t = full_decomposition(xor2())
        assert node_count(t) == 1
        assert tree_eval(t) == xor2()

    def test_chain7_three_ternary_nodes(self):
        t = full_decomposition(chain(7))
        assert node_count(t) == 3
        assert all(node.label.arity == 3 for node, _ in iter_nodes(t))
        assert tree_eval(t) == chain(7)

    def test_round_trip(self, base_tables):
        for q in base_tables.values():
            assert tree_eval(full_decomposition(q)) == q

    def test_labels_semilinear(self):
        for seed in range(8):
            q = random_semilinear_composition(5, 2000 + seed)
            for node, _ in iter_nodes(full_decomposition(q)):
                assert semilinear_profile(node.label).is_semilinear


class TestTreeEval:
    def test_variable_order_respected(self):
        # root reads (x3, x1, x2) through a child at position 1
        t = Node(z4(), (Node(xor2(), (Leaf(3), Leaf(1))), Leaf(2)))
        q = tree_eval(t)
        for x in itertools.product(range(4), repeat=3):
            assert q(*x) == ((x[2] ^ x[0]) + x[1]) % 4

    def test_chain_tree_matches_chain(self):
        for n in (5, 6, 7, 8):
            assert tree_eval(chain_tree(n)) == chain(n)

    def test_validation(self):
        with pytest.raises(FormatError):
            validate_tree(Node(z4(), (Leaf(1), Leaf(3))))
        with pytest.raises(FormatError):
            validate_tree(Node(z4(), (Leaf(1), Leaf(1))))
        with pytest.raises(FormatError):
            validate_tree(Node(linear(3), (Leaf(1), Leaf(2))))


class TestCoherence:
    def test_linear_nodes_coherent(self):
        t = Node(xor2(), (Node(xor2(), (Leaf(1), Leaf(2))), Leaf(3)))
        assert are_coherent(t, (), 0)

    def test_mixed_pairs_incoherent(self):
        low = shifted_linear(3)                      # 02|13 flavored
        high = conjugate_uniform(low, Perm.from_cycles((1, 2)))  # 01|23
        t = Node(high, (Node(low, (Leaf(1), Leaf(2), Leaf(3))), Leaf(4), Leaf(5)))
        assert not are_coherent(t, (), 0)

    def test_z4_feeding_z4_coherent(self):
        t = Node(z4(), (Node(z4(), (Leaf(1), Leaf(2))), Leaf(3)))
        assert are_coherent(t, (), 0)


class TestMerge:
    def test_two_xor_nodes_merge_to_ternary_xor(self):
        t = Node(xor2(), (Node(xor2(), (Leaf(1), Leaf(2))), Leaf(3)))
        merged = merge_nodes(t, (), 0)
        assert node_count(merged) == 1
        assert merged.label == linear(3)

    def test_value_preserved_and_leaves_kept(self):
        for seed in range(10):
            q = random_semilinear_composition(5, 2100 + seed)
            t = full_decomposition(q)
            for node, path in list(iter_nodes(t)):
                for k, child in enumerate(node.children):
                    if isinstance(child, Node):
                        merged = merge_nodes(t, path, k)
                        assert sorted(set(_leafset(merged))) == sorted(_leafset(t))
                        assert tree_eval(merged) == q

    def test_merging_coherent_semilinear_stays_semilinear(self):
        t = Node(z4(), (Node(z4(), (Leaf(1), Leaf(2))), Leaf(3)))
        merged = merge_nodes(t, (), 0)
        assert semilinear_profile(merged.label).is_semilinear


def _leafset(t):
    from qg4.decompose import leaf_vars

    return leaf_vars(t)


class TestProper:
    def test_linear_collapses(self):
        t = proper_decomposition(linear(5))
        assert node_count(t) == 1
        assert tree_eval(t) == linear(5)

    def test_chain5_two_nodes(self):
        t = proper_decomposition(chain(5))
        assert node_count(t) == 2
        assert is_proper(t)

    def test_no_coherent_pairs_postcondition(self):
        for seed in range(8):
            q = random_semilinear_composition(4, 2200 + seed)
            t = proper_decomposition(q)
            assert is_proper(t)
            assert tree_eval(t) == q

    def test_nonlinear_proper_has_no_linear_labels(self):
        from qg4.semilinear import is_linear

        for seed in range(8):
            q = random_semilinear_composition(5, 2300 + seed)
            t = proper_decomposition(q)
            if node_count(t) > 1:
                for node, _ in iter_nodes(t):
                    assert not is_linear(node.label)


class TestReduce:
    def test_already_reduced_unchanged(self):
        t = chain_tree(5)
        assert is_reduced(t)
        reduced, theta = reduce_decomposition(t)
        assert theta.is_identity
        assert reduced == t

    def test_uniform_03_tree_converted(self):
        sigma = Perm.from_cycles((2, 3))  # 02|13 -> 03|12 relabeling
        low = conjugate_uniform(z4(), sigma)
        assert semilinear_profile(low).uniform_partition() is P03
        t = Node(low, (Leaf(1), Leaf(2)))
        reduced, theta = reduce_decomposition(t)
        assert is_reduced(reduced)
        assert semilinear_profile(reduced.label).uniform_partition().partner in (1, 2)
        assert tree_eval(t).isotope(theta) == tree_eval(reduced)

    def test_03_node_inside_tree_converted_by_color(self):
        sigma = Perm.from_cycles((2, 3))
        inner = conjugate_uniform(z4(), sigma)                   # 03|12 class
        outer = conjugate_uniform(z4(), Perm.from_cycles((1, 2)))  # 01|23 class
        t = Node(outer, (Node(inner, (Leaf(1), Leaf(2))), Leaf(3)))
        assert is_proper(t)
        reduced, theta = reduce_decomposition(t)
        root_part = semilinear_profile(reduced.label).uniform_partition()
        child_part = semilinear_profile(reduced.children[0].label).uniform_partition()
        assert root_part is P01 and child_part is P02
        assert tree_eval(t).isotope(theta) == tree_eval(reduced)

    def test_color_discipline_and_isotopy(self):
        for seed in range(8):
            q = random_semilinear_composition(5, 2400 + seed)
            t = proper_decomposition(q)
            reduced, theta = reduce_decomposition(t)
            assert q.isotope(theta) == tree_eval(reduced)
            assert are_isotopic(q, tree_eval(reduced)) is not None
            for node, path in iter_nodes(reduced):
                target = P01 if len(path) % 2 == 0 else P02
                constant = semilinear_profile(node.label).constant_partitions()
                assert target in constant
            assert is_reduced(reduced)

    def test_scrambled_linear_single_node(self):
        rng = random.Random(13)
        from conftest import random_isotopy

        q = linear(3).isotope(random_isotopy(3, rng))
        t = proper_decomposition(q)
        reduced, theta = reduce_decomposition(t)
        assert q.isotope(theta) == tree_eval(reduced)
        assert reduced.label == linear(3)

    def test_lone_linear_label_without_a_search(self, monkeypatch):
        # the isotopy is the search's first hit onto linear(n), derived directly
        rng = random.Random(17)
        tables = [linear(n).isotope(random_isotopy(n, rng)) for n in range(2, 10)]
        expected = [are_isotopic(q, linear(q.arity), cap=q.arity) for q in tables]

        def refuse(*args, **kwargs):
            raise AssertionError("reduce_decomposition searched for an isotopy")

        monkeypatch.setattr(autotopy, "_first_isotopy", refuse)
        for q, witness in zip(tables, expected):
            t = Node(q, tuple(Leaf(i) for i in range(1, q.arity + 1)))
            reduced, theta = reduce_decomposition(t)
            assert theta == witness
            assert reduced == Node(linear(q.arity), t.children)
            assert q.isotope(theta) == tree_eval(reduced)

    def test_rejects_improper(self):
        t = Node(xor2(), (Node(xor2(), (Leaf(1), Leaf(2))), Leaf(3)))
        with pytest.raises(ValueError):
            reduce_decomposition(t)


class TestStats:
    def test_figure_regression(self):
        stats = tree_stats(build_figure_tree())
        assert stats.n_nodes == 12
        assert stats.n_bald == 1
        assert stats.n_bridges == 5
        assert stats.n_forks == 1
        assert stats.n_bunches == 7
        assert stats.n_bunches == stats.n_nodes - stats.n_bridges
        assert sorted(len(b) for b in stats.bunch_members) == [1, 1, 1, 1, 1, 2, 5]
        assert stats.n_bald_bunches == 0

    def test_chain5(self):
        stats = tree_stats(chain_tree(5))
        assert (stats.n_leaves, stats.n_nodes) == (6, 2)
        assert stats.n_bridges == stats.n_forks == stats.n_bald == 0
        assert stats.n_bald_bunches == 0
        assert stats.n_bunches == 2

    def test_bunch_identity_everywhere(self):
        for seed in range(10):
            q = random_semilinear_composition(5, 2500 + seed)
            stats = tree_stats(proper_decomposition(q))
            assert stats.n_bunches == stats.n_nodes - stats.n_bridges
            assert stats.n_bald_bunches >= stats.n_bald - stats.n_bridges


class TestBounds:
    def test_chain5_prediction(self):
        assert lower_bound_predict(tree_stats(chain_tree(5))) == 16

    def test_chain6_prediction_below_order(self):
        predicted = lower_bound_predict(tree_stats(chain_tree(6)))
        order = autotopy_group(chain(6)).order
        assert predicted <= order
        assert order == 32

    def test_floor_bound(self):
        assert floor_lower_bound(5) == 16
        assert floor_lower_bound(6) == 32
        assert floor_lower_bound(3) == 8

    def test_predictor_dominates_floor_bound(self):
        # the counting argument bounds the structural exponent from below by
        # floor(n/2)+2 on every decomposition tree with n >= 3
        cases = [proper_decomposition(random_semilinear_composition(3 + s % 4,
                                                                    2600 + s))
                 for s in range(12)]
        cases += [chain_tree(5), chain_tree(6), chain_tree(7)]
        for t in cases:
            stats = tree_stats(t)
            n = stats.n_leaves - 1
            if n >= 3:
                assert lower_bound_predict(stats) >= floor_lower_bound(n)


class TestStructural:
    def test_chain5_generates_full_group(self):
        reduced, _ = reduce_decomposition(proper_decomposition(chain(5)))
        gens = structural_autotopies(reduced)
        flat = [g.flatten() for g in gens]
        q = tree_eval(reduced)
        assert all(is_autotopy(q, f) for f in flat)
        assert len(close_isotopies(flat)) == 16 == autotopy_group(q).order

    def test_single_fork_emits_inverse_cycles(self):
        low = shifted_linear(3)
        high = conjugate_uniform(low, Perm.from_cycles((1, 2)))
        t = Node(high, (Node(z4(), (Leaf(1), Leaf(2))), Leaf(3), Leaf(4)))
        assert is_reduced(t)
        gens = structural_autotopies(t)
        fork_gens = [g for g in gens
                     if any(p.order() == 4 for p in g.flatten().parts)]
        assert len(fork_gens) == 2
        a, b = (g.flatten() for g in fork_gens)
        assert a * b == Isotopy.identity(4) or a == b.inverse()
        cycles = {p for p in a.parts if p.order() == 4}
        assert len(cycles) == 2

    def test_bunch_generators_commute_across_bunches(self):
        reduced, _ = reduce_decomposition(proper_decomposition(chain(7)))
        gens = structural_autotopies(reduced)
        flat = [g.flatten() for g in gens]
        for a, b in itertools.combinations(flat, 2):
            assert a * b == b * a
        order = len(close_isotopies(flat))
        assert order >= lower_bound_predict(tree_stats(reduced))

    def test_rejects_non_reduced(self):
        t = Node(xor2(), (Node(xor2(), (Leaf(1), Leaf(2))), Leaf(3)))
        with pytest.raises(ValueError):
            structural_autotopies(t)

    def test_bridge_paths_carry_native_transpositions(self):
        # a bunch with two leafy nodes joined through a bridge: the paths
        # from the value leaf into the deep block cross the bridge and must
        # put one of its native transpositions on the bridge's leaf edge
        low = shifted_linear(3)
        high = conjugate_uniform(low, Perm.from_cycles((1, 2)))
        deep = Node(high, (Leaf(1), Leaf(2), Leaf(3)))
        bridge = Node(z4(), (deep, Leaf(4)))
        t = Node(high, (bridge, Leaf(5), Leaf(6)))
        assert is_reduced(t)
        stats = tree_stats(t)
        assert stats.n_bridges == 1
        assert sorted(len(b) for b in stats.bunch_members) == [1, 2]
        q = tree_eval(t)
        gens = structural_autotopies(t)
        crossing = [g for g in gens
                    if not g.perm_at(("leaf", 4)).is_identity]
        assert len(crossing) == 3  # value leaf paired with each deep leaf
        for g in crossing:
            tau = g.perm_at(("leaf", 4))
            assert tau.order() == 2 and len(tau.cycles()) == 1  # a transposition
            assert is_autotopy(q, g.flatten())
        order = len(close_isotopies(g.flatten() for g in gens))
        assert order == lower_bound_predict(stats) == 32
        assert autotopy_group(q).order >= order


class TestMinimality:
    def test_chain5_satisfies_all(self):
        report = minimality_conditions(chain_tree(5))
        assert report.satisfied

    def test_degree4_label_check_fails_on_mixed_ternary(self):
        # a degree-4 node labeled with x1 ^ (x2 + x3) is not in the minimal class
        low = g3()
        high = conjugate_uniform(z4(), Perm.from_cycles((1, 2)))
        t = Node(high, (Node(low, (Leaf(1), Leaf(2), Leaf(3))), Leaf(4)))
        report = minimality_conditions(t)
        assert not report.degree4_labels_ok
        assert not report.satisfied

    def test_fork_fails_condition(self):
        low = shifted_linear(3)
        high = conjugate_uniform(low, Perm.from_cycles((1, 2)))
        t = Node(high, (Node(z4(), (Leaf(1), Leaf(2))), Leaf(3), Leaf(4)))
        report = minimality_conditions(t)
        assert not report.no_forks
        assert not report.satisfied


@functools.lru_cache(maxsize=1)
def latin_cubes():
    """All 55,296 ternary quasigroups of order 4: layers a, b, c, 6 - a - b - c
    along x_1 for pairwise cellwise-disjoint squares a, b, c."""
    squares = np.array([q.table.ravel() for q in all_binary_quasigroups()])
    disjoint = (squares[:, None] != squares[None, :]).all(axis=2)
    stacks = []
    for a in range(len(squares)):
        near = np.flatnonzero(disjoint[a])
        b, c = (near[k] for k in np.nonzero(disjoint[np.ix_(near, near)]))
        stacks.append(np.stack([np.broadcast_to(squares[a], (len(b), 16)), squares[b],
                                squares[c], 6 - squares[a] - squares[b] - squares[c]], axis=1))
    cubes = np.concatenate(stacks).astype(np.uint8).reshape(-1, 4, 4, 4)
    for axis in (1, 2, 3):  # every line a bijection; the forced layer included
        assert (np.bitwise_or.reduce(1 << cubes, axis=axis) == 15).all()
    return tuple(Quasigroup(c, _trusted=True) for c in cubes)


@functools.lru_cache(maxsize=1)
def reduced_trees():
    """Reduced trees of construction_t at n = 5, 7, 9, 11 and of the acceptance corpus."""
    tables = [construction_t(ConstructionTSpec.random(n, seed))[1]
              for n in (5, 7, 9, 11) for seed in range(3)]
    tables += [q for _name, q in acceptance_corpus()]
    return tuple(reduce_decomposition(proper_decomposition(q))[0] for q in tables)


def minimality_by_search(t):
    """The report with the reference route for the degree-4 class: one isotopy
    search per degree-4 (ternary) label against shifted_linear(3)."""
    reference = shifted_linear(3)
    searched = all(are_isotopic(node.label, reference) is not None
                   for node, _ in iter_nodes(t) if node.label.arity == 3)
    return dataclasses.replace(minimality_conditions(t), degree4_labels_ok=searched)


class TestLbullet3Class:
    """The degree-4 label class is decided by lookup: checked against the
    isotopy search, and by orbit-stabilizer over all Latin cubes."""

    def test_class_size_is_24_to_the_4_over_the_group_order(self):
        cubes = latin_cubes()
        order = autotopy_group(shifted_linear(3)).order
        assert len(cubes) == 55296 and order == 16
        assert sum(map(_is_lbullet3, cubes)) == 24**4 // order == 20736
        # 24^4 / 16 tables, 24 per key: each key's line f(0, 0, .) reads 0123
        keys = _lbullet3_keys()
        assert len(keys) == 864 and {key[:4] for key in keys} == {bytes(range(4))}

    def test_agrees_with_the_isotopy_search(self):
        reference = shifted_linear(3)
        verdicts = Counter()
        for q in random.Random(4313).sample(latin_cubes(), 320):
            found = are_isotopic(q, reference) is not None
            assert _is_lbullet3(q) == found
            verdicts[found] += 1
        assert min(verdicts.values()) >= 100, verdicts

    def test_reports_match_the_search_route(self):
        outcomes = Counter()
        for t in reduced_trees():
            report = minimality_conditions(t)
            assert report == minimality_by_search(t)
            if any(node.label.arity == 3 for node, _ in iter_nodes(t)):
                outcomes[report.degree4_labels_ok] += 1
        assert outcomes[True] >= 10 and outcomes[False] >= 10, outcomes

    def test_minimality_does_not_search(self, monkeypatch):
        trees = [t for t in reduced_trees() if any(
            node.label.arity == 3 for node, _ in iter_nodes(t))]
        expected = [minimality_conditions(t) for t in trees]

        def refuse(*args, **kwargs):
            raise AssertionError("minimality_conditions searched for an isotopy")

        monkeypatch.setattr(autotopy, "are_isotopic", refuse)
        monkeypatch.setattr(autotopy, "_first_isotopy", refuse)
        _lbullet3_keys.cache_clear()  # the keys are built without a search too
        assert [minimality_conditions(t) for t in trees] == expected


class TestReroot:
    def test_inverse_correspondence(self):
        for q in (chain(5), chain(6)):
            t = full_decomposition(q)
            for i in (1, q.arity // 2, q.arity):
                assert tree_eval(reroot_to_leaf(t, i)) == q.inverse(i)

    def test_stats_invariant_under_reroot(self):
        t = full_decomposition(chain(7))
        base = tree_stats(t)
        for i in (1, 4, 7):
            stats = tree_stats(reroot_to_leaf(t, i))
            assert (stats.n_nodes, stats.n_bridges, stats.n_forks,
                    stats.n_bald, stats.n_bunches) == (
                base.n_nodes, base.n_bridges, base.n_forks,
                base.n_bald, base.n_bunches)


def restart_merge(t):
    """merge_coherent as a restarted search: merge the first coherent pair in
    (len(path), path) order, then search again.  Returns the tree and the
    (path, child index) of each merge."""
    merged = []
    while True:
        nodes = sorted(iter_nodes(t), key=lambda item: (len(item[1]), item[1]))
        pair = next(((path, k) for node, path in nodes for k, child in enumerate(node.children)
                     if isinstance(child, Node) and are_coherent(t, path, k)), None)
        if pair is None:
            return t, merged
        merged.append(pair)
        t = merge_nodes(t, *pair)


def path_reroot(t, var):
    """reroot_to_leaf built along the root-to-leaf path: step k lifts the path's
    k-th node, its label inverted, over the tree lifted so far."""
    def leaf_path(node):
        for k, child in enumerate(node.children):
            if isinstance(child, Leaf):
                if child.var == var:
                    return [(node, k)]
            elif var in dec.leaf_vars(child):
                return [(node, k)] + leaf_path(child)

    path = leaf_path(t)

    def lifted(k):
        if k == 0:
            return Leaf(var)
        node, child_idx = path[k - 1]
        children = list(node.children)
        children[child_idx] = lifted(k - 1)
        return Node(node.label.inverse(child_idx + 1), tuple(children))

    return lifted(len(path))


def structure_reduce(t):
    """reduce_decomposition through the unrooted structure: every edge's
    permutation set in a preorder walk of the nodes, then each label moved by
    the permutations on its edges."""
    struct = dec._Structure(t)
    if not is_proper(t):
        raise ValueError("reduce_decomposition needs a proper tree")
    label = struct.infos[0].label
    if lone_linear := len(struct.infos) == 1 and semilinear_profile(label).is_linear:
        theta0 = core.PERMS_FIXING[0][label(*(0,) * struct.arity)][0]
        theta = [theta0] + [label.zero_section(i).inverse() * theta0 for i in range(1, struct.arity + 1)]
        edge_perms = dict(zip(struct.infos[0].slots, theta))
    else:
        targets = [dec.PairPartition(1 if info.depth % 2 == 0 else 2) for info in struct.infos]
        edge_perms = {}
        for u, info in enumerate(struct.infos):
            for slot, key in enumerate(info.slots):
                if key in edge_perms:  # a parent edge, set from the parent's side
                    continue
                a = dec._slot_partner(info.label, slot, targets[u])
                kind, v = key
                if kind == "leaf":
                    edge_perms[key] = (core.IDENTITY if a == targets[u].partner
                                       else Perm.from_cycles((targets[u].partner, a)))
                else:  # the edge to child v is v's slot 0
                    b = dec._slot_partner(struct.infos[v].label, 0, targets[v])
                    a1, a2 = (a, b) if targets[u].partner == 1 else (b, a)
                    edge_perms[key] = Perm([0, a1, a2, 6 - a1 - a2])

    def rebuild(u):
        info = struct.infos[u]
        moved = dec._isotope(info.label, dec._node_isotopy(info, edge_perms))
        return Node(moved, tuple(Leaf(ref) if kind == "leaf" else rebuild(ref)
                                 for kind, ref in info.slots[1:]))

    reduced = rebuild(0)
    if lone_linear:
        assert reduced.label == linear(struct.arity)
    return reduced, Isotopy(edge_perms[("leaf", j)] for j in range(struct.arity + 1))


def outcome(fn, t):
    """fn(t), or the type and message of what it raised."""
    try:
        return fn(t)
    except (ValueError, AssertionError) as err:
        return type(err), str(err)


@functools.lru_cache(maxsize=None)
def rewrite_corpus():
    """Full trees of the oracle tables of arity at least 2, and of seeded
    compositions at arity 7 to 10."""
    tables = [q for q in oracle_tables() if q.arity >= 2]
    tables += [random_semilinear_composition(n, 2600 + 10 * n + seed)
               for n in range(7, 11) for seed in range(3)]
    return tuple(full_decomposition(q) for q in tables)


class TestRewriteReferences:
    """The one-pass merge, re-root and reduce against the restarted search, the
    root-to-leaf path and the unrooted structure they replace."""

    def test_merge_matches_the_restarted_search(self):
        below_root = repeated = 0
        for t in rewrite_corpus():
            want, merged = restart_merge(t)
            assert dumps_tree(dec.merge_coherent(t)) == dumps_tree(want)
            below_root += any(path for path, _k in merged)
            repeated += any(a[0] == b[0] for a, b in zip(merged, merged[1:]))
        assert below_root and repeated  # the corpus exercises both

    def test_reroot_matches_the_path_route(self):
        for t in rewrite_corpus():
            for tree in (t, dec.merge_coherent(t)):
                for var in dec.leaf_vars(tree):  # equal trees print equal bytes
                    assert reroot_to_leaf(tree, var) == path_reroot(tree, var)

    def test_one_coherence_test_per_merge_and_per_kept_edge(self, monkeypatch):
        calls = []
        coherent = dec._coherent

        def counting(parent, k):
            calls.append(k)
            return coherent(parent, k)

        monkeypatch.setattr(dec, "_coherent", counting)
        for t in rewrite_corpus():
            calls.clear()
            proper = dec.merge_coherent(t)
            merges = node_count(t) - node_count(proper)
            edges = sum(isinstance(child, Node)
                        for node, _path in iter_nodes(proper) for child in node.children)
            assert len(calls) == merges + edges

    def test_reduce_matches_the_structure_route(self):
        reduced = lone = 0
        for t in rewrite_corpus():
            proper = dec.merge_coherent(t)
            for tree in (proper, reroot_to_leaf(proper, dec.leaf_vars(proper)[-1])):
                if is_proper(tree):  # equal trees print equal bytes
                    assert outcome(reduce_decomposition, tree) == outcome(structure_reduce, tree)
                    reduced += 1
                    lone += all(isinstance(child, Leaf) for child in tree.children)
        assert reduced > lone > 0

    def test_edge_cases_are_kept(self):
        assert dec.merge_coherent(Leaf(3)) == Leaf(3)
        t = full_decomposition(chain(5))
        for var in (0, 6, -1):
            with pytest.raises(ArityError):
                reroot_to_leaf(t, var)
        with pytest.raises(FormatError):
            reroot_to_leaf(Leaf(1), 1)


class TestSerialization:
    def test_round_trip(self):
        for t in (chain_tree(5), full_decomposition(chain(6))):
            text = dumps_tree(t)
            back = loads_tree(text)
            assert back == t
            assert tree_eval(back) == tree_eval(t)
        # the 19-variable regression shape is too large to evaluate but
        # must survive serialization structurally
        fig = build_figure_tree()
        assert loads_tree(dumps_tree(fig)) == fig

    def test_digit_strings_bit_exact(self):
        doc = dumps_tree(Node(z4(), (Leaf(1), Leaf(2))))
        assert '"table":"0123123023013012"' in doc

    def test_rejects_bad_documents(self):
        for text in ('{"var": 1}',                     # bare leaf
                     '{"table": "0123", "children": [{"var": 1}]}',
                     '{"table": "0123123023013012", "children": '
                     '[{"var": 1}, {"var": 3}]}',      # leaf vars not 1..n
                     '{"table": "0123123023013012", "children": '
                     '[{"var": true}, {"var": 2}]}',   # bool is an int, not a var
                     '{"table": 5, "children": [{"var": 1}, {"var": 2}]}',
                     '{"table": ' + json.dumps(list("0123123023013012"))
                     + ', "children": [{"var": 1}, {"var": 2}]}',  # not a string
                     'not json'):
            with pytest.raises(FormatError):
                loads_tree(text)


def mutants(q, rng):
    """One changed digit, then two swaps of unequal digits: three non-Latin tables."""
    flat = q.table.ravel()
    changed = flat.copy()
    k = rng.randrange(flat.size)
    changed[k] = (changed[k] + rng.randrange(1, 4)) % 4
    out = [changed]
    for _ in range(2):
        i, j = rng.sample(range(flat.size), 2)
        while flat[i] == flat[j]:
            i, j = rng.sample(range(flat.size), 2)
        swapped = flat.copy()
        swapped[i], swapped[j] = flat[j], flat[i]
        out.append(swapped)
    return [m.reshape(q.table.shape) for m in out]


def unlatin_tables(n):
    """At arity n: a constant table, the projection onto x_1, and the table
    where only x_n's sections repeat."""
    grid = np.indices((4,) * n, dtype=np.uint8)
    return [np.zeros((4,) * n, dtype=np.uint8), grid[0],
            ((grid[:-1].sum(axis=0) + grid[-1] // 2) % 4).astype(np.uint8)]


def digits(table):
    return (table.ravel() + ord("0")).tobytes()


class TestCertifiedDecomposition:
    """`full_decomposition(q, _latin=False)` certifies q through its splits:
    checked against the eager Latin check and the eagerly parsed route."""

    def test_matches_the_eager_route(self):
        rng = random.Random(15)
        tables = []
        for q in oracle_tables():
            if q.arity <= 8:
                tables += [q.table] + mutants(q, rng)
        tables += unlatin_tables(10)
        latin = 0
        for table in tables:
            n = table.ndim
            q = Quasigroup.from_digits(n, digits(table), _latin=False)
            if core._latin_violation(table) is None:
                latin += 1
                assert full_decomposition(q, _latin=False) == full_decomposition(
                    Quasigroup.from_digits(n, digits(table)))
                continue
            with pytest.raises(LatinError) as eager:
                Quasigroup.from_digits(n, digits(table))
            with pytest.raises(LatinError) as certified:
                full_decomposition(q, _latin=False)
            assert str(certified.value) == str(eager.value)
        assert 4 * latin + 3 == len(tables) and latin > 800  # every mutant is rejected

    def test_a_failure_of_a_latin_table_is_reraised(self, monkeypatch):
        def fail(q, _latin, _args):
            raise RuntimeError("route failed")

        monkeypatch.setattr(dec, "_decompose", fail)
        with pytest.raises(RuntimeError, match="route failed"):
            full_decomposition(chain(5), _latin=False)
        with pytest.raises(LatinError):
            full_decomposition(Quasigroup(unlatin_tables(3)[2], _trusted=True), _latin=False)


def reference_fixes_labels(struct, perms):
    """Every node checked, the identity isotopies included."""
    return all(dec.is_autotopy(info.label, dec._node_isotopy(info, perms))
               for info in struct.infos)


class TestStructuralChecks:
    def test_identity_isotopies_are_not_checked(self, monkeypatch):
        checked = []

        def counting(q, theta):
            checked.append(theta.is_identity)
            return is_autotopy(q, theta)

        monkeypatch.setattr(dec, "is_autotopy", counting)
        for t in reduced_trees():
            checked.clear()
            got = [(g.perms, g.origin) for g in structural_autotopies(t)]
            new = checked[:]
            checked.clear()
            with monkeypatch.context() as m:
                m.setattr(dec, "_fixes_labels", reference_fixes_labels)
                want = [(g.perms, g.origin) for g in structural_autotopies(t)]
            assert got == want
            assert not any(new)
            assert len(new) == checked.count(False)

    def test_is_autotopy_with_identity_on_values(self):
        rng = random.Random(7)
        for q in oracle_tables():
            if q.arity > 5:
                continue
            theta = random_isotopy(q.arity, rng)
            for parts in (theta.parts, (PERMS[0],) + theta.parts[1:],
                          (PERMS[0],) * (q.arity + 1)):
                theta = Isotopy(parts)
                want = np.array_equal(core._lookup(theta[0].images, q.table),
                                      core._gather(q.table, theta.parts[1:]))
                assert is_autotopy(q, theta) == want
