import itertools
import random

import pytest

from qg4 import (
    ArityError,
    CapError,
    ConstructionTSpec,
    Isotopy,
    Perm,
    Quasigroup,
    all_binary_quasigroups,
    autotopy_group,
    builtin,
    chain,
    chain_tree,
    construction_t,
    g3,
    h3,
    is_autotopy,
    is_reduced,
    linear,
    minimality_conditions,
    semilinear_profile,
    shifted_linear,
    tree_eval,
    tree_stats,
    xor2,
    z4,
)
from qg4.construct import (
    _chain_blocks,
    partition_stabilizer,
    random_semilinear_composition,
    semilinear_from_boolean,
)
from qg4.core import _latin_violation
from qg4.semilinear import PARTITIONS, PairPartition
from qg4 import are_isotopic


def P(*cycles):
    return Perm.from_cycles(*cycles)


class TestBuiltins:
    def test_values(self):
        assert builtin("z4")(1, 1) == 2
        assert builtin("xor2")(1, 1) == 0
        assert builtin("h3")(1, 1, 1) == 3
        assert builtin("g3")(1, 2, 3) == 0

    def test_g3_is_the_mixed_composition(self):
        oracle = Quasigroup.from_callable(3, lambda a, b, c: a ^ ((b + c) % 4))
        assert g3() == oracle

    def test_h3_is_the_mod4_sum(self):
        oracle = Quasigroup.from_callable(3, lambda a, b, c: (a + b + c) % 4)
        assert h3() == oracle

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin("z5")

    def test_foreign_involution_autotopies(self):
        # both reducible ternary classes admit autotopies made of foreign
        # involutions, which rules them out of the minimal family
        phi = P((0, 1), (2, 3))
        psi = P((0, 3), (1, 2))
        ident = Perm((0, 1, 2, 3))
        assert is_autotopy(g3(), Isotopy((phi, phi, ident, ident)))
        assert is_autotopy(h3(), Isotopy((phi, phi, phi, psi)))
        foreign = {phi, psi}
        full = [e for e in autotopy_group(h3()).elements
                if all(p in foreign for p in e.parts)]
        assert len(full) == 8

    def test_ternary_classes_pairwise_nonisotopic(self):
        reps = [linear(3), shifted_linear(3), g3(), h3()]
        for a, b in itertools.combinations(reps, 2):
            assert are_isotopic(a, b) is None


class TestLinearFamily:
    def test_small_cases(self):
        assert linear(2) == xor2()
        assert linear(3)(1, 2, 3) == 1 ^ 2 ^ 3
        assert autotopy_group(linear(2)).order == 96

    def test_shifted_values(self):
        sl3 = shifted_linear(3)
        assert sl3(0, 0, 0) == 2
        assert sl3(1, 0, 0) == 1
        assert sl3(2, 2, 2) == (2 ^ 2 ^ 2) ^ 2
        for x in itertools.product(range(4), repeat=3):
            expect = x[0] ^ x[1] ^ x[2]
            if set(x) <= {0, 2}:
                expect ^= 2
            assert sl3(*x) == expect

    def test_shifted_orders(self):
        for n in (3, 4):
            assert autotopy_group(shifted_linear(n)).order == 2 ** (n + 1)


class TestChain:
    def test_orders(self):
        assert autotopy_group(chain(5)).order == 16
        assert autotopy_group(chain(6)).order == 32

    def test_arities_and_latin(self):
        for n in range(5, 9):
            q = chain(n)
            assert q.arity == n
            Quasigroup(q.table)  # revalidates

    def test_too_short(self):
        with pytest.raises(ArityError):
            chain(4)

    def test_above_the_table_cap(self):
        for n in (13, 3001):  # refused before a deep tree is evaluated
            with pytest.raises(CapError):
                chain(n)

    def test_matches_the_block_by_block_composition(self):
        for n in range(5, 12):
            blocks = _chain_blocks(n)
            q = blocks[0]
            for label in blocks[1:]:
                q = label.compose_at(q, 1)
            assert chain(n) == q

    def test_tree_matches(self):
        for n in (5, 6, 7):
            t = chain_tree(n)
            assert tree_eval(t) == chain(n)
            assert is_reduced(t)
        # the degree conditions characterize odd arities; even chains carry
        # a degree-5 block and are not in that family
        assert minimality_conditions(chain_tree(5)).satisfied
        assert minimality_conditions(chain_tree(7)).satisfied
        assert not minimality_conditions(chain_tree(6)).no_high_degree


class TestConstructionT:
    def test_two_node_path_is_chain5_class(self):
        spec = ConstructionTSpec(node_count=2, skeleton_edges=((0, 1),))
        tree, q = construction_t(spec)
        assert q.arity == 5
        assert are_isotopic(q, chain(5)) is not None

    def test_single_node_gives_minimal_ternary(self):
        spec = ConstructionTSpec(node_count=1, skeleton_edges=())
        tree, q = construction_t(spec)
        assert q.arity == 3
        assert autotopy_group(q).order == 16
        assert are_isotopic(q, shifted_linear(3)) is not None

    def test_seeded_outputs_reduced_and_minimal(self):
        for seed in range(6):
            spec = ConstructionTSpec.random(7, seed)
            tree, q = construction_t(spec)
            assert q.arity == 7
            assert is_reduced(tree)
            assert minimality_conditions(tree).satisfied
            assert tree_eval(tree) == q

    def test_exact_order_at_n5(self):
        for seed in range(5):
            tree, q = construction_t(ConstructionTSpec.random(5, seed))
            assert autotopy_group(q).order == 16

    def test_split_creates_bridge_and_bald_pair(self):
        spec = ConstructionTSpec(
            node_count=4,
            skeleton_edges=((0, 1), (0, 2), (0, 3)),
            splits=((0, 2),),
        )
        tree, q = construction_t(spec)
        stats = tree_stats(tree)
        assert stats.n_bridges == 1
        assert stats.n_bald == 1
        assert stats.n_bunches == 4
        assert minimality_conditions(tree).satisfied

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            construction_t(ConstructionTSpec(node_count=0, skeleton_edges=()))
        with pytest.raises(ValueError):
            construction_t(ConstructionTSpec(node_count=2, skeleton_edges=()))
        with pytest.raises(ValueError):
            # node 0 has degree 1, not eligible for a split
            construction_t(ConstructionTSpec(
                node_count=2, skeleton_edges=((0, 1),), splits=((0, 1),)))
        with pytest.raises(ArityError):
            ConstructionTSpec.random(6, 0)

    def test_flip_swaps_colors(self):
        spec = ConstructionTSpec(node_count=1, skeleton_edges=())
        _, q_plain = construction_t(spec)
        spec_flipped = ConstructionTSpec(
            node_count=1, skeleton_edges=(), bipartition_flip=True)
        _, q_flipped = construction_t(spec_flipped)
        p_plain = semilinear_profile(q_plain).uniform_partition()
        p_flipped = semilinear_profile(q_flipped).uniform_partition()
        assert {p_plain.partner, p_flipped.partner} == {1, 2}

    def test_label_twists_validated(self):
        bad = ConstructionTSpec(
            node_count=1, skeleton_edges=(),
            label_twists=((0, (2, 0, 0, 0)),))  # the (12) swap breaks {0,1}
        with pytest.raises(ValueError):
            construction_t(bad)

    def test_deterministic_per_seed(self):
        a = construction_t(ConstructionTSpec.random(9, 42))
        b = construction_t(ConstructionTSpec.random(9, 42))
        assert a[1] == b[1]


class TestPartitionStabilizer:
    def test_eight_elements_preserving_partition(self):
        for partner in (1, 2, 3):
            part = PairPartition(partner)
            stab = partition_stabilizer(part)
            assert len(stab) == 8
            for p in stab:
                assert part.image_under(p.inverse()) is part


class TestEnumeration:
    def test_576_squares(self):
        squares = list(all_binary_quasigroups())
        assert len(squares) == 576
        assert len(set(squares)) == 576


class TestRandomCompositions:
    def test_latin_and_arity(self):
        for arity in (2, 3, 4, 5, 6):
            q = random_semilinear_composition(arity, arity * 17)
            assert q.arity == arity
            Quasigroup(q.table)

    def test_reproducible(self):
        assert (random_semilinear_composition(4, 5)
                == random_semilinear_composition(4, 5))


class TestSemilinearFromBoolean:
    def test_latin_and_semilinear_for_random_b(self):
        rng = random.Random(1414)
        for n in range(1, 9):
            for _ in range(3):
                b = [rng.getrandbits(1) for _ in range(2**n)]
                q = semilinear_from_boolean(b)
                assert q.arity == n and _latin_violation(q.table) is None
                assert (PARTITIONS[0],) * (n + 1) in semilinear_profile(q).assignments
                for x in (tuple(rng.randrange(4) for _ in range(n)) for _ in range(20)):
                    u = sum((xi >> 1) << (n - 1 - i) for i, xi in enumerate(x))
                    high = sum(xi >> 1 for xi in x) % 2
                    low = (sum(xi & 1 for xi in x) + b[u]) % 2
                    assert q(*x) == 2 * high + low

    def test_affine_b_is_linear(self):
        for b in ([0, 0, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0]):
            assert semilinear_profile(semilinear_from_boolean(b)).is_linear

    def test_bad_input(self):
        for b in ([], [0], [0, 1, 0], [0, 2, 1, 0]):
            with pytest.raises(ValueError):
                semilinear_from_boolean(b)
