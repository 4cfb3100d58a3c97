import io
import logging
import pickle
import random
import tracemalloc

import numpy as np
import pytest

from qg4 import (
    ArityError,
    CapError,
    IDENTITY,
    PERMS,
    Isotopy,
    Perm,
    all_binary_quasigroups,
    are_isotopic,
    atp_join,
    autotopy_group,
    chain,
    close_isotopies,
    is_autotopy,
    is_transitive,
    linear,
    propagate,
    shifted_linear,
    stabilizer,
    xor2,
    z4,
    zero_anchor,
    zero_orbit,
)
from qg4 import autotopy, cli, qg4_text, semilinear
from qg4.autotopy import _ZERO_IMG, AutotopyGroup, greedy_generators
from qg4.decompose import find_split
from qg4.construct import (
    ConstructionTSpec,
    construction_t,
    random_semilinear_composition,
    semilinear_from_boolean,
)
from qg4.semilinear import semilinear_profile
from qg4.core import PERMS_FIXING

from conftest import latin_cubes, oracle_tables, random_isotopy


def P(*cycles):
    return Perm.from_cycles(*cycles)


class TestIsAutotopy:
    def test_z4_cycle_pair(self):
        assert is_autotopy(z4(), Isotopy((IDENTITY, P((0, 1, 2, 3)), P((0, 3, 2, 1)))))

    def test_z4_involution_pair(self):
        xi = P((0, 2), (1, 3))
        assert is_autotopy(z4(), Isotopy((xi, xi, IDENTITY)))

    def test_z4_negative(self):
        assert not is_autotopy(z4(), Isotopy((IDENTITY, P((0, 1)), IDENTITY)))

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            is_autotopy(z4(), Isotopy.identity(3))


class TestPropagate:
    def test_identity(self):
        theta = propagate(z4(), (0, 0, 0), IDENTITY)
        assert theta is not None and theta.is_identity

    def test_transposition_triple(self):
        theta = propagate(z4(), (0, 0, 0), P((1, 3)))
        assert theta == Isotopy((P((1, 3)),) * 3)

    def test_three_cycle_fails(self):
        assert propagate(z4(), (0, 0, 0), P((1, 2, 3))) is None

    def test_target_not_in_code(self):
        with pytest.raises(ValueError, match="code"):
            propagate(z4(), (1, 0, 0), IDENTITY)

    def test_theta0_inconsistent(self):
        with pytest.raises(ValueError, match="inconsistent"):
            propagate(z4(), (0, 0, 0), P((0, 1)))


class TestGroupOrders:
    def test_z4(self):
        assert autotopy_group(z4()).order == 32

    def test_xor2(self):
        assert autotopy_group(xor2()).order == 96

    def test_shifted_linear3(self):
        assert autotopy_group(shifted_linear(3)).order == 16

    def test_cap(self):
        with pytest.raises(CapError):
            autotopy_group(linear(4), cap=3)

    def test_generators_regenerate_group(self):
        for q in (z4(), shifted_linear(3)):
            g = autotopy_group(q)
            assert len(close_isotopies(g.generators)) == g.order

    def test_elements_sorted_and_closed(self):
        g = autotopy_group(z4())
        assert g.elements is not None and len(g.elements) == g.order
        assert list(g.elements) == sorted(g.elements, key=Isotopy.key)
        members = set(g.elements)
        for a in g.elements:
            assert a.inverse() in members
            for b in g.elements:
                assert a * b in members

    def test_elements_behave_as_the_sorted_tuple(self):
        g = autotopy_group(shifted_linear(3))
        items = tuple(sorted(close_isotopies(g.generators), key=Isotopy.key))
        assert g.elements == items and items == g.elements
        assert len(g.elements) == 16 and g.elements[0] == items[0] and g.elements[-1] == items[-1]
        assert tuple(g.elements) == items and list(reversed(g.elements)) == list(items[::-1])
        as_tuple = AutotopyGroup(g.order, g.generators, items)
        assert g == as_tuple == autotopy_group(shifted_linear(3)) and hash(g) == hash(as_tuple)

    def test_every_element_is_autotopy(self):
        q = shifted_linear(3)
        for theta in autotopy_group(q).elements:
            assert is_autotopy(q, theta)

    def test_ternary_group_axioms_exhaustive(self):
        elements = autotopy_group(shifted_linear(3)).elements
        members = set(elements)
        assert Isotopy.identity(3) in members
        for a in elements:
            assert a.inverse() in members
            for b in elements:
                assert a * b in members


class TestOrbitStabilizer:
    def test_product_identity(self, base_tables):
        # The search skips targets in the orbit of the subgroup it has found; that
        # is sound only once the whole stabilizer is in it, so cover stabilizers
        # of 2 and 6 elements.  `stabilizer` is an independent direct propagation.
        tables = [base_tables[name] for name in ("xor2", "z4", "g3", "h3", "sl3", "chain5")]
        tables += [random_semilinear_composition(5, seed) for seed in (103, 107)]
        sizes = set()
        for q in tables:
            size = stabilizer(q).size
            sizes.add(size)
            assert autotopy_group(q).order == len(zero_orbit(q)) * size
        assert {2, 6} <= sizes

    def test_transitive_families(self):
        assert is_transitive(linear(2))
        assert is_transitive(linear(3))
        assert is_transitive(z4())
        assert not is_transitive(shifted_linear(3))
        assert len(zero_orbit(shifted_linear(3))) == 8

    def test_stabilizer_members_fix_anchor(self, base_tables):
        for name in ("z4", "sl3", "chain5"):
            q = base_tables[name]
            witness = stabilizer(q)
            assert witness.base_tuple == zero_anchor(q)
            for theta in witness.members:
                assert theta.apply(witness.base_tuple) == witness.base_tuple

    def test_stabilizing_components_share_one_order(self, base_tables):
        # every permutation of an anchor-fixing autotopy has the same order
        for name in ("xor2", "z4", "g3", "h3", "sl3", "sl4"):
            for theta in stabilizer(base_tables[name]).members:
                orders = {p.order() for p in theta.parts}
                assert len(orders) == 1, (name, theta)

    def test_stabilizer_determined_by_any_single_permutation(self, base_tables):
        # distinct anchor-fixing autotopies differ in every coordinate
        for name in ("xor2", "z4", "sl3"):
            members = stabilizer(base_tables[name]).members
            for i in range(base_tables[name].arity + 1):
                column = [theta[i] for theta in members]
                assert len(set(column)) == len(members), (name, i)

    def test_linear_stabilizer_is_the_uniform_zero_fixers(self):
        for n in (2, 3):
            members = set(stabilizer(linear(n)).members)
            expected = {Isotopy((p,) * (n + 1)) for p in PERMS if p(0) == 0}
            assert members == expected
            assert len(members) == 6


class TestInvariance:
    def test_conjugation_invariance(self, base_tables):
        rng = random.Random(7)
        for name in ("z4", "sl3", "g3"):
            q = base_tables[name]
            order = autotopy_group(q).order
            theta = random_isotopy(q.arity, rng)
            assert autotopy_group(q.isotope(theta)).order == order

    def test_inversion_invariance(self, base_tables):
        for name in ("z4", "sl3", "chain5"):
            q = base_tables[name]
            order = autotopy_group(q).order
            for i in range(1, q.arity + 1):
                assert autotopy_group(q.inverse(i)).order == order


class TestAreIsotopic:
    def test_distinct_binary_classes(self):
        assert are_isotopic(xor2(), z4()) is None

    def test_round_trip(self):
        rng = random.Random(8)
        for seed in range(4):
            q = random_semilinear_composition(3, 800 + seed)
            theta = random_isotopy(3, rng)
            moved = q.isotope(theta)
            found = are_isotopic(q, moved)
            assert found is not None
            assert q.isotope(found) == moved

    def test_linear_class(self):
        composed = xor2().compose_at(xor2(), 1)
        found = are_isotopic(linear(3), composed)
        assert found is not None
        assert linear(3).isotope(found) == composed

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            are_isotopic(z4(), linear(3))


class TestJoin:
    def test_join_matches_direct_computation(self):
        # outer(inner(x1, x2), x3) with inner = z4, outer = xor2
        inner, outer = autotopy_group(z4()), autotopy_group(xor2())
        direct = autotopy_group(xor2().compose_at(z4(), 1))
        joined = atp_join(inner, outer, 2)
        assert joined.order == direct.order
        assert joined.elements == direct.elements

    def test_join_two_xor(self):
        g = autotopy_group(xor2())
        joined = atp_join(g, g, 2)
        assert joined.order == autotopy_group(linear(3)).order == 384

    def test_identity_only_inputs(self):
        from qg4.autotopy import AutotopyGroup

        only_id = AutotopyGroup(1, (), (Isotopy.identity(2),))
        joined = atp_join(only_id, only_id, 2)
        assert joined.order == 1
        assert joined.elements[0].is_identity

    def test_unmaterialized_rejected(self):
        from qg4.autotopy import AutotopyGroup

        g = autotopy_group(z4())
        bare = AutotopyGroup(g.order, g.generators, None)
        with pytest.raises(ValueError):
            atp_join(bare, g, 2)

    def test_join_above_the_table_cap_is_refused(self):
        # 24^13 < 2^63 < 24^14: a joined arity of 13 would wrap the int64 keys
        g = autotopy_group(chain(7), cap=7)
        with pytest.raises(CapError):
            atp_join(g, g, 7)
        with pytest.raises(CapError):
            autotopy._keys(np.array([[23] + [0] * 13], dtype=np.uint8))


class TestGreedyGenerators:
    def test_deterministic_and_minimal_by_greedy(self):
        g1 = autotopy_group(z4())
        g2 = autotopy_group(z4())
        assert g1.generators == g2.generators
        # each generator is outside the closure of the earlier ones
        for k in range(len(g1.generators)):
            prefix = g1.generators[:k]
            closed = close_isotopies(prefix) if prefix else {Isotopy.identity(2)}
            assert g1.generators[k] not in closed

    def test_rejects_non_closed_input(self):
        xi = P((0, 2), (1, 3))
        identity = Isotopy.identity(2)
        cycle = Isotopy((IDENTITY, P((0, 1, 2, 3)), IDENTITY))
        x, y, z = P((0, 1)), P((0, 2), (1, 3)), P((0, 1, 2, 3))
        for elements in ([Isotopy((xi, xi, IDENTITY))],  # no identity
                         [identity, cycle],  # the closure outgrows the set
                         [identity, identity],  # a repeated element
                         # every layer is a subgroup of S_4 and their orders
                         # multiply to 4, but (y, z)^2 = (id, z^2) is missing
                         [Isotopy((IDENTITY, IDENTITY)), Isotopy((IDENTITY, x)),
                          Isotopy((y, IDENTITY)), Isotopy((y, z))]):
            with pytest.raises(AssertionError):
                greedy_generators(elements)

    def test_cheap_checks_hold_on_the_search_path(self):
        # the search's _Elements skip the closure check, not the layer checks
        x, y, c = P((0, 1)), P((2, 3)), P((0, 1, 2, 3))
        for elements in ([(x, IDENTITY)],  # no identity
                         # <c> has order 4 = |S|, but the layer's values {id, c}
                         # are no subgroup
                         [(IDENTITY, IDENTITY), (c, IDENTITY), (c, x), (c, y)],
                         # the layer {id, x} is a subgroup, of order 2, not 3
                         [(IDENTITY, IDENTITY), (x, IDENTITY), (x, y)]):
            rows = np.array([[p.index for p in e] for e in elements], dtype=np.uint8)
            with pytest.raises(AssertionError):
                greedy_generators(autotopy._Elements(np.sort(autotopy._keys(rows)), rows.shape[1]))

    def test_keys_are_base_24_values(self):
        rng = np.random.default_rng(20)
        for arity in range(2, 13):  # 24^13 < 2^63: the widest all-23 row still fits
            rows = rng.integers(0, 24, size=(64, arity + 1), dtype=np.uint8)
            rows[0], rows[1] = 23, 0
            want = [sum(int(d) * 24**c for c, d in enumerate(reversed(r))) for r in rows]
            assert autotopy._keys(rows).tolist() == want
            assert np.array_equal(autotopy._rows(autotopy._keys(rows), arity + 1), rows)

    def test_coset_meeting_a_marked_target_is_caught(self):
        # H = the stabilizer and the search's first generator, with an orbit of
        # several targets, held as one row per target; a target of r * H other
        # than r(anchor) marked in advance must stop the extension by r
        q = z4()
        rows = autotopy._autotopies(q)[0].rows
        targets = autotopy._targets(rows)
        stab = rows[targets == 0]
        gens = np.concatenate([stab[stab.any(axis=1)], rows[targets == 1][:1]])
        orbit, open_ = np.zeros(4**q.arity, dtype=bool), np.ones(4**q.arity, dtype=bool)
        orbit[0] = True
        h = autotopy._extend(stab[:1], gens, orbit, open_)
        assert orbit.sum() >= 2 and len(h) == orbit.sum()
        r = rows[~orbit[targets]][:1]
        coset = autotopy._targets(autotopy._MUL_A[r[0], h])
        orbit[coset[coset != autotopy._targets(r)[0]][0]] = True
        with pytest.raises(AssertionError, match="marked target"):
            autotopy._extend(h, np.concatenate([gens, r]), orbit, open_)

    def test_matches_the_keyed_greedy(self):
        # the kernel-chain pass against the closure-per-generator greedy, on the
        # search's rows and on the same rows given raw in reverse order
        for q in oracle_tables():
            if q.arity <= 8:
                g = autotopy_group(q, cap=8)
                expected = keyed_greedy(g.elements.rows)
                assert list(g.generators) == expected
                assert greedy_generators(g.elements.rows[::-1].copy()) == expected


class TestContains:
    def test_every_element_is_a_member(self):
        g = autotopy_group(shifted_linear(3))
        assert all(theta in g for theta in g.elements)

    def test_random_non_members(self):
        q = shifted_linear(3)
        g = autotopy_group(q)
        rng = random.Random(11)
        outside = [t for t in (random_isotopy(3, rng) for _ in range(300))
                   if not is_autotopy(q, t)]
        assert len(outside) > 200
        assert not any(t in g for t in outside)

    def test_other_arity_is_not_a_member(self):
        g = autotopy_group(z4())
        assert Isotopy.identity(2) in g
        assert Isotopy.identity(3) not in g
        assert Isotopy.identity(1) not in g

    def test_unmaterialized_raises(self):
        from qg4.autotopy import AutotopyGroup

        g = autotopy_group(z4())
        with pytest.raises(ValueError):
            Isotopy.identity(2) in AutotopyGroup(g.order, g.generators, None)

    def test_membership_reads_the_keys(self):
        # linear(7) has 98,304 autotopies; the first membership test decodes
        # none of them, and one too wide to key is not a member
        q = linear(7)
        autotopy._sweep.cache_clear()
        g = autotopy_group(q, cap=8)
        tracemalloc.start()
        try:
            assert g.generators[-1] in g
            added = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert added < 2**20
        members = [a * b for a in g.generators for b in g.generators]
        rng = random.Random(12)
        outside = [t for t in (random_isotopy(7, rng) for _ in range(100)) if not is_autotopy(q, t)]
        assert all(is_autotopy(q, t) for t in members) and len(outside) > 90
        assert all(t in g for t in members) and not any(t in g for t in outside)
        assert Isotopy.identity(7) in g
        assert not any(Isotopy.identity(k) in g for k in (1, 6, 8, 14))


# ---------------------------------------------------------------------------
# Oracle: the batched sweep against single-candidate routes kept in tests
# ---------------------------------------------------------------------------

def scalar_sweep(q):
    """Every (target, theta_0) candidate through the public `propagate`."""
    c0 = q(*(0,) * q.arity)
    hits = []
    for target in q.code_tuples():
        for theta0 in PERMS_FIXING[c0][target[0]]:
            found = propagate(q, target, theta0)
            if found is not None:
                hits.append(found)
    return hits


def scalar_greedy(elements):
    """Greedy generators with Isotopy products and a set of known elements."""
    ordered = sorted(elements, key=Isotopy.key)
    known, gens = {Isotopy.identity(ordered[0].arity)}, []
    for e in ordered:
        if e not in known:
            gens.append(e)
            frontier = [x * e for x in known]
            while frontier:
                fresh = {x for x in frontier if x not in known}
                known |= fresh
                frontier = [x * g for x in fresh for g in gens]
    assert len(known) == len(ordered)
    return gens


def keyed_greedy(rows):
    """Greedy generators as computed before the kernel-chain pass: each pick,
    the first element not yet known, extends the known subgroup by its new
    right cosets, with elements indexed by their position in key order."""
    keys = autotopy._keys(rows)
    order = np.argsort(keys)
    rows, keys = rows[order], keys[order]

    def index(r):
        k = autotopy._keys(r)
        pos = np.minimum(np.searchsorted(keys, k), len(keys) - 1)
        assert (keys[pos] == k).all()
        return pos

    def extend(known, gens):
        grown, todo = [], gens[-1:]
        while len(todo):
            reps = []
            while len(todo := todo[~member[index(todo)]]):
                reps.append(todo[0])
                grown.append(autotopy._MUL_A[known, todo[0]])
                member[index(grown[-1])] = True
            todo = (autotopy._MUL_A[np.array(reps)[:, None, :], gens].reshape(-1, gens.shape[1])
                    if reps else [])
        return np.concatenate(grown)

    member = np.zeros(len(keys), dtype=bool)
    known, gens = np.zeros_like(rows[:1]), rows[:0]
    member[index(known)] = True
    while not member.all():
        gens = np.concatenate([gens, rows[[np.argmin(member)]]])
        known = np.concatenate([known, extend(known, gens)])
    return autotopy._isotopies(gens)


def scalar_isotopy(q1, q2):
    """The first candidate theta, in sweep order, with q1.isotope(theta) == q2."""
    n = q1.arity
    zero_secs = [q2.zero_section(i) for i in range(1, n + 1)]
    c0 = q2(*(0,) * n)
    for target in q1.code_tuples():
        b = target[1:]
        inv = [q1.section(i, b[: i - 1] + b[i:]).inverse() for i in range(1, n + 1)]
        for theta0 in PERMS_FIXING[c0][target[0]]:
            theta = Isotopy([theta0] + [s * theta0 * z for s, z in zip(inv, zero_secs)])
            if q1.isotope(theta) == q2:
                return theta
    return None


def assert_matches_scalar(q):
    hits = scalar_sweep(q)
    g = autotopy_group(q)
    assert g.order == len(hits)
    assert list(g.elements) == sorted(hits, key=Isotopy.key)
    assert list(g.generators) == scalar_greedy(hits)
    assert zero_orbit(q) == {h.apply(zero_anchor(q)) for h in hits}


class TestBatchedMatchesScalar:
    def test_all_binary_squares(self):
        for q in all_binary_quasigroups():
            assert_matches_scalar(q)

    def test_random_compositions(self):
        for k in range(30):
            assert_matches_scalar(random_semilinear_composition(3 + k % 3, 1200 + k))

    def test_named_families(self, base_tables):
        for name in ("l3", "l4", "sl3", "sl4", "g3", "h3"):
            assert_matches_scalar(base_tables[name])
        assert_matches_scalar(construction_t(ConstructionTSpec.random(5, 3))[1])

    def test_first_isotopy_witness(self):
        rng = random.Random(13)
        found = 0
        for k in range(100):
            n = 2 + k % 3
            q1 = random_semilinear_composition(n, 1400 + k)
            if k % 2:
                q2 = q1.isotope(random_isotopy(n, rng))
            else:
                q2 = random_semilinear_composition(n, 1600 + k).isotope(random_isotopy(n, rng))
            witness = are_isotopic(q1, q2)
            assert witness == scalar_isotopy(q1, q2), k
            found += witness is not None
        assert 50 <= found < 100

    def test_check_blocks_over_leading_axes(self, monkeypatch):
        # a check block spanning fewer axes than the table walks the leading ones
        tables = [linear(4), random_semilinear_composition(5, 1800)]
        expected = [autotopy._autotopies(q)[0].keys for q in tables]
        monkeypatch.setattr(autotopy, "CHECK_AXES", 2)
        for q, keys in zip(tables, expected):
            assert (autotopy._autotopies(q)[0].keys == keys).all()
            moved = q.isotope(random_isotopy(q.arity, random.Random(1)))
            hit = autotopy._first_isotopy(q, moved)
            assert len(hit) == 1
            assert autotopy._isotopies(hit) == [scalar_isotopy(q, moved)]


class TestSectionPruning:
    def test_no_group_target_is_pruned(self, monkeypatch):
        # the search without the filter is the reference; at arity 9 it takes
        # about a second a table, so those are left out
        tables = [q for q in oracle_tables() if q.arity <= 8]
        keeps = [autotopy._Candidates(q, q).matching() for q in tables]
        pruned = [autotopy._autotopies(q)[0].rows for q in tables]
        monkeypatch.setattr(autotopy._Candidates, "matching",
                            lambda self: np.ones(4**self.n, dtype=bool))
        for q, keep, rows in zip(tables, keeps, pruned):
            reference = autotopy._autotopies(q)[0].rows
            assert keep[autotopy._targets(reference)].all()
            assert np.array_equal(rows, reference)

    def test_filter_keeps_exactly_the_orbit(self):
        q = random_semilinear_composition(5, 100)
        keep = autotopy._Candidates(q, q).matching()
        assert np.array_equal(np.flatnonzero(keep), autotopy._orbit(q, 6))
        assert keep.sum() == 64

    def test_isotopy_search_prunes_by_the_constraint_anchor(self, caplog):
        # every section of linear(4) is Klein-type; z4-chains have Z4-type ones
        q1, q2 = linear(4), z4().compose_at(z4(), 1).compose_at(z4(), 1)
        with caplog.at_level(logging.DEBUG, logger="qg4"):
            assert are_isotopic(q1, q2) is None
        (record,) = [r for r in caplog.records if r.name == "qg4"]
        assert record.args[1] == 6  # the first target only


def reference_section_filter(q1, q2, cubes=True):
    """The section-class filter from whole-mask sums: each pair's classes are
    compared with the anchor's, and each cube count along x_k is the pair
    mask summed over axis k, broadcast back over x_i, x_j and x_k."""
    n = q1.arity
    keep = np.ones((4,) * n, dtype=bool)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for (i, j), mine, theirs in zip(pairs, autotopy._klein(q1.table.ravel(), n),
                                    autotopy._klein(q2.table.ravel(), n)):
        mine, theirs = mine.reshape((4,) * (n - 2)), theirs.reshape((4,) * (n - 2))
        keep &= np.expand_dims(mine == theirs.flat[0], (i, j))
        for axis in range(n - 2 if cubes else 0):
            counts = mine.sum(axis=axis, keepdims=True)
            anchor = theirs.sum(axis=axis, keepdims=True).flat[0]
            keep &= np.expand_dims(counts == anchor, (i, j))
    return keep.ravel()


class TestCubeCounts:
    def test_filter_keeps_exactly_the_orbit_of_the_second_base(self):
        # the pair classes alone keep 320 targets of this benchmark base
        q = random_semilinear_composition(5, 101)
        keep = autotopy._Candidates(q, q).matching()
        assert np.array_equal(np.flatnonzero(keep), autotopy._orbit(q, 6))
        assert reference_section_filter(q, q, cubes=False).sum() == 320

    def test_gathered_counts_match_whole_mask_sums(self):
        tables = [q for q in oracle_tables() if q.arity <= 7]
        for q1, q2 in zip(tables, tables[1:] + tables[:1]):
            expected = reference_section_filter(q1, q1)
            assert np.array_equal(autotopy._Candidates(q1, q1).matching(), expected)
            if q2.arity == q1.arity:
                expected = reference_section_filter(q1, q2)
                assert np.array_equal(autotopy._Candidates(q1, q2).matching(), expected)


class TestSearchLog:
    def test_one_debug_record_per_sweep(self, caplog, monkeypatch):
        # a transitive group, which never computes section classes, and chain(5),
        # whose small orbit they prune; both semilinear, so searched with the
        # closed form and the join turned off
        monkeypatch.setattr(autotopy, "_closed_form", lambda q: None)
        monkeypatch.setattr(autotopy, "_split_join", lambda q: None)
        autotopy._sweep.cache_clear()
        for q, engaged in ((random_semilinear_composition(4, 1900), False), (chain(5), True)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="qg4"):
                order = autotopy_group(q).order
                assert is_transitive(q) is not None  # cached: no second sweep
            (record,) = [r for r in caplog.records if r.name == "qg4"]
            assert record.levelno == logging.DEBUG
            (arity, candidates, pruned, survivors, skipped, checks, hits, generators,
             logged) = record.args
            assert (arity, candidates, logged) == (q.arity, 6 * 4**q.arity, order)
            assert (pruned > 0) == engaged
            # a candidate is pruned, rejected by the probe, skipped in the orbit or checked
            rejected = candidates - 6 * pruned - survivors
            assert rejected >= 0 and survivors == checks + skipped
            assert candidates >= survivors
            assert checks >= hits >= generators > 0
            assert f"{candidates} candidates, {pruned} targets pruned" in record.getMessage()

    def test_orbit_targets_are_not_table_checked(self, caplog, monkeypatch):
        # a linear base (group order 6 * 4^5) and the arity-6 benchmark base (8,192),
        # searched with the closed form and the join turned off
        tables = [random_semilinear_composition(5, 103), random_semilinear_composition(5, 104),
                  random_semilinear_composition(6, 108)]
        monkeypatch.setattr(autotopy, "_closed_form", lambda q: None)
        monkeypatch.setattr(autotopy, "_split_join", lambda q: None)
        autotopy._sweep.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="qg4"):
            orders = [autotopy_group(q).order for q in tables]
        assert orders == [6144, 6144, 8192]
        for record in caplog.records:
            checks, order = record.args[5], record.args[-1]
            assert checks <= 64 < order

    def test_isotopy_search_stops_at_the_first_hit(self, caplog):
        q = linear(4)
        with caplog.at_level(logging.DEBUG, logger="qg4"):
            assert are_isotopic(q, q) is not None
        (record,) = [r for r in caplog.records if r.name == "qg4"]
        _, candidates, survivors, checks, hits = record.args
        # the identity sits at the first target: the sweep ends with its six candidates
        assert (candidates, hits) == (6, 1) and checks <= survivors

    def test_default_level_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "q.qg4"
        path.write_text(qg4_text(random_semilinear_composition(3, 1901)))
        out = io.StringIO()
        assert cli.run(["atp", str(path), "--generators"], out=out) == 0
        assert out.getvalue().startswith("order ")
        assert capsys.readouterr() == ("", "")


class TestOrbitStabilizerSweep:
    def test_cached_orbit_and_stabilizer_against_independent_routes(self, caplog, monkeypatch):
        # the orbit recomputed from every row, the stabilizer by scalar
        # propagation; every element keyed exactly once, and no _targets call
        # in is_transitive; the closed form and the join are turned off, so every
        # table is searched
        monkeypatch.setattr(autotopy, "_closed_form", lambda q: None)
        monkeypatch.setattr(autotopy, "_split_join", lambda q: None)
        counts = {"_keys": 0, "_targets": 0}  # rows keyed; calls
        for name in counts:
            def counted(rows, name=name, fn=getattr(autotopy, name)):
                counts[name] += len(rows) if name == "_keys" else 1
                return fn(rows)
            monkeypatch.setattr(autotopy, name, counted)
        for q in oracle_tables():
            if q.arity > 6:
                continue
            autotopy._sweep.cache_clear()
            n, keys_before = q.arity, counts["_keys"]
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="qg4"):
                g = autotopy_group(q)
            (record,) = [r for r in caplog.records if r.name == "qg4"]
            _, _, _, survivors, skipped, checks, hits, generators, _ = record.args
            assert survivors == checks + skipped and checks >= hits >= generators
            assert counts["_keys"] == keys_before + g.order
            record, orbit = autotopy._sweep(q)
            rows, keys = record.elements.rows, record.elements.keys
            targets = _ZERO_IMG[rows[:, 1:]] @ 4 ** np.arange(n - 1, -1, -1)
            assert np.array_equal(np.flatnonzero(orbit), np.unique(targets))
            stab = stabilizer(q).members
            assert autotopy._isotopies(rows[targets == 0]) == list(stab)
            assert g.order == orbit.sum() * len(stab) == len(keys)
            targets_before = counts["_targets"]
            assert is_transitive(q) == (len(zero_orbit(q)) == 4**n)
            assert counts["_targets"] == targets_before

    def test_orbit_stabilizer_above_arity_6(self):
        # the count check and the closure of the rows, given raw, at arity 7 and 9
        for q in (chain(9), construction_t(ConstructionTSpec.random(9, 1))[1], linear(7)):
            g = autotopy_group(q, cap=9)
            rows, orbit = g.elements.rows, autotopy._sweep(q)[1]
            assert g.order == orbit.sum() * stabilizer(q, cap=9).size == len(rows)
            assert greedy_generators(rows.copy()) == list(g.generators)

    def test_the_cache_holds_one_table(self):
        autotopy._sweep.cache_clear()
        for q in (linear(3), chain(5), random_semilinear_composition(4, 1900)):
            autotopy_group(q)
        assert autotopy._sweep.cache_info().currsize == 1

    def test_the_cache_pins_no_rows_above_the_limit(self, monkeypatch):
        # linear(8) has 393,216 autotopies, 3.5 MB of rows and 3.1 MB of keys
        monkeypatch.setattr(autotopy, "MATERIALIZE_LIMIT", 1000)
        q = linear(8)
        autotopy._sweep.cache_clear()
        tracemalloc.start()
        try:
            g = autotopy_group(q, cap=8)
            assert g.elements is None and g.order == 6 * 4**8
            del g
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2**20
        assert is_transitive(q, cap=8)  # the orbit is still cached
        assert autotopy._sweep.cache_info().hits == 1

    def test_the_group_is_held_as_its_keys(self):
        # linear(8) has 393,216 autotopies: 3.1 MB of keys, 3.5 MB as rows
        autotopy._sweep.cache_clear()
        tracemalloc.start()
        try:
            g = autotopy_group(linear(8), cap=8)
            search_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            gens = greedy_generators(g.elements)
            greedy_added = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert gens == list(g.generators)
        assert search_peak < 10 * 2**20 and greedy_added < 2**20

    def test_the_search_holds_no_row_per_element(self):
        # linear(9) has 1,572,864 autotopies, 12 MiB of keys: H is held as one
        # row per orbit target and the stabilizer, so the keys set the peak
        autotopy._sweep.cache_clear()
        tracemalloc.start()
        try:
            g = autotopy_group(linear(9), cap=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.order == 6 * 4**9 and peak < 2 * 8 * g.order

    def test_the_sweep_holds_no_row_per_element(self):
        # the same bound on the search itself, which linear tables now skip
        tracemalloc.start()
        try:
            elements, _ = autotopy._autotopies(linear(9))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(elements) == 6 * 4**9 and peak < 2 * 8 * len(elements)

    def test_keys_match_the_closure_of_the_generators(self):
        # the keys filled from reps * stab against a set closure of the
        # generators, on every group of at most 4,096 elements up to arity 8
        checked = 0
        for q in oracle_tables():
            if q.arity <= 8 and (g := autotopy_group(q, cap=8)).order <= 4096:
                closed = autotopy._to_rows(close_isotopies(g.generators))
                assert np.array_equal(g.elements.keys, np.sort(autotopy._keys(closed)))
                checked += 1
        assert checked > 800


def boolean_tables(rng):
    """semilinear_from_boolean tables at n = 2..7 under random isotopies: for each n
    a random b, a quadratic b (order 2 * 4^n) and a b whose V is a proper subspace."""
    for n in range(2, 8):
        u = np.arange(2**n)
        bits = u[:, None] >> np.arange(n) & 1
        random_b = [rng.getrandbits(1) for _ in range(2**n)]
        quadratic = bits[:, 0] & bits[:, 1] ^ bits[:, -1]
        partial = (bits[:, 0] & bits[:, 1] & bits[:, -1]) if n > 2 else random_b
        for b in (random_b, quadratic, partial):
            q = semilinear_from_boolean(b)
            yield q.isotope(random_isotopy(n, rng))


class TestClosedForm:
    """Linear tables and tables with one semilinear assignment get their group in
    closed form; the keys and the orbit must be the search's."""

    def test_keys_and_orbit_equal_the_search(self):
        rng = random.Random(2626)
        tables = [q for q in oracle_tables() if len(semilinear_profile(q).assignments) in (1, 3)]
        assert len(tables) == 732
        tables += [linear(n).isotope(random_isotopy(n, rng)) for n in range(1, 10)]
        tables += list(boolean_tables(rng))
        for q in tables:
            closed = autotopy._closed_form(q)
            elements, orbit = autotopy._autotopies(q)
            assert np.array_equal(closed[0].keys, elements.keys)
            assert np.array_equal(closed[1], orbit)

    def test_the_order_is_2_to_the_n_plus_1_times_v(self):
        # |Atp| = 2^(n+1) |V| on one assignment, the orbit 2^n |V|
        rng = random.Random(2627)
        for q in boolean_tables(rng):
            n, form = q.arity, semilinear.boolean_form(q)
            g = autotopy_group(q, cap=7)
            assert g.order == 2 ** (n + 1) * len(form.shifts) <= 2 * 4**n
            assert len(zero_orbit(q, cap=7)) == 2**n * len(form.shifts)

    def test_other_profiles_are_searched(self):
        q = random_semilinear_composition(5, 101)  # a benchmark base, not semilinear
        assert not semilinear_profile(q).assignments and autotopy._closed_form(q) is None

    def test_needs_no_numpy_2_ufunc(self, monkeypatch):
        # numpy 1.24 is supported, and np.bitwise_count arrived in numpy 2.0
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        for q in [shifted_linear(5), *list(boolean_tables(random.Random(2628)))[:9]]:
            closed = autotopy._closed_form(q)
            elements, orbit = autotopy._autotopies(q)
            assert np.array_equal(closed[0].keys, elements.keys)
            assert np.array_equal(closed[1], orbit)

    def test_one_debug_record_per_computation_on_each_route(self, caplog, monkeypatch):
        # the join's split is searched first, so the table's one record is the join's;
        # every Latin table of arity 3 or more splits or has a closed form, so the
        # sweep is reached with the join turned off
        routes = {"linear": linear(4).isotope(random_isotopy(4, random.Random(1))),
                  "boolean": shifted_linear(5),
                  "join": random_semilinear_composition(5, 101),
                  "sweep": random_semilinear_composition(5, 101)}
        assert find_split(routes["join"]) is not None
        for method, q in routes.items():
            if method == "sweep":
                monkeypatch.setattr(autotopy, "_split_join", lambda q: None)
            autotopy._sweep.cache_clear()
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="qg4"):
                order = autotopy_group(q).order
                assert is_transitive(q) is not None and zero_orbit(q)  # cached: computed once
            (record,) = [r for r in caplog.records if r.name == "qg4"]
            assert record.levelno == logging.DEBUG
            assert record.getMessage().startswith(f"{method}: arity {q.arity}, ")
            assert record.args[0] == q.arity and record.args[-1] == order


class TestSplitJoin:
    """A table with no closed form that splits gets its group as the fiber product of
    its factors' groups; the keys, the orbit and the generators must be the search's."""

    def check(self, q):
        # autotopy_group at the table's arity as the cap; no closed form, and the
        # split the join found is kept on q
        autotopy._sweep.cache_clear()
        g = autotopy_group(q, cap=q.arity)
        orbit = autotopy._sweep(q)[1]
        assert not semilinear_profile(q).assignments and q._split
        elements, searched = autotopy._autotopies(q)
        assert np.array_equal(g.elements.keys, elements.keys)
        assert np.array_equal(orbit, searched)
        assert list(g.generators) == greedy_generators(elements)

    def test_equals_the_search_on_the_oracle(self):
        tables = [q for q in oracle_tables() if not semilinear_profile(q).assignments]
        assert len(tables) == 123 and {q.arity for q in tables} == set(range(3, 10))
        for q in tables:
            self.check(q)

    def test_equals_the_search_on_cubes_without_an_assignment(self):
        sample = random.Random(2727).sample(latin_cubes(), 700)
        cubes = [q for q in sample if not semilinear_profile(q).assignments]
        assert len(cubes) > 150
        for q in cubes:
            self.check(q)

    def test_equals_the_search_at_arity_10_and_11(self):
        for q in (chain(10), construction_t(ConstructionTSpec.random(11, 1))[1]):
            self.check(q)

    def test_one_join_record_after_the_split_records(self, caplog):
        # chain(7)'s outer factor is a join in turn: each split searched logs its
        # split: record, and the group logs one record, the top join's
        q = chain(7)
        autotopy._sweep.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="qg4"):
            order = autotopy_group(q, cap=7).order
        records = [r for r in caplog.records if r.name == "qg4"]
        splits = [r for r in records if r.getMessage().startswith("split: ")]
        (record,) = [r for r in records if r not in splits]
        assert record.getMessage() == ("join: arity 7, subset (1, 2, 3), inner boolean "
                                       f"order 16, outer join order 16, order {order}")
        assert [r.args[0] for r in splits] == [7, 5] and splits[0].args[-1] == (1, 2, 3)

    def test_the_decomposition_reuses_the_kept_split(self, caplog, tmp_path):
        # analyze computes the group first: its join keeps the split on the table,
        # and the decomposition that follows reads it, with the same factor objects
        q = random_semilinear_composition(5, 101)
        autotopy._sweep.cache_clear()  # the cache answers for an equal table without a join
        autotopy_group(q)
        subset, inner, outer = q._split
        with caplog.at_level(logging.DEBUG, logger="qg4"):
            assert find_split(q)[1] is inner and find_split(q)[2] is outer
        assert not caplog.records
        path = tmp_path / "q.qg4"
        path.write_text(qg4_text(q))
        autotopy._sweep.cache_clear()
        with caplog.at_level(logging.DEBUG, logger="qg4"):
            assert cli.run(["analyze", str(path), "--json"], out=io.StringIO()) == 0
        arities = [r.args[0] for r in caplog.records if r.getMessage().startswith("split: ")]
        assert arities.count(5) == 1

    def test_a_pickled_table_loads_without_its_split(self):
        q = random_semilinear_composition(5, 101)
        assert find_split(q)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            loaded = pickle.loads(pickle.dumps(q, protocol))
            assert loaded == q and loaded._split is None
            assert find_split(loaded) == q._split

    def test_atp_join_of_the_factor_groups_is_the_searched_group(self):
        # both tables split at a leading subset, so atp_join's argument order is q's
        for q in (chain(7), random_semilinear_composition(5, 101)):
            subset, inner, outer = find_split(q)
            assert subset == tuple(range(1, len(subset) + 1))
            joined = atp_join(autotopy_group(inner, cap=7), autotopy_group(outer, cap=7),
                              len(subset))
            elements, _ = autotopy._autotopies(q)
            assert np.array_equal(joined.elements.keys, elements.keys)
            assert list(joined.generators) == greedy_generators(elements)
