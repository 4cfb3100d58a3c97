import itertools
import os
import pickle
import random
import subprocess
import sys
import threading
from collections import Counter

import pytest

from qg4 import (
    IDENTITY,
    all_binary_quasigroups,
    Isotopy,
    Perm,
    autotopy_group,
    canonical_semilinear_autotopies,
    close_isotopies,
    is_autotopy,
    is_linear,
    is_semilinear,
    is_semilinear_in_pair,
    linear,
    native_elements,
    semilinear_profile,
    shifted_linear,
    xor2,
    z4,
)
import numpy as np

from qg4 import semilinear
from qg4.core import Quasigroup
from qg4.semilinear import PairPartition, PARTITIONS
from qg4.construct import chain, random_semilinear_composition
from qg4.decompose import (full_decomposition, iter_nodes, proper_decomposition,
                           reduce_decomposition)

from conftest import acceptance_corpus, latin_cubes, oracle_tables, random_isotopy

P01, P02, P03 = PARTITIONS


def P(*cycles):
    return Perm.from_cycles(*cycles)


class TestPairPartition:
    def test_three_partitions(self):
        assert {p.partner for p in PARTITIONS} == {1, 2, 3}
        assert PairPartition(2) is P02

    def test_of_pair_up_to_complement(self):
        assert PairPartition.of_pair(0, 2) is P02
        assert PairPartition.of_pair(1, 3) is P02
        assert PairPartition.of_pair(2, 3) is P01

    def test_image(self):
        tau = P((1, 2))
        assert P02.image_under(tau) is P01
        assert P01.image_under(tau) is P02
        assert P03.image_under(tau) is P03


class TestProfile:
    def test_z4_unique_assignment(self):
        profile = semilinear_profile(z4())
        assert profile.assignments == ((P02, P02, P02),)
        assert profile.uniform_partition() is P02
        assert not profile.is_linear

    def test_xor2_all_assignments(self):
        profile = semilinear_profile(xor2())
        assert len(profile.assignments) == 3
        assert profile.is_linear
        assert {a[0] for a in profile.assignments} == set(PARTITIONS)

    def test_incoherent_composition_not_semilinear(self):
        assert not is_semilinear(chain(5))
        assert semilinear_profile(chain(5)).assignments == ()

    def test_shifted_linear(self):
        for n in (3, 4):
            profile = semilinear_profile(shifted_linear(n))
            assert profile.assignments == ((P02,) * (n + 1),)


class TestQuotientSoundness:
    def test_assignments_against_block_scan(self):
        # independent oracle: enumerate every block choice of an assignment
        # and check the image is contained in one output block
        rng = random.Random(10)
        cases = [z4(), xor2(), shifted_linear(3),
                 linear(3).isotope(random_isotopy(3, rng)),
                 z4().isotope(random_isotopy(2, rng))]
        for q in cases:
            profile = semilinear_profile(q)
            for assignment in profile.assignments:
                p0 = assignment[0]
                arg_blocks = [(p.low, p.high) for p in assignment[1:]]
                for pick in itertools.product((0, 1), repeat=q.arity):
                    cube = [arg_blocks[j][pick[j]] for j in range(q.arity)]
                    values = {q(*x) for x in itertools.product(*cube)}
                    assert values == set(p0.low) or values == set(p0.high)


def bincount_assignments(q):
    """semilinear_profile's old route: an assignment is valid iff the value's
    block is constant on every class of argument-block signatures."""
    n = q.arity
    found = []
    for p0 in PARTITIONS:
        assignment = [p0] + [p0.image_under(q.zero_section(i).inverse()) for i in range(1, n + 1)]
        blocks = p0.mask[q.table].ravel().astype(np.int64)
        signature = np.zeros((4,) * n, dtype=np.int64)
        for j in range(1, n + 1):
            shape = [1] * n
            shape[j - 1] = 4
            signature = signature + (assignment[j].mask.astype(np.int64) << (j - 1)).reshape(shape)
        ones = np.bincount(signature.ravel(), weights=blocks, minlength=2**n)
        totals = np.bincount(signature.ravel(), minlength=2**n)
        if np.all((ones == 0) | (ones == totals)):
            found.append(tuple(assignment))
    return tuple(found)


class TestXorMatchesBincount:
    def test_oracle_tables(self):
        for q in oracle_tables():
            assert semilinear_profile(q).assignments == bincount_assignments(q)


class TestProfileOnTheTable:
    """A profile lives on its Quasigroup object; no module state keeps tables."""

    def test_no_reference_to_a_table_is_kept(self):
        rng = random.Random(12)
        outer = random_semilinear_composition(4, 12)
        inner = random_semilinear_composition(3, 13)
        theta = random_isotopy(4, rng)

        def counts(*qs):
            return [(sys.getrefcount(q), sys.getrefcount(q.table)) for q in qs]

        before = counts(outer, inner)
        semilinear_profile(outer)
        semilinear_profile(inner)
        image = semilinear._isotope(outer, theta)
        composed = semilinear._compose_at(outer, inner, 2)
        assert counts(outer, inner) == before
        plain_image, plain_composed = outer.isotope(theta), outer.compose_at(inner, 2)
        assert semilinear_profile(image) == fresh_scan(plain_image)
        assert semilinear_profile(composed) == fresh_scan(plain_composed)
        assert counts(image, composed) == counts(plain_image, plain_composed)

    def test_threads_get_the_single_threaded_profiles(self):
        # more threads than cores, all racing to profile the same fresh tables
        squares = list(all_binary_quasigroups())[:40]
        expected = [fresh_scan(q) for q in squares]
        errors = []

        def work(k):
            try:
                for i in (list(range(k, 40)) + list(range(k))) * 4:
                    assert semilinear_profile(squares[i]) == expected[i]
            except BaseException as exc:  # reported below, from the main thread
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(0, 40, 5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert [semilinear_profile(q) for q in squares] == expected

    def test_a_second_call_returns_the_same_object(self):
        q = random_semilinear_composition(5, 14)
        profile = semilinear_profile(q)
        assert semilinear_profile(q) is profile
        image = semilinear._isotope(q, random_isotopy(5, random.Random(14)))
        assert semilinear_profile(image) is semilinear_profile(image)

    def test_a_pickled_table_loads_without_its_profile(self):
        for q in (z4(), xor2(), chain(5), random_semilinear_composition(4, 15)):
            profile = semilinear_profile(q)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                loaded = pickle.loads(pickle.dumps(q, protocol))
                assert loaded == q and loaded._profile is None
                assert semilinear_profile(loaded) == profile


def fresh_scan(q):
    """A scan of q's table on a new object, which holds no profile yet."""
    return semilinear_profile(Quasigroup(q.table, _trusted=True))


class TestDerivedProfiles:
    """Profiles of isotopes and compositions are derived from their factors'
    profiles, not scanned, and equal a fresh scan in value and order."""

    @pytest.fixture(autouse=True)
    def counted_scans(self, monkeypatch):
        self.scanned = []  # the tables scanned, once per partition
        lookup = semilinear._lookup

        def counted(images, table):
            self.scanned.append(table.tobytes())
            return lookup(images, table)

        monkeypatch.setattr(semilinear, "_lookup", counted)

    def check(self, derive, sources, out):
        """derive() must store out's profile without a scan, equal to a fresh one."""
        for q in sources:
            semilinear_profile(q)
        before = len(self.scanned)
        result = derive()
        assert result == out
        assert len(self.scanned) == before
        derived = result._profile
        assert derived == fresh_scan(out)
        return len(derived.assignments)

    def test_isotopes_and_compositions_of_the_oracle_tables(self):
        rng = random.Random(1313)
        tables = [q for q in oracle_tables() if q.arity <= 8]
        by_arity = {}
        for q in tables:
            by_arity.setdefault(q.arity, []).append(q)
        sizes = {"isotope": Counter(), "composition": Counter()}
        for q in tables:
            theta = random_isotopy(q.arity, rng)
            sizes["isotope"][self.check(lambda: semilinear._isotope(q, theta), [q],
                                        q.isotope(theta))] += 1
            if q.arity == 8:
                continue  # any composition with it has arity 9 or more
            other = rng.choice(by_arity[rng.randint(2, 9 - q.arity)])
            outer, inner = (q, other) if rng.getrandbits(1) else (other, q)
            pos = rng.randint(1, outer.arity)
            sizes["composition"][self.check(
                lambda: semilinear._compose_at(outer, inner, pos), [outer, inner],
                outer.compose_at(inner, pos))] += 1
        assert sum(sizes["isotope"].values()) == len(tables)
        for kind in sizes.values():  # not, once, and linearly semilinear all occur
            assert {0, 1, 3} <= set(kind), sizes

    def test_decomposition_labels_hold_scanned_profiles(self):
        for name, q in acceptance_corpus():
            before = len(self.scanned)
            proper = proper_decomposition(q)
            full = {node.label.table.tobytes() for node, _ in iter_nodes(full_decomposition(q))}
            # merged labels are derived: only the full decomposition's are scanned
            assert set(self.scanned[before:]) <= full, name
            before = len(self.scanned)
            reduced, _theta = reduce_decomposition(proper)
            # and the reduced labels are derived from the proper ones
            assert set(self.scanned[before:]) <= {node.label.table.tobytes()
                                                  for node, _ in iter_nodes(proper)}, name
            for t in (proper, reduced):
                for node, _ in iter_nodes(t):
                    assert node.label._profile == fresh_scan(node.label), name


class TestMembership:
    def test_z4_pairs(self):
        assert is_semilinear_in_pair(z4(), 1, P02)
        assert not is_semilinear_in_pair(z4(), 1, P01)
        assert is_semilinear_in_pair(z4(), 0, P02)

    def test_linear_everything(self):
        for j in range(3):
            for p in PARTITIONS:
                assert is_semilinear_in_pair(xor2(), j, p)


class TestLinear:
    def test_linear_family(self):
        for n in range(2, 6):
            assert is_linear(linear(n))

    def test_nonlinear_examples(self, base_tables):
        assert not is_linear(base_tables["sl3"])
        assert not is_linear(base_tables["z4"])
        assert not is_linear(base_tables["g3"])
        assert not is_linear(base_tables["h3"])

    def test_matches_isotopy_to_xor_chain(self):
        from qg4 import are_isotopic

        rng = random.Random(11)
        for seed in range(4):
            q = random_semilinear_composition(3, 900 + seed)
            assert is_linear(q) == (are_isotopic(q, linear(3)) is not None)
        base = linear(3).isotope(random_isotopy(3, rng))
        assert is_linear(base)

    def test_two_partitions_at_one_argument_forces_linear(self):
        corpus = [z4(), xor2(), shifted_linear(3), chain(5), linear(4)]
        corpus += [random_semilinear_composition(3, s) for s in range(1000, 1006)]
        for q in corpus:
            profile = semilinear_profile(q)
            for j in range(q.arity + 1):
                if len(profile.partitions_at(j)) >= 2:
                    assert profile.is_linear


class TestIsotopyCovariance:
    def test_partition_transforms_by_inverse(self):
        rng = random.Random(12)
        for seed in range(6):
            q = random_semilinear_composition(2, 1100 + seed)
            theta = random_isotopy(2, rng)
            before = semilinear_profile(q)
            after = semilinear_profile(q.isotope(theta))
            for j in range(3):
                expect = {p.image_under(theta[j].inverse())
                          for p in before.partitions_at(j)}
                assert expect == set(after.partitions_at(j))


class TestNativeElements:
    def test_pair_02(self):
        native = native_elements((0, 2))
        assert native.involution == P((0, 2), (1, 3))
        assert set(native.transpositions) == {P((0, 2)), P((1, 3))}
        assert set(native.cycles) == {P((0, 1, 2, 3)), P((0, 3, 2, 1))}
        assert set(native.foreign_involutions) == {P((0, 1), (2, 3)), P((0, 3), (1, 2))}

    def test_pair_01(self):
        assert native_elements((0, 1)).involution == P((0, 1), (2, 3))

    def test_cycles_square_to_involution(self):
        for partner in (1, 2, 3):
            native = native_elements(partner)
            for c in native.cycles:
                assert c * c == native.involution

    def test_pair_without_zero_rejected(self):
        with pytest.raises(ValueError):
            native_elements((1, 3))

    @pytest.mark.parametrize("pair", [(0, 0), (0, 1, 2), True])
    def test_malformed_pair_rejected(self, pair):
        # a repeated symbol, three symbols, and a bool, which is an int but no symbol
        with pytest.raises(ValueError):
            native_elements(pair)


class TestCanonicalAutotopies:
    def test_z4_known_members(self):
        out = canonical_semilinear_autotopies(z4())
        xi = P((0, 2), (1, 3))
        assert Isotopy((xi, xi, IDENTITY)) in out
        assert Isotopy((P((1, 3)),) * 3) in out
        # f({0,2}^2) = {0,2}, so the (02) transposition is excluded.
        assert Isotopy((P((0, 2)),) * 3) not in out
        assert len(out) == 3 + 1

    def test_all_verified(self, base_tables):
        for name in ("z4", "sl3", "sl4"):
            q = base_tables[name]
            for theta in canonical_semilinear_autotopies(q):
                assert is_autotopy(q, theta)

    def test_shifted_linear_counts_and_generated_group(self):
        for n in (3, 4):
            q = shifted_linear(n)
            out = canonical_semilinear_autotopies(q)
            assert len(out) == (n + 1) * n // 2 + 1
            generated = close_isotopies(out)
            assert len(generated) == 2 ** (n + 1)
            assert generated == set(autotopy_group(q).elements)

    def test_complement_case_uses_zero_pair_transposition(self):
        # x + y + 1 mod 4 maps {0,2}^2 onto {1,3}.
        q = Quasigroup.from_callable(2, lambda x, y: (x + y + 1) % 4)
        out = canonical_semilinear_autotopies(q)
        assert Isotopy((P((0, 2)), P((1, 3)), P((1, 3)))) in out
        for theta in out:
            assert is_autotopy(q, theta)

    def test_rejects_nonuniform(self):
        with pytest.raises(ValueError):
            canonical_semilinear_autotopies(chain(5))

    def test_nonlinear_binary_group_is_32_with_four_families(self):
        q = z4()
        elements = autotopy_group(q).elements
        assert len(elements) == 32
        native = native_elements((0, 2))
        xi = native.involution
        kinds = {"involutions": 0, "transpositions": 0, "cycles": 0, "foreign": 0}
        for theta in elements:
            parts = set(theta.parts)
            if parts <= {IDENTITY, xi}:
                kinds["involutions"] += 1
            elif parts <= set(native.transpositions):
                kinds["transpositions"] += 1
            elif any(p in native.cycles for p in theta.parts):
                assert sum(p in native.cycles for p in theta.parts) == 2
                assert all(p in native.cycles or p in (IDENTITY, xi)
                           for p in theta.parts)
                kinds["cycles"] += 1
            else:
                assert sum(p in native.foreign_involutions for p in theta.parts) == 2
                assert sum(p in native.transpositions for p in theta.parts) == 1
                kinds["foreign"] += 1
        assert kinds == {"involutions": 4, "transpositions": 4,
                         "cycles": 12, "foreign": 12}


class TestAssignmentCount:
    def test_no_profile_has_exactly_two_assignments(self):
        # semilinear_profile's docstring proves that two assignments force a third
        tables = [*all_binary_quasigroups(), *random.Random(4313).sample(latin_cubes(), 320),
                  *oracle_tables()]
        counts = Counter(len(semilinear_profile(q).assignments) for q in tables)
        assert set(counts) == {0, 1, 3}, counts


def load_in_either_order(first, second, check):
    """Load qg4.first then qg4.second, and the reverse, each on a bare package with
    qg4/__init__ not run, and assert `check` in each; fails unless both orders load."""
    package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "qg4")
    code = ("import sys, types\n"
            f"for order in (({first!r}, {second!r}), ({second!r}, {first!r})):\n"
            "    for name in [m for m in sys.modules if m.split('.')[0] == 'qg4']:\n"
            "        del sys.modules[name]\n"
            "    sys.modules['qg4'] = types.ModuleType('qg4')\n"
            f"    sys.modules['qg4'].__path__ = [{package!r}]\n"
            "    for name in order:\n"
            "        __import__('qg4.' + name)\n"
            f"    assert {check}\n"
            "print('ok')\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "ok\n"), out.stderr


class TestImportOrder:
    def test_semilinear_and_autotopy_load_in_either_order(self):
        # autotopy imports semilinear, which takes is_autotopy from core
        load_in_either_order("semilinear", "autotopy", "sys.modules['qg4.autotopy'].boolean_form")

    def test_autotopy_and_decompose_load_in_either_order(self):
        # autotopy imports find_split from decompose, which takes is_autotopy from core
        load_in_either_order("autotopy", "decompose",
                             "sys.modules['qg4.decompose'].is_autotopy"
                             " and sys.modules['qg4.autotopy']._split_join")

    def test_semilinear_and_decompose_load_without_autotopy(self):
        # the module graph runs core <- semilinear <- decompose <- autotopy, with no cycle
        load_in_either_order("semilinear", "decompose", "'qg4.autotopy' not in sys.modules")
