import itertools
import os
import pickle
import random
import subprocess
import sys

import numpy as np
import pytest

from qg4 import (
    ArityError,
    CapError,
    ConstructionTSpec,
    FormatError,
    IDENTITY,
    Isotopy,
    LatinError,
    PERMS,
    Perm,
    Quasigroup,
    construction_t,
    linear,
    parse_table,
    qg4_text,
    shifted_linear,
    xor2,
    z4,
)
from qg4.autotopy import _propagate_candidate, is_autotopy
from qg4.core import _gather, _latin_violation, _lines_bijective, _lookup
from qg4.construct import XOR2_DIGITS, Z4_DIGITS, random_semilinear_composition

from conftest import oracle_tables, random_isotopy

# The presentation tables list rows/columns in the order 0, 2, 1, 3 so the
# pair-block structure is visible; the shipped constants are lexicographic.
PRESENTATION_ORDER = (0, 2, 1, 3)
XOR2_PRESENTATION = [
    [0, 2, 1, 3],
    [2, 0, 3, 1],
    [1, 3, 0, 2],
    [3, 1, 2, 0],
]
Z4_PRESENTATION = [
    [0, 2, 1, 3],
    [2, 0, 3, 1],
    [1, 3, 2, 0],
    [3, 1, 0, 2],
]


class TestPerm:
    def test_interning_and_identity(self):
        assert Perm((0, 1, 2, 3)) is IDENTITY
        assert Perm.from_cycles((0, 2), (1, 3)) is Perm((2, 3, 0, 1))
        assert len(PERMS) == 24
        assert IDENTITY.is_identity

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Perm((0, 0, 1, 2))

    def test_composition_convention(self):
        # (p * q)(x) = p(q(x))
        rng = random.Random(0)
        for _ in range(50):
            p = PERMS[rng.randrange(24)]
            q = PERMS[rng.randrange(24)]
            x = rng.randrange(4)
            assert (p * q)(x) == p(q(x))

    def test_inverse_and_order(self):
        for p in PERMS:
            assert p * p.inverse() is IDENTITY
            acc, k = p, 1
            while acc is not IDENTITY:
                acc = acc * p
                k += 1
            assert k == p.order()

    def test_cycle_notation(self):
        assert repr(Perm.from_cycles((0, 2), (1, 3))) == "(02)(13)"
        assert repr(Perm.from_cycles((0, 1, 2, 3))) == "(0123)"
        assert repr(IDENTITY) == "id"


class TestIsotopy:
    def test_componentwise_group(self):
        rng = random.Random(1)
        for _ in range(30):
            a = random_isotopy(3, rng)
            b = random_isotopy(3, rng)
            assert (a * b).parts == tuple(x * y for x, y in zip(a.parts, b.parts))
            assert (a * a.inverse()).is_identity

    def test_apply_to_tuple(self):
        theta = Isotopy((Perm.from_cycles((0, 1)), IDENTITY, Perm.from_cycles((2, 3))))
        assert theta.apply((0, 3, 2)) == (1, 3, 3)
        with pytest.raises(ArityError):
            theta.apply((0, 0))


class TestPickle:
    PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)

    def test_perms_unpickle_to_the_interned_instance(self):
        for protocol in self.PROTOCOLS:
            for p in PERMS:
                assert pickle.loads(pickle.dumps(p, protocol)) is p

    def test_isotopy_round_trip(self):
        for protocol in self.PROTOCOLS:
            for theta in (Isotopy.identity(2), Isotopy(PERMS[i] for i in (5, 23, 0, 11))):
                back = pickle.loads(pickle.dumps(theta, protocol))
                assert back == theta and hash(back) == hash(theta), protocol
                assert all(a is b for a, b in zip(back.parts, theta.parts))

    def test_quasigroup_hash_survives_a_new_hash_seed(self):
        # bytes hashes are salted per process, so dump and load under two seeds
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")

        def python(code, seed, data=None):
            env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
            return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                                  capture_output=True, check=True).stdout

        data = python("import pickle, sys, qg4\n"
                      "sys.stdout.buffer.write(pickle.dumps(qg4.linear(3)))", 1)
        out = python("import pickle, sys, qg4\n"
                     "q = pickle.loads(sys.stdin.buffer.read())\n"
                     "fresh = qg4.linear(3)\n"
                     "print(q == fresh, hash(q) == hash(fresh), q in {fresh},\n"
                     "      q.table.flags.writeable)", 2, data)
        assert out.split() == [b"True", b"True", b"True", b"False"]


class TestParse:
    def test_identity_unary(self):
        q = parse_table("qg4 1\n0123\n")
        assert q.arity == 1
        assert [q(x) for x in range(4)] == [0, 1, 2, 3]

    def test_z4_from_presentation_table(self):
        # Re-index the 0,2,1,3-ordered presentation into lexicographic order
        # and compare with the shipped constant, cell by cell.
        q = parse_table(f"qg4 2\n{Z4_DIGITS}\n")
        for i, row in enumerate(PRESENTATION_ORDER):
            for j, col in enumerate(PRESENTATION_ORDER):
                assert q(row, col) == Z4_PRESENTATION[i][j]

    def test_xor2_from_presentation_table(self):
        q = parse_table(f"qg4 2\n{XOR2_DIGITS}\n")
        for i, row in enumerate(PRESENTATION_ORDER):
            for j, col in enumerate(PRESENTATION_ORDER):
                assert q(row, col) == XOR2_PRESENTATION[i][j]

    def test_malformed_header(self):
        for text in ("qg5 2\n" + "0" * 16 + "\n",
                     "qg4  2\n" + XOR2_DIGITS + "\n",
                     "qg4 x\n" + XOR2_DIGITS + "\n",
                     "qg4 2 " + XOR2_DIGITS + "\n"):
            with pytest.raises(FormatError):
                parse_table(text)

    def test_wrong_digit_count(self):
        with pytest.raises(FormatError, match="16 digits"):
            parse_table("qg4 2\n0123\n")

    def test_bad_digit(self):
        with pytest.raises(FormatError, match="digit"):
            parse_table("qg4 1\n0124\n")

    def test_latin_violation(self):
        # Column 2 of this table repeats the symbol 0.
        with pytest.raises(LatinError, match="bijection"):
            parse_table("qg4 2\n0123103223013201\n")

    def test_latin_violation_names_the_broken_argument(self):
        # sum of the other arguments plus x_k // 2: only sections along axis k
        # repeat a symbol; arity 11 is checked an axis-0 quarter at a time
        for n in range(2, 12):
            digits = [np.arange(4, dtype=np.uint8).reshape((4,) + (1,) * (n - 1 - k))
                      for k in range(n)]
            total = sum(digits)
            for k in range(n):
                table = (total - digits[k] + digits[k] // 2) % 4
                with pytest.raises(LatinError, match=f"argument {k + 1} is not"):
                    Quasigroup(table)
        # the even quarters break only along axis a, the odd ones only along b
        for a, b in ((3, 7), (7, 3)):
            table = (total + 2 * np.where(digits[0] % 2, digits[b] // 2, digits[a] // 2)) % 4
            with pytest.raises(LatinError, match="argument 4 is not"):
                Quasigroup(table)
        with pytest.raises(FormatError, match="outside"):
            Quasigroup(np.where(table == 3, 4, table))

    def test_missing_trailing_newline(self):
        with pytest.raises(FormatError):
            parse_table("qg4 2\n" + XOR2_DIGITS)

    def test_round_trip(self):
        q = z4()
        assert parse_table(qg4_text(q)) == q
        assert qg4_text(q) == f"qg4 2\n{Z4_DIGITS}\n"

    def test_bytes_input(self):
        assert parse_table(qg4_text(xor2()).encode("ascii")) == xor2()

    def test_bad_digit_is_named(self):
        # below "0", above "3" and non-ASCII, with an earlier bad digit winning
        for bad in ("/", "4", "a", "\u00e9", "\u0660"):
            for at in (0, 9, 15):
                digits = XOR2_DIGITS[:at] + bad + XOR2_DIGITS[at + 1:]
                with pytest.raises(FormatError, match=f"invalid table digit {bad!r}"):
                    parse_table(f"qg4 2\n{digits}\n")
        with pytest.raises(FormatError, match="digit '9'"):
            Quasigroup.from_digits(2, "01239" + XOR2_DIGITS[5:11] + "/" + XOR2_DIGITS[12:])
        with pytest.raises(FormatError, match="not ASCII"):
            parse_table(f"qg4 2\n\u00e9{XOR2_DIGITS[1:]}\n".encode("utf-8"))

    def test_arity10_round_trip(self):
        q = random_semilinear_composition(10, 1)
        text = qg4_text(q)
        assert len(text) == len("qg4 10\n") + 4**10 + 1
        assert text[7:-1] == "".join(str(v) for v in q.table.ravel())  # the old digits()
        assert parse_table(text) == q and parse_table(text.encode("ascii")) == q


def reference_latin_violation(table):
    """The per-axis one-hot check `_latin_violation` replaced, kept as its
    oracle: the first axis whose four slices do not OR to 0b1111 everywhere."""
    onehot = np.left_shift(1, table.ravel(), dtype=np.uint8)
    for axis in range(table.ndim):
        v = onehot.reshape(4**axis, 4, -1)
        if not ((v[:, 0] | v[:, 1] | v[:, 2] | v[:, 3]) == 15).all():
            return axis
    return None


class TestLatinOracle:
    @staticmethod
    def mutants(table, rng):
        """Copies with 1-3 swaps of two cells, with 1-3 overwritten cells, and,
        for each axis k, with the hyperplane x_k = v moved by an isotopy of the
        axes below k: that keeps every line along those axes."""
        for swap in (True, True, False, False):
            flat = table.ravel().copy()
            for _ in range(rng.randint(1, 3)):
                a, b = rng.randrange(flat.size), rng.randrange(flat.size)
                if swap:
                    flat[a], flat[b] = flat[b], flat[a]
                else:
                    flat[a] = rng.randrange(4)
            yield flat.reshape(table.shape)
        for k in range(table.ndim):
            plane = (slice(None),) * k + (rng.randrange(4),)
            moved = table.copy()
            moved[plane] = _gather(table[plane], [PERMS[rng.randrange(24)] for _ in range(k)])
            yield moved

    def test_matches_the_per_axis_check(self):
        rng = random.Random(10)
        tables = [np.array(p.images, dtype=np.uint8) for p in PERMS[::5]]
        tables += [q.table for q in oracle_tables()]
        tables += [random_semilinear_composition(10, 1).table,
                   construction_t(ConstructionTSpec.random(11, 1))[1].table]
        lowest = []
        for table in tables:
            for t in (table, *self.mutants(table, rng)):
                lowest.append(_latin_violation(t))
                assert lowest[-1] == reference_latin_violation(t)
        broken = [k for k in lowest if k is not None]
        assert len(lowest) - len(broken) >= len(tables) and set(broken) == set(range(11))

    def test_small_tables_match_the_per_axis_check(self):
        # tables of at most 64 cells are read line by line as bytes: every unary
        # table of symbols 0..3, and 60 squares and 20 cubes with each cell changed
        # and with the mutants that keep the lines along the lower axes
        rng = random.Random(16)
        tables = [np.array(t, dtype=np.uint8) for t in itertools.product(range(4), repeat=4)]
        for q in rng.sample(oracle_tables()[:576], 60) + [
                q for q in oracle_tables() if q.arity == 3][:20]:
            for cell in range(q.table.size):
                flat = q.table.ravel().copy()
                flat[cell] = (flat[cell] + rng.randrange(1, 4)) % 4
                tables += [q.table, flat.reshape(q.table.shape)]
            tables += list(self.mutants(q.table, rng))
        verdicts = [_latin_violation(t) for t in tables]
        assert verdicts == [reference_latin_violation(t) for t in tables]
        assert {None, 0, 1, 2} <= set(verdicts)

    def test_adjacent_bytes_summing_past_15_repeat(self):
        # lines summing to 15 and 22: the minimum alone would pass them
        onehot = np.array([1, 2, 4, 8, 8, 8, 4, 2], dtype=np.uint8)
        assert not _lines_bijective(onehot, 0, np.empty(2, dtype=np.uint8))


class TestEval:
    def test_examples(self):
        assert xor2()(2, 3) == 1
        assert z4()(2, 3) == 1
        for n in (1, 2, 3, 4):
            assert linear(n)(*([0] * n)) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            z4()(1, 2, 3)


class TestSection:
    def test_xor_neutral(self):
        assert xor2().section(1, (0,)) is IDENTITY

    def test_z4_shift(self):
        assert z4().section(2, (1,)).images == (1, 2, 3, 0)

    def test_always_bijection(self):
        rng = random.Random(2)
        for seed in range(5):
            q = random_semilinear_composition(3, seed)
            for i in range(1, 4):
                for fixed in itertools.product(range(4), repeat=2):
                    p = q.section(i, fixed)
                    assert sorted(p.images) == [0, 1, 2, 3]
        _ = rng


class TestInverse:
    def test_xor_self_inverse(self):
        # Oracle: solve x1 = a ^ x2 over all cells.
        q = xor2()
        inv = q.inverse(1)
        for a in range(4):
            for x2 in range(4):
                solutions = [x1 for x1 in range(4) if q(x1, x2) == a]
                assert solutions == [inv(a, x2)]
        assert inv == q

    def test_z4_inverse_values(self):
        # g(a, x2) is the x1 solving x1 + x2 = a (mod 4).
        inv = z4().inverse(1)
        assert inv(1, 0) == 1
        assert inv(0, 1) == 3
        for a in range(4):
            for x2 in range(4):
                assert (inv(a, x2) + x2) % 4 == a

    def test_involution(self):
        for seed in range(6):
            q = random_semilinear_composition(3, 100 + seed)
            for i in range(1, 4):
                assert q.inverse(i).inverse(i) == q


class TestIsotope:
    def test_identity_action(self):
        q = z4()
        assert q.isotope(Isotopy.identity(2)) == q

    def test_inverse_round_trip(self):
        rng = random.Random(3)
        for seed in range(6):
            q = random_semilinear_composition(3, 200 + seed)
            theta = random_isotopy(3, rng)
            assert q.isotope(theta).isotope(theta.inverse()) == q

    def test_contravariant_composition(self):
        rng = random.Random(4)
        q = random_semilinear_composition(3, 300)
        for _ in range(10):
            a = random_isotopy(3, rng)
            b = random_isotopy(3, rng)
            assert q.isotope(a).isotope(b) == q.isotope(a * b)

    def test_uniform_conjugation_pointwise(self):
        # The relabeling g(x) = tau f(tau x1, tau x2, tau x3) with tau = (12).
        tau = Perm.from_cycles((1, 2))
        f = shifted_linear(3)
        g = f.isotope(Isotopy.uniform(tau, 3))
        for x in itertools.product(range(4), repeat=3):
            assert g(*x) == tau(f(*(tau(v) for v in x)))

    def test_code_compatibility(self):
        rng = random.Random(5)
        for seed in range(4):
            q = random_semilinear_composition(3, 400 + seed)
            theta = random_isotopy(3, rng)
            moved = {theta.inverse().apply(t) for t in q.code()}
            assert moved == q.isotope(theta).code()


class TestFreshTables:
    def test_results_are_read_only_and_own_their_memory(self):
        q = random_semilinear_composition(4, 7)
        theta = random_isotopy(4, random.Random(3))
        for got in (q.isotope(theta), q.isotope(Isotopy.identity(4)),
                    q.compose_at(z4(), 2), q.inverse(1), q.inverse(4)):
            assert not got.table.flags.writeable and got.table.flags.c_contiguous
            assert not np.shares_memory(got.table, q.table)


class TestGather:
    """The per-axis gather and the packed lookup against np.ix_ and fancy indexing."""

    def test_matches_ix(self):
        rng = random.Random(6)
        for arity in range(2, 9):
            q = random_semilinear_composition(arity, 600 + arity)
            for k in range(4):
                theta = random_isotopy(arity, rng)
                if k == 0:  # identities are skipped: keep some
                    theta = Isotopy(IDENTITY if rng.random() < 0.5 else p for p in theta)
                ix = q.table[np.ix_(*(p.arr for p in theta.parts[1:]))]
                assert np.array_equal(_gather(q.table, theta.parts[1:]), ix)
                assert np.array_equal(q.isotope(theta).table, theta[0].inverse().arr[ix])
                assert is_autotopy(q, theta) == np.array_equal(theta[0].arr[q.table], ix)

    def test_lookup_matches_fancy_indexing(self):
        table = np.arange(4**5, dtype=np.uint8).reshape((4,) * 5) % 4
        for p in PERMS:
            assert np.array_equal(_lookup(p.images, table), p.arr[table])
        mask = np.array([0, 1, 1, 0], dtype=np.uint8)
        assert np.array_equal(_lookup(mask, table), mask[table])

    def test_propagate_candidate_verifies_on_the_gather(self):
        q = linear(4)
        zero = [q.zero_section(i) for i in range(1, 5)]
        inv = [z.inverse() for z in zero]
        for theta0 in PERMS:
            got = _propagate_candidate(q, q, zero, inv, theta0)
            parts = [theta0] + [s * theta0 * z for s, z in zip(inv, zero)]
            expected = np.array_equal(theta0.arr[q.table],
                                      q.table[np.ix_(*(p.arr for p in parts[1:]))])
            assert (got is not None) == expected


class TestComposeAt:
    def test_hand_evaluation(self):
        f = xor2().compose_at(z4(), 2)
        assert f(1, 2, 3) == 1 ^ ((2 + 3) % 4)
        assert f(1, 2, 3) == 0

    def test_xor_chain_is_linear(self):
        composed = xor2().compose_at(xor2(), 1)
        oracle = Quasigroup.from_callable(3, lambda a, b, c: a ^ b ^ c)
        assert composed == oracle
        assert composed == linear(3)

    def test_unary_factor_rejected(self):
        unary = parse_table("qg4 1\n0123\n")
        with pytest.raises(ArityError):
            z4().compose_at(unary, 1)
        with pytest.raises(ArityError):
            unary.compose_at(z4(), 1)

    def test_latin_closure(self):
        for s1 in range(3):
            for s2 in range(3):
                a = random_semilinear_composition(2, 500 + s1)
                b = random_semilinear_composition(3, 600 + s2)
                for pos in (1, 2):
                    c = a.compose_at(b, pos)
                    assert c.arity == 4
                    Quasigroup(c.table)  # re-validates the Latin property


class TestCode:
    def test_unary_identity_code(self):
        q = parse_table("qg4 1\n0123\n")
        assert q.code() == {(x, x) for x in range(4)}

    def test_size(self):
        assert len(xor2().code()) == 16

    def _lines(self, n):
        for axis in range(n + 1):
            for rest in itertools.product(range(4), repeat=n):
                yield [rest[:axis] + (v,) + rest[axis:] for v in range(4)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_line_met_once(self, n):
        q = random_semilinear_composition(n, 700 + n)
        code = q.code()
        for line in self._lines(n):
            assert sum(1 for p in line if tuple(p) in code) == 1


class TestCaps:
    def test_arity_cap_enforced(self):
        with pytest.raises(CapError):
            linear(13)

    def test_table_immutable(self):
        q = z4()
        with pytest.raises(ValueError):
            q.table[0, 0] = 3

    def test_bad_shape(self):
        with pytest.raises(FormatError):
            Quasigroup(np.zeros((4, 5), dtype=np.uint8))
