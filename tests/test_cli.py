import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qg4 import (ConstructionTSpec, Isotopy, PERMS, Perm, chain, chain_tree, construction_t,
                 linear, loads_tree, parse_table, qg4_text, tree_eval, z4)
from qg4.construct import random_semilinear_composition
from qg4 import cli, core
from qg4 import decompose as dec
from qg4.core import LatinError
from qg4.cli import (
    EXIT_CAP,
    EXIT_FORMAT,
    EXIT_LATIN,
    EXIT_OK,
    EXIT_VERIFY,
    run,
)


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


@pytest.fixture()
def z4_file(tmp_path):
    path = tmp_path / "z4.qg4"
    path.write_text(qg4_text(z4()))
    return str(path)


class TestGen:
    def test_families_produce_valid_tables(self, tmp_path):
        for family, arity in (("linear", 3), ("lbullet", 3), ("chain", 5),
                              ("z4", None), ("xor2", None), ("g3", None),
                              ("h3", None), ("construction-t", 5)):
            argv = ["gen", family]
            if arity is not None:
                argv += ["-n", str(arity)]
            path = tmp_path / f"{family}.qg4"
            argv += ["-o", str(path), "--seed", "3"]
            code, _ = invoke(argv)
            assert code == EXIT_OK, family
            parse_table(path.read_text())

    def test_gen_to_stdout(self):
        code, out = invoke(["gen", "z4"])
        assert code == EXIT_OK
        assert out == qg4_text(z4())

    def test_tree_out(self, tmp_path):
        qpath, tpath = tmp_path / "c.qg4", tmp_path / "c.tree"
        code, _ = invoke(["gen", "chain", "-n", "5",
                          "-o", str(qpath), "--tree-out", str(tpath)])
        assert code == EXIT_OK
        from qg4 import loads_tree, tree_eval

        assert tree_eval(loads_tree(tpath.read_text())) == parse_table(qpath.read_text())

    def test_construction_t_even_arity_rejected(self):
        code, _ = invoke(["gen", "construction-t", "-n", "6"])
        assert code == EXIT_FORMAT

    def test_fixed_arity_conflict(self):
        code, _ = invoke(["gen", "z4", "-n", "3"])
        assert code == EXIT_FORMAT

    def test_arity_above_the_cap_exits_before_building(self):
        # unchecked, construction-t samples its skeleton in O(n^2) time
        # and chain builds an n-entry list before the table cap trips
        for family, n in (("construction-t", 13), ("construction-t", 200001),
                          ("chain", 13), ("chain", 20000001)):
            start = time.perf_counter()
            code, out, err = run_captured(["gen", family, "-n", str(n)])
            assert (code, out) == (EXIT_CAP, "") and err.startswith("error:"), (family, n)
            assert time.perf_counter() - start < 2, (family, n)


class TestAtp:
    def test_order_line(self, z4_file):
        code, out = invoke(["atp", z4_file])
        assert code == EXIT_OK
        assert out.splitlines()[0] == "order 32"

    def test_elements_listing(self, z4_file):
        code, out = invoke(["atp", z4_file, "--elements"])
        assert code == EXIT_OK
        assert sum(1 for line in out.splitlines()
                   if line.startswith("element:")) == 32

    def test_cap_exit(self, tmp_path):
        path = tmp_path / "l4.qg4"
        path.write_text(qg4_text(linear(4)))
        code, _ = invoke(["atp", str(path), "--max-arity", "3"])
        assert code == EXIT_CAP


class TestAnalyze:
    def test_json_round_trip(self, z4_file):
        code, out = invoke(["analyze", z4_file, "--json"])
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["arity"] == 2
        assert report["atp_order"] == 32
        assert report["linear"] is False
        assert report["transitive"] is True
        assert report["semilinear"] == [["02|13", "02|13", "02|13"]]
        assert report["bound_checks"]["nonlinear_max"]["ok"] is True
        assert report["stats"]["bunches"] == 1
        # the embedded tree parses back to an isotope-free copy of the input
        from qg4 import loads_tree, tree_eval, are_isotopic

        tree = loads_tree(json.dumps(report["tree"]))
        assert are_isotopic(parse_table(qg4_text(z4())), tree_eval(tree)) is not None

    def test_deterministic(self, z4_file):
        assert invoke(["analyze", z4_file, "--json"]) == \
            invoke(["analyze", z4_file, "--json"])

    def test_text_mode(self, z4_file):
        code, out = invoke(["analyze", z4_file])
        assert code == EXIT_OK
        assert "atp_order: 32" in out


class TestDecompose:
    def test_default_and_reduced(self, tmp_path):
        path = tmp_path / "c5.qg4"
        from qg4 import chain

        path.write_text(qg4_text(chain(5)))
        code, out = invoke(["decompose", str(path)])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["stats"]["nodes"] == 2
        code, out = invoke(["decompose", str(path), "--reduced"])
        doc = json.loads(out)
        assert "isotopy" in doc
        assert doc["stats"]["structural_lower_bound"] == 16

    def test_reduced_linear_above_the_search_cap(self, tmp_path):
        # the lone linear node is normalized by an isotopy search at its own arity
        q = linear(7).isotope(Isotopy(PERMS[(5 * k + 3) % 24] for k in range(8)))
        path = tmp_path / "l7.qg4"
        path.write_text(qg4_text(q))
        code, out = invoke(["decompose", str(path), "--reduced"])
        assert code == EXIT_OK
        doc = json.loads(out)
        theta = Isotopy(Perm(int(x) for x in s) for s in doc["isotopy"])
        tree = loads_tree(json.dumps(doc["tree"]))
        assert q.isotope(theta) == tree_eval(tree) == linear(7)


class TestSameBytesInEveryProcess:
    """Output never depends on the salt of str and bytes hashes."""

    def test_hash_seeds_print_the_same_bytes(self, tmp_path):
        inputs = {
            "c5": random_semilinear_composition(5, 101),
            "c6": random_semilinear_composition(6, 108),
            "t9": construction_t(ConstructionTSpec.random(9, 1))[1],
            "c9": random_semilinear_composition(9, 1),
        }
        for name, q in inputs.items():
            (tmp_path / f"{name}.qg4").write_text(qg4_text(q))
        argvs = [["analyze", "c5.qg4", "--json"], ["analyze", "c6.qg4", "--json"],
                 ["decompose", "t9.qg4", "--reduced"], ["decompose", "c9.qg4", "--reduced"]]
        first = self.outputs(tmp_path, argvs, 0)
        assert all(first) and self.outputs(tmp_path, argvs, 1) == first

    def test_every_decompose_mode_prints_the_same_bytes(self, tmp_path):
        (tmp_path / "c10.qg4").write_text(qg4_text(random_semilinear_composition(10, 1)))
        argvs = [["decompose", "c10.qg4", *mode] for mode in ([], ["--proper"], ["--reduced"])]
        first = self.outputs(tmp_path, argvs, 0)
        assert all(first) and self.outputs(tmp_path, argvs, 1) == first
        assert [out.decode() for out in first] == [invoke([argv[0], str(tmp_path / argv[1]),
                                                           *argv[2:]])[1] for argv in argvs]

    @staticmethod
    def outputs(cwd, argvs, seed):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        return [subprocess.run([sys.executable, "-m", "qg4.cli", *argv], cwd=cwd,
                               env=env, capture_output=True, check=True).stdout
                for argv in argvs]


class TestCertifiedDecompose:
    """`qg4 decompose` reads its input without the Latin check and lets the
    decomposition certify it; a non-Latin input gets the eager check's error."""

    def test_failure_path_is_bounded(self, tmp_path, monkeypatch, capsys):
        try_split, violation = dec._try_split, core._latin_violation
        failed, at_check = [0], []

        def counting_split(q, subset):
            got = try_split(q, subset)
            failed[0] += got is None
            return got

        def noting_check(table):
            at_check.append(failed[0])
            return violation(table)

        monkeypatch.setattr(dec, "_try_split", counting_split)
        monkeypatch.setattr(core, "_latin_violation", noting_check)
        grid = np.indices((4,) * 11, dtype=np.uint8)
        path = tmp_path / "bad.qg4"
        for table, message in ((np.zeros_like(grid[0]), "argument 1"), (grid[0], "argument 2")):
            text = b"qg4 11\n" + (table.ravel() + ord("0")).tobytes() + b"\n"
            with pytest.raises(LatinError, match=message) as eager:
                parse_table(text)
            path.write_bytes(text)
            for mode in ([], ["--proper"], ["--reduced"]):
                failed[0], at_check[:] = 0, []
                code, out = invoke(["decompose", str(path), *mode])
                assert (code, out, capsys.readouterr().err) == (
                    EXIT_LATIN, "", f"error: {eager.value}\n")
                assert at_check and at_check[0] <= 1


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(argv, out=out)
    return code, out.getvalue(), err.getvalue()


MUTATION_BASES = [z4(), linear(3), construction_t(ConstructionTSpec.random(3, 1))[1],
                  random_semilinear_composition(4, 7), construction_t(ConstructionTSpec.random(5, 2))[1]]
HEADERS = [b"qg4", b"qg4 ", b"qg4  3", b"qg5 3", b"qg4 x", b"qg4 -3", b"qg4 0", b"qg4 1",
           b"qg4 2", b"qg4 3", b"qg4 4", b"qg4 13", b"QG4 3", b"qg4 3 "]


def mutate(data, text: bytes, kind: str) -> bytes:
    body = text.find(b"\n") + 1  # 0 when the header line is gone
    if kind == "header":
        return data.draw(st.sampled_from(HEADERS)) + text[max(body - 1, 0):]
    if len(text) - 1 <= body:
        return text
    pos = data.draw(st.integers(body, len(text) - 2))
    out = bytearray(text)
    if kind == "digit":
        out[pos] = ord("0") + (out[pos] + data.draw(st.integers(1, 3))) % 4
    elif kind == "swap":
        other = data.draw(st.integers(body, len(text) - 2))
        out[pos], out[other] = out[other], out[pos]
    elif kind == "symbol":
        out[pos] = data.draw(st.sampled_from(b"45x \n\r\x00\xff-"))
    else:  # truncate, keeping or dropping the final newline
        out = out[:pos] + data.draw(st.sampled_from([b"", b"\n"]))
    return bytes(out)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_files_exit_cleanly(data):
    """Every mutated file maps to a documented exit code with no traceback, and
    `decompose` rejects what `atp` rejects with the same error."""
    text = qg4_text(data.draw(st.sampled_from(MUTATION_BASES))).encode()
    kinds = data.draw(st.lists(st.sampled_from(["digit", "swap", "symbol", "truncate", "header"]),
                               min_size=1, max_size=3))
    for kind in kinds:
        text = mutate(data, text, kind)
    commands = [["analyze", "--json"], ["atp"], ["decompose"], ["decompose", "--proper"],
                ["decompose", "--reduced"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.qg4")
        with open(path, "wb") as fh:
            fh.write(text)
        results = [run_captured([argv[0], path, *argv[1:]]) for argv in commands]
    for code, _out, err in results:
        assert code in (EXIT_OK, EXIT_FORMAT, EXIT_LATIN, EXIT_CAP) and "Traceback" not in err
    code, _out, err = results[1]
    if code != EXIT_OK:
        assert all((c, e) == (code, err) for c, _o, e in results[2:])


TREE_BASES = [construction_t(ConstructionTSpec.random(5, 1)), (chain_tree(5), chain(5)),
              (dec.full_decomposition(random_semilinear_composition(6, 7)),
               random_semilinear_composition(6, 7))]


def tree_docs(doc, nodes=True):
    """The node documents (or the leaf documents) of a tree document, in preorder."""
    if "var" in doc or not isinstance(doc.get("children"), list):
        return [] if nodes else [doc]
    return ([doc] if nodes else []) + [d for c in doc["children"] for d in tree_docs(c, nodes)]


def mutate_tree(data, doc: dict, kind: str) -> None:
    """Mutate a tree document in place."""
    targets = tree_docs(doc, nodes=kind not in ("leaves", "swap"))
    if kind == "children":
        targets = [t for t in targets if t["children"]]
    if not targets:
        return
    target = data.draw(st.sampled_from(targets))
    if kind == "digit":
        pos = data.draw(st.integers(0, len(target["table"]) - 1))
        new = data.draw(st.sampled_from("012345x"))
        target["table"] = target["table"][:pos] + new + target["table"][pos + 1:]
    elif kind == "children":  # drop, repeat or add a child
        children, how = target["children"], data.draw(st.sampled_from(["drop", "repeat", "add"]))
        k = data.draw(st.integers(0, len(children) - 1))
        if how == "drop":
            del children[k]
        else:
            children.insert(k, dict(children[k]) if how == "repeat" else {"var": len(children) + 1})
    elif kind == "leaves":  # the leaf indices stop being a permutation of 1..n
        target["var"] = data.draw(st.sampled_from([0, -1, 1, 2, 99, True, 1.0, "1", None]))
    elif kind == "swap":  # still a permutation: a tree of another quasigroup
        other = data.draw(st.sampled_from(targets))
        target["var"], other["var"] = other["var"], target["var"]
    elif kind == "extra":
        target[data.draw(st.sampled_from(["x", "var", "table", "children"]))] = 1


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_trees_exit_cleanly(data):
    """`verify --tree` maps every mutated tree document to a documented exit
    code, 0 to 4, with no traceback: a changed table digit, a child dropped,
    repeated or added, leaf indices that are no permutation of 1..n or are
    swapped, an extra key, truncated JSON, and a byte that is not UTF-8."""
    tree, q = data.draw(st.sampled_from(TREE_BASES))
    doc = dec.tree_to_doc(tree)
    kinds = data.draw(st.lists(st.sampled_from(["digit", "children", "leaves", "swap"]),
                               max_size=2))
    for kind in kinds + ["extra"] * data.draw(st.booleans()):
        mutate_tree(data, doc, kind)
    text = json.dumps(doc).encode()
    if data.draw(st.booleans()):  # truncated JSON
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    if data.draw(st.booleans()):  # a byte that is not UTF-8, or not JSON
        pos = data.draw(st.integers(0, len(text)))
        text = text[:pos] + data.draw(st.sampled_from([b"\xff", b"\x00", b"}"])) + text[pos + 1:]
    with tempfile.TemporaryDirectory() as tmp:
        qpath, tpath = os.path.join(tmp, "q.qg4"), os.path.join(tmp, "q.tree")
        with open(qpath, "w") as fh:
            fh.write(qg4_text(q))
        with open(tpath, "wb") as fh:
            fh.write(text)
        code, out, err = run_captured(["verify", qpath, "--tree", tpath])
    assert code in (EXIT_OK, EXIT_FORMAT, EXIT_LATIN, EXIT_CAP, EXIT_VERIFY)
    assert "Traceback" not in err
    assert (code == EXIT_VERIFY) == ("verification failed" in out)


class TestVerify:
    def test_passes_on_linear(self, tmp_path):
        path = tmp_path / "l3.qg4"
        path.write_text(qg4_text(linear(3)))
        code, out = invoke(["verify", str(path)])
        assert code == EXIT_OK
        assert "upper: bound=384 order=384 ok=True" in out

    def test_tree_cross_check(self, tmp_path):
        from qg4 import chain, chain_tree, dumps_tree

        qpath = tmp_path / "c5.qg4"
        qpath.write_text(qg4_text(chain(5)))
        tpath = tmp_path / "c5.tree"
        tpath.write_text(dumps_tree(chain_tree(5)))
        code, out = invoke(["verify", str(qpath), "--tree", str(tpath)])
        assert code == EXIT_OK
        assert "bunch identity" in out

    def test_mismatched_tree_fails(self, tmp_path):
        from qg4 import chain, chain_tree, dumps_tree

        qpath = tmp_path / "l3.qg4"
        qpath.write_text(qg4_text(linear(3)))
        tpath = tmp_path / "c5.tree"
        tpath.write_text(dumps_tree(chain_tree(5)))
        code, out = invoke(["verify", str(qpath), "--tree", str(tpath)])
        assert code == EXIT_VERIFY


class TestIsotopic:
    def test_none_between_classes(self, tmp_path, z4_file):
        xpath = tmp_path / "x.qg4"
        from qg4 import xor2

        xpath.write_text(qg4_text(xor2()))
        code, out = invoke(["isotopic", z4_file, str(xpath)])
        assert code == EXIT_OK
        assert out.strip() == "none"

    def test_finds_isotopy(self, tmp_path, z4_file):
        moved = tmp_path / "m.qg4"
        from qg4 import Isotopy, Perm

        theta = Isotopy((Perm.from_cycles((0, 1)), Perm.from_cycles((2, 3)),
                         Perm.from_cycles((0, 2))))
        moved.write_text(qg4_text(z4().isotope(theta)))
        code, out = invoke(["isotopic", z4_file, str(moved)])
        assert code == EXIT_OK
        parts = out.split()
        assert len(parts) == 3
        found = Isotopy(Perm(tuple(int(c) for c in w)) for w in parts)
        assert z4().isotope(found) == z4().isotope(theta)


class TestEnumerate:
    def test_distribution(self):
        code, out = invoke(["enumerate", "-n", "2"])
        assert code == EXIT_OK
        assert "squares: 576" in out
        assert "autotopy order 32: 432 squares" in out
        assert "autotopy order 96: 144 squares" in out

    def test_rejects_other_arities(self):
        code, _ = invoke(["enumerate", "-n", "3"])
        assert code == EXIT_FORMAT


class TestExitCodes:
    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.qg4"
        path.write_text("qg4 2\n0123\n")
        code, _ = invoke(["atp", str(path)])
        assert code == EXIT_FORMAT

    def test_latin_violation(self, tmp_path, capsys):
        grid = np.indices((4,) * 10, dtype=np.uint8)
        last = (grid[:-1].sum(axis=0) + grid[-1] // 2) % 4  # only x_10's sections repeat
        digits = (last.ravel() + ord("0")).astype(np.uint8).tobytes().decode()
        for command, text in (("atp", "qg4 2\n0123103223013201\n"),
                              ("decompose", f"qg4 10\n{digits}\n")):
            path = tmp_path / "bad.qg4"
            path.write_text(text)
            code, _ = invoke([command, str(path)])
            assert code == EXIT_LATIN and "Traceback" not in capsys.readouterr().err

    def test_missing_file(self):
        code, _ = invoke(["atp", "/nonexistent/q.qg4"])
        assert code == EXIT_FORMAT

    def test_bad_usage(self):
        code, _ = invoke(["frobnicate"])
        assert code == EXIT_FORMAT

    def assert_reported(self, argv, capsys):
        code, _ = invoke(argv)
        err = capsys.readouterr().err
        assert code == EXIT_FORMAT
        assert err.startswith("error: ") and "Traceback" not in err

    def test_directory_as_input(self, tmp_path, capsys):
        self.assert_reported(["analyze", str(tmp_path)], capsys)

    def test_directory_as_output(self, tmp_path, capsys):
        self.assert_reported(["gen", "linear", "-n", "3", "-o", str(tmp_path)], capsys)

    def test_decompose_unary(self, tmp_path, capsys):
        path = tmp_path / "u.qg4"
        path.write_text("qg4 1\n0123\n")
        self.assert_reported(["decompose", str(path)], capsys)

    def test_isotopic_arity_mismatch(self, tmp_path, z4_file, capsys):
        path = tmp_path / "l3.qg4"
        path.write_text(qg4_text(linear(3)))
        self.assert_reported(["isotopic", z4_file, str(path)], capsys)

    def test_tree_table_not_a_string(self, tmp_path, z4_file, capsys):
        path = tmp_path / "t.json"
        for table in (5, list("0123123023013012")):
            path.write_text(json.dumps({"table": table, "children": [{"var": 1}, {"var": 2}]}))
            self.assert_reported(["verify", z4_file, "--tree", str(path)], capsys)

    def test_deeply_nested_tree(self, tmp_path, z4_file, capsys):
        # deep enough to exhaust the recursion limit in json.loads or in doc_to_tree
        path = tmp_path / "t.json"
        for depth in (900, 5000):
            node = '{"table":"0123123023013012","children":['
            path.write_text(node * depth + '{"var":1}' + ',{"var":2}]}' * depth)
            self.assert_reported(["verify", z4_file, "--tree", str(path)], capsys)


class TestParserReuse:
    """The parser is built once and reused across calls."""

    def test_built_once(self):
        assert cli._parser() is cli._parser()

    def test_usage_error_after_a_successful_run(self, z4_file, capsys):
        assert invoke(["atp", z4_file, "--generators"])[0] == EXIT_OK
        for argv in (["frobnicate"], ["atp"], ["atp", z4_file, "--bogus"], []):
            assert invoke(argv)[0] == EXIT_FORMAT
            assert capsys.readouterr().err.startswith("error: ")
        assert invoke(["atp", z4_file, "--generators"])[0] == EXIT_OK

    def test_identical_calls_print_identical_bytes(self, z4_file):
        for argv in (["analyze", z4_file, "--json"], ["decompose", z4_file, "--reduced"],
                     ["atp", z4_file, "--elements"]):
            assert invoke(argv) == invoke(argv)
        # flags of one call do not leak into the next
        assert invoke(["atp", z4_file]) == (EXIT_OK, "order 32\n")


class TestThreadsFlag:
    """--threads is accepted and ignored: the sweep is sequential."""

    def test_output_unchanged(self, tmp_path):
        path = tmp_path / "l3.qg4"
        path.write_text(qg4_text(linear(3)))
        for argv in (["atp", str(path), "--generators"], ["analyze", str(path), "--json"]):
            code, out = invoke(argv + ["--threads", "3"])
            assert (code, out) == invoke(argv)
            assert code == EXIT_OK
