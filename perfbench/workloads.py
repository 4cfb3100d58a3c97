"""The four workloads: how each op's inputs are made, run, answered and checked.

Every workload is a closed loop over *cycles*.  A cycle is a fixed list of
ops; its inputs come from (seed, cycle index, op index) alone, so a cycle can
be regenerated in any process, and every cycle of a workload does the same
kind and amount of work.  The timed part of an op is `Op.call`; making its
inputs, turning its result into answer bytes and the theorem checks all run
outside the timed interval.

Cost stability.  The sweep in `autotopy_group` costs the same on two tables
related by an isotopy whose argument permutations fix 0 (the value
permutation is free): the candidates, probe cells and full-table checks map
one to one.  So `analyze-compose` fixes its composition *structures* (drawn
once from fixed seeds) and lets `--seed` draw such relabellings: each seed
gets tables the process has never seen, and every seed measures the same
work.  Drawing fresh structures per seed instead made the median latency of
a run spread by about 13% between seeds.  `transitive` and `trees` use
full random isotopies, under which their cost is already invariant.

Nothing here imports qg4 at module level: the worker passes the module in,
so `run.py` can read workload names without importing the program.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

WORKLOAD_NAMES = ("analyze-compose", "transitive", "small-arity", "trees")
DEFAULT_SEED = 0


@dataclass
class Op:
    """One timed operation and what is needed to judge it."""

    kind: str
    tables: tuple          # every table the op consumes (cold-input rule)
    call: Callable[[], Any]                 # timed
    answer: Callable[[Any], bytes]          # untimed: canonical answer bytes
    check: Callable[[Any], list[str]]       # untimed: theorem checks
    key: Any = None        # structure id, for cross-cycle invariance checks


def table_digest(q) -> str:
    return hashlib.sha256(bytes([q.arity]) + q.table.tobytes()).hexdigest()


def answer_digest(kind: str, answer: bytes) -> str:
    return hashlib.sha256(kind.encode() + b"\0" + answer).hexdigest()[:16]


def iso_str(theta) -> str:
    """An isotopy as the CLI prints it: one image string per permutation."""
    return " ".join("".join(map(str, p.images)) for p in theta.parts)


def qg4_bytes(q) -> bytes:
    """The qg4 file format, without qg4_text's per-cell str() (checked in set-up)."""
    return b"qg4 %d\n" % q.arity + (q.table.ravel() + 48).tobytes() + b"\n"


def write_qg4(path: str, q) -> None:
    with open(path, "wb") as fh:
        fh.write(qg4_bytes(q))


class Workload:
    """Shared machinery: input freshness, file writing, CLI calls."""

    name = ""
    ops_per_cycle = 0
    cycles_per_process: int | None = None   # None: a process may run any number

    def __init__(self, qg4, seed: int, workdir: str):
        self.qg4 = qg4
        self.seed = seed
        self.workdir = workdir
        self.seen: set[str] = set()
        self.largest_cells = 0
        self.invariants: dict[Any, Any] = {}

    # -- input helpers --------------------------------------------------------

    def rng(self, cycle: int, j: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{cycle}:{j}")

    def fresh(self, make: Callable[[], Any]):
        """Draw tables until one is new to this process; mark it seen."""
        for _ in range(1000):
            q = make()
            d = table_digest(q)
            if d not in self.seen:
                self.seen.add(d)
                self.largest_cells = max(self.largest_cells, q.table.size)
                return q
        raise RuntimeError("could not draw a table new to this process")

    def random_isotopy(self, arity: int, rng: random.Random):
        return self.qg4.construct.random_isotopy(arity, rng)

    def zero_fixing_isotopy(self, arity: int, rng: random.Random):
        """Any value permutation; argument permutations that fix 0."""
        perms = self.qg4.PERMS
        fix0 = [p for p in perms if p.images[0] == 0]
        return self.qg4.Isotopy([rng.choice(perms)] + [rng.choice(fix0) for _ in range(arity)])

    def path(self, cycle: int, j: int, suffix: str = "") -> str:
        return f"{self.workdir}/c{cycle}-o{j}{suffix}.qg4"

    def cli(self, argv: list[str]) -> tuple[int, str]:
        out = io.StringIO()
        code = self.qg4.cli.run(argv, out=out)
        return code, out.getvalue()

    def check_format(self, q) -> None:
        """The benchmark's fast writer must agree with the program's format."""
        if qg4_bytes(q) != self.qg4.qg4_text(q).encode("ascii"):
            raise RuntimeError("benchmark file writer disagrees with qg4_text")

    def invariant(self, key, value) -> list[str]:
        """Values that isotopy preserves must agree across cycles."""
        if key is None:
            return []
        first = self.invariants.setdefault(key, value)
        return [] if first == value else [f"isotopy invariant changed for {key}: {first} vs {value}"]

    def parse_isotopy(self, parts: list[str]):
        qg4 = self.qg4
        return qg4.Isotopy(qg4.Perm(int(c) for c in s) for s in parts)

    # -- interface ------------------------------------------------------------

    def setup(self) -> None:
        """Build what every cycle shares (set-up time)."""

    def prepare(self, cycle: int) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Run-level checks after the last cycle."""
        return []

    # -- shared theorem checks -------------------------------------------------

    def order_bounds(self, n: int, order: int, linear: bool) -> list[str]:
        bad = []
        lower = 2 ** (n // 2 + 2)
        if not lower <= order <= 6 * 4**n:
            bad.append(f"order {order} outside [{lower}, {6 * 4**n}]")
        if linear != (order == 6 * 4**n):
            bad.append(f"linear={linear} but order {order}")
        if not linear and order > 2 * 4**n:
            bad.append(f"nonlinear order {order} above 2*4^n")
        return bad

    def generators_ok(self, q, gens: list[list[str]]) -> list[str]:
        for g in gens:
            if not self.qg4.is_autotopy(q, self.parse_isotopy(g)):
                return [f"generator {g} is not an autotopy"]
        return []

    def orbit_stabilizer(self, q, order: int) -> list[str]:
        stab = self.qg4.stabilizer(q).size
        orbit = len(self.qg4.zero_orbit(q))
        bad = []
        if stab not in (1, 2, 6):
            bad.append(f"stabilizer size {stab}")
        if order != orbit * stab:
            bad.append(f"|G|={order} but |orbit|*|stab|={orbit}*{stab}")
        return bad


# ---------------------------------------------------------------------------

class AnalyzeCompose(Workload):
    """`qg4 analyze --json` on arity-5 and arity-6 semilinear compositions."""

    name = "analyze-compose"
    ARITIES = (5, 5, 5, 5, 5, 5, 5, 5, 6)
    ops_per_cycle = len(ARITIES)

    def setup(self) -> None:
        make = self.qg4.random_semilinear_composition
        self.bases = [make(n, 100 + j) for j, n in enumerate(self.ARITIES)]

    def prepare(self, cycle: int) -> list[Op]:
        ops = []
        for j, base in enumerate(self.bases):
            rng = self.rng(cycle, j)
            q = self.fresh(lambda: base.isotope(self.zero_fixing_isotopy(base.arity, rng)))
            path = self.path(cycle, j)
            write_qg4(path, q)
            ops.append(Op(
                kind="analyze", tables=(q,), key=j,
                call=lambda p=path: self.cli(["analyze", p, "--json"]),
                answer=lambda r: f"{r[0]}\n{r[1]}".encode(),
                check=lambda r, q=q, j=j: self.check(q, j, r),
            ))
        return ops

    def check(self, q, j, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        rep = json.loads(text)
        n, order, linear = q.arity, rep["atp_order"], rep["linear"]
        bad = self.order_bounds(n, order, linear)
        bad += self.generators_ok(q, rep["atp_generators"])
        bad += self.orbit_stabilizer(q, order)
        if rep["transitive"] != self.qg4.is_transitive(q):
            bad.append("transitive flag disagrees with is_transitive")
        if not all(c["ok"] for c in rep["bound_checks"].values()):
            bad.append("a reported bound check failed")
        st = rep["stats"]
        if st["bunches"] != st["nodes"] - st["bridges"]:
            bad.append("bunches != nodes - bridges")
        shape = (order, linear, rep["transitive"], rep["reducible"], len(rep["semilinear"]),
                 tuple(sorted(st.items())))
        return bad + self.invariant(j, shape)


class Transitive(Workload):
    """autotopy_group, is_transitive, stabilizer on isotopes of linear(5)/(6)."""

    name = "transitive"
    ARITIES = (5, 5, 5, 5, 5, 5, 5, 6)
    ops_per_cycle = len(ARITIES)

    def setup(self) -> None:
        self.bases = {n: self.qg4.linear(n) for n in set(self.ARITIES)}

    def prepare(self, cycle: int) -> list[Op]:
        ops = []
        for j, n in enumerate(self.ARITIES):
            rng = self.rng(cycle, j)
            q = self.fresh(lambda: self.bases[n].isotope(self.random_isotopy(n, rng)))
            ops.append(Op(
                kind="transitive", tables=(q,), key=n,
                call=lambda q=q: (self.qg4.autotopy_group(q), self.qg4.is_transitive(q),
                                  self.qg4.stabilizer(q)),
                answer=self.answer,
                check=lambda r, q=q: self.check(q, r),
            ))
        return ops

    def answer(self, result) -> bytes:
        group, transitive, stab = result
        lines = [f"order {group.order}"]
        lines += [f"generator: {iso_str(g)}" for g in group.generators]
        lines.append(f"transitive {transitive}")
        lines += [f"stabilizer: {iso_str(s)}" for s in stab.members]
        return "\n".join(lines).encode()

    def check(self, q, result) -> list[str]:
        group, transitive, stab = result
        n = q.arity
        bad = self.order_bounds(n, group.order, self.qg4.is_linear(q))
        if group.order != 6 * 4**n or not transitive:
            bad.append("a linear isotope must have the full transitive group")
        if not all(self.qg4.is_autotopy(q, g) for g in group.generators):
            bad.append("a generator is not an autotopy")
        orbit = len(self.qg4.zero_orbit(q))
        if stab.size not in (1, 2, 6) or group.order != orbit * stab.size:
            bad.append(f"|G|={group.order} vs |orbit|={orbit} * |stab|={stab.size}")
        return bad + self.invariant(n, (group.order, len(group.generators), stab.size))


class SmallArity(Workload):
    """`qg4 atp --generators` on the 576 squares, mixed with `qg4 isotopic`.

    A cycle is one round: a square, an isotopic pair, a non-isotopic pair.
    The squares run out after 576 rounds, so one process runs at most one
    pass; the next pass starts in a fresh interpreter.
    """

    name = "small-arity"
    ops_per_cycle = 3
    cycles_per_process = 576

    # Non-isotopic pairs: a linear and a nonlinear table (linearity is an
    # isotopy invariant), in a fixed rotation so every run has the same mix.
    NONISO = (
        (3, "linear", "shifted"), (4, "linear", "shifted"),
        (3, "g3", "linear"), (4, "z4chain", "linear"),
        (3, "linear", "h3"), (4, "linear", "xor-h3"),
        (3, "shifted", "linear"), (4, "shifted", "linear"),
    )

    def setup(self) -> None:
        qg4 = self.qg4
        self.squares = list(qg4.all_binary_quasigroups())
        if len(self.squares) != 576:
            raise RuntimeError(f"expected 576 squares, got {len(self.squares)}")
        z4, xor2 = qg4.z4(), qg4.xor2()
        self.families = {
            (3, "linear"): qg4.linear(3), (4, "linear"): qg4.linear(4),
            (3, "shifted"): qg4.shifted_linear(3), (4, "shifted"): qg4.shifted_linear(4),
            (3, "g3"): qg4.g3(), (3, "h3"): qg4.h3(),
            (4, "z4chain"): z4.compose_at(z4, 1).compose_at(z4, 1),
            (4, "xor-h3"): xor2.compose_at(qg4.h3(), 2),
        }
        self.orders: dict[int, int] = {}
        self.pass_rounds = 0
        self.square_order: tuple[int, list[int]] = (-1, [])

    def square(self, cycle: int):
        """Square for this round: a seeded order of the 576, one per pass."""
        pass_no = cycle // 576
        if self.square_order[0] != pass_no:
            order = list(range(576))
            random.Random(f"{self.name}:{self.seed}:squares:{pass_no}").shuffle(order)
            self.square_order = (pass_no, order)
        return self.squares[self.square_order[1][cycle % 576]]

    def prepare(self, cycle: int) -> list[Op]:
        square = self.fresh(lambda: self.square(cycle))
        sq_path = self.path(cycle, 0)
        write_qg4(sq_path, square)
        ops = [Op(
            kind="atp", tables=(square,),
            call=lambda: self.cli(["atp", sq_path, "--generators"]),
            answer=lambda r: f"{r[0]}\n{r[1]}".encode(),
            check=lambda r: self.check_square(square, r),
        )]

        n = 3 + cycle % 2
        rng = self.rng(cycle, 1)
        a = self.fresh(lambda: self.qg4.random_semilinear_composition(n, rng.getrandbits(32)))
        b = self.fresh(lambda: a.isotope(self.random_isotopy(n, rng)))
        ops.append(self.pair_op(cycle, 1, a, b, isotopic=True))

        n, fa, fb = self.NONISO[cycle % len(self.NONISO)]
        rng = self.rng(cycle, 2)
        a = self.fresh(lambda: self.families[n, fa].isotope(self.random_isotopy(n, rng)))
        b = self.fresh(lambda: self.families[n, fb].isotope(self.random_isotopy(n, rng)))
        ops.append(self.pair_op(cycle, 2, a, b, isotopic=False))
        return ops

    def pair_op(self, cycle: int, j: int, a, b, isotopic: bool) -> Op:
        pa, pb = self.path(cycle, j, "a"), self.path(cycle, j, "b")
        write_qg4(pa, a)
        write_qg4(pb, b)
        return Op(
            kind="isotopic", tables=(a, b),
            call=lambda: self.cli(["isotopic", pa, pb]),
            answer=lambda r: f"{r[0]}\n{r[1]}".encode(),
            check=lambda r: self.check_pair(a, b, isotopic, r),
        )

    def check_square(self, q, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        lines = text.splitlines()
        order = int(lines[0].split()[1])
        self.orders[order] = self.orders.get(order, 0) + 1
        self.pass_rounds += 1
        bad = []
        if order not in (32, 96):
            bad.append(f"square order {order}")
        if (order == 96) != self.qg4.is_linear(q):
            bad.append("order 96 must mean linear (xor class)")
        gens = [ln.split(": ")[1].split() for ln in lines[1:]]
        return bad + self.generators_ok(q, gens)

    def check_pair(self, a, b, isotopic: bool, result) -> list[str]:
        code, text = result
        if code != 0:
            return [f"exit code {code}"]
        text = text.strip()
        if text == "none":
            prof_a = self.qg4.semilinear_profile(a)
            prof_b = self.qg4.semilinear_profile(b)
            if isotopic or prof_a.is_linear == prof_b.is_linear:
                return ["'none' for a pair not built with different profiles"]
            return []
        if not isotopic:
            return ["an isotopy reported for a linear/nonlinear pair"]
        if a.isotope(self.parse_isotopy(text.split())) != b:
            return ["reported isotopy does not map q1 onto q2"]
        return []

    def finish(self) -> list[str]:
        # A full pass sees every square once: 432 of order 32, 144 of order 96.
        if self.pass_rounds == 576 and self.orders != {32: 432, 96: 144}:
            return [f"square classes {self.orders}, expected 432 x 32 and 144 x 96"]
        return []


class Trees(Workload):
    """`qg4 decompose --reduced`, then tree_stats, structural autotopies and
    minimality conditions on the returned tree, at arities 9, 10 and 11."""

    name = "trees"
    ops_per_cycle = 3

    def setup(self) -> None:
        qg4 = self.qg4
        spec = qg4.ConstructionTSpec.random
        self.bases = [
            ("t9", qg4.construction_t(spec(9, 1))[1]),
            ("c10", qg4.random_semilinear_composition(10, 1)),
            ("t11", qg4.construction_t(spec(11, 1))[1]),
        ]

    def prepare(self, cycle: int) -> list[Op]:
        ops = []
        for j, (tag, base) in enumerate(self.bases):
            rng = self.rng(cycle, j)
            q = self.fresh(lambda: base.isotope(self.random_isotopy(base.arity, rng)))
            path = self.path(cycle, j)
            write_qg4(path, q)
            ops.append(Op(
                kind="trees", tables=(q,), key=tag,
                call=lambda p=path: self.op(p),
                answer=self.answer,
                check=lambda r, q=q, tag=tag: self.check(q, tag, r),
            ))
        return ops

    def op(self, path: str):
        qg4 = self.qg4
        code, text = self.cli(["decompose", path, "--reduced"])
        if code != 0:
            return code, text, None, None, None, None
        doc = json.loads(text)
        tree = qg4.loads_tree(json.dumps(doc["tree"]))
        return (code, text, tree, qg4.tree_stats(tree), qg4.structural_autotopies(tree),
                qg4.minimality_conditions(tree))

    def answer(self, result) -> bytes:
        code, text, _tree, stats, structural, minimal = result
        if code != 0:
            return f"{code}\n{text}".encode()
        gens = [iso_str(g.flatten()) for g in structural]
        counts = (stats.n_leaves, stats.n_nodes, stats.n_bald, stats.n_bridges,
                  stats.n_forks, stats.n_bunches, stats.n_bald_bunches)
        return "\n".join([str(code), text.rstrip("\n"), repr(counts), *gens,
                          repr(minimal)]).encode()

    def check(self, q, tag, result) -> list[str]:
        code, text, tree, stats, _structural, minimal = result
        if code != 0:
            return [f"exit code {code}"]
        doc = json.loads(text)
        bad = []
        theta = self.parse_isotopy(doc["isotopy"])
        if q.isotope(theta) != self.qg4.tree_eval(tree):
            bad.append("reduced tree does not evaluate to the input under the isotopy")
        if stats.n_bunches != stats.n_nodes - stats.n_bridges:
            bad.append("bunches != nodes - bridges")
        if doc["stats"]["bunches"] != stats.n_bunches:
            bad.append("CLI stats disagree with tree_stats")
        predicted = doc["stats"]["structural_lower_bound"]
        if tag.startswith("t"):
            n = q.arity
            if predicted != 2 ** ((n + 3) // 2):
                bad.append(f"construction_t({n}) predicts {predicted}, not 2^((n+3)/2)")
            if not minimal.satisfied:
                bad.append("construction_t tree fails the minimality conditions")
        return bad + self.invariant(tag, (predicted, repr(minimal), tuple(sorted(doc["stats"].items()))))


WORKLOADS = {w.name: w for w in (AnalyzeCompose, Transitive, SmallArity, Trees)}
assert tuple(WORKLOADS) == WORKLOAD_NAMES
