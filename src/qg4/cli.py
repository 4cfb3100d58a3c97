"""Command-line front end: analysis, generation, verification, reports.

Exit codes: 0 ok, 1 malformed input or usage, 2 Latin violation,
3 search refused above the arity cap, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter

from .core import (
    ArityError,
    CapError,
    FormatError,
    Isotopy,
    LatinError,
    MAX_ARITY,
    PERMS,
    Quasigroup,
    parse_table,
    qg4_text,
)
from . import autotopy as atp
from . import construct
from . import decompose as dec
from .semilinear import is_linear, semilinear_profile

EXIT_OK = 0
EXIT_FORMAT = 1
EXIT_LATIN = 2
EXIT_CAP = 3
EXIT_VERIFY = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for Latin
        raise UsageError(message)


# Errors reported as "error: ..." on stderr, with their exit codes.
_EXIT_CODES = {
    UsageError: EXIT_FORMAT,
    OSError: EXIT_FORMAT,
    UnicodeDecodeError: EXIT_FORMAT,  # a tree document that is not UTF-8
    FormatError: EXIT_FORMAT,
    ArityError: EXIT_FORMAT,
    LatinError: EXIT_LATIN,
    CapError: EXIT_CAP,
}


_PERM_STRS = tuple("".join(map(str, p.images)) for p in PERMS)  # by Perm.index


def _isotopy_strs(theta: Isotopy) -> list[str]:
    return [_PERM_STRS[p.index] for p in theta.parts]


def _read_quasigroup(path: str, latin: bool = True) -> Quasigroup:
    with open(path, "rb") as fh:
        return parse_table(fh.read(), _latin=latin)


def _stats_doc(stats: dec.TreeStats) -> dict:
    return {
        "leaves": stats.n_leaves,
        "nodes": stats.n_nodes,
        "bald_nodes": stats.n_bald,
        "bridges": stats.n_bridges,
        "forks": stats.n_forks,
        "bunches": stats.n_bunches,
        "bald_bunches": stats.n_bald_bunches,
        "structural_lower_bound": dec.lower_bound_predict(stats),
    }


def _bound_checks(q: Quasigroup, order: int, linear: bool) -> dict:
    lower = dec.floor_lower_bound(q.arity)
    upper = 6 * 4**q.arity
    nonlinear_max = 2 * 4**q.arity
    checks = {
        "lower": {"bound": lower, "ok": order >= lower},
        "upper": {"bound": upper, "ok": order <= upper},
        "nonlinear_max": {
            "bound": nonlinear_max,
            "applies": not linear,
            "ok": linear or order <= nonlinear_max,
        },
    }
    return checks


def _build_report(q: Quasigroup, cap: int) -> dict:
    group = atp.autotopy_group(q, cap=cap)
    profile = semilinear_profile(q)
    linear = profile.is_linear
    full = dec.full_decomposition(q) if q.arity >= 2 else None
    reducible = q.arity >= 3 and len(list(dec.iter_nodes(full))) > 1
    report = {
        "arity": q.arity,
        "latin": True,
        "semilinear": [[p.name for p in a] for a in profile.assignments],
        "linear": linear,
        "reducible": reducible,
        "atp_order": group.order,
        "atp_generators": [_isotopy_strs(g) for g in group.generators],
        "transitive": atp.is_transitive(q, cap=cap),
        "bound_checks": _bound_checks(q, group.order, linear),
        "tree": None,
        "stats": None,
    }
    if full is not None:
        reduced, _ = dec.reduce_decomposition(dec.merge_coherent(full))
        report["tree"] = dec.tree_to_doc(reduced)
        report["stats"] = _stats_doc(dec.tree_stats(reduced))
    return report


def _print_report(report: dict, as_json: bool, out) -> None:
    if as_json:
        print(json.dumps(report, sort_keys=True), file=out)
        return
    for key in ("arity", "latin", "linear", "reducible", "atp_order", "transitive"):
        print(f"{key}: {report[key]}", file=out)
    shown = ["; ".join(a) for a in report["semilinear"]]
    print(f"semilinear: {shown if shown else 'none'}", file=out)
    for name, chk in sorted(report["bound_checks"].items()):
        print(f"bound {name}: bound={chk['bound']} ok={chk['ok']}", file=out)
    for g in report["atp_generators"]:
        print(f"generator: {' '.join(g)}", file=out)
    if report["stats"] is not None:
        stats = report["stats"]
        line = " ".join(f"{k}={stats[k]}" for k in sorted(stats))
        print(f"stats: {line}", file=out)


def _cmd_analyze(args, out) -> int:
    q = _read_quasigroup(args.file)
    report = _build_report(q, args.max_arity)
    _print_report(report, args.json, out)
    return EXIT_OK


def _cmd_atp(args, out) -> int:
    q = _read_quasigroup(args.file)
    group = atp.autotopy_group(q, cap=args.max_arity)
    print(f"order {group.order}", file=out)
    if args.generators or args.elements:
        for g in group.generators:
            print(f"generator: {' '.join(_isotopy_strs(g))}", file=out)
    if args.elements:
        if group.elements is None:
            print("elements: not materialized", file=out)
        else:
            for e in group.elements:
                print(f"element: {' '.join(_isotopy_strs(e))}", file=out)
    return EXIT_OK


def _cmd_decompose(args, out) -> int:
    q = _read_quasigroup(args.file, latin=False)  # the decomposition certifies it
    if args.reduced:
        tree, relating = dec.reduce_decomposition(dec.proper_decomposition(q, _latin=False))
        extra = {"isotopy": _isotopy_strs(relating)}
    elif args.proper:
        tree, extra = dec.proper_decomposition(q, _latin=False), {}
    else:
        tree, extra = dec.full_decomposition(q, _latin=False), {}
    doc = {
        "tree": dec.tree_to_doc(tree),
        "stats": _stats_doc(dec.tree_stats(tree)),
        **extra,
    }
    print(json.dumps(doc, sort_keys=True), file=out)
    return EXIT_OK


_FAMILIES = ("linear", "lbullet", "chain", "z4", "xor2", "g3", "h3", "construction-t")


def _generate(family: str, n: int | None, seed: int | None):
    fixed_arity = {"z4": 2, "xor2": 2, "g3": 3, "h3": 3}
    if family in fixed_arity:
        if n is not None and n != fixed_arity[family]:
            raise UsageError(f"{family} has fixed arity {fixed_arity[family]}")
        return construct.builtin(family), None
    if n is None:
        raise UsageError(f"family {family} needs -n <arity>")
    if n > MAX_ARITY:  # before any builder: some take time and memory superlinear in n
        raise CapError(f"arity {n} exceeds the table cap {MAX_ARITY}")
    if family == "linear":
        return construct.linear(n), None
    if family == "lbullet":
        return construct.shifted_linear(n), None
    if family == "chain":
        return construct.chain(n), construct.chain_tree(n)
    if family == "construction-t":
        spec = construct.ConstructionTSpec.random(n, 0 if seed is None else seed)
        tree, q = construct.construction_t(spec)
        return q, tree
    raise UsageError(f"unknown family {family!r}")


def _cmd_gen(args, out) -> int:
    try:
        q, tree = _generate(args.family, args.n, args.seed)
    except ValueError as exc:
        raise UsageError(str(exc))
    text = qg4_text(q)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    if args.tree_out:
        if tree is None:
            tree = dec.full_decomposition(q)
        with open(args.tree_out, "w") as fh:
            fh.write(dec.dumps_tree(tree) + "\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    q = _read_quasigroup(args.file)
    group = atp.autotopy_group(q, cap=args.max_arity)
    linear = is_linear(q)
    checks = _bound_checks(q, group.order, linear)
    failures = []
    for name, chk in sorted(checks.items()):
        print(f"{name}: bound={chk['bound']} order={group.order} ok={chk['ok']}",
              file=out)
        if not chk["ok"]:
            failures.append(name)
    if args.tree:
        with open(args.tree) as fh:
            tree = dec.loads_tree(fh.read())
        if dec.tree_eval(tree) != q:
            print("tree: does not represent the quasigroup", file=out)
            failures.append("tree")
        else:
            stats = dec.tree_stats(tree)
            ok = stats.n_bunches == stats.n_nodes - stats.n_bridges
            print(f"bunch identity: bunches={stats.n_bunches} "
                  f"nodes={stats.n_nodes} bridges={stats.n_bridges} ok={ok}", file=out)
            if not ok:
                failures.append("bunch identity")
    if failures:
        print(f"verification failed: {', '.join(failures)}", file=out)
        return EXIT_VERIFY
    print("verification passed", file=out)
    return EXIT_OK


def _cmd_isotopic(args, out) -> int:
    q1 = _read_quasigroup(args.file1)
    q2 = _read_quasigroup(args.file2)
    theta = atp.are_isotopic(q1, q2, cap=args.max_arity)
    if theta is None:
        print("none", file=out)
    else:
        print(" ".join(_isotopy_strs(theta)), file=out)
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    if args.n != 2:
        raise UsageError("enumeration is supported for -n 2 only")
    orders = Counter()
    for q in construct.all_binary_quasigroups():
        orders[atp.autotopy_group(q).order] += 1
    total = sum(orders.values())
    print(f"squares: {total}", file=out)
    for order in sorted(orders):
        print(f"autotopy order {order}: {orders[order]} squares", file=out)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-arity", type=int, default=atp.DEFAULT_CAP,
                   help="brute-force arity cap (default %(default)s)")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored; the sweep is sequential")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qg4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a qg4 file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("atp", help="autotopy group order and generators")
    p.add_argument("file")
    p.add_argument("--generators", action="store_true")
    p.add_argument("--elements", action="store_true")
    _add_common(p)
    p.set_defaults(func=_cmd_atp)

    p = sub.add_parser("decompose", help="decomposition tree and its statistics")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--proper", action="store_true")
    mode.add_argument("--reduced", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("gen", help="generate a named quasigroup")
    p.add_argument("family", choices=_FAMILIES)
    p.add_argument("-n", type=int, default=None, help="arity")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", default=None, help="qg4 output path")
    p.add_argument("--tree-out", default=None, help="tree document output path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check the autotopy-order bounds")
    p.add_argument("file")
    p.add_argument("--tree", default=None, help="tree document to cross-check")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("isotopic", help="find an isotopy between two quasigroups")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_common(p)
    p.set_defaults(func=_cmd_isotopic)

    p = sub.add_parser("enumerate", help="sweep all binary quasigroups")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(func=_cmd_enumerate)

    return parser


_parser = functools.cache(build_parser)  # built once: parsing leaves no state on it


def run(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "max_arity", atp.DEFAULT_CAP) > atp.DEFAULT_CAP:
            print(f"warning: arity cap raised to {args.max_arity}; "
                  "the sweep grows as 16^n", file=sys.stderr)
        return args.func(args, out)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
