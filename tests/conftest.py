import functools
import random

import numpy as np
import pytest

from qg4 import (
    ConstructionTSpec,
    Isotopy,
    PERMS,
    Quasigroup,
    all_binary_quasigroups,
    chain,
    construction_t,
    g3,
    h3,
    linear,
    shifted_linear,
    xor2,
    z4,
)
from qg4.construct import random_semilinear_composition


@pytest.fixture(scope="session")
def base_tables():
    return {
        "xor2": xor2(),
        "z4": z4(),
        "g3": g3(),
        "h3": h3(),
        "l3": linear(3),
        "l4": linear(4),
        "sl3": shifted_linear(3),
        "sl4": shifted_linear(4),
        "chain5": chain(5),
        "chain6": chain(6),
    }


def random_isotopy(arity, rng: random.Random) -> Isotopy:
    return Isotopy(PERMS[rng.randrange(len(PERMS))] for _ in range(arity + 1))


@functools.lru_cache(maxsize=None)
def acceptance_corpus():
    """Builtins, chains, 100 seeded constructions, 100 random compositions."""
    members = [
        ("xor2", xor2()),
        ("z4", z4()),
        ("g3", g3()),
        ("h3", h3()),
        ("chain5", chain(5)),
        ("chain6", chain(6)),
        ("l2", linear(2)),
        ("l3", linear(3)),
        ("l4", linear(4)),
        ("l5", linear(5)),
        ("sl3", shifted_linear(3)),
        ("sl4", shifted_linear(4)),
        ("sl5", shifted_linear(5)),
    ]
    for seed in range(50):
        members.append((f"t3-{seed}", construction_t(ConstructionTSpec.random(3, seed))[1]))
        members.append((f"t5-{seed}", construction_t(ConstructionTSpec.random(5, seed))[1]))
    for seed in range(100):
        arity = 3 + seed % 4
        members.append((f"comp{arity}-{seed}",
                        random_semilinear_composition(arity, seed)))
    return tuple(members)


@functools.lru_cache(maxsize=None)
def oracle_tables():
    """The inputs on which fast paths are checked against their old routes: the
    576 squares, the acceptance corpus, and seeded compositions and
    construction_t tables at arity 3 to 9, each also under a random isotopy."""
    rng = random.Random(2024)
    tables = list(all_binary_quasigroups()) + [q for _name, q in acceptance_corpus()]
    for arity in range(3, 10):
        for seed in range(3):
            made = [random_semilinear_composition(arity, 500 + 10 * arity + seed)]
            if arity % 2:
                made.append(construction_t(ConstructionTSpec.random(arity, seed))[1])
            tables += made + [q.isotope(random_isotopy(arity, rng)) for q in made]
    return tuple(tables)


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
