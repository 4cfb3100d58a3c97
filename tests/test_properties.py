"""Property tests: serialization round trips, the rerooting invariance of
tree statistics, and how semilinear profiles and autotopy group orders
follow an isotopy, on trees and tables drawn from seeded constructions."""

from hypothesis import HealthCheck, given, settings, strategies as st

from qg4 import (
    PERMS,
    ConstructionTSpec,
    Isotopy,
    autotopy_group,
    construction_t,
    dumps_tree,
    full_decomposition,
    loads_tree,
    parse_table,
    qg4_text,
    reroot_to_leaf,
    semilinear_profile,
    tree_stats,
)
from qg4.construct import random_semilinear_composition

# Bounded examples keep the file to a few seconds, and no example database is
# written.  Drawing a tree decomposes a table of up to 4^9 cells, which a
# loaded machine may find slow.
BOUNDED = settings(max_examples=100, deadline=None, database=None,
                   suppress_health_check=[HealthCheck.too_slow])
seeds = st.integers(0, 2**32 - 1)


@st.composite
def trees(draw):
    """construction_t trees, or full decompositions of seeded compositions."""
    if draw(st.booleans()):
        return construction_t(ConstructionTSpec.random(draw(st.sampled_from([3, 5, 7, 9])),
                                                       draw(seeds)))[0]
    return full_decomposition(random_semilinear_composition(draw(st.integers(2, 9)),
                                                            draw(seeds)))


@st.composite
def tables(draw):
    """An isotope of a seeded composition of arity 2 to 6."""
    arity = draw(st.integers(2, 6))
    q = random_semilinear_composition(arity, draw(seeds))
    perms = draw(st.lists(st.sampled_from(PERMS), min_size=arity + 1, max_size=arity + 1))
    return q.isotope(Isotopy(perms))


def isotopies(arity):
    return st.lists(st.sampled_from(PERMS), min_size=arity + 1,
                    max_size=arity + 1).map(Isotopy)


@st.composite
def searched(draw):
    """A table for the group search: an isotope of a seeded composition of
    arity 2 to 6, or of a construction_t table of arity 3 or 5, whose small
    orbits the section classes prune."""
    if draw(st.booleans()):
        return draw(tables())
    q = construction_t(ConstructionTSpec.random(draw(st.sampled_from([3, 5])), draw(seeds)))[1]
    return q.isotope(draw(isotopies(q.arity)))


def shape(t):
    s = tree_stats(t)
    return (s.n_leaves, s.n_nodes, s.n_bald, s.n_bridges, s.n_forks, s.n_bunches,
            s.n_bald_bunches, sorted(len(m) for m in s.bunch_members))


@BOUNDED
@given(trees())
def test_tree_document_round_trip(t):
    assert loads_tree(dumps_tree(t)) == t


@BOUNDED
@given(tables())
def test_qg4_text_round_trip(q):
    text = qg4_text(q)
    assert parse_table(text) == q
    assert parse_table(text.encode("ascii")) == q


@BOUNDED
@given(trees(), st.data())
def test_tree_stats_invariant_under_reroot(t, data):
    var = data.draw(st.integers(1, tree_stats(t).n_leaves - 1))
    assert shape(reroot_to_leaf(t, var)) == shape(t)


@BOUNDED
@given(tables(), st.data())
def test_profile_follows_isotopy(q, data):
    # q.isotope(theta) respects the preimage of each partition under its slot's permutation
    theta = data.draw(isotopies(q.arity))
    want = {tuple(p.image_under(t.inverse()) for p, t in zip(a, theta))
            for a in semilinear_profile(q).assignments}
    got = semilinear_profile(q.isotope(theta)).assignments
    assert len(got) == len(want) and set(got) == want


@BOUNDED
@given(searched(), st.data())
def test_group_order_is_an_isotopy_invariant(q, data):
    theta = data.draw(isotopies(q.arity))
    assert autotopy_group(q.isotope(theta)).order == autotopy_group(q).order
