"""Analysis toolkit for n-ary quasigroups of order 4.

Exact autotopy groups, semilinearity and linearity detection, decomposition
trees with their bunch statistics, extremal constructions, and the
lower/upper bound checks tying them together.
"""

from .core import (
    ORDER,
    SYMBOLS,
    MAX_ARITY,
    ArityError,
    CapError,
    FormatError,
    LatinError,
    Isotopy,
    Perm,
    PERMS,
    IDENTITY,
    Quasigroup,
    is_autotopy,
    parse_table,
    qg4_text,
)
from .autotopy import (
    AutotopyGroup,
    StabilizerWitness,
    are_isotopic,
    atp_join,
    autotopy_group,
    close_isotopies,
    is_transitive,
    propagate,
    stabilizer,
    zero_anchor,
    zero_orbit,
)
from .semilinear import (
    NativeElements,
    PairPartition,
    SemilinearProfile,
    canonical_semilinear_autotopies,
    is_linear,
    is_semilinear,
    is_semilinear_in_pair,
    native_elements,
    semilinear_profile,
)
from .decompose import (
    EdgeIsotopy,
    Leaf,
    Node,
    TreeStats,
    are_coherent,
    find_split,
    floor_lower_bound,
    full_decomposition,
    is_proper,
    is_reduced,
    loads_tree,
    dumps_tree,
    lower_bound_predict,
    merge_nodes,
    minimality_conditions,
    proper_decomposition,
    reduce_decomposition,
    reroot_to_leaf,
    structural_autotopies,
    tree_eval,
    tree_stats,
)
from .construct import (
    ConstructionTSpec,
    all_binary_quasigroups,
    builtin,
    chain,
    chain_tree,
    construction_t,
    g3,
    h3,
    linear,
    random_semilinear_composition,
    semilinear_from_boolean,
    shifted_linear,
    xor2,
    z4,
)

__version__ = "0.1.0"
