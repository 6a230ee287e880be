"""Finite bounded posets with a unary operation.

Set-valued operations built from minimal upper / maximal lower bounds,
deciders for the structural properties a carrier may enjoy, adjointness
analysis of the operation pair, and exhaustive model search at desk scale.
"""

from .adjoint import (
    CONDITION_KEYS,
    EQUIVALENCE_GROUPS,
    AdjointReport,
    check_adjointness_consequences,
    check_conditions,
    check_directions,
    check_modular_corollary,
    direction_sides,
    find_o6_subalgebra,
    is_adjoint_pair,
)
from .enumeration import (
    SEARCH_FLAGS,
    SearchGoal,
    complement_candidates,
    enumerate_posets,
    enumerate_relations,
    instance_flag_map,
    search,
)
from .io_cli import (
    ParseError,
    PosetDocument,
    export_dot,
    json_report,
    load_fixture,
    parse_poset,
    render_table,
    serialize_document,
)
from .poset_core import (
    CARRIER_CAP,
    OpPoset,
    Poset,
    PosetError,
    UndefinedOperationError,
    indices_of,
    iter_mask,
    mask_of,
)
from .properties import (
    PROPERTY_NAMES,
    PropertyReport,
    Witness,
    is_antitone,
    is_complementation,
    is_involution,
    is_lattice,
    is_modular,
    is_orthogonal,
    is_orthomodular,
    is_saturated,
)
from .sasaki import (
    OpTable,
    arrow,
    check_projection_laws,
    is_sasaki_total,
    odot,
    op_tables,
    sasaki_proj,
    sasaki_proj_dual,
    sasaki_proj_set,
)

__version__ = "0.1.0"
