"""knotcalc: concordance invariants of complexes over F2[U,V]/(UV=0).

The package computes standard-complex representatives of knot-like
complexes under local equivalence, the family of integer concordance
homomorphisms read off the representative's U-arrows, and the Alexander
polynomial pipeline (torus knots, cables, staircases) feeding it.
"""

from .algebra import (
    Bigrading,
    Complex,
    Generator,
    Monomial,
    UNIT,
    dual,
    mono,
    reduce,
    tensor,
    tensor_many,
    unit_complex,
    validate,
)
from .alexander import (
    LaurentPoly,
    StaircaseData,
    cable_delta,
    eval_recipe,
    lspace_phi,
    parse_poly,
    staircase_data,
    staircase_params,
    torus_delta,
)
from .errors import KnotCalcError
from .homology import (
    KnotLikeReport,
    TowerReport,
    apply_shift,
    check_knot_like,
    simplify,
)
from .localequiv import RepResult, compare, standard_rep
from .localmaps import (
    LocalMapWitness,
    Prepared,
    brute_force_local_map,
    exists_local_map,
    exists_short_local_map,
    prepare_target,
)
from .parsing import KnotExpr, parse_complex_file, parse_knot_expr, serialize_complex
from .standard import (
    N_of,
    P_of,
    bang_cmp,
    build_standard,
    format_params,
    gc_lower,
    is_symmetric,
    lex_cmp,
    negate,
    parse_params,
    phi,
    shift,
    tau_of,
    uc_lower,
)

__version__ = "0.1.0"
