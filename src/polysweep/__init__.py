"""Exact combinatorics of convex polytopes: face lattices from rational
coordinates, flag f/h-vectors, the ab- and cd-index, toric and extended
toric h-vectors, hyperplane-sweep recursions for all of them, and a
partition of the complete truncation certifying the cd-index
coefficients.  Every quantity is computable by several independent
routes and the test suite insists that they agree bit for bit.
"""

from .errors import (
    CrossCheckError,
    InputError,
    NonVertexPoint,
    NotCDExpressible,
    NotFullDimensional,
    NotGeneric,
    NotInImage,
    NotSimple,
    PolysweepError,
)
from .exactnum import affine_rank, dot, exact
from .flagvec import (
    CDPolynomial,
    FlagVector,
    ab_from_cd,
    ab_index,
    cd_from_ab,
    cd_index,
    cd_words,
    flag_f,
    flag_h,
    reverse_words,
)
from .polytope import (
    FaceLattice,
    VRep,
    dual,
    hull_lattice,
    is_eulerian,
    make_crosspolytope,
    make_cube,
    make_polygon,
    make_simplex,
    polar_dual,
    prism,
    product,
    pyramid,
)
from .sweep import (
    SubPolytope,
    SweepDirection,
    cd_sweep,
    cd_sweep_symmetric,
    choose_direction,
    classify_face,
    min_vertex_partition,
    simple_h_by_outdegree,
    support_normal,
    sweep_section,
    vertex_figure,
)
from .toric import (
    act_word,
    extended_toric,
    g_from_h,
    invert_c,
    op_c,
    op_d,
    reconstruct_cd,
    toric_from_cd,
    toric_h_definition,
    toric_sweep,
    toric_sweep_symmetric,
)
from .truncpartition import (
    Block,
    build_partition,
    enumerate_chains,
    verify_partition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
