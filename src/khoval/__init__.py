"""khoval: exact Khovanov / Bar-Natan homology with a cobordism-movie evaluator.

The library computes integral link homology from PD codes by exact sparse
linear algebra, evaluates movie presentations of surface-knots to produce the
integer invariant (t = 0) and its one-variable deformation, and ships an
independent Kauffman-bracket oracle for the graded Euler characteristic.
"""

from .algebra import (
    LABELS,
    MINUS,
    PLUS,
    LaurentPoly,
    Theory,
    TPoly,
    comultiply,
    counit,
    multiply,
    tube,
    unit,
)
from .cobordism import (
    ChainMapRep,
    Movie,
    bn_invariant,
    canonical_movies,
    concatenate,
    connected_sum,
    esi_chain_map,
    eval_movie,
    kj_number,
    lee_value,
    movie_from_json,
    movie_to_json,
    punctured_eval,
    punctured_from_empty,
    punctured_to_empty,
    torus_with_detour_movie,
    trivial_surface_movie,
    validate_movie,
)
from .cube import (
    CochainElement,
    CubeComplex,
    Generator,
    build_cube,
    check_d_squared,
    check_faces,
    degrees,
    differential,
)
from .diagram import (
    Crossing,
    LinkDiagram,
    ResolvedDiagram,
    Transfer,
    parse_pd,
    resolve,
    serialize_pd,
    transfer,
)
from .errors import (
    CapExceededError,
    KhovalError,
    MoveError,
    NonMonomialError,
    OrientationError,
    ParseError,
    TheoryError,
    UnsupportedMoveError,
    ValidationError,
)
from .homology import (
    HomologyGroup,
    graded_euler,
    homology,
    kauffman_jones,
    smith_normal_form,
)
from .moves import ESI, apply_esi, apply_esi_info

__version__ = "0.1.0"
