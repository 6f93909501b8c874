"""Counting semigroup induced from the sums-of-two-squares set.

The ground set is sieved into a rank table; the induced product of two
ranks is the rank of the integer product of their members.  On top of
that sit six monochromatic pattern families, bounded witness searches
with independent verification, and the located-word / polynomial-grid
machinery whose projections realize those patterns.
"""

from .errors import (
    CorruptCacheError,
    DomainOverlapError,
    EnumerationCapError,
    MalformedWitnessError,
    NotMemberError,
    OutOfDomainError,
    OutOfRangeError,
    ResourceBudgetError,
    SchemaViolationError,
    SqstarError,
)
from .ground import (
    GroundTable,
    build_table,
    is_member,
    load_cache,
    save_cache,
)
from .semigroup import (
    LawReport,
    eval_monomial,
    power,
    star,
    star_many,
    verify_laws,
)
from .colorings import (
    Coloring,
    avoiding_word,
    from_file,
    from_provenance,
    periodic_coloring,
    random_coloring,
    to_file,
)
from .patterns import (
    Brauer,
    Deuber,
    FpF,
    GeoArithmetic,
    MillikenTaylor,
    PhiLinear,
    PhiProduct,
    PhiProjection,
    PhiStarFold,
    PhiSum,
    PolyVdW,
    Witness,
    generate_configuration,
    load_witness,
    save_witness,
)
from .search import SearchBounds, SearchReport, find_witness, threshold, verify_witness
from .hjlab import (
    HjReport,
    LocatedVariableWord,
    LocatedWord,
    PhjPoint,
    PhjReport,
    concat,
    constant_point,
    h_project,
    hj_search,
    hj_threshold,
    located_word,
    m_project,
    phj_search,
    phj_substitute,
    phj_threshold,
    point_coloring,
    substitute,
    word_coloring,
)

__version__ = "0.1.0"
