"""Normal forms, cube-complex cores, and convex-cocompactness certificates
for right-angled Artin groups over a declared surface model."""

from .certify import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    Certificate,
    certify,
    displacement_lower_bound,
    extract_generators,
)
from .complexes import (
    BUDGET_EXCEEDED,
    VERIFIED,
    LabeledCubeComplex,
    LinkReport,
    SubgroupCore,
    build_core,
    check_local_isometry,
    count_elements,
    enumerate_elements,
    membership,
    salvetti,
)
from .errors import BudgetExceededError, ContractError, InputError, InternalError
from .family import (
    FamilyConstants,
    Section8Family,
    SpanState,
    StarReport,
    alpha_state,
    bme_normal_form,
    constants,
    displacement_upper,
    family,
    parse_h_word,
    span_apply,
    translation_length_bound,
    verify_order_window,
    verify_star,
)
from .graphs import DefiningGraph
from .surfaces import (
    FillingBlock,
    SurfaceModel,
    SymbolicSubsurface,
    check_window_property,
    fills,
    find_filling_blocks,
    max_exponent,
    subs,
    subs_family_equal,
    subsurfaces_equal,
    supports,
)
from .words import (
    EPSILON,
    Letter,
    NormalWord,
    Syllable,
    SyllableOrder,
    Word,
    concat,
    cyclically_reduce,
    invert,
    is_normal,
    min_class,
    normal_word_from_pairs,
    normalize,
    parse_word,
    subword_decompose,
    syllable_order,
    word_from_pairs,
)

__version__ = "0.1.0"
