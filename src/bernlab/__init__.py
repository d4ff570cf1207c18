"""Explicit nonsingular Bernoulli actions: cocycle norms with certified
error, conservative/dissipative criteria, and exact type classification."""

__version__ = "1.0.0"

from .bump import BumpCocycle
from .cocycles import (
    cocycle_coeff,
    norm_sq,
    norm_sq_bruteforce,
    support_elements,
)
from .criteria import (
    CriterionVerdict,
    classify_conservativity,
    hellinger_product,
    integral_products,
    kappa0,
    kesten_norm,
    mc_omega,
    negsq_product,
    nonamenability_check,
    verify_certificate,
)
from .exact import BoundedValue, LogValue, parse_fraction
from .folner import FolnerCocycle, build_folner
from .groups import (
    FreeGroup,
    GroupError,
    Integers,
    Word,
    ball,
    format_element,
    inv,
    mul,
    parse_element,
    sphere,
    word_length,
)
from .marginals import (
    ActionSpec,
    BaseMeasure,
    DecreasingSequence,
    FolnerInduced,
    FreeProductW,
    SpecError,
    SpecialCocycle,
    WSplit,
    ZSequence,
    f_value,
    make_folner_family,
    measures_from_ab,
    measures_from_atomic_eta,
    measures_from_lambda,
    spec_from_json,
    spec_to_json,
)
from .typeclass import (
    RatioGroup,
    StableParams,
    TypeLabel,
    krieger_type,
    plain_type,
    ratio_group,
    sd_generators,
    stable_params,
    stable_type_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]
