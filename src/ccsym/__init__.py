"""Exact residue symbols over local Artinian coefficient rings.

Precision-tracked Laurent series, the Contou-Carrere and tame symbols,
Kato residue symbols for two-variable local fields at finite level,
Kahler differential residues, and reciprocity checks on the projective
line, all in exact arithmetic.  Values are immutable and operations
pure, so everything is safe to share across threads or tasks.
"""

from .errors import (
    CCSymError,
    IdentityViolated,
    IndeterminateAtPrecision,
    InsufficientPrecision,
    InvariantViolation,
    MixedFields,
    MixedRings,
    NonUnit,
    NonZeroSum,
    NotAHomomorphism,
    NotAUniformizer,
    ParseError,
    SectionCollision,
    UnsupportedRing,
)
from .forms import (
    AOneForm,
    OneForm,
    TwoForm,
    d_series,
    dlog,
    dlog2,
    dlog_element,
    form_substitute,
    log_square_check,
    map_form,
    res1,
    res2,
    res2_dlog2,
    wedge,
)
from .parsing import (
    parse_element,
    parse_form,
    parse_global_two_form,
    parse_mhat,
    parse_rational_function,
    parse_ring,
    parse_series,
)
from .projline import (
    GlobalTwoForm,
    ReciprocityResult,
    SectionPoint,
    SplitRationalFunction,
    anderson_romo_check,
    realize_residues,
    residue_sum_check,
    tame_symbol_at_point,
    weil_check,
)
from .rings import (
    IntegersModPrimePower,
    PrimeField,
    RationalField,
    Ring,
    RingMap,
    TruncatedPolynomialRing,
    epsilon_map,
    residue_map,
    truncation_map,
)
from .series import INF, LaurentSeries
from .symbols import (
    KatoValue,
    MHatElement,
    UnitDecomposition,
    contou_carrere,
    kato_residue,
    recompose,
    required_precision,
    symbol_from_decompositions,
    witt_decompose,
)

__version__ = "0.1.0"

#: names read from ccsym.suites on first use, so that importing ccsym does
#: not load the suites, the random generators or json and dataclasses
_SUITE_NAMES = ("Report", "SuiteConfig", "run_suite")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_SUITE_NAMES)


def __getattr__(name):
    if name in _SUITE_NAMES:
        from . import suites

        return getattr(suites, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
