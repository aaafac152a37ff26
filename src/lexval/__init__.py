"""Exact valuations on Q(x)[y] with values in lexicographic Z (+) Z.

The library builds valuations from a parameter bundle (m, n, w, alpha,
beta): polynomials are expanded in powers of the monic divisor w and the
value is the lexicographic minimum over the expansion cells.  Alongside the
valuation itself it provides the witness constructions showing that the
attained image of the polynomial ring can be nonpositive and still contain
strictly increasing value sequences.
"""

from .exprs import ExprError, parse_poly
from .presets import PRESETS, ConfigError, SpecConfig, bundled_config_path, load_config, load_spec
from .ratfunc import (
    NEG_INF,
    RatFunc,
    UniPoly,
    as_ratfunc,
    poly_gcd,
    residue_at_inf,
    uni_divmod,
    v_inf,
)
from .valgroup import (
    INF,
    ExtValue,
    QuotClass,
    ValuePair,
    commensurable,
    decompose,
    is_indivisible,
    monoid_member,
    quotient_class,
)
from .valuation import (
    AxiomReport,
    InvalidSpecError,
    LeadTerm,
    ValuationSpec,
    cancel_lambda,
    check_axioms,
    lead_term,
    make_spec,
    spec_violations,
    value,
    value_fraction,
)
from .witness import (
    CorpusSpec,
    ImageReport,
    StructureReport,
    WitnessChain,
    build_bounded_monic,
    class_witness,
    increasing_value_sequence,
    quotient_census,
    random_bounded_poly,
    random_rational_poly,
    random_unipoly,
    random_xy_poly,
    reduce_past_chain,
    sample_image,
    structure_checks,
    witness_for_value,
)
from .ypoly import WExpansion, YPoly, YPowerTable, w_expand, ypower_table

__version__ = "0.1.0"

__all__ = [
    "AxiomReport",
    "ConfigError",
    "CorpusSpec",
    "ExprError",
    "ExtValue",
    "INF",
    "ImageReport",
    "InvalidSpecError",
    "LeadTerm",
    "NEG_INF",
    "PRESETS",
    "QuotClass",
    "RatFunc",
    "SpecConfig",
    "StructureReport",
    "UniPoly",
    "ValuationSpec",
    "ValuePair",
    "WExpansion",
    "WitnessChain",
    "YPoly",
    "YPowerTable",
    "as_ratfunc",
    "build_bounded_monic",
    "bundled_config_path",
    "cancel_lambda",
    "check_axioms",
    "class_witness",
    "commensurable",
    "decompose",
    "increasing_value_sequence",
    "is_indivisible",
    "lead_term",
    "load_config",
    "load_spec",
    "make_spec",
    "monoid_member",
    "parse_poly",
    "poly_gcd",
    "quotient_census",
    "quotient_class",
    "random_bounded_poly",
    "random_rational_poly",
    "random_unipoly",
    "random_xy_poly",
    "reduce_past_chain",
    "residue_at_inf",
    "sample_image",
    "spec_violations",
    "structure_checks",
    "uni_divmod",
    "v_inf",
    "value",
    "value_fraction",
    "w_expand",
    "witness_for_value",
    "ypower_table",
]
