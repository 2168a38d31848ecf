"""Construction and certification of complementary-dual cyclic and
quasi-cyclic codes over finite fields."""

from .field import FiniteField, field_from_order, make_field, root_of_unity
from .polyring import FactorProfile, Poly, cyclotomic_cosets, factor_xm_minus_1, poly_gcd
from .lincode import LinearCode
from .cyclic import (
    CyclicCode,
    divisors_of_xell_minus_one,
    is_conjugate_reversible,
    is_lcd_by_factors,
    is_lcd_cyclic,
    is_reversible,
    make_cyclic,
)
from .qc import (
    ConstituentSet,
    QcCode,
    build_pair_double,
    build_self_single,
    constituents,
    dual_constituents,
    from_constituents,
    is_qccd,
    jensen_bound,
    twod_cyclic_lcd,
)
from .construct import (
    DcSearchReport,
    SelfDualBasis,
    dc_is_lcd,
    dc_search,
    double_circulant,
    expand_subfield,
    find_a,
    hermitian_lcd_extend,
    self_dual_basis,
)

__all__ = [
    "FiniteField",
    "field_from_order",
    "make_field",
    "root_of_unity",
    "FactorProfile",
    "Poly",
    "cyclotomic_cosets",
    "factor_xm_minus_1",
    "poly_gcd",
    "LinearCode",
    "CyclicCode",
    "divisors_of_xell_minus_one",
    "is_conjugate_reversible",
    "is_lcd_by_factors",
    "is_lcd_cyclic",
    "is_reversible",
    "make_cyclic",
    "ConstituentSet",
    "QcCode",
    "build_pair_double",
    "build_self_single",
    "constituents",
    "dual_constituents",
    "from_constituents",
    "is_qccd",
    "jensen_bound",
    "twod_cyclic_lcd",
    "DcSearchReport",
    "SelfDualBasis",
    "dc_is_lcd",
    "dc_search",
    "double_circulant",
    "expand_subfield",
    "find_a",
    "hermitian_lcd_extend",
    "self_dual_basis",
]

__version__ = "0.1.0"
