"""dzv: certified arbitrary-precision verification of double zeta value
identities, congruence-restricted sum formulas, and Bernoulli number
convolutions.

Every numeric quantity is a midpoint-radius ball whose enclosure is proved by
construction; identities are accepted only when the residual ball certifies
zero within tolerance and both sides' enclosures intersect, and identities in
the rational * pi^k ring are checked exactly.
"""

from .numerics import (
    CheckReport,
    ComplexBall,
    DomainError,
    OutsideHypothesis,
    PiPolynomial,
    PrecisionCtx,
    PrecisionUnreachableError,
    RealBall,
    ZeroCertificate,
    ball_is_zero_within,
    check_from_sides,
    cube_root_of_unity,
    exact_check,
    pi_const,
    pipoly_eval,
)
from .bernoulli import (
    bernoulli,
    euler_identity_check,
    ramanujan_check,
    ramanujan_sum,
)
from .zeta import hurwitz_zeta, zeta_even_exact, zeta_numeric
from .dzeta import (
    DzvTable,
    IndexPair,
    build_table,
    double_zeta,
    functional_eq26_check,
    functional_eq26_sides,
    gen_poly_eval,
    get_table,
)
from .identities import (
    corollary1_check,
    corollary2_exact_chain,
    eq26_check,
    gkz_parity_check,
    harmonic_check,
    lemma1_check,
    prop1_check,
    restricted_sum,
    sum_formula_check,
    theorem1_check,
    weighted_sum_check,
)

__version__ = "0.1.0"
