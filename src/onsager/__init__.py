"""Exact computer algebra for the Onsager algebra.

The algebra is realized four ways: on its abstract basis {A_m, G_l}, by
its two Dolan-Grady generators, as the Chevalley-fixed subalgebra of the
sl2 loop algebra, and as a free k[t]-module inside the tetrahedron
algebra's three-point realization.  Conversions run between all of them,
and the ideal machinery classifies divisibility ideals (with the
closed-ideal criterion) as well as the full ideal lattice over a fixed
coordinate ideal.
"""

from .core import (
    A,
    G,
    OnsagerElement,
    ShiftPolynomialPair,
    bracket,
    check_dolan_grady,
    jacobi_defect,
    reconstruct_basis,
    shift_polynomials,
)
from .ideals import ReciprocalIdeal, crt_lift, divides_element
from .loop import (
    LoopElement,
    basis_b,
    basis_c,
    chevalley,
    from_loop,
    is_fixed,
    loop_bracket,
    sigma,
    tau,
    tau_inverse,
    to_loop,
)
from .polynomials import (
    LaurentPoly,
    ThreePointFraction,
    antisym_part,
    crt_solve,
    laurent_divisible,
    multiplicity_at,
    poly_gcd,
    poly_lcm,
    reciprocal_sign,
)
from .scalars import GaussianRational, gaussian, parse_scalar
from .tetra import (
    ThreePointElement,
    VElement,
    from_v,
    independence_witness,
    phi,
    phi_inverse,
    phi_v,
    psi_generator,
    to_v,
    tp_bracket,
    u_elements,
    v_bracket,
    v_elements,
    verify_tetra_relations,
)
from .v_ideals import (
    EtaFamily,
    IdealSpec,
    QuotientB,
    classify_ideals,
    derived_series,
    enumerate_ideals,
    j_from_generators,
    lower_central_series,
    quotient_b,
    residual_of,
)

__version__ = "0.1.0"
