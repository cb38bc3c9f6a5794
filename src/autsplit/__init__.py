"""Exact splitting analysis for semilinear automorphisms of SL_n(D)
over local function fields, plus the based-root-datum counterpart.

Subpackage map:

- ``gftower``   one ambient finite field housing every needed subfield
- ``series``    truncated Laurent series with explicit precision, and
                square matrices over them (det, projective comparison)
- ``autk``      automorphisms of F_{p^j}((T)) and their decomposition
- ``cyclic``    the cyclic algebra A(d,r), reduced norms, semilinear autos
- ``brauer``    discrete Brauer/splitting arithmetic
- ``sections``  the explicit splitting section and its verifier
- ``descent``   PGL_3 cocycle descent checks and the degree-3 criterion
- ``rootdatum`` Dynkin automorphisms and finite extension splitting
- ``cli``       the ``autsplit`` command line
"""

from .brauer import (BrauerClass, CSADescriptor, GroupDescriptor,
                     base_change_csa, d_part, descent_form, invariant,
                     non_split_witness, splits_globally_charp,
                     splits_over_subfield, wedderburn)
from .gftower import (FFElement, FieldTower, build_tower, frobenius,
                      hilbert90_solve, relative_norm, subfield_generator)
from .series import (LaurentSeries, SeriesMatrix, frobenius_coeffwise,
                     hensel_root, norm_equation_solve, substitute,
                     unramified_norm)
from .autk import (LocalFieldAuto, compose_auto, decompose_auto, extend_auto,
                   invert_auto)
from .cyclic import (AlgebraElement, AlgebraMatrix, CyclicAlgebra,
                     SemilinearAuto, acts_like, compose_semilinear)
from .sections import SectionContext, glue_section, verify_section

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
