"""deformkit: coefficient-space deformation of roots, zero sets, and varieties.

Core pieces:

- ``polynomials``: sparse multivariate complex polynomials, coefficient
  sup-distance, strict delta-deformations, seeded random deformations.
- ``roots``: all roots of a univariate polynomial (simultaneous iteration
  with residual certificates) and multiplicity clustering.
- ``align``: optimal bottleneck pairing of root multisets and an empirical
  eps-to-delta modulus estimator.
- ``jets``: truncated Laurent series in a formal infinitesimal, standard
  parts, and order-by-order lifting of simple roots.
- ``varieties``: hypercube windows, the quantitative deformation bound,
  zero-set sampling, containment checks, jet-witness verification.
- ``metrics``: sup-norm point/set/Hausdorff distances and the tilted-line
  counterexample with its exact midpoint bound.

The hot kernels (grid suprema, batched Horner and root sweeps) are one NumPy
module; ``deformkit.BACKEND`` names it (``"python"``) and every CLI report
records it.
"""

from ._kernels import BACKEND
from .align import Matching, bottleneck_match, empirical_modulus, is_eps_aligned
from .jets import (
    DEFAULT_ORDER,
    INFINITE,
    Jet,
    JetAlignment,
    JetPoly,
    MultipleRootError,
    approx,
    approx_poly,
    hensel_lift_root,
    jet_align_roots,
    jet_arith,
    st_poly,
    standard_part,
)
from .metrics import (
    CounterexampleReport,
    counterexample_pair,
    counterexample_report,
    hausdorff,
    is_eps_set_deformation,
    point_set_distance,
    sup_norm_dist,
)
from .polynomials import (
    PolySystem,
    SparsePoly,
    coeff_sup_distance,
    degree_and_support,
    is_delta_deformation,
    random_deformation,
)
from .roots import (
    RootConvergenceError,
    RootMultiset,
    UniPoly,
    cluster_multiplicities,
    find_roots,
)
from .varieties import (
    ContainmentReport,
    Hypercube,
    LemmaReport,
    SampleCloud,
    VarietyJetReport,
    classify_jet_point,
    complex_grid_axis,
    containment_check,
    delta_bound,
    lemma_check,
    sample_hypersurface,
    system_residual,
    v_eps_member,
    variety_jet_check,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "__version__",
    "SparsePoly",
    "PolySystem",
    "coeff_sup_distance",
    "is_delta_deformation",
    "degree_and_support",
    "random_deformation",
    "UniPoly",
    "RootMultiset",
    "RootConvergenceError",
    "find_roots",
    "cluster_multiplicities",
    "Matching",
    "bottleneck_match",
    "is_eps_aligned",
    "empirical_modulus",
    "Jet",
    "JetPoly",
    "JetAlignment",
    "INFINITE",
    "DEFAULT_ORDER",
    "MultipleRootError",
    "jet_arith",
    "standard_part",
    "approx",
    "approx_poly",
    "st_poly",
    "hensel_lift_root",
    "jet_align_roots",
    "Hypercube",
    "SampleCloud",
    "complex_grid_axis",
    "v_eps_member",
    "delta_bound",
    "lemma_check",
    "LemmaReport",
    "sample_hypersurface",
    "containment_check",
    "ContainmentReport",
    "system_residual",
    "variety_jet_check",
    "VarietyJetReport",
    "classify_jet_point",
    "sup_norm_dist",
    "point_set_distance",
    "hausdorff",
    "is_eps_set_deformation",
    "counterexample_report",
    "counterexample_pair",
    "CounterexampleReport",
]
