"""Exact combinatorics of composition-factor labels for hypergeometric
systems attached to an integer configuration.

The public surface: `Configuration` (cone/face/lattice combinatorics),
`resonance` (the res/sres/dres/wres loci and the nonresonance trio),
`degrees` (degree-set families and their witnessed components), `factors`
(composition-factor tables and their comparison), `bruteforce` (independent
oracles), and the `gkzfactors` command-line tool in `cli`.
"""

from .cones import Configuration, FaceData, FacetFunctional
from .degrees import (DegreeFamily, QDegComponent, gap_family, ideal_family,
                      module_family, qdeg_components)
from .errors import (ComputationLimitError, DimensionMismatchError,
                     DomainError, GKZError, NonPointedError)
from .factors import (ComparisonReport, FactorLabel, FiltrationReport,
                      LocalSystemClass, class_of, dmod_report,
                      gap_factor_candidates, perverse_report,
                      pullback_solutions, rh_compare, trivial_class)
from .resonance import (ResonanceProfile, TriState, classify, in_DRes, in_SRes,
                        in_dres, in_res, in_sres, in_wres, region_scan)
from .semigroup import MembershipQuery, member

__version__ = "0.1.0"
