"""Complex geometric phases of non-Hermitian two-band loops.

The package computes per-band complex Berry phases, the quantized
global index, exceptional-point region labels, adiabatic phase
decompositions, and (q, eta) phase diagrams for two model families: a
driven two-level system with balanced gain/loss amplitudes and a
bipartite lossy chain. Independent evaluation routes (quadrature vs
Wilson loop, contour vs elliptic closed form) are kept separate so they
can cross-check each other.
"""

# before the submodules, which read it
__version__ = "0.1.0"

from .berry import (BerryPhaseResult, GaugeCheckResult, analytic_q,
                    apply_gauge, band_berry_phase, bipartite_phase_point,
                    global_berry_phase, two_level_phase_point)
from .elliptic import closed_form_gamma, ellip_k, ellip_pi
from .errors import (AmplitudeOutOfRange, BadResolution, BandLeakage,
                     BerrylineError, ClassificationMismatch,
                     DegenerateSpectrum, Disagreement, DomainError,
                     GaugeMismatch, NotConverged, OutsideValidityDomain,
                     PathTooCoarse, SingularLoop, SingularParameters,
                     StepTooLarge, TrueCrossing, UndefinedAtTransition)
from .evolution import EvolutionReport, Schedule, adiabatic_decomposition, evolve
from .models import (BIPARTITE, TWO_LEVEL, BipartiteModel, BipartiteParams,
                     EigenPath, ParameterLoop, TwoLevelModel, TwoLevelParams,
                     band_index, standard_loop)
from .spectrum import (GAPLESS_TRUE_CROSSING, TYPE_I, TYPE_II, CrossingReport,
                       classify_region, verify_region)
from .sweep import (DivergenceFit, PhaseDiagramGrid, QMap, divergence_scan,
                    phase_diagram, save_phase_diagram, two_level_q_map)

__all__ = [
    "BIPARTITE", "TWO_LEVEL",
    "AmplitudeOutOfRange", "BadResolution", "BandLeakage", "BerrylineError",
    "BerryPhaseResult", "BipartiteModel", "BipartiteParams",
    "ClassificationMismatch", "CrossingReport",
    "DegenerateSpectrum", "Disagreement", "DivergenceFit",
    "DomainError", "EigenPath", "EvolutionReport",
    "GAPLESS_TRUE_CROSSING", "GaugeCheckResult", "GaugeMismatch",
    "NotConverged", "OutsideValidityDomain", "ParameterLoop", "PathTooCoarse",
    "PhaseDiagramGrid", "QMap", "Schedule",
    "SingularLoop", "SingularParameters", "StepTooLarge", "TrueCrossing",
    "TwoLevelModel", "TwoLevelParams", "TYPE_I", "TYPE_II",
    "UndefinedAtTransition",
    "adiabatic_decomposition", "analytic_q", "apply_gauge",
    "band_berry_phase", "band_index", "bipartite_phase_point",
    "classify_region", "closed_form_gamma", "divergence_scan", "ellip_k",
    "ellip_pi", "evolve", "global_berry_phase", "phase_diagram",
    "save_phase_diagram", "standard_loop", "two_level_phase_point",
    "two_level_q_map", "verify_region",
]
