"""Cut-and-project model sets on the line.

Construction of golden-ratio, periodic and combined model sets, their exact
and empirical k-point correlations and pure-point diffraction, recovery of a
real window from order-1/order-2 deck transforms (the constructive inverse
problem), and the exact homometric counterexamples over Z/32Z.
"""

from .errors import ParameterError, ReconstructionError, ResourceError
from .schemes import (COMBINED, FIBONACCI, PERIODIC, IntervalUnion, ProductWindow,
                      QuadLatticePoint, QuadNum, ResidueSet, Scheme, format_window,
                      make_scheme, parse_scheme, parse_window, star, window_intersect,
                      window_measure)
from .pointsets import PointSet, gap_sequence, generate, load_pointset, save_pointset
from .correlations import (CorrelationMeasure, correlation_measure, correlations_equal,
                           freq_empirical, freq_exact, support_differences)
from .spectra import (DeckGrid, DualPoint, Spectrum, deck_functions, diffraction,
                      residue_deck_tables, sample_window, window_ft, zero_condition)
from .reconstruct import (PhaseField, PhaseQuotient, ReconstructionReport,
                          align_up_to_translation, phase_quotient,
                          propagate_phase, roundtrip)
from .homometry import (PatternTable, cyclotomic_pair, pattern_table, rigid_equivalent,
                        tables_equal, thinned_model_set)

__version__ = "0.1.0"
