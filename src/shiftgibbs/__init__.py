"""Sofic shift spaces with finite-range potentials: pressure, equilibrium
measures, and numerical weak-Gibbs certificates."""

from .exceptions import EmptyCylinderWarning, ValidationError, VolumeGuardError
from .measures import RPFMeasure, cylinder_prob, equilibrium_measure
from .potentials import (NormReport, Potential, ShapeTable, add_potentials,
                         boundary_norm_bound, energy, norms, zero_potential)
from .pressure import (BrutePartition, PressureEstimate, TransferSystem,
                       brute_partition, build_transfer, finite_pressure,
                       perron, pressure_limit)
from .shifts import (Alphabet, BlockCode, Point, SoficPresentation, Word,
                     apply_block_code, decoupling_gap, enumerate_words,
                     factor_gap_bound, factor_presentation, point_from_words,
                     sft_presentation, splice)
from .verify import (Decoupling1dTables, InequalityRecord, Lemma212Tables,
                     LemmaReport, WeakGibbsReport, decoupling_1d_check,
                     decoupling_1d_tables, indicator_potential, lemma_211_check,
                     lemma_211_worst, lemma_212_check, lemma_212_tables,
                     tangent_derivative_check, weak_gibbs_scan)

__version__ = "0.1.0"
