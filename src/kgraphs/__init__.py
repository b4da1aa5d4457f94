"""Higher-rank graphs and their graded monoids.

A rank-k graph is presented by a colored skeleton plus a complete square
set; this package builds the graph monoid and its graded refinement with
the coordinate shift action, and decides equality, order, atomicity,
periodicity, the hereditary saturated lattice, cofinality, aperiodicity,
line points, and the resulting algebra classification — every yes/no
verdict carrying a replayable certificate.
"""

from .kgraph import (Edge, KGraph, LazyKGraph, Square, ValidationReport,
                     is_leaf, leaves, quotient_graph, skew_product, validate)
from .monoid import (Bounds, DEFAULT_BOUNDS, MElement, TElement, act, acts_freely,
                     atoms, factor_into_atoms, find_periodic_element, forget,
                     is_atom, is_atomic, m_congruent, push_to_level, refine,
                     t_equal, t_equal_rewrite, t_leq)
from .lattice import (all_hs_subsets, hereditary_closure, ideal_membership,
                      is_prime_ideal, saturated_hereditary_closure)
from .classify import (ClassificationReport, count_line_point_classes,
                       is_aperiodic, is_cofinal, is_semisimple,
                       is_strongly_aperiodic, kp_report, line_points,
                       socle_essential, socle_vertices)
from .paths import Path, compose, enumerate_paths, ext, factor, lambda_min, mce, segment
from .rewrite import FreeElement, congruent
from .tri import NO, Tri, UNKNOWN, YES, Certificate, replay
from .docio import (ReportDocument, dump_graph, format_element, load_graph,
                    parse_element, to_dot)
from . import families

__version__ = "0.1.0"

__all__ = [
    "Edge", "KGraph", "LazyKGraph", "Square", "ValidationReport", "is_leaf",
    "leaves", "quotient_graph", "skew_product", "validate",
    "Bounds", "DEFAULT_BOUNDS", "MElement", "TElement", "act", "acts_freely",
    "atoms", "factor_into_atoms", "find_periodic_element", "forget",
    "is_atom", "is_atomic", "m_congruent", "push_to_level", "refine",
    "t_equal", "t_equal_rewrite", "t_leq",
    "all_hs_subsets", "hereditary_closure", "ideal_membership",
    "is_prime_ideal", "saturated_hereditary_closure",
    "ClassificationReport", "count_line_point_classes", "is_aperiodic",
    "is_cofinal", "is_semisimple", "is_strongly_aperiodic", "kp_report",
    "line_points", "socle_essential", "socle_vertices",
    "Path", "compose", "enumerate_paths", "ext", "factor", "lambda_min",
    "mce", "segment",
    "FreeElement", "congruent",
    "NO", "Tri", "UNKNOWN", "YES", "Certificate", "replay",
    "ReportDocument", "dump_graph", "format_element", "load_graph",
    "parse_element", "to_dot",
    "families",
]
