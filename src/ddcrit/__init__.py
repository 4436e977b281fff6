"""Exact combinatorics of double domination edge criticality on small graphs.

The library computes double domination numbers, classifies edge criticality,
decides factor criticality, builds the relevant graph families, and
machine-checks the structural claims over exhaustive small-graph corpora.
Graphs live on at most 64 vertices and all operations are pure functions
over immutable values.
"""

from .graphs import (
    Graph,
    Graph6Error,
    add_edge,
    canonical_key,
    components,
    diameter,
    from_graph6,
    independence_number,
    is_connected,
    is_k1r_free,
    min_degree,
    to_graph6,
    vertex_connectivity,
)
from .domination import DdsWitness, GammaResult, all_minimum_dds, gamma_xk, is_k_tuple_dominating
from .matching import FactorCriticalityVerdict, ParityError, is_k_factor_critical_direct
from .criticality import (
    CriticalityReport,
    check_lemma45_profile,
    check_observation1,
    criticality_report,
)
from .constructions import clique_chain, h_6t, h_r33, is_in_family_H, sequential_join
from .harness import Hypotheses, PropertyReport, ReportCache, analyze, scan

__version__ = "0.1.0"
