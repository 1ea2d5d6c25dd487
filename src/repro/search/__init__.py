"""Coverage-guided gadget search.

Replaces blind grammar sampling with a feedback loop: every evaluated
gadget is reduced to a deterministic *coverage signature* over
(event row x microarchitectural unit x response-sign bucket), novel
gadgets are kept in a persistent content-addressed corpus, seeded
mutation operators expand them, and an energy-based frontier scheduler
decides which seeds to mutate next — biased toward uncovered catalog
rows.  Every random draw comes from ``derive_stream`` trees keyed on
stable labels, so a search is bit-reproducible across worker counts.

See DESIGN.md §14 for semantics and the energy rules.
"""

from repro.search.corpus import Corpus, CorpusEntry, gadget_digest
from repro.search.coverage import (CoverageExtractor, CoverageMap,
                                   CoverageSample, UNIT_OF_SIGNAL,
                                   feature_id)
from repro.search.engine import (CoverageSearch, SearchConfig, SearchError,
                                 SearchResult, evals_to_cover)
from repro.search.mutators import MUTATION_OPERATORS, GadgetMutator
from repro.search.scheduler import FrontierScheduler, SeedState

__all__ = [
    "Corpus",
    "CorpusEntry",
    "CoverageExtractor",
    "CoverageMap",
    "CoverageSample",
    "CoverageSearch",
    "FrontierScheduler",
    "GadgetMutator",
    "MUTATION_OPERATORS",
    "SearchConfig",
    "SearchError",
    "SearchResult",
    "SeedState",
    "UNIT_OF_SIGNAL",
    "evals_to_cover",
    "feature_id",
    "gadget_digest",
]
