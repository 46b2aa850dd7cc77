"""Evolutionary learner for SPARQL basic graph patterns over RDF knowledge graphs."""

from .canon import CanonicalForm, canonicalize, pattern_key
from .endpoint import Endpoint, EndpointConfig, local_endpoint
from .engine import EvalResult, join_plan, select
from .evolution import (EvolutionConfig, HallOfFame, Individual, LearnResult,
                        LearnedPattern, fit_to_live, learn)
from .fitness import (CoverageLedger, FitnessTuple, GroundTruthPair,
                      PatternEvaluation, evaluate, score)
from .patterns import (GraphPattern, SOURCE_VAR, TARGET_VAR, TriplePattern,
                       Variable, to_select_sparql)
from .iojson import GroundTruthError, parse_ground_truth
from .predict import (PatternPortfolio, PortfolioEntry, RankedPrediction, fuse,
                      predict_targets, reduce_queries)
from .rdf import Term, Triple, TripleStore, bnode, iri, literal, load_file, load_ntriples
from .simplify import simplify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
