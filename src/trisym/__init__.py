"""Three-way symbolic maps on vertex-labelled phylogenetic trees.

Construct symbolic maps from labelled trees, decide via k-point conditions
or via reconstruction whether an arbitrary map arises from such a tree, and
reconstruct the unique discriminating labelled tree when it does.
Reconstruction recovers the pairwise map (for multiset maps, from one
five-point combination per pair), runs the triplet/BUILD pipeline on it,
and verifies the candidate tree exactly.
"""

from .symbols import (Symbol, SymbolCombination, SymbolError, SymbolTable,
                      TripleMultiset, parse_multiset)
from .trees import (LabelledTree, PhyloTree, ROOTED, UNROOTED, TreeError, Triplet,
                    TripletSet, canonical_form, collapse_to_discriminating,
                    displayed_triplets, induced_subtree, is_discriminating,
                    labelled_isomorphic, parse_newick, parse_tree, parse_triplets,
                    shape_isomorphic, to_newick, tree_to_text)
from .maps import (KIND_MULTISET, KIND_PAIR, KIND_SYMBOL, MapError, ThreeWayMap, TwoWayMap,
                   farris_project, load_three_way_map, load_two_way_map, restrict,
                   save_three_way_map, save_two_way_map, set_valued_view,
                   three_way_from_rooted, three_way_from_two_way,
                   three_way_from_unrooted, two_way_from_tree)
from .farris import FarrisResult, farris_inverse, farris_transform
from .conditions import (FivePointSystem, PAIR_OF_TRIPLES, QuartetType,
                         TRIPLE_OF_PAIRS, Violation, check_three_way_ultrametric,
                         check_tree_map, check_ultrametric, classify_quartet,
                         pair_combination, pair_counts, representable_by_conditions)
from .reconstruct import (NotUltrametricError, PairContradictionError,
                          ReconstructionOutcome, build, decide_tree_map,
                          decide_ultrametric, is_fixed_cherry_map, recover_two_way,
                          triplets_from_three_way, triplets_from_two_way)
from .oracle import (EnumerationError, EnumerationSpec, census,
                     enumerate_labelled_trees, enumerate_shapes,
                     oracle_representable_three_way)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
