"""Learning minimal LTLf formulas, and decision trees over them, from
labeled finite traces via exact partial weighted MaxSAT."""

from .formula import (Formula, FormulaBuilder, LtlSyntaxError,
                      UnknownPropositionError, parse_formula)
from .sample import (LabeledSample, SampleError, Trace, WeightFn,
                     invert_labels, load_sample, make_sample,
                     omega_rebalanced, omega_uniform, parse_sample,
                     weighted_loss)
from .encoding import EncodingError, EncodingInstance
from .maxsat import (FEASIBLE, HARD_UNSAT, INFEASIBLE, MaxSatSolution,
                     WeightedCnf, export_wcnf, import_model, parse_wcnf,
                     solve_decision)
from .sat import SolveTimeout
from .learner import (LearnConfig, LearnResult, SIZE_CAP, SOLVED, TIMED_OUT,
                      learn_minimal)
from .dtree import (DecisionTree, DtConfig, Inner, Leaf, TreeResult,
                    evaluate_tree, learn_tree, parse_tree, serialize_tree,
                    tree_loss, tree_to_formula)
from .bench import GenSpec, PATTERNS, generate_sample, inject_noise

__version__ = "0.1.0"

__all__ = [
    "Formula", "FormulaBuilder", "LtlSyntaxError", "UnknownPropositionError",
    "parse_formula",
    "LabeledSample", "SampleError", "Trace", "WeightFn", "invert_labels",
    "load_sample", "make_sample", "omega_rebalanced", "omega_uniform",
    "parse_sample", "weighted_loss",
    "EncodingError", "EncodingInstance",
    "FEASIBLE", "HARD_UNSAT", "INFEASIBLE", "MaxSatSolution",
    "WeightedCnf", "export_wcnf", "import_model", "parse_wcnf",
    "solve_decision", "SolveTimeout",
    "LearnConfig", "LearnResult", "SIZE_CAP", "SOLVED", "TIMED_OUT",
    "learn_minimal",
    "DecisionTree", "DtConfig", "Inner", "Leaf", "TreeResult",
    "evaluate_tree", "learn_tree", "parse_tree", "serialize_tree",
    "tree_loss", "tree_to_formula",
    "GenSpec", "PATTERNS", "generate_sample", "inject_noise",
    "__version__",
]
