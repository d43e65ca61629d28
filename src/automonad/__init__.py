"""Generic word and tree automata over pluggable effect containers.

An effect container packages a monad (unit/bind), a monoid (neutral/combine)
and a scalar semiring action; automata are parametric in one, so a single
definition covers deterministic, nondeterministic, weighted, alternating,
generalized and stack-context (pushdown) machines.  Expression-to-automaton
constructions (positions, derivation, induction) are factored over the same
abstraction, for word expressions and for enriched expressions unifying word
and tree regular expressions.
"""

from .algebra import (
    BOOLEANS,
    HOLE,
    INTEGERS,
    INT_PRODUCT,
    INT_SUM,
    MonoidValue,
    Node,
    RankedSymbol,
    RankedTree,
    StarSemiring,
    enumerate_trees,
    parse_tree,
    product_monoid,
    tree_fold,
    tree_to_text,
    word_fold,
)
from .automata import (
    ExplorationResult,
    ParallelAutomaton,
    PushdownAutomaton,
    Transition,
    WordAutomaton,
    afa_to_complete_dfa,
    afa_to_nfa,
    bool_combination,
    complement_complete_dfa,
    complete,
    complete_dfa,
    concatenate,
    determinize,
    explore,
    intersection,
    kleene_star,
    make_pda,
    nfa_to_partial_dfa,
    sequential_pair_automaton,
    to_dot,
    to_k_dfa,
    union,
)
from .containers import (
    BOOL_EXPR,
    DETERMINISTIC,
    FINITE_SET,
    OPTIONAL,
    EffectContainer,
    LinComb,
    bool_expr_to_clauses,
    check_container_laws,
    check_semiring_laws,
    eval_bool_expr,
    eval_gen_expr,
    gen_expr,
    lin_comb,
    monoid_pair,
    stack_context,
)
from .enriched import (
    DEFAULT_TREE_ALPHABET,
    EnrichedExpression,
    TreeAtom,
    WordAtom,
    enriched_derive,
    expression_to_text,
    final_symbols,
    final_weight,
    from_word_expression,
    nullable_var,
    parse_tree_expression,
    predecessors,
    random_tree_expression,
    tree_derivation_automaton,
    tree_inductive_automaton,
    tree_position_automaton,
    variables_of,
    word_derivation_automaton,
    word_inductive_automaton,
    word_position_automaton,
)
from .treeauto import (
    BottomUpContainerTA,
    BottomUpDetTA,
    MultiOpBUTA,
    TopDownContainerTA,
    WeightFun,
    bu_determinize,
    occurrence_automaton,
    td_explore,
    td_to_dot,
    tree_explore,
    tree_to_dot,
)
from .util import (
    CapExceeded,
    ExprSyntaxError,
    UNIT,
    UnsupportedOperation,
    WeightError,
    render,
)
from .validate import validate_trees, validate_words
from .wordexpr import (
    WordExpression,
    brute_force_language,
    derivation_automaton,
    expr_to_text,
    glushkov_functions,
    inductive_automaton,
    linearize,
    monadic_derive,
    nullable,
    parse_expression,
    position_automaton,
    random_expression,
    reverse_expression,
)

__version__ = "0.1.0"
