"""Zoomed annealing machine learning on classical Ising backends.

Pipeline: weighted event data -> per-variable weak classifiers (optionally in
a PCA-rotated basis) -> augmented spin bank -> iteratively zoomed Ising
optimization -> strong classifier, evaluated through a significance figure of
merit with a background systematic.
"""

from .errors import ConfigError, DataError, QamlzError
from .dataset import (
    BASE_VARIABLES,
    PRESELECTION_VARIABLES,
    PROCESSES,
    Dataset,
    GeneratorSpec,
    ProcessModel,
    SampleSplit,
    apply_preselection,
    default_generator_spec,
    generate_synthetic,
    load_events,
    split_samples,
    two_gaussian_spec,
)
from .features import (
    DERIVED_PRESETS,
    SET_A_DERIVED,
    SET_B_DERIVED,
    DerivedFormula,
    FeaturePipeline,
    PcaTransform,
    WeakClassifierSet,
    apply_pca,
    feature_matrix,
    fit_feature_pipeline,
    fit_pca,
    normalize_fit,
    variable_set,
    weak_fit,
)
from .ising import (
    AugmentedClassifierSet,
    CouplingMatrices,
    IsingProblem,
    apply_gauge,
    build_couplings_from_signs,
    effective_problem,
    energy,
    expand_solution,
    fix_variables,
    prune,
    random_gauge,
    sign_pm1,
)
from .solver import (
    AnnealSchedule,
    ChainConfig,
    SolverResult,
    decode_chains,
    expand_chains,
    parse_solver_reply,
    select_states,
    solve_chain_emulated,
    solve_exact,
    solve_external,
    solve_sa,
)
from .zoom import (
    IterationRecord,
    TrainedModel,
    TrainingProblem,
    ZoomConfig,
    default_p_flip,
    flip_step,
    prepare,
    run_qamlz,
    weighted_distance,
    zoom_update,
)
from .evaluate import (
    REFERENCE_BDT_FOM,
    REFERENCE_DERIVED_FOM,
    FomCurve,
    FomParams,
    UncertaintyReport,
    asimov_significance,
    event_signs,
    fom,
    fom_scan,
    fom_scan_dataset,
    model_scores,
    overtraining_check,
    rank_variables,
    run_uncertainty,
    score_events,
    scores_by_process,
)

__version__ = "0.1.0"
