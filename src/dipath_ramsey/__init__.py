"""Constructive bounds for monochromatic directed paths in edge-colored
oriented graphs: avoidance colorings, extraction pipelines, and an
exhaustive oracle, all certificate-producing and desk-scale testable."""

from .adversary import (
    AcyclicSearchState,
    AcyclicSetResult,
    AdversaryResult,
    FamilyPartition,
    FamilyRecord,
    acyclic_edge_coloring,
    block_product_bound,
    block_product_coloring,
    check_partition,
    color_classes_coloring,
    constructive_chromatic,
    minimal_base,
    sparse_acyclic_set,
    symmetric_adversary,
    theorem1_adversary,
    tournament_acyclic_set,
)
from .builder import (
    BuilderCertificate,
    BuilderTrace,
    multicolor_path_finder,
    symmetric_multicolor_finder,
    two_color_path_finder,
)
from .classic import (
    BLUE,
    RED,
    HamiltonDecomposition,
    gallai_roy,
    maximal_acyclic_subgraph,
    raynaud,
)
from .config import DEFAULT_CONFIG, ConstantsConfig
from .errors import (
    BudgetExceededError,
    ColoringError,
    CyclicGraphError,
    DecompositionError,
    DipathError,
    FormatError,
    GraphShapeError,
    ManifestError,
    ThreadingError,
)
from .experiment import (
    ExperimentManifest,
    GeneratorSpec,
    ResultRecord,
    derive_seed,
    run_experiment,
)
from .formats import (
    parse_colored,
    parse_coloring,
    parse_graph,
    read_colored,
    read_graph,
    serialize_coloring,
    serialize_graph,
    write_coloring,
    write_graph,
)
from .graphs import (
    DirectedPath,
    EdgeColoring,
    OrientedGraph,
    Tournament,
    complete_symmetric,
    is_tournament,
    transitive_tournament,
)
from .oracle import (
    OracleResult,
    arrowing_check,
    longest_mono_path,
    max_mono_path,
    min_max_mono_path,
)
from .paths import (
    find_cycle,
    level_decomposition,
    longest_path_dag,
    longest_path_exact,
)
from .pseudorandom import (
    PseudorandomnessReport,
    dfs_long_path,
    paley_tournament,
    pseudorandomness_exact,
    random_digraph,
    random_oriented_graph,
    random_tournament,
    refute_pseudorandomness,
    thread_path_through_sets,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
