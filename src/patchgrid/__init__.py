"""patchgrid: external-memory geometric hashing for 3D substructure search.

Small annotated substructures ("patches") are indexed on disk under one
reference frame per residue; a whole structure is then matched against the
database in a single merge scan of two z-ordered grids, reporting every
(patch, query region) pair whose matched-atom ratio clears a threshold.
"""

from .baseline import FrameMode, TripleFrameId, naive_frames, naive_match
from .errors import (
    CapExceeded,
    CorruptDatabase,
    DuplicatePatchId,
    EmptyStructure,
    MalformedRecord,
    MissingSourceProtein,
    NoValidFrame,
    OutOfExtent,
    ParamsMismatch,
    PatchGridError,
    UndefinedTP,
    UnknownRefId,
)
from .geometry import (
    AtomRecord,
    Atoms,
    Point3,
    RigidFrame,
    frame_from_triple,
)
from .grid import (
    Cell,
    DiskGrid,
    GridCursor,
    GridParams,
    RefId,
    build_sorted_run,
    cells_of_points,
    merge_runs,
    morton_encode,
)
from .ingest import (
    KeywordAnnotation,
    OriginTag,
    Patch,
    Protein,
    dedup_patches,
    extract_site_patches,
    parse_keyword_file,
    parse_structure_file,
    parse_template_file,
)
from .matcher import (
    MatchResult,
    ScoreTable,
    build_query_grid,
    finalize_scores,
    match_query,
    merge_scan_match,
    structural_identity,
    threshold_filter,
)
from .preprocess import (
    PatchDatabase,
    PatchMeta,
    add_patches,
    build_patch_database,
    residue_frames,
)
from .reliability import (
    EvalConfig,
    EvalPair,
    TPReport,
    TPRow,
    compute_D,
    compute_R,
    redundancy_filter,
    same_keywords,
    sweep,
    tp_rate,
)

__version__ = "0.1.0"
