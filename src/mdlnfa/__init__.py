"""Side-by-side MDL (code-length) and a-contrario (NFA) structure detection
on binary images and gradient-orientation maps."""

from .numeric import (
    Bits,
    DomainError,
    HypothesisCounts,
    RegionCounts,
    Score,
    bernoulli_kld,
    binary_entropy,
    binomial_tail_log,
    code_length,
    complement,
    g_term,
    hoeffding_tail_bound,
    l0_code_length,
    log_binomial,
    stirling_log_binomial,
)
from .imaging import (
    BinaryImage,
    NoiseConfig,
    OrientationMap,
    count_region,
    flip_noise,
    gradient_orientation,
    rasterize_polygon,
    read_pgm,
    synthesize_squares,
    write_pgm,
)
from .square_detect import (
    Square,
    SquareHypothesis,
    approx_log_nfa,
    approx_mdl_score,
    mdl_score_multi,
    mdl_score_single,
    nfa_score_multi,
    nfa_score_single,
    pick_hypothesis,
    select_hypothesis,
)
from .polygon import (
    BssTrajectory,
    PolygonHypothesis,
    bss_simplify,
    mdl_polygon_score,
    nfa_polygon_score,
)
from .lsd import (
    AlignmentCounts,
    LsdConfig,
    RectangleCandidate,
    count_aligned,
    detect_segments,
    fit_rectangle,
    mdl_rect,
    nfa_rect,
    region_grow_candidates,
)
from .equivalence import (
    PartSpec,
    check_equivalence,
    mdl_parts_decision,
    nfa_decision,
    tail_count,
)

__version__ = "0.1.0"
