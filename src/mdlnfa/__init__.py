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
    multi_counts,
    pick_hypothesis,
    select_hypothesis,
    single_counts,
    single_record,
)
from .polygon import (
    BssTrajectory,
    PolygonHypothesis,
    bss_simplify,
    polygon_counts,
)
from .lsd import (
    AlignmentCounts,
    LsdConfig,
    RectangleCandidate,
    count_aligned,
    detect_segments,
    fit_rectangle,
    rect_counts,
    region_grow_candidates,
)
from .equivalence import (
    PartSpec,
    check_equivalence,
)

__version__ = "0.1.0"
