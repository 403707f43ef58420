"""dtmask: truncated-distance-transform mask codec and evaluation tools.

The package turns binary object masks into stacks of one-hot bit
planes via an exact truncated Euclidean distance transform, decodes
them back as unions of disks (optionally through a noise-tolerant soft
decoder), simulates how well decoding recovers objects from perturbed
bounding boxes, and scores proposal sets with standard segmentation
metrics.  Plain-text file formats and a CLI make every step scriptable
and bit-reproducible.
"""

from .grid import (
    BinaryMask,
    Box,
    BoxProposal,
    LabelMap,
    extract_instance,
)
from .edt import (
    TruncatedDistanceMap,
    boundary_set,
    brute_force_edt,
    edt_with_external_boundary,
    interior_mask,
    truncated_edt,
)
from .codec import (
    BitPlaneStack,
    ProbPlaneStack,
    QuantizationScheme,
    corrupt,
    encode,
    hard_decode,
    make_uniform_scheme,
    soft_decode,
)
from .boxsim import (
    Perturbation,
    RobustnessRecord,
    WindowSpec,
    decode_to_canvas,
    encode_window,
    perturb_box,
    robustness_sweep,
    shrink_perturbation,
)
from .metrics import (
    AR_IOU_THRESHOLDS,
    DEFAULT_BOX_NMS_IOU,
    DEFAULT_MASK_NMS_IOU,
    DEFAULT_PROPOSAL_CAP,
    EvalReport,
    MatchResult,
    average_precision,
    average_recall,
    box_iou,
    evaluate,
    greedy_match,
    mask_iou,
    nms,
    recall_curve,
    top_scoring,
)
from .io import (
    FormatError,
    read_bps,
    read_dtm,
    read_label_map,
    read_mask,
    read_proposals,
    write_bps,
    write_csv,
    write_dtm,
    write_label_map,
    write_mask,
    write_proposals,
)

__version__ = "0.1.0"

__all__ = [
    "AR_IOU_THRESHOLDS",
    "BinaryMask",
    "BitPlaneStack",
    "Box",
    "BoxProposal",
    "DEFAULT_BOX_NMS_IOU",
    "DEFAULT_MASK_NMS_IOU",
    "DEFAULT_PROPOSAL_CAP",
    "EvalReport",
    "FormatError",
    "LabelMap",
    "MatchResult",
    "Perturbation",
    "ProbPlaneStack",
    "QuantizationScheme",
    "RobustnessRecord",
    "TruncatedDistanceMap",
    "WindowSpec",
    "average_precision",
    "average_recall",
    "boundary_set",
    "box_iou",
    "brute_force_edt",
    "corrupt",
    "decode_to_canvas",
    "edt_with_external_boundary",
    "encode",
    "encode_window",
    "evaluate",
    "extract_instance",
    "greedy_match",
    "hard_decode",
    "interior_mask",
    "make_uniform_scheme",
    "mask_iou",
    "nms",
    "perturb_box",
    "read_bps",
    "read_dtm",
    "read_label_map",
    "read_mask",
    "read_proposals",
    "recall_curve",
    "robustness_sweep",
    "shrink_perturbation",
    "soft_decode",
    "top_scoring",
    "truncated_edt",
    "write_bps",
    "write_csv",
    "write_dtm",
    "write_label_map",
    "write_mask",
    "write_proposals",
]
