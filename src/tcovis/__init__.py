"""Desk-scale temporal-association machinery for online video instance
segmentation: whole-clip matching costs, global instance assignment versus
the local match-and-propagate baseline, the spatio-temporal enhancement
forward pass, seeded synthetic clips, and a video-AP evaluator."""

from .assignment import (assignment_total_global_cost, brute_force_assign,
                         build_global_cost_matrix, global_instance_assignment,
                         hungarian, locpro_assignment)
from .cost import (DICE_SMOOTH, EPS_LOG, LossWeights, average_class_prob,
                   bce_cost, ce_cost, dice_cost, frame_matching_cost,
                   global_matching_cost, mask_loss_grad, overall_loss)
from .evaluation import (AuditRow, EvalReport, audit_assignments, compute_ap,
                         predicted_label, prediction_score, video_iou)
from .model import (Assignment, Clip, ClipSpec, Corpus, GroundTruthTrack,
                    PredictionTrack, Violation, decode_mask_rle,
                    encode_mask_rle, load_corpus, save_corpus, validate)
from .ste import (MhcaParams, RefDecoderParams, SpatialFeature, clip_tracks,
                  cross_attention_update, init_mhca_params,
                  init_ref_decoder_params, masked_average_pool, propagate,
                  run_clip, segment_frame, spatial_matting)
from .synth import (NoiseConfig, SceneConfig, generate_clip, generate_corpus,
                    simulate_predictions)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "AuditRow", "Clip", "ClipSpec", "Corpus", "DICE_SMOOTH",
    "EPS_LOG", "EvalReport", "GroundTruthTrack", "LossWeights", "MhcaParams",
    "NoiseConfig", "PredictionTrack", "RefDecoderParams", "SceneConfig",
    "SpatialFeature", "Violation", "assignment_total_global_cost",
    "audit_assignments", "average_class_prob", "bce_cost", "brute_force_assign",
    "build_global_cost_matrix", "ce_cost", "clip_tracks", "compute_ap",
    "cross_attention_update", "decode_mask_rle", "dice_cost",
    "encode_mask_rle", "frame_matching_cost", "generate_clip",
    "generate_corpus", "global_instance_assignment", "global_matching_cost",
    "hungarian", "init_mhca_params", "init_ref_decoder_params", "load_corpus",
    "locpro_assignment", "mask_loss_grad", "masked_average_pool",
    "overall_loss", "predicted_label", "prediction_score", "propagate",
    "run_clip", "save_corpus", "segment_frame", "simulate_predictions",
    "spatial_matting", "validate", "video_iou",
]
