"""Super-image video classification on a self-contained numpy autodiff core."""

from .arch import ArchSpec, SpecError, StageSpec, load_preset, resolve_spec
from .checkpoint import load_checkpoint, save_checkpoint
from .complexity import ComplexityReport, analyze
from .data import (SamplerConfig, SynthConfig, VideoClip, gen_synthetic,
                   make_super_images, read_dataset, sample_snippets, write_dataset)
from .gradcheck import grad_check, run_op_checks
from .model import (ModelInstance, build_model, forward, inflate_first_conv,
                    init_tm_block)
from .tensor import NumericsError, Tensor
from .training import Metrics, TrainConfig, evaluate, run_ablation, train

__all__ = [
    "ArchSpec", "SpecError", "StageSpec", "load_preset", "resolve_spec",
    "load_checkpoint", "save_checkpoint",
    "ComplexityReport", "analyze",
    "SamplerConfig", "SynthConfig", "VideoClip", "gen_synthetic",
    "make_super_images", "read_dataset", "sample_snippets", "write_dataset",
    "grad_check", "run_op_checks",
    "ModelInstance", "build_model", "forward",
    "inflate_first_conv", "init_tm_block",
    "NumericsError", "Tensor",
    "Metrics", "TrainConfig", "evaluate", "run_ablation", "train",
]

__version__ = "0.1.0"
