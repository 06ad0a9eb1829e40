"""Simulator and cost model for Transformer inference on optical matmul hardware."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .arch import (ComputeBreakdown, HardwareRequirements, ModelConfig, PRODUCT_CLASSES,
                   ProductCounts, builtin_catalogue, compute_breakdown, find_model,
                   hardware_requirements, product_counts)
from .optics import (FourPassOperands, LookupTable, NoiseSpec, QuantizerSpec, apply_shot_noise,
                     apply_systematic_noise, derive_rng, derive_seed, four_pass_decompose,
                     lut_synthesize, optical_matmul, quantize, recombine, save_lut)
from .txsim import (DigitalBackend, ForwardTrace, LayerWeights, OpticalBackend,
                    TransformerWeights, deviation, forward, init_weights, make_input,
                    noise_sweep, trace_to_json_dict)
from .energy import (CATEGORIES, ChunkingScenario, DIGITAL_BASELINES, EnergyReport,
                     HardwareProfile, LAYER_CLASSES, PhotonPolicy, advantage,
                     chunked_gpu_energy, chunked_onn_energy, clipped_policy,
                     default_policy, default_profile, future_profile, total_energy)

__all__ = ["__version__", *(name for name, value in globals().items()
                            if not name.startswith("_") and not isinstance(value, _ModuleType))]
