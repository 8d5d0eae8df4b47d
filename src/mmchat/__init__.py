"""Modality-aware causal attention with dual-softmax text rows, the
conversation template with answer-only loss, data blending, and a toy
frozen-decoder model."""

import types as _types

from .attn import (
    MultiHeadParams,
    attention_weights,
    grad_check,
    init_multi_head_params,
    multi_head_forward,
    multi_head_input_vjp,
    segment_attention,
    segment_attention_vjp,
    variant_grad_check,
)
from .blend import (
    BlendSpec,
    Dataset,
    SourceRecord,
    concat_blend,
    dataset_stats,
    filter_limits,
    llava_otter_blend,
    read_records,
    write_records,
)
from .mask import (
    FORBIDDEN,
    IMAGE_KEY,
    TEXT_KEY,
    AttentionLayout,
    AttentionVariant,
    MmcaMask,
    build_layout,
    build_mask,
    render_mask,
)
from .modseq import (
    LayoutConfig,
    ModalitySequence,
    TokenKind,
    build_sequence,
    image_blocks,
)
from .template import (
    Conversation,
    HashTokenizer,
    OverLengthError,
    ParseError,
    RenderedSample,
    Round,
    parse,
    render,
    render_text,
)
from .toy_model import (
    ModelConfig,
    OptimState,
    ToyModel,
    answer_loss,
    forward,
    frozen_fingerprint,
    load_model,
    loss_and_param_grads,
    make_copy_task,
    make_model,
    save_model,
    train_step,
)

# Every public name bound above, and nothing else: no second list to keep in step.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)

__version__ = "0.1.0"
