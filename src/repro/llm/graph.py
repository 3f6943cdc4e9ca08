"""Operator graphs for the summarization and generation stages.

GPT-3 inference (paper Fig. 1) runs a **sum** stage over the ``L_in`` input
tokens — dominated by GEMM — and then one **gen** stage per output token,
each dominated by GEMV over all model parameters plus the growing KV cache.

These builders produce flat :class:`~repro.llm.ops.OpSpec` lists; the
performance models consume them directly, and the accelerator compiler uses
the same shapes when emitting instructions, so functional and timing paths
share one source of truth for shapes.

Tensor-parallel execution is modelled by ``tensor_parallel`` ways: attention
heads and FFN columns are split across devices (Megatron-style), shrinking
the weight/compute of each matmul by the factor while keeping the two
all-reduce points per layer (after attention projection, after FC2), which
:mod:`repro.appliance.comm` charges separately.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, NamedTuple

from repro.errors import ConfigurationError, ParallelismError
from repro.llm.config import LLMConfig
from repro.llm.ops import OpKind, OpSpec, matmul_op, vector_op


@dataclass(frozen=True)
class StageShape:
    """Token geometry of one stage.

    ``batch_tokens`` is the number of token rows each sequence processes
    at once (``L_in`` for the sum stage, 1 for a gen stage);
    ``context_len`` is the attention span ``L`` (input tokens plus tokens
    generated so far).  ``sequences`` independent sequences, all at the
    same span, share the stage: a batched decode step is ``sequences``
    gen stages whose weight matmuls run as one ``[sequences x k]`` GEMM
    while each sequence attends over its own KV cache.
    """

    batch_tokens: int
    context_len: int
    sequences: int = 1

    def __post_init__(self) -> None:
        if self.batch_tokens <= 0 or self.context_len <= 0:
            raise ConfigurationError("stage shape must be positive")
        if self.sequences < 1:
            raise ConfigurationError(
                f"sequences={self.sequences} must be >= 1")
        if self.sequences > 1 and self.batch_tokens != 1:
            raise ConfigurationError(
                "a multi-sequence stage is a decode step: one token per "
                f"sequence, not batch_tokens={self.batch_tokens}")
        if self.batch_tokens > self.context_len:
            raise ConfigurationError(
                f"batch_tokens={self.batch_tokens} exceeds "
                f"context_len={self.context_len}"
            )


def _split(value: int, ways: int, what: str) -> int:
    if value % ways != 0:
        raise ParallelismError(
            f"cannot split {what}={value} across {ways} tensor-parallel ways"
        )
    return value // ways


def decoder_layer_ops(config: LLMConfig, shape: StageShape,
                      tensor_parallel: int = 1,
                      layer_name: str = "layer") -> List[OpSpec]:
    """Operator list for one decoding layer at the given stage shape.

    Follows the paper's decomposition: LayerNorm, QKV generation, attention
    (scores, softmax, context), projection, residual, LayerNorm, FC1, GELU,
    FC2, residual.  Per-head attention matmuls are aggregated into one op
    with the summed dimensions (heads are independent and identical), and
    so are the per-sequence ones of a multi-sequence shape: weight matmuls
    see every sequence's rows, attention runs per sequence and head.
    """
    if tensor_parallel < 1:
        raise ParallelismError(f"tensor_parallel={tensor_parallel} < 1")
    d = config.d_model
    dtype = config.dtype_bytes
    heads = _split(config.num_heads, tensor_parallel, "num_heads")
    d_local = heads * config.head_dim
    dff_local = _split(config.d_ff, tensor_parallel, "d_ff")
    rows = shape.batch_tokens
    m = rows * shape.sequences
    ctx = shape.context_len
    hd = config.head_dim
    attn_heads = heads * shape.sequences

    ops: List[OpSpec] = []
    ops.append(vector_op(f"{layer_name}.ln1", OpKind.LAYERNORM,
                         elements=m * d, dtype_bytes=dtype))
    ops.append(matmul_op(f"{layer_name}.qkv", m=m, n=3 * d_local, k=d,
                         dtype_bytes=dtype))
    # Attention scores: per sequence and head [rows x hd] @ [hd x ctx]; KV
    # streams from device memory (weights_resident=True models KV-cache
    # traffic).
    score = matmul_op(f"{layer_name}.attn_score", m=rows, n=ctx, k=hd,
                      dtype_bytes=dtype)
    ops.append(OpSpec(name=score.name, kind=score.kind,
                      flops=score.flops * attn_heads,
                      weight_bytes=score.weight_bytes * attn_heads,
                      input_bytes=score.input_bytes * attn_heads,
                      output_bytes=score.output_bytes * attn_heads,
                      m=rows, n=ctx, k=hd))
    ops.append(vector_op(f"{layer_name}.softmax", OpKind.SOFTMAX,
                         elements=rows * ctx * attn_heads,
                         dtype_bytes=dtype))
    context = matmul_op(f"{layer_name}.attn_ctx", m=rows, n=hd, k=ctx,
                        dtype_bytes=dtype)
    ops.append(OpSpec(name=context.name, kind=context.kind,
                      flops=context.flops * attn_heads,
                      weight_bytes=context.weight_bytes * attn_heads,
                      input_bytes=context.input_bytes * attn_heads,
                      output_bytes=context.output_bytes * attn_heads,
                      m=rows, n=hd, k=ctx))
    ops.append(matmul_op(f"{layer_name}.proj", m=m, n=d, k=d_local,
                         dtype_bytes=dtype))
    ops.append(vector_op(f"{layer_name}.residual1", OpKind.ELEMENTWISE,
                         elements=m * d, dtype_bytes=dtype,
                         flops_per_element=1.0, num_inputs=2))
    ops.append(vector_op(f"{layer_name}.ln2", OpKind.LAYERNORM,
                         elements=m * d, dtype_bytes=dtype))
    ops.append(matmul_op(f"{layer_name}.fc1", m=m, n=dff_local, k=d,
                         dtype_bytes=dtype))
    ops.append(vector_op(f"{layer_name}.gelu", OpKind.GELU,
                         elements=m * dff_local, dtype_bytes=dtype))
    ops.append(matmul_op(f"{layer_name}.fc2", m=m, n=d, k=dff_local,
                         dtype_bytes=dtype))
    ops.append(vector_op(f"{layer_name}.residual2", OpKind.ELEMENTWISE,
                         elements=m * d, dtype_bytes=dtype,
                         flops_per_element=1.0, num_inputs=2))
    return ops


def lm_head_ops(config: LLMConfig, shape: StageShape) -> List[OpSpec]:
    """Final LayerNorm plus the LM-head projection to vocabulary logits.

    Only each sequence's last token's logits are needed, so the projection
    is a GEMV (``m`` is 1) regardless of the stage (the sum stage also
    emits exactly one next token).  With several sequences the head
    weights stream once while FLOPs and activations scale per sequence.
    """
    seqs = shape.sequences
    ops = [vector_op("lm_head.ln_f", OpKind.LAYERNORM,
                     elements=shape.batch_tokens * seqs * config.d_model,
                     dtype_bytes=config.dtype_bytes)]
    logits = matmul_op("lm_head.logits", m=1, n=config.vocab_size,
                       k=config.d_model, dtype_bytes=config.dtype_bytes)
    ops.append(replace(logits, flops=logits.flops * seqs,
                       input_bytes=logits.input_bytes * seqs,
                       output_bytes=logits.output_bytes * seqs))
    return ops


def embedding_ops(config: LLMConfig, shape: StageShape) -> List[OpSpec]:
    """Token + positional embedding lookup (a gather, bandwidth only)."""
    elems = shape.batch_tokens * shape.sequences * config.d_model
    return [OpSpec(name="embed", kind=OpKind.EMBEDDING, flops=float(elems),
                   weight_bytes=float(elems * config.dtype_bytes),
                   input_bytes=0.0,
                   output_bytes=float(elems * config.dtype_bytes))]


class StageParts(NamedTuple):
    """One stage split at its decoder-layer boundary.

    The stage is ``embed``, then ``layer`` once for each of the
    ``num_layers`` decoder layers, then ``head``.  Every decoder layer of
    a stage has the same shapes, so a cost model that reads only op shapes
    can price ``layer`` once and repeat it.  ``layer`` ops are named
    ``layer.<op>``; :meth:`ops` renames them ``layer<i>.<op>``.
    """

    embed: List[OpSpec]
    layer: List[OpSpec]
    head: List[OpSpec]
    num_layers: int

    def ops(self) -> List[OpSpec]:
        """The flat operator list of the whole stage."""
        ops = list(self.embed)
        for i in range(self.num_layers):
            prefix = f"layer{i}"
            ops.extend(OpSpec(**{**vars(op),
                                 "name": prefix + op.name[len("layer"):]})
                       for op in self.layer)
        ops.extend(self.head)
        return ops


def _stage_parts(config: LLMConfig, shape: StageShape,
                 tensor_parallel: int) -> StageParts:
    return StageParts(embed=embedding_ops(config, shape),
                      layer=decoder_layer_ops(config, shape,
                                              tensor_parallel),
                      head=lm_head_ops(config, shape),
                      num_layers=config.num_layers)


def sum_stage_parts(config: LLMConfig, input_len: int,
                    tensor_parallel: int = 1) -> StageParts:
    """The summarization stage over ``input_len`` tokens, in parts."""
    shape = StageShape(batch_tokens=input_len, context_len=input_len)
    return _stage_parts(config, shape, tensor_parallel)


def sum_stage_ops(config: LLMConfig, input_len: int,
                  tensor_parallel: int = 1) -> List[OpSpec]:
    """All operators of the summarization stage over ``input_len`` tokens."""
    return sum_stage_parts(config, input_len, tensor_parallel).ops()


def gen_stage_ops(config: LLMConfig, context_len: int,
                  tensor_parallel: int = 1) -> List[OpSpec]:
    """All operators of one generation stage at attention span ``context_len``.

    ``context_len`` counts the input tokens plus every token generated so
    far including the one produced by this stage's predecessor (the paper's
    ``L``).
    """
    shape = StageShape(batch_tokens=1, context_len=context_len)
    return _stage_parts(config, shape, tensor_parallel).ops()


def inference_op_count(config: LLMConfig, input_len: int,
                       output_len: int) -> int:
    """Number of operator instances in a full inference, for sanity checks."""
    count = len(sum_stage_ops(config, input_len))
    for step in range(output_len - 1):
        count += len(gen_stage_ops(config, input_len + step + 1))
    return count
