"""Batched generation: amortizing weight streams across requests.

The paper evaluates single-stream inference (batch 1 per device), where
every gen token re-reads all parameters.  Serving systems batch the gen
stages of *different requests* instead: the weight matrices stream once
per step and multiply against a ``[B, d]`` activation block, while the
attention still runs per request against its own KV cache.  This turns
the weight term from bandwidth-bound GEMV into small-batch GEMM —
exactly the lever the PIM-batching literature the paper cites ([10])
studies, and a natural extension experiment for CXL-PNM: its PE array
can absorb the batched matmuls that DFX could not.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.llm.config import LLMConfig
from repro.llm.graph import StageParts, StageShape, _stage_parts
from repro.llm.kvcache import kv_spare_bytes
from repro.llm.ops import OpSpec


def batched_gen_stage_parts(config: LLMConfig, context_len: int,
                            batch: int,
                            tensor_parallel: int = 1) -> StageParts:
    """A full batched gen step, split into embed / one layer / LM heads.

    The step is the single-request gen stage at span ``context_len`` with
    ``batch`` sequences of one new token each.
    """
    shape = StageShape(batch_tokens=1, context_len=context_len,
                       sequences=batch)
    return _stage_parts(config, shape, tensor_parallel)


def batched_gen_stage_ops(config: LLMConfig, context_len: int, batch: int,
                          tensor_parallel: int = 1) -> List[OpSpec]:
    """A full batched gen step across all decoding layers plus LM heads."""
    return batched_gen_stage_parts(config, context_len, batch,
                                   tensor_parallel).ops()


def batch_kv_bytes(config: LLMConfig, context_len: int, batch: int) -> int:
    """KV-cache footprint of ``batch`` concurrent requests."""
    if batch < 1 or context_len < 1:
        raise ConfigurationError("batch and context must be >= 1")
    return batch * context_len * config.kv_bytes_per_token()


def max_batch_for_memory(config: LLMConfig, memory_bytes: int,
                         context_len: int) -> int:
    """Largest concurrent batch whose params + KV fit in a device."""
    spare = kv_spare_bytes(config, memory_bytes)
    per_request = context_len * config.kv_bytes_per_token()
    return int(spare // per_request)
