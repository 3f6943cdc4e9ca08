"""Functional tensor-parallel inference across multiple CXL-PNM devices.

The paper removed DFX's device-to-device router and instead lets *the
host* orchestrate inter-device communication through the unified CXL
address space (§V-C).  This module makes that concrete and functional:

* each device holds a Megatron-style shard of every layer (its slice of
  the attention heads and FFN columns) plus its shard of the KV cache;
* per half-layer, the host writes the normalized activations into every
  device's input buffer **over CXL.mem line writes**, launches each
  device's acceleration code through its driver, reads the partial
  results back from its output buffer over CXL.mem, and reduces them
  in host software —
  exactly the "host CPU orchestrates the device-to-device
  communications" flow;
* that acceleration code is the single-device compiler's own
  attention or FFN block (:class:`StageCompiler`), emitted over the
  shard's layout with its local head count and FFN width;
* the host-side glue (LayerNorm, residuals, reduction, biases after the
  reduce, LM head) uses the same float32 primitives as the golden model.

Integration tests drive a 2- and 4-way sharded tiny GPT and assert the
generated tokens match the single-device reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.accelerator import isa
from repro.accelerator.compiler import ModelLayout, StageCompiler
from repro.accelerator.memory import ALIGNMENT, DeviceMemory
from repro.accelerator.registers import RegisterAllocator
from repro.cxl.memdev import FunctionalCxlDevice
from repro.errors import ConfigurationError, ParallelismError
from repro.llm.reference import LN_EPS, ModelWeights, layernorm
from repro.runtime.driver import CxlPnmDriver

def _shard_cols(d: int, rank: int, degree: int) -> slice:
    width = d // degree
    return slice(rank * width, (rank + 1) * width)


def _aligned(nbytes: int) -> int:
    return -(-nbytes // ALIGNMENT) * ALIGNMENT


@dataclass
class _DeviceShard:
    """One device's state: memory, driver, CXL front end, and the
    compiler over its shard layout."""

    memory: DeviceMemory
    driver: CxlPnmDriver
    cxl: FunctionalCxlDevice
    compiler: StageCompiler


class TensorParallelSession:
    """Generate tokens with one model sharded across N simulated devices.

    Attributes:
        config: The (dense) model architecture.
        degree: Tensor-parallel ways; must divide heads and d_ff.
    """

    def __init__(self, weights: ModelWeights, degree: int,
                 memory_bytes: int = 0):
        config = weights.config
        if degree < 1:
            raise ParallelismError("degree must be >= 1")
        if config.num_heads % degree or config.d_ff % degree:
            raise ParallelismError(
                f"{config.name} does not shard {degree} ways")
        self.config = config
        self.degree = degree
        self.weights = weights
        self._d_local = config.d_model // degree
        self._dff_local = config.d_ff // degree
        self._heads_local = config.num_heads // degree
        self.devices = [self._build_shard(rank, memory_bytes)
                        for rank in range(degree)]
        self._context_len = 0
        self.host_cxl_writes = 0
        self.host_cxl_reads = 0

    # -- shard construction ---------------------------------------------------

    def _build_shard(self, rank: int, memory_bytes: int) -> _DeviceShard:
        """Place one device's slice of every layer: its heads' QKV columns
        and projection rows, its FFN columns, and its KV-cache shard.

        ``memory_bytes=0`` sizes the device to exactly what it holds.
        """
        cfg = self.config
        d, hd = cfg.d_model, cfg.head_dim
        heads = _shard_cols(cfg.num_heads, rank, self.degree)
        col0, col1 = heads.start * hd, heads.stop * hd
        qkv_cols = np.r_[col0:col1, d + col0:d + col1,
                         2 * d + col0:2 * d + col1]
        ff = _shard_cols(cfg.d_ff, rank, self.degree)
        tensors: Dict[str, np.ndarray] = {}
        buffers: Dict[str, Tuple[int, int]] = {}
        for i, layer in enumerate(self.weights.layers):
            prefix = f"layer{i}."
            tensors[prefix + "w_qkv"] = layer.w_qkv[:, qkv_cols]
            tensors[prefix + "b_qkv"] = layer.b_qkv[qkv_cols]
            tensors[prefix + "w_proj"] = layer.w_proj[col0:col1, :]
            tensors[prefix + "w_fc1"] = layer.w_fc1[:, ff]
            tensors[prefix + "b_fc1"] = layer.b_fc1[ff]
            tensors[prefix + "w_fc2"] = layer.w_fc2[ff, :]
            for which in ("kcache", "vcache"):
                buffers[prefix + which] = (cfg.max_seq_len, self._d_local)
        # The host broadcasts activations into the input buffer and reads
        # the shard's partial sums from the output buffer (§VI).
        buffers["input_buffer"] = (cfg.max_seq_len, d)
        buffers["output_buffer"] = (cfg.max_seq_len, d)
        memory = DeviceMemory(memory_bytes or (
            sum(_aligned(t.size * 4) for t in tensors.values())
            + sum(_aligned(rows * cols * 4)
                  for rows, cols in buffers.values())))
        regions = {name: memory.store_named(name, t)
                   for name, t in tensors.items()}
        regions.update((name, memory.alloc_tensor(name, shape))
                       for name, shape in buffers.items())
        driver = CxlPnmDriver(memory)
        cxl = FunctionalCxlDevice(memory, control=driver.control)
        return _DeviceShard(memory=memory, driver=driver, cxl=cxl,
                            compiler=StageCompiler(ModelLayout(cfg, regions)))

    # -- host orchestration ----------------------------------------------------

    @property
    def context_len(self) -> int:
        return self._context_len

    def _half_layer(self, h: np.ndarray,
                    block: Callable[..., Tuple[str, Tuple[str, ...]]]
                    ) -> np.ndarray:
        """Run one half-layer ``block`` on every shard; return the sum.

        ``block`` is :meth:`StageCompiler.attention` or
        :meth:`StageCompiler.ffn` with its geometry bound, called as
        ``block(compiler, h=..., regs=..., code=...)``.

        The host writes ``h`` into every device's input buffer over
        CXL.mem, each device runs its slice of the block on its own
        weights and stores its partial to its output buffer, and the
        host reads the partials back and reduces them: the "all-reduce"
        of §V-C, performed by the host through the unified map.
        """
        m, d = h.shape
        total = np.zeros((m, d), dtype=np.float32)
        for shard in self.devices:
            layout = shard.compiler.layout
            self.host_cxl_writes += shard.cxl.host_store_tensor(
                layout.input_region.addr, h)
            regs = RegisterAllocator()
            act = regs.matrix()
            code: List[isa.Instruction] = [
                isa.DmaLoad(dst=act, addr=layout.input_region.addr,
                            shape=(m, d))]
            out, temps = block(shard.compiler, h=act, regs=regs, code=code)
            code.append(isa.DmaStore(src=out,
                                     addr=layout.output_region.addr,
                                     shape=(m, d)))
            code.append(isa.Free(regs=(act, *temps, out)))
            shard.driver.program(tuple(code))
            shard.driver.launch()
            shard.driver.acknowledge()
            partial_sum = shard.cxl.host_load_tensor(
                layout.output_region.addr, (m, d))
            self.host_cxl_reads += -(-partial_sum.nbytes // 64)
            total = total + partial_sum
        return total

    def _stage(self, tokens: Sequence[int], ctx_prev: int) -> int:
        cfg, w = self.config, self.weights
        for t in tokens:
            if not 0 <= t < cfg.vocab_size:
                raise ConfigurationError(f"token {t} outside vocabulary")
        tok = w.token_embedding[np.asarray(tokens, dtype=np.int64)]
        pos = w.position_embedding[ctx_prev:ctx_prev + len(tokens)]
        x = (tok + pos).astype(np.float32)
        m = len(tokens)
        for i, layer in enumerate(w.layers):
            prefix = f"layer{i}."
            # The projection and fc2 biases are added once, on the host,
            # after the reduce.
            attention = partial(StageCompiler.attention, prefix=prefix,
                                rows=m, sequences=1, ctx_prev=ctx_prev,
                                heads=self._heads_local, proj_bias=None)
            ffn = partial(StageCompiler.ffn, prefix=prefix, m=m,
                          d_ff=self._dff_local, fc2_bias=None)
            h = layernorm(x, layer.ln1_gamma, layer.ln1_beta, eps=LN_EPS)
            x = x + (self._half_layer(h, attention) + layer.b_proj)
            h = layernorm(x, layer.ln2_gamma, layer.ln2_beta, eps=LN_EPS)
            x = x + (self._half_layer(h, ffn) + layer.b_fc2)
        final = layernorm(x[-1:], w.ln_f_gamma, w.ln_f_beta, eps=LN_EPS)
        logits = (final @ w.lm_head)[0]
        return int(np.argmax(logits))

    def generate(self, prompt: Sequence[int], num_tokens: int) -> List[int]:
        """Greedy-decode across the device group; tokens must match the
        single-device reference exactly (asserted by tests)."""
        if num_tokens <= 0:
            raise ConfigurationError("num_tokens must be positive")
        if not prompt:
            raise ConfigurationError("prompt must be non-empty")
        if len(prompt) + num_tokens > self.config.max_seq_len:
            raise ConfigurationError("sequence exceeds max_seq_len")
        self._context_len = 0
        tokens = [self._stage(list(prompt), ctx_prev=0)]
        self._context_len = len(prompt)
        for _ in range(num_tokens - 1):
            tokens.append(self._stage([tokens[-1]],
                                      ctx_prev=self._context_len))
            self._context_len += 1
        return tokens
