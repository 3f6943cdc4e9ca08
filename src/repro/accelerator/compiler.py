"""Compiler: lowers transformer stages into acceleration code.

The CXL-PNM Python library accelerates layer functions by programming the
instruction buffer with sequences of accelerator instructions (paper §VI).
This module is the code generator: given a model layout in device memory
and the stage geometry, it emits the acceleration code for a full sum or
gen stage — QKV generation on the PE array or adder trees, REDUMAX-fused
masked attention, softmax, projection, FFN with GELU, KV-cache append, and
the LM head with greedy argmax.

The emitted code is consumed three ways, from one source of truth:

* the functional executor runs it (token-exact vs the numpy reference);
* the timing simulator schedules it onto DMA/PE-array/adder-tree/VPU;
* the driver writes it into the simulated instruction buffer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator import isa
from repro.accelerator.memory import DeviceMemory, Region
from repro.accelerator.registers import RegisterAllocator
from repro.errors import (
    CapacityError,
    ConfigurationError,
    ProgramVerificationError,
)
from repro.llm.config import LLMConfig
from repro.llm.reference import LN_EPS, ModelWeights

#: Tile dimension of the matrix units; the paper doubles DFX's 64 to 128
#: to exploit the 1.1 TB/s module (§V-C).  Matmul dimensions need not be
#: multiples of it functionally, but the timing model rounds tiles up.
TILE_DIM = 128

#: Per-layer weight matrices the int8 quantizing loader compresses (the
#: streamed GEMV/GEMM operands that dominate gen-stage bandwidth).
#: Embeddings, biases, LayerNorm parameters, and the KV caches stay at
#: the full functional width.
_QUANTIZED_SUFFIXES = ("w_qkv", "w_proj", "w_fc1", "w_fc2")


def _is_quantized_weight(name: str) -> bool:
    return name == "lm_head" or name.rsplit(".", 1)[-1] in _QUANTIZED_SUFFIXES


def quantize_per_channel(tensor: np.ndarray
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """Symmetric per-output-channel int8 quantization of a ``[k, n]``
    weight matrix.

    Returns ``(codes, scales)``: ``codes`` holds integral values in
    ``[-127, 127]`` (kept in a float32 array because device memory is
    functionally fp32), ``scales`` the per-column dequantization factor
    such that ``codes * scales`` approximates ``tensor`` with at most
    half a quantization step of error per element.
    """
    tensor = np.asarray(tensor, dtype=np.float32)
    scales = np.max(np.abs(tensor), axis=0) / np.float32(127.0)
    scales = np.where(scales > 0, scales, np.float32(1.0)).astype(np.float32)
    codes = np.clip(np.rint(tensor / scales), -127, 127).astype(np.float32)
    return codes, scales


@dataclass(frozen=True)
class ModelLayout:
    """Addresses of every model tensor and working buffer in device memory.

    Attributes:
        config: The model architecture.
        regions: Tensor name -> allocated region (weights, caches, I/O).
        quantize: ``"int8"`` when the loader stored quantized weight
            codes plus per-channel ``<name>.scale`` regions, else None.
    """

    config: LLMConfig
    regions: Dict[str, Region]
    quantize: Optional[str] = field(default=None)

    def addr(self, name: str) -> int:
        try:
            return self.regions[name].addr
        except KeyError:
            raise ConfigurationError(f"layout has no tensor {name!r}")

    @property
    def output_region(self) -> Region:
        return self.regions["output_buffer"]

    @property
    def input_region(self) -> Region:
        return self.regions["input_buffer"]


def load_model(memory: DeviceMemory, weights: ModelWeights,
               quantize: Optional[str] = None) -> ModelLayout:
    """Write a model's parameters into device memory and build its layout.

    Also allocates the per-layer KV-cache regions (``max_seq_len`` rows
    each, the aggregated K and V matrices of §II-B) and the designated
    input/output buffers the driver exposes (§VI step 2/3).

    ``quantize="int8"`` runs the quantizing pass at load time: each
    streamed weight matrix (per-layer QKV/projection/FFN and the LM
    head) is stored as integral int8 codes with a ``<name>.scale``
    region of per-output-channel dequantization scales alongside.
    """
    if quantize not in (None, "int8"):
        raise ConfigurationError(
            f"unknown quantize mode {quantize!r} (expected None or 'int8')")
    config = weights.config
    regions: Dict[str, Region] = {}
    for name, tensor in weights.named_tensors().items():
        if quantize == "int8" and _is_quantized_weight(name):
            codes, scales = quantize_per_channel(tensor)
            regions[name] = memory.store_named(name, codes)
            scale_name = name + ".scale"
            regions[scale_name] = memory.store_named(scale_name, scales)
        else:
            regions[name] = memory.store_named(name, tensor)
    for i in range(config.num_layers):
        for which in ("kcache", "vcache"):
            name = f"layer{i}.{which}"
            regions[name] = memory.alloc_tensor(
                name, (config.max_seq_len, config.d_model))
    regions["input_buffer"] = memory.alloc_tensor(
        "input_buffer", (config.max_seq_len, config.d_model))
    # Sized for the widest single store: one token per request of a
    # batched decode step (shape ``(batch,)``), which can exceed the
    # historical 8-slot buffer.
    regions["output_buffer"] = memory.alloc_tensor(
        "output_buffer", (max(8, config.max_seq_len),))
    return ModelLayout(config=config, regions=regions, quantize=quantize)


def _check_cache_span(config: LLMConfig, ctx_prev: int, rows: int) -> None:
    """Reject a stage whose KV rows ``[ctx_prev, ctx_prev + rows)`` fall
    outside the cache."""
    if ctx_prev < 0 or ctx_prev + rows > config.max_seq_len:
        raise CapacityError(
            f"stage would occupy KV rows {ctx_prev}..{ctx_prev + rows}, "
            f"outside [0, max_seq_len={config.max_seq_len}]")


def matmul_instr(out: str, act: str, weight_addr: int, m: int, k: int,
                 n: int, scale_addr: Optional[int] = None,
                 bias_addr: int = -1) -> isa.Instruction:
    """The one datapath choice for ``out = act @ W``: a GEMM on the PE
    array for multi-row activations, a GEMV on the adder trees for one
    row.  A ``scale_addr`` selects the int8 weight stream with fused
    dequantization (and fused bias when ``bias_addr >= 0``)."""
    dtype = "fp16" if scale_addr is None else "int8"
    scale = -1 if scale_addr is None else scale_addr
    if m > 1:
        return isa.MpuMmPea(dst=out, act=act, weight_addr=weight_addr, m=m,
                            k=k, n=n, dtype=dtype, scale_addr=scale,
                            bias_addr=bias_addr)
    return isa.MpuMv(dst=out, act=act, weight_addr=weight_addr, k=k, n=n,
                     dtype=dtype, scale_addr=scale, bias_addr=bias_addr)


class StageCompiler:
    """Emits acceleration code for one inference stage.

    ``quantize="int8"`` emits int8 GEMV/GEMM with fused dequant+bias
    against a layout built by ``load_model(..., quantize="int8")``
    (the compiler needs the ``<name>.scale`` regions); by default it
    inherits the layout's own quantization mode.
    """

    def __init__(self, layout: ModelLayout,
                 quantize: Optional[str] = None):
        self.layout = layout
        self.config = layout.config
        if quantize is None:
            quantize = layout.quantize
        if quantize not in (None, "int8"):
            raise ConfigurationError(
                f"unknown quantize mode {quantize!r} "
                f"(expected None or 'int8')")
        if quantize == "int8" and "lm_head.scale" not in layout.regions:
            raise ConfigurationError(
                "quantize='int8' needs a layout with per-channel scale "
                "regions (load the model with quantize='int8')")
        self.quantize = quantize

    def _matmul(self, out: str, act: str, weight: str, m: int, k: int,
                n: int, code: List[isa.Instruction],
                bias: Optional[str] = None) -> None:
        """Emit ``out = act @ weight (+ bias)`` through :func:`matmul_instr`.

        In int8 mode the per-channel scales stream from the weight's
        ``.scale`` region and ``bias`` (when given) is fused into the
        matmul's dequantizing writeback; in fp16 mode the bias stays a
        separate ``VPU_BIAS``, so unquantized programs are bit-identical
        to the historical emission.
        """
        addr = self.layout.addr
        if self.quantize == "int8":
            code.append(matmul_instr(
                out, act, addr(weight), m, k, n,
                scale_addr=addr(weight + ".scale"),
                bias_addr=addr(bias) if bias is not None else -1))
            return
        code.append(matmul_instr(out, act, addr(weight), m, k, n))
        if bias is not None:
            code.append(isa.VpuBias(dst=out, src=out, bias_addr=addr(bias),
                                    n=n))

    def attention(self, h: str, prefix: str, rows: int, sequences: int,
                  ctx_prev: int, heads: int, regs: RegisterAllocator,
                  code: List[isa.Instruction], proj_bias: Optional[str]
                  ) -> Tuple[str, Tuple[str, ...]]:
        """The attention block of one decoder layer over normalized ``h``.

        QKV generation, the KV-cache append and masked attention per
        sequence, and the output projection.  ``heads`` sets the
        attention width ``heads * head_dim``: the full head count on one
        device, the local count on a tensor-parallel shard, whose
        ``w_qkv`` / ``w_proj`` / caches hold only its heads.
        ``proj_bias=None`` leaves the projection bias to the caller.

        Returns ``(out_reg, temps)``: the projection's register and the
        registers the caller frees once it has consumed ``out_reg``.
        """
        cfg = self.config
        d, hd = cfg.d_model, cfg.head_dim
        width = heads * hd
        m = rows * sequences
        ctx = ctx_prev + rows
        addr = self.layout.addr
        kcache, vcache = addr(prefix + "kcache"), addr(prefix + "vcache")

        qkv = regs.matrix()
        self._matmul(qkv, h, prefix + "w_qkv", m, d, 3 * width, code,
                     bias=prefix + "b_qkv")
        q, k_new, v_new = regs.matrix(), regs.matrix(), regs.matrix()
        code.append(isa.VpuSlice(dst=q, src=qkv, start=0, stop=width))
        code.append(isa.VpuSlice(dst=k_new, src=qkv, start=width,
                                 stop=2 * width))
        code.append(isa.VpuSlice(dst=v_new, src=qkv, start=2 * width,
                                 stop=3 * width))
        scores, rowmax = regs.matrix(), regs.vector()
        probs, attn = regs.matrix(), regs.matrix()
        append = ctx_prev * width * 4
        for _ in range(sequences):
            # Append this sequence's K/V rows to the aggregated cache
            # (§II-B), then attend over it.
            code.append(isa.DmaStore(src=k_new, addr=kcache + append,
                                     shape=(rows, width)))
            code.append(isa.DmaStore(src=v_new, addr=vcache + append,
                                     shape=(rows, width)))
            code.append(isa.MpuMaskedMm(
                dst=scores, q=q, k_addr=kcache, heads=heads, head_dim=hd,
                ctx=ctx, m=rows, scale=1.0 / math.sqrt(hd),
                mask_offset=ctx_prev, rowmax_dst=rowmax))
            code.append(isa.VpuSoftmax(dst=probs, src=scores,
                                       rowmax=rowmax))
            code.append(isa.MpuAttnContext(
                dst=attn, probs=probs, v_addr=vcache, heads=heads,
                head_dim=hd, ctx=ctx, m=rows))
        proj = regs.matrix()
        self._matmul(proj, attn, prefix + "w_proj", m, width, d, code,
                     bias=proj_bias)
        return proj, (qkv, q, k_new, v_new, scores, rowmax, probs, attn)

    def ffn(self, h: str, prefix: str, m: int, d_ff: int,
            regs: RegisterAllocator, code: List[isa.Instruction],
            fc2_bias: Optional[str]) -> Tuple[str, Tuple[str, ...]]:
        """The FFN block of one decoder layer over normalized ``h``:
        ``fc2(gelu(fc1(h)))`` with ``d_ff`` hidden columns (a shard's
        local slice under tensor parallelism).  ``fc2_bias=None`` leaves
        the second bias to the caller.  Returns ``(out_reg, temps)`` like
        :meth:`attention`."""
        d = self.config.d_model
        f1 = regs.matrix()
        self._matmul(f1, h, prefix + "w_fc1", m, d, d_ff, code,
                     bias=prefix + "b_fc1")
        g = regs.matrix()
        code.append(isa.VpuGelu(dst=g, src=f1))
        f2 = regs.matrix()
        self._matmul(f2, g, prefix + "w_fc2", m, d_ff, d, code,
                     bias=fc2_bias)
        return f2, (f1, g)

    def _layer(self, x: str, layer_idx: int, rows: int, sequences: int,
               ctx_prev: int, regs: RegisterAllocator,
               code: List[isa.Instruction]) -> str:
        cfg = self.config
        d = cfg.d_model
        prefix = f"layer{layer_idx}."
        addr = self.layout.addr

        h = regs.matrix()
        code.append(isa.VpuLayerNorm(dst=h, src=x,
                                     gamma_addr=addr(prefix + "ln1_gamma"),
                                     beta_addr=addr(prefix + "ln1_beta"),
                                     n=d, eps=LN_EPS))
        proj, temps = self.attention(h, prefix, rows, sequences, ctx_prev,
                                     cfg.num_heads, regs, code,
                                     proj_bias=prefix + "b_proj")
        x2 = regs.matrix()
        code.append(isa.VpuAdd(dst=x2, a=x, b=proj))
        code.append(isa.Free(regs=(h, *temps, proj, x)))

        h2 = regs.matrix()
        code.append(isa.VpuLayerNorm(dst=h2, src=x2,
                                     gamma_addr=addr(prefix + "ln2_gamma"),
                                     beta_addr=addr(prefix + "ln2_beta"),
                                     n=d, eps=LN_EPS))
        f2, temps = self.ffn(h2, prefix, rows * sequences, cfg.d_ff, regs,
                             code, fc2_bias=prefix + "b_fc2")
        x3 = regs.matrix()
        code.append(isa.VpuAdd(dst=x3, a=x2, b=f2))
        code.append(isa.Free(regs=(h2, *temps, f2, x2)))
        return x3

    def compile_stage(self, tokens: Sequence[int], ctx_prev: int,
                      sequences: int = 1) -> Tuple[isa.Instruction, ...]:
        """Acceleration code for one stage over ``tokens``.

        ``ctx_prev`` is the number of tokens already in the KV cache: 0
        for the sum stage, ``L - 1`` for a gen stage.  The code embeds the
        tokens, runs all decoding layers, and leaves the argmax-sampled
        next token in the designated output buffer.

        ``sequences > 1`` compiles a batched decode step: one token from
        each of ``sequences`` requests, all at the same ``ctx_prev``.  The
        weight matmuls run once over all rows; the KV append and masked
        attention run once per sequence; every row feeds the LM head.
        Such a program is for timing only — each sequence addresses the
        same caches of the one layout.
        """
        cfg = self.config
        m = len(tokens)
        if m == 0:
            raise ConfigurationError("stage needs at least one token")
        if sequences < 1:
            raise ConfigurationError(f"sequences={sequences} must be >= 1")
        if sequences > 1 and m != sequences:
            raise ConfigurationError(
                f"a {sequences}-sequence stage takes one token per "
                f"sequence, got {m} tokens")
        rows = m // sequences
        _check_cache_span(cfg, ctx_prev, rows)
        regs = RegisterAllocator()
        code: List[isa.Instruction] = []
        addr = self.layout.addr

        tok = regs.matrix()
        code.append(isa.DmaGather(dst=tok,
                                  table_addr=addr("token_embedding"),
                                  row_elems=cfg.d_model,
                                  indices=tuple(int(t) for t in tokens)))
        # One sequence's rows sit at positions ctx_prev onwards.  With
        # several sequences every row is at position ctx_prev; the block
        # load then starts at the table base so its rows stay in range.
        pos_row = ctx_prev if sequences == 1 else 0
        pos = regs.matrix()
        code.append(isa.DmaLoad(
            dst=pos,
            addr=addr("position_embedding") + pos_row * cfg.d_model * 4,
            shape=(m, cfg.d_model)))
        x = regs.matrix()
        code.append(isa.VpuAdd(dst=x, a=tok, b=pos))
        code.append(isa.Free(regs=(tok, pos)))

        for layer_idx in range(cfg.num_layers):
            x = self._layer(x, layer_idx, rows, sequences, ctx_prev, regs,
                            code)

        head_regs = [x]
        if sequences == 1:
            # Only the last row's logits are needed; with several
            # sequences every row is its sequence's last token.
            last = regs.matrix()
            code.append(isa.VpuRow(dst=last, src=x, row=-1))
            head_regs.append(last)
        final = regs.matrix()
        code.append(isa.VpuLayerNorm(dst=final, src=head_regs[-1],
                                     gamma_addr=addr("ln_f_gamma"),
                                     beta_addr=addr("ln_f_beta"),
                                     n=cfg.d_model, eps=LN_EPS))
        logits = regs.matrix()
        self._matmul(logits, final, "lm_head", sequences, cfg.d_model,
                     cfg.vocab_size, code)
        token_reg = regs.scalar()
        code.append(isa.VpuArgmax(dst=token_reg, src=logits))
        code.append(isa.DmaStore(src=token_reg,
                                 addr=self.layout.output_region.addr,
                                 shape=(sequences,)))
        code.append(isa.Free(regs=(*head_regs, final, logits, token_reg)))
        code.append(isa.Barrier())
        return tuple(code)

    def compile_sum_stage(self, prompt: Sequence[int]
                          ) -> Tuple[isa.Instruction, ...]:
        """Sum stage: the whole prompt, empty cache."""
        return self.compile_stage(prompt, ctx_prev=0)

    def compile_gen_stage(self, token: int, context_len: int
                          ) -> Tuple[isa.Instruction, ...]:
        """Gen stage: one token against ``context_len - 1`` cached tokens."""
        if context_len < 1:
            raise ConfigurationError("gen stage needs prior context")
        return self.compile_stage([token], ctx_prev=context_len - 1)


#: Distinguishes programs from different :class:`ProgramCache` instances
#: (hence different layouts) in :attr:`CachedProgram.timing_key`.
_CACHE_SERIALS = itertools.count()


class CachedProgram(tuple):
    """A stage program carrying a cheap timing identity.

    ``timing_key`` is ``(cache_serial, batch_tokens, ctx_prev)``:
    programs with equal keys come from the same :class:`ProgramCache`
    (same layout, same config) and identical stage geometry, so they
    schedule identically and the timing simulator may reuse a cached
    :class:`~repro.perf.simulator.SimulationResult` without rescheduling.
    The instructions themselves are the ordinary tuple contents.
    """

    timing_key: Tuple[int, int, int]

    def __new__(cls, instructions: Sequence[isa.Instruction],
                timing_key: Tuple[int, int, int]) -> "CachedProgram":
        self = super().__new__(cls, instructions)
        self.timing_key = timing_key
        return self


def _patched(instr: isa.Instruction, **changes) -> isa.Instruction:
    """Clone a frozen instruction with a few fields swapped.

    ``dataclasses.replace`` re-runs ``__init__``/``__post_init__`` on
    every clone, which dominated the patch cost; the patched values are
    produced from an already-validated template (``verify=True`` and the
    cache tests check the equivalence), so a ``__dict__``-level copy is
    safe and several times cheaper.
    """
    clone = object.__new__(type(instr))
    clone.__dict__.update(instr.__dict__)
    clone.__dict__.update(changes)
    return clone


class ProgramCache:
    """Compile-once, patch-per-token cache of stage programs.

    Decode programs are identical up to the fed-back token id and the
    context length: instruction order, register names, and weight
    addresses depend only on the batch size and the layout.  The cache
    keeps one *template* program per batch size and patches the few
    geometry-dependent immediates — embedding-gather indices, the
    position-embedding address, the per-layer KV-append addresses, and
    the attention spans — with a ``__dict__``-level clone.  The patched
    program compares equal to a fresh ``compile_stage`` of the same
    arguments (``verify=True`` asserts this on every patch; the test
    suite asserts it across geometries).

    Patching rewrites immediates only, never register operands or
    instruction order, so a patched program inherits the template's
    validity and is registered with the validate-once registry instead
    of being re-checked.

    Attributes:
        hits: Stages served by patching (or returning) a template.
        misses: Stages that required a full compile.
    """

    def __init__(self, compiler: StageCompiler, verify: bool = False,
                 verify_static: bool = False):
        self.compiler = compiler
        self.verify = verify
        #: Run the :mod:`repro.analysis` verifier once per distinct
        #: ``timing_key`` and raise ``ProgramVerificationError`` on any
        #: ERROR diagnostic.  Patched programs share their template's
        #: register structure, so the per-key check only adds the cheap
        #: address pass on geometries not seen before.
        self.verify_static = verify_static
        self._serial = next(_CACHE_SERIALS)
        #: batch size -> (template, template tokens, template ctx_prev,
        #: tuple of (instruction index, patch kind))
        self._templates: Dict[int, Tuple[CachedProgram, Tuple[int, ...],
                                         int, Tuple[Tuple[int, str], ...]]] \
            = {}
        self._static_ok: set = set()
        self.hits = 0
        self.misses = 0

    def _verify_static(self, program: "CachedProgram",
                       full: bool) -> None:
        """Statically verify one cached program (once per timing key).

        ``full=True`` (template miss) runs dataflow + address +
        pressure; ``full=False`` (patched clone) skips the
        shape-inference pressure pass, since patching rewrites
        immediates and inherits the template's register structure.
        """
        if not self.verify_static or program.timing_key in self._static_ok:
            return
        from repro.analysis.verifier import verify_program
        report = verify_program(
            program, layout=self.compiler.layout,
            check_pressure=full,
            subject=f"stage timing_key={program.timing_key}")
        if not report.ok:
            raise ProgramVerificationError(report.render())
        self._static_ok.add(program.timing_key)

    @staticmethod
    def _patch_plan(program: Sequence[isa.Instruction]
                    ) -> Tuple[Tuple[int, str], ...]:
        plan: List[Tuple[int, str]] = []
        for idx, instr in enumerate(program):
            if isinstance(instr, isa.DmaGather):
                plan.append((idx, "gather"))
            elif isinstance(instr, isa.DmaLoad):
                # The only load is the position-embedding block, whose
                # address is ctx_prev rows into the table.
                plan.append((idx, "addr"))
            elif isinstance(instr, isa.DmaStore) and len(instr.shape) == 2:
                # 2-D stores are the KV-cache appends at row ctx_prev;
                # the 1-D output-token store is geometry-independent.
                plan.append((idx, "addr"))
            elif isinstance(instr, isa.MpuMaskedMm):
                plan.append((idx, "attn"))
            elif isinstance(instr, isa.MpuAttnContext):
                plan.append((idx, "ctx"))
        return tuple(plan)

    def stage(self, tokens: Sequence[int], ctx_prev: int) -> CachedProgram:
        """Equivalent of ``compiler.compile_stage(tokens, ctx_prev)``."""
        tokens = tuple(int(t) for t in tokens)
        m = len(tokens)
        entry = self._templates.get(m)
        if entry is None:
            fresh = self.compiler.compile_stage(tokens, ctx_prev)
            program = CachedProgram(fresh, (self._serial, m, ctx_prev))
            isa.validate_program_cached(program)
            self._verify_static(program, full=True)
            self._templates[m] = (program, tokens, ctx_prev,
                                  self._patch_plan(program))
            self.misses += 1
            return program
        template, tpl_tokens, tpl_ctx, plan = entry
        self.hits += 1
        if tokens == tpl_tokens and ctx_prev == tpl_ctx:
            return template
        cfg = self.compiler.config
        _check_cache_span(cfg, ctx_prev, m)
        delta_bytes = (ctx_prev - tpl_ctx) * cfg.d_model * 4
        ctx = ctx_prev + m
        code = list(template)
        for idx, kind in plan:
            instr = code[idx]
            if kind == "gather":
                code[idx] = _patched(instr, indices=tokens)
            elif kind == "addr":
                code[idx] = _patched(instr, addr=instr.addr + delta_bytes)
            elif kind == "attn":
                code[idx] = _patched(instr, ctx=ctx, mask_offset=ctx_prev)
            else:  # "ctx"
                code[idx] = _patched(instr, ctx=ctx)
        patched = CachedProgram(code, (self._serial, m, ctx_prev))
        isa.register_validated(patched)
        self._verify_static(patched, full=False)
        if self.verify:
            fresh = self.compiler.compile_stage(tokens, ctx_prev)
            if tuple(patched) != fresh:
                raise ConfigurationError(
                    "patched stage program diverged from a fresh compile "
                    f"at batch_tokens={m}, ctx_prev={ctx_prev}")
        return patched

    def sum_stage(self, prompt: Sequence[int]) -> CachedProgram:
        """Equivalent of ``compiler.compile_sum_stage(prompt)``."""
        return self.stage(prompt, ctx_prev=0)

    def gen_stage(self, token: int, context_len: int) -> CachedProgram:
        """Equivalent of ``compiler.compile_gen_stage(token, ...)``."""
        if context_len < 1:
            raise ConfigurationError("gen stage needs prior context")
        return self.stage((token,), ctx_prev=context_len - 1)


def _fake_layout(config: LLMConfig,
                 quantize: Optional[str] = None) -> ModelLayout:
    """A layout with correctly-sized regions but no backing memory."""
    regions: Dict[str, Region] = {}
    cursor = 0

    def fake(name: str, elems: int) -> None:
        nonlocal cursor
        regions[name] = Region(name=name, addr=cursor, nbytes=elems * 4)
        cursor += elems * 4

    def weight(name: str, elems: int, n: int) -> None:
        fake(name, elems)
        if quantize == "int8":
            fake(name + ".scale", n)

    d, dff, vocab = config.d_model, config.d_ff, config.vocab_size
    fake("token_embedding", vocab * d)
    fake("position_embedding", config.max_seq_len * d)
    for i in range(config.num_layers):
        p = f"layer{i}."
        fake(p + "ln1_gamma", d)
        fake(p + "ln1_beta", d)
        weight(p + "w_qkv", d * 3 * d, 3 * d)
        fake(p + "b_qkv", 3 * d)
        weight(p + "w_proj", d * d, d)
        fake(p + "b_proj", d)
        fake(p + "ln2_gamma", d)
        fake(p + "ln2_beta", d)
        weight(p + "w_fc1", d * dff, dff)
        fake(p + "b_fc1", dff)
        weight(p + "w_fc2", dff * d, d)
        fake(p + "b_fc2", d)
        fake(p + "kcache", config.max_seq_len * d)
        fake(p + "vcache", config.max_seq_len * d)
    fake("ln_f_gamma", d)
    fake("ln_f_beta", d)
    weight("lm_head", d * vocab, vocab)
    fake("input_buffer", config.max_seq_len * d)
    fake("output_buffer", max(8, config.max_seq_len))
    return ModelLayout(config=config, regions=regions, quantize=quantize)


def timing_layout(config: LLMConfig,
                  quantize: Optional[str] = None) -> ModelLayout:
    """Public accessor for the timing-only fake layout.

    The static verifier (``repro lint-program``) uses it to run the
    layout-aware address checks against the exact region map the timing
    programs were compiled for, without allocating device memory.
    """
    return _fake_layout(config, quantize=quantize)


def timing_program(config: LLMConfig, batch_tokens: int, ctx_prev: int,
                   quantize: Optional[str] = None
                   ) -> Tuple[isa.Instruction, ...]:
    """A stage program with placeholder tokens/addresses for timing only.

    Builds a fake layout with correctly-sized regions but no backing
    memory, so the timing simulator can schedule real instruction streams
    for models far larger than simulatable memory.  ``quantize="int8"``
    emits the int8 weight path so the simulator prices the halved
    weight stream.
    """
    layout = _fake_layout(config, quantize=quantize)
    return StageCompiler(layout).compile_stage([0] * batch_tokens, ctx_prev)


def batched_timing_program(config: LLMConfig, batch: int, ctx_prev: int,
                           quantize: Optional[str] = None
                           ) -> Tuple[isa.Instruction, ...]:
    """One batched decode step for timing: a gen token from each of
    ``batch`` concurrent requests, all at attention span ``ctx_prev + 1``.

    The gen stage compiled for ``batch`` sequences: the weight matmuls run
    once as ``[batch x k] @ [k x n]`` GEMMs (weights stream once per
    step), while KV appends and masked attention run per request at
    ``m=1`` on the adder trees.  Timing only — addresses come from a fake
    layout and the program is never executed functionally.
    """
    layout = _fake_layout(config, quantize=quantize)
    return StageCompiler(layout).compile_stage([0] * batch, ctx_prev,
                                               sequences=batch)
