"""Static verifier for compiled PNM ISA programs.

Combines three analyses into one :class:`AnalysisReport`:

* **Register dataflow** (:mod:`repro.analysis.dataflow`): use-before-def
  (PNM101), use-after-free (PNM102), free-of-unknown (PNM103), dead
  writes (PNM104), leaked registers (PNM105).
* **Register-file pressure**: peak live bytes per bank at the modelled
  FP16 width against the Table II budgets — 48 MB matrix, 14 MB vector,
  1 MB scalar (PNM106).
* **Device address space**: every memory window an instruction touches
  (DMA transfers, streamed weights/bias/LN parameters, aggregated KV
  reads) must be non-negative (PNM201), inside the device address space
  (PNM202), and 4-byte aligned (PNM203); DMA stores between two
  barriers must not overlap (PNM204).  When a :class:`ModelLayout` is
  supplied the checks become layout-aware: windows must stay inside the
  region they start in (PNM205) and stores may only target mutable
  regions — the per-layer KV caches and the I/O buffers (PNM206).
* **Weight dtype** (PNM3xx): an int8 matmul must name its per-channel
  scale tensor (PNM301), and a program must not mix int8 and fp16
  weight matmuls — the MAC datapath's weight precision is a
  program-level mode on the DFX-lineage design (PNM302).

A program **verifies clean** when the report has no ERRORs
(``report.ok``).  Warnings flag legal-but-suspicious constructs that
shipped timing templates intentionally contain — e.g. a multi-sequence
stage (``compile_stage(..., sequences=)``, as ``batched_timing_program``
compiles it) re-stores each sequence's KV row at the same fake address,
which is exactly what PNM204 describes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Tuple

from repro.accelerator import isa

from .dataflow import (
    BANK_CAPACITY_BYTES,
    analyze_program,
    register_pressure,
)
from .diagnostics import AnalysisReport, Diagnostic, Severity

#: Functional device memory stores fp32 (timing charges FP16 at the
#: register file; the *address space* is laid out at 4 bytes/element).
DEVICE_BYTES_PER_ELEM = 4

#: Minimum DMA/stream alignment.  Device regions are cacheline-aligned;
#: element-granular sub-offsets (KV rows, position-embedding rows) are
#: always whole fp32 elements, so every legal address is 4-byte aligned.
ADDRESS_ALIGNMENT = 4

#: Default device address-space bound when neither a layout nor a
#: capacity is supplied: a 48-bit host-managed device-memory window.
#: Deliberately generous — timing-only fake layouts for the largest
#: MODEL_ZOO entries (OPT-175B, GPT-3 175B) span ~0.7 TB.
DEFAULT_ADDRESS_SPACE = 1 << 48

#: Region-name suffixes/names a DMA store may legally target.  Weights,
#: biases, LN parameters, and embedding tables are written once at model
#: load and are read-only to compiled programs.
_MUTABLE_SUFFIXES = ("kcache", "vcache")
_MUTABLE_NAMES = ("input_buffer", "output_buffer")


def _region_is_mutable(name: str) -> bool:
    return name.endswith(_MUTABLE_SUFFIXES) or name in _MUTABLE_NAMES


def _numel(shape: Tuple[int, ...]) -> int:
    n = 1
    for dim in shape:
        n *= dim
    return n


def memory_windows(instr) -> List[Tuple[int, int, str]]:
    """``(addr, nbytes, kind)`` windows an instruction touches.

    ``kind`` is ``"load"`` (device -> register / streamed operand) or
    ``"store"`` (register -> device).  Windows are in bytes at the
    functional fp32 width.
    """
    windows: List[Tuple[int, int, str]] = []
    b = DEVICE_BYTES_PER_ELEM
    if isinstance(instr, isa.DmaLoad):
        windows.append((instr.addr, _numel(instr.shape) * b, "load"))
    elif isinstance(instr, isa.DmaStore):
        nbytes = _numel(instr.shape) * b if instr.shape else 0
        windows.append((instr.addr, nbytes, "store"))
    elif isinstance(instr, isa.DmaGather):
        row = instr.row_elems * b
        top = (max(instr.indices) + 1) if instr.indices else 0
        windows.append((instr.table_addr, top * row, "load"))
    elif isinstance(instr, (isa.MpuMv, isa.MpuMmPea)):
        windows.append((instr.weight_addr, instr.k * instr.n * b, "load"))
        # Quantization side streams: per-channel scales and the fused
        # bias live at the functional fp32 width like everything else.
        if instr.scale_addr >= 0:
            windows.append((instr.scale_addr, instr.n * b, "load"))
        if instr.bias_addr >= 0:
            windows.append((instr.bias_addr, instr.n * b, "load"))
    elif isinstance(instr, isa.MpuMaskedMm):
        nbytes = instr.ctx * instr.heads * instr.head_dim * b
        windows.append((instr.k_addr, nbytes, "load"))
    elif isinstance(instr, isa.MpuAttnContext):
        nbytes = instr.ctx * instr.heads * instr.head_dim * b
        windows.append((instr.v_addr, nbytes, "load"))
    elif isinstance(instr, isa.MpuConv2d):
        nbytes = instr.out_ch * instr.in_ch * instr.kh * instr.kw * b
        windows.append((instr.weight_addr, nbytes, "load"))
    elif isinstance(instr, isa.VpuBias):
        windows.append((instr.bias_addr, instr.n * b, "load"))
    elif isinstance(instr, isa.VpuLayerNorm):
        windows.append((instr.gamma_addr, instr.n * b, "load"))
        windows.append((instr.beta_addr, instr.n * b, "load"))
    return windows


def _find_region(regions, addr: int):
    for region in regions:
        if region.addr <= addr < region.end:
            return region
    return None


class _StoreCover:
    """Bytes stored since the last barrier, each labelled by its first store.

    Disjoint ``[starts[i], ends[i])`` ranges sorted by start; ``labels[i]``
    is the index of the earliest store covering that whole range.  A new
    store paints only the gaps no earlier store covers, so the smallest
    label among the ranges a window meets is the earliest earlier store
    that overlaps the window.  Compiler output re-stores a few dozen
    distinct windows, so each store costs two bisections and a short scan
    instead of a walk over every store since the barrier.
    """

    __slots__ = ("starts", "ends", "labels")

    def __init__(self) -> None:
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.labels: List[int] = []

    def clear(self) -> None:
        self.starts.clear()
        self.ends.clear()
        self.labels.clear()

    def add(self, idx: int, addr: int, end: int) -> Optional[int]:
        """Record store ``idx`` over ``[addr, end)``; return the earliest
        earlier store it overlaps, or ``None``."""
        starts, ends, labels = self.starts, self.ends, self.labels
        lo = bisect_right(ends, addr)
        hi = bisect_left(starts, end)
        first = min(labels[lo:hi]) if lo < hi else None
        new_starts: List[int] = []
        new_ends: List[int] = []
        new_labels: List[int] = []
        cursor = addr
        for i in range(lo, hi):
            if cursor < starts[i]:
                new_starts.append(cursor)
                new_ends.append(starts[i])
                new_labels.append(idx)
            new_starts.append(starts[i])
            new_ends.append(ends[i])
            new_labels.append(labels[i])
            cursor = ends[i]
        if cursor < end:
            new_starts.append(cursor)
            new_ends.append(end)
            new_labels.append(idx)
        starts[lo:hi] = new_starts
        ends[lo:hi] = new_ends
        labels[lo:hi] = new_labels
        return first


def address_diagnostics(program, *, layout=None,
                        memory_capacity: Optional[int] = None
                        ) -> List[Diagnostic]:
    """PNM2xx: bounds, alignment, overlap, and layout-aware checks."""
    diags: List[Diagnostic] = []
    regions = list(layout.regions.values()) if layout is not None else []
    if memory_capacity is not None:
        bound = memory_capacity
    elif regions:
        bound = max(r.end for r in regions)
    else:
        bound = DEFAULT_ADDRESS_SPACE
    stores = _StoreCover()
    for idx, instr in enumerate(program):
        if isinstance(instr, isa.Barrier):
            stores.clear()
            continue
        for addr, nbytes, kind in memory_windows(instr):
            loc = f"program[{idx}]"
            op = instr.opcode
            if addr < 0:
                diags.append(Diagnostic(
                    "PNM201", Severity.ERROR,
                    f"negative device address {addr}",
                    location=loc, index=idx, source=op))
                continue
            if addr + nbytes > bound:
                diags.append(Diagnostic(
                    "PNM202", Severity.ERROR,
                    f"window [{addr:#x}, {addr + nbytes:#x}) exceeds the "
                    f"device address space ({bound:#x} bytes)",
                    location=loc, index=idx, source=op))
                continue
            if addr % ADDRESS_ALIGNMENT:
                diags.append(Diagnostic(
                    "PNM203", Severity.ERROR,
                    f"address {addr:#x} is not "
                    f"{ADDRESS_ALIGNMENT}-byte aligned",
                    location=loc, index=idx, source=op))
            if regions and nbytes > 0:
                region = _find_region(regions, addr)
                if region is None:
                    diags.append(Diagnostic(
                        "PNM205", Severity.ERROR,
                        f"window start {addr:#x} falls outside every "
                        f"layout region",
                        location=loc, index=idx, source=op))
                elif addr + nbytes > region.end:
                    diags.append(Diagnostic(
                        "PNM205", Severity.ERROR,
                        f"window [{addr:#x}, {addr + nbytes:#x}) crosses "
                        f"the end of region '{region.name}' "
                        f"({region.end:#x})",
                        location=loc, index=idx, source=op))
                elif kind == "store" and not _region_is_mutable(region.name):
                    diags.append(Diagnostic(
                        "PNM206", Severity.ERROR,
                        f"store into read-only region '{region.name}'",
                        location=loc, index=idx, source=op))
            if kind == "store" and nbytes > 0:
                prev_idx = stores.add(idx, addr, addr + nbytes)
                if prev_idx is not None:
                    diags.append(Diagnostic(
                        "PNM204", Severity.WARNING,
                        f"store window [{addr:#x}, {addr + nbytes:#x}) "
                        f"overlaps the store at program[{prev_idx}] with "
                        f"no intervening barrier",
                        location=loc, index=idx, source=op))
    return diags


def dtype_diagnostics(program) -> List[Diagnostic]:
    """PNM301/PNM302: weight-dtype consistency for int8 programs.

    * PNM301 — an int8 matmul without a per-channel scale tensor
      (``scale_addr < 0``): the executor cannot dequantize the int32
      accumulator and refuses the instruction at run time.
    * PNM302 — a single program mixing int8 and fp16 weight matmuls:
      the MAC datapath's weight precision is a program-level mode, so a
      compiler must emit a whole stage at one width.
    """
    diags: List[Diagnostic] = []
    seen_dtypes: Dict[str, int] = {}
    for idx, instr in enumerate(program):
        if not isinstance(instr, (isa.MpuMv, isa.MpuMmPea)):
            continue
        loc = f"program[{idx}]"
        if instr.dtype == "int8" and instr.scale_addr < 0:
            diags.append(Diagnostic(
                "PNM301", Severity.ERROR,
                "int8 matmul has no per-channel scale tensor "
                "(scale_addr < 0); the int32 accumulator cannot be "
                "dequantized",
                location=loc, index=idx, source=instr.opcode))
        if instr.dtype not in seen_dtypes:
            seen_dtypes[instr.dtype] = idx
            if len(seen_dtypes) == 2:
                first_dtype, first_idx = next(iter(seen_dtypes.items()))
                diags.append(Diagnostic(
                    "PNM302", Severity.ERROR,
                    f"program mixes weight dtypes: this {instr.dtype} "
                    f"matmul follows the {first_dtype} matmul at "
                    f"program[{first_idx}]",
                    location=loc, index=idx, source=instr.opcode))
    return diags


def dataflow_diagnostics(program) -> List[Diagnostic]:
    """PNM101-PNM105: register def/use/free violations."""
    facts = analyze_program(program)
    diags: List[Diagnostic] = []

    def emit(pairs: Iterable[Tuple[int, str]], code: str,
             severity: Severity, fmt: str) -> None:
        for idx, reg in pairs:
            diags.append(Diagnostic(
                code, severity, fmt.format(reg=reg),
                location=f"program[{idx}]", index=idx,
                source=program[idx].opcode))

    emit(facts.use_before_def, "PNM101", Severity.ERROR,
         "register {reg} read before any write")
    emit(facts.use_after_free, "PNM102", Severity.ERROR,
         "register {reg} accessed after FREE")
    emit(facts.bad_free, "PNM103", Severity.WARNING,
         "FREE of register {reg} which holds no live value")
    emit(facts.dead_writes, "PNM104", Severity.WARNING,
         "value written to {reg} is never read")
    for reg in facts.unfreed:
        last_def = facts.defs[reg][-1]
        diags.append(Diagnostic(
            "PNM105", Severity.WARNING,
            f"register {reg} is still live at program end (never freed)",
            location=f"program[{last_def}]", index=last_def,
            source=program[last_def].opcode))
    diags.sort(key=lambda d: (d.index if d.index is not None else -1,
                              d.code))
    return diags


def pressure_diagnostics(program,
                         budgets: Optional[Dict[str, int]] = None
                         ) -> List[Diagnostic]:
    """PNM106: peak register-file pressure against per-bank budgets."""
    budgets = budgets if budgets is not None else BANK_CAPACITY_BYTES
    report = register_pressure(program)
    diags: List[Diagnostic] = []
    for bank, peak in sorted(report.peak_bytes.items()):
        budget = budgets.get(bank)
        if budget is not None and peak > budget:
            idx = report.peak_index.get(bank)
            diags.append(Diagnostic(
                "PNM106", Severity.ERROR,
                f"peak {bank}-bank pressure {peak} B exceeds the "
                f"{budget} B register-file budget "
                f"({peak / budget:.2f}x)",
                location=f"program[{idx}]" if idx is not None else "",
                index=idx,
                source=program[idx].opcode if idx is not None else None))
    return diags


def verify_program(program, *, layout=None,
                   memory_capacity: Optional[int] = None,
                   budgets: Optional[Dict[str, int]] = None,
                   check_pressure: bool = True,
                   subject: str = "") -> AnalysisReport:
    """Run all static checks over a program; never raises on findings.

    Args:
        program: Any sequence of :class:`repro.accelerator.isa.Instruction`.
        layout: Optional :class:`ModelLayout` (real or fake) enabling the
            layout-aware region checks (PNM205/PNM206) and an exact
            address-space bound.
        memory_capacity: Optional explicit address-space bound in bytes;
            overrides the layout-derived bound.
        budgets: Per-bank register-file budgets (defaults to Table II).
        check_pressure: Disable to skip shape inference (cheapest mode).
        subject: Label for the report (e.g. ``"gen m=1 ctx=576"``).
    """
    diags: List[Diagnostic] = []
    diags.extend(dataflow_diagnostics(program))
    diags.extend(address_diagnostics(
        program, layout=layout, memory_capacity=memory_capacity))
    diags.extend(dtype_diagnostics(program))
    if check_pressure:
        diags.extend(pressure_diagnostics(program, budgets))
    return AnalysisReport.collect(diags, subject=subject)
