"""Static program verifier: known-bad programs and clean-sweep property.

Two halves.  First, hand-built programs seeded with exactly one defect
each — RAW-violating use-before-def, use-after-free, dead write,
overlapping DMA windows, a misaligned KV append, an out-of-bounds DMA —
must each yield the expected diagnostic code *at the expected
instruction index*.  Second, the property the verifier exists to
enforce: every program the shipped compiler emits, across a
batch/context sweep and through the ``ProgramCache`` patching fast
path, verifies clean.  A differential check holds the indexed PNM204
store-overlap scan to the quadratic loop it replaced.
"""

import random

import pytest

from repro.accelerator import isa
from repro.accelerator.compiler import (
    ProgramCache,
    StageCompiler,
    batched_timing_program,
    timing_layout,
    timing_program,
)
from repro.analysis import (
    DEFAULT_ADDRESS_SPACE,
    AnalysisReport,
    Severity,
    address_diagnostics,
    analyze_program,
    infer_shapes,
    memory_windows,
    register_pressure,
    verify_program,
)
from repro.errors import IsaError, ProgramVerificationError
from repro.llm import get_model, random_weights, tiny_config
from repro.runtime.session import InferenceSession
from repro.units import KiB


def _load(dst, addr=0, shape=(4, 4)):
    return isa.DmaLoad(dst=dst, addr=addr, shape=shape)


class TestKnownBadPrograms:
    def test_use_before_def_raw_hazard(self):
        # m1 is consumed before anything wrote it: the RAW dependency
        # has no producer.
        program = (
            _load("m0"),
            isa.VpuAdd(dst="m2", a="m0", b="m1"),
        )
        report = verify_program(program)
        diags = report.by_code("PNM101")
        assert len(diags) == 1
        assert diags[0].index == 1
        assert diags[0].severity is Severity.ERROR
        assert "m1" in diags[0].message
        assert not report.ok

    def test_use_after_free(self):
        program = (
            _load("m0"),
            isa.Free(regs=("m0",)),
            isa.VpuGelu(dst="m1", src="m0"),
        )
        report = verify_program(program)
        diags = report.by_code("PNM102")
        assert len(diags) == 1
        assert diags[0].index == 2
        assert not report.ok

    def test_dead_write(self):
        # m0 is written twice with no read in between: the first write
        # is dead.
        program = (
            _load("m0"),
            _load("m0", addr=64),
            isa.DmaStore(src="m0", addr=1024, shape=(4, 4)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program)
        diags = report.by_code("PNM104")
        assert len(diags) == 1
        assert diags[0].index == 0  # the overwritten write, not the killer
        assert diags[0].severity is Severity.WARNING
        assert report.ok  # warnings only: still verifies clean

    def test_overlapping_dma_store_windows(self):
        program = (
            _load("m0", shape=(4, 4)),
            isa.DmaStore(src="m0", addr=256, shape=(4, 4)),
            isa.DmaStore(src="m0", addr=288, shape=(4, 4)),  # overlaps
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program)
        diags = report.by_code("PNM204")
        assert len(diags) == 1
        assert diags[0].index == 2
        assert "program[1]" in diags[0].message

    def test_overlap_names_earliest_store(self):
        # The last store covers three disjoint earlier stores; the
        # earliest of them, program[1], sits at the highest address.
        program = (
            _load("m0", shape=(4, 4)),
            isa.DmaStore(src="m0", addr=512, shape=(4,)),
            isa.DmaStore(src="m0", addr=0, shape=(4,)),
            isa.DmaStore(src="m0", addr=256, shape=(4,)),
            isa.DmaStore(src="m0", addr=0, shape=(4, 4, 9)),
            isa.Free(regs=("m0",)),
        )
        diags = verify_program(program).by_code("PNM204")
        assert [d.index for d in diags] == [4]
        assert "program[1]" in diags[0].message

    def test_barrier_separates_store_windows(self):
        program = (
            _load("m0", shape=(4, 4)),
            isa.DmaStore(src="m0", addr=256, shape=(4, 4)),
            isa.Barrier(),
            isa.DmaStore(src="m0", addr=256, shape=(4, 4)),
            isa.Free(regs=("m0",)),
        )
        assert not verify_program(program).by_code("PNM204")

    def test_misaligned_kv_append(self):
        # A KV append whose row offset is not element-aligned.
        program = (
            _load("m0", shape=(1, 16)),
            isa.DmaStore(src="m0", addr=4 * KiB + 2, shape=(1, 16)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program)
        diags = report.by_code("PNM203")
        assert len(diags) == 1
        assert diags[0].index == 1
        assert not report.ok

    def test_out_of_bounds_dma(self):
        program = (_load("m0", addr=2 ** 50, shape=(8, 8)),
                   isa.Free(regs=("m0",)))
        report = verify_program(program)
        diags = report.by_code("PNM202")
        assert len(diags) == 1
        assert diags[0].index == 0
        assert not report.ok

    def test_negative_address(self):
        program = (isa.DmaStore(src="m0", addr=-4, shape=(1,)),)
        report = verify_program(program)
        assert report.by_code("PNM201")[0].index == 0

    def test_leaked_register(self):
        program = (_load("m0"), isa.VpuGelu(dst="m1", src="m0"),
                   isa.Free(regs=("m0",)))
        report = verify_program(program)
        codes = report.codes()
        assert "PNM105" in codes  # m1 never freed
        assert report.ok

    def test_free_of_unknown_register(self):
        program = (isa.Free(regs=("m9",)),)
        report = verify_program(program)
        assert report.by_code("PNM103")[0].index == 0


class TestLayoutAwareChecks:
    def test_window_crossing_region_boundary(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        region = layout.regions["token_embedding"]
        # Start inside the embedding table but read past its end.
        elems = region.nbytes // 4
        program = (
            isa.DmaLoad(dst="m0", addr=region.addr, shape=(elems + 4,)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program, layout=layout)
        diags = report.by_code("PNM205")
        assert len(diags) == 1 and diags[0].index == 0

    def test_store_to_read_only_region(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        program = (
            isa.DmaLoad(dst="m0", addr=layout.addr("input_buffer"),
                        shape=(1, cfg.d_model)),
            isa.DmaStore(src="m0", addr=layout.addr("layer0.w_qkv"),
                         shape=(1, cfg.d_model)),
            isa.Free(regs=("m0",)),
        )
        report = verify_program(program, layout=layout)
        diags = report.by_code("PNM206")
        assert len(diags) == 1 and diags[0].index == 1
        assert "w_qkv" in diags[0].message

    def test_kv_cache_store_is_legal(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        program = (
            isa.DmaLoad(dst="m0", addr=layout.addr("input_buffer"),
                        shape=(1, cfg.d_model)),
            isa.DmaStore(src="m0", addr=layout.addr("layer0.kcache"),
                         shape=(1, cfg.d_model)),
            isa.Free(regs=("m0",)),
        )
        assert verify_program(program, layout=layout).clean


class TestRegisterPressure:
    """Subsumes the ad-hoc budget checks in test_register_pressure.py:
    the same hoarding construction now yields a PNM106 diagnostic
    statically, before anything executes."""

    def test_hoarding_exceeds_budget(self):
        # 16 live 256x256 fp16 tensors = 2 MiB logical; budget 1 MiB.
        program = tuple(_load(f"m{i}", shape=(256, 256))
                        for i in range(16))
        report = verify_program(program,
                                budgets={"m": 1024 * KiB})
        diags = report.by_code("PNM106")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR
        assert not report.ok

    def test_freeing_stays_under_budget(self):
        code = []
        for i in range(16):
            code.append(_load(f"m{i}", shape=(256, 256)))
            code.append(isa.Free(regs=(f"m{i}",)))
        report = verify_program(tuple(code), budgets={"m": 1024 * KiB})
        assert not report.by_code("PNM106")

    def test_compiled_stage_fits_table_ii_budgets(self):
        cfg = tiny_config()
        program = timing_program(cfg, batch_tokens=4, ctx_prev=8)
        pressure = register_pressure(program)
        assert not pressure.unknown_shape_regs
        assert 0 < pressure.utilization("m") < 1.0

    def test_pressure_report_peaks(self):
        program = (_load("m0", shape=(64, 64)),
                   _load("v0", shape=(64,)),
                   isa.Free(regs=("m0", "v0")))
        pressure = register_pressure(program)
        assert pressure.peak_bytes["m"] == 64 * 64 * 2
        assert pressure.peak_bytes["v"] == 64 * 2
        assert pressure.peak_live_registers == 2


class TestDataflowFacts:
    def test_hazard_edge_counts(self):
        program = (
            _load("m0"),
            isa.VpuGelu(dst="m1", src="m0"),   # RAW on m0
            _load("m0", addr=64),              # WAR on m0
            isa.VpuGelu(dst="m1", src="m0"),   # RAW on m0, WAW on m1
            isa.Free(regs=("m0", "m1")),
        )
        facts = analyze_program(program)
        assert facts.raw_edges == 2
        assert facts.war_edges == 1
        assert facts.waw_edges == 1
        # m1's write at [1] is killed by [3]; the value from [3] is
        # freed unread — both are dead writes.
        assert facts.dead_writes == [(1, "m1"), (3, "m1")]

    def test_shape_inference_matches_simulator_rules(self):
        cfg = tiny_config()
        program = timing_program(cfg, batch_tokens=2, ctx_prev=4)
        shapes = infer_shapes(program)
        for instr, shape in zip(program, shapes):
            if isinstance(instr, isa.DmaLoad):
                assert shape == instr.shape
            elif isinstance(instr, isa.MpuMaskedMm):
                assert shape == (instr.heads, instr.m, instr.ctx)


class TestCompilerOutputsVerifyClean:
    """The property the verifier enforces: shipped programs are clean."""

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("ctx_prev", [0, 3, 17])
    def test_stage_sweep_clean(self, m, ctx_prev):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        program = StageCompiler(layout).compile_stage([1] * m, ctx_prev)
        report = verify_program(program, layout=layout)
        assert report.clean, report.render()

    def test_program_cache_patched_programs_clean(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        cache = ProgramCache(StageCompiler(layout))
        for ctx_prev in (2, 5, 9):
            program = cache.stage((7,), ctx_prev)
            report = verify_program(program, layout=layout)
            assert report.clean, report.render()
        assert cache.hits >= 2

    def test_opt13b_service_geometry_clean(self):
        cfg = get_model("OPT-13B")
        program = timing_program(cfg, batch_tokens=1, ctx_prev=576)
        report = verify_program(program, layout=timing_layout(cfg))
        assert report.clean, report.render()

    def test_batched_decode_no_errors(self):
        cfg = tiny_config()
        program = batched_timing_program(cfg, batch=4, ctx_prev=8)
        report = verify_program(program, layout=timing_layout(cfg))
        assert report.ok, report.render()
        # The per-request loop intentionally reuses registers and
        # re-stores KV rows at the same fake addresses; the verifier
        # must describe that as warnings, nothing else.
        assert set(report.codes()) == {"PNM104", "PNM204"}


class TestVerifyStaticHook:
    def test_results_bit_identical_with_hook_on(self):
        cfg = tiny_config()
        weights = random_weights(cfg, seed=3)
        plain = InferenceSession(weights)
        checked = InferenceSession(weights, verify_static=True)
        t_plain = plain.generate([1, 2, 3], 6)
        t_checked = checked.generate([1, 2, 3], 6)
        assert t_plain.tokens == t_checked.tokens
        assert t_plain.stage_times_s == t_checked.stage_times_s

    def test_hook_checks_once_per_timing_key(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        cache = ProgramCache(StageCompiler(layout), verify_static=True)
        cache.stage((1,), 4)
        cache.stage((2,), 4)  # same key (m=1, ctx_prev=4): no re-verify
        assert len(cache._static_ok) == 1
        cache.stage((1,), 5)
        assert len(cache._static_ok) == 2

    def test_hook_raises_on_bad_program(self):
        cfg = tiny_config()
        layout = timing_layout(cfg)
        cache = ProgramCache(StageCompiler(layout), verify_static=True)

        real_compile = cache.compiler.compile_stage
        weights_addr = layout.addr("layer0.w_qkv")

        def bad_compile(tokens, ctx_prev):
            # Structurally valid (passes isa.validate_program) but
            # stores into a read-only weights region: only the
            # layout-aware static verifier can catch it.
            prologue = (
                isa.DmaLoad(dst="m999", addr=weights_addr,
                            shape=(1, cfg.d_model)),
                isa.DmaStore(src="m999", addr=weights_addr,
                             shape=(1, cfg.d_model)),
                isa.Free(regs=("m999",)),
            )
            return prologue + real_compile(tokens, ctx_prev)

        cache.compiler.compile_stage = bad_compile
        with pytest.raises(ProgramVerificationError, match="PNM206"):
            cache.stage((1,), 4)


class TestValidateProgramAddressRegression:
    """Satellite: ``isa.validate_program`` surfaces the verifier's
    bounds/alignment diagnostics (when repro.analysis is importable)."""

    def test_out_of_bounds_dma_rejected(self):
        bad = (isa.DmaLoad(dst="m0", addr=2 ** 50, shape=(4, 4)),)
        with pytest.raises(IsaError, match="PNM202"):
            isa.validate_program(bad)

    def test_misaligned_dma_rejected(self):
        bad = (isa.DmaLoad(dst="m0", addr=6, shape=(2,)),)
        with pytest.raises(IsaError, match="PNM203"):
            isa.validate_program(bad)

    def test_negative_address_rejected(self):
        bad = (isa.DmaLoad(dst="m0", addr=-64, shape=(2,)),)
        with pytest.raises(IsaError, match="PNM201"):
            isa.validate_program(bad)

    def test_clean_program_still_validates(self):
        cfg = tiny_config()
        program = timing_program(cfg, batch_tokens=1, ctx_prev=2)
        isa.validate_program(program)  # should not raise


def _reference_address_diagnostics(program, bound):
    """Layout-free PNM201-PNM204 by the quadratic scan: each store is
    compared with every store since the last barrier, in program order."""
    diags = []
    stores = []
    for idx, instr in enumerate(program):
        if isinstance(instr, isa.Barrier):
            stores.clear()
            continue
        for addr, nbytes, kind in memory_windows(instr):
            if addr < 0:
                diags.append(("PNM201", idx,
                              f"negative device address {addr}"))
                continue
            if addr + nbytes > bound:
                diags.append((
                    "PNM202", idx,
                    f"window [{addr:#x}, {addr + nbytes:#x}) exceeds the "
                    f"device address space ({bound:#x} bytes)"))
                continue
            if addr % 4:
                diags.append(("PNM203", idx,
                              f"address {addr:#x} is not 4-byte aligned"))
            if kind == "store" and nbytes > 0:
                for prev_idx, prev_addr, prev_bytes in stores:
                    if addr < prev_addr + prev_bytes \
                            and prev_addr < addr + nbytes:
                        diags.append((
                            "PNM204", idx,
                            f"store window [{addr:#x}, {addr + nbytes:#x}) "
                            f"overlaps the store at program[{prev_idx}] "
                            f"with no intervening barrier"))
                        break
                stores.append((idx, addr, nbytes))
    return diags


def _random_store_program(rng, length=80):
    """Stores over a 1 KiB space: partial, nested and spanning windows,
    zero-byte stores, barriers, loads, and negative, out-of-bounds and
    misaligned windows."""
    program = [_load("m0", shape=(4,))]
    for _ in range(length):
        roll = rng.random()
        if roll < 0.05:
            program.append(isa.Barrier())
        elif roll < 0.10:
            program.append(isa.DmaStore(src="m0", addr=rng.randrange(1024)))
        elif roll < 0.15:
            program.append(_load("m1", addr=4 * rng.randrange(200),
                                 shape=(rng.randint(1, 16),)))
        else:
            addr = 4 * rng.randrange(-4, 260)
            if rng.random() < 0.05:
                addr += rng.randint(1, 3)
            elems = rng.choice((1, 2, 4, 8, rng.randint(1, 64),
                                rng.randint(64, 200)))
            program.append(isa.DmaStore(src="m0", addr=addr,
                                        shape=(elems,)))
    return tuple(program)


def _triples(diags):
    return [(d.code, d.index, d.message) for d in diags]


class TestStoreOverlapDifferential:
    """PNM204 from the indexed scan matches the quadratic reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_store_programs(self, seed):
        program = _random_store_program(random.Random(seed))
        got = _triples(address_diagnostics(program, memory_capacity=1024))
        assert got == _reference_address_diagnostics(program, 1024)
        assert any(code == "PNM204" for code, _, _ in got)

    def test_spanning_store_over_gaps(self):
        program = (
            _load("m0", shape=(4,)),
            isa.DmaStore(src="m0", addr=64, shape=(4,)),
            isa.DmaStore(src="m0", addr=8, shape=(2,)),
            isa.DmaStore(src="m0", addr=128, shape=(8,)),
            isa.DmaStore(src="m0", addr=0, shape=(64,)),   # spans all three
            isa.DmaStore(src="m0", addr=40, shape=(2,)),   # a painted gap
            isa.DmaStore(src="m0", addr=68, shape=(1,)),   # nested
            isa.DmaStore(src="m0", addr=252, shape=(4,)),  # partial
        )
        got = _triples(address_diagnostics(program))
        assert got == _reference_address_diagnostics(
            program, DEFAULT_ADDRESS_SPACE)
        assert [msg.rsplit("program[", 1)[1].split("]")[0]
                for _, _, msg in got] == ["1", "4", "1", "4"]

    @pytest.mark.parametrize("quantize", [None, "int8"])
    def test_batched_opt13b_programs(self, quantize):
        program = batched_timing_program(get_model("OPT-13B"), 8, 576,
                                         quantize=quantize)
        got = _triples(address_diagnostics(program))
        assert got == _reference_address_diagnostics(
            program, DEFAULT_ADDRESS_SPACE)
        assert len(got) > 0


class TestReportModel:
    def test_as_dict_round_trip(self):
        program = (_load("m0", addr=2 ** 50),)
        report = verify_program(program, subject="bad")
        data = report.as_dict()
        assert data["subject"] == "bad"
        assert data["ok"] is False and data["clean"] is False
        assert data["counts"]["error"] >= 1
        first = data["diagnostics"][0]
        assert {"code", "severity", "message", "location"} <= set(first)

    def test_render_sorts_errors_first(self):
        program = (
            _load("m0"),
            _load("m0", addr=2 ** 50),       # dead write + OOB
            isa.VpuAdd(dst="m1", a="m0", b="m9"),  # use-before-def m9
        )
        rendered = verify_program(program).render()
        lines = [ln for ln in rendered.splitlines() if "PNM" in ln]
        assert "error" in lines[0]
        assert lines[-1].startswith("  warning") or "warning" in lines[-1]

    def test_merged_reports(self):
        a = verify_program((_load("m0"), isa.Free(regs=("m0",))))
        b = verify_program((_load("m0", addr=-4),))
        merged = a.merged(b)
        assert isinstance(merged, AnalysisReport)
        assert not merged.ok
