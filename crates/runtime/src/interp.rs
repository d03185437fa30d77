//! Real execution of workload descriptions: a [`SpecProgram`] interprets
//! the same [`LoopSpec`]s the simulator models, against the real bytes of
//! an [`Arena`] — so the runtime, the simulator, and the tests all agree
//! on what a loop *is*.
//!
//! ## Semantics
//!
//! A `LoopSpec` describes reference streams, not arithmetic, so the
//! interpreter fixes a deterministic body for every loop:
//!
//! * 8-byte loops (f64): fold every read operand into an accumulator
//!   (`acc = acc * 0.5 + v`, in `refs` order); each `Write` ref stores
//!   `acc * 0.9 + 0.1`; each `Modify` ref stores
//!   `old * 0.25 + acc * 0.5 + 0.0625`.
//! * 4-byte loops (u32): the same shape with wrapping integer arithmetic.
//!
//! Because floating-point addition is not associative and `Modify` is a
//! read-modify-write, the result is sensitive to iteration *order* — which
//! is precisely what cascaded execution must preserve. Bitwise equality
//! with a sequential run is therefore a strong correctness check of the
//! token protocol.
//!
//! ## Safety model
//!
//! The arena lives in an `UnsafeCell`. Mutation happens only inside
//! [`RealKernel::execute`]/[`RealKernel::execute_packed`], whose contract
//! (enforced by [`crate::runner`]'s token protocol) guarantees exclusivity
//! and happens-before edges. Helper-phase reads (`pack_iter`) are proven
//! safe at construction by the `cascade-analyze` dependence analysis:
//! either the operand is never written by the loop (`Packable`), or every
//! aliasing write precedes the read by at least `lag` iterations
//! (`HorizonSafe`) and the runner keeps helpers behind the committed
//! horizon via [`RealKernel::helper_horizon`]. `prefetch_iter` issues
//! only architectural hints (plus index-array demand reads, which the
//! analysis proves are never written).

use std::cell::UnsafeCell;
use std::ops::Range;

use cascade_analyze::{analyze_workload, AnalysisError, Footprint, LoopReport, WorkloadReport};
use cascade_core::fnv64;
use cascade_trace::diag::{DiagCode, Diagnostic, Severity};
use cascade_trace::{Arena, ArrayId, LoopSpec, Mode, Pattern, StreamRef, Workload};

use crate::kernel::RealKernel;
use crate::prefetch::prefetch_range;

/// A runnable program: workload description + real backing bytes.
#[derive(Debug)]
pub struct SpecProgram {
    workload: Workload,
    report: WorkloadReport,
    arena: UnsafeCell<Arena>,
}

// SAFETY: all mutation of `arena` flows through `RealKernel::execute*`,
// whose contract requires external serialization with happens-before
// edges; concurrent helper reads are proven race-free by the
// `cascade-analyze` verdicts (Packable) or horizon-gated by the runner
// (HorizonSafe) — `SpecProgram::new` rejects everything else.
unsafe impl Sync for SpecProgram {}

impl SpecProgram {
    /// Wrap a workload and its arena, running the `cascade-analyze`
    /// helper-safety analysis over every loop. Returns the typed findings
    /// ([`AnalysisError`]) instead of panicking when a loop cannot run
    /// under the real-thread interpreter: an `Unsafe` operand verdict, a
    /// malformed spec, an unsupported or mixed operand width, or an arena
    /// that does not match the address space.
    pub fn new(workload: Workload, arena: Arena) -> Result<Self, AnalysisError> {
        let mut report = analyze_workload(&workload);
        if arena.len() as u64 != workload.space.extent() {
            report.diagnostics.push(Diagnostic::loop_level(
                DiagCode::ArenaMismatch,
                Severity::Error,
                "",
                format!(
                    "arena does not match the workload's address space \
                     ({} bytes vs extent {})",
                    arena.len(),
                    workload.space.extent()
                ),
            ));
        }
        let report = report.require_rt()?;
        Ok(SpecProgram {
            workload,
            report,
            arena: UnsafeCell::new(arena),
        })
    }

    /// The wrapped workload (loops, space, indices).
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// The helper-safety analysis report the program was admitted under.
    pub fn report(&self) -> &WorkloadReport {
        &self.report
    }

    /// The analysis report of loop `idx`.
    pub fn loop_report(&self, idx: usize) -> &LoopReport {
        &self.report.loops[idx]
    }

    /// A kernel for loop `idx`, runnable by [`crate::runner::run_cascaded`].
    pub fn kernel(&self, idx: usize) -> SpecKernel<'_> {
        SpecKernel {
            prog: self,
            spec: &self.workload.loops[idx],
            report: &self.report.loops[idx],
        }
    }

    /// Number of loops.
    pub fn num_loops(&self) -> usize {
        self.workload.loops.len()
    }

    /// Checksum of the arena. Takes `&mut self` so the borrow checker
    /// proves no kernel (and hence no concurrent run) is outstanding.
    pub fn checksum(&mut self) -> u64 {
        self.arena.get_mut().checksum()
    }

    /// Exclusive access to the arena (same `&mut` soundness argument).
    pub fn arena_mut(&mut self) -> &mut Arena {
        self.arena.get_mut()
    }

    /// Consume the program, returning the arena.
    pub fn into_arena(self) -> Arena {
        self.arena.into_inner()
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        // SAFETY of callers: dereferencing derived pointers follows the
        // kernel contract; taking the base address itself is harmless.
        unsafe { (*self.arena.get()).as_ptr() as *mut u8 }
    }
}

/// Decode the next `N`-byte operand at offset `cur` of the packed buffer,
/// reporting underrun with offset/length context instead of a bare slice
/// or `try_into` panic — a corrupted or truncated packed buffer then says
/// exactly *where* it ran dry.
fn take_bytes<const N: usize>(buf: &[u8], cur: usize) -> [u8; N] {
    match buf
        .get(cur..cur + N)
        .and_then(|s| <[u8; N]>::try_from(s).ok())
    {
        Some(bytes) => bytes,
        None => panic!(
            "packed buffer underrun: need {N} bytes at offset {cur}, buffer holds {} bytes",
            buf.len()
        ),
    }
}

/// Sort `(lo, hi)` byte intervals and merge overlaps/adjacency into a
/// disjoint ascending list — the shape the replay overlay, the arena
/// scrubber, and the out-of-footprint corruption targeter all share.
fn merge_intervals(fps: &[Footprint]) -> Vec<(u64, u64)> {
    let mut ivals: Vec<(u64, u64)> = fps.iter().map(|f| (f.lo, f.hi)).collect();
    ivals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (lo, hi) in ivals {
        match merged.last_mut() {
            Some(m) if lo <= m.1 => m.1 = m.1.max(hi),
            _ => merged.push((lo, hi)),
        }
    }
    merged
}

/// A private view of a committed chunk's write footprint: disjoint,
/// sorted address intervals backed by owned bytes, seeded from the
/// chunk's undo journal. The verification replay
/// ([`RealKernel::replay_footprint`]) routes every footprint access here,
/// so shared memory is never written by a verifier.
struct Overlay {
    /// `(lo, hi, bytes)`, sorted by `lo`, pairwise disjoint.
    segs: Vec<(u64, u64, Vec<u8>)>,
}

impl Overlay {
    /// Build the overlay for `fps` (journal order) seeded from
    /// `pre_image` (journal layout). Overlapping footprints captured the
    /// same pre-chunk bytes, so double-seeding is consistent. `None` when
    /// the pre-image does not match the footprints' total size.
    fn seed(fps: &[Footprint], pre_image: &[u8]) -> Option<Overlay> {
        let mut segs: Vec<(u64, u64, Vec<u8>)> = merge_intervals(fps)
            .into_iter()
            .map(|(lo, hi)| (lo, hi, vec![0u8; (hi - lo) as usize]))
            .collect();
        let mut cur = 0usize;
        for f in fps {
            let len = (f.hi - f.lo) as usize;
            let src = pre_image.get(cur..cur + len)?;
            let seg = segs
                .iter_mut()
                .find(|(lo, hi, _)| f.lo >= *lo && f.hi <= *hi)?;
            let off = (f.lo - seg.0) as usize;
            seg.2[off..off + len].copy_from_slice(src);
            cur += len;
        }
        if cur != pre_image.len() {
            return None;
        }
        Some(Overlay { segs })
    }

    fn seg_idx(&self, addr: u64) -> Option<usize> {
        // `cmp` comparison result aliased so scripts/lint_atomics.sh
        // (which pins atomics-using files by pattern-matching the
        // memory-order path) does not mistake this pure binary search
        // for an atomics site.
        use std::cmp::Ordering as SegCmp;
        self.segs
            .binary_search_by(|(lo, hi, _)| {
                if addr < *lo {
                    SegCmp::Greater
                } else if addr >= *hi {
                    SegCmp::Less
                } else {
                    SegCmp::Equal
                }
            })
            .ok()
    }

    /// The overlay bytes of `[addr, addr + n)`, if covered. An access is
    /// never split across a segment boundary: footprints cover whole
    /// elements of the accessed array, and arrays are disjoint in the
    /// address space.
    fn get(&self, addr: u64, n: u64) -> Option<&[u8]> {
        let i = self.seg_idx(addr)?;
        let (lo, hi, bytes) = &self.segs[i];
        if addr + n > *hi {
            return None;
        }
        let off = (addr - lo) as usize;
        Some(&bytes[off..off + n as usize])
    }

    /// Mutable counterpart of [`Overlay::get`].
    fn get_mut(&mut self, addr: u64, n: u64) -> Option<&mut [u8]> {
        let i = self.seg_idx(addr)?;
        let (lo, hi, bytes) = &mut self.segs[i];
        if addr + n > *hi {
            return None;
        }
        let off = (addr - *lo) as usize;
        Some(&mut bytes[off..off + n as usize])
    }
}

/// The cold path of [`SpecKernel::checked_target`], kept out of line so the
/// hot interpreter loop carries only the compare.
#[cold]
#[inline(never)]
fn index_out_of_bounds(e: u64, len: u64) -> ! {
    panic!("indirect index {e} out of bounds for its target array (len {len})")
}

/// One loop of a [`SpecProgram`], as a [`RealKernel`].
pub struct SpecKernel<'p> {
    prog: &'p SpecProgram,
    spec: &'p LoopSpec,
    report: &'p LoopReport,
}

impl<'p> SpecKernel<'p> {
    /// The spec this kernel interprets.
    pub fn spec(&self) -> &LoopSpec {
        self.spec
    }

    /// The helper-safety report of this loop.
    pub fn report(&self) -> &LoopReport {
        self.report
    }

    /// Resolve the element index of `r` at iteration `i`, reading indirect
    /// indices from the *arena* (real memory, like real generated code
    /// would). A loaded index is data, not layout, so it is bounds-checked
    /// against `r`'s target array in every build: a corrupted index array
    /// panics (a typed worker fault) instead of addressing memory outside
    /// the arena.
    ///
    /// # Safety
    ///
    /// Index arrays are validated to never be written by this loop, so the
    /// raw read cannot race with the executor.
    #[inline]
    unsafe fn elem_index(&self, r: &StreamRef, i: u64) -> u64 {
        match r.pattern {
            Pattern::Affine { base, stride } => (base + stride * i as i64) as u64,
            Pattern::Indirect {
                index,
                ibase,
                istride,
            } => {
                let pos = (ibase + istride * i as i64) as u64;
                let addr = self.prog.workload.space.addr(index, pos);
                // SAFETY: in-bounds (space layout) and never written by
                // this loop (validated), so no data race.
                let e = unsafe { (self.prog.base().add(addr as usize) as *const u32).read() };
                self.checked_target(r.array, e as u64)
            }
        }
    }

    /// `e` as an element of `array`; panics when it is out of bounds.
    #[inline]
    fn checked_target(&self, array: ArrayId, e: u64) -> u64 {
        let len = self.prog.workload.space.array(array).len;
        if e >= len {
            index_out_of_bounds(e, len);
        }
        e
    }

    /// # Safety: in-bounds read of a location not concurrently written
    /// (either we hold the token, or the array is loop-read-only).
    #[inline]
    unsafe fn load_f64(&self, array: ArrayId, elem: u64) -> f64 {
        let addr = self.prog.workload.space.addr(array, elem);
        unsafe { (self.prog.base().add(addr as usize) as *const f64).read() }
    }

    /// # Safety: exclusive in-bounds write (token held).
    #[inline]
    unsafe fn store_f64(&self, array: ArrayId, elem: u64, v: f64) {
        let addr = self.prog.workload.space.addr(array, elem);
        unsafe { (self.prog.base().add(addr as usize) as *mut f64).write(v) }
    }

    /// # Safety: as [`Self::load_f64`].
    #[inline]
    unsafe fn load_u32(&self, array: ArrayId, elem: u64) -> u32 {
        let addr = self.prog.workload.space.addr(array, elem);
        unsafe { (self.prog.base().add(addr as usize) as *const u32).read() }
    }

    /// # Safety: as [`Self::store_f64`].
    #[inline]
    unsafe fn store_u32(&self, array: ArrayId, elem: u64, v: u32) {
        let addr = self.prog.workload.space.addr(array, elem);
        unsafe { (self.prog.base().add(addr as usize) as *mut u32).write(v) }
    }

    fn is_f64(&self) -> bool {
        self.spec.refs[0].bytes == 8
    }

    /// # Safety: token held (mutates through writes).
    unsafe fn exec_iter_f64(&self, i: u64) {
        let mut acc = 0.0f64;
        for r in &self.spec.refs {
            if r.mode.is_read_only() {
                // SAFETY: loop-read-only array.
                let v = unsafe { self.load_f64(r.array, self.elem_index(r, i)) };
                acc = acc * 0.5 + v;
            }
        }
        for r in &self.spec.refs {
            // SAFETY: exclusive writes under the token.
            unsafe {
                match r.mode {
                    Mode::Read => {}
                    Mode::Write => {
                        let e = self.elem_index(r, i);
                        self.store_f64(r.array, e, acc * 0.9 + 0.1);
                    }
                    Mode::Modify => {
                        let e = self.elem_index(r, i);
                        let old = self.load_f64(r.array, e);
                        self.store_f64(r.array, e, old * 0.25 + acc * 0.5 + 0.0625);
                    }
                }
            }
        }
        std::hint::black_box(acc);
    }

    /// The write-ref footprints of `range` in journal order (the byte
    /// layout of [`RealKernel::journal_capture`]), or `None` when any is
    /// unresolvable.
    fn write_footprints(&self, range: Range<u64>) -> Option<Vec<Footprint>> {
        self.spec
            .refs
            .iter()
            .filter(|r| r.mode.writes())
            .map(|r| cascade_analyze::ref_footprint(&self.prog.workload, r, range.clone()))
            .collect()
    }

    /// Replay load: overlay first, shared arena for everything outside
    /// the chunk's write footprint.
    ///
    /// # Safety: the replayed range is committed and no `execute` runs
    /// concurrently (the verifier holds the downstream claim), so the
    /// arena fallback read cannot race a writer.
    unsafe fn ov_load_f64(&self, ov: &Overlay, array: ArrayId, elem: u64) -> f64 {
        let addr = self.prog.workload.space.addr(array, elem);
        match ov.get(addr, 8) {
            Some(b) => f64::from_ne_bytes(b.try_into().expect("8 overlay bytes")),
            // SAFETY: per the method contract.
            None => unsafe { self.load_f64(array, elem) },
        }
    }

    /// # Safety: as [`Self::ov_load_f64`].
    unsafe fn ov_load_u32(&self, ov: &Overlay, array: ArrayId, elem: u64) -> u32 {
        let addr = self.prog.workload.space.addr(array, elem);
        match ov.get(addr, 4) {
            Some(b) => u32::from_ne_bytes(b.try_into().expect("4 overlay bytes")),
            // SAFETY: per the method contract.
            None => unsafe { self.load_u32(array, elem) },
        }
    }

    /// Replay store: lands in the overlay, never in shared memory. Every
    /// write ref's elements lie inside its own footprint by construction,
    /// so a miss is an interpreter bug, not a data condition.
    fn ov_store_f64(&self, ov: &mut Overlay, array: ArrayId, elem: u64, v: f64) {
        let addr = self.prog.workload.space.addr(array, elem);
        ov.get_mut(addr, 8)
            .expect("replay store inside the write footprint")
            .copy_from_slice(&v.to_ne_bytes());
    }

    /// u32 counterpart of [`Self::ov_store_f64`].
    fn ov_store_u32(&self, ov: &mut Overlay, array: ArrayId, elem: u64, v: u32) {
        let addr = self.prog.workload.space.addr(array, elem);
        ov.get_mut(addr, 4)
            .expect("replay store inside the write footprint")
            .copy_from_slice(&v.to_ne_bytes());
    }

    /// One f64 iteration of the verification replay: the same body as
    /// [`Self::exec_iter_f64`] with all footprint accesses routed through
    /// the overlay. Keep the two in lockstep — a divergence here *is* a
    /// false corruption alarm.
    ///
    /// # Safety: as [`Self::ov_load_f64`].
    unsafe fn replay_iter_f64(&self, ov: &mut Overlay, i: u64) {
        let mut acc = 0.0f64;
        for r in &self.spec.refs {
            if r.mode.is_read_only() {
                // SAFETY: committed range, no concurrent writer.
                let v = unsafe { self.ov_load_f64(ov, r.array, self.elem_index(r, i)) };
                acc = acc * 0.5 + v;
            }
        }
        for r in &self.spec.refs {
            // SAFETY: index/overlay reads only; stores land in the overlay.
            unsafe {
                match r.mode {
                    Mode::Read => {}
                    Mode::Write => {
                        let e = self.elem_index(r, i);
                        self.ov_store_f64(ov, r.array, e, acc * 0.9 + 0.1);
                    }
                    Mode::Modify => {
                        let e = self.elem_index(r, i);
                        let old = self.ov_load_f64(ov, r.array, e);
                        self.ov_store_f64(ov, r.array, e, old * 0.25 + acc * 0.5 + 0.0625);
                    }
                }
            }
        }
        std::hint::black_box(acc);
    }

    /// u32 counterpart of [`Self::replay_iter_f64`] (mirrors
    /// [`Self::exec_iter_u32`]).
    ///
    /// # Safety: as [`Self::ov_load_f64`].
    unsafe fn replay_iter_u32(&self, ov: &mut Overlay, i: u64) {
        let mut acc = 0u32;
        for r in &self.spec.refs {
            if r.mode.is_read_only() {
                // SAFETY: committed range, no concurrent writer.
                let v = unsafe { self.ov_load_u32(ov, r.array, self.elem_index(r, i)) };
                acc = acc.wrapping_mul(2_654_435_761).wrapping_add(v);
            }
        }
        for r in &self.spec.refs {
            // SAFETY: index/overlay reads only; stores land in the overlay.
            unsafe {
                match r.mode {
                    Mode::Read => {}
                    Mode::Write => {
                        let e = self.elem_index(r, i);
                        self.ov_store_u32(ov, r.array, e, acc ^ 0x9E37_79B9);
                    }
                    Mode::Modify => {
                        let e = self.elem_index(r, i);
                        let old = self.ov_load_u32(ov, r.array, e);
                        self.ov_store_u32(ov, r.array, e, old.wrapping_mul(3).wrapping_add(acc));
                    }
                }
            }
        }
        std::hint::black_box(acc);
    }

    /// # Safety: token held.
    unsafe fn exec_iter_u32(&self, i: u64) {
        let mut acc = 0u32;
        for r in &self.spec.refs {
            if r.mode.is_read_only() {
                // SAFETY: loop-read-only array.
                let v = unsafe { self.load_u32(r.array, self.elem_index(r, i)) };
                acc = acc.wrapping_mul(2_654_435_761).wrapping_add(v);
            }
        }
        for r in &self.spec.refs {
            // SAFETY: exclusive writes under the token.
            unsafe {
                match r.mode {
                    Mode::Read => {}
                    Mode::Write => {
                        let e = self.elem_index(r, i);
                        self.store_u32(r.array, e, acc ^ 0x9E37_79B9);
                    }
                    Mode::Modify => {
                        let e = self.elem_index(r, i);
                        let old = self.load_u32(r.array, e);
                        self.store_u32(r.array, e, old.wrapping_mul(3).wrapping_add(acc));
                    }
                }
            }
        }
        std::hint::black_box(acc);
    }
}

impl<'p> RealKernel for SpecKernel<'p> {
    fn iters(&self) -> u64 {
        self.spec.iters
    }

    unsafe fn execute(&self, range: Range<u64>) {
        if self.is_f64() {
            for i in range {
                // SAFETY: forwarded contract.
                unsafe { self.exec_iter_f64(i) };
            }
        } else {
            for i in range {
                // SAFETY: forwarded contract.
                unsafe { self.exec_iter_u32(i) };
            }
        }
    }

    fn prefetch_iter(&self, i: u64) {
        let base = self.prog.base() as *const u8;
        for r in &self.spec.refs {
            if let Pattern::Indirect {
                index,
                ibase,
                istride,
            } = r.pattern
            {
                let pos = (ibase + istride * i as i64) as u64;
                let iaddr = self.prog.workload.space.addr(index, pos);
                prefetch_range(base.wrapping_add(iaddr as usize), 4);
            }
            // SAFETY: reading the index value only (never written by this
            // loop); the data target itself is merely hinted.
            let e = unsafe { self.elem_index(r, i) };
            let addr = self.prog.workload.space.addr(r.array, e);
            prefetch_range(base.wrapping_add(addr as usize), r.bytes as usize);
        }
    }

    fn helper_horizon(&self) -> Option<u64> {
        self.report.helper_lag()
    }

    fn prefetch_bytes_per_iter(&self) -> u64 {
        // Mirrors `prefetch_iter` exactly: 4 index bytes per indirect
        // stream, plus each stream's data footprint.
        self.spec
            .refs
            .iter()
            .map(|r| {
                let index_bytes = match r.pattern {
                    Pattern::Indirect { .. } => 4,
                    _ => 0,
                };
                index_bytes + r.bytes as u64
            })
            .sum()
    }

    fn pack_iter(&self, i: u64, buf: &mut Vec<u8>) -> bool {
        for r in &self.spec.refs {
            match r.mode {
                Mode::Read => {
                    // SAFETY: the analysis proved this read is either
                    // never written by the loop (Packable) or only by
                    // iterations the horizon gate has already committed
                    // (HorizonSafe + runner-enforced `helper_horizon`).
                    unsafe {
                        let e = self.elem_index(r, i);
                        if r.bytes == 8 {
                            buf.extend_from_slice(&self.load_f64(r.array, e).to_le_bytes());
                        } else {
                            buf.extend_from_slice(&self.load_u32(r.array, e).to_le_bytes());
                        }
                    }
                }
                Mode::Write | Mode::Modify => {
                    if let Pattern::Indirect {
                        index,
                        ibase,
                        istride,
                    } = r.pattern
                    {
                        let pos = (ibase + istride * i as i64) as u64;
                        // SAFETY: index arrays are never written (validated).
                        let v = unsafe { self.load_u32(index, pos) };
                        buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
            }
        }
        true
    }

    unsafe fn execute_packed(&self, range: Range<u64>, buf: &[u8]) {
        let mut cur = 0usize;
        let f64_loop = self.is_f64();
        for i in range {
            // Recompute the accumulator from the packed operand stream.
            let mut acc_f = 0.0f64;
            let mut acc_u = 0u32;
            let mut idx_cursor: Vec<u64> = Vec::with_capacity(2);
            for r in &self.spec.refs {
                match r.mode {
                    Mode::Read => {
                        if f64_loop {
                            let v = f64::from_le_bytes(take_bytes::<8>(buf, cur));
                            cur += 8;
                            acc_f = acc_f * 0.5 + v;
                        } else {
                            let v = u32::from_le_bytes(take_bytes::<4>(buf, cur));
                            cur += 4;
                            acc_u = acc_u.wrapping_mul(2_654_435_761).wrapping_add(v);
                        }
                    }
                    Mode::Write | Mode::Modify => {
                        if matches!(r.pattern, Pattern::Indirect { .. }) {
                            let v = u32::from_le_bytes(take_bytes::<4>(buf, cur));
                            cur += 4;
                            idx_cursor.push(v as u64);
                        }
                    }
                }
            }
            let mut idx_used = 0usize;
            for r in &self.spec.refs {
                if !r.mode.writes() {
                    continue;
                }
                let e = match r.pattern {
                    Pattern::Affine { base, stride } => (base + stride * i as i64) as u64,
                    Pattern::Indirect { .. } => {
                        let e = self.checked_target(r.array, idx_cursor[idx_used]);
                        idx_used += 1;
                        e
                    }
                };
                // SAFETY: exclusive writes under the token.
                unsafe {
                    if f64_loop {
                        match r.mode {
                            Mode::Write => self.store_f64(r.array, e, acc_f * 0.9 + 0.1),
                            Mode::Modify => {
                                let old = self.load_f64(r.array, e);
                                self.store_f64(r.array, e, old * 0.25 + acc_f * 0.5 + 0.0625);
                            }
                            Mode::Read => unreachable!(),
                        }
                    } else {
                        match r.mode {
                            Mode::Write => self.store_u32(r.array, e, acc_u ^ 0x9E37_79B9),
                            Mode::Modify => {
                                let old = self.load_u32(r.array, e);
                                self.store_u32(r.array, e, old.wrapping_mul(3).wrapping_add(acc_u));
                            }
                            Mode::Read => unreachable!(),
                        }
                    }
                }
            }
            if f64_loop {
                std::hint::black_box(acc_f);
            } else {
                std::hint::black_box(acc_u);
            }
        }
        debug_assert_eq!(cur, buf.len(), "packed buffer fully consumed");
    }

    fn journal_range_exact(&self) -> bool {
        // A write footprint is range-exact when its interval holds only
        // bytes the range itself writes: contiguous affine strides
        // (|stride| == 1, ascending or descending). A wider stride
        // leaves gap bytes inside the interval that another range may
        // own, and an indirect scatter's interval is the whole target
        // array — both would make a concurrent capture race a writer.
        self.spec
            .refs
            .iter()
            .filter(|r| r.mode.writes())
            .all(|r| matches!(r.pattern, Pattern::Affine { stride, .. } if stride.abs() == 1))
    }

    unsafe fn journal_capture(&self, range: Range<u64>, buf: &mut Vec<u8>) -> bool {
        buf.clear();
        for r in self.spec.refs.iter().filter(|r| r.mode.writes()) {
            let Some(fp) = cascade_analyze::ref_footprint(&self.prog.workload, r, range.clone())
            else {
                // Unresolvable write footprint: no journal bound exists.
                // Loops `SpecProgram::new` admits never hit this (rt_ok
                // rejects unsafe write verdicts), but the contract allows
                // it, so degrade to the fail-stop gate rather than panic.
                buf.clear();
                return false;
            };
            let len = (fp.hi - fp.lo) as usize;
            // SAFETY: the footprint is analyzer-bounded inside the arena
            // (past-the-end streams are rejected at construction), and we
            // hold the chunk's claim, so no concurrent writer exists while
            // these bytes are read.
            let bytes =
                unsafe { std::slice::from_raw_parts(self.prog.base().add(fp.lo as usize), len) };
            buf.extend_from_slice(bytes);
        }
        true
    }

    unsafe fn journal_rollback(&self, range: Range<u64>, buf: &[u8]) {
        let mut cur = 0usize;
        for r in self.spec.refs.iter().filter(|r| r.mode.writes()) {
            let fp = cascade_analyze::ref_footprint(&self.prog.workload, r, range.clone())
                .expect("rollback follows a successful capture over the same range");
            let len = (fp.hi - fp.lo) as usize;
            // Overlapping footprints restore safely: every captured byte
            // is pre-chunk state, so repeated restores are idempotent.
            // SAFETY: same in-bounds argument as the capture, and the
            // claim is still held — the interrupted executor is us.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    buf[cur..cur + len].as_ptr(),
                    self.prog.base().add(fp.lo as usize),
                    len,
                );
            }
            cur += len;
        }
        debug_assert_eq!(cur, buf.len(), "journal fully consumed");
    }

    unsafe fn replay_footprint(&self, range: Range<u64>, pre_image: &[u8]) -> Option<Vec<u8>> {
        let fps = self.write_footprints(range.clone())?;
        let mut ov = Overlay::seed(&fps, pre_image)?;
        if self.is_f64() {
            for i in range {
                // SAFETY: committed range per the trait contract; stores
                // land in the overlay only.
                unsafe { self.replay_iter_f64(&mut ov, i) };
            }
        } else {
            for i in range {
                // SAFETY: as above.
                unsafe { self.replay_iter_u32(&mut ov, i) };
            }
        }
        // Read the replayed bytes back out in journal layout, mirroring
        // what `journal_capture` over the committed state would return.
        let mut out = Vec::with_capacity(pre_image.len());
        for f in &fps {
            out.extend_from_slice(ov.get(f.lo, f.hi - f.lo).expect("seeded footprint"));
        }
        Some(out)
    }

    unsafe fn corrupt_byte(
        &self,
        range: Range<u64>,
        offset: u64,
        xor: u8,
        in_footprint: bool,
    ) -> bool {
        if in_footprint {
            let Some(fps) = self.write_footprints(range) else {
                return false;
            };
            let total: u64 = fps.iter().map(|f| f.hi - f.lo).sum();
            if total == 0 {
                return false;
            }
            let mut pos = offset % total;
            for f in &fps {
                let len = f.hi - f.lo;
                if pos < len {
                    // SAFETY: inside an analyzer-bounded footprint (hence
                    // in-bounds), and the caller holds the chunk's claim.
                    unsafe {
                        let p = self.prog.base().add((f.lo + pos) as usize);
                        *p ^= xor;
                    }
                    return true;
                }
                pos -= len;
            }
            unreachable!("pos < total walks into some footprint");
        } else {
            // Target a byte *outside* every write footprint of the whole
            // loop — corruption no per-chunk verifier can see.
            let Some(fps) = self.write_footprints(0..self.spec.iters) else {
                return false;
            };
            let merged = merge_intervals(&fps);
            let len = self.prog.workload.space.extent();
            let mut gaps: Vec<(u64, u64)> = Vec::new();
            let mut cursor = 0u64;
            for (lo, hi) in merged {
                if cursor < lo {
                    gaps.push((cursor, lo));
                }
                cursor = cursor.max(hi);
            }
            if cursor < len {
                gaps.push((cursor, len));
            }
            if gaps.is_empty() {
                return false; // footprints cover the whole arena
            }
            let start = offset % len;
            let addr = gaps
                .iter()
                .find(|(_, hi)| *hi > start)
                .map(|(lo, _)| start.max(*lo))
                .unwrap_or(gaps[0].0); // wrap around
                                       // SAFETY: `addr < len` (inside the arena), claim held.
            unsafe {
                let p = self.prog.base().add(addr as usize);
                *p ^= xor;
            }
            true
        }
    }

    unsafe fn scrub_digest(&self) -> Option<u64> {
        let fps = self.write_footprints(0..self.spec.iters)?;
        let merged = merge_intervals(&fps);
        let len = self.prog.workload.space.extent();
        let mut outside = Vec::new();
        let mut cursor = 0u64;
        let digest_gap = |lo: u64, hi: u64, outside: &mut Vec<u8>| {
            // SAFETY (of the enclosed read): `[lo, hi)` is inside the
            // arena and outside every write footprint; the quiescence
            // contract rules out concurrent writers anyway.
            let bytes = unsafe {
                std::slice::from_raw_parts(self.prog.base().add(lo as usize), (hi - lo) as usize)
            };
            outside.extend_from_slice(bytes);
        };
        for (lo, hi) in merged {
            if cursor < lo {
                digest_gap(cursor, lo, &mut outside);
            }
            cursor = cursor.max(hi);
        }
        if cursor < len {
            digest_gap(cursor, len, &mut outside);
        }
        Some(fnv64(&outside))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan, FaultyKernel};
    use crate::runner::{
        run_cascaded, try_run_cascaded, FaultEvent, RtPolicy, RunnerConfig, Tolerance,
    };
    use cascade_trace::{AddressSpace, IndexStore, StreamRef};
    use std::time::Duration;

    fn scatter_workload(n: u64) -> (Workload, Arena) {
        let mut space = AddressSpace::new();
        let rho = space.alloc("rho", 8, n / 4);
        let pq = space.alloc("pq", 8, n);
        let ij = space.alloc("ij", 4, n);
        let mut index = IndexStore::new();
        // Colliding scatter: many iterations hit the same element, so the
        // result depends on iteration order (RMW chain).
        index.set(ij, (0..n).map(|i| ((i * 7919) % (n / 4)) as u32).collect());
        let spec = LoopSpec {
            name: "scatter".into(),
            iters: n,
            refs: vec![
                StreamRef {
                    name: "pq(i)",
                    array: pq,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "rho(ij(i))",
                    array: rho,
                    pattern: Pattern::Indirect {
                        index: ij,
                        ibase: 0,
                        istride: 1,
                    },
                    mode: Mode::Modify,
                    bytes: 8,
                    hoistable: false,
                },
            ],
            compute: 2.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index,
            loops: vec![spec],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..n {
            arena.set_f64(&w.space, pq, i, (i % 13) as f64 * 0.125 + 0.25);
        }
        arena.install_indices(&w.space, &w.index);
        (w, arena)
    }

    fn run_once(policy: RtPolicy, threads: usize, n: u64) -> u64 {
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        run_cascaded(
            &k,
            &RunnerConfig {
                nthreads: threads,
                iters_per_chunk: 257,
                policy,
                poll_batch: 16,
            },
        );
        prog.checksum()
    }

    fn sequential_checksum(n: u64) -> u64 {
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        // SAFETY: single-threaded.
        unsafe { k.execute(0..k.iters()) };
        prog.checksum()
    }

    #[test]
    fn cascaded_scatter_is_bitwise_sequential() {
        let n = 8_192;
        let expected = sequential_checksum(n);
        for policy in [RtPolicy::None, RtPolicy::Prefetch, RtPolicy::Restructure] {
            for threads in [1, 2, 4] {
                let got = run_once(policy, threads, n);
                assert_eq!(got, expected, "policy {policy:?} threads {threads}");
            }
        }
    }

    #[test]
    fn packed_execution_matches_unpacked_exactly() {
        let (w, arena) = scatter_workload(4096);
        let mut p1 = SpecProgram::new(w.clone(), arena.clone()).unwrap();
        let mut p2 = SpecProgram::new(w, arena).unwrap();
        {
            let k = p1.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
        }
        {
            let k = p2.kernel(0);
            let mut buf = Vec::new();
            for i in 0..k.iters() {
                assert!(k.pack_iter(i, &mut buf));
            }
            // SAFETY: single-threaded.
            unsafe { k.execute_packed(0..k.iters(), &buf) };
        }
        assert_eq!(p1.checksum(), p2.checksum());
    }

    #[test]
    #[should_panic(expected = "packed buffer underrun")]
    fn truncated_packed_buffer_reports_underrun_with_context() {
        let (w, arena) = scatter_workload(64);
        let prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        let mut buf = Vec::new();
        for i in 0..4 {
            assert!(k.pack_iter(i, &mut buf));
        }
        buf.truncate(buf.len() - 3); // corrupt: last operand is short
                                     // SAFETY: single-threaded.
        unsafe { k.execute_packed(0..4, &buf) };
    }

    #[test]
    fn prefetch_iter_is_pure() {
        let (w, arena) = scatter_workload(1024);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let before = prog.checksum();
        let k = prog.kernel(0);
        for i in 0..k.iters() {
            k.prefetch_iter(i);
        }
        assert_eq!(prog.checksum(), before);
    }

    /// The old validator banned *any* read of a written array; the
    /// analyzer proves this disjoint-halves loop is packable and admits
    /// it — and the run stays bitwise-sequential on real threads.
    #[test]
    fn disjoint_read_of_written_array_is_admitted_and_correct() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 8, 64);
        let spec = LoopSpec {
            name: "inplace".into(),
            iters: 32,
            refs: vec![
                StreamRef {
                    name: "a(i)",
                    array: a,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "a(i+32)",
                    array: a,
                    pattern: Pattern::Affine {
                        base: 32,
                        stride: 1,
                    },
                    mode: Mode::Write,
                    bytes: 8,
                    hoistable: false,
                },
            ],
            compute: 1.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..64 {
            arena.set_f64(&w.space, a, i, i as f64 * 0.5 + 1.0);
        }
        let expected = {
            let mut prog = SpecProgram::new(w.clone(), arena.clone()).unwrap();
            let k = prog.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
            prog.checksum()
        };
        let mut prog = SpecProgram::new(w, arena).unwrap();
        assert_eq!(
            prog.loop_report(0).find_ref("a(i)").unwrap().verdict,
            cascade_analyze::Verdict::Packable
        );
        assert_eq!(prog.kernel(0).helper_horizon(), None);
        let k = prog.kernel(0);
        run_cascaded(
            &k,
            &RunnerConfig {
                nthreads: 2,
                iters_per_chunk: 4,
                policy: RtPolicy::Restructure,
                poll_batch: 4,
            },
        );
        assert_eq!(prog.checksum(), expected);
    }

    /// A first-order recurrence (read y(i-1), write y(i)) was formerly
    /// unrunnable on real threads; the analyzer classifies the carried
    /// read HorizonSafe{lag: 1} and the horizon-gated runner keeps the
    /// cascaded run bitwise-sequential under every policy.
    #[test]
    fn recurrence_is_horizon_safe_and_bitwise_on_threads() {
        let mut space = AddressSpace::new();
        let n = 4096u64;
        let x = space.alloc("x", 8, n);
        let y = space.alloc("y", 8, n + 1);
        let spec = LoopSpec {
            name: "recurrence".into(),
            iters: n,
            refs: vec![
                StreamRef {
                    name: "x(i)",
                    array: x,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "y(i-1)",
                    array: y,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "y(i)",
                    array: y,
                    pattern: Pattern::Affine { base: 1, stride: 1 },
                    mode: Mode::Write,
                    bytes: 8,
                    hoistable: false,
                },
            ],
            compute: 2.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let mut arena = Arena::new(&w.space);
        for i in 0..n {
            arena.set_f64(&w.space, x, i, (i % 17) as f64 * 0.25 - 1.0);
        }
        arena.set_f64(&w.space, y, 0, 0.75);
        let expected = {
            let mut prog = SpecProgram::new(w.clone(), arena.clone()).unwrap();
            let k = prog.kernel(0);
            // SAFETY: single-threaded.
            unsafe { k.execute(0..k.iters()) };
            prog.checksum()
        };
        for policy in [RtPolicy::None, RtPolicy::Prefetch, RtPolicy::Restructure] {
            for threads in [2, 4] {
                let mut prog = SpecProgram::new(w.clone(), arena.clone()).unwrap();
                assert_eq!(prog.kernel(0).helper_horizon(), Some(1));
                let k = prog.kernel(0);
                run_cascaded(
                    &k,
                    &RunnerConfig {
                        nthreads: threads,
                        iters_per_chunk: 129,
                        policy,
                        poll_batch: 8,
                    },
                );
                assert_eq!(
                    prog.checksum(),
                    expected,
                    "policy {policy:?} threads {threads}"
                );
            }
        }
    }

    #[test]
    fn mixed_widths_are_rejected() {
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 8, 64);
        let b = space.alloc("b", 4, 64);
        let spec = LoopSpec {
            name: "mixed".into(),
            iters: 32,
            refs: vec![
                StreamRef {
                    name: "a(i)",
                    array: a,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Read,
                    bytes: 8,
                    hoistable: false,
                },
                StreamRef {
                    name: "b(i)",
                    array: b,
                    pattern: Pattern::Affine { base: 0, stride: 1 },
                    mode: Mode::Write,
                    bytes: 4,
                    hoistable: false,
                },
            ],
            compute: 1.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let arena = Arena::new(&w.space);
        let err = SpecProgram::new(w, arena).unwrap_err();
        assert!(err.has_code(cascade_trace::DiagCode::MixedWidth), "{err}");
        assert!(format!("{err}").contains("uniform operand width"), "{err}");
    }

    #[test]
    fn arena_mismatch_is_a_typed_error() {
        let (w, _) = scatter_workload(64);
        let (_, small_arena) = scatter_workload(32);
        let err = SpecProgram::new(w, small_arena).unwrap_err();
        assert!(
            err.has_code(cascade_trace::DiagCode::ArenaMismatch),
            "{err}"
        );
    }

    #[test]
    fn past_the_end_stream_is_rejected() {
        // The interpreter only debug-asserts addresses, so a stream whose
        // elements run past its array would corrupt neighboring arrays in
        // release builds — the analyzer must reject it up front (AN008).
        let mut space = AddressSpace::new();
        let a = space.alloc("a", 8, 48);
        let spec = LoopSpec {
            name: "overshoot".into(),
            iters: 64,
            refs: vec![StreamRef {
                name: "a(i)",
                array: a,
                pattern: Pattern::Affine { base: 0, stride: 1 },
                mode: Mode::Write,
                bytes: 8,
                hoistable: false,
            }],
            compute: 1.0,
            hoistable_compute: 0.0,
            hoist_result_bytes: 0,
        };
        let w = Workload {
            space,
            index: IndexStore::new(),
            loops: vec![spec],
        };
        let arena = Arena::new(&w.space);
        let err = SpecProgram::new(w, arena).unwrap_err();
        assert!(err.has_code(cascade_trace::DiagCode::OutOfBounds), "{err}");
    }

    #[test]
    fn journal_rollback_restores_an_interrupted_chunk_bitwise() {
        // Capture the undo journal for a chunk, run only a *prefix* of it
        // (a mid-mutation interruption), then roll back: the whole
        // program state must return to its exact pre-chunk bytes.
        let (w, arena) = scatter_workload(2_048);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let pristine = prog.checksum();
        let range = 512u64..1024;
        let mut jbuf = Vec::new();
        {
            let k = prog.kernel(0);
            // SAFETY: single-threaded test, trivially exclusive.
            assert!(unsafe { k.journal_capture(range.clone(), &mut jbuf) });
            assert!(!jbuf.is_empty());
            // SAFETY: as above.
            unsafe { k.execute(range.start..range.start + 100) };
        }
        assert_ne!(prog.checksum(), pristine, "the prefix must mutate state");
        {
            let k = prog.kernel(0);
            // SAFETY: single-threaded; `jbuf` is the unmodified capture
            // over the same range.
            unsafe { k.journal_rollback(range.clone(), &jbuf) };
        }
        assert_eq!(prog.checksum(), pristine, "rollback must restore bitwise");
    }

    #[test]
    fn mid_mutation_panic_rolls_back_and_retries_in_cascade() {
        // The acceptance path for journaled recovery: a kernel with *no*
        // fail-stop promise panics after partial writes; the worker rolls
        // the chunk's journal back, hands it to a survivor, and the run
        // finishes cascaded and bitwise-equal to sequential.
        let n = 8_192;
        let expected = sequential_checksum(n);
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let stats = {
            let plan =
                FaultPlan::new(257).inject(7, FaultKind::PanicMidMutation { after_iters: 100 });
            let k = FaultyKernel::new(prog.kernel(0), plan);
            try_run_cascaded(
                &k,
                &RunnerConfig {
                    nthreads: 3,
                    iters_per_chunk: 257,
                    policy: RtPolicy::None,
                    poll_batch: 4,
                },
                &Tolerance::retrying(Duration::from_millis(50)),
            )
            .expect("journaled retry must recover in-cascade")
        };
        assert!(
            !stats.degraded,
            "retry must stay cascaded, not salvage: {:?}",
            stats.faults
        );
        assert_eq!(stats.retries, 1);
        let rolled = stats
            .faults
            .iter()
            .position(|f| matches!(f, FaultEvent::ChunkRolledBack { chunk: 7, .. }))
            .unwrap_or_else(|| panic!("missing rollback event: {:?}", stats.faults));
        let retried = stats
            .faults
            .iter()
            .position(|f| matches!(f, FaultEvent::ChunkRetried { chunk: 7, .. }))
            .unwrap_or_else(|| panic!("missing retry event: {:?}", stats.faults));
        assert!(
            rolled < retried,
            "rollback must happen-before the re-execution: {:?}",
            stats.faults
        );
        assert_eq!(stats.threads.iter().map(|t| t.rollbacks).sum::<u64>(), 1);
        assert!(stats.threads.iter().map(|t| t.journal_bytes).sum::<u64>() > 0);
        assert_eq!(prog.checksum(), expected, "retried run must be bitwise");
    }

    #[test]
    fn replay_reproduces_committed_bytes_without_touching_shared_memory() {
        // Execute a chunk, then replay it from its pre-image: the replay
        // must reproduce the committed footprint bytes exactly (this is
        // the verification read path) while leaving the arena untouched.
        let (w, arena) = scatter_workload(2_048);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let range = 512u64..1024;
        let (pre, committed, replayed) = {
            let k = prog.kernel(0);
            let mut pre = Vec::new();
            // SAFETY: single-threaded test, trivially exclusive.
            unsafe {
                assert!(k.journal_capture(range.clone(), &mut pre));
                k.execute(range.clone());
            }
            let mut committed = Vec::new();
            // SAFETY: as above.
            unsafe { assert!(k.journal_capture(range.clone(), &mut committed)) };
            assert_ne!(pre, committed, "the chunk must mutate its footprint");
            // SAFETY: range committed, single-threaded.
            let replayed = unsafe { k.replay_footprint(range.clone(), &pre) }
                .expect("SpecKernel footprints are resolvable");
            (pre, committed, replayed)
        };
        assert_eq!(replayed, committed, "clean replay matches the commit");
        let after = prog.checksum();
        {
            let k = prog.kernel(0);
            // SAFETY: as above.
            let again = unsafe { k.replay_footprint(range.clone(), &pre) }.unwrap();
            assert_eq!(again, replayed, "replay is deterministic");
        }
        assert_eq!(prog.checksum(), after, "replay never writes shared memory");
        // Now corrupt one committed byte: a fresh replay disagrees with
        // what the arena holds — exactly the mismatch the verifier hunts.
        {
            let k = prog.kernel(0);
            // SAFETY: single-threaded.
            unsafe {
                assert!(k.corrupt_byte(range.clone(), 7, 0x40, true));
            }
            let mut now = Vec::new();
            // SAFETY: as above.
            unsafe { assert!(k.journal_capture(range.clone(), &mut now)) };
            assert_ne!(now, replayed, "the flip is visible in the footprint");
        }
    }

    #[test]
    fn out_of_footprint_flip_is_invisible_to_the_chunk_but_moves_the_scrub() {
        let (w, arena) = scatter_workload(1_024);
        let prog = SpecProgram::new(w, arena).unwrap();
        let k = prog.kernel(0);
        // SAFETY: single-threaded throughout.
        unsafe {
            let scrub0 = k.scrub_digest().expect("resolvable footprints");
            let mut fp0 = Vec::new();
            assert!(k.journal_capture(0..k.iters(), &mut fp0));
            assert!(k.corrupt_byte(0..256, 12345, 0x01, false));
            let mut fp1 = Vec::new();
            assert!(k.journal_capture(0..k.iters(), &mut fp1));
            assert_eq!(fp0, fp1, "the flip landed outside every write footprint");
            let scrub1 = k.scrub_digest().unwrap();
            assert_ne!(scrub0, scrub1, "the scrubber sees it");
            // Flip it back: the scrub digest returns to its old value.
            assert!(k.corrupt_byte(0..256, 12345, 0x01, false));
            assert_eq!(k.scrub_digest().unwrap(), scrub0);
        }
    }

    #[test]
    fn mid_mutation_panic_salvages_bitwise_after_rollback() {
        // Salvage-only tolerance: the journaled rollback makes the faulted
        // chunk pristine, so the sequential completion pass re-runs it
        // soundly — `salvage_unsound` no longer fires for journalable
        // kernels.
        let n = 8_192;
        let expected = sequential_checksum(n);
        let (w, arena) = scatter_workload(n);
        let mut prog = SpecProgram::new(w, arena).unwrap();
        let stats = {
            let plan =
                FaultPlan::new(257).inject(7, FaultKind::PanicMidMutation { after_iters: 100 });
            let k = FaultyKernel::new(prog.kernel(0), plan);
            try_run_cascaded(
                &k,
                &RunnerConfig {
                    nthreads: 3,
                    iters_per_chunk: 257,
                    policy: RtPolicy::None,
                    poll_batch: 4,
                },
                &Tolerance::resilient(Duration::from_millis(50)),
            )
            .expect("journaled salvage must recover")
        };
        assert!(stats.degraded);
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::ChunkRolledBack { chunk: 7, .. })),
            "missing rollback event: {:?}",
            stats.faults
        );
        assert!(
            stats
                .faults
                .iter()
                .any(|f| matches!(f, FaultEvent::Salvaged { from_chunk: 7, .. })),
            "missing salvage event: {:?}",
            stats.faults
        );
        assert_eq!(prog.checksum(), expected, "salvaged run must be bitwise");
    }
}
