//! The benchmark's workloads, their set-up, and one checked timed
//! operation per execution mode.

use std::mem::swap;
use std::time::{Duration, Instant};

use cascade_analyze::plan::{plan_loop, TransformPlan};
use cascade_rt::{
    fission_specs, run_sequential, try_run_governed, try_run_governed_sequence, try_run_planned,
    Observe, PlannedStats, RtPolicy, RunConfig, RunStats, RunnerConfig, SpecProgram, Tolerance,
    VerifyPolicy,
};
use cascade_synth::{Synth, Variant};
use cascade_trace::{Arena, LoopSpec, Mode as RefMode, Pattern, StreamRef, Workload};

use crate::span::Tracer;

/// Worker threads of every cascaded and planned run.
pub const THREADS: usize = 2;

/// The paper's chunk size, converted to iterations per program.
pub const CHUNK_BYTES: u64 = 64 * 1024;

/// Helper iterations between token polls (the runtime's default).
const POLL_BATCH: u64 = 64;

/// Watchdog window of the verified mode: long enough that no healthy
/// chunk on a loaded host trips it.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Workload names, as passed to `--workload`.
pub const WORKLOADS: [&str; 3] = ["synth-dense", "wave5", "plan"];

/// An execution mode: one end-to-end metric each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_sequential` over every loop.
    Seq,
    /// Cascaded, spin-only helpers.
    None,
    /// Cascaded, prefetching helpers.
    Prefetch,
    /// Cascaded, packing helpers.
    Restructure,
    /// Prefetch plus journaling retries and replay verification.
    Verified,
    /// Planned: fission, DOALL/DOACROSS/sequential stages.
    Plan,
}

impl Mode {
    /// Every mode, in rotation order.
    pub const ALL: [Mode; 6] = [
        Mode::Seq,
        Mode::None,
        Mode::Prefetch,
        Mode::Restructure,
        Mode::Verified,
        Mode::Plan,
    ];

    /// Metric prefix, e.g. `cascade.none`.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Seq => "seq",
            Mode::None => "cascade.none",
            Mode::Prefetch => "cascade.prefetch",
            Mode::Restructure => "cascade.restructure",
            Mode::Verified => "cascade.verified",
            Mode::Plan => "plan",
        }
    }

    /// Position in [`Mode::ALL`].
    pub fn index(self) -> usize {
        Mode::ALL
            .iter()
            .position(|m| *m == self)
            .expect("every mode is in ALL")
    }

    /// Span name of a traced operation of this mode.
    pub fn span(self) -> &'static str {
        match self {
            Mode::Seq => "run.seq",
            Mode::None => "run.cascade.none",
            Mode::Prefetch => "run.cascade.prefetch",
            Mode::Restructure => "run.cascade.restructure",
            Mode::Verified => "run.cascade.verified",
            Mode::Plan => "run.plan",
        }
    }

    fn policy(self) -> RtPolicy {
        match self {
            Mode::None => RtPolicy::None,
            Mode::Prefetch | Mode::Verified => RtPolicy::Prefetch,
            Mode::Seq | Mode::Restructure | Mode::Plan => RtPolicy::Restructure,
        }
    }

    /// The run configuration of a cascaded or planned mode.
    pub fn config(self, iters_per_chunk: u64, observe: Observe) -> RunConfig {
        let verified = self == Mode::Verified;
        RunConfig {
            runner: RunnerConfig {
                nthreads: THREADS,
                iters_per_chunk,
                policy: self.policy(),
                poll_batch: POLL_BATCH,
            },
            tolerance: if verified {
                Tolerance::retrying(WATCHDOG)
            } else {
                Tolerance::default()
            },
            verify: if verified {
                VerifyPolicy::EveryChunk
            } else {
                VerifyPolicy::Off
            },
            observe,
            ..RunConfig::default()
        }
    }
}

/// Plan mode's form of one loop: its plan, and a program over its
/// fissioned sub-loops. The program is built on a zeroed arena; the live
/// arena is swapped in for each run.
pub struct Fissioned {
    /// The transformation plan.
    pub plan: TransformPlan,
    /// Program over `fission_specs(loop, plan)`.
    pub prog: SpecProgram,
}

/// A set-up workload: one program over all of its loops.
pub struct Bench {
    /// Workload name.
    pub name: &'static str,
    /// Every loop of the workload; owns the live arena.
    pub prog: SpecProgram,
    /// The generated input arena, restored before every operation.
    pub input: Arena,
    /// [`digest`] of the arena after sequential execution: what every
    /// mode must end with.
    pub reference: u64,
    /// Plan-mode form of each loop.
    pub planned: Vec<Fissioned>,
    /// `CHUNK_BYTES` in iterations, from the program's mean bytes per
    /// iteration.
    pub chunk_iters: u64,
}

/// What one operation produced, for the traced run.
#[derive(Default)]
pub struct OpOut {
    /// Timed wall time (restores and checks excluded).
    pub wall: Duration,
    /// Cascaded runs' statistics (one per loop).
    pub runs: Vec<RunStats>,
    /// Planned runs' statistics (one per fissioned loop).
    pub planned: Vec<PlannedStats>,
}

/// Position-sensitive 64-bit digest of an arena's bytes. Each 8-byte word
/// goes through a bijective mixing step, so two arenas that differ in a
/// single word always differ in digest; unlike `Arena::checksum`, a sum
/// of words, it also tells moved or swapped words apart.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    h ^ cascade_core::fnv64(words.remainder())
}

/// Generate a workload's program from `seed`: its loops and input arena.
fn generate(name: &str, seed: u64) -> (Workload, Arena) {
    match name {
        "synth-dense" => {
            let s = Synth::build(1 << 22, Variant::Dense, seed);
            (s.workload, s.arena)
        }
        "wave5" => {
            let p = cascade_wave5::Parmvr::build(cascade_wave5::ParmvrParams { scale: 1.0, seed });
            (p.workload, p.arena)
        }
        "plan" => plan_workload(1 << 20, seed),
        other => panic!("unknown workload {other}"),
    }
}

/// Two loops of `n` iterations over disjoint arrays: a lag-2 recurrence
/// `r(i+2) = f(r(i))` with an independent consumer `x(i)`, which plans to
/// `[doacross(2), parallel]`, then `fused_stream`, which plans to
/// `[sequential, parallel]`.
pub fn plan_workload(n: u64, seed: u64) -> (Workload, Arena) {
    let fused = cascade_kernels::fused_stream(n, seed);
    let mut w = fused.workload;
    let r = w.space.alloc("r", 8, n + 2);
    let x = w.space.alloc("x", 8, n);
    let sref = |name: &'static str, array, base, mode| StreamRef {
        name,
        array,
        pattern: Pattern::Affine { base, stride: 1 },
        mode,
        bytes: 8,
        hoistable: false,
    };
    let recurrence = LoopSpec {
        name: "lag-2 recurrence".into(),
        iters: n,
        refs: vec![
            sref("r(i)", r, 0, RefMode::Read),
            sref("r(i+2)", r, 2, RefMode::Write),
            sref("x(i)", x, 0, RefMode::Write),
        ],
        compute: 4.0,
        hoistable_compute: 0.0,
        hoist_result_bytes: 0,
    };
    w.loops.insert(0, recurrence);
    // Arrays are laid out in allocation order, so fused_stream's arena is
    // a prefix of the extended one.
    let mut bytes = fused.arena.bytes().to_vec();
    bytes.resize(w.space.extent() as usize, 0);
    let mut arena = Arena::from_bytes(bytes);
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    for i in 0..n + 2 {
        state = splitmix(state);
        arena.set_f64(&w.space, r, i, (state >> 11) as f64 / (1u64 << 53) as f64);
    }
    (w, arena)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generation, analysis (`SpecProgram::new`) and planning of `name`, with
/// spans `setup.build`, `analysis.spec_program` and `analysis.plan`. The
/// sequential reference is left unset; see [`Bench::compute_reference`].
pub fn setup(name: &'static str, seed: u64, tr: &mut Tracer) -> Result<Bench, String> {
    let (workload, input) = tr.span("setup.build", |_| generate(name, seed));
    let zeroed = Arena::new(&workload.space);
    let prog = tr.span("analysis.spec_program", |_| {
        SpecProgram::new(workload, zeroed)
    });
    let prog = prog.map_err(|e| format!("{name}: analysis rejected the workload: {e}"))?;
    let planned = tr.span("analysis.plan", |_| plan_all(prog.workload()))?;
    let mut bench = Bench {
        name,
        prog,
        input,
        reference: 0,
        planned,
        chunk_iters: 0,
    };
    bench.chunk_iters = (CHUNK_BYTES * bench.iters() / bench.bytes()).max(1);
    Ok(bench)
}

/// Plan and fission every loop of `w`. A loop without a usable plan is a
/// set-up error: plan mode would have nothing to run.
fn plan_all(w: &Workload) -> Result<Vec<Fissioned>, String> {
    w.loops
        .iter()
        .map(|spec| {
            let plan = plan_loop(w, spec);
            if plan.opaque || plan.partition.is_empty() {
                return Err(format!("{}: no usable plan", spec.name));
            }
            let fw = Workload {
                space: w.space.clone(),
                index: w.index.clone(),
                loops: fission_specs(spec, &plan),
            };
            let zeroed = Arena::new(&fw.space);
            let prog = SpecProgram::new(fw, zeroed)
                .map_err(|e| format!("{}: fissioned loop rejected: {e}", spec.name))?;
            Ok(Fissioned { plan, prog })
        })
        .collect()
}

impl Bench {
    /// Loop iterations of every loop, summed: the denominator of
    /// `ns_per_iter`.
    pub fn iters(&self) -> u64 {
        self.prog.workload().loops.iter().map(|l| l.iters).sum()
    }

    /// Bytes every loop references, summed over iterations.
    pub fn bytes(&self) -> u64 {
        let loops = &self.prog.workload().loops;
        loops.iter().map(|l| l.iters * l.bytes_per_iter()).sum()
    }

    /// Put the input arena back (untimed: the copy is not the workload).
    /// The live copy is freed first, so peak memory does not depend on
    /// when the allocator returns it.
    pub fn restore(&mut self) {
        let live = self.prog.arena_mut();
        *live = Arena::from_bytes(Vec::new());
        *live = self.input.clone();
    }

    /// Whether the live arena's digest equals the sequential reference's.
    pub fn matches_reference(&mut self) -> bool {
        digest(self.prog.arena_mut().bytes()) == self.reference
    }

    /// Run every loop sequentially once and keep the result's digest as
    /// the reference all modes are checked against.
    pub fn compute_reference(&mut self) {
        self.restore();
        for l in 0..self.prog.num_loops() {
            run_sequential(&self.prog.kernel(l));
        }
        self.reference = digest(self.prog.arena_mut().bytes());
    }

    /// One checked operation of `mode`. It starts from a restored input
    /// arena (untimed) and must end on the sequential reference; an
    /// error, a degraded run or a retry is a failure too.
    pub fn run(&mut self, mode: Mode, observe: &Observe) -> Result<OpOut, String> {
        self.restore();
        let out = self.run_timed(mode, observe)?;
        if !self.matches_reference() {
            return Err(format!(
                "{}: the arena differs from the sequential reference",
                mode.name()
            ));
        }
        Ok(out)
    }

    /// The timed part of one operation.
    fn run_timed(&mut self, mode: Mode, observe: &Observe) -> Result<OpOut, String> {
        let cfg = mode.config(self.chunk_iters, observe.clone());
        let loops = self.prog.num_loops();
        let err = |e: cascade_rt::RunError| format!("{}: {e}", mode.name());
        let mut out = OpOut::default();
        match mode {
            Mode::Seq => {
                let t0 = Instant::now();
                for l in 0..loops {
                    run_sequential(&self.prog.kernel(l));
                }
                out.wall = t0.elapsed();
            }
            Mode::None | Mode::Prefetch | Mode::Restructure | Mode::Verified => {
                let kernels: Vec<_> = (0..loops).map(|l| self.prog.kernel(l)).collect();
                let t0 = Instant::now();
                let stats = if loops == 1 {
                    try_run_governed(&kernels[0], &cfg).map(|s| vec![s])
                } else {
                    try_run_governed_sequence(&kernels, &cfg)
                };
                out.wall = t0.elapsed();
                let stats = stats.map_err(err)?;
                stats.iter().try_for_each(healthy)?;
                out.runs = stats;
            }
            Mode::Plan => {
                for (l, f) in self.planned.iter_mut().enumerate() {
                    swap(self.prog.arena_mut(), f.prog.arena_mut());
                    let kernels: Vec<_> = (0..f.plan.partition.len())
                        .map(|g| f.prog.kernel(g))
                        .collect();
                    let t0 = Instant::now();
                    let stats = try_run_planned(&kernels, &f.plan, &cfg);
                    out.wall += t0.elapsed();
                    drop(kernels);
                    swap(self.prog.arena_mut(), f.prog.arena_mut());
                    let stats = stats.map_err(err)?;
                    if stats.degraded || !stats.faults.is_empty() {
                        return Err(format!("plan: loop {l} degraded"));
                    }
                    out.planned.push(stats);
                }
            }
        }
        Ok(out)
    }
}

fn healthy(s: &RunStats) -> Result<(), String> {
    if s.degraded || s.retries > 0 || !s.faults.is_empty() {
        return Err(format!(
            "run was not clean: degraded {}, retries {}, {} fault events",
            s.degraded,
            s.retries,
            s.faults.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::digest;

    #[test]
    fn digest_sees_changed_and_swapped_words() {
        let words: Vec<u8> = (0u64..64).flat_map(|w| w.to_le_bytes()).collect();
        let d = digest(&words);
        let mut flipped = words.clone();
        flipped[100] ^= 1;
        assert_ne!(digest(&flipped), d);
        let mut swapped = words.clone();
        swapped[..16].rotate_left(8);
        assert_ne!(digest(&swapped), d);
        assert_ne!(digest(&words[..words.len() - 1]), d);
        assert_eq!(digest(&words.clone()), d);
    }
}
