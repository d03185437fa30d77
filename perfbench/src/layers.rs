//! The traced run's per-layer measurements. Each one times public calls
//! into a single layer from outside, inside a span named after the call.

use std::ops::Range;
use std::time::Instant;

use cascade_analyze::plan::{plan_loop, Schedule};
use cascade_core::{run_cascaded as sim_cascaded, run_sequential as sim_sequential};
use cascade_core::{CascadeConfig, HelperPolicy};
use cascade_rt::{
    fission_specs, run_sequential, try_run_governed, try_run_planned, Observe, PlannedStats,
    RealKernel, RunStats, SpecProgram, Token,
};
use cascade_trace::Workload;

use crate::report::Report;
use crate::span::Tracer;
use crate::stats::{median_of, percentile, Tally};
use crate::workload::{digest, plan_workload, setup, Bench, Mode, CHUNK_BYTES, THREADS};

fn chunks(iters: u64, per: u64) -> impl Iterator<Item = Range<u64>> {
    (0..iters.div_ceil(per)).map(move |c| c * per..((c + 1) * per).min(iters))
}

/// End of the part of chunk `r` a helper may touch once every earlier
/// chunk has executed: the kernel's helper horizon, as the runner
/// applies it.
fn horizon(k: &impl RealKernel, r: &Range<u64>) -> u64 {
    k.helper_horizon()
        .map_or(r.end, |lag| r.start.saturating_add(lag).min(r.end))
}

/// Count one layer check, and say which one when it fails.
fn check(tally: &mut Tally, ok: bool, what: &str) -> bool {
    if !ok {
        eprintln!("perfbench: check failed: {what}");
    }
    tally.record(ok)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `cascade-rt::interp` on one thread, called in chunk-sized ranges in
/// loop order: plain execution; pack then packed execution; prefetch;
/// journal capture, execution and replay verification with an arena
/// scrub around each loop. Every pass must end on the sequential
/// reference, and every replay must reproduce the chunk's writes.
pub fn interp(bench: &mut Bench, tr: &mut Tracer, tally: &mut Tally, rep: &mut Report) {
    let iters = bench.iters() as f64;
    let bytes = bench.bytes();
    let per = bench.chunk_iters;
    let (mut packed_bytes, mut journal_bytes, mut journal_chunks) = (0u64, 0u64, 0u64);

    bench.restore();
    for l in 0..bench.prog.num_loops() {
        let k = bench.prog.kernel(l);
        for r in chunks(k.iters(), per) {
            // SAFETY: one thread runs the chunks in loop order, so each
            // call is exclusive and sees every earlier chunk's writes.
            tr.span("interp.execute", |_| unsafe { k.execute(r) });
        }
    }
    check(tally, bench.matches_reference(), "interp.execute pass");

    bench.restore();
    let mut buf = Vec::new();
    for l in 0..bench.prog.num_loops() {
        let k = bench.prog.kernel(l);
        for r in chunks(k.iters(), per) {
            buf.clear();
            let end = horizon(&k, &r);
            let packed = tr.span("helper.pack", |_| {
                (r.start..end).all(|i| k.pack_iter(i, &mut buf))
            });
            packed_bytes += buf.len() as u64;
            // SAFETY: as for plain execution; `buf` holds exactly the
            // packed operands of `r.start..end` when `packed`. As in the
            // runner, iterations past the horizon run unpacked.
            tr.span("interp.execute_packed", |_| unsafe {
                if packed && end > r.start {
                    k.execute_packed(r.start..end, &buf);
                    k.execute(end..r.end);
                } else {
                    k.execute(r)
                }
            });
        }
    }
    check(
        tally,
        bench.matches_reference(),
        "pack and execute_packed pass",
    );

    bench.restore();
    for l in 0..bench.prog.num_loops() {
        let k = bench.prog.kernel(l);
        for r in chunks(k.iters(), per) {
            let end = horizon(&k, &r);
            tr.span("helper.prefetch", |_| {
                (r.start..end).for_each(|i| k.prefetch_iter(i))
            });
            // SAFETY: as for plain execution.
            tr.span("interp.execute_prefetched", |_| unsafe { k.execute(r) });
        }
    }
    check(tally, bench.matches_reference(), "prefetch pass");

    bench.restore();
    let (mut pre, mut post) = (Vec::new(), Vec::new());
    let mut verified = true;
    for l in 0..bench.prog.num_loops() {
        let k = bench.prog.kernel(l);
        // SAFETY: nothing executes while the arena is scrubbed.
        let before = tr.span("verify.scrub", |_| unsafe { k.scrub_digest() });
        for r in chunks(k.iters(), per) {
            // SAFETY (all four calls): this thread alone captures,
            // executes and replays `r`, in that order, after every earlier
            // chunk; the replay's pre-image is the capture taken before
            // `r` ran.
            let captured = tr.span("journal.capture", |_| unsafe {
                k.journal_capture(r.clone(), &mut pre)
            });
            unsafe { k.execute(r.clone()) };
            let replay = tr.span("verify.replay", |_| unsafe {
                k.replay_footprint(r.clone(), &pre)
            });
            let recaptured = unsafe { k.journal_capture(r, &mut post) };
            verified &= captured && recaptured && replay.as_deref() == Some(&post[..]);
            journal_bytes += pre.len() as u64;
            journal_chunks += 1;
        }
        // SAFETY: as above.
        let after = tr.span("verify.scrub", |_| unsafe { k.scrub_digest() });
        verified &= before.is_some() && before == after;
    }
    check(tally, verified, "journal capture, replay and scrub agree");
    check(tally, bench.matches_reference(), "journal and replay pass");
    let per_iter = |name: &str| tr.total_self_ns(name) / iters;
    rep.put(
        "exec.plain_ns_per_iter",
        per_iter("interp.execute"),
        "ns/iter",
    );
    rep.put(
        "exec.packed_ns_per_iter",
        per_iter("interp.execute_packed"),
        "ns/iter",
    );
    rep.put(
        "helper.pack_ns_per_iter",
        per_iter("helper.pack"),
        "ns/iter",
    );
    rep.put(
        "helper.prefetch_ns_per_iter",
        per_iter("helper.prefetch"),
        "ns/iter",
    );
    rep.put("exec.bytes_per_iter", bytes as f64 / iters, "B/iter");
    rep.put(
        "helper.packed_bytes_per_iter",
        packed_bytes as f64 / iters,
        "B/iter",
    );
    rep.put(
        "journal.capture_ns_per_byte",
        ratio(tr.total_self_ns("journal.capture"), journal_bytes as f64),
        "ns/B",
    );
    rep.put(
        "journal.bytes_per_chunk",
        ratio(journal_bytes as f64, journal_chunks as f64),
        "B",
    );
    rep.put(
        "verify.replay_ns_per_iter",
        per_iter("verify.replay"),
        "ns/iter",
    );
    rep.put(
        "verify.scrub_ms",
        median_of(&tr.self_times_of("verify.scrub")) / 1e6,
        "ms",
    );
}

/// Round trips per `token.handoff` span.
const ROUND_TRIPS: u64 = 1000;
/// `token.handoff` spans measured.
const HANDOFF_BATCHES: u64 = 200;

/// `cascade-rt::token`: two threads pass one token back and forth through
/// `wait_for` / `release_to`, so every handoff crosses threads. Returns
/// the median one-way handoff in ns.
pub fn handoff(tr: &mut Tracer) -> f64 {
    let token = Token::new();
    std::thread::scope(|s| {
        let peer = s.spawn(|| {
            for i in 0..HANDOFF_BATCHES * ROUND_TRIPS {
                token.wait_for(2 * i + 1);
                token.release_to(2 * i + 2);
            }
        });
        for b in 0..HANDOFF_BATCHES {
            tr.span("token.handoff", |_| {
                for i in b * ROUND_TRIPS..(b + 1) * ROUND_TRIPS {
                    token.wait_for(2 * i);
                    token.release_to(2 * i + 1);
                }
            });
        }
        peer.join().expect("handoff peer thread panicked");
    });
    median_of(&tr.self_times_of("token.handoff")) / (2 * ROUND_TRIPS) as f64
}

/// `cascade-rt::sched` without contention: the plan workload's lag-2
/// recurrence, planned to `[doacross(2), parallel]` and run on one
/// thread. Returns the DOACROSS stage's ns per iteration (median of three
/// runs).
pub fn doacross_one_thread(seed: u64, tr: &mut Tracer, tally: &mut Tally) -> Result<f64, String> {
    let (mut w, input) = plan_workload(1 << 20, seed);
    w.loops.truncate(1);
    let spec = w.loops[0].clone();
    let plan = plan_loop(&w, &spec);
    let fissioned = Workload {
        space: w.space.clone(),
        index: w.index.clone(),
        loops: fission_specs(&spec, &plan),
    };
    let reference = {
        let mut seq = SpecProgram::new(w, input.clone()).map_err(|e| e.to_string())?;
        run_sequential(&seq.kernel(0));
        digest(seq.arena_mut().bytes())
    };
    let mut prog = SpecProgram::new(fissioned, input.clone()).map_err(|e| e.to_string())?;
    let mut cfg = Mode::Plan.config(CHUNK_BYTES / spec.bytes_per_iter(), Observe::default());
    cfg.runner.nthreads = 1;
    let mut per_iter = Vec::new();
    for _ in 0..3 {
        *prog.arena_mut() = input.clone();
        let kernels: Vec<_> = (0..plan.partition.len()).map(|g| prog.kernel(g)).collect();
        let stats = tr.span("sched.doacross_one_thread", |_| {
            try_run_planned(&kernels, &plan, &cfg)
        });
        drop(kernels);
        let stats = stats.map_err(|e| format!("one-thread DOACROSS run: {e}"))?;
        let same = digest(prog.arena_mut().bytes()) == reference;
        if !check(tally, same, "one-thread DOACROSS run") {
            return Err("one-thread DOACROSS run differs from sequential".into());
        }
        let stage = stats
            .sub_loops
            .iter()
            .find(|s| matches!(s.schedule, Schedule::DoAcross { .. }))
            .ok_or("the lag-2 recurrence planned no DOACROSS stage")?;
        let ns: u128 = stage.threads.iter().map(|t| t.wall_ns).sum();
        per_iter.push(ns as f64 / stage.iters as f64);
    }
    Ok(median_of(&per_iter))
}

/// `cascade-rt::runner` from the traced runs of `mode`: phase shares of
/// worker wall time, cross-thread handoff latency from the phase-event
/// ring (end of chunk `c - 1`'s execution to start of chunk `c`'s), and
/// helper usefulness.
pub fn runner(mode: Mode, runs: &[RunStats], rep: &mut Report) {
    let label = mode.name().trim_start_matches("cascade.");
    let sum = |f: &dyn Fn(&cascade_rt::ThreadStats) -> u128| -> f64 {
        runs.iter().flat_map(|r| &r.threads).map(f).sum::<u128>() as f64
    };
    let wall = sum(&|t| t.wall_ns);
    let fracs = [
        ("exec_frac", sum(&|t| t.exec_ns)),
        ("helper_frac", sum(&|t| t.helper_ns)),
        ("spin_frac", sum(&|t| t.spin_ns)),
        ("other_frac", sum(&|t| t.other_ns + t.retry_ns)),
    ];
    for (name, ns) in fracs {
        rep.put(&format!("runner.{label}.{name}"), ratio(ns, wall), "ratio");
    }
    let mut handoffs: Vec<f64> = runs.iter().flat_map(handoff_latencies).collect();
    handoffs.sort_by(f64::total_cmp);
    let (p50, p99) = if handoffs.is_empty() {
        (0.0, 0.0)
    } else {
        (percentile(&handoffs, 500), percentile(&handoffs, 990))
    };
    rep.put(&format!("runner.{label}.handoff_p50_ns"), p50, "ns");
    rep.put(&format!("runner.{label}.handoff_p99_ns"), p99, "ns");
    if matches!(mode, Mode::Prefetch | Mode::Restructure) {
        let helped: u64 = runs
            .iter()
            .flat_map(|r| &r.threads)
            .map(|t| t.helper_iters)
            .sum();
        let iters: u64 = runs.iter().map(|r| r.iters).sum();
        let jumps: u64 = runs
            .iter()
            .flat_map(|r| &r.threads)
            .map(|t| t.jump_outs)
            .sum();
        rep.put(
            &format!("runner.{label}.helper_coverage"),
            ratio(helped as f64, iters as f64),
            "ratio",
        );
        rep.put(&format!("runner.{label}.jump_outs"), jumps as f64, "count");
    }
    if mode == Mode::None {
        let chunks: u64 = runs.iter().map(|r| r.chunks).sum();
        let handoffs: u64 = runs.iter().map(|r| r.metrics().handoff.count).sum();
        rep.put("runner.chunks", chunks as f64, "count");
        rep.put("runner.handoffs", handoffs as f64, "count");
    }
}

/// Handoff latencies (ns) of one run, from its phase-event ring.
fn handoff_latencies(run: &RunStats) -> Vec<f64> {
    use cascade_core::PhaseKind;
    let n = run.chunks as usize;
    let mut start = vec![u64::MAX; n];
    let mut end = vec![0u64; n];
    for e in run.threads.iter().flat_map(|t| &t.events) {
        if let (PhaseKind::Execute, Some(c)) = (e.kind, e.chunk) {
            if let Some(c) = usize::try_from(c).ok().filter(|&c| c < n) {
                start[c] = start[c].min(e.start_ns);
                end[c] = end[c].max(e.end_ns);
            }
        }
    }
    (1..n)
        .filter(|&c| start[c] != u64::MAX && end[c - 1] != 0)
        .map(|c| start[c].saturating_sub(end[c - 1]) as f64)
        .collect()
}

/// `cascade-rt::sched` from the traced plan-mode run: DOACROSS gate
/// stalls as a share of DOACROSS stage worker time, post/wait gate
/// passes, and sub-loops executed.
pub fn sched(planned: &[PlannedStats], rep: &mut Report) {
    let doacross = || {
        planned
            .iter()
            .flat_map(|p| &p.sub_loops)
            .filter(|s| matches!(s.schedule, Schedule::DoAcross { .. }))
    };
    let stall: u128 = doacross().map(|s| s.post_wait_stall_ns).sum();
    let busy: u128 = doacross().flat_map(|s| &s.threads).map(|t| t.wall_ns).sum();
    let posts: u64 = planned.iter().map(PlannedStats::post_waits).sum();
    let subs: usize = planned.iter().map(|p| p.sub_loops.len()).sum();
    rep.put(
        "doacross.gate_stall_frac",
        ratio(stall as f64, busy as f64),
        "ratio",
    );
    rep.put("doacross.post_waits", posts as f64, "count");
    rep.put("plan.sub_loops", subs as f64, "count");
}

/// Repetitions of the per-loop wave5 profile.
const LOOP_REPS: usize = 3;

/// Per PARMVR loop: sequential ns per iteration, and the speedup of a
/// prefetching cascade of that loop alone (64 KiB chunks of that loop)
/// over it. Each loop starts from the state the loops before it left,
/// and its cascade must reproduce its sequential result. Uses `bench`
/// when it is wave5, and sets wave5 up from `seed` otherwise.
pub fn wave5_loops(
    bench: &mut Bench,
    seed: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
    rep: &mut Report,
) -> Result<(), String> {
    let mut own;
    let bench = if bench.name == "wave5" {
        bench
    } else {
        own = setup("wave5", seed, &mut Tracer::off())?;
        own.compute_reference();
        &mut own
    };
    let loops = bench.prog.num_loops();
    let mut seq = vec![Vec::new(); loops];
    let mut casc = vec![Vec::new(); loops];
    for _ in 0..LOOP_REPS {
        bench.restore();
        for l in 0..loops {
            let before = bench.prog.arena_mut().clone();
            let k = bench.prog.kernel(l);
            let t0 = Instant::now();
            tr.span("wave5.loop_seq", |_| run_sequential(&k));
            seq[l].push(t0.elapsed().as_nanos() as f64);
            let after = digest(bench.prog.arena_mut().bytes());
            *bench.prog.arena_mut() = before;
            let k = bench.prog.kernel(l);
            let per = (CHUNK_BYTES / k.spec().bytes_per_iter()).max(1);
            let cfg = Mode::Prefetch.config(per, Observe::default());
            let t0 = Instant::now();
            let stats = tr.span("wave5.loop_prefetch", |_| try_run_governed(&k, &cfg));
            casc[l].push(t0.elapsed().as_nanos() as f64);
            let clean = stats.is_ok_and(|s| !s.degraded && s.retries == 0);
            let same = digest(bench.prog.arena_mut().bytes()) == after;
            if !check(tally, clean && same, "wave5 per-loop cascade") {
                return Err(format!(
                    "wave5 loop {} cascade differs from sequential",
                    l + 1
                ));
            }
        }
        check(tally, bench.matches_reference(), "wave5 per-loop pass");
    }
    for l in 0..loops {
        let iters = bench.prog.workload().loops[l].iters as f64;
        let s = median_of(&seq[l]);
        let c = median_of(&casc[l]);
        rep.put(
            &format!("wave5.L{}.seq_ns_per_iter", l + 1),
            s / iters,
            "ns/iter",
        );
        rep.put(
            &format!("wave5.L{}.prefetch_speedup", l + 1),
            ratio(s, c),
            "x",
        );
    }
    Ok(())
}

/// `cascade-core` with `cascade-mem`: the simulator on the same loops,
/// chunk size and processor count (Pentium Pro model, two calls with a
/// flush between, the last measured), as exact speedups and exec-phase
/// L2 misses of the restructured cascade.
pub fn sim(bench: &Bench, tr: &mut Tracer, rep: &mut Report) {
    let machine = cascade_mem::machines::pentium_pro();
    let policies = [
        ("none", HelperPolicy::None),
        ("prefetch", HelperPolicy::Prefetch),
        ("restructure", HelperPolicy::Restructure { hoist: false }),
    ];
    let mut cycles = [0.0; 3];
    let mut l2 = 0u64;
    let w = bench.prog.workload();
    let base = tr
        .span("sim.sequential", |_| sim_sequential(&machine, w, 2, true))
        .total_cycles();
    for (i, (_, policy)) in policies.iter().enumerate() {
        let cfg = CascadeConfig {
            nprocs: THREADS,
            chunk_bytes: CHUNK_BYTES,
            policy: *policy,
            jump_out: true,
            calls: 2,
            flush_between_calls: true,
        };
        let r = tr.span("sim.cascaded", |_| sim_cascaded(&machine, w, &cfg));
        cycles[i] = r.total_cycles();
        if i == 2 {
            l2 = r.loops.iter().map(|l| l.exec.l2_misses).sum::<u64>();
        }
    }
    for (i, (name, _)) in policies.iter().enumerate() {
        rep.put(&format!("sim.{name}.speedup"), ratio(base, cycles[i]), "x");
    }
    rep.put("sim.exec_l2_misses", l2 as f64, "count");
}
