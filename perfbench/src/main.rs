//! perfbench — the repository benchmark: sequential vs. cascaded execution
//! on three workloads, with a traced per-layer profile. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload synth-dense --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, and the
//! spans go to `perfbench/out/`. Any failed operation exits with 1.

mod host;
mod layers;
mod report;
mod span;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use cascade_rt::Observe;

use report::Report;
use span::Tracer;
use stats::{median_of, Summary, Tally};
use workload::{setup, Bench, Mode, OpOut, THREADS, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// How long one mode repeats in a round (at least one operation) before
/// the next mode runs. The host's speed shifts in phases of about a
/// second, so short slices let every mode sample many phases in a run.
const SLICE: Duration = Duration::from_millis(100);

/// A run is cut into this many batches of whole rounds. A mode's sample
/// is its mean time per operation over one batch, and a metric is the
/// median of its samples: a batch mixes several host phases, so the
/// median does not flip between a fast and a slow phase.
const BATCHES: u32 = 8;

const USAGE: &str = "usage: perfbench --workload <synth-dense|wave5|plan> --seed <u64> \
                     --seconds <1..=600> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let w = WORKLOADS.iter().find(|w| **w == value);
                    workload = Some(*w.ok_or(format!("unknown workload {value}"))?);
                }
                "--seed" => seed = Some(num()?),
                "--seconds" => seconds = Some(num()?).filter(|s| (1..=600).contains(s)),
                "--trace" => trace = Some(num()?).filter(|t| *t <= 1).map(|t| t == 1),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds must be 1..=600")?,
            trace: trace.ok_or("--trace must be 0 or 1")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload; `Ok(false)` when some operation failed its check.
fn run(args: &Args) -> Result<bool, String> {
    for line in host::describe(THREADS) {
        println!("host: {line}");
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut tr = if args.trace {
        Tracer::on()
    } else {
        Tracer::off()
    };
    let mut setup_s = Vec::new();
    let mut bench = None;
    for _ in 0..SETUP_REPS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(tr.span("setup", |tr| setup(args.workload, args.seed, tr))?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("SETUP_REPS > 0");
    bench.compute_reference();
    println!(
        "{} iterations in {} loops; chunks of {} iterations (64 KiB); {} threads",
        bench.iters(),
        bench.prog.num_loops(),
        bench.chunk_iters,
        THREADS
    );
    println!(
        "peak RSS after set-up and reference: {:.4} MB (the fixed share of peak_rss_mb)",
        host::peak_rss_mb()
    );

    let mut tally = Tally::default();
    for mode in Mode::ALL {
        checked(&mut bench, mode, &Observe::default(), &mut tally);
    }
    // `peak_rss_mb` is taken here, after one operation of every mode, and
    // not after the rounds: with verification armed, each arena scrub
    // copies most of the arena, and how many of those copies are live at
    // once during the rounds varies from run to run.
    let peak_rss_mb = host::peak_rss_mb();
    let mut rep = Report::default();
    if args.trace {
        traced(args, &mut bench, &mut tr, &mut tally, &mut rep)?;
    } else {
        untraced(args, &mut bench, setup_s, peak_rss_mb, &mut tally, &mut rep);
        println!(
            "peak RSS after the timed rounds: {:.4} MB (not gated)",
            host::peak_rss_mb()
        );
    }
    for line in rep.lines() {
        println!("{line}");
    }
    println!(
        "fail_frac {} ({} of {} operations failed)",
        tally.fail_frac(),
        tally.failed,
        tally.attempted
    );
    if let Some(bad) = rep.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        tally.record(false);
    }
    println!("{}", rep.result_json(&tally));
    Ok(tally.failed == 0)
}

/// One operation, counted in `tally`; `None` when it failed.
fn checked(bench: &mut Bench, mode: Mode, obs: &Observe, tally: &mut Tally) -> Option<OpOut> {
    match bench.run(mode, obs) {
        Ok(out) => {
            tally.record(true);
            Some(out)
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", bench.name);
            tally.record(false);
            None
        }
    }
}

/// Samples of one series, in ns per operation.
#[derive(Default)]
struct Series {
    /// Mean of each batch: what a metric is the median of.
    batches: Vec<f64>,
    /// Every operation, for the per-operation tail.
    ops: Vec<f64>,
    /// The open batch's operations.
    open: Vec<f64>,
}

impl Series {
    fn close_batch(&mut self) {
        if !self.open.is_empty() {
            let n = self.open.len() as f64;
            self.batches.push(self.open.drain(..).sum::<f64>() / n);
        }
    }
}

/// Rounds over every mode until `length` has passed (at least one
/// round), so drift on the host hits every mode alike. In each round a
/// mode repeats `op` for [`SLICE`], at least once. Rounds are grouped into
/// [`BATCHES`] batches of equal length. `op` returns `None` for a failed
/// operation, which ends the slice.
fn rounds<const S: usize>(
    length: Duration,
    mut op: impl FnMut(Mode) -> Option<[Duration; S]>,
) -> Vec<[Series; S]> {
    let start = Instant::now();
    let batch = length / BATCHES;
    let mut batch_end = start + batch;
    let mut samples: Vec<[Series; S]> = Mode::ALL
        .iter()
        .map(|_| std::array::from_fn(|_| Series::default()))
        .collect();
    loop {
        for (i, mode) in Mode::ALL.into_iter().enumerate() {
            let t0 = Instant::now();
            while let Some(walls) = op(mode) {
                for (series, wall) in samples[i].iter_mut().zip(walls) {
                    let ns = wall.as_nanos() as f64;
                    series.ops.push(ns);
                    series.open.push(ns);
                }
                if t0.elapsed() >= SLICE {
                    break;
                }
            }
        }
        let now = Instant::now();
        if now >= batch_end {
            samples.iter_mut().flatten().for_each(Series::close_batch);
            if now >= start + length {
                return samples;
            }
            batch_end += batch;
        }
    }
}

/// End-to-end metrics, tracing off.
fn untraced(
    args: &Args,
    bench: &mut Bench,
    setup_s: Vec<f64>,
    peak_rss_mb: f64,
    tally: &mut Tally,
    rep: &mut Report,
) {
    let iters = bench.iters() as f64;
    let samples = rounds(Duration::from_secs(args.seconds), |mode| {
        checked(bench, mode, &Observe::default(), tally).map(|o| [o.wall])
    });
    let per_iter = |ns: &[f64]| ns.iter().map(|t| t / iters).collect::<Vec<_>>();
    for (mode, [s]) in Mode::ALL.iter().zip(samples) {
        let name = format!("{}.ns_per_iter", mode.name());
        rep.put_samples(&name, &per_iter(&s.batches), "ns/iter");
        if let Some(ops) = Summary::of(&per_iter(&s.ops)) {
            println!("{name} per operation: {}", ops.describe("ns/iter"));
        }
    }
    rep.put_samples("setup_s", &setup_s, "s");
    rep.put("peak_rss_mb", peak_rss_mb, "MB");
    for mode in [Mode::None, Mode::Prefetch, Mode::Restructure] {
        let (Some(seq), Some(casc)) = (
            rep.get("seq.ns_per_iter"),
            rep.get(&format!("{}.ns_per_iter", mode.name())),
        ) else {
            continue;
        };
        println!(
            "speedup seq/{}: {:.4} ({seq:.4} / {casc:.4} ns/iter; derived, not gated)",
            mode.name(),
            seq / casc
        );
    }
}

/// Per-layer metrics: a traced profile of every layer.
fn traced(
    args: &Args,
    bench: &mut Bench,
    tr: &mut Tracer,
    tally: &mut Tally,
    rep: &mut Report,
) -> Result<(), String> {
    for (child, name) in [
        ("setup.build", "setup.build_s"),
        ("analysis.spec_program", "analysis.spec_program_s"),
        ("analysis.plan", "analysis.plan_s"),
    ] {
        rep.put(name, median_of(&tr.child_totals("setup", child)) / 1e9, "s");
    }

    // Every mode untraced and traced, alternately: the traced ops give
    // the runner and sched profiles, the pair gives the tracing overhead.
    // The rounds take half of `--seconds`, so that the layer passes after
    // them fit in about the time of an untraced run.
    let iters = bench.iters();
    let mut last: Vec<Option<OpOut>> = Mode::ALL.iter().map(|_| None).collect();
    let samples = rounds(Duration::from_secs(args.seconds) / 2, |mode| {
        let plain = checked(bench, mode, &Observe::default(), tally)?.wall;
        let traced = tr.span(mode.span(), |_| {
            checked(bench, mode, &Observe::with_events(), tally)
        })?;
        let wall = traced.wall;
        last[mode.index()] = Some(traced);
        Some([plain, wall])
    });
    let per_iter = |s: &Series| {
        let n = iters as f64;
        s.batches.iter().map(|t| t / n).collect::<Vec<_>>()
    };
    let plain: Vec<Vec<f64>> = samples.iter().map(|[p, _]| per_iter(p)).collect();
    let traced: Vec<Vec<f64>> = samples.iter().map(|[_, t]| per_iter(t)).collect();
    let total = |s: &[Vec<f64>]| s.iter().map(|x| median_of(x)).sum::<f64>();
    let seq = median_of(&plain[Mode::Seq.index()]);
    for (i, mode) in Mode::ALL.iter().enumerate() {
        let Some(out) = &last[i] else {
            return Err(format!("no clean traced run of {}", mode.name()));
        };
        match mode {
            Mode::None | Mode::Prefetch | Mode::Restructure | Mode::Verified => {
                layers::runner(*mode, &out.runs, rep);
            }
            Mode::Plan => layers::sched(&out.planned, rep),
            Mode::Seq => {}
        }
        if matches!(mode, Mode::None | Mode::Prefetch | Mode::Restructure) {
            let casc = median_of(&plain[i]);
            println!(
                "speedup seq/{}: {:.4} ({seq:.4} / {casc:.4} ns/iter)",
                mode.name(),
                seq / casc
            );
            rep.put(&format!("{}.speedup", mode.name()), seq / casc, "x");
        }
    }

    layers::interp(bench, tr, tally, rep);
    let handoff = layers::handoff(tr);
    rep.put("handoff.cross_thread_ns", handoff, "ns");
    let one = layers::doacross_one_thread(args.seed, tr, tally)?;
    rep.put("doacross.one_thread_ns_per_iter", one, "ns/iter");
    layers::wave5_loops(bench, args.seed, tr, tally, rep)?;
    layers::sim(bench, tr, rep);

    // The interaction model: at 2 threads one worker's helper phase
    // overlaps the other's execution, so a cascaded iteration costs the
    // slower of the two plus its share of one handoff per chunk.
    let chunks = rep.get("runner.chunks").unwrap_or(0.0);
    let handoff_per_iter = handoff * chunks / iters as f64;
    let get = |n: &str| rep.get(n).unwrap_or(0.0);
    let model = [
        (
            "model.restructure_ns_per_iter",
            get("exec.packed_ns_per_iter").max(get("helper.pack_ns_per_iter")),
            Mode::Restructure,
        ),
        (
            "model.prefetch_ns_per_iter",
            get("exec.plain_ns_per_iter").max(get("helper.prefetch_ns_per_iter")),
            Mode::Prefetch,
        ),
    ];
    for (name, slower, mode) in model {
        let predicted = slower + handoff_per_iter;
        println!(
            "{name}: {predicted:.4} ns/iter predicted, {} measured {:.4} ns/iter",
            mode.name(),
            median_of(&plain[mode.index()])
        );
        rep.put(name, predicted, "ns/iter");
    }
    rep.put(
        "trace.overhead_frac",
        total(&traced) / total(&plain) - 1.0,
        "ratio",
    );

    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    let body = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": [{}],\n\"spans\": {}}}\n",
        args.workload,
        args.seed,
        host::describe(THREADS)
            .iter()
            .map(|l| format!("\"{l}\""))
            .collect::<Vec<_>>()
            .join(", "),
        tr.to_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("spans: {} written to {}", tr.spans().len(), path.display());
    Ok(())
}
