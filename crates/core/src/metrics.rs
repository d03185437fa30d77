//! `CascadeMetrics` — the observability schema shared by the simulator
//! and the real-thread runtime.
//!
//! The paper's argument is quantitative: chunk sizes trade helper coverage
//! against the ~120/~500-cycle control-transfer cost (§2.2), and the
//! figures are all phase accounting. This module gives both execution
//! engines one report shape for that accounting, so a simulated schedule
//! (times in **cycles**, derived from the [`Timeline`](crate::Timeline)'s
//! `ChunkEvent`s) and a real run (times in **nanoseconds**, measured by
//! `cascade-rt`'s `PhaseRecorder`) can be read, rendered, and diffed with
//! the same code.
//!
//! Everything is plain data with a hand-rolled JSON encoder (the offline
//! build vendors no serde). Field order in the JSON is fixed, so a report
//! for a deterministic source (the simulator) is byte-stable and can be
//! checked in as a golden file.

/// Which engine produced a [`CascadeMetrics`] report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsSource {
    /// The cycle-accurate simulator (`cascade-core`): deterministic,
    /// times in simulated cycles.
    Simulated,
    /// The real-thread runtime (`cascade-rt`): wall-clock, times in
    /// nanoseconds.
    Real,
}

impl MetricsSource {
    /// Lower-case label used in text and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            MetricsSource::Simulated => "simulated",
            MetricsSource::Real => "real",
        }
    }

    /// The time unit every duration field of the report is expressed in.
    pub fn time_unit(&self) -> &'static str {
        match self {
            MetricsSource::Simulated => "cycles",
            MetricsSource::Real => "ns",
        }
    }
}

/// The phase a worker (or simulated processor) is in at any instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Helper work: prefetching or packing the upcoming chunk's operands.
    Helper,
    /// Spinning on the token (includes the claim CAS on real threads).
    Spin,
    /// Executing a chunk (the serialized phase).
    Execute,
    /// Climbing the recovery ladder after a fault (real threads only).
    Retry,
    /// Everything else: startup, roster bookkeeping, token release.
    Other,
}

impl PhaseKind {
    /// All kinds, in canonical report order.
    pub const ALL: [PhaseKind; 5] = [
        PhaseKind::Helper,
        PhaseKind::Spin,
        PhaseKind::Execute,
        PhaseKind::Retry,
        PhaseKind::Other,
    ];

    /// Lower-case label used in text and JSON output.
    pub fn label(&self) -> &'static str {
        match self {
            PhaseKind::Helper => "helper",
            PhaseKind::Spin => "spin",
            PhaseKind::Execute => "execute",
            PhaseKind::Retry => "retry",
            PhaseKind::Other => "other",
        }
    }
}

/// Count / sum / min / max of a duration-valued sample stream (in the
/// report's time unit). The aggregation is exact: `record` does only
/// comparisons and one addition, so integer-valued inputs below 2^53
/// aggregate without rounding.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when `count == 0`).
    pub min: f64,
    /// Largest sample (0 when `count == 0`).
    pub max: f64,
}

impl LatencyStats {
    /// Record one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    /// Fold another distribution into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}}}",
            self.count,
            fmt_f64(self.sum),
            fmt_f64(self.min),
            fmt_f64(self.max),
            fmt_f64(self.mean())
        )
    }
}

/// One worker's (or simulated processor's) share of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerMetrics {
    /// Worker / processor index.
    pub worker: u64,
    /// Chunks this worker executed.
    pub chunks: u64,
    /// Time in helper phases.
    pub helper_time: f64,
    /// Time spinning on the token.
    pub spin_time: f64,
    /// Time in execution phases.
    pub exec_time: f64,
    /// Time climbing the recovery ladder (0 for simulated runs).
    pub retry_time: f64,
    /// Remaining time: startup, bookkeeping, token release.
    pub other_time: f64,
    /// Total wall time of the worker. For real runs the recorder
    /// guarantees `helper + spin + exec + retry + other == wall` exactly;
    /// for simulated runs `other_time` is defined as the idle remainder,
    /// so the identity holds by construction there too.
    pub wall_time: f64,
    /// Iterations covered by helper work.
    pub helper_iters: u64,
    /// Chunks whose helper covered every iteration before the token came.
    pub helper_complete: u64,
    /// Helper phases abandoned early (token arrival / jump-out).
    pub jump_outs: u64,
    /// Helper poll batches that stalled on the dependence horizon
    /// (PR 3's gated helpers; 0 when the kernel declares no horizon).
    pub horizon_stalls: u64,
    /// Bytes packed into the sequential buffer by restructure helpers.
    pub packed_bytes: u64,
    /// Bytes covered by prefetch helpers (iterations × per-iteration
    /// operand footprint).
    pub prefetched_bytes: u64,
    /// Token handoffs performed (successful releases of a finished chunk).
    pub handoffs: u64,
    /// Chunks whose undo journal was rolled back after a mid-body fault
    /// (0 for simulated and fault-free runs).
    pub rollbacks: u64,
    /// Bytes captured into undo journals before execution phases (0 when
    /// journaling is off or the kernel is unjournalable).
    pub journal_bytes: u64,
    /// Time spent capturing and rolling back undo journals. A side
    /// counter carved out of the execute/retry phases, *not* a sixth
    /// phase: the `helper + spin + execute + retry + other == wall`
    /// partition is unaffected.
    pub journal_time: f64,
    /// Durable checkpoints this worker captured and published (0 when
    /// checkpointing is off — the default — and for simulated runs).
    pub ckpt_count: u64,
    /// Delta bytes written into durable checkpoints by this worker.
    pub ckpt_bytes: u64,
    /// Time spent capturing and publishing durable checkpoints. Like
    /// `journal_time`, a side counter riding inside the phases, *not* a
    /// sixth phase: the partition identity is unaffected.
    pub ckpt_time: f64,
    /// Committed chunks this worker *verified* (digest compare and, under
    /// replaying policies, journaled re-execution) before letting its own
    /// execution proceed. 0 when `VerifyPolicy::Off` and for simulated
    /// runs.
    pub verified_chunks: u64,
    /// Time spent digesting write footprints at commit and verifying the
    /// predecessor's chunk after claim. Like `journal_time`, a side
    /// counter riding inside the phases, *not* a sixth phase.
    pub verify_time: f64,
    /// Phase intervals lost because the opt-in event ring hit its
    /// capacity; a non-zero value flags `events` as truncated.
    pub events_dropped: u64,
    /// Receive-side token-handoff latency: release of chunk `j` by the
    /// previous executor → this worker's claim of `j`.
    pub takeover: LatencyStats,
    /// Per-chunk execution-phase durations.
    pub chunk_exec: LatencyStats,
}

impl WorkerMetrics {
    /// Fraction of wall time spent doing helper work, in [0, 1].
    pub fn helper_occupancy(&self) -> f64 {
        if self.wall_time <= 0.0 {
            0.0
        } else {
            self.helper_time / self.wall_time
        }
    }

    /// Fraction of wall time spent spinning on the token, in [0, 1].
    pub fn spin_fraction(&self) -> f64 {
        if self.wall_time <= 0.0 {
            0.0
        } else {
            self.spin_time / self.wall_time
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"worker\": {}, \"chunks\": {}, \"phases\": {{\"helper\": {}, \"spin\": {}, \"execute\": {}, \"retry\": {}, \"other\": {}}}, \"wall\": {}, \"helper_iters\": {}, \"helper_complete\": {}, \"jump_outs\": {}, \"horizon_stalls\": {}, \"packed_bytes\": {}, \"prefetched_bytes\": {}, \"handoffs\": {}, \"rollbacks\": {}, \"journal_bytes\": {}, \"journal_time\": {}, \"ckpt_count\": {}, \"ckpt_bytes\": {}, \"ckpt_time\": {}, \"verified_chunks\": {}, \"verify_time\": {}, \"events_dropped\": {}, \"takeover\": {}, \"chunk_exec\": {}}}",
            self.worker,
            self.chunks,
            fmt_f64(self.helper_time),
            fmt_f64(self.spin_time),
            fmt_f64(self.exec_time),
            fmt_f64(self.retry_time),
            fmt_f64(self.other_time),
            fmt_f64(self.wall_time),
            self.helper_iters,
            self.helper_complete,
            self.jump_outs,
            self.horizon_stalls,
            self.packed_bytes,
            self.prefetched_bytes,
            self.handoffs,
            self.rollbacks,
            self.journal_bytes,
            fmt_f64(self.journal_time),
            self.ckpt_count,
            self.ckpt_bytes,
            fmt_f64(self.ckpt_time),
            self.verified_chunks,
            fmt_f64(self.verify_time),
            self.events_dropped,
            self.takeover.json(),
            self.chunk_exec.json(),
        )
    }
}

/// One timestamped phase interval from the opt-in event ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSample {
    /// Worker the interval belongs to.
    pub worker: u64,
    /// What the worker was doing.
    pub kind: PhaseKind,
    /// Chunk the phase was about, when attributable.
    pub chunk: Option<u64>,
    /// Interval start, relative to the run origin.
    pub start: f64,
    /// Interval end.
    pub end: f64,
}

impl PhaseSample {
    fn json(&self) -> String {
        let chunk = match self.chunk {
            Some(c) => c.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"worker\": {}, \"kind\": \"{}\", \"chunk\": {}, \"start\": {}, \"end\": {}}}",
            self.worker,
            self.kind.label(),
            chunk,
            fmt_f64(self.start),
            fmt_f64(self.end)
        )
    }
}

/// The per-run observability report: one schema for simulated and real
/// cascades.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CascadeMetrics {
    /// Engine that produced the report (defaults to simulated).
    pub source: Option<MetricsSource>,
    /// Total chunks executed.
    pub chunks: u64,
    /// Total loop iterations.
    pub iters: u64,
    /// Wall time of the whole run (makespan for simulated schedules).
    pub wall_time: f64,
    /// Per-worker breakdown, indexed by worker id.
    pub workers: Vec<WorkerMetrics>,
    /// Token-handoff latency distribution, aggregated over all workers.
    /// For a fault-free single cascade, `handoff.count == chunks - 1`
    /// (chunk 0's grant exists before the run starts — nothing hands it
    /// off).
    pub handoff: LatencyStats,
    /// Chunk execution-time distribution, aggregated over all workers.
    pub chunk_exec: LatencyStats,
    /// Cancel latency: the cancel request firing → the first worker
    /// acting on it. Zero for a run that was never cancelled (always zero
    /// for simulated runs, which have no governance layer). A side
    /// counter, not a phase.
    pub cancel_latency: f64,
    /// Peak bytes reserved from the run's memory budget (journal and
    /// pack arenas); zero when nothing was metered. A side counter, not
    /// a phase.
    pub budget_high_water: u64,
    /// Sub-loops a plan-driven run executed; zero for classic cascades
    /// and simulated runs. A side counter, not a phase.
    pub sub_loops: u64,
    /// Structural DOACROSS post/wait gate count: gated iterations whose
    /// dependence iteration lay in a different chunk. Deterministic
    /// (independent of timing); zero outside plan mode. A side counter.
    pub post_waits: u64,
    /// Time workers spent blocked in DOACROSS gate spins, in the run's
    /// time unit. Timing-dependent; zero outside plan mode. A side
    /// counter, not a phase (gate spins also land in each worker's Spin
    /// phase).
    pub post_wait_stall: f64,
    /// Arena scrub passes the runner ran (whole-memory checksums of
    /// bytes outside every chunk's write footprint, taken at quiescent
    /// points). Zero when `VerifyPolicy::Off` and for simulated runs. A
    /// side counter, not a phase.
    pub scrubs: u64,
    /// Timestamped phase intervals (empty unless the event ring was on).
    pub events: Vec<PhaseSample>,
}

impl CascadeMetrics {
    /// The time unit of every duration field.
    pub fn time_unit(&self) -> &'static str {
        self.source.unwrap_or(MetricsSource::Simulated).time_unit()
    }

    /// Recompute the run-level `handoff` and `chunk_exec` aggregates from
    /// the per-worker distributions. Exact: merging is pure counting,
    /// addition, and comparison.
    pub fn aggregate(&mut self) {
        let mut handoff = LatencyStats::default();
        let mut chunk_exec = LatencyStats::default();
        for w in &self.workers {
            handoff.merge(&w.takeover);
            chunk_exec.merge(&w.chunk_exec);
        }
        self.handoff = handoff;
        self.chunk_exec = chunk_exec;
    }

    /// Fraction of iterations covered by helper work, in [0, 1].
    pub fn helper_coverage(&self) -> f64 {
        if self.iters == 0 {
            return 0.0;
        }
        let helped: u64 = self.workers.iter().map(|w| w.helper_iters).sum();
        helped as f64 / self.iters as f64
    }

    /// Total bytes packed into sequential buffers.
    pub fn packed_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.packed_bytes).sum()
    }

    /// Total bytes covered by prefetch helpers.
    pub fn prefetched_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.prefetched_bytes).sum()
    }

    /// Total chunks rolled back via their undo journal.
    pub fn rollbacks(&self) -> u64 {
        self.workers.iter().map(|w| w.rollbacks).sum()
    }

    /// Total bytes captured into undo journals.
    pub fn journal_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.journal_bytes).sum()
    }

    /// Total time spent capturing and rolling back undo journals (a side
    /// counter inside the execute/retry phases, not a sixth phase).
    pub fn journal_time(&self) -> f64 {
        self.workers.iter().map(|w| w.journal_time).sum()
    }

    /// Total durable checkpoints captured and published.
    pub fn ckpt_count(&self) -> u64 {
        self.workers.iter().map(|w| w.ckpt_count).sum()
    }

    /// Total delta bytes written into durable checkpoints.
    pub fn ckpt_bytes(&self) -> u64 {
        self.workers.iter().map(|w| w.ckpt_bytes).sum()
    }

    /// Total time spent capturing and publishing durable checkpoints (a
    /// side counter, not a sixth phase).
    pub fn ckpt_time(&self) -> f64 {
        self.workers.iter().map(|w| w.ckpt_time).sum()
    }

    /// Total committed chunks verified before downstream execution.
    pub fn verified_chunks(&self) -> u64 {
        self.workers.iter().map(|w| w.verified_chunks).sum()
    }

    /// Total time spent digesting and verifying committed chunks (a side
    /// counter, not a sixth phase).
    pub fn verify_time(&self) -> f64 {
        self.workers.iter().map(|w| w.verify_time).sum()
    }

    /// Total phase intervals lost to event-ring capacity across workers;
    /// non-zero means `events` is a truncated timeline.
    pub fn events_dropped(&self) -> u64 {
        self.workers.iter().map(|w| w.events_dropped).sum()
    }

    /// Render the fixed-field-order JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"source\": \"{}\",\n",
            self.source.unwrap_or(MetricsSource::Simulated).label()
        ));
        out.push_str(&format!("  \"time_unit\": \"{}\",\n", self.time_unit()));
        out.push_str(&format!("  \"chunks\": {},\n", self.chunks));
        out.push_str(&format!("  \"iters\": {},\n", self.iters));
        out.push_str(&format!("  \"wall\": {},\n", fmt_f64(self.wall_time)));
        out.push_str(&format!(
            "  \"helper_coverage\": {},\n",
            fmt_f64(self.helper_coverage())
        ));
        out.push_str(&format!("  \"packed_bytes\": {},\n", self.packed_bytes()));
        out.push_str(&format!(
            "  \"prefetched_bytes\": {},\n",
            self.prefetched_bytes()
        ));
        out.push_str(&format!("  \"rollbacks\": {},\n", self.rollbacks()));
        out.push_str(&format!("  \"journal_bytes\": {},\n", self.journal_bytes()));
        out.push_str(&format!(
            "  \"journal_time\": {},\n",
            fmt_f64(self.journal_time())
        ));
        out.push_str(&format!("  \"ckpt_count\": {},\n", self.ckpt_count()));
        out.push_str(&format!("  \"ckpt_bytes\": {},\n", self.ckpt_bytes()));
        out.push_str(&format!(
            "  \"ckpt_time\": {},\n",
            fmt_f64(self.ckpt_time())
        ));
        out.push_str(&format!(
            "  \"verified_chunks\": {},\n",
            self.verified_chunks()
        ));
        out.push_str(&format!(
            "  \"verify_time\": {},\n",
            fmt_f64(self.verify_time())
        ));
        out.push_str(&format!("  \"scrubs\": {},\n", self.scrubs));
        out.push_str(&format!(
            "  \"events_dropped\": {},\n",
            self.events_dropped()
        ));
        out.push_str(&format!(
            "  \"cancel_latency\": {},\n",
            fmt_f64(self.cancel_latency)
        ));
        out.push_str(&format!(
            "  \"budget_high_water\": {},\n",
            self.budget_high_water
        ));
        out.push_str(&format!("  \"sub_loops\": {},\n", self.sub_loops));
        out.push_str(&format!("  \"post_waits\": {},\n", self.post_waits));
        out.push_str(&format!(
            "  \"post_wait_stall\": {},\n",
            fmt_f64(self.post_wait_stall)
        ));
        out.push_str(&format!("  \"handoff\": {},\n", self.handoff.json()));
        out.push_str(&format!("  \"chunk_exec\": {},\n", self.chunk_exec.json()));
        out.push_str("  \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            let sep = if i + 1 < self.workers.len() { "," } else { "" };
            out.push_str(&format!("    {}{}\n", w.json(), sep));
        }
        out.push_str("  ],\n");
        out.push_str("  \"events\": [\n");
        for (i, e) in self.events.iter().enumerate() {
            let sep = if i + 1 < self.events.len() { "," } else { "" };
            out.push_str(&format!("    {}{}\n", e.json(), sep));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Render the human-readable phase table.
    pub fn render_text(&self) -> String {
        let unit = self.time_unit();
        let mut out = String::new();
        out.push_str(&format!(
            "cascade metrics ({} run, times in {unit})\n",
            self.source.unwrap_or(MetricsSource::Simulated).label()
        ));
        out.push_str(&format!(
            "  {} chunks, {} iters, wall {} {unit}, helper coverage {:.0}%\n",
            self.chunks,
            self.iters,
            fmt_time(self.wall_time),
            100.0 * self.helper_coverage()
        ));
        out.push_str(&format!(
            "  packed {} B, prefetched {} B, journaled {} B ({} rollbacks)\n",
            self.packed_bytes(),
            self.prefetched_bytes(),
            self.journal_bytes(),
            self.rollbacks()
        ));
        if self.ckpt_count() > 0 {
            out.push_str(&format!(
                "  durability: {} checkpoints, {} delta B, {} {unit} capture+publish\n",
                self.ckpt_count(),
                self.ckpt_bytes(),
                fmt_time(self.ckpt_time())
            ));
        }
        if self.cancel_latency > 0.0 || self.budget_high_water > 0 {
            out.push_str(&format!(
                "  governance: cancel latency {} {unit}, budget high-water {} B\n",
                fmt_time(self.cancel_latency),
                self.budget_high_water
            ));
        }
        if self.sub_loops > 0 {
            out.push_str(&format!(
                "  planned: {} sub-loops, {} post/waits, {} {unit} gate stall\n",
                self.sub_loops,
                self.post_waits,
                fmt_time(self.post_wait_stall)
            ));
        }
        if self.verified_chunks() > 0 || self.scrubs > 0 {
            out.push_str(&format!(
                "  verification: {} chunks verified, {} arena scrubs, {} {unit} digest+verify\n",
                self.verified_chunks(),
                self.scrubs,
                fmt_time(self.verify_time())
            ));
        }
        out.push_str(&format!(
            "  token handoffs: {} ({} min / {} mean / {} max {unit})\n",
            self.handoff.count,
            fmt_time(self.handoff.min),
            fmt_time(self.handoff.mean()),
            fmt_time(self.handoff.max)
        ));
        out.push_str(&format!(
            "  chunk execute:  {} ({} min / {} mean / {} max {unit})\n\n",
            self.chunk_exec.count,
            fmt_time(self.chunk_exec.min),
            fmt_time(self.chunk_exec.mean()),
            fmt_time(self.chunk_exec.max)
        ));
        out.push_str(&format!(
            "  {:>6}  {:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>6}  {:>6}  {:>9}  {:>7}\n",
            "worker",
            "chunks",
            "helper",
            "spin",
            "execute",
            "wall",
            "occ%",
            "spin%",
            "hlp iters",
            "jumpout"
        ));
        for w in &self.workers {
            out.push_str(&format!(
                "  {:>6}  {:>6}  {:>9}  {:>9}  {:>9}  {:>9}  {:>6.0}  {:>6.0}  {:>9}  {:>7}\n",
                w.worker,
                w.chunks,
                fmt_time(w.helper_time),
                fmt_time(w.spin_time),
                fmt_time(w.exec_time),
                fmt_time(w.wall_time),
                100.0 * w.helper_occupancy(),
                100.0 * w.spin_fraction(),
                w.helper_iters,
                w.jump_outs,
            ));
        }
        if !self.events.is_empty() || self.events_dropped() > 0 {
            out.push_str(&format!(
                "\n  event ring: {} phase intervals recorded, {} dropped at capacity\n",
                self.events.len(),
                self.events_dropped()
            ));
        }
        out
    }

    /// Check the cross-engine invariants every report must satisfy;
    /// panics with a description on violation. `strict_partition`
    /// additionally demands the phase-partition identity to within one
    /// part in 10^9 (real recorders guarantee it exactly; simulated
    /// reports construct `other_time` as the remainder).
    pub fn check(&self) {
        let chunks: u64 = self.workers.iter().map(|w| w.chunks).sum();
        assert_eq!(chunks, self.chunks, "per-worker chunks must sum to total");
        let mut agg = self.clone();
        agg.aggregate();
        assert_eq!(
            agg.handoff, self.handoff,
            "handoff must aggregate the per-worker takeover stats"
        );
        assert_eq!(
            agg.chunk_exec, self.chunk_exec,
            "chunk_exec must aggregate the per-worker distributions"
        );
        for w in &self.workers {
            let parts = w.helper_time + w.spin_time + w.exec_time + w.retry_time + w.other_time;
            let tol = 1e-9 * w.wall_time.abs().max(1.0);
            assert!(
                (parts - w.wall_time).abs() <= tol,
                "worker {}: phases ({parts}) must partition wall time ({})",
                w.worker,
                w.wall_time
            );
            assert!(
                w.chunk_exec.count == w.chunks,
                "worker {}: one exec sample per chunk",
                w.worker
            );
            assert!(
                w.verify_time >= 0.0 && w.verify_time.is_finite(),
                "worker {}: verify_time must be a finite non-negative side counter",
                w.worker
            );
            assert!(
                w.verified_chunks <= self.chunks,
                "worker {}: cannot verify more chunks than the run executed",
                w.worker
            );
        }
        for e in &self.events {
            assert!(e.end >= e.start, "event intervals must be well-formed");
            assert!(
                (e.worker as usize) < self.workers.len(),
                "event worker out of range"
            );
        }
    }
}

/// Shortest-round-trip float formatting (Rust's `{}`), which is
/// deterministic for a given value — the property the golden-JSON diff
/// relies on. Integer-valued floats print without a fraction.
pub fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Compact human-readable duration (text renderer only).
fn fmt_time(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e4 {
        format!("{:.1}k", v / 1e3)
    } else {
        fmt_f64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_record_and_merge_are_exact() {
        let mut a = LatencyStats::default();
        a.record(5.0);
        a.record(3.0);
        let mut b = LatencyStats::default();
        b.record(10.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 18.0);
        assert_eq!(a.min, 3.0);
        assert_eq!(a.max, 10.0);
        assert_eq!(a.mean(), 6.0);
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut a = LatencyStats::default();
        a.record(2.0);
        let before = a;
        a.merge(&LatencyStats::default());
        assert_eq!(a, before);
        let mut e = LatencyStats::default();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn json_has_fixed_field_order_and_unit() {
        let mut m = CascadeMetrics {
            source: Some(MetricsSource::Simulated),
            chunks: 2,
            iters: 100,
            wall_time: 1000.0,
            workers: vec![WorkerMetrics {
                worker: 0,
                chunks: 2,
                exec_time: 600.0,
                spin_time: 100.0,
                helper_time: 200.0,
                other_time: 100.0,
                wall_time: 1000.0,
                ..Default::default()
            }],
            ..Default::default()
        };
        m.workers[0].chunk_exec.record(300.0);
        m.workers[0].chunk_exec.record(300.0);
        m.aggregate();
        let j = m.to_json();
        let src = j.find("\"source\"").unwrap();
        let unit = j.find("\"time_unit\": \"cycles\"").unwrap();
        let workers = j.find("\"workers\"").unwrap();
        assert!(src < unit && unit < workers);
        m.check();
    }

    #[test]
    #[should_panic(expected = "partition wall time")]
    fn check_rejects_phase_gap() {
        let m = CascadeMetrics {
            chunks: 0,
            workers: vec![WorkerMetrics {
                wall_time: 10.0,
                exec_time: 4.0, // 6.0 unaccounted
                ..Default::default()
            }],
            ..Default::default()
        };
        m.check();
    }

    #[test]
    fn fmt_f64_integral_and_fractional() {
        assert_eq!(fmt_f64(120.0), "120");
        assert_eq!(fmt_f64(1.5), "1.5");
    }
}
