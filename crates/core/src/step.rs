//! Deterministic dispatch test harness: a virtual-time step executor.
//!
//! [`MultiRuntime::run`] proves nothing about dispatch correctness by
//! itself — thread scheduling hides interleavings, and a test that
//! passes under one kernel scheduler may never exercise the full-ring
//! or worker-starved paths at all. [`MultiRuntime::run_stepped`] removes
//! the scheduler from the picture: it drives the *same* per-packet code
//! as a threaded worker — one `RxCore` running parse, packet filter,
//! bypass or conntrack, and delivery, with the same per-subscription
//! dispatch modes and queue policies — on one thread, interleaving that
//! RX actor and one virtual worker per dispatched subscription under a
//! seeded schedule. Every interleaving is a pure function of
//! [`StepConfig::seed`], so a failing schedule replays bit for bit.
//!
//! What the harness lets tests prove (and the e2e suite does prove):
//!
//! * **Equivalence** — for any seed, a dispatched run's
//!   [`crate::RunReport::deterministic_digest`] is byte-identical to
//!   the inline run over the same frames: dispatch moves *where*
//!   callbacks run, never *what* is delivered.
//! * **Exact accounting under backpressure** — with a full queue and
//!   [`crate::QueuePolicy::Block`], parked results are delivered late
//!   but never lost; with [`crate::QueuePolicy::Shed`] every drop is
//!   counted, and [`crate::RunReport::check_accounting`] still balances.
//! * **Isolation** — a [`WorkerStall`] freezing one subscription's
//!   worker for a step window must not stall its siblings (their
//!   queues keep draining while the stalled queue backs up).
//!
//! What the stepped mode supplies around the shared core: the actor
//! schedule, the ingest-lane tracepoints a NIC would have written, and
//! the delivery layer behind the core's sinks. Virtual time means real
//! time never appears: a "stall" is a window of step numbers, queues
//! are plain bounded buffers, and a blocked RX core is modeled by a
//! holding buffer that must flush (in FIFO order, exactly like a
//! blocked SPSC `send`) before the next frame is read. The live
//! [`crate::telemetry::DispatchHub`] is not touched; the run keeps its
//! own stats so stepped tests never race a governor.

// Narrowing casts in this file are intentional: packet counts and
// subscription indices narrow to compact counter fields by design.
#![allow(clippy::cast_possible_truncation)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use retina_filter::{CompiledFilter, FilterFns};
use retina_nic::{Mbuf, PortStatsSnapshot, RssHasher};
use retina_support::bytes::Bytes;
use retina_support::rand::{RngExt, SeedableRng, SmallRng};
use retina_telemetry::trace::{TraceDropCode, TraceHwAction};
use retina_telemetry::{DispatchSnapshot, DispatchStats, TraceKind, Tracer, TriggerReason};

use crate::erased::{ErasedOutput, ErasedSink, ErasedSubscription};
use crate::executor::{DispatchMode, QueuePolicy};
use crate::governor::ShedState;
use crate::reconfig::{PreparedSwap, SwapError, SwapSpec};
use crate::runtime::{sub_reports, MultiRuntime, RunReport};
use crate::rx::{stamp_rss_hash, RxCore, RxSinks};
use crate::stats::CoreStats;
use crate::tracker::SubTally;

/// Freezes one subscription's virtual worker for a window of steps:
/// while `step ∈ [from_step, from_step + steps)` the worker pops
/// nothing, its queue backs up, and (under [`QueuePolicy::Block`]) the
/// RX actor parks results destined for it. The global step counter
/// advances every iteration — including iterations where *nothing*
/// could run — so every stall window expires deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStall {
    /// Index of the stalled subscription (registration order). A stall
    /// on an inline subscription has no effect (there is no worker).
    pub sub: usize,
    /// First step of the stall window (the step counter starts at 1).
    pub from_step: u64,
    /// Window length in steps.
    pub steps: u64,
}

impl WorkerStall {
    fn blocks(&self, sub: usize, step: u64) -> bool {
        self.sub == sub
            && step >= self.from_step
            && step < self.from_step.saturating_add(self.steps)
    }
}

/// Parameters of one stepped run. Everything that could perturb the
/// interleaving is explicit here, so `(frames, config)` fully
/// determines the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepConfig {
    /// Seed of the actor schedule (which actor — RX or a worker — runs
    /// each step).
    pub seed: u64,
    /// Frames the RX actor processes per step it is scheduled.
    pub rx_batch: usize,
    /// Items a virtual worker pops per step it is scheduled.
    pub worker_batch: usize,
    /// RX steps between connection-timeout sweeps
    /// ([`crate::tracker::ConnTracker::advance`] cadence, mirroring the
    /// threaded worker's every-64-bursts maintenance block).
    pub advance_every: usize,
    /// Optional worker freeze for isolation/backpressure tests.
    pub stall: Option<WorkerStall>,
}

impl Default for StepConfig {
    fn default() -> Self {
        StepConfig {
            seed: 0,
            rx_batch: 4,
            worker_batch: 4,
            advance_every: 64,
            stall: None,
        }
    }
}

impl StepConfig {
    /// The default schedule shape under `seed`.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        StepConfig {
            seed,
            ..StepConfig::default()
        }
    }

    /// Adds a worker-freeze window to this schedule.
    #[must_use]
    pub fn with_stall(mut self, stall: WorkerStall) -> Self {
        self.stall = Some(stall);
        self
    }
}

/// The stepped run's delivery layer: one inline sink or bounded virtual
/// queue per subscription, plus the parked-send buffer — the
/// single-threaded mirror of the threaded runtime's inline sinks and
/// SPSC rings, tracepoint order included.
struct Fabric {
    subs: Vec<Arc<dyn ErasedSubscription>>,
    policies: Vec<QueuePolicy>,
    /// Queue capacity per subscription; 0 = inline (no worker).
    caps: Vec<usize>,
    stats: Vec<DispatchStats>,
    sinks: Vec<Box<dyn ErasedSink>>,
    queues: Vec<VecDeque<(u64, ErasedOutput)>>,
    /// The blocked-RX holding buffer: results a real RX core would be
    /// spinning on in a blocking SPSC send. FIFO flush order is the
    /// blocked-send order; while non-empty the RX actor reads nothing.
    pending: VecDeque<(usize, u64, ErasedOutput)>,
    /// Dispatched subscriptions, one virtual worker each.
    workers: Vec<usize>,
    tracer: Option<Arc<Tracer>>,
}

/// Queue capacity per subscription, 0 for inline delivery. Spec-only
/// subscriptions stay inline in every mode (exactly as
/// `channel_dispatcher` forces them), so stepped accounting matches the
/// threaded runtime's.
fn queue_caps(subs: &[Arc<dyn ErasedSubscription>], modes: &[DispatchMode]) -> Vec<usize> {
    subs.iter()
        .zip(modes)
        .map(|(s, m)| if s.has_callback() { m.depth() } else { 0 })
        .collect()
}

impl Fabric {
    fn new(
        subs: Vec<Arc<dyn ErasedSubscription>>,
        modes: &[DispatchMode],
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let caps = queue_caps(&subs, modes);
        Fabric {
            policies: modes.iter().map(DispatchMode::policy).collect(),
            stats: caps
                .iter()
                .map(|&c| DispatchStats::with_capacity(c as u64))
                .collect(),
            sinks: subs.iter().map(|s| s.inline_sink()).collect(),
            queues: caps.iter().map(|&c| VecDeque::with_capacity(c)).collect(),
            pending: VecDeque::new(),
            workers: (0..subs.len()).filter(|&i| caps[i] > 0).collect(),
            caps,
            subs,
            tracer,
        }
    }

    /// Nothing queued and nothing parked.
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.queues.iter().all(VecDeque::is_empty)
    }

    fn emit_rx(&self, tid: u64, kind: TraceKind, sub: usize, b: u64) {
        if tid != 0 {
            if let Some(t) = &self.tracer {
                t.emit(t.rx_lane(0), tid, kind, sub as u16, 0, b);
            }
        }
    }

    /// One handoff to the delivery layer: run inline, enqueue, park or
    /// shed per the subscription's mode.
    fn route(&mut self, i: usize, tid: u64, out: ErasedOutput) {
        if self.caps[i] == 0 {
            self.emit_rx(tid, TraceKind::CallbackStart, i, 0);
            self.sinks[i].deliver(out, tid);
            self.stats[i].note_inline();
            self.emit_rx(tid, TraceKind::CallbackEnd, i, 0);
        } else if self.queues[i].len() < self.caps[i] {
            self.queues[i].push_back((tid, out));
            self.stats[i].note_enqueued();
            self.emit_rx(tid, TraceKind::DispatchEnqueue, i, self.stats[i].depth());
        } else if self.policies[i] == QueuePolicy::Shed {
            self.stats[i].note_dropped_full();
            if let Some(t) = &self.tracer {
                let code = TraceDropCode::DispatchShed as u64;
                t.emit(t.rx_lane(0), tid, TraceKind::Drop, i as u16, code, 0);
                t.trigger(TriggerReason::DispatchShed, i as u64);
            }
        } else {
            self.stats[i].note_blocked();
            // Emit the enqueue tracepoint now, not at flush: a threaded
            // RX core blocks inside the send, so its enqueue events land
            // in route order — the parked send's order — never in flush
            // order.
            self.emit_rx(tid, TraceKind::DispatchEnqueue, i, self.stats[i].depth());
            self.pending.push_back((i, tid, out));
        }
    }

    /// Moves parked sends into freed queue slots, in FIFO order.
    /// Returns whether any moved.
    fn flush_pending(&mut self) -> bool {
        let mut moved = false;
        while let Some(&(i, _, _)) = self.pending.front() {
            if self.queues[i].len() >= self.caps[i] {
                break;
            }
            let (_, tid, out) = self.pending.pop_front().expect("front checked above");
            // No tracepoint: the enqueue was recorded when the send
            // parked (see `route`).
            self.queues[i].push_back((tid, out));
            self.stats[i].note_enqueued();
            moved = true;
        }
        moved
    }

    /// One scheduled step of the virtual worker in `slot`: pops up to
    /// `batch` items and runs their callbacks. Returns whether it did
    /// any work.
    fn work(&mut self, slot: usize, batch: usize) -> bool {
        let i = self.workers[slot];
        let lane = self.tracer.as_ref().map(|t| (t, t.worker_lane(slot)));
        let mut popped = false;
        for _ in 0..batch.max(1) {
            let Some((tid, out)) = self.queues[i].pop_front() else {
                break;
            };
            let traced = lane.filter(|_| tid != 0);
            if let Some((t, lane)) = traced {
                let depth = self.stats[i].depth();
                t.emit(lane, tid, TraceKind::DispatchDequeue, i as u16, 0, depth);
                t.emit(lane, tid, TraceKind::CallbackStart, i as u16, 0, 0);
            }
            self.subs[i].invoke(out);
            if let Some((t, lane)) = traced {
                t.emit(lane, tid, TraceKind::CallbackEnd, i as u16, 0, 0);
            }
            self.stats[i].note_executed();
            popped = true;
        }
        if popped {
            self.flush_pending();
        }
        popped
    }

    /// Swap-time quiescence: runs every queue to empty and flushes every
    /// parked send — the single-threaded mirror of the threaded grace
    /// period. Terminates because each pass first frees queue slots,
    /// which lets parked sends move.
    fn drain_all(&mut self) {
        while !self.idle() {
            self.flush_pending();
            for (i, queue) in self.queues.iter_mut().enumerate() {
                while let Some((_tid, out)) = queue.pop_front() {
                    self.subs[i].invoke(out);
                    self.stats[i].note_executed();
                }
            }
        }
    }

    /// Rebuilds the fabric for a swapped-in table. Survivors carry their
    /// `DispatchStats` across the swap (exactly as the threaded hub
    /// shares them), so per-name counters span the whole run; removed
    /// subscriptions' counters are returned by name.
    fn rebuild(
        &mut self,
        subs: Vec<Arc<dyn ErasedSubscription>>,
        modes: &[DispatchMode],
        remap: &[Option<usize>],
    ) -> Vec<(String, DispatchSnapshot)> {
        let tracer = self.tracer.clone();
        let old = std::mem::replace(self, Fabric::new(subs, modes, tracer));
        let mut retired = Vec::new();
        for ((sub, stats), m) in old.subs.iter().zip(old.stats).zip(remap) {
            match *m {
                Some(j) => self.stats[j] = stats,
                None => retired.push((sub.name().to_string(), stats.snapshot())),
            }
        }
        retired
    }
}

/// The stepped RX core's sinks: the shared fabric.
impl RxSinks for &RefCell<Fabric> {
    fn deliver(&mut self, sub: usize, out: ErasedOutput, trace_id: u64) {
        self.borrow_mut().route(sub, trace_id, out);
    }

    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool {
        let mut fabric = self.borrow_mut();
        // A spec-only subscription's fast path delivers (and counts)
        // nothing, like the threaded null sink's.
        if !fabric.subs[sub].has_callback() {
            return false;
        }
        match fabric.subs[sub].output_from_mbuf(mbuf) {
            Some(out) => {
                fabric.route(sub, trace_id, out);
                true
            }
            None => false,
        }
    }
}

/// What a finished RX actor leaves behind for the report.
struct Finished {
    stats: CoreStats,
    tallies: Vec<(String, SubTally)>,
    arena_bytes: usize,
    max_ts: u64,
}

/// The stepped run's RX actor: reads frames into the shared `RxCore`,
/// applies a scheduled swap, and finishes the core once input ends.
struct StepRx<'a, F: FilterFns> {
    core: Option<RxCore<F, &'a RefCell<Fabric>>>,
    finished: Option<Finished>,
    fabric: &'a RefCell<Fabric>,
    packets: &'a [(Bytes, u64)],
    cfg: &'a StepConfig,
    next_pkt: usize,
    since_advance: usize,
    hasher: RssHasher,
    shed: Arc<ShedState>,
    tracer: Option<Arc<Tracer>>,
    swap: Option<(u64, PreparedSwap<F>)>,
    /// Dispatch counters of subscriptions removed by the swap.
    retired: Vec<(String, DispatchSnapshot)>,
}

impl<F: FilterFns> StepRx<'_, F> {
    /// One scheduled RX step. Returns whether it made progress.
    fn step(&mut self) -> bool {
        let mut progressed = self.fabric.borrow_mut().flush_pending();
        // A blocked send stalls the whole RX core, exactly like the
        // threaded runtime: no reads, and no epoch pickup mid-send.
        if !self.fabric.borrow().pending.is_empty() {
            return progressed;
        }
        // A scheduled swap fires once the RX cursor reaches its packet
        // index (clamped so a swap "after the last packet" still lands
        // before the final drain).
        let due = self.packets.len() as u64;
        if self
            .swap
            .as_ref()
            .is_some_and(|(at, _)| self.next_pkt as u64 >= (*at).min(due))
        {
            let (_, sw) = self.swap.take().expect("checked above");
            self.apply_swap(sw);
            progressed = true;
        }
        let Some(core) = self.core.as_mut() else {
            return progressed;
        };
        if self.next_pkt >= self.packets.len() {
            let arena_bytes = core.arena_bytes();
            let max_ts = core.max_ts();
            let core = self.core.take().expect("matched above");
            let (stats, tallies) = core.finish();
            self.finished = Some(Finished {
                stats,
                tallies,
                arena_bytes,
                max_ts,
            });
            return true;
        }
        core.set_shed_parsing(self.shed.parsing_shed());
        let end = (self.next_pkt + self.cfg.rx_batch.max(1)).min(self.packets.len());
        for seq in self.next_pkt..end {
            let (frame, ts) = &self.packets[seq];
            let mut mbuf = Mbuf::from_bytes(frame.clone());
            mbuf.timestamp_ns = *ts;
            if stamp_rss_hash(&mut mbuf, &self.hasher) {
                if let Some(t) = &self.tracer {
                    trace_ingest(t, &mbuf, seq as u64);
                }
            }
            core.burst([mbuf]);
        }
        self.next_pkt = end;
        self.since_advance += 1;
        if self.since_advance >= self.cfg.advance_every.max(1) {
            self.since_advance = 0;
            core.advance();
        }
        true
    }

    /// Applies the scheduled swap: quiesce the old configuration (every
    /// queued result executes under the epoch that produced it), let the
    /// core adopt the new table (removed subscriptions drain through the
    /// old queues), quiesce again, then rebuild the fabric.
    fn apply_swap(&mut self, sw: PreparedSwap<F>) {
        self.fabric.borrow_mut().drain_all();
        let core = self
            .core
            .as_mut()
            .expect("a swap fires before the final drain");
        core.adopt(sw.filter, &sw.subs, &sw.remap, self.fabric);
        let mut fabric = self.fabric.borrow_mut();
        fabric.drain_all();
        let retired = fabric.rebuild(sw.subs, &sw.modes, &sw.remap);
        self.retired.extend(retired);
    }
}

/// Ingest-lane mirror of the virtual NIC: one Rx and one HwVerdict
/// (RSS, queue 0 — a stepped run has a single RX core and no hardware
/// rules in front of it) per sampled frame.
fn trace_ingest(t: &Tracer, mbuf: &Mbuf, seq: u64) {
    let tid = t.sample_flow(mbuf.rss_hash);
    if tid != 0 {
        let lane = t.ingest_lane();
        t.emit(lane, tid, TraceKind::Rx, 0, mbuf.len() as u64, seq);
        let rss = TraceHwAction::Rss as u64;
        t.emit(lane, tid, TraceKind::HwVerdict, 0, rss, 0);
    }
}

impl<F: FilterFns + 'static> MultiRuntime<F> {
    /// Runs the pipeline over `packets` on the current thread under a
    /// seeded virtual-time schedule (see the module docs). Frames are
    /// `(bytes, timestamp-ns)` pairs, exactly what a
    /// [`crate::TrafficSource`] batch yields.
    ///
    /// The run honours each subscription's [`crate::DispatchMode`] and
    /// [`QueuePolicy`] semantically — bounded queues, parked sends,
    /// counted sheds — without spawning a single thread, and fabricates
    /// a loss-free NIC snapshot (no device sits in front of a stepped
    /// run), so [`RunReport::check_accounting`] applies unchanged.
    ///
    /// # Panics
    /// Panics if the schedule deadlocks, which is impossible unless the
    /// dispatch invariants are broken (that is the point of the assert).
    pub fn run_stepped(&self, packets: &[(Bytes, u64)], cfg: &StepConfig) -> RunReport {
        self.run_stepped_inner(packets, cfg, None)
    }

    fn run_stepped_inner(
        &self,
        packets: &[(Bytes, u64)],
        cfg: &StepConfig,
        swap: Option<(u64, PreparedSwap<F>)>,
    ) -> RunReport {
        // Virtual-clock tracer: lane layout mirrors the threaded run
        // (ingest, one RX core, one lane per virtual worker), timestamps
        // are the step counter, so a (frames, config) pair fully
        // determines every recorded event. Lanes cover the larger of the
        // pre- and post-swap worker sets.
        let workers = |subs: &[Arc<dyn ErasedSubscription>], modes: &[DispatchMode]| {
            queue_caps(subs, modes).iter().filter(|&&c| c > 0).count()
        };
        let max_workers = swap
            .as_ref()
            .map_or(0, |(_, sw)| workers(&sw.subs, &sw.modes))
            .max(workers(&self.subs, &self.modes))
            .max(1);
        let tracer = self
            .trace_config
            .clone()
            .map(|tc| Arc::new(Tracer::new_virtual(tc, 1, max_workers)));
        let fabric = RefCell::new(Fabric::new(self.subs.clone(), &self.modes, tracer.clone()));
        let mut core = RxCore::new(Arc::clone(&self.filter), &self.subs, &self.config, &fabric)
            .with_gauges(self.gauges(), 0);
        if let Some(t) = &tracer {
            core = core.with_tracer(Arc::clone(t), t.rx_lane(0));
        }
        let mut rx = StepRx {
            core: Some(core),
            finished: None,
            fabric: &fabric,
            packets,
            cfg,
            next_pkt: 0,
            since_advance: 0,
            hasher: RssHasher::symmetric(),
            shed: self.shed_state(),
            tracer: tracer.clone(),
            swap,
            retired: Vec::new(),
        };

        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut chaos_fired = false;
        let mut step = 0u64;
        while rx.finished.is_none() || !fabric.borrow().idle() {
            step += 1;
            if let Some(t) = &tracer {
                t.set_virtual_time(step);
            }
            // Snapshot the actor count: a swap inside the RX actor may
            // rebuild the worker set, but it always reports progress,
            // ending this sweep before the stale bound could be used.
            let actors = 1 + fabric.borrow().workers.len();
            let choice = rng.random_range(0..actors);
            // Try the scheduled actor first; fall back through the rest
            // so a blocked actor never masks available progress (the
            // schedule stays a pure function of the seed either way).
            let progressed = (0..actors).any(|k| match (choice + k) % actors {
                0 => rx.step(),
                actor => {
                    let slot = actor - 1;
                    let sub = fabric.borrow().workers[slot];
                    if cfg.stall.is_some_and(|s| s.blocks(sub, step)) {
                        // First activation of the fault window freezes
                        // the flight recorder, exactly as the chaos
                        // layer's fault hook does in a threaded run.
                        if !chaos_fired {
                            chaos_fired = true;
                            if let Some(t) = &tracer {
                                t.trigger(TriggerReason::ChaosFault, sub as u64);
                            }
                        }
                        false
                    } else {
                        fabric.borrow_mut().work(slot, cfg.worker_batch)
                    }
                }
            });
            // Only an active stall window may block every actor at once;
            // the window is measured in steps and the counter just
            // advanced, so it expires without progress.
            assert!(
                progressed
                    || cfg.stall.is_some_and(|s| {
                        step >= s.from_step && step < s.from_step.saturating_add(s.steps)
                    }),
                "stepped dispatch deadlocked at step {step}: no actor can run \
                 and no stall window is active"
            );
        }

        let done = rx
            .finished
            .take()
            .expect("loop ends after the RX actor finished");
        let fabric = fabric.borrow();
        let dispatch: Vec<DispatchSnapshot> =
            fabric.stats.iter().map(DispatchStats::snapshot).collect();
        let nic = PortStatsSnapshot {
            rx_offered: packets.len() as u64,
            rx_delivered: packets.len() as u64,
            rx_bytes: packets.iter().map(|(f, _)| f.len() as u64).sum(),
            ..PortStatsSnapshot::default()
        };
        let mut report = RunReport {
            // Virtual time: wall-clock metrics are meaningless here.
            elapsed: Duration::ZERO,
            nic,
            cores: done.stats,
            subs: sub_reports(&fabric.subs, &dispatch, done.tallies, &rx.retired),
            sim_duration_ns: done.max_ts,
            mbuf_high_water: 0,
            conn_arena_bytes: done.arena_bytes,
            filter_warnings: self.filter_warnings().to_vec(),
            trace: None,
        };
        if let Some(t) = &tracer {
            if report.check_accounting().is_err() {
                t.trigger(TriggerReason::AccountingFailure, 0);
            }
            report.trace = Some(t.report());
        }
        report
    }
}

impl MultiRuntime<CompiledFilter> {
    /// Runs a stepped schedule with one live reconfiguration applied
    /// mid-run: when the RX cursor reaches `at_packet` (clamped to the
    /// frame count, so a large index swaps just before the final
    /// drain), the old configuration is quiesced, connection state is
    /// rebound under `spec`'s freshly compiled filter, and the run
    /// continues under the new subscription table — the deterministic
    /// mirror of [`crate::SwapController::swap`] on a threaded run.
    ///
    /// Validation is identical to the threaded path: `spec` compiles
    /// through the filter analyzer (E-codes reject the swap before
    /// anything changes; W-codes surface in the report's
    /// [`RunReport::filter_warnings`]), and survivors are matched to the
    /// running table by name.
    ///
    /// # Errors
    /// Returns the same [`SwapError`]s as [`crate::SwapController::swap`]:
    /// rejected filter sources, spec violations (empty table, duplicate
    /// names). `NotRunning` and `HwFilter` cannot occur (a stepped run
    /// has no epoch machinery and no device in front of it).
    ///
    /// # Panics
    /// Panics if the schedule deadlocks, exactly as
    /// [`MultiRuntime::run_stepped`] does.
    pub fn run_stepped_with_swap(
        &self,
        packets: &[(Bytes, u64)],
        cfg: &StepConfig,
        at_packet: u64,
        spec: &SwapSpec,
    ) -> Result<RunReport, SwapError> {
        let mut prepared = crate::reconfig::prepare(spec, &self.subs, &self.config)?;
        let warnings = std::mem::take(&mut prepared.warnings);
        let mut report = self.run_stepped_inner(packets, cfg, Some((at_packet, prepared)));
        report.filter_warnings.extend(warnings);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::executor::DispatchMode;
    use crate::runtime::RuntimeBuilder;
    use crate::subscribables::ConnRecord;
    use retina_wire::build::{build_tcp, TcpSpec};
    use retina_wire::TcpFlags;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// `conns` hand-built TCP conversations (handshake, one payload
    /// each way, FIN teardown) interleaved on the wire — enough churn
    /// to exercise queues without any RNG.
    fn frames(conns: usize) -> Vec<(Bytes, u64)> {
        let mut out = Vec::new();
        let mut ts = 0u64;
        for c in 0..conns {
            let client: std::net::SocketAddr =
                format!("10.0.{}.{}:{}", c / 250, (c % 250) + 1, 10_000 + c)
                    .parse()
                    .unwrap();
            let server: std::net::SocketAddr = "192.168.1.1:443".parse().unwrap();
            let mut push = |src, dst, seq, ack, flags, payload: &[u8]| {
                ts += 50_000;
                let frame = build_tcp(&TcpSpec {
                    src,
                    dst,
                    seq,
                    ack,
                    flags,
                    window: 65535,
                    ttl: 64,
                    payload,
                });
                out.push((Bytes::from(frame), ts));
            };
            push(client, server, 100, 0, TcpFlags::SYN, &[]);
            push(server, client, 500, 101, TcpFlags::SYN | TcpFlags::ACK, &[]);
            push(client, server, 101, 501, TcpFlags::ACK, &[]);
            push(
                client,
                server,
                101,
                501,
                TcpFlags::ACK | TcpFlags::PSH,
                b"ping",
            );
            push(
                server,
                client,
                501,
                105,
                TcpFlags::ACK | TcpFlags::PSH,
                b"pong",
            );
            push(client, server, 105, 505, TcpFlags::FIN | TcpFlags::ACK, &[]);
            push(server, client, 505, 106, TcpFlags::FIN | TcpFlags::ACK, &[]);
            push(client, server, 106, 506, TcpFlags::ACK, &[]);
        }
        out
    }

    fn build(
        mode: DispatchMode,
        hits: &Arc<AtomicU64>,
    ) -> MultiRuntime<retina_filter::CompiledFilter> {
        let h = Arc::clone(hits);
        RuntimeBuilder::new(RuntimeConfig::default())
            .subscribe_dispatched("conns", "ipv4 and tcp", mode, move |_: ConnRecord| {
                h.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .unwrap()
    }

    #[test]
    fn stepped_dispatch_matches_inline_digest() {
        let pkts = frames(200);
        let inline_hits = Arc::new(AtomicU64::new(0));
        let inline =
            build(DispatchMode::Inline, &inline_hits).run_stepped(&pkts, &StepConfig::seeded(7));
        inline.check_accounting().unwrap();
        for seed in [1u64, 2, 3] {
            let hits = Arc::new(AtomicU64::new(0));
            let rt = build(DispatchMode::dedicated(4), &hits);
            let report = rt.run_stepped(&pkts, &StepConfig::seeded(seed));
            report.check_accounting().unwrap();
            assert_eq!(
                report.deterministic_digest(),
                inline.deterministic_digest(),
                "seed {seed}"
            );
            assert_eq!(
                hits.load(Ordering::Relaxed),
                inline_hits.load(Ordering::Relaxed)
            );
        }
    }

    #[test]
    fn block_policy_parks_but_never_loses_under_stall() {
        let pkts = frames(150);
        let hits = Arc::new(AtomicU64::new(0));
        let rt = build(DispatchMode::dedicated(2), &hits);
        let cfg = StepConfig::seeded(11).with_stall(WorkerStall {
            sub: 0,
            from_step: 5,
            steps: 400,
        });
        let report = rt.run_stepped(&pkts, &cfg);
        report.check_accounting().unwrap();
        assert_eq!(report.subs[0].cb_dropped_full, 0, "Block never sheds");
        assert_eq!(report.subs[0].cb_executed, report.subs[0].delivered);
        assert_eq!(hits.load(Ordering::Relaxed), report.subs[0].cb_executed);
    }

    #[test]
    fn shed_policy_counts_drops_under_stall() {
        let pkts = frames(150);
        let hits = Arc::new(AtomicU64::new(0));
        let rt = build(DispatchMode::dedicated(2).shedding(), &hits);
        let cfg = StepConfig::seeded(11).with_stall(WorkerStall {
            sub: 0,
            from_step: 1,
            steps: 100_000,
        });
        let report = rt.run_stepped(&pkts, &cfg);
        report.check_accounting().unwrap();
        assert!(
            report.subs[0].cb_dropped_full > 0,
            "2-deep queue under a long stall must shed"
        );
        assert_eq!(
            report.subs[0].delivered,
            report.subs[0].cb_executed + report.subs[0].cb_dropped_full
        );
    }

    #[test]
    fn schedules_are_replayable() {
        let pkts = frames(100);
        let a = build(DispatchMode::shared(4), &Arc::new(AtomicU64::new(0)))
            .run_stepped(&pkts, &StepConfig::seeded(42));
        let b = build(DispatchMode::shared(4), &Arc::new(AtomicU64::new(0)))
            .run_stepped(&pkts, &StepConfig::seeded(42));
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        assert_eq!(a.subs[0].cb_executed, b.subs[0].cb_executed);
    }
}
