//! The traced run: a single-threaded driver that replays, from outside,
//! the public calls the runtime's RX worker makes — NIC ingest, RX poll,
//! L2–L4 parse, the packet filter, the packet-level bypass or the
//! connection tracker, timer advances and delivery — with a span around
//! each call.
//!
//! Frames go through the virtual NIC so every mbuf carries the RSS hash
//! the NIC stamps (the connection table is keyed by it), and the NIC
//! holds the same hardware rules the runtime would install.

use std::sync::Arc;

use retina_core::tracker::ConnTracker;
use retina_core::{
    CompiledFilter, ErasedOutput, ErasedSubscription, FilterFns, Level, Mbuf, ParsedPacket,
    RunReport, RuntimeConfig, SubReport,
};
use retina_filter::{PacketVerdict, SubscriptionSet};
use retina_nic::{FlowRule, IngestOutcome, VirtualNic};
use retina_support::bytes::Bytes;

use crate::spans::{Recorder, Span, ROOT};
use crate::workload::Workload;

/// Layers of the traced run, indexed by span layer id.
pub const LAYERS: [&str; 11] = [
    "run",
    "burst",
    "nic.ingest",
    "nic.rx_poll",
    "wire.parse",
    "filter.packet",
    "core.bypass",
    "core.tracker.process",
    "core.tracker.advance",
    "core.tracker.drain",
    "core.deliver",
];

/// Layer ids (indices into [`LAYERS`]).
pub mod layer {
    /// The whole run: loop glue outside every call.
    pub const RUN: u16 = 0;
    /// One ingest-and-poll round: loop glue inside it.
    pub const BURST: u16 = 1;
    /// `VirtualNic::ingest` of one frame.
    pub const INGEST: u16 = 2;
    /// `VirtualNic::rx_burst`.
    pub const RX_POLL: u16 = 3;
    /// `ParsedPacket::parse` of one frame.
    pub const PARSE: u16 = 4;
    /// `FilterFns::packet_filter_set` of one frame.
    pub const FILTER: u16 = 5;
    /// Packet-level delivery: `Subscribable::from_mbuf` plus callback.
    pub const BYPASS: u16 = 6;
    /// `ConnTracker::process` of one frame.
    pub const PROCESS: u16 = 7;
    /// `ConnTracker::advance`.
    pub const ADVANCE: u16 = 8;
    /// `ConnTracker::drain` at end of input.
    pub const DRAIN: u16 = 9;
    /// `ConnTracker::take_outputs` plus the callbacks.
    pub const DELIVER: u16 = 10;
}

/// What the runtime's RX worker does between timer advances: one
/// advance per this many non-empty bursts.
const ADVANCE_EVERY: usize = 64;

/// Everything a traced (or untraced) driver run produced.
#[derive(Debug)]
pub struct TracedRun {
    /// Recorded spans (empty when tracing was off).
    pub spans: Vec<Span>,
    /// TSC cycles from first ingest to last delivery.
    pub wall_cycles: u64,
    /// The run in the runtime's report form: NIC counters, the tracker's
    /// stage counters and per-subscription rows.
    pub report: RunReport,
    /// Frames the packet filter did not reject for every subscription.
    pub filter_passed: u64,
    /// Outputs handed to callbacks by the delivery step.
    pub outputs: u64,
    /// The hardware rules installed on the NIC.
    pub rules: Vec<FlowRule>,
}

/// Spans a run over `frames` frames can record at most: per frame an
/// ingest, parse, filter, bypass, process and deliver; per burst the
/// burst, its poll, an advance and its deliver; plus the root, the
/// drain and its deliver.
fn span_bound(frames: usize, burst: usize) -> usize {
    6 * frames + 4 * frames.div_ceil(burst.max(1)) + 3
}

/// Builds the workload's merged filter and hardware-rule set the way
/// `RuntimeBuilder::build` does.
fn compile(workload: Workload, config: &RuntimeConfig) -> Result<CompiledFilter, String> {
    let srcs: Vec<&str> = workload.subs().iter().map(|s| s.filter).collect();
    CompiledFilter::build_union(&srcs, &config.filter_registry).map_err(|e| e.to_string())
}

/// Runs the driver over `frames`, recording spans when `trace` is set.
///
/// # Errors
/// Fails if a frame is lost at the NIC, if the filter does not compile,
/// or if the span buffer overflows.
#[allow(clippy::too_many_lines)]
pub fn run(workload: Workload, frames: &[(Bytes, u64)], trace: bool) -> Result<TracedRun, String> {
    let config = RuntimeConfig::with_cores(1);
    let filter = Arc::new(compile(workload, &config)?);
    let subs: Vec<Arc<dyn ErasedSubscription>> =
        workload.subs().iter().map(|s| s.spec_only()).collect();
    let nic = VirtualNic::new(&config.device);
    let rules = filter
        .hw_rules(config.device.caps, &config.filter_registry)
        .map_err(|e| e.to_string())?;
    for rule in &rules {
        nic.install_rule(rule.clone()).map_err(|e| e.to_string())?;
    }
    let mut packet_mask = SubscriptionSet::empty();
    for (i, sub) in subs.iter().enumerate() {
        if sub.level() == Level::Packet {
            packet_mask.insert(i);
        }
    }
    let mut tracker = ConnTracker::new(
        Arc::clone(&filter),
        &subs,
        config.timeouts,
        config.ooo_capacity,
        false,
    );
    let mut executed = vec![0u64; subs.len()];
    let mut outputs = 0u64;
    let mut filter_passed = 0u64;
    let mut rec = Recorder::new(span_bound(frames.len(), config.burst), trace);
    let mut burst: Vec<Mbuf> = Vec::with_capacity(config.burst);
    let mut max_ts = 0u64;
    let mut since_advance = 0usize;
    let mut lost: Option<(usize, IngestOutcome)> = None;

    // The callbacks: consume the datum and count it per subscription.
    let mut deliver = |tracker: &mut ConnTracker<CompiledFilter>, executed: &mut [u64]| {
        let batch = tracker.take_outputs();
        let n = batch.len() as u64;
        for (idx, _tid, out) in batch {
            tracker.stats.callbacks.runs += 1;
            executed[idx as usize] += 1;
            consume(out);
        }
        outputs += n;
    };

    let t0 = retina_core::util::rdtsc();
    let root = rec.open(layer::RUN, ROOT);
    for (chunk_no, chunk) in frames.chunks(config.burst).enumerate() {
        let b = rec.open(layer::BURST, root);
        for (off, (frame, ts)) in chunk.iter().enumerate() {
            let s = rec.open(layer::INGEST, b);
            let outcome = nic.ingest(frame.clone(), *ts);
            rec.close(s);
            if !matches!(
                outcome,
                IngestOutcome::Delivered(_) | IngestOutcome::HwDropped
            ) {
                lost.get_or_insert((chunk_no * config.burst + off, outcome));
            }
        }
        let s = rec.open(layer::RX_POLL, b);
        let n = nic.rx_burst(0, &mut burst, config.burst);
        rec.close(s);
        if n == 0 {
            rec.close(b);
            continue;
        }
        for mbuf in burst.drain(..) {
            tracker.stats.rx_packets += 1;
            tracker.stats.rx_bytes += mbuf.len() as u64;
            max_ts = max_ts.max(mbuf.timestamp_ns);

            let s = rec.open(layer::PARSE, b);
            let parsed = ParsedPacket::parse(mbuf.data());
            rec.close(s);
            let Ok(pkt) = parsed else {
                tracker.stats.parse_failures += 1;
                continue;
            };

            let s = rec.open(layer::FILTER, b);
            let verdict = filter.packet_filter_set(&pkt);
            rec.close(s);
            tracker.stats.packet_filter.runs += 1;
            if verdict.is_no_match() {
                continue;
            }
            filter_passed += 1;

            let bypass = verdict.matched & packet_mask;
            if !bypass.is_empty() {
                let s = rec.open(layer::BYPASS, b);
                for i in bypass.iter() {
                    if let Some(out) = subs[i].output_from_mbuf(&mbuf) {
                        tracker.stats.callbacks.runs += 1;
                        tracker.sub_tallies[i].delivered += 1;
                        executed[i] += 1;
                        consume(out);
                    }
                }
                rec.close(s);
            }

            let verdict = PacketVerdict {
                matched: verdict.matched - packet_mask,
                live: verdict.live,
                frontiers: verdict.frontiers,
            };
            if verdict.is_no_match() {
                continue;
            }
            let s = rec.open(layer::PROCESS, b);
            tracker.process(&mbuf, &pkt, verdict);
            rec.close(s);
            let s = rec.open(layer::DELIVER, b);
            deliver(&mut tracker, &mut executed);
            rec.close(s);
        }
        since_advance += 1;
        if since_advance >= ADVANCE_EVERY {
            since_advance = 0;
            let s = rec.open(layer::ADVANCE, b);
            tracker.advance(max_ts);
            rec.close(s);
            let s = rec.open(layer::DELIVER, b);
            deliver(&mut tracker, &mut executed);
            rec.close(s);
        }
        rec.close(b);
    }
    let s = rec.open(layer::DRAIN, root);
    tracker.drain();
    rec.close(s);
    let s = rec.open(layer::DELIVER, root);
    deliver(&mut tracker, &mut executed);
    rec.close(s);
    rec.close(root);
    let wall_cycles = retina_core::util::rdtsc().wrapping_sub(t0);

    if let Some((seq, outcome)) = lost {
        return Err(format!(
            "traced run lost frame {seq} at the NIC: {outcome:?}"
        ));
    }
    let spans = rec.finish()?;
    let subs_report = subs
        .iter()
        .zip(&tracker.sub_tallies)
        .zip(&executed)
        .map(|((sub, tally), &cb)| SubReport {
            name: sub.name().to_string(),
            delivered: tally.delivered,
            discarded: tally.discarded,
            cb_executed: cb,
            cb_dropped_full: 0,
            cb_dropped_disconnected: 0,
            queue_depth_peak: 0,
            queue_capacity: 0,
        })
        .collect();
    let report = RunReport {
        elapsed: std::time::Duration::ZERO,
        nic: nic.stats(),
        cores: tracker.stats,
        subs: subs_report,
        sim_duration_ns: max_ts,
        mbuf_high_water: nic.mempool().high_water(),
        conn_arena_bytes: tracker.arena_bytes(),
        filter_warnings: Vec::new(),
        trace: None,
    };
    Ok(TracedRun {
        spans,
        wall_cycles,
        report,
        filter_passed,
        outputs,
        rules,
    })
}

fn consume(out: ErasedOutput) {
    std::hint::black_box(out);
}
