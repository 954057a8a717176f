//! The RX core: the per-core software pipeline, run to completion on
//! every frame (§5.1).
//!
//! [`RxCore`] owns what one core needs — the connection tracker, the
//! packet filter, the packet-level subscription mask, the
//! per-subscription sinks, and the tallies of subscriptions removed by
//! live swaps — and runs parse → software packet filter → packet-level
//! bypass or connection tracking → delivery for each frame of a burst.
//! Every way of running the pipeline drives this one engine:
//!
//! * **threaded** ([`crate::MultiRuntime::run`]): NIC bursts, epoch
//!   pickup between bursts, sinks that call inline or feed SPSC rings;
//! * **stepped** ([`crate::MultiRuntime::run_stepped`]): frames under a
//!   seeded actor schedule, with virtual dispatch queues behind the
//!   sinks;
//! * **offline** ([`crate::run_offline`]): an iterator, with one typed
//!   callback as the sink.
//!
//! The modes differ only in where mbufs come from, when time advances,
//! and how a sink ([`RxSinks`]) moves an output, so tests comparing the
//! modes compare the same per-packet code.

use std::sync::Arc;

use retina_filter::{FilterFns, PacketVerdict, SubscriptionSet};
use retina_nic::{Mbuf, RssHasher};
use retina_telemetry::{TraceKind, Tracer};
use retina_wire::ParsedPacket;

use crate::config::RuntimeConfig;
use crate::erased::{ErasedOutput, ErasedSink, ErasedSubscription};
use crate::runtime::RuntimeGauges;
use crate::stats::CoreStats;
use crate::subscription::Level;
use crate::tracker::{ConnTracker, SubTally};
use crate::util::rdtsc;

/// Where an RX core's outputs go: one delivery lane per subscription.
pub(crate) trait RxSinks {
    /// Hands subscription `sub` one tracker output. `trace_id` is the
    /// originating flow's trace id (0 = unsampled).
    fn deliver(&mut self, sub: usize, out: ErasedOutput, trace_id: u64);

    /// Packet-level fast path: builds subscription `sub`'s datum
    /// straight from the frame and delivers it. Returns whether a datum
    /// was produced.
    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool;
}

/// The threaded runtime's per-core sink set (inline or SPSC-ring sinks,
/// indexed by subscription).
impl RxSinks for Vec<Box<dyn ErasedSink>> {
    fn deliver(&mut self, sub: usize, out: ErasedOutput, trace_id: u64) {
        self[sub].deliver(out, trace_id);
    }

    fn deliver_from_mbuf(&mut self, sub: usize, mbuf: &Mbuf, trace_id: u64) -> bool {
        self[sub].deliver_from_mbuf(mbuf, trace_id)
    }
}

/// Subscriptions that take the packet-level fast path (callback
/// straight off the packet filter, no connection state).
fn packet_mask(subs: &[Arc<dyn ErasedSubscription>]) -> SubscriptionSet {
    let mut mask = SubscriptionSet::empty();
    for (i, sub) in subs.iter().enumerate() {
        if sub.level() == Level::Packet {
            mask.insert(i);
        }
    }
    mask
}

/// Stamps the symmetric RSS hash the virtual NIC computes at ingest onto
/// a frame that never crossed a NIC (stepped and offline runs): the
/// connection table is keyed by it and flow sampling derives trace ids
/// from it. Returns `false`, leaving the hash unset, when the frame does
/// not parse (the RX core counts that failure).
pub(crate) fn stamp_rss_hash(mbuf: &mut Mbuf, hasher: &RssHasher) -> bool {
    let Ok(pkt) = ParsedPacket::parse(mbuf.data()) else {
        return false;
    };
    mbuf.rss_hash = hasher.hash_packet(&pkt);
    true
}

/// One RX core's pipeline state (see the module docs). Monomorphised
/// over the filter and the sink type, so a mode's hot loop pays no
/// dispatch beyond what its sinks do themselves.
pub(crate) struct RxCore<F: FilterFns, K: RxSinks> {
    tracker: ConnTracker<F>,
    filter: Arc<F>,
    packet_mask: SubscriptionSet,
    sinks: K,
    /// `(name, tally)` of subscriptions removed by swaps this core
    /// adopted, reported alongside the final table's tallies.
    removed: Vec<(String, SubTally)>,
    /// Tracepoint sink plus this core's RX lane.
    trace: Option<(Arc<Tracer>, usize)>,
    /// Live gauges plus this core's shard, refreshed on every
    /// [`RxCore::advance`] and at [`RxCore::finish`].
    gauges: Option<(Arc<RuntimeGauges>, usize)>,
    profile: bool,
    /// Latest frame timestamp seen: the core's simulation clock.
    max_ts: u64,
}

impl<F: FilterFns, K: RxSinks> RxCore<F, K> {
    /// A core serving `subs` (the table `filter` was built for) with
    /// `config`'s timeouts, reassembly bound, profiling and parsers.
    pub(crate) fn new(
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        config: &RuntimeConfig,
        sinks: K,
    ) -> Self {
        let tracker = ConnTracker::with_registry(
            Arc::clone(&filter),
            subs,
            config.timeouts,
            config.ooo_capacity,
            config.profile_stages,
            config.parsers.clone(),
        );
        RxCore {
            tracker,
            filter,
            packet_mask: packet_mask(subs),
            sinks,
            removed: Vec::new(),
            trace: None,
            gauges: None,
            profile: config.profile_stages,
            max_ts: 0,
        }
    }

    /// Writes this core's tracepoints on `lane` of `tracer`.
    pub(crate) fn with_tracer(mut self, tracer: Arc<Tracer>, lane: usize) -> Self {
        self.tracker.set_tracer(Arc::clone(&tracer), lane);
        self.trace = Some((tracer, lane));
        self
    }

    /// Publishes this core's live state into shard `core` of `gauges`.
    pub(crate) fn with_gauges(mut self, gauges: Arc<RuntimeGauges>, core: usize) -> Self {
        self.gauges = Some((gauges, core));
        self
    }

    /// Latest frame timestamp seen (ns).
    pub(crate) fn max_ts(&self) -> u64 {
        self.max_ts
    }

    /// The connection arena's high-water bytes.
    pub(crate) fn arena_bytes(&self) -> usize {
        self.tracker.arena_bytes()
    }

    /// Mirrors the governor's parsing-shed decision into the tracker.
    pub(crate) fn set_shed_parsing(&mut self, shed: bool) {
        self.tracker.set_shed_parsing(shed);
    }

    /// Runs every frame of a burst through the pipeline.
    pub(crate) fn burst(&mut self, mbufs: impl IntoIterator<Item = Mbuf>) {
        for mbuf in mbufs {
            self.frame(&mbuf);
        }
    }

    /// The software packet filter (§4.1): one walk of the merged trie
    /// decides every subscription. Frames and swap-time replays both
    /// reach the packet layer through here.
    fn packet_layer(filter: &F, pkt: &ParsedPacket) -> PacketVerdict {
        filter.packet_filter_set(pkt)
    }

    #[inline]
    fn frame(&mut self, mbuf: &Mbuf) {
        let profile = self.profile;
        let stats = &mut self.tracker.stats;
        stats.rx_packets += 1;
        stats.rx_bytes += mbuf.len() as u64;
        self.max_ts = self.max_ts.max(mbuf.timestamp_ns);
        let Ok(pkt) = ParsedPacket::parse(mbuf.data()) else {
            stats.parse_failures += 1;
            return;
        };

        let tf = profile.then(rdtsc);
        let verdict = Self::packet_layer(&self.filter, &pkt);
        stats.packet_filter.runs += 1;
        if let Some(t) = tf {
            stats.packet_filter.record_cycles(rdtsc().wrapping_sub(t));
        }
        let tid = match &self.trace {
            Some((t, lane)) => trace_verdict(t, *lane, mbuf.rss_hash, &verdict),
            None => 0,
        };
        if verdict.is_no_match() {
            return;
        }

        // Bypass: packet-level subscriptions whose filter matched
        // terminally get their datum straight off the packet filter, no
        // connection state.
        for i in (verdict.matched & self.packet_mask).iter() {
            let tc = profile.then(rdtsc);
            if self.sinks.deliver_from_mbuf(i, mbuf, tid) {
                let stats = &mut self.tracker.stats;
                stats.callbacks.runs += 1;
                self.tracker.sub_tallies[i].delivered += 1;
                if let Some(t) = tc {
                    stats.callbacks.record_cycles(rdtsc().wrapping_sub(t));
                }
            }
        }

        let verdict = PacketVerdict {
            matched: verdict.matched - self.packet_mask,
            ..verdict
        };
        if verdict.is_no_match() {
            return;
        }
        self.tracker.process(mbuf, &pkt, verdict);
        self.deliver_outputs();
    }

    /// Hands the tracker's pending outputs to their sinks, counting and
    /// timing each as a callback.
    fn deliver_outputs(&mut self) {
        for (idx, tid, out) in self.tracker.take_outputs() {
            let tc = self.profile.then(rdtsc);
            self.tracker.stats.callbacks.runs += 1;
            self.sinks.deliver(idx as usize, out, tid);
            if let Some(t) = tc {
                self.tracker
                    .stats
                    .callbacks
                    .record_cycles(rdtsc().wrapping_sub(t));
            }
        }
    }

    fn publish_gauges(&self) {
        if let Some((gauges, core)) = &self.gauges {
            gauges.worker_update(
                *core,
                &self.tracker.stats,
                self.tracker.connections(),
                self.tracker.state_bytes(),
                self.tracker.arena_bytes(),
                self.max_ts,
            );
        }
    }

    /// Advances the core's clock to the latest frame seen: expires idle
    /// connections (§5.2), delivers what they produced, and refreshes
    /// the live gauges. Each run mode picks its own cadence.
    pub(crate) fn advance(&mut self) {
        self.tracker.advance(self.max_ts);
        self.deliver_outputs();
        self.publish_gauges();
    }

    /// Adopts a new configuration at a safe point between bursts:
    /// rebinds connection state to `filter` and `subs` (`remap` maps old
    /// subscription indices to new ones, `None` = removed), delivers the
    /// removed subscriptions' drains through the *old* sinks, banks
    /// their tallies, then installs `sinks`.
    pub(crate) fn adopt(
        &mut self,
        filter: Arc<F>,
        subs: &[Arc<dyn ErasedSubscription>],
        remap: &[Option<usize>],
        sinks: K,
    ) {
        let banked = self
            .tracker
            .rebind(Arc::clone(&filter), subs, remap, |pkt| {
                Self::packet_layer(&filter, pkt)
            });
        self.deliver_outputs();
        self.removed.extend(banked);
        self.sinks = sinks;
        self.filter = filter;
        self.packet_mask = packet_mask(subs);
    }

    /// Ends the run: drains every open connection through the sinks and
    /// returns the core's statistics plus each subscription's `(name,
    /// tally)` — the final table's, then those removed by swaps.
    pub(crate) fn finish(mut self) -> (CoreStats, Vec<(String, SubTally)>) {
        self.tracker.drain();
        self.deliver_outputs();
        self.publish_gauges();
        let mut named = self.tracker.named_tallies();
        named.append(&mut self.removed);
        (std::mem::take(&mut self.tracker.stats), named)
    }
}

/// Samples the frame's flow off its NIC-stamped RSS hash (one
/// finalizer) and, for a sampled flow, records the packet verdict and
/// its filter frontiers. Returns the trace id (0 = unsampled).
fn trace_verdict(t: &Tracer, lane: usize, rss_hash: u32, verdict: &PacketVerdict) -> u64 {
    let tid = t.sample_flow(rss_hash);
    if tid != 0 {
        t.emit(
            lane,
            tid,
            TraceKind::PacketVerdict,
            0,
            verdict.matched.bits(),
            verdict.live.bits(),
        );
        for f in verdict.frontiers.iter() {
            t.emit(lane, tid, TraceKind::FilterNode, 0, u64::from(f), 0);
        }
    }
    tid
}
