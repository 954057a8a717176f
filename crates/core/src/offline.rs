//! Offline (single-core, pull-based) processing mode.
//!
//! Appendix B evaluates filter compilation "in offline mode, which
//! ingests a pcap instead of packets from the network interface". This
//! module is that mode: the same pipeline as a worker core, driven
//! synchronously from an in-memory packet iterator, with no NIC, queues,
//! or threads. Each mbuf still carries the symmetric RSS hash the NIC
//! would have stamped, because the connection table is keyed by it. It
//! is also the easiest way to unit-test end-to-end behavior.

use std::sync::Arc;

use retina_filter::FilterFns;
use retina_nic::{Mbuf, RssHasher};
use retina_support::bytes::Bytes;
use retina_wire::ParsedPacket;

use crate::config::RuntimeConfig;
use crate::stats::CoreStats;
use crate::subscription::{Level, Subscribable};
use crate::tracker::ConnTracker;

/// Processes timestamped frames through the full pipeline on the calling
/// thread. Returns the pipeline statistics.
pub fn run_offline<S, F>(
    filter: &Arc<F>,
    config: &RuntimeConfig,
    packets: impl IntoIterator<Item = (Bytes, u64)>,
    mut callback: impl FnMut(S),
) -> CoreStats
where
    S: Subscribable,
    F: FilterFns + 'static,
{
    let mut tracker: ConnTracker<F> = ConnTracker::single_with_registry::<S>(
        Arc::clone(filter),
        config.timeouts,
        config.ooo_capacity,
        config.profile_stages,
        config.parsers.clone(),
    );
    // The virtual NIC's key: without the hash every connection would
    // share one conntrack bucket chain.
    let hasher = RssHasher::symmetric();
    let mut max_ts = 0u64;
    let mut count = 0usize;
    for (frame, ts) in packets {
        let mut mbuf = Mbuf::from_bytes(frame);
        mbuf.timestamp_ns = ts;
        max_ts = max_ts.max(ts);
        tracker.stats.rx_packets += 1;
        tracker.stats.rx_bytes += mbuf.len() as u64;
        let Ok(pkt) = ParsedPacket::parse(mbuf.data()) else {
            tracker.stats.parse_failures += 1;
            continue;
        };
        mbuf.rss_hash = hasher.hash_packet(&pkt);
        tracker.stats.packet_filter.runs += 1;
        let verdict = filter.packet_filter_set(&pkt);
        if verdict.is_no_match() {
            // Rejected at the packet layer: no further work.
        } else if verdict.matched.contains(0) && S::level() == Level::Packet {
            // Bypass: callback straight off the packet filter.
            if let Some(data) = S::from_mbuf(&mbuf) {
                tracker.stats.callbacks.runs += 1;
                tracker.sub_tallies[0].delivered += 1;
                callback(data);
            }
        } else {
            tracker.process(&mbuf, &pkt, verdict);
            deliver::<S, F>(&mut tracker, &mut callback);
        }
        count += 1;
        if count.is_multiple_of(1024) {
            tracker.advance(max_ts);
            deliver::<S, F>(&mut tracker, &mut callback);
        }
    }
    tracker.drain();
    deliver::<S, F>(&mut tracker, &mut callback);
    tracker.stats
}

/// Drains tagged tracker outputs back to the concrete callback type.
fn deliver<S: Subscribable, F: FilterFns>(
    tracker: &mut ConnTracker<F>,
    callback: &mut impl FnMut(S),
) {
    for (_idx, _trace_id, out) in tracker.take_outputs() {
        tracker.stats.callbacks.runs += 1;
        let data = out
            .downcast::<S>()
            .expect("single-subscription tracker produced a foreign output type");
        callback(*data);
    }
}
