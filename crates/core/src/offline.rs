//! Offline (single-core, pull-based) processing mode.
//!
//! Appendix B evaluates filter compilation "in offline mode, which
//! ingests a pcap instead of packets from the network interface". This
//! module is that mode: the same `RxCore` a worker core runs, driven
//! synchronously from an in-memory packet iterator, with no NIC, queues,
//! or threads. Each mbuf still carries the symmetric RSS hash the NIC
//! would have stamped, because the connection table is keyed by it. It
//! is also the easiest way to unit-test end-to-end behavior.

use std::marker::PhantomData;
use std::sync::Arc;

use retina_filter::FilterFns;
use retina_nic::{Mbuf, RssHasher};
use retina_support::bytes::Bytes;

use crate::config::RuntimeConfig;
use crate::erased::{ErasedOutput, ErasedSubscription, TypedSubscription};
use crate::rx::{stamp_rss_hash, RxCore, RxSinks};
use crate::stats::CoreStats;
use crate::subscription::Subscribable;

/// Parsed frames between connection-timeout sweeps.
const ADVANCE_EVERY: usize = 1024;

/// Processes timestamped frames through the full pipeline on the calling
/// thread. Returns the pipeline statistics.
pub fn run_offline<S, F>(
    filter: &Arc<F>,
    config: &RuntimeConfig,
    packets: impl IntoIterator<Item = (Bytes, u64)>,
    callback: impl FnMut(S),
) -> CoreStats
where
    S: Subscribable,
    F: FilterFns + 'static,
{
    let sub: Arc<dyn ErasedSubscription> = Arc::new(TypedSubscription::<S>::spec_only("sub0"));
    let sink = CallbackSink {
        callback,
        _marker: PhantomData,
    };
    let mut core = RxCore::new(Arc::clone(filter), &[sub], config, sink);
    // The virtual NIC's key: without the hash every connection would
    // share one conntrack bucket chain.
    let hasher = RssHasher::symmetric();
    let mut parsed = 0usize;
    for (frame, ts) in packets {
        let mut mbuf = Mbuf::from_bytes(frame);
        mbuf.timestamp_ns = ts;
        let parses = stamp_rss_hash(&mut mbuf, &hasher);
        core.burst([mbuf]);
        if parses {
            parsed += 1;
            if parsed.is_multiple_of(ADVANCE_EVERY) {
                core.advance();
            }
        }
    }
    core.finish().0
}

/// Offline delivery: every output goes straight to one typed callback.
struct CallbackSink<S, C> {
    callback: C,
    _marker: PhantomData<fn(S)>,
}

impl<S: Subscribable, C: FnMut(S)> RxSinks for CallbackSink<S, C> {
    fn deliver(&mut self, _sub: usize, out: ErasedOutput, _trace_id: u64) {
        let data = out
            .downcast::<S>()
            .expect("single-subscription core produced a foreign output type");
        (self.callback)(*data);
    }

    fn deliver_from_mbuf(&mut self, _sub: usize, mbuf: &Mbuf, _trace_id: u64) -> bool {
        S::from_mbuf(mbuf).map(&mut self.callback).is_some()
    }
}
