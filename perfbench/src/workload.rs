//! The benchmark's workloads: a campus traffic mix plus the subscription
//! set the runtime serves over it.
//!
//! Every workload is Appendix C campus traffic from
//! `retina_trafficgen::campus::generate`; the seed is the only input the
//! caller chooses, and it reaches the generator and nothing else.

use std::sync::Arc;

use retina_core::subscribables::{
    ConnRecord, DnsTransactionData, HttpTransactionData, TlsHandshakeData, ZcFrame,
};
use retina_core::{ErasedSubscription, RuntimeBuilder, Subscribable, TypedSubscription};
use retina_support::bytes::Bytes;
use retina_trafficgen::campus::{generate, CampusConfig};

/// The subscribable type a subscription delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// Raw frames (`ZcFrame`, packet level: the bypass path).
    Frame,
    /// Parsed TLS handshakes (`TlsHandshakeData`, session level).
    Tls,
    /// Parsed HTTP transactions (`HttpTransactionData`, session level).
    Http,
    /// Parsed DNS transactions (`DnsTransactionData`, session level).
    Dns,
    /// Connection records (`ConnRecord`, connection level).
    Conn,
}

/// One subscription of a workload.
#[derive(Debug, Clone, Copy)]
pub struct SubSpec {
    /// Subscription name; also the suffix of its
    /// `core.deliver.outputs.<name>` metric.
    pub name: &'static str,
    /// Filter source.
    pub filter: &'static str,
    /// Delivered type.
    pub shape: Shape,
}

/// Every subscription name any workload uses, in metric order.
pub const SUB_NAMES: [&str; 5] = ["frames", "tls", "http", "dns", "conns"];

/// The §7.3 / fig7 session filter.
pub const NETFLIX_SNI: &str = r"tls.sni ~ '(.+?\.)?nflxvideo\.net'";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Default campus mix, one raw-frame subscription with an empty
    /// filter (fig5a): the packet-level bypass path.
    CampusPackets,
    /// Default campus mix, a four-subscription union: the full pipeline.
    CampusMulti,
    /// `churn_storm`'s scan-heavy mix with connection records on `tcp`:
    /// almost every frame inserts a connection that later expires.
    ScanChurn,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::CampusPackets,
        Workload::CampusMulti,
        Workload::ScanChurn,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampusPackets => "campus_packets",
            Workload::CampusMulti => "campus_multi",
            Workload::ScanChurn => "scan_churn",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The subscriptions the runtime serves on this workload.
    pub fn subs(self) -> &'static [SubSpec] {
        match self {
            Workload::CampusPackets => &[SubSpec {
                name: "frames",
                filter: "",
                shape: Shape::Frame,
            }],
            Workload::CampusMulti => &[
                SubSpec {
                    name: "tls",
                    filter: NETFLIX_SNI,
                    shape: Shape::Tls,
                },
                SubSpec {
                    name: "http",
                    filter: "http",
                    shape: Shape::Http,
                },
                SubSpec {
                    name: "dns",
                    filter: "dns",
                    shape: Shape::Dns,
                },
                SubSpec {
                    name: "conns",
                    filter: "ipv4 and tcp",
                    shape: Shape::Conn,
                },
            ],
            Workload::ScanChurn => &[SubSpec {
                name: "conns",
                filter: "tcp",
                shape: Shape::Conn,
            }],
        }
    }

    /// Generator configuration for `seed` at the benchmark's size.
    pub fn campus_config(self, seed: u64) -> CampusConfig {
        match self {
            Workload::CampusPackets | Workload::CampusMulti => CampusConfig {
                seed,
                target_packets: 200_000,
                ..CampusConfig::default()
            },
            Workload::ScanChurn => scan_config(seed, 250_000),
        }
    }

    /// The generated frames for `seed`.
    pub fn frames(self, seed: u64) -> Vec<(Bytes, u64)> {
        generate(&self.campus_config(seed))
    }
}

/// `churn_storm`'s scan-storm mix: almost every TCP connection is a
/// single unanswered SYN, all inside the 5 s establishment timeout.
pub fn scan_config(seed: u64, target_packets: usize) -> CampusConfig {
    CampusConfig {
        seed,
        target_packets,
        duration_secs: 4.0,
        tcp_frac: 0.96,
        udp_frac: 0.03,
        single_syn_frac: 0.995,
        tls_bytes_median: 2_000.0,
        ..CampusConfig::default()
    }
}

fn consume<S>(datum: S) {
    std::hint::black_box(datum);
}

fn spec_only<S: Subscribable>(name: &str) -> Arc<dyn ErasedSubscription> {
    Arc::new(TypedSubscription::<S>::spec_only(name))
}

impl SubSpec {
    /// Registers this subscription on `builder` with a callback that
    /// only consumes the datum.
    pub fn register(&self, builder: RuntimeBuilder) -> RuntimeBuilder {
        let (name, filter) = (self.name, self.filter);
        match self.shape {
            Shape::Frame => builder.subscribe_named(name, filter, consume::<ZcFrame>),
            Shape::Tls => builder.subscribe_named(name, filter, consume::<TlsHandshakeData>),
            Shape::Http => builder.subscribe_named(name, filter, consume::<HttpTransactionData>),
            Shape::Dns => builder.subscribe_named(name, filter, consume::<DnsTransactionData>),
            Shape::Conn => builder.subscribe_named(name, filter, consume::<ConnRecord>),
        }
    }

    /// A spec-only (callback-free) subscription of this shape, for a
    /// tracker driven from outside the runtime.
    pub fn spec_only(&self) -> Arc<dyn ErasedSubscription> {
        match self.shape {
            Shape::Frame => spec_only::<ZcFrame>(self.name),
            Shape::Tls => spec_only::<TlsHandshakeData>(self.name),
            Shape::Http => spec_only::<HttpTransactionData>(self.name),
            Shape::Dns => spec_only::<DnsTransactionData>(self.name),
            Shape::Conn => spec_only::<ConnRecord>(self.name),
        }
    }
}
