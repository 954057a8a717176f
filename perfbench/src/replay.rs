//! Replays of single layers over a workload's frames, timed from
//! outside: the NIC's RSS hash and hardware-rule match, the connection
//! table's lookup-or-insert, and the content matcher behind `~`.
//!
//! These layers run inside `VirtualNic::ingest` and
//! `ConnTracker::process`, where the traced run cannot split them out,
//! so each gets its own loop over the same inputs. A loop is timed as a
//! whole (two clock reads per chunk of calls), which keeps the clock's
//! own cost out of the per-call figure.

use std::hint::black_box;

use retina_conntrack::{ConnKey, ConnTable, FiveTuple, TimeoutConfig};
use retina_core::util::rdtsc;
use retina_core::ParsedPacket;
use retina_nic::flow::FlowRuleEngine;
use retina_nic::{DeviceCaps, FlowRule, RssHasher};
use retina_protocols::parser::{ConnParser, Direction};
use retina_protocols::tls::TlsParser;
use retina_protocols::Session;
use retina_support::bytes::Bytes;
use retina_support::rematch::Regex;

/// Calls timed between two clock reads in the chunked loops.
const CHUNK: usize = 1024;

/// The frames that parse to L2–L4, with their timestamps.
pub fn parsed(frames: &[(Bytes, u64)]) -> Vec<(ParsedPacket, u64)> {
    frames
        .iter()
        .filter_map(|(f, ts)| ParsedPacket::parse(f).ok().map(|p| (p, *ts)))
        .collect()
}

#[allow(clippy::cast_precision_loss)]
fn per_call(cycles: u64, calls: usize) -> f64 {
    if calls == 0 {
        0.0
    } else {
        cycles as f64 / calls as f64
    }
}

/// Cycles per `RssHasher::hash_packet` with the NIC's symmetric key.
pub fn rss_cycles(pkts: &[(ParsedPacket, u64)]) -> f64 {
    let hasher = RssHasher::symmetric();
    let t0 = rdtsc();
    let mut acc = 0u32;
    for (p, _) in pkts {
        acc ^= hasher.hash_packet(black_box(p));
    }
    let cycles = rdtsc().wrapping_sub(t0);
    black_box(acc);
    per_call(cycles, pkts.len())
}

/// Cycles per `FlowRuleEngine::apply` with `rules` installed.
///
/// # Errors
/// Fails if a rule does not install under `caps`.
pub fn hw_rule_cycles(
    pkts: &[(ParsedPacket, u64)],
    rules: &[FlowRule],
    caps: DeviceCaps,
) -> Result<f64, String> {
    let mut engine = FlowRuleEngine::new(caps);
    for rule in rules {
        engine.install(rule.clone()).map_err(|e| e.to_string())?;
    }
    let t0 = rdtsc();
    for (p, _) in pkts {
        black_box(engine.apply(black_box(p)));
    }
    let cycles = rdtsc().wrapping_sub(t0);
    Ok(per_call(cycles, pkts.len()))
}

/// Cycles per `ConnTable::get_or_insert_with` over the workload's
/// `(rss_hash, ConnKey)` sequence, with the timer wheel advanced
/// (untimed) between chunks as the tracker's cadence would.
pub fn table_cycles(pkts: &[(ParsedPacket, u64)]) -> f64 {
    let hasher = RssHasher::symmetric();
    let ops: Vec<(u32, ConnKey, u64)> = pkts
        .iter()
        .map(|(p, ts)| (hasher.hash_packet(p), ConnKey::from_packet(p), *ts))
        .collect();
    let mut table: ConnTable<()> = ConnTable::new(TimeoutConfig::default());
    let mut cycles = 0u64;
    for (chunk, pkt_chunk) in ops.chunks(CHUNK).zip(pkts.chunks(CHUNK)) {
        let t0 = rdtsc();
        for ((hash, key, ts), (p, _)) in chunk.iter().zip(pkt_chunk) {
            let entry =
                table.get_or_insert_with(*hash, *key, *ts, || (FiveTuple::from_packet(p), ()));
            entry.last_seen_ns = *ts;
        }
        cycles += rdtsc().wrapping_sub(t0);
        let now = chunk.last().map_or(0, |op| op.2);
        table.advance(now, |_, entry| {
            black_box(entry);
        });
    }
    per_call(cycles, ops.len())
}

/// Server names of the workload's TLS ClientHellos, in frame order.
pub fn tls_snis(frames: &[(Bytes, u64)]) -> Vec<String> {
    // A ClientHello record, then a ChangeCipherSpec record to close the
    // handshake so the parser emits what it has.
    const CCS: [u8; 6] = [0x14, 0x03, 0x03, 0x00, 0x01, 0x01];
    let mut snis = Vec::new();
    for (frame, _) in frames {
        let Ok(pkt) = ParsedPacket::parse(frame) else {
            continue;
        };
        let payload = pkt.payload(frame);
        if payload.len() < 6 || payload[0] != 0x16 || payload[5] != 0x01 {
            continue;
        }
        let mut parser = TlsParser::new();
        parser.parse(payload, Direction::ToServer);
        parser.parse(&CCS, Direction::ToServer);
        for session in parser.drain_sessions() {
            if let Session::Tls(hs) = session {
                if !hs.sni().is_empty() {
                    snis.push(hs.sni().to_string());
                }
            }
        }
    }
    snis
}

/// The patterns of every `~` predicate in a filter source.
pub fn regex_literals(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find('~') {
        rest = rest[at + 1..].trim_start();
        let Some(quoted) = rest.strip_prefix('\'') else {
            continue;
        };
        let Some(end) = quoted.find('\'') else {
            break;
        };
        out.push(quoted[..end].to_string());
        rest = &quoted[end + 1..];
    }
    out
}

/// Cycles per `Regex::is_match` of each pattern over `texts`; `None`
/// when there is nothing to match.
///
/// # Errors
/// Fails if a pattern does not compile.
pub fn rematch_cycles(patterns: &[String], texts: &[String]) -> Result<Option<f64>, String> {
    if patterns.is_empty() || texts.is_empty() {
        return Ok(None);
    }
    let mut cycles = 0u64;
    let mut calls = 0usize;
    for pattern in patterns {
        let re = Regex::new(pattern).map_err(|e| e.to_string())?;
        let t0 = rdtsc();
        for t in texts {
            black_box(re.is_match(black_box(t)));
        }
        cycles += rdtsc().wrapping_sub(t0);
        calls += texts.len();
    }
    Ok(Some(per_call(cycles, calls)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regex_literals_finds_every_pattern() {
        assert_eq!(
            regex_literals(r"tls.sni ~ '(.+?\.)?nflxvideo\.net'"),
            vec![r"(.+?\.)?nflxvideo\.net".to_string()]
        );
        assert_eq!(
            regex_literals("tls.sni ~ 'a' or http.host ~'b' and tcp.port = 80"),
            vec!["a".to_string(), "b".to_string()]
        );
        assert!(regex_literals("ipv4 and tcp").is_empty());
        assert!(regex_literals("").is_empty());
    }
}
