//! Parser-level fault injection.
//!
//! [`ChaosParser`] is a [`ConnParser`] that panics on payloads whose
//! content hash satisfies the armed condition — a stand-in for a buggy
//! protocol module. The runtime must convert those panics into
//! recoverable parse errors (`CoreStats::parser_panics`) instead of
//! taking the worker core down.
//!
//! Panic decisions are **content-based** (a hash of the bytes being
//! probed or parsed), never call-count-based, so they are independent
//! of scheduling and burst boundaries and replay exactly.
//!
//! The panic condition travels with the parser: each [`ChaosParser`]
//! carries its modulus, and [`chaos_parser_factory`] returns a registry
//! factory that captures it. Nothing is process-global, so runs (and
//! tests) with different moduli can share a process.

use retina_protocols::parser::{ConnParser, Direction, ParseResult, ProbeResult};
use retina_protocols::Session;

/// FNV-1a over the payload: cheap, stable, and endian-free, so the
/// panic decision depends only on bytes on the wire.
pub fn content_hash(data: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deliberately unreliable protocol parser. Registry factory:
/// [`chaos_parser_factory`].
///
/// Behavior per payload hash `r = content_hash(data) % modulus`:
/// * `r == 0` — panic (the injected fault),
/// * `r == 1` on probe — claim the stream (`Certain`), so some
///   connections reach the parse path,
/// * otherwise — `NotForUs` / `Error` (a well-behaved rejection).
///
/// Disarmed (no modulus), it never claims or panics.
#[derive(Debug, Default, Clone, Copy)]
pub struct ChaosParser {
    modulus: Option<u64>,
}

impl ChaosParser {
    /// A parser that panics on data whose content hash is
    /// `0 (mod modulus)`. `modulus` is clamped to at least 2 (1 would
    /// panic on everything, including the probes that reject the
    /// stream).
    pub fn armed(modulus: u64) -> Self {
        ChaosParser {
            modulus: Some(modulus.max(2)),
        }
    }

    /// A parser that never claims a stream or panics.
    pub fn disarmed() -> Self {
        ChaosParser { modulus: None }
    }

    /// The armed modulus, if any.
    pub fn modulus(&self) -> Option<u64> {
        self.modulus
    }
}

impl ConnParser for ChaosParser {
    fn name(&self) -> &'static str {
        "chaos"
    }

    fn probe(&self, data: &[u8], _dir: Direction) -> ProbeResult {
        let Some(modulus) = self.modulus else {
            return ProbeResult::NotForUs;
        };
        match content_hash(data) % modulus {
            0 => panic!("injected chaos parser panic (probe)"),
            1 => ProbeResult::Certain,
            _ => ProbeResult::NotForUs,
        }
    }

    fn parse(&mut self, data: &[u8], _dir: Direction) -> ParseResult {
        let Some(modulus) = self.modulus else {
            return ParseResult::Error;
        };
        if content_hash(data).is_multiple_of(modulus) {
            panic!("injected chaos parser panic (parse)");
        }
        ParseResult::Error
    }

    fn drain_sessions(&mut self) -> Vec<Session> {
        Vec::new()
    }
}

/// Registry factory for [`ChaosParser`]s armed with `modulus` (see
/// [`ChaosParser::armed`]); register it in place of a real protocol's
/// parser, e.g. `registry.register("tls", chaos_parser_factory(m))`.
pub fn chaos_parser_factory(
    modulus: u64,
) -> impl Fn() -> Box<dyn ConnParser> + Send + Sync + 'static {
    let parser = ChaosParser::armed(modulus);
    move || Box::new(parser) as Box<dyn ConnParser>
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_parser_never_claims_or_panics() {
        let mut p = ChaosParser::disarmed();
        assert_eq!(p.modulus(), None);
        assert_eq!(
            p.probe(b"anything", Direction::ToServer),
            ProbeResult::NotForUs
        );
        assert_eq!(
            p.parse(b"anything", Direction::ToServer),
            ParseResult::Error
        );
        assert!(p.drain_sessions().is_empty());
    }

    #[test]
    fn armed_parser_panics_by_content_class() {
        // Find one payload per residue class.
        let mut by_class: [Option<u8>; 4] = [None; 4];
        for b in 0u8..=255 {
            by_class[(content_hash(&[b]) % 4) as usize].get_or_insert(b);
        }
        let panicking = by_class[0].expect("some byte hashes to class 0");
        let claiming = by_class[1].expect("some byte hashes to class 1");
        // The factory's parsers carry the modulus they were built with.
        let p = chaos_parser_factory(4)();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.probe(&[panicking], Direction::ToServer)
        }));
        assert!(caught.is_err(), "class-0 content must panic");
        assert_eq!(
            p.probe(&[claiming], Direction::ToServer),
            ProbeResult::Certain
        );
        // Same content, same decision — every time.
        assert_eq!(
            p.probe(&[claiming], Direction::ToClient),
            ProbeResult::Certain
        );
        assert_eq!(ChaosParser::armed(1).modulus(), Some(2), "clamped");
    }

    #[test]
    fn hash_is_stable() {
        assert_eq!(content_hash(b"retina"), content_hash(b"retina"));
        assert_ne!(content_hash(b"retina"), content_hash(b"retinb"));
        assert_eq!(content_hash(b""), 0xCBF2_9CE4_8422_2325);
    }
}
