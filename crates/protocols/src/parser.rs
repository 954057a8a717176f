//! The `ConnParsable` analogue: traits and types through which the
//! framework drives application-layer parsing.

use std::sync::Arc;

use retina_filter::{FieldValue, SessionData};

use crate::dns::DnsMessage;
use crate::http::HttpTransaction;
use crate::ssh::SshHandshake;
use crate::tls::TlsHandshake;

/// Direction of a byte-stream segment relative to the connection
/// originator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Client (originator) to server.
    ToServer,
    /// Server (responder) to client.
    ToClient,
}

/// Result of probing a byte-stream prefix for a protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// The prefix is definitely this protocol.
    Certain,
    /// Not enough data to decide yet.
    Unsure,
    /// Definitely not this protocol.
    NotForUs,
}

/// Result of feeding a segment to a parser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseResult {
    /// Keep feeding data.
    Continue,
    /// A session completed; collect it with [`ConnParser::drain_sessions`].
    /// Further data may start another session (e.g. HTTP pipelining).
    Done,
    /// The stream is not parseable as this protocol after all.
    Error,
}

/// A session produced by a user-defined protocol module (§3.3): exposes
/// a protocol name and named fields like the built-ins, plus manual
/// cloning (trait objects cannot derive `Clone`).
pub trait CustomSession: Send + std::fmt::Debug {
    /// Protocol name, matching the filter-language identifier.
    fn protocol(&self) -> &str;

    /// Field accessor (same contract as [`SessionData::field`]).
    fn field(&self, name: &str) -> Option<FieldValue<'_>>;

    /// Clones into a new box.
    fn clone_box(&self) -> Box<dyn CustomSession>;
}

/// A parsed application-layer session: one of the built-in protocols, or
/// a [`CustomSession`] from an out-of-tree protocol module (§3.3).
///
/// `Session` implements [`SessionData`], so the session filter can match
/// any variant's fields without knowing the concrete protocol.
#[derive(Debug)]
pub enum Session {
    /// A TLS handshake transcript.
    Tls(TlsHandshake),
    /// One HTTP request/response transaction.
    Http(HttpTransaction),
    /// One DNS query/response exchange.
    Dns(DnsMessage),
    /// An SSH banner exchange.
    Ssh(SshHandshake),
    /// A session from a user-registered protocol module.
    Custom(Box<dyn CustomSession>),
}

impl Clone for Session {
    fn clone(&self) -> Self {
        match self {
            Session::Tls(t) => Session::Tls(t.clone()),
            Session::Http(h) => Session::Http(h.clone()),
            Session::Dns(d) => Session::Dns(d.clone()),
            Session::Ssh(s) => Session::Ssh(s.clone()),
            Session::Custom(c) => Session::Custom(c.clone_box()),
        }
    }
}

impl PartialEq for Session {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Session::Tls(a), Session::Tls(b)) => a == b,
            (Session::Http(a), Session::Http(b)) => a == b,
            (Session::Dns(a), Session::Dns(b)) => a == b,
            (Session::Ssh(a), Session::Ssh(b)) => a == b,
            // Custom sessions are compared by identity of protocol only;
            // field-wise equality is not part of the trait contract.
            (Session::Custom(a), Session::Custom(b)) => a.protocol() == b.protocol(),
            _ => false,
        }
    }
}

impl SessionData for Session {
    fn protocol(&self) -> &str {
        match self {
            Session::Tls(_) => "tls",
            Session::Http(_) => "http",
            Session::Dns(_) => "dns",
            Session::Ssh(_) => "ssh",
            Session::Custom(c) => c.protocol(),
        }
    }

    fn field(&self, name: &str) -> Option<FieldValue<'_>> {
        match self {
            Session::Tls(t) => t.field(name),
            Session::Http(h) => h.field(name),
            Session::Dns(d) => d.field(name),
            Session::Ssh(s) => s.field(name),
            Session::Custom(c) => c.field(name),
        }
    }
}

/// What the framework should do with a connection after one of this
/// protocol's sessions has been handled — the paper's
/// `session_match_state` / `session_nomatch_state` (Figure 10), which
/// drive the Figure 4 state transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The protocol produces no further sessions of interest; the
    /// connection's app-layer state can be torn down (TLS after the
    /// handshake, SSH after the banner exchange).
    Remove,
    /// More sessions may follow on the same connection (HTTP keep-alive
    /// transactions, repeated DNS exchanges).
    KeepParsing,
}

/// A connection-level protocol parser (the paper's `ConnParsable`).
///
/// The framework probes a connection's first payload bytes with every
/// registered parser; once one returns [`ProbeResult::Certain`] the
/// connection is parsed by that module until its sessions complete
/// (Figure 4's Probe → Parse transition).
pub trait ConnParser: Send {
    /// Protocol name, matching the filter-language identifier.
    fn name(&self) -> &'static str;

    /// Probes a stream prefix (first data of either direction).
    fn probe(&self, data: &[u8], dir: Direction) -> ProbeResult;

    /// Feeds one in-order segment.
    fn parse(&mut self, data: &[u8], dir: Direction) -> ParseResult;

    /// Removes and returns all completed sessions.
    fn drain_sessions(&mut self) -> Vec<Session>;

    /// Connection disposition after a session *matched* the filter.
    fn session_match_state(&self) -> SessionState {
        SessionState::KeepParsing
    }

    /// Connection disposition after a session *failed* the filter.
    fn session_nomatch_state(&self) -> SessionState {
        SessionState::KeepParsing
    }
}

/// Constructor for a boxed [`ConnParser`]. Shared, so registries stay
/// `Clone`; a closure may capture per-registry parser settings.
pub type ParserFactory = Arc<dyn Fn() -> Box<dyn ConnParser> + Send + Sync>;

/// Factory registry: maps protocol names to parser constructors.
///
/// The runtime populates this from the union of the filter's
/// connection-layer protocols and the subscription's required parsers
/// (the "Parser Registry" of Figure 2).
#[derive(Clone)]
pub struct ParserRegistry {
    factories: Vec<(&'static str, ParserFactory)>,
}

impl std::fmt::Debug for ParserRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParserRegistry")
            .field("protocols", &self.protocols())
            .finish()
    }
}

impl Default for ParserRegistry {
    /// Registry with all built-in protocols.
    fn default() -> Self {
        let mut r = ParserRegistry {
            factories: Vec::new(),
        };
        r.register("tls", || Box::new(crate::tls::TlsParser::new()));
        r.register("http", || Box::new(crate::http::HttpParser::new()));
        r.register("dns", || Box::new(crate::dns::DnsParser::new()));
        r.register("ssh", || Box::new(crate::ssh::SshParser::new()));
        r.register("quic", || Box::new(crate::quic::QuicParser::new()));
        r
    }
}

impl ParserRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        ParserRegistry {
            factories: Vec::new(),
        }
    }

    /// Registers a parser factory under a protocol name.
    pub fn register(
        &mut self,
        name: &'static str,
        factory: impl Fn() -> Box<dyn ConnParser> + Send + Sync + 'static,
    ) {
        if !self.factories.iter().any(|(n, _)| *n == name) {
            self.factories.push((name, Arc::new(factory)));
        }
    }

    /// Instantiates a parser by protocol name.
    pub fn new_parser(&self, name: &str) -> Option<Box<dyn ConnParser>> {
        self.factories
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, f)| f())
    }

    /// Instantiates parsers for a set of protocol names, skipping unknown
    /// names.
    pub fn new_parsers(&self, names: &[String]) -> Vec<Box<dyn ConnParser>> {
        names.iter().filter_map(|n| self.new_parser(n)).collect()
    }

    /// Registered protocol names.
    pub fn protocols(&self) -> Vec<&'static str> {
        self.factories.iter().map(|(n, _)| *n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_defaults() {
        let r = ParserRegistry::default();
        assert_eq!(r.protocols(), vec!["tls", "http", "dns", "ssh", "quic"]);
        assert!(r.new_parser("tls").is_some());
        assert!(r.new_parser("quic").is_some());
        assert!(r.new_parser("gopher").is_none());
        let parsers = r.new_parsers(&["tls".into(), "bogus".into(), "http".into()]);
        assert_eq!(parsers.len(), 2);
    }

    #[test]
    fn duplicate_registration_ignored() {
        let mut r = ParserRegistry::default();
        let before = r.protocols().len();
        r.register("tls", || Box::new(crate::tls::TlsParser::new()));
        assert_eq!(r.protocols().len(), before);
    }

    #[test]
    fn session_protocol_names() {
        let s = Session::Ssh(SshHandshake::default());
        assert_eq!(s.protocol(), "ssh");
    }
}
