//! Symmetric Receive Side Scaling via the Toeplitz hash.
//!
//! RSS distributes packets among RX queues by hashing the connection
//! 4-tuple. Retina requires *symmetric* RSS (§5.1): both directions of a
//! connection must land on the same core so connection state never crosses
//! cores. We use the standard Toeplitz construction with the symmetric key
//! of Woo & Park — `0x6d5a` repeated — which guarantees
//! `hash(src, dst) == hash(dst, src)`.

use std::net::IpAddr;

use retina_wire::ParsedPacket;

/// Length of the Toeplitz key in bytes (enough for IPv6 input: 36 bytes of
/// input need 36+4 bytes of key).
const KEY_LEN: usize = 52;

/// The symmetric RSS key: `0x6d5a` repeated (Woo & Park, "Scalable TCP
/// Session Monitoring with Symmetric Receive-side Scaling").
pub const SYMMETRIC_KEY: [u8; KEY_LEN] = {
    let mut key = [0u8; KEY_LEN];
    let mut i = 0;
    while i < KEY_LEN {
        key[i] = if i % 2 == 0 { 0x6d } else { 0x5a };
        i += 1;
    }
    key
};

/// Longest input the key covers: each input bit needs a 32-bit key
/// window starting at that bit.
const MAX_INPUT: usize = KEY_LEN - 4;

/// Per-byte Toeplitz lookup tables: `table[i][b]` is the XOR of the key
/// windows that the set bits of byte value `b` select at input position
/// `i`. The hash of an input is then one lookup per byte, XORed
/// together, instead of eight conditional XORs and key shifts per byte
/// (the technique of DPDK's `rte_softrss`, specialised to one key).
#[derive(Clone)]
struct ToeplitzTable([[u32; 256]; MAX_INPUT]);

impl ToeplitzTable {
    /// Builds the tables for `key`. A `const fn`, so the symmetric key's
    /// tables are computed at compile time and cost nothing at run time.
    const fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut table = [[0u32; 256]; MAX_INPUT];
        let mut i = 0;
        while i < MAX_INPUT {
            // The key window each bit of byte `i` selects, MSB first.
            let mut windows = [0u32; 8];
            let mut bit = 0;
            while bit < 8 {
                windows[bit] = key_window(key, i * 8 + bit);
                bit += 1;
            }
            // Each byte value extends a smaller one by its lowest set
            // bit, so one XOR per entry fills the table.
            let mut b = 1usize;
            while b < 256 {
                let low = b & b.wrapping_neg();
                table[i][b] = table[i][b ^ low] ^ windows[7 - low.trailing_zeros() as usize];
                b += 1;
            }
            i += 1;
        }
        ToeplitzTable(table)
    }
}

/// The 32 key bits starting at bit `start` (MSB-first bit numbering).
// The final cast keeps the low 32 of 39 bits on purpose: that is the window.
#[allow(clippy::cast_possible_truncation)]
const fn key_window(key: &[u8; KEY_LEN], start: usize) -> u32 {
    let byte = start / 8;
    let mut wide = 0u64;
    let mut k = 0;
    while k < 5 {
        wide = (wide << 8) | key[byte + k] as u64;
        k += 1;
    }
    // `wide` holds 40 bits beginning at bit `byte * 8`; drop the
    // `start % 8` bits before the window and the bits after it.
    ((wide << (start % 8)) >> 8) as u32
}

impl std::fmt::Debug for ToeplitzTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ToeplitzTable")
    }
}

/// The symmetric key's tables, built at compile time.
static SYMMETRIC_TABLE: ToeplitzTable = ToeplitzTable::new(&SYMMETRIC_KEY);

/// Where a hasher's tables live: the compile-time static for the
/// symmetric key, or a heap copy built for a caller's key.
#[derive(Debug, Clone)]
enum Tables {
    Static(&'static ToeplitzTable),
    Owned(Box<ToeplitzTable>),
}

/// Toeplitz hasher over a configurable key.
#[derive(Debug, Clone)]
pub struct RssHasher {
    tables: Tables,
}

impl Default for RssHasher {
    fn default() -> Self {
        Self::symmetric()
    }
}

impl RssHasher {
    /// A hasher using the symmetric key (the configuration Retina installs).
    pub fn symmetric() -> Self {
        RssHasher {
            tables: Tables::Static(&SYMMETRIC_TABLE),
        }
    }

    /// A hasher with a caller-provided key (e.g. Microsoft's reference key,
    /// which is *not* symmetric — used in tests to show why symmetry
    /// matters).
    pub fn with_key(key: [u8; KEY_LEN]) -> Self {
        RssHasher {
            tables: Tables::Owned(Box::new(ToeplitzTable::new(&key))),
        }
    }

    fn table(&self) -> &[[u32; 256]; MAX_INPUT] {
        match &self.tables {
            Tables::Static(t) => &t.0,
            Tables::Owned(t) => &t.0,
        }
    }

    /// The raw Toeplitz hash of `input`.
    ///
    /// Each input bit selects a 32-bit window of the key; set bits XOR
    /// their window into the result. The per-byte tables fold each
    /// byte's eight windows into one lookup.
    ///
    /// # Panics
    /// Panics if `input` is longer than the key covers (48 bytes).
    #[inline]
    pub fn toeplitz(&self, input: &[u8]) -> u32 {
        assert!(input.len() <= MAX_INPUT, "input too long for key");
        input
            .iter()
            .zip(self.table())
            .fold(0, |acc, (&b, row)| acc ^ row[usize::from(b)])
    }

    /// [`RssHasher::toeplitz`] over a fixed-size input. With the length
    /// known at compile time the lookups unroll without bounds checks,
    /// about twice as fast as the slice loop.
    fn toeplitz_array<const N: usize>(&self, input: &[u8; N]) -> u32 {
        const { assert!(N <= MAX_INPUT, "input too long for key") };
        let table = self.table();
        let mut hash = 0;
        for i in 0..N {
            hash ^= table[i][usize::from(input[i])];
        }
        hash
    }

    /// Hashes an IP 4-tuple (addresses + ports).
    pub fn hash_tuple(
        &self,
        src_ip: &IpAddr,
        dst_ip: &IpAddr,
        src_port: u16,
        dst_port: u16,
    ) -> u32 {
        let ports = ((u32::from(src_port) << 16) | u32::from(dst_port)).to_be_bytes();
        match (src_ip, dst_ip) {
            (IpAddr::V4(s), IpAddr::V4(d)) => {
                let mut input = [0u8; 12];
                input[0..4].copy_from_slice(&s.octets());
                input[4..8].copy_from_slice(&d.octets());
                input[8..12].copy_from_slice(&ports);
                self.toeplitz_array(&input)
            }
            (IpAddr::V6(s), IpAddr::V6(d)) => {
                let mut input = [0u8; 36];
                input[0..16].copy_from_slice(&s.octets());
                input[16..32].copy_from_slice(&d.octets());
                input[32..36].copy_from_slice(&ports);
                self.toeplitz_array(&input)
            }
            // Mixed families cannot occur in one packet; hash nothing.
            _ => 0,
        }
    }

    /// Hashes a parsed packet's 4-tuple.
    pub fn hash_packet(&self, pkt: &ParsedPacket) -> u32 {
        self.hash_tuple(&pkt.src_ip, &pkt.dst_ip, pkt.src_port, pkt.dst_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use retina_support::proptest::any;

    /// The bit-serial Toeplitz definition, kept as the oracle the
    /// table-driven hash is checked against.
    fn toeplitz_bitwise(key: &[u8; KEY_LEN], input: &[u8]) -> u32 {
        let mut result = 0u32;
        // The sliding 32-bit window of key bits, advanced one bit per
        // input bit. Seed with the first 32 key bits.
        let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
        for (i, byte) in input.iter().enumerate() {
            let mut b = *byte;
            for bit in 0..8 {
                if b & 0x80 != 0 {
                    result ^= window;
                }
                b <<= 1;
                // Shift in the next key bit.
                let next_bit_index = (i * 8) + bit + 32;
                let next_bit = (key[next_bit_index / 8] >> (7 - (next_bit_index % 8))) & 1;
                window = (window << 1) | u32::from(next_bit);
            }
        }
        result
    }

    /// The hash input `hash_tuple` builds: addresses, then ports.
    fn tuple_input(src: &[u8], dst: &[u8], sp: u16, dp: u16) -> Vec<u8> {
        let mut input = Vec::with_capacity(36);
        input.extend_from_slice(src);
        input.extend_from_slice(dst);
        input.extend_from_slice(&sp.to_be_bytes());
        input.extend_from_slice(&dp.to_be_bytes());
        input
    }

    fn v4(s: &str) -> IpAddr {
        IpAddr::V4(s.parse().unwrap())
    }

    fn v6(s: &str) -> IpAddr {
        IpAddr::V6(s.parse().unwrap())
    }

    /// Microsoft's reference Toeplitz key and verification vectors from the
    /// RSS specification ("Verifying the RSS Hash Calculation").
    const MS_KEY: [u8; 52] = {
        let base = [
            0x6du8, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3,
            0x8f, 0xb0, 0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3,
            0x80, 0x30, 0xf2, 0x0c, 0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
        ];
        let mut key = [0u8; 52];
        let mut i = 0;
        while i < 40 {
            key[i] = base[i];
            i += 1;
        }
        key
    };

    #[test]
    fn microsoft_vector_ipv4_with_ports() {
        // 66.9.149.187:2794 -> 161.142.100.80:1766 => 0x51ccc178
        let hasher = RssHasher::with_key(MS_KEY);
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&[66, 9, 149, 187]);
        input[4..8].copy_from_slice(&[161, 142, 100, 80]);
        input[8..10].copy_from_slice(&2794u16.to_be_bytes());
        input[10..12].copy_from_slice(&1766u16.to_be_bytes());
        assert_eq!(hasher.toeplitz(&input), 0x51ccc178);
    }

    #[test]
    fn microsoft_vector_ipv4_second() {
        // 199.92.111.2:14230 -> 65.69.140.83:4739 => 0xc626b0ea
        let hasher = RssHasher::with_key(MS_KEY);
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&[199, 92, 111, 2]);
        input[4..8].copy_from_slice(&[65, 69, 140, 83]);
        input[8..10].copy_from_slice(&14230u16.to_be_bytes());
        input[10..12].copy_from_slice(&4739u16.to_be_bytes());
        assert_eq!(hasher.toeplitz(&input), 0xc626b0ea);
    }

    #[test]
    fn symmetric_key_is_symmetric_v4() {
        let hasher = RssHasher::symmetric();
        let fwd = hasher.hash_tuple(&v4("10.1.2.3"), &v4("93.184.216.34"), 50123, 443);
        let rev = hasher.hash_tuple(&v4("93.184.216.34"), &v4("10.1.2.3"), 443, 50123);
        assert_eq!(fwd, rev);
        assert_ne!(fwd, 0);
    }

    #[test]
    fn symmetric_key_is_symmetric_v6() {
        let hasher = RssHasher::symmetric();
        let fwd = hasher.hash_tuple(&v6("2001:db8::1"), &v6("2607:f8b0::2"), 55555, 443);
        let rev = hasher.hash_tuple(&v6("2607:f8b0::2"), &v6("2001:db8::1"), 443, 55555);
        assert_eq!(fwd, rev);
    }

    #[test]
    fn microsoft_key_is_not_symmetric() {
        // Demonstrates why the default key cannot be used for Retina.
        let hasher = RssHasher::with_key(MS_KEY);
        let fwd = hasher.hash_tuple(&v4("10.1.2.3"), &v4("93.184.216.34"), 50123, 443);
        let rev = hasher.hash_tuple(&v4("93.184.216.34"), &v4("10.1.2.3"), 443, 50123);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn flows_spread_across_queues() {
        // The periodic symmetric key trades hash entropy for symmetry, so
        // we do not demand distinct 32-bit hashes. What load balancing
        // needs is an even spread of realistic flows across queues.
        let hasher = RssHasher::symmetric();
        let mut counts = [0usize; 8];
        let mut state = 0x12345678u64;
        let mut next = move || {
            // xorshift64* — deterministic pseudo-random flows.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state = state.wrapping_mul(0x2545F4914F6CDD1D);
            state
        };
        const FLOWS: usize = 4096;
        for _ in 0..FLOWS {
            let r = next();
            let src = v4(&format!(
                "10.{}.{}.{}",
                (r >> 8) & 0xff,
                (r >> 16) & 0xff,
                (r >> 24) & 0xff
            ));
            let dst = v4(&format!("171.64.{}.{}", (r >> 32) & 0xff, (r >> 40) & 0xff));
            let port = 1024 + ((r >> 48) & 0xffff) as u16 % 50000;
            let h = hasher.hash_tuple(&src, &dst, port, 443);
            counts[(h % 8) as usize] += 1;
        }
        for (q, &c) in counts.iter().enumerate() {
            // Each of the 8 queues should get 5–25% of 4096 flows.
            assert!(
                (FLOWS / 20..FLOWS / 4).contains(&c),
                "queue {q} got {c} of {FLOWS} flows: {counts:?}"
            );
        }
    }

    #[test]
    fn tables_cover_every_input_length() {
        // Inputs up to the key's reach, including ones no tuple uses.
        for key in [SYMMETRIC_KEY, MS_KEY] {
            let hasher = RssHasher::with_key(key);
            let input: Vec<u8> = (0..=u8::MAX)
                .take(MAX_INPUT)
                .map(|i| i.wrapping_mul(0x9d) ^ 0x5c)
                .collect();
            for len in 0..=MAX_INPUT {
                assert_eq!(
                    hasher.toeplitz(&input[..len]),
                    toeplitz_bitwise(&key, &input[..len]),
                    "length {len}"
                );
            }
        }
        // The compile-time symmetric tables match ones built at run time.
        let built = RssHasher::with_key(SYMMETRIC_KEY);
        let input = [0xffu8; MAX_INPUT];
        assert_eq!(
            RssHasher::symmetric().toeplitz(&input),
            built.toeplitz(&input)
        );
    }

    retina_support::proptest! {
        #[test]
        fn table_matches_bitwise_oracle_v4(
            a in any::<u32>(),
            b in any::<u32>(),
            pa in any::<u16>(),
            pb in any::<u16>(),
        ) {
            let input = tuple_input(&a.to_be_bytes(), &b.to_be_bytes(), pa, pb);
            let (sa, sb) = (IpAddr::V4(a.into()), IpAddr::V4(b.into()));
            for key in [SYMMETRIC_KEY, MS_KEY] {
                retina_support::prop_assert_eq!(
                    RssHasher::with_key(key).hash_tuple(&sa, &sb, pa, pb),
                    toeplitz_bitwise(&key, &input)
                );
            }
            retina_support::prop_assert_eq!(
                RssHasher::symmetric().hash_tuple(&sa, &sb, pa, pb),
                toeplitz_bitwise(&SYMMETRIC_KEY, &input)
            );
        }

        #[test]
        fn table_matches_bitwise_oracle_v6(
            a in any::<u128>(),
            b in any::<u128>(),
            pa in any::<u16>(),
            pb in any::<u16>(),
        ) {
            let input = tuple_input(&a.to_be_bytes(), &b.to_be_bytes(), pa, pb);
            let (sa, sb) = (IpAddr::V6(a.into()), IpAddr::V6(b.into()));
            for key in [SYMMETRIC_KEY, MS_KEY] {
                retina_support::prop_assert_eq!(
                    RssHasher::with_key(key).hash_tuple(&sa, &sb, pa, pb),
                    toeplitz_bitwise(&key, &input)
                );
            }
            retina_support::prop_assert_eq!(
                RssHasher::symmetric().hash_tuple(&sa, &sb, pa, pb),
                toeplitz_bitwise(&SYMMETRIC_KEY, &input)
            );
        }

        #[test]
        fn symmetry_holds_for_all_v4_tuples(
            a in any::<u32>(),
            b in any::<u32>(),
            pa in any::<u16>(),
            pb in any::<u16>(),
        ) {
            let hasher = RssHasher::symmetric();
            let sa = IpAddr::V4(a.into());
            let sb = IpAddr::V4(b.into());
            retina_support::prop_assert_eq!(
                hasher.hash_tuple(&sa, &sb, pa, pb),
                hasher.hash_tuple(&sb, &sa, pb, pa)
            );
        }
    }
}
