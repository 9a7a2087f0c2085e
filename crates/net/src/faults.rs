//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a seeded schedule of transport faults — delays,
//! connection drops, short writes, and byte flips. Each connection
//! derives its own [`FaultInjector`] from `(plan seed, stream id)` via
//! [`SujRng::derive`], so a chaos run is fully reproducible: the same
//! root seed yields the same faults at the same points, every time,
//! independent of thread scheduling.
//!
//! The injector sits between the socket and the protocol code inside
//! [`Conn`], the stream wrapper both [`Server`](crate::Server) and
//! [`Client`](crate::Client) read and write through. In production
//! builds no plan is installed and `Conn` is a zero-cost passthrough;
//! the hooks that install a plan are gated behind
//! `#[cfg(any(test, feature = "faults"))]`.
//!
//! Faults are injected at observable protocol points only — bytes in
//! transit, not engine state — so every induced failure surfaces as a
//! typed outcome: a flipped bit becomes
//! [`NetError::Checksum`](crate::NetError::Checksum), a dropped
//! connection becomes
//! [`NetError::ConnectionReset`](crate::NetError::ConnectionReset),
//! and a delay either succeeds late or trips a deadline.

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use suj_stats::rng::SujRng;

/// Per-operation fault probabilities, in per-mille (‰). A value of 0
/// disables that fault class; 1000 fires on every operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultConfig {
    /// Chance an I/O operation is delayed before executing.
    pub delay_per_mille: u16,
    /// Upper bound for an injected delay (uniform in `0..max_delay`).
    pub max_delay: Duration,
    /// Chance the connection dies before the operation (reads fail
    /// with `ConnectionReset`, writes with `BrokenPipe`).
    pub drop_per_mille: u16,
    /// Chance a write is truncated mid-buffer and the connection dies.
    pub short_write_per_mille: u16,
    /// Chance one bit of the buffer is flipped in transit.
    pub flip_per_mille: u16,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            delay_per_mille: 0,
            max_delay: Duration::from_millis(2),
            drop_per_mille: 0,
            short_write_per_mille: 0,
            flip_per_mille: 0,
        }
    }
}

impl FaultConfig {
    /// The standard chaos mix used by the chaos suite: frequent small
    /// delays, occasional drops, short writes, and byte flips.
    pub fn standard() -> Self {
        FaultConfig {
            delay_per_mille: 100,
            max_delay: Duration::from_millis(2),
            drop_per_mille: 15,
            short_write_per_mille: 10,
            flip_per_mille: 10,
        }
    }
}

/// A seeded fault schedule shared by all connections of a server or
/// client under test.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
}

impl FaultPlan {
    /// A plan rooted at `seed` with the given fault mix.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        FaultPlan { seed, config }
    }

    /// The plan's root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives the injector for one connection. Stream ids are
    /// assigned in accept/connect order, so the fault sequence per
    /// connection is a pure function of `(plan seed, stream id)`.
    pub fn injector(&self, stream_id: u64) -> FaultInjector {
        FaultInjector {
            rng: SujRng::derive(self.seed, stream_id),
            config: self.config,
            dead: false,
        }
    }
}

/// Per-connection fault state: a derived RNG and the configured mix.
/// Once a drop or short write fires, the connection stays dead — like
/// a real broken socket, every subsequent operation fails.
#[derive(Debug)]
pub struct FaultInjector {
    rng: SujRng,
    config: FaultConfig,
    dead: bool,
}

impl FaultInjector {
    fn roll(&mut self, per_mille: u16) -> bool {
        // Always consume one RNG draw so the fault sequence does not
        // depend on which classes are enabled.
        let draw = self.rng.range_u64(0, 1000);
        draw < u64::from(per_mille)
    }

    fn maybe_delay(&mut self) {
        let max = self.config.max_delay.as_nanos() as u64;
        let fire = self.roll(self.config.delay_per_mille);
        if max > 0 {
            let ns = self.rng.range_u64(0, max);
            if fire {
                std::thread::sleep(Duration::from_nanos(ns));
            }
        }
    }

    /// Wraps one read: may delay, kill the connection, or flip a bit
    /// of the bytes handed to the caller.
    pub fn read(&mut self, inner: &mut impl Read, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(ErrorKind::ConnectionReset.into());
        }
        self.maybe_delay();
        if self.roll(self.config.drop_per_mille) {
            self.dead = true;
            return Err(ErrorKind::ConnectionReset.into());
        }
        let flip = self.roll(self.config.flip_per_mille);
        let n = inner.read(buf)?;
        if flip && n > 0 {
            let bit = self.rng.index(n * 8);
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        Ok(n)
    }

    /// Wraps one write: may delay, kill the connection, truncate the
    /// buffer (then kill), or flip a bit of the bytes sent.
    pub fn write(&mut self, inner: &mut impl Write, buf: &[u8]) -> std::io::Result<usize> {
        if self.dead {
            return Err(ErrorKind::BrokenPipe.into());
        }
        self.maybe_delay();
        if self.roll(self.config.drop_per_mille) {
            self.dead = true;
            return Err(ErrorKind::BrokenPipe.into());
        }
        let short = self.roll(self.config.short_write_per_mille);
        let flip = self.roll(self.config.flip_per_mille);
        if short && buf.len() > 1 {
            let cut = 1 + self.rng.index(buf.len() - 1);
            let _ = inner.write(&buf[..cut]);
            let _ = inner.flush();
            self.dead = true;
            return Err(ErrorKind::BrokenPipe.into());
        }
        if flip && !buf.is_empty() {
            let mut copy = buf.to_vec();
            let bit = self.rng.index(copy.len() * 8);
            copy[bit / 8] ^= 1 << (bit % 8);
            let n = inner.write(&copy)?;
            return Ok(n);
        }
        inner.write(buf)
    }
}

/// A TCP stream with an optional fault injector in the byte path.
///
/// Production code constructs it with [`Conn::new`]`(stream, None)` —
/// a zero-cost passthrough. Chaos builds install an injector derived
/// from the active [`FaultPlan`].
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    injector: Option<FaultInjector>,
}

impl Conn {
    /// Wraps `stream`, optionally injecting faults from `injector`.
    pub fn new(stream: TcpStream, injector: Option<FaultInjector>) -> Self {
        Conn { stream, injector }
    }

    /// The underlying socket, for timeout configuration and metadata.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match &mut self.injector {
            Some(inj) => inj.read(&mut self.stream, buf),
            None => self.stream.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match &mut self.injector {
            Some(inj) => inj.write(&mut self.stream, buf),
            None => self.stream.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match &mut self.injector {
            // One slice per `write`, as `Write`'s default does, so the
            // injector rolls once per part of a frame and a seeded plan
            // keeps its fault schedule.
            Some(inj) => {
                let buf = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b);
                inj.write(&mut self.stream, buf)
            }
            None => self.stream.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_same_fault_schedule() {
        let plan = FaultPlan::new(7, FaultConfig::standard());
        let mut a = plan.injector(3);
        let mut b = plan.injector(3);
        let mut rolls_a = Vec::new();
        let mut rolls_b = Vec::new();
        for _ in 0..256 {
            rolls_a.push(a.roll(500));
            rolls_b.push(b.roll(500));
        }
        assert_eq!(rolls_a, rolls_b);
        // A different stream id yields a different schedule.
        let mut c = plan.injector(4);
        let rolls_c: Vec<bool> = (0..256).map(|_| c.roll(500)).collect();
        assert_ne!(rolls_a, rolls_c);
    }

    #[test]
    fn dead_connection_stays_dead() {
        let plan = FaultPlan::new(
            1,
            FaultConfig {
                drop_per_mille: 1000,
                ..FaultConfig::default()
            },
        );
        let mut inj = plan.injector(0);
        let mut sink = Vec::new();
        assert!(inj.write(&mut sink, b"hello").is_err());
        assert!(sink.is_empty());
        // Even with the drop probability exhausted, the connection
        // never recovers.
        let mut src: &[u8] = b"world";
        assert!(inj.read(&mut src, &mut [0u8; 4]).is_err());
        assert!(inj.write(&mut sink, b"again").is_err());
    }

    #[test]
    fn short_write_truncates_then_kills() {
        let plan = FaultPlan::new(
            2,
            FaultConfig {
                short_write_per_mille: 1000,
                ..FaultConfig::default()
            },
        );
        let mut inj = plan.injector(0);
        let mut sink = Vec::new();
        let err = inj.write(&mut sink, &[9u8; 64]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::BrokenPipe);
        assert!(!sink.is_empty() && sink.len() < 64, "got {}", sink.len());
    }

    #[test]
    fn flips_change_exactly_one_bit() {
        let plan = FaultPlan::new(
            3,
            FaultConfig {
                flip_per_mille: 1000,
                ..FaultConfig::default()
            },
        );
        let mut inj = plan.injector(0);
        let mut sink = Vec::new();
        let original = [0u8; 32];
        inj.write(&mut sink, &original).unwrap();
        let flipped_bits: u32 = sink.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped_bits, 1, "exactly one bit must differ");
    }

    #[test]
    fn passthrough_conn_is_faithful() {
        // Conn with no injector must not alter bytes. Use a loopback
        // socket pair.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut tx = Conn::new(client, None);
        let mut rx = Conn::new(server, None);
        tx.write_all(b"deterministic").unwrap();
        tx.flush().unwrap();
        let mut got = [0u8; 13];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"deterministic");
    }
}
