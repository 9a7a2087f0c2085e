//! The wire protocol: versioned, length-prefixed binary frames.
//!
//! # Frame layout
//!
//! Every message — request or response — is one frame with a fixed
//! 24-byte little-endian header followed by an opcode-specific
//! payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic        "SUJN" (0x4e4a5553 LE)
//!      4     2  version      protocol version, currently 3
//!      6     2  opcode       see below
//!      8     8  request id   echoed verbatim in the response
//!     16     4  payload len  bytes following the header (≤ 1 GiB)
//!     20     4  payload crc  CRC-32 of the payload bytes
//! ```
//!
//! Version 2 added the payload checksum (a flipped bit on the wire is
//! a typed [`NetError::Checksum`], never silently corrupt samples) and
//! a per-request deadline budget in the `Sample` payload; version 3
//! made that budget word mandatory, so a `Sample` payload is exactly
//! four words and any other length is refused.
//!
//! # Opcodes
//!
//! Every payload is one value of the storage layer's [`Codec`]
//! ([`suj_storage::snapshot`]): written by `to_bytes`, read by
//! [`decode_payload`], which refuses bytes left over — so a payload has
//! exactly one byte string, the same rules as a snapshot section.
//!
//! | opcode | direction | payload |
//! |--------|-----------|---------|
//! | 1 `Prepare` | request | a [`UnionQuery`](suj_core::query::UnionQuery) |
//! | 2 `Sample` | request | [`SamplePayload`]: `prepared_id`, `n`, `seed`, `budget_ns` (0 = none), four `u64`s |
//! | 3 `Stats` | request | empty |
//! | 4 `Shutdown` | request | empty |
//! | 0x81 `Prepared` | response | [`PreparedPayload`]: `prepared_id: u64`, `estimations: u64`, summary string |
//! | 0x82 `Batch` | response | a columnar [`Batch`] (below) |
//! | 0x83 `Stats` | response | [`WireStats`]: eight `u64` counters |
//! | 0x84 `ShutdownAck` | response | empty |
//! | 0x85 `Busy` | response | retry hint, a `Duration` as `u64` nanoseconds |
//! | 0x86 `Error` | response | [`ErrorReply`]: `code` (a `u32` on the wire), message string |
//!
//! # Batch encoding
//!
//! Samples travel as a columnar batch, not tuple-at-a-time: the
//! attribute names (`u32` count), `n_rows: u64`, then each column in
//! the storage layer's column codec — typed slabs with validity
//! bitmaps, dictionary-coded strings. [`decode_batch`] transposes back
//! to row [`Tuple`]s.
//!
//! # Backpressure
//!
//! A server whose every slot is busy, with its wait limit reached,
//! answers `Sample` with `Busy` carrying the service's retry hint — the
//! condition is a first-class wire citizen, distinct from `Error`, so clients can
//! back off and retry instead of failing.

use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::Arc;
use suj_storage::snapshot::{crc32, ByteReader, ByteWriter, Codec};
use suj_storage::{Column, ColumnBuilder, SnapshotError, Tuple};

/// Frame magic: `b"SUJN"` little-endian.
pub const NET_MAGIC: u32 = u32::from_le_bytes(*b"SUJN");
/// Protocol version spoken by this implementation.
pub const NET_VERSION: u16 = 3;
/// Frame header size in bytes.
pub const HEADER_LEN: usize = 24;
/// Upper bound on a frame payload (1 GiB) — a malformed or malicious
/// length prefix must not drive allocation.
pub const MAX_PAYLOAD: u32 = 1 << 30;

/// Request opcode: prepare a query, returning a `prepared_id`.
pub const OP_PREPARE: u16 = 1;
/// Request opcode: draw `n` samples from a prepared query.
pub const OP_SAMPLE: u16 = 2;
/// Request opcode: fetch service counters.
pub const OP_STATS: u16 = 3;
/// Request opcode: shut the server down gracefully.
pub const OP_SHUTDOWN: u16 = 4;
/// Response opcode: a query was prepared.
pub const OP_PREPARED: u16 = 0x81;
/// Response opcode: a columnar batch of sampled tuples.
pub const OP_BATCH: u16 = 0x82;
/// Response opcode: service counters.
pub const OP_STATS_REPLY: u16 = 0x83;
/// Response opcode: shutdown acknowledged.
pub const OP_SHUTDOWN_ACK: u16 = 0x84;
/// Response opcode: every slot busy, retry after the carried hint.
pub const OP_BUSY: u16 = 0x85;
/// Response opcode: the request failed; payload carries code+message.
pub const OP_ERROR: u16 = 0x86;

/// Error code inside an `Error` frame: malformed request payload.
pub const ERR_BAD_REQUEST: u16 = 1;
/// Error code inside an `Error` frame: unknown `prepared_id`.
pub const ERR_UNKNOWN_PREPARED: u16 = 2;
/// Error code inside an `Error` frame: sampling/planning failed.
pub const ERR_ENGINE: u16 = 3;
/// Error code inside an `Error` frame: server is shutting down.
pub const ERR_SHUTTING_DOWN: u16 = 4;
/// Error code inside an `Error` frame: the request's deadline expired
/// before it finished.
pub const ERR_DEADLINE: u16 = 5;

/// Client- and server-side protocol errors.
#[derive(Debug)]
pub enum NetError {
    /// A socket read/write failed.
    Io(std::io::Error),
    /// A frame arrived with the wrong magic.
    BadMagic(u32),
    /// A frame arrived with an unsupported protocol version.
    UnsupportedVersion(u16),
    /// A frame declared a payload larger than [`MAX_PAYLOAD`].
    FrameTooLarge(u32),
    /// A payload failed to decode, or an unexpected opcode arrived.
    Protocol(String),
    /// The server reported every slot busy and the client exhausted its
    /// retries; the duration is the last retry hint received.
    Busy(std::time::Duration),
    /// The peer answered with an `Error` frame.
    Remote {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The request's deadline expired before it finished
    /// ([`ERR_DEADLINE`] on the wire).
    DeadlineExceeded,
    /// The server refused the request because it is draining
    /// ([`ERR_SHUTTING_DOWN`] on the wire).
    ShuttingDown,
    /// The connection dropped mid-exchange (reset, aborted, broken
    /// pipe, or unexpected EOF). Retryable on a fresh connection.
    ConnectionReset,
    /// A frame's payload failed its CRC — corrupted on the wire.
    Checksum {
        /// CRC declared in the frame header.
        expected: u32,
        /// CRC computed over the received payload.
        got: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            NetError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            NetError::FrameTooLarge(n) => write!(f, "frame payload {n} exceeds limit"),
            NetError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            NetError::Busy(hint) => {
                write!(f, "server busy, retries exhausted (last hint {hint:?})")
            }
            NetError::Remote { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
            NetError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request finished")
            }
            NetError::ShuttingDown => write!(f, "server is shutting down"),
            NetError::ConnectionReset => write!(f, "connection reset by peer"),
            NetError::Checksum { expected, got } => write!(
                f,
                "payload checksum mismatch (header {expected:#010x}, computed {got:#010x})"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof => NetError::ConnectionReset,
            _ => NetError::Io(e),
        }
    }
}

impl From<SnapshotError> for NetError {
    fn from(e: SnapshotError) -> Self {
        NetError::Protocol(e.to_string())
    }
}

/// One wire frame: opcode, request id, and raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// One of the `OP_*` opcodes.
    pub opcode: u16,
    /// Caller-chosen id, echoed by the server — also the default RNG
    /// stream of a `Sample` request.
    pub request_id: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A frame with an empty payload.
    pub fn empty(opcode: u16, request_id: u64) -> Self {
        Self {
            opcode,
            request_id,
            payload: Vec::new(),
        }
    }

    /// Writes header + payload to `w` as one vectored write (one
    /// syscall and, with `TCP_NODELAY`, one segment for a small frame on
    /// a socket), looping over short writes without copying the
    /// payload. The caller flushes. A payload over [`MAX_PAYLOAD`] is
    /// refused as [`NetError::FrameTooLarge`] before anything is
    /// written.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), NetError> {
        let len = u32::try_from(self.payload.len())
            .ok()
            .filter(|&n| n <= MAX_PAYLOAD)
            .ok_or(NetError::FrameTooLarge(u32::MAX))?;
        let mut header = [0u8; HEADER_LEN];
        header[0..4].copy_from_slice(&NET_MAGIC.to_le_bytes());
        header[4..6].copy_from_slice(&NET_VERSION.to_le_bytes());
        header[6..8].copy_from_slice(&self.opcode.to_le_bytes());
        header[8..16].copy_from_slice(&self.request_id.to_le_bytes());
        header[16..20].copy_from_slice(&len.to_le_bytes());
        header[20..24].copy_from_slice(&crc32(&self.payload).to_le_bytes());
        let mut parts = [IoSlice::new(&header), IoSlice::new(&self.payload)];
        let mut parts = &mut parts[..];
        while !parts.is_empty() {
            match w.write_vectored(parts) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero).into()),
                Ok(n) => IoSlice::advance_slices(&mut parts, n),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Reads one frame from `r`, validating magic, version, payload
    /// bound, and payload checksum before returning.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, NetError> {
        let mut header = [0u8; HEADER_LEN];
        r.read_exact(&mut header)?;
        let (opcode, request_id, len, expected_crc) = parse_header(&header)?;
        let mut payload = vec![0u8; len as usize];
        r.read_exact(&mut payload)?;
        verify_payload(&payload, expected_crc)?;
        Ok(Frame {
            opcode,
            request_id,
            payload,
        })
    }
}

/// Validates a raw frame header and extracts
/// `(opcode, request_id, payload_len, payload_crc)`. Used by readers
/// that assemble the header incrementally (e.g. the server's
/// timeout-polling loop); such readers must call [`verify_payload`]
/// once the payload bytes arrive.
pub fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u16, u64, u32, u32), NetError> {
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != NET_MAGIC {
        return Err(NetError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != NET_VERSION {
        return Err(NetError::UnsupportedVersion(version));
    }
    let opcode = u16::from_le_bytes(header[6..8].try_into().unwrap());
    let request_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    let len = u32::from_le_bytes(header[16..20].try_into().unwrap());
    if len > MAX_PAYLOAD {
        return Err(NetError::FrameTooLarge(len));
    }
    let crc = u32::from_le_bytes(header[20..24].try_into().unwrap());
    Ok((opcode, request_id, len, crc))
}

/// Checks payload bytes against the CRC carried in the frame header.
pub fn verify_payload(payload: &[u8], expected: u32) -> Result<(), NetError> {
    let got = crc32(payload);
    if got != expected {
        return Err(NetError::Checksum { expected, got });
    }
    Ok(())
}

/// Decodes the whole payload of a `what` frame (`"Sample"`, `"Batch"`,
/// …): every opcode's one entry point, which refuses leftover bytes and
/// names the frame and its length in the [`NetError::Protocol`] it
/// returns.
pub fn decode_payload<T: Codec>(what: &str, payload: &[u8]) -> Result<T, NetError> {
    T::from_bytes(payload)
        .map_err(|e| NetError::Protocol(format!("{what} payload of {} bytes: {e}", payload.len())))
}

/// A `Sample` request: `(prepared_id, n, seed, budget_ns)`, where
/// `budget_ns` is the per-request deadline budget in nanoseconds and 0
/// means no deadline.
pub type SamplePayload = (u64, u64, u64, u64);

/// A `Prepared` response: `(prepared_id, estimations, summary)`.
pub type PreparedPayload = (u64, u64, String);

/// A `Batch` response: the canonical attribute names and one column
/// per attribute, every column as long as the batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Attribute names, in schema order.
    pub attrs: Vec<Arc<str>>,
    /// One column per attribute.
    pub columns: Vec<Column>,
}

impl Codec for Batch {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_seq32(&self.attrs);
        (self.columns.first().map_or(0, Column::len) as u64).encode(w);
        self.columns.iter().for_each(|c| c.encode(w));
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let attrs: Vec<Arc<str>> = r.get_seq32()?;
        if attrs.is_empty() {
            // No column would bound `n_rows` by the payload's length,
            // and no served schema is empty.
            return Err(SnapshotError::Corrupt(
                "sample batch with no attributes".into(),
            ));
        }
        let n_rows = u64::decode(r)?;
        let columns: Vec<Column> = r.get_n(attrs.len())?;
        if columns.iter().any(|c| c.len() as u64 != n_rows) {
            return Err(SnapshotError::Corrupt(format!(
                "batch column length differs from its {n_rows} rows"
            )));
        }
        Ok(Batch { attrs, columns })
    }
}

/// Encodes a tuple batch as a [`Batch`]: one column per attribute.
pub fn encode_batch(attrs: &[Arc<str>], tuples: &[Tuple]) -> Vec<u8> {
    let columns = (0..attrs.len())
        .map(|pos| {
            let mut builder = ColumnBuilder::new();
            for t in tuples {
                builder.push_ref(t.get(pos));
            }
            builder.finish()
        })
        .collect();
    Batch {
        attrs: attrs.to_vec(),
        columns,
    }
    .to_bytes()
}

/// Decodes a [`Batch`] payload back into attribute names and row
/// tuples.
pub fn decode_batch(payload: &[u8]) -> Result<(Vec<String>, Vec<Tuple>), NetError> {
    let Batch { attrs, columns } = decode_payload("Batch", payload)?;
    let n_rows = columns.first().map_or(0, Column::len);
    let tuples = (0..n_rows)
        .map(|i| columns.iter().map(|c| c.value(i)).collect())
        .collect();
    Ok((attrs.iter().map(|a| a.to_string()).collect(), tuples))
}

/// A compact snapshot of server-side service counters carried by a
/// `Stats` response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Requests the server runs at once.
    pub workers: u64,
    /// Requests accepted so far, running or waiting for a slot.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// Requests that errored.
    pub failed: u64,
    /// Total tuples across all completed responses.
    pub tuples_served: u64,
    /// Resident bytes of the largest prepared artifact served.
    pub prepared_bytes: u64,
    /// Snapshot size behind the served artifacts (0 when frozen
    /// in-process).
    pub snapshot_bytes: u64,
    /// Snapshot restore wall time, in nanoseconds.
    pub restore_time_ns: u64,
}

/// The eight counters, each a `u64`, in declaration order.
impl Codec for WireStats {
    fn encode(&self, w: &mut ByteWriter) {
        for v in [
            self.workers,
            self.submitted,
            self.completed,
            self.failed,
            self.tuples_served,
            self.prepared_bytes,
            self.snapshot_bytes,
            self.restore_time_ns,
        ] {
            v.encode(w);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        Ok(WireStats {
            workers: Codec::decode(r)?,
            submitted: Codec::decode(r)?,
            completed: Codec::decode(r)?,
            failed: Codec::decode(r)?,
            tuples_served: Codec::decode(r)?,
            prepared_bytes: Codec::decode(r)?,
            snapshot_bytes: Codec::decode(r)?,
            restore_time_ns: Codec::decode(r)?,
        })
    }
}

/// An `Error` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// One of the `ERR_*` codes (a `u32` on the wire).
    pub code: u16,
    /// Human-readable detail.
    pub message: String,
}

impl Codec for ErrorReply {
    fn encode(&self, w: &mut ByteWriter) {
        u32::from(self.code).encode(w);
        w.put_str(&self.message);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let code = u16::try_from(u32::decode(r)?)
            .map_err(|_| SnapshotError::Corrupt("error code out of range".into()))?;
        Ok(ErrorReply {
            code,
            message: Codec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::Value;

    #[test]
    fn frame_round_trip() {
        let frame = Frame {
            opcode: OP_SAMPLE,
            request_id: 42,
            payload: (7u64, 100u64, 9u64, 0u64).to_bytes(),
        };
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), HEADER_LEN + frame.payload.len());
        let read = Frame::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(read, frame);
        let sample: SamplePayload = decode_payload("Sample", &read.payload).unwrap();
        assert_eq!(sample, (7, 100, 9, 0));
    }

    /// A writer that takes at most `limit` bytes per call, counting
    /// calls; `vectored` chooses between a gathering `write_vectored`
    /// and `Write`'s default, which writes the first non-empty slice.
    struct Trickle {
        out: Vec<u8>,
        limit: usize,
        calls: usize,
        vectored: bool,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.calls += 1;
            let n = buf.len().min(self.limit);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if !self.vectored {
                let first = bufs.iter().find(|b| !b.is_empty()).map_or(&[][..], |b| b);
                return self.write(first);
            }
            self.calls += 1;
            let mut room = self.limit;
            for buf in bufs {
                let n = buf.len().min(room);
                self.out.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.limit - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Short writes resume where they stopped, across the header and
    /// payload boundary, and a frame goes out in as few calls as the
    /// writer allows: one when it gathers, one per part when it does
    /// not, none for an empty payload.
    #[test]
    fn write_to_resumes_short_writes_in_as_few_calls_as_possible() {
        let frame = Frame {
            opcode: OP_BATCH,
            request_id: 5,
            payload: (0u8..200).collect(),
        };
        let mut whole = Vec::new();
        frame.write_to(&mut whole).unwrap();
        for (limit, vectored, calls) in [
            (usize::MAX, true, 1),
            (usize::MAX, false, 2),
            (7, true, whole.len().div_ceil(7)),
            (7, false, HEADER_LEN.div_ceil(7) + 200usize.div_ceil(7)),
        ] {
            let mut w = Trickle {
                out: Vec::new(),
                limit,
                calls: 0,
                vectored,
            };
            frame.write_to(&mut w).unwrap();
            assert_eq!(w.out, whole, "limit {limit} vectored {vectored}");
            assert_eq!(w.calls, calls, "limit {limit} vectored {vectored}");
        }
        let mut w = Trickle {
            out: Vec::new(),
            limit: usize::MAX,
            calls: 0,
            vectored: false,
        };
        Frame::empty(OP_STATS, 1).write_to(&mut w).unwrap();
        assert_eq!((w.out.len(), w.calls), (HEADER_LEN, 1));
    }

    #[test]
    fn bad_magic_version_and_length_are_rejected() {
        let frame = Frame::empty(OP_STATS, 1);
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();

        let mut bad = buf.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::BadMagic(_))
        ));

        let mut bad = buf.clone();
        bad[4] = 0xff;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::UnsupportedVersion(_))
        ));

        let mut bad = buf.clone();
        bad[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::FrameTooLarge(_))
        ));

        // Truncated stream: a typed connection error, not a panic.
        assert!(matches!(
            Frame::read_from(&mut buf[..HEADER_LEN - 3].as_ref()),
            Err(NetError::ConnectionReset)
        ));
    }

    #[test]
    fn flipped_payload_bits_fail_the_checksum() {
        let frame = Frame {
            opcode: OP_SAMPLE,
            request_id: 9,
            payload: (1u64, 64u64, 3u64, 0u64).to_bytes(),
        };
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        for bit in 0..8 {
            for byte in HEADER_LEN..buf.len() {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    matches!(
                        Frame::read_from(&mut bad.as_slice()),
                        Err(NetError::Checksum { .. })
                    ),
                    "flip of payload byte {byte} bit {bit} must be caught"
                );
            }
        }
        // A flipped CRC byte itself is also a checksum error.
        let mut bad = buf.clone();
        bad[20] ^= 0x01;
        assert!(matches!(
            Frame::read_from(&mut bad.as_slice()),
            Err(NetError::Checksum { .. })
        ));
    }

    #[test]
    fn batch_round_trip_preserves_tuples() {
        let attrs: Vec<std::sync::Arc<str>> = vec!["a".into(), "b".into(), "c".into()];
        let tuples = vec![
            Tuple::new(vec![Value::int(1), Value::str("x"), Value::Null]),
            Tuple::new(vec![Value::int(2), Value::str("y"), Value::float(1.5)]),
            Tuple::new(vec![Value::int(3), Value::str("x"), Value::Null]),
        ];
        let payload = encode_batch(&attrs, &tuples);
        let (names, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(decoded, tuples);
    }

    #[test]
    fn empty_batch_round_trips() {
        let attrs: Vec<std::sync::Arc<str>> = vec!["a".into()];
        let payload = encode_batch(&attrs, &[]);
        let (names, decoded) = decode_batch(&payload).unwrap();
        assert_eq!(names, vec!["a"]);
        assert!(decoded.is_empty());
    }

    /// With no column to check it against the payload, a batch of
    /// arity 0 would trust its row count: 12 bytes made 10⁸ empty
    /// tuples, and 2⁶² overflowed the allocation.
    #[test]
    fn zero_arity_batch_is_refused() {
        for n_rows in [1 << 62, 100_000_000, 0u64] {
            let payload = (0u32, n_rows).to_bytes();
            assert!(
                matches!(decode_batch(&payload), Err(NetError::Protocol(_))),
                "n_rows = {n_rows}"
            );
        }
    }

    /// A batch is its columns and nothing after them.
    #[test]
    fn batch_with_trailing_bytes_is_refused() {
        let attrs: Vec<std::sync::Arc<str>> = vec!["a".into()];
        let mut payload = encode_batch(&attrs, &[Tuple::new(vec![Value::int(5)])]);
        assert!(decode_batch(&payload).is_ok());
        payload.push(0);
        match decode_batch(&payload) {
            Err(NetError::Protocol(message)) => assert!(message.contains("left over"), "{message}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn auxiliary_payload_round_trips() {
        let stats = WireStats {
            workers: 4,
            submitted: 10,
            completed: 9,
            failed: 1,
            tuples_served: 90,
            prepared_bytes: 4096,
            snapshot_bytes: 2048,
            restore_time_ns: 1_000_000,
        };
        assert_eq!(
            decode_payload::<WireStats>("Stats", &stats.to_bytes()).unwrap(),
            stats
        );
        let d = std::time::Duration::from_micros(250);
        assert_eq!(
            decode_payload::<std::time::Duration>("Busy", &d.to_bytes()).unwrap(),
            d
        );
        let error = ErrorReply {
            code: ERR_ENGINE,
            message: "boom".into(),
        };
        assert_eq!(
            decode_payload::<ErrorReply>("Error", &error.to_bytes()).unwrap(),
            error
        );
        let prepared: PreparedPayload = (3, 1, "plan".into());
        assert_eq!(
            decode_payload::<PreparedPayload>("Prepared", &prepared.to_bytes()).unwrap(),
            prepared
        );
        // A code past `u16` is refused, not truncated.
        let wide = (u32::from(u16::MAX) + 1, String::from("boom")).to_bytes();
        assert!(decode_payload::<ErrorReply>("Error", &wide).is_err());
    }
}
