//! Sectioned, checksummed on-disk snapshots of prepared artifacts.
//!
//! A replica that cold-starts from a snapshot skips the prepare-path
//! work the artifacts embody: column transposition, dictionary
//! interning, parameter estimation. The format is built for that read
//! path:
//!
//! * **Sectioned** — a flat list of `(kind, payload)` sections behind
//!   one magic/version header. Readers skip or reject unknown kinds
//!   without parsing them; writers append new kinds without breaking
//!   old payloads.
//! * **Checksummed** — every section carries a CRC-32 of its payload,
//!   verified before any decoding. Corruption surfaces as a named
//!   [`SnapshotError`], never as a panic or a garbage artifact.
//! * **Little-endian, aligned slabs** — fixed-width payloads (`i64` /
//!   `f64` values, `u32` codes and CSR arrays, validity words) are
//!   written as raw slabs at 8-byte-aligned offsets, so a later PR can
//!   mmap a snapshot and point columns straight into the mapping
//!   instead of copying.
//!
//! This module is the container and the primitive codecs
//! ([`ByteWriter`] / [`ByteReader`] / [`write_sections`] /
//! [`read_sections`], relations, predicates, crash-safe file
//! replacement); the one snapshot that is ever written — the engine's
//! catalog + prepared-query cache — is composed in `suj-core`.

use crate::column::{Column, StrPool, Validity};
use crate::predicate::{CompareOp, Predicate};
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Snapshot file magic: identifies the container, not any section.
pub const MAGIC: [u8; 8] = *b"SUJSNAP\0";

/// Container format version. Readers reject anything newer.
pub const VERSION: u32 = 1;

/// Section kind: one serialized [`Relation`].
pub const SECTION_RELATION: u32 = 1;

/// Hard cap on any single length prefix (rows, strings, sections).
/// Corrupt files can claim absurd lengths; decoding validates every
/// claimed length against the bytes actually present, and this cap
/// additionally bounds any up-front allocation.
const MAX_LEN: u64 = 1 << 40;

/// Errors raised while writing or reading snapshots. Corrupt input
/// always lands in one of the named variants — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The container version is newer than this reader supports.
    UnsupportedVersion(u32),
    /// A section's payload does not match its stored CRC-32.
    ChecksumMismatch {
        /// Kind of the damaged section.
        kind: u32,
    },
    /// The input ended before a declared length was satisfied.
    Truncated,
    /// Structurally invalid content (bad tags, inconsistent lengths,
    /// out-of-range references) with context.
    Corrupt(String),
    /// An underlying I/O failure (message of the `std::io::Error`).
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (reader supports {VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch { kind } => {
                write!(f, "checksum mismatch in section kind {kind}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Io(msg) => write!(f, "snapshot i/o error: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Slicing-by-8 tables: `t[0]` is the classic byte-at-a-time table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so the
/// eight bytes of one step are looked up independently and xor-ed.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE 802.3 polynomial) of `bytes` — the checksum of every
/// snapshot section and every wire frame. Implemented locally (no
/// external crates, no intrinsics): slicing-by-8, eight bytes a step
/// with a byte-wise tail, the same value as the byte-at-a-time
/// definition on every input.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Little-endian byte sink with 8-byte alignment control. All snapshot
/// encoders write through this, so alignment invariants live in one
/// place.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` by bit pattern, little-endian.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Pads with zero bytes to the next 8-byte boundary — slabs written
    /// after this sit at aligned offsets (relative to the payload
    /// start, which the section container also keeps 8-aligned).
    pub fn align8(&mut self) {
        while !self.buf.len().is_multiple_of(8) {
            self.buf.push(0);
        }
    }

    /// Appends a `u32` slab (aligned, raw little-endian values).
    pub fn put_u32_slab(&mut self, values: &[u32]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_u32(v);
        }
    }

    /// Appends a `u64` slab (aligned, raw little-endian values).
    pub fn put_u64_slab(&mut self, values: &[u64]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_u64(v);
        }
    }

    /// Appends an `i64` slab (aligned, raw little-endian values).
    pub fn put_i64_slab(&mut self, values: &[i64]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_i64(v);
        }
    }

    /// Appends an `f64` slab (aligned, raw bit patterns).
    pub fn put_f64_slab(&mut self, values: &[f64]) {
        self.align8();
        self.put_u64(values.len() as u64);
        for &v in values {
            self.put_f64(v);
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot payload. Every
/// read returns [`SnapshotError::Truncated`] instead of running off the
/// end; length prefixes are validated against the bytes remaining
/// before any allocation sized by them.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length prefix, validating it against `bytes_per_item`
    /// still available.
    fn get_len(&mut self, bytes_per_item: usize) -> Result<usize, SnapshotError> {
        let n = self.get_u64()?;
        if n > MAX_LEN || (n as usize).saturating_mul(bytes_per_item) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = self.get_len(1)?;
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| SnapshotError::Corrupt("invalid utf-8 in string".into()))
    }

    /// Skips padding to the next 8-byte boundary (mirrors
    /// [`ByteWriter::align8`]).
    pub fn align8(&mut self) -> Result<(), SnapshotError> {
        while !self.pos.is_multiple_of(8) {
            self.take(1)?;
        }
        Ok(())
    }

    /// Reads a `u32` slab written by [`ByteWriter::put_u32_slab`].
    pub fn get_u32_slab(&mut self) -> Result<Vec<u32>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(4)?;
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads a `u64` slab written by [`ByteWriter::put_u64_slab`].
    pub fn get_u64_slab(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads an `i64` slab written by [`ByteWriter::put_i64_slab`].
    pub fn get_i64_slab(&mut self) -> Result<Vec<i64>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads an `f64` slab written by [`ByteWriter::put_f64_slab`].
    pub fn get_f64_slab(&mut self) -> Result<Vec<f64>, SnapshotError> {
        self.align8()?;
        let n = self.get_len(8)?;
        let raw = self.take(n * 8)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect())
    }
}

/// Assembles a snapshot container from `(kind, payload)` sections:
/// magic, version, section count, then per section a 16-byte header
/// (`kind: u32`, `len: u64`, `crc: u32`) followed by the payload padded
/// to 8 bytes. Headers are 16 bytes and the preamble is 16 bytes, so
/// every payload starts 8-aligned in the file.
pub fn write_sections(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (kind, payload) in sections {
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
        while out.len() % 8 != 0 {
            out.push(0);
        }
    }
    out
}

/// Parses a snapshot container, validating magic, version, bounds, and
/// every section checksum. Returns `(kind, payload)` views in file
/// order.
pub fn read_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let n_sections = r.get_u32()?;
    let mut sections = Vec::new();
    for _ in 0..n_sections {
        let kind = r.get_u32()?;
        let len = r.get_u64()?;
        let crc = r.get_u32()?;
        if len > MAX_LEN || len as usize > r.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let payload = r.take(len as usize)?;
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch { kind });
        }
        r.align8()?;
        sections.push((kind, payload));
    }
    if r.remaining() != 0 {
        // A corrupted section count can otherwise decode "successfully"
        // with sections silently dropped; the writer never leaves
        // trailing bytes, so any remainder is corruption.
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing bytes after the last section",
            r.remaining()
        )));
    }
    Ok(sections)
}

/// Serializes one [`Value`] (tag byte + payload).
pub fn encode_value(v: &Value, w: &mut ByteWriter) {
    match v {
        Value::Null => w.put_u8(0),
        Value::Int(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
        Value::Float(x) => {
            w.put_u8(2);
            w.put_f64(*x);
        }
        Value::Str(s) => {
            w.put_u8(3);
            w.put_str(s);
        }
    }
}

/// Deserializes one [`Value`].
pub fn decode_value(r: &mut ByteReader<'_>) -> Result<Value, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Int(r.get_i64()?)),
        2 => Ok(Value::Float(r.get_f64()?)),
        3 => Ok(Value::str(r.get_str()?)),
        tag => Err(SnapshotError::Corrupt(format!("unknown value tag {tag}"))),
    }
}

/// Serializes a validity bitmap: a has-nulls flag, then (only when any
/// row is NULL) the packed `u64` words as an aligned slab.
fn encode_validity(validity: &Validity, w: &mut ByteWriter) {
    if !validity.has_nulls() {
        w.put_u8(0);
        return;
    }
    w.put_u8(1);
    let len = validity.len();
    let mut words = vec![0u64; len.div_ceil(64)];
    for i in 0..len {
        if validity.is_valid(i) {
            words[i >> 6] |= 1u64 << (i & 63);
        }
    }
    w.put_u64_slab(&words);
}

/// Deserializes a validity bitmap for `len` rows.
fn decode_validity(r: &mut ByteReader<'_>, len: usize) -> Result<Validity, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(Validity::all_valid(len)),
        1 => {
            let words = r.get_u64_slab()?;
            if words.len() != len.div_ceil(64) {
                return Err(SnapshotError::Corrupt(format!(
                    "validity bitmap has {} words for {len} rows",
                    words.len()
                )));
            }
            let mut validity = Validity::all_valid(0);
            for i in 0..len {
                validity.push(words[i >> 6] & (1u64 << (i & 63)) != 0);
            }
            Ok(validity)
        }
        tag => Err(SnapshotError::Corrupt(format!(
            "unknown validity tag {tag}"
        ))),
    }
}

/// Serializes one [`Column`]. Fixed-width payloads (`i64`/`f64` values,
/// `u32` dictionary codes, validity words) land as aligned raw slabs.
pub fn encode_column(col: &Column, w: &mut ByteWriter) {
    match col {
        Column::Int64 { values, validity } => {
            w.put_u8(0);
            encode_validity(validity, w);
            w.put_i64_slab(values);
        }
        Column::Float64 { values, validity } => {
            w.put_u8(1);
            encode_validity(validity, w);
            w.put_f64_slab(values);
        }
        Column::Str {
            codes,
            pool,
            validity,
        } => {
            w.put_u8(2);
            encode_validity(validity, w);
            w.put_u64(pool.len() as u64);
            for s in pool.strings() {
                w.put_str(s);
            }
            w.put_u32_slab(codes);
        }
        Column::Mixed { values } => {
            w.put_u8(3);
            w.put_u64(values.len() as u64);
            for v in values {
                encode_value(v, w);
            }
        }
    }
}

/// Deserializes one [`Column`] of `len` rows.
pub fn decode_column(r: &mut ByteReader<'_>, len: usize) -> Result<Column, SnapshotError> {
    let tag = r.get_u8()?;
    match tag {
        0 => {
            let validity = decode_validity(r, len)?;
            let values = r.get_i64_slab()?;
            if values.len() != len {
                return Err(SnapshotError::Corrupt("int column length mismatch".into()));
            }
            Ok(Column::Int64 { values, validity })
        }
        1 => {
            let validity = decode_validity(r, len)?;
            let values = r.get_f64_slab()?;
            if values.len() != len {
                return Err(SnapshotError::Corrupt(
                    "float column length mismatch".into(),
                ));
            }
            Ok(Column::Float64 { values, validity })
        }
        2 => {
            let validity = decode_validity(r, len)?;
            let n_strings = r.get_u64()?;
            if n_strings > MAX_LEN || n_strings as usize > r.remaining() {
                return Err(SnapshotError::Truncated);
            }
            let mut pool = StrPool::new();
            for _ in 0..n_strings {
                let s = r.get_str()?;
                let code = pool.intern(s);
                if code as u64 + 1 != pool.len() as u64 {
                    return Err(SnapshotError::Corrupt(
                        "duplicate string in dictionary pool".into(),
                    ));
                }
            }
            let codes = r.get_u32_slab()?;
            if codes.len() != len {
                return Err(SnapshotError::Corrupt("str column length mismatch".into()));
            }
            for (i, &c) in codes.iter().enumerate() {
                if validity.is_valid(i) && c as usize >= pool.len() {
                    return Err(SnapshotError::Corrupt(format!(
                        "dictionary code {c} out of range (pool has {})",
                        pool.len()
                    )));
                }
            }
            Ok(Column::Str {
                codes,
                pool: Arc::new(pool),
                validity,
            })
        }
        3 => {
            let n = r.get_len(1)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(decode_value(r)?);
            }
            if values.len() != len {
                return Err(SnapshotError::Corrupt(
                    "mixed column length mismatch".into(),
                ));
            }
            Ok(Column::Mixed { values })
        }
        tag => Err(SnapshotError::Corrupt(format!("unknown column tag {tag}"))),
    }
}

/// Serializes one [`Relation`]: name, schema, original size, row count,
/// then each column.
pub fn encode_relation(rel: &Relation, w: &mut ByteWriter) {
    w.put_str(rel.name());
    w.put_u32(rel.schema().arity() as u32);
    for attr in rel.schema().attrs() {
        w.put_str(attr);
    }
    w.put_u64(rel.original_size() as u64);
    w.put_u64(rel.len() as u64);
    for p in 0..rel.schema().arity() {
        encode_column(rel.column(p), w);
    }
}

/// Deserializes one [`Relation`].
pub fn decode_relation(r: &mut ByteReader<'_>) -> Result<Relation, SnapshotError> {
    let name = r.get_str()?.to_string();
    let arity = r.get_u32()? as usize;
    if arity > r.remaining() {
        return Err(SnapshotError::Truncated);
    }
    let mut attrs = Vec::with_capacity(arity);
    for _ in 0..arity {
        attrs.push(r.get_str()?.to_string());
    }
    let schema =
        Schema::new(attrs).map_err(|e| SnapshotError::Corrupt(format!("invalid schema: {e}")))?;
    let original_size = r.get_u64()?;
    let len = r.get_len(1)?;
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        columns.push(decode_column(r, len)?);
    }
    let rel = Relation::from_columns(&name, schema, columns)
        .map_err(|e| SnapshotError::Corrupt(format!("invalid relation: {e}")))?;
    if original_size > MAX_LEN {
        return Err(SnapshotError::Corrupt("original size out of range".into()));
    }
    Ok(rel.with_original_size(original_size as usize))
}

/// Serializes one [`Predicate`] (tag byte per node, recursive).
pub fn encode_predicate(p: &Predicate, w: &mut ByteWriter) {
    match p {
        Predicate::True => w.put_u8(0),
        Predicate::Compare { attr, op, value } => {
            w.put_u8(1);
            w.put_str(attr);
            w.put_u8(match op {
                CompareOp::Eq => 0,
                CompareOp::Ne => 1,
                CompareOp::Lt => 2,
                CompareOp::Le => 3,
                CompareOp::Gt => 4,
                CompareOp::Ge => 5,
            });
            encode_value(value, w);
        }
        Predicate::And(ps) => {
            w.put_u8(2);
            w.put_u64(ps.len() as u64);
            for q in ps {
                encode_predicate(q, w);
            }
        }
        Predicate::Or(ps) => {
            w.put_u8(3);
            w.put_u64(ps.len() as u64);
            for q in ps {
                encode_predicate(q, w);
            }
        }
        Predicate::Not(q) => {
            w.put_u8(4);
            encode_predicate(q, w);
        }
    }
}

/// Deserializes one [`Predicate`].
pub fn decode_predicate(r: &mut ByteReader<'_>) -> Result<Predicate, SnapshotError> {
    match r.get_u8()? {
        0 => Ok(Predicate::True),
        1 => {
            let attr: Arc<str> = Arc::from(r.get_str()?);
            let op = match r.get_u8()? {
                0 => CompareOp::Eq,
                1 => CompareOp::Ne,
                2 => CompareOp::Lt,
                3 => CompareOp::Le,
                4 => CompareOp::Gt,
                5 => CompareOp::Ge,
                tag => {
                    return Err(SnapshotError::Corrupt(format!("unknown compare op {tag}")));
                }
            };
            let value = decode_value(r)?;
            Ok(Predicate::Compare { attr, op, value })
        }
        2 => {
            let n = r.get_len(1)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(decode_predicate(r)?);
            }
            Ok(Predicate::And(ps))
        }
        3 => {
            let n = r.get_len(1)?;
            let mut ps = Vec::with_capacity(n);
            for _ in 0..n {
                ps.push(decode_predicate(r)?);
            }
            Ok(Predicate::Or(ps))
        }
        4 => Ok(Predicate::Not(Box::new(decode_predicate(r)?))),
        tag => Err(SnapshotError::Corrupt(format!(
            "unknown predicate tag {tag}"
        ))),
    }
}

// ---------------------------------------------------------------------
// Crash-safe file replacement
// ---------------------------------------------------------------------

fn sibling(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    std::path::PathBuf::from(name)
}

/// The staging file [`atomic_replace`] writes before the final rename.
/// A crash mid-write leaves (at most) a torn file *here*, never at the
/// destination path.
pub fn snapshot_tmp_path(path: impl AsRef<std::path::Path>) -> std::path::PathBuf {
    sibling(path.as_ref(), ".tmp")
}

/// Where [`atomic_replace`] preserves the previous good file, and
/// where `Engine::load_snapshot` looks when the newest snapshot fails
/// to decode.
pub fn snapshot_prev_path(path: impl AsRef<std::path::Path>) -> std::path::PathBuf {
    sibling(path.as_ref(), ".prev")
}

/// Whether a decode failure warrants falling back to the previous
/// snapshot: everything a crash or bit-rot can produce (i/o errors,
/// truncation, corruption, a garbage magic) — but *not*
/// [`SnapshotError::UnsupportedVersion`], which is a deployment
/// mismatch that silently serving stale data would only mask.
pub fn fallback_eligible(e: &SnapshotError) -> bool {
    !matches!(e, SnapshotError::UnsupportedVersion(_))
}

/// Crash-safe file replacement: stages `bytes` at
/// [`snapshot_tmp_path`], fsyncs, then atomically renames over `path`,
/// first preserving the existing file (if any) at
/// [`snapshot_prev_path`]. Returns the bytes written.
///
/// The invariant: whatever instant the process dies, `path` holds a
/// complete snapshot (old or new), and at least one of
/// `path`/`path.prev` decodes — a torn write can only ever land in the
/// staging file.
pub fn atomic_replace(
    path: impl AsRef<std::path::Path>,
    bytes: &[u8],
) -> Result<u64, SnapshotError> {
    use std::io::Write as _;
    let path = path.as_ref();
    let tmp = snapshot_tmp_path(path);
    if path.exists() {
        let prev = snapshot_prev_path(path);
        let _ = std::fs::remove_file(&prev);
        // Hard link keeps `path` valid at every instant; fall back to
        // a copy on filesystems without link support.
        std::fs::hard_link(path, &prev).or_else(|_| std::fs::copy(path, &prev).map(|_| ()))?;
    }
    {
        let mut staged = std::fs::File::create(&tmp)?;
        staged.write_all(bytes)?;
        staged.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(dir) {
            let _ = dir.sync_all();
        }
    }
    Ok(bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample_relation() -> Relation {
        let schema = Schema::new(["k", "name", "score"]).unwrap();
        Relation::new(
            "users",
            schema,
            vec![
                tuple![1i64, "ada", 3.5f64],
                tuple![2i64, "grace", 4.0f64],
                Tuple::new(vec![Value::int(3), Value::Null, Value::Null]),
                tuple![1i64, "ada", 2.25f64],
            ],
        )
        .unwrap()
    }

    use crate::tuple::Tuple;

    fn assert_relations_equal(a: &Relation, b: &Relation) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.schema().attrs(), b.schema().attrs());
        assert_eq!(a.len(), b.len());
        assert_eq!(a.original_size(), b.original_size());
        for i in 0..a.len() {
            for p in 0..a.schema().arity() {
                assert_eq!(a.column(p).value(i), b.column(p).value(i), "cell ({i},{p})");
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time definition `crc32` must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// SplitMix64 bytes: a fixed pseudo-random buffer.
    fn random_bytes(len: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn crc32_matches_bytewise_at_every_length_and_offset() {
        // Every split between the eight-byte steps and the tail, at
        // every alignment of the slice start.
        let buf = random_bytes(8 + 300, 1);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        for start in 0..8 {
            for len in 0..=300 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_matches_bytewise_on_random_buffers() {
        const MAX: usize = 1 << 20;
        for seed in 0..16u64 {
            let word: [u8; 8] = random_bytes(8, !seed).try_into().unwrap();
            let len = if seed == 0 {
                MAX
            } else {
                u64::from_le_bytes(word) as usize % MAX
            };
            let buf = random_bytes(len, seed);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "seed {seed} len {len}");
        }
    }

    #[test]
    fn relation_round_trip() {
        let rel = sample_relation().with_original_size(100);
        let mut w = ByteWriter::new();
        encode_relation(&rel, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_relation(&mut r).unwrap();
        assert!(r.is_empty());
        assert_relations_equal(&rel, &back);
        assert_eq!(back.original_size(), 100);
    }

    #[test]
    fn mixed_column_round_trip() {
        let schema = Schema::new(["x"]).unwrap();
        let rel = Relation::new(
            "m",
            schema,
            vec![
                Tuple::new(vec![Value::int(1)]),
                Tuple::new(vec![Value::str("two")]),
                Tuple::new(vec![Value::float(3.0)]),
                Tuple::new(vec![Value::Null]),
            ],
        )
        .unwrap();
        assert_eq!(rel.column(0).kind(), "mixed");
        let mut w = ByteWriter::new();
        encode_relation(&rel, &mut w);
        let bytes = w.into_bytes();
        let back = decode_relation(&mut ByteReader::new(&bytes)).unwrap();
        assert_relations_equal(&rel, &back);
    }

    #[test]
    fn predicate_round_trip() {
        let p = Predicate::And(vec![
            Predicate::cmp("a", CompareOp::Ge, Value::int(3)),
            Predicate::Or(vec![
                Predicate::eq("b", Value::str("x")),
                Predicate::Not(Box::new(Predicate::True)),
            ]),
        ]);
        let mut w = ByteWriter::new();
        encode_predicate(&p, &mut w);
        let bytes = w.into_bytes();
        let back = decode_predicate(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(p, back);
    }

    fn relation_section(rel: &Relation) -> Vec<u8> {
        let mut w = ByteWriter::new();
        encode_relation(rel, &mut w);
        write_sections(&[(SECTION_RELATION, w.into_bytes())])
    }

    #[test]
    fn named_failures_bad_magic_version_checksum_truncation() {
        let bytes = relation_section(&sample_relation());

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(read_sections(&bad).unwrap_err(), SnapshotError::BadMagic);

        // Wrong version.
        let mut bad = bytes.clone();
        bad[8] = 99;
        assert_eq!(
            read_sections(&bad).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );

        // Flipped payload byte → checksum mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last - 8] ^= 0xFF;
        assert!(matches!(
            read_sections(&bad).unwrap_err(),
            SnapshotError::ChecksumMismatch { .. } | SnapshotError::Truncated
        ));

        // Bytes after the last section are corruption, not slack.
        let mut bad = bytes.clone();
        bad.extend_from_slice(&[0; 8]);
        assert!(matches!(
            read_sections(&bad).unwrap_err(),
            SnapshotError::Corrupt(_)
        ));

        // Truncation at every prefix fails by name, never panics.
        for cut in 0..bytes.len() {
            assert!(read_sections(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn empty_relation_and_empty_snapshot() {
        let rel = Relation::new("empty", Schema::new(["a"]).unwrap(), vec![]).unwrap();
        let bytes = relation_section(&rel);
        let sections = read_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 1);
        let back = decode_relation(&mut ByteReader::new(sections[0].1)).unwrap();
        assert_relations_equal(&rel, &back);

        assert!(read_sections(&write_sections(&[])).unwrap().is_empty());
    }

    #[test]
    fn slabs_are_eight_byte_aligned() {
        // The alignment invariant future mmap support depends on: after
        // align8, offsets are multiples of 8 from the payload start, and
        // the section container keeps payload starts 8-aligned in-file.
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_i64_slab(&[1, 2, 3]);
        assert_eq!(w.len() % 8, 0);
        let bytes = write_sections(&[(1, w.into_bytes())]);
        // Preamble (16) + header (16) → payload starts at 32.
        assert_eq!(32 % 8, 0);
        let sections = read_sections(&bytes).unwrap();
        assert_eq!(sections.len(), 1);
    }
}
