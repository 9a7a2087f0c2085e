//! The one codec for every stored or transmitted byte, and the
//! sectioned, checksummed snapshot container.
//!
//! A replica restores its prepared artifacts from a snapshot instead of
//! recomputing them, and every sample leaves a server as a wire
//! payload. Both are written by one [`Codec`] trait — `encode` into a
//! [`ByteWriter`], `decode` from a [`ByteReader`] — implemented once
//! per building block: little-endian scalars, strings (`u64` length +
//! UTF-8), aligned slabs (a `Vec` of a fixed-width [`Scalar`], padded
//! to an 8-byte offset and counted by a `u64`, one bulk loop per
//! direction — the layout a later mmap needs), `Option<T>` (a flag
//! byte), counted sequences (`u32` or `u64` count), tuples, and
//! fieldless enums (the position in [`Labeled::TABLE`] is the tag
//! byte; flags are `bool`'s table). On top: [`Value`], [`Column`],
//! [`Relation`] and [`Predicate`] here, the engine sections in
//! `suj-core`, the opcode payloads in `suj-net`.
//!
//! # Decoding rules
//!
//! [`ByteReader`] holds the only rules: every count is checked against
//! the bytes left before anything is allocated by it; padding bytes
//! must be zero, flag bytes 0 or 1, tags known; and every section or
//! wire payload is decoded through [`Codec::from_bytes`], which refuses
//! bytes left over. So each value has exactly one byte string: a
//! decoded value re-encodes to the bytes it came from, and take →
//! restore → re-take is byte-identical by construction.
//!
//! # Container
//!
//! A flat list of `(kind, payload)` sections behind one magic/version
//! header, each with a CRC-32 of its payload verified before any
//! decoding; readers reject unknown kinds. Corruption surfaces as a
//! named [`SnapshotError`], never as a panic or a garbage artifact. The
//! one snapshot ever written — the engine's catalog + prepared-query
//! cache — is composed in `suj-core`.

use crate::column::{Column, StrPool, Validity};
use crate::predicate::Predicate;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

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

/// Errors raised while writing or reading snapshots and wire payloads.
/// Corrupt input always lands in one of the named variants — decoding
/// never panics.
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
    /// out-of-range references, non-zero padding, bytes left over) with
    /// context.
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
            SnapshotError::Truncated => write!(f, "truncated input"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt input: {msg}"),
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

fn corrupt(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt(msg.into())
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

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// A value with exactly one byte string. `decode` inverts `encode`,
/// and refuses every byte string `encode` cannot produce.
pub trait Codec: Sized {
    /// Appends the value's bytes.
    fn encode(&self, w: &mut ByteWriter);

    /// Reads one value, leaving the reader just past it.
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError>;

    /// The value's bytes, alone.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a whole payload — a snapshot section or a wire payload —
    /// refusing bytes left over after the value.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let value = Self::decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

/// A fieldless enum whose variants are persisted and rendered: the
/// position in [`TABLE`](Self::TABLE) is the variant's tag byte and the
/// string its label, so the bytes and the text cannot drift apart.
pub trait Labeled: Copy + PartialEq + 'static {
    /// Every variant, in tag order (append only: tags are persisted).
    const TABLE: &'static [(Self, &'static str)];

    /// Stable label of the variant.
    fn label(self) -> &'static str {
        Self::TABLE[usize::from(self.tag())].1
    }

    /// Tag byte of the variant.
    fn tag(self) -> u8 {
        let pos = Self::TABLE.iter().position(|(v, _)| *v == self);
        pos.expect("every variant is listed in TABLE") as u8
    }

    /// Inverse of [`tag`](Self::tag); `None` for an unknown tag.
    fn from_tag(tag: u8) -> Option<Self> {
        Self::TABLE.get(usize::from(tag)).map(|(v, _)| *v)
    }
}

impl<T: Labeled> Codec for T {
    fn encode(&self, w: &mut ByteWriter) {
        w.buf.push(self.tag());
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.get_tag(std::any::type_name::<T>(), T::from_tag)
    }
}

/// Flag bytes: `false` is 0, `true` is 1, anything else is corrupt.
impl Labeled for bool {
    const TABLE: &'static [(Self, &'static str)] = &[(false, "false"), (true, "true")];
}

/// A fixed-width little-endian number: a codec of its own and the
/// element of an aligned slab.
pub trait Scalar: Copy {
    /// Encoded width in bytes.
    const WIDTH: usize;
    /// Appends the little-endian bytes.
    fn put_le(self, out: &mut Vec<u8>);
    /// Reads from exactly [`WIDTH`](Self::WIDTH) bytes.
    fn get_le(bytes: &[u8]) -> Self;
}

macro_rules! scalars {
    ($($t:ty),*) => {$(
        impl Scalar for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();

            #[inline]
            fn put_le(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get_le(bytes: &[u8]) -> Self {
                Self::from_le_bytes(bytes.try_into().expect("a scalar reads WIDTH bytes"))
            }
        }

        impl Codec for $t {
            fn encode(&self, w: &mut ByteWriter) {
                self.put_le(&mut w.buf);
            }

            fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
                Ok(Self::get_le(r.take(Self::WIDTH)?))
            }
        }
    )*};
}

scalars!(u8, u32, u64, i64, f64);

/// An aligned slab.
impl<T: Scalar> Codec for Vec<T> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_slab(self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.get_slab()
    }
}

impl Codec for String {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.get_str().map(str::to_string)
    }
}

impl Codec for Arc<str> {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        r.get_str().map(Arc::from)
    }
}

/// Nanoseconds as a `u64` (saturating on encode).
impl Codec for Duration {
    fn encode(&self, w: &mut ByteWriter) {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX).encode(w);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        u64::decode(r).map(Duration::from_nanos)
    }
}

/// A flag byte, then the value when present.
impl<T: Codec> Codec for Option<T> {
    fn encode(&self, w: &mut ByteWriter) {
        self.is_some().encode(w);
        if let Some(v) = self {
            v.encode(w);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        match bool::decode(r)? {
            true => T::decode(r).map(Some),
            false => Ok(None),
        }
    }
}

macro_rules! tuples {
    ($(($($t:ident $i:tt),+))*) => {$(
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn encode(&self, w: &mut ByteWriter) {
                $(self.$i.encode(w);)+
            }

            fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($t::decode(r)?,)+))
            }
        }
    )*};
}

tuples!((A 0, B 1) (A 0, B 1, C 2) (A 0, B 1, C 2, D 3));

/// Little-endian byte sink with 8-byte alignment control. Every
/// encoder writes through this, so alignment invariants live in one
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

    /// Consumes the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        (s.len() as u64).encode(self);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Pads with zero bytes to the next 8-byte boundary — slabs written
    /// after this sit at aligned offsets (relative to the payload
    /// start, which the section container also keeps 8-aligned).
    fn align8(&mut self) {
        let padded = self.buf.len().next_multiple_of(8);
        self.buf.resize(padded, 0);
    }

    /// Appends an aligned slab: zero padding to an 8-byte offset, a
    /// `u64` count, then the raw little-endian values.
    pub fn put_slab<T: Scalar>(&mut self, values: &[T]) {
        self.align8();
        (values.len() as u64).encode(self);
        self.buf.reserve(values.len() * T::WIDTH);
        for &v in values {
            v.put_le(&mut self.buf);
        }
    }

    /// Appends a `u32` count, then each item.
    pub fn put_seq32<'a, T: Codec + 'a, I>(&mut self, items: I)
    where
        I: IntoIterator<Item = &'a T>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        (items.len() as u32).encode(self);
        items.for_each(|v| v.encode(self));
    }

    /// Appends a `u64` count, then each item.
    pub fn put_seq64<'a, T: Codec + 'a, I>(&mut self, items: I)
    where
        I: IntoIterator<Item = &'a T>,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        (items.len() as u64).encode(self);
        items.for_each(|v| v.encode(self));
    }

    /// Appends an optional tag in one byte: 0 for `None`, else the tag
    /// plus one.
    pub fn put_opt_tag(&mut self, tag: Option<u8>) {
        self.buf.push(tag.map_or(0, |t| t + 1));
    }
}

/// Bounds-checked little-endian reader over a snapshot or wire payload,
/// and the owner of every decoding rule (see the module docs): every
/// read returns [`SnapshotError::Truncated`] instead of running off the
/// end, counts are validated against the bytes remaining before any
/// allocation sized by them, padding must be zero, tags must be known,
/// and [`Codec::from_bytes`] refuses leftover bytes.
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
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// The leftover rule: every byte must have been consumed.
    fn finish(&self) -> Result<(), SnapshotError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} bytes left over after the payload"))),
        }
    }

    /// The count rule: a count of items at least `width` bytes each
    /// must fit in the bytes left.
    fn check_count(&self, n: u64, width: usize) -> Result<usize, SnapshotError> {
        if n > MAX_LEN || (n as usize).saturating_mul(width) > self.remaining() {
            return Err(SnapshotError::Truncated);
        }
        Ok(n as usize)
    }

    /// The padding rule: skips to the next 8-byte boundary over zero
    /// bytes only (mirrors [`ByteWriter::align8`]).
    fn align8(&mut self) -> Result<(), SnapshotError> {
        let pad = self.pos.next_multiple_of(8) - self.pos;
        if self.take(pad)?.iter().any(|&b| b != 0) {
            return Err(corrupt("non-zero padding byte"));
        }
        Ok(())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let n = u64::decode(self)?;
        let n = self.check_count(n, 1)?;
        std::str::from_utf8(self.take(n)?).map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// Reads an aligned slab written by [`ByteWriter::put_slab`].
    pub fn get_slab<T: Scalar>(&mut self) -> Result<Vec<T>, SnapshotError> {
        self.align8()?;
        let n = u64::decode(self)?;
        let n = self.check_count(n, T::WIDTH)?;
        let raw = self.take(n * T::WIDTH)?;
        Ok(raw.chunks_exact(T::WIDTH).map(T::get_le).collect())
    }

    /// Reads `n` items, `n` a count read from the input or a
    /// multiplicity fixed by what was decoded before — checked against
    /// the bytes left before the vector is allocated.
    pub fn get_n<T: Codec>(&mut self, n: usize) -> Result<Vec<T>, SnapshotError> {
        self.get_n_with(n, T::decode)
    }

    /// [`get_n`](Self::get_n) with each item read by `item`.
    fn get_n_with<T>(
        &mut self,
        n: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.check_count(n as u64, 1)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Reads a sequence written by [`ByteWriter::put_seq32`].
    pub fn get_seq32<T: Codec>(&mut self) -> Result<Vec<T>, SnapshotError> {
        let n = u32::decode(self)?;
        self.get_n(n as usize)
    }

    /// Reads a sequence written by [`ByteWriter::put_seq64`].
    pub fn get_seq64<T: Codec>(&mut self) -> Result<Vec<T>, SnapshotError> {
        let n = u64::decode(self)?;
        self.get_n(n as usize)
    }

    /// The tag rule: reads a tag byte of `what` that `from_tag` must
    /// know.
    pub fn get_tag<T>(
        &mut self,
        what: &str,
        from_tag: impl Fn(u8) -> Option<T>,
    ) -> Result<T, SnapshotError> {
        let tag = u8::decode(self)?;
        from_tag(tag).ok_or_else(|| corrupt(format!("unknown {what} tag {tag}")))
    }

    /// Reads a tag written by [`ByteWriter::put_opt_tag`].
    pub fn get_opt_tag<T>(
        &mut self,
        what: &str,
        from_tag: impl Fn(u8) -> Option<T>,
    ) -> Result<Option<T>, SnapshotError> {
        self.get_tag(what, |tag| match tag {
            0 => Some(None),
            t => from_tag(t - 1).map(Some),
        })
    }
}

// ---------------------------------------------------------------------
// Storage types
// ---------------------------------------------------------------------

/// A tag byte (the variant's type rank: Null, Int, Float, Str), then
/// the payload.
impl Codec for Value {
    fn encode(&self, w: &mut ByteWriter) {
        self.type_rank().encode(w);
        match self {
            Value::Null => {}
            Value::Int(i) => i.encode(w),
            Value::Float(x) => x.encode(w),
            Value::Str(s) => s.encode(w),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_tag("value", |t| (t < 4).then_some(t))? {
            0 => Ok(Value::Null),
            1 => i64::decode(r).map(Value::Int),
            2 => f64::decode(r).map(Value::Float),
            _ => Arc::<str>::decode(r).map(Value::Str),
        }
    }
}

/// A tag byte (the layout: `i64`, `f64`, `str`, `mixed`), then the
/// layout's payload. Fixed-width payloads (`i64`/`f64` values, `u32`
/// dictionary codes, validity words) are aligned slabs; a validity
/// bitmap is an optional slab of words, present exactly when some row
/// is NULL. Every layout carries its own length.
impl Codec for Column {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Column::Int64 { values, validity } => {
                0u8.encode(w);
                validity.words().encode(w);
                values.encode(w);
            }
            Column::Float64 { values, validity } => {
                1u8.encode(w);
                validity.words().encode(w);
                values.encode(w);
            }
            Column::Str {
                codes,
                pool,
                validity,
            } => {
                2u8.encode(w);
                validity.words().encode(w);
                w.put_seq64(pool.strings());
                codes.encode(w);
            }
            Column::Mixed { values } => {
                3u8.encode(w);
                w.put_seq64(values);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let tag = r.get_tag("column", |t| (t < 4).then_some(t))?;
        let words: Option<Vec<u64>> = if tag < 3 { Codec::decode(r)? } else { None };
        let validity = |len: usize| {
            Validity::from_words(words, len)
                .ok_or_else(|| corrupt(format!("validity bitmap does not fit {len} rows")))
        };
        match tag {
            0 => {
                let values: Vec<i64> = r.get_slab()?;
                let validity = validity(values.len())?;
                Ok(Column::Int64 { values, validity })
            }
            1 => {
                let values: Vec<f64> = r.get_slab()?;
                let validity = validity(values.len())?;
                Ok(Column::Float64 { values, validity })
            }
            2 => {
                let mut pool = StrPool::new();
                for s in r.get_seq64::<Arc<str>>()? {
                    if pool.intern_arc(&s) as usize + 1 != pool.len() {
                        return Err(corrupt("duplicate string in dictionary pool"));
                    }
                }
                let codes: Vec<u32> = r.get_slab()?;
                let validity = validity(codes.len())?;
                let out_of_range = codes
                    .iter()
                    .enumerate()
                    .find(|&(i, &c)| validity.is_valid(i) && c as usize >= pool.len());
                if let Some((_, c)) = out_of_range {
                    return Err(corrupt(format!(
                        "dictionary code {c} out of range (pool has {})",
                        pool.len()
                    )));
                }
                Ok(Column::Str {
                    codes,
                    pool: Arc::new(pool),
                    validity,
                })
            }
            _ => Ok(Column::Mixed {
                values: r.get_seq64()?,
            }),
        }
    }
}

/// Name, attributes (`u32` count), original size, row count, then each
/// column.
impl Codec for Relation {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_str(self.name());
        w.put_seq32(self.schema().attrs());
        (self.original_size() as u64).encode(w);
        (self.len() as u64).encode(w);
        for column in self.columns() {
            column.encode(w);
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let name = r.get_str()?;
        let schema = Schema::new(r.get_seq32::<Arc<str>>()?)
            .map_err(|e| corrupt(format!("invalid schema: {e}")))?;
        let original_size = u64::decode(r)?;
        let len = u64::decode(r)?;
        let columns = r.get_n(schema.arity())?;
        let rel = Relation::from_columns(name, schema, columns)
            .map_err(|e| corrupt(format!("invalid relation: {e}")))?;
        if rel.len() as u64 != len {
            return Err(corrupt(format!(
                "relation of {len} rows holds columns of {}",
                rel.len()
            )));
        }
        if original_size > MAX_LEN {
            return Err(corrupt("original size out of range"));
        }
        Ok(rel.with_original_size(original_size as usize))
    }
}

/// A tag byte per node (`True`, `Compare`, `And`, `Or`, `Not`), then
/// the node's fields; `And`/`Or` children carry a `u64` count.
impl Codec for Predicate {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            Predicate::True => 0u8.encode(w),
            Predicate::Compare { attr, op, value } => {
                1u8.encode(w);
                attr.encode(w);
                op.encode(w);
                value.encode(w);
            }
            Predicate::And(ps) => {
                2u8.encode(w);
                w.put_seq64(ps);
            }
            Predicate::Or(ps) => {
                3u8.encode(w);
                w.put_seq64(ps);
            }
            Predicate::Not(p) => {
                4u8.encode(w);
                p.encode(w);
            }
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        decode_predicate(r, 0)
    }
}

/// The deepest `And`/`Or`/`Not` nesting a decode accepts. Decoding
/// recurses once per level, and a stack overflow aborts the process, so
/// a frame or snapshot of deeper nesting is refused as corrupt instead.
const MAX_PREDICATE_DEPTH: usize = 128;

/// [`Predicate::decode`] at nesting `depth`.
fn decode_predicate(r: &mut ByteReader<'_>, depth: usize) -> Result<Predicate, SnapshotError> {
    let tag = r.get_tag("predicate", |t| (t < 5).then_some(t))?;
    if tag >= 2 && depth == MAX_PREDICATE_DEPTH {
        return Err(corrupt(format!(
            "predicate nested deeper than {MAX_PREDICATE_DEPTH} levels"
        )));
    }
    match tag {
        0 => Ok(Predicate::True),
        1 => Ok(Predicate::Compare {
            attr: Codec::decode(r)?,
            op: Codec::decode(r)?,
            value: Codec::decode(r)?,
        }),
        2 | 3 => {
            let n = u64::decode(r)?;
            let children = r.get_n_with(n as usize, |r| decode_predicate(r, depth + 1))?;
            Ok(match tag {
                2 => Predicate::And(children),
                _ => Predicate::Or(children),
            })
        }
        _ => decode_predicate(r, depth + 1).map(|p| Predicate::Not(Box::new(p))),
    }
}

// ---------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------

/// Assembles a snapshot container from `(kind, payload)` sections:
/// magic, version, section count, then per section a 16-byte header
/// (`kind: u32`, `len: u64`, `crc: u32`) followed by the payload padded
/// with zeros to 8 bytes. Headers are 16 bytes and the preamble is 16
/// bytes, so every payload starts 8-aligned in the file.
pub fn write_sections(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.buf.extend_from_slice(&MAGIC);
    VERSION.encode(&mut w);
    (sections.len() as u32).encode(&mut w);
    for (kind, payload) in sections {
        (*kind, payload.len() as u64, crc32(payload)).encode(&mut w);
        w.buf.extend_from_slice(payload);
        w.align8();
    }
    w.into_bytes()
}

/// Parses a snapshot container, validating magic, version, bounds,
/// every section checksum, zero padding, and that nothing follows the
/// last section. Returns `(kind, payload)` views in file order.
pub fn read_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(8).map_err(|_| SnapshotError::BadMagic)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::decode(&mut r)?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let n_sections = u32::decode(&mut r)?;
    let mut sections = Vec::new();
    for _ in 0..n_sections {
        let (kind, len, crc) = <(u32, u64, u32)>::decode(&mut r)?;
        let len = r.check_count(len, 1)?;
        let payload = r.take(len)?;
        if crc32(payload) != crc {
            return Err(SnapshotError::ChecksumMismatch { kind });
        }
        r.align8()?;
        sections.push((kind, payload));
    }
    // A corrupted section count can otherwise decode "successfully"
    // with sections silently dropped; the writer never leaves trailing
    // bytes, so any remainder is corruption.
    r.finish()?;
    Ok(sections)
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
    use crate::predicate::CompareOp;
    use crate::tuple;
    use crate::tuple::Tuple;

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
        let bytes = rel.to_bytes();
        let back = Relation::from_bytes(&bytes).unwrap();
        assert_relations_equal(&rel, &back);
        assert_eq!(back.original_size(), 100);
        assert_eq!(back.to_bytes(), bytes);
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
        let back = Relation::from_bytes(&rel.to_bytes()).unwrap();
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
        assert_eq!(Predicate::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    fn relation_section(rel: &Relation) -> Vec<u8> {
        write_sections(&[(SECTION_RELATION, rel.to_bytes())])
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
        let back = Relation::from_bytes(sections[0].1).unwrap();
        assert_relations_equal(&rel, &back);

        assert!(read_sections(&write_sections(&[])).unwrap().is_empty());
    }

    #[test]
    fn slabs_are_eight_byte_aligned() {
        // The alignment invariant future mmap support depends on: a
        // slab's count and values sit at multiples of 8 from the payload
        // start, and the section container keeps payload starts
        // 8-aligned in-file: preamble (16) + header (16) → 32.
        let mut w = ByteWriter::new();
        7u8.encode(&mut w);
        w.put_slab(&[1i64, 2, 3]);
        let payload = w.into_bytes();
        assert_eq!(payload.len(), 8 + 8 + 3 * 8);
        assert_eq!(payload[1..8], [0; 7]);
        let bytes = write_sections(&[(1, payload.clone())]);
        assert_eq!(&bytes[32..32 + payload.len()], payload);
        assert_eq!(read_sections(&bytes).unwrap(), vec![(1, &payload[..])]);
    }
}
