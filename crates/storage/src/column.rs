//! Typed columnar storage.
//!
//! The prepare path (index builds, histogram probes, §8.3 predicate
//! push-down, the EW weight DP) scans whole relations attribute by
//! attribute. A row-major `Arc<[Tuple]>` of boxed [`Value`]s pays two
//! pointer hops and an enum-tag branch per attribute read; a typed
//! [`Column`] stores the attribute contiguously, so the same scan is a
//! flat array walk. Four layouts cover the `Value` domain:
//!
//! * [`Column::Int64`] / [`Column::Float64`] — plain `Vec` payloads.
//! * [`Column::Str`] — dictionary encoded: dense `u32` codes into an
//!   interned [`StrPool`] of `Arc<str>`s. Cell reads are an index; cell
//!   materialization is an `Arc` bump; equality between two cells of
//!   the same column is a code compare.
//! * [`Column::Mixed`] — the row-store fallback for heterogeneous
//!   columns (dynamically typed inputs such as inferred CSV may mix
//!   variants in one attribute). Keeps the rows→columns→rows round
//!   trip exact for every input.
//!
//! Every typed layout carries a null-[`Validity`] bitmap; a cleared bit
//! reads back as [`Value::Null`].
//!
//! [`CellRef`] is the zero-copy cell view: it hashes and compares
//! exactly like the [`Value`] it denotes (pinned by tests), which is
//! what lets hash indexes and membership tables mix column-side and
//! tuple-side probes in one table.

use crate::hash::{FxHasher, IdTable};
use crate::value::Value;
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An interned pool of distinct strings backing a [`Column::Str`].
///
/// Code `c` denotes `strings[c]`; interning returns the existing code
/// for a known string, so equal cells always carry equal codes. Codes
/// are handed out in first-seen order. The string → code direction is
/// the crate's one open-addressing table (`IdTable` in
/// [`hash`](crate::hash)), which stores 32-bit hash tags and codes,
/// never the strings themselves.
#[derive(Debug, Clone, Default)]
pub struct StrPool {
    strings: Vec<Arc<str>>,
    lookup: IdTable,
}

/// The Fx hash of a string's bytes — the key of a pool's table.
#[inline]
fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

impl StrPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the pool holds no strings.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The string behind `code`.
    #[inline]
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strings[code as usize]
    }

    /// The code of `s`, if interned.
    #[inline]
    pub fn code_of(&self, s: &str) -> Option<u32> {
        let strings = &self.strings;
        self.lookup
            .lookup(str_hash(s), |c| *strings[c as usize] == *s)
    }

    /// Interns `s`, allocating a new `Arc<str>` only for unseen strings.
    pub fn intern(&mut self, s: &str) -> u32 {
        let code = self.code_or_next(s);
        if code as usize == self.strings.len() {
            self.strings.push(Arc::from(s));
        }
        code
    }

    /// Interns an already-shared string (an `Arc` bump for new entries —
    /// no byte copy).
    pub fn intern_arc(&mut self, s: &Arc<str>) -> u32 {
        let code = self.code_or_next(s);
        if code as usize == self.strings.len() {
            self.strings.push(s.clone());
        }
        code
    }

    /// An empty pool with room for `n` strings.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self {
            strings: Vec::with_capacity(n),
            lookup: IdTable::with_capacity_for(n),
        }
    }

    /// Gives `s` the next code unless the pool holds it already — one
    /// hash and one probe either way. Returns whether `s` was new.
    pub(crate) fn push_distinct(&mut self, s: Arc<str>) -> bool {
        let new = self.code_or_next(&s) as usize == self.strings.len();
        if new {
            self.strings.push(s);
        }
        new
    }

    /// The code of `s`, or the next code — entered in the table, so the
    /// caller must push `s` — when `s` is unseen: one hash, one probe.
    #[inline]
    fn code_or_next(&mut self, s: &str) -> u32 {
        let next = self.strings.len() as u32;
        let strings = &self.strings;
        self.lookup
            .lookup_or_insert(str_hash(s), next, |c| *strings[c as usize] == *s)
    }

    /// Iterates the pooled strings in code order.
    pub fn strings(&self) -> impl ExactSizeIterator<Item = &Arc<str>> {
        self.strings.iter()
    }

    /// Resident bytes: the string payloads and their `Arc` headers,
    /// one `Arc<str>` per code, and the table's slots at their real
    /// capacity. The code vector is charged at its length: its
    /// doubling slack (up to one `Arc<str>` per string in a pool
    /// interned string by string, none in a decoded pool) is left out, so
    /// a pool reports the same bytes however it was filled.
    pub fn memory_bytes(&self) -> usize {
        let payload: usize = self.strings.iter().map(|s| s.len()).sum();
        let arc_header = 2 * std::mem::size_of::<usize>();
        let per_string = arc_header + std::mem::size_of::<Arc<str>>();
        payload + self.strings.len() * per_string + self.lookup.memory_bytes()
    }
}

/// Null-validity bitmap of one column. `None` bits mean every row is
/// valid (the common case costs nothing); otherwise bit `i` set means
/// row `i` holds a real value, cleared means NULL.
#[derive(Debug, Clone, Default)]
pub struct Validity {
    bits: Option<Vec<u64>>,
    len: usize,
    null_count: usize,
}

impl Validity {
    /// All-valid validity for `len` rows.
    pub fn all_valid(len: usize) -> Self {
        Self {
            bits: None,
            len,
            null_count: 0,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether row `i` holds a real value (false = NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        match &self.bits {
            None => true,
            Some(words) => words[i >> 6] & (1u64 << (i & 63)) != 0,
        }
    }

    /// Number of NULL rows.
    pub fn null_count(&self) -> usize {
        self.null_count
    }

    /// Whether any row is NULL.
    pub fn has_nulls(&self) -> bool {
        self.null_count > 0
    }

    /// Appends one row's validity.
    pub fn push(&mut self, valid: bool) {
        if !valid && self.bits.is_none() {
            // First null: materialize the bitmap, all-set so far.
            let words = vec![u64::MAX; self.len.div_ceil(64).max(1)];
            let mut bits = words;
            // Clear the tail beyond `len` to keep the invariant simple.
            for i in self.len..bits.len() * 64 {
                bits[i >> 6] &= !(1u64 << (i & 63));
            }
            self.bits = Some(bits);
        }
        if let Some(bits) = &mut self.bits {
            let word = self.len >> 6;
            if word >= bits.len() {
                bits.push(0);
            }
            if valid {
                bits[word] |= 1u64 << (self.len & 63);
            }
        }
        if !valid {
            self.null_count += 1;
        }
        self.len += 1;
    }

    /// The packed words (bit `i` set: row `i` is valid), present
    /// exactly when some row is NULL — the persisted form.
    pub(crate) fn words(&self) -> &Option<Vec<u64>> {
        &self.bits
    }

    /// Inverse of [`words`](Self::words) over `len` rows; `None` unless
    /// `words` is what `words` returns for some validity: one word per
    /// 64 rows, no bit set past `len`, and at least one NULL.
    pub(crate) fn from_words(words: Option<Vec<u64>>, len: usize) -> Option<Self> {
        let Some(words) = words else {
            return Some(Self::all_valid(len));
        };
        let tail_clear =
            len.is_multiple_of(64) || words.last().is_some_and(|w| w >> (len % 64) == 0);
        let valid: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        (words.len() == len.div_ceil(64) && tail_clear && valid < len).then(|| Self {
            bits: Some(words),
            len,
            null_count: len - valid,
        })
    }

    /// Validity restricted to rows `[lo, hi)`.
    pub fn slice(&self, lo: usize, hi: usize) -> Validity {
        let mut out = Validity::all_valid(0);
        for i in lo..hi {
            out.push(self.is_valid(i));
        }
        out
    }

    /// Validity of the gathered `rows`.
    pub fn gather(&self, rows: &[u32]) -> Validity {
        let mut out = Validity::all_valid(0);
        for &r in rows {
            out.push(self.is_valid(r as usize));
        }
        out
    }

    /// Resident bytes of the bitmap.
    pub fn memory_bytes(&self) -> usize {
        self.bits.as_ref().map_or(0, |b| b.len() * 8)
    }
}

/// Zero-copy view of one cell of one column.
///
/// Hashes and tests equality exactly like the [`Value`] it denotes: the
/// hash writes the same type rank and payload as [`Value`]'s `Hash`
/// impl, and equality is [`Value`]'s (floats via `total_cmp`, never
/// across variants). This identity is what lets
/// [`HashIndex`](crate::index::HashIndex) build from columns while
/// serving `&[Value]` probes, viewed as cells through `From<&Value>`,
/// out of the same table.
#[derive(Debug, Clone, Copy)]
pub enum CellRef<'a> {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// Float (total order, NaN last).
    Float(f64),
    /// Borrowed string.
    Str(&'a str),
}

impl<'a> CellRef<'a> {
    #[inline]
    fn type_rank(&self) -> u8 {
        match self {
            CellRef::Null => 0,
            CellRef::Int(_) => 1,
            CellRef::Float(_) => 2,
            CellRef::Str(_) => 3,
        }
    }

    /// Whether this cell is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, CellRef::Null)
    }
}

impl<'a> From<&'a Value> for CellRef<'a> {
    /// The cell view of a value, so a `&Value` key probes an index
    /// exactly as a column cell does.
    #[inline]
    fn from(v: &'a Value) -> Self {
        match v {
            Value::Null => CellRef::Null,
            Value::Int(i) => CellRef::Int(*i),
            Value::Float(x) => CellRef::Float(*x),
            Value::Str(s) => CellRef::Str(s),
        }
    }
}

impl PartialEq for CellRef<'_> {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CellRef::Null, CellRef::Null) => true,
            (CellRef::Int(a), CellRef::Int(b)) => a == b,
            (CellRef::Float(a), CellRef::Float(b)) => a.total_cmp(b) == Ordering::Equal,
            (CellRef::Str(a), CellRef::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for CellRef<'_> {}

impl Hash for CellRef<'_> {
    /// Identical to [`Value`]'s `Hash`: type rank, then payload.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u8(self.type_rank());
        match self {
            CellRef::Null => {}
            CellRef::Int(i) => state.write_u64(*i as u64),
            CellRef::Float(f) => state.write_u64(f.to_bits()),
            CellRef::Str(s) => s.hash(state),
        }
    }
}

impl std::fmt::Display for CellRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellRef::Null => write!(f, "NULL"),
            CellRef::Int(i) => write!(f, "{i}"),
            CellRef::Float(x) => write!(f, "{x}"),
            CellRef::Str(s) => write!(f, "{s}"),
        }
    }
}

/// The slot count `max − min + 1` of a direct-address table over an
/// integer column's values, when the column is **dense**: its value
/// range spans at most 8 slots per row (plus a page of slack for tiny
/// relations), so a table of 4-byte slots never costs more than 32
/// bytes a row. A property of the column, read from one min/max scan —
/// surrogate keys sit far inside the bound, hashes and timestamps far
/// outside — so it is a constant, not a setting. `None` when sparse,
/// when the range overflows `i64` (`i64::MIN..=i64::MAX`), or when no
/// value was scanned (`max < min`).
pub(crate) fn dense_int_slots(min: i64, max: i64, rows: usize) -> Option<usize> {
    let range = max.checked_sub(min)?.checked_add(1)?;
    (range > 0 && range as u128 <= 8 * rows as u128 + 4096).then_some(range as usize)
}

/// Fx-hashes a sequence of cells in place — the column-side counterpart
/// of [`hash_values`](crate::hash::hash_values): equal value sequences
/// produce equal hashes no matter which side they are read from.
#[inline]
pub fn hash_cells<'a>(cells: impl IntoIterator<Item = CellRef<'a>>) -> u64 {
    let mut hasher = FxHasher::default();
    for c in cells {
        c.hash(&mut hasher);
    }
    hasher.finish()
}

/// One typed column of a relation (see the module docs for the layout
/// menu).
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers with a validity bitmap.
    Int64 {
        /// Cell payloads (NULL slots hold 0).
        values: Vec<i64>,
        /// Null-validity bitmap.
        validity: Validity,
    },
    /// Floats with a validity bitmap.
    Float64 {
        /// Cell payloads (NULL slots hold 0.0).
        values: Vec<f64>,
        /// Null-validity bitmap.
        validity: Validity,
    },
    /// Dictionary-encoded strings: `u32` codes into an interned pool.
    Str {
        /// Per-row dictionary codes (NULL slots hold 0; consult the
        /// validity bitmap first).
        codes: Vec<u32>,
        /// The interned string dictionary, shared (`Arc`) across
        /// derived columns — slicing/gathering never copies it.
        pool: Arc<StrPool>,
        /// Null-validity bitmap.
        validity: Validity,
    },
    /// Heterogeneous fallback: the cells verbatim.
    Mixed {
        /// Cell payloads.
        values: Vec<Value>,
    },
}

impl Column {
    /// Number of cells.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64 { values, .. } => values.len(),
            Column::Float64 { values, .. } => values.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Mixed { values } => values.len(),
        }
    }

    /// Whether the column holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zero-copy view of cell `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> CellRef<'_> {
        match self {
            Column::Int64 { values, validity } => {
                if validity.is_valid(i) {
                    CellRef::Int(values[i])
                } else {
                    CellRef::Null
                }
            }
            Column::Float64 { values, validity } => {
                if validity.is_valid(i) {
                    CellRef::Float(values[i])
                } else {
                    CellRef::Null
                }
            }
            Column::Str {
                codes,
                pool,
                validity,
            } => {
                if validity.is_valid(i) {
                    CellRef::Str(pool.get(codes[i]))
                } else {
                    CellRef::Null
                }
            }
            Column::Mixed { values } => CellRef::from(&values[i]),
        }
    }

    /// Materializes cell `i` (strings are an `Arc` bump out of the
    /// pool — no byte copy, no allocation).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Int64 { values, validity } => {
                if validity.is_valid(i) {
                    Value::Int(values[i])
                } else {
                    Value::Null
                }
            }
            Column::Float64 { values, validity } => {
                if validity.is_valid(i) {
                    Value::Float(values[i])
                } else {
                    Value::Null
                }
            }
            Column::Str {
                codes,
                pool,
                validity,
            } => {
                if validity.is_valid(i) {
                    Value::Str(pool.get(codes[i]).clone())
                } else {
                    Value::Null
                }
            }
            Column::Mixed { values } => values[i].clone(),
        }
    }

    /// Whether cells `a` and `b` *of this column* are equal. For `Str`
    /// columns this is a dictionary-code compare — the fast path index
    /// builds rely on (both cells share the column's pool).
    #[inline]
    pub fn cells_eq(&self, a: usize, b: usize) -> bool {
        match self {
            Column::Int64 { values, validity } => {
                let (va, vb) = (validity.is_valid(a), validity.is_valid(b));
                va == vb && (!va || values[a] == values[b])
            }
            Column::Float64 { values, validity } => {
                let (va, vb) = (validity.is_valid(a), validity.is_valid(b));
                va == vb && (!va || values[a].total_cmp(&values[b]) == Ordering::Equal)
            }
            Column::Str {
                codes, validity, ..
            } => {
                let (va, vb) = (validity.is_valid(a), validity.is_valid(b));
                va == vb && (!va || codes[a] == codes[b])
            }
            Column::Mixed { values } => values[a] == values[b],
        }
    }

    /// The column's validity bitmap, if the layout carries one
    /// (`Mixed` stores NULLs inline).
    pub fn validity(&self) -> Option<&Validity> {
        match self {
            Column::Int64 { validity, .. }
            | Column::Float64 { validity, .. }
            | Column::Str { validity, .. } => Some(validity),
            Column::Mixed { .. } => None,
        }
    }

    /// Number of NULL cells.
    pub fn null_count(&self) -> usize {
        match self {
            Column::Mixed { values } => values.iter().filter(|v| v.is_null()).count(),
            other => other.validity().map_or(0, Validity::null_count),
        }
    }

    /// Cells `[lo, hi)` as a new column (the `Str` pool is shared by
    /// clone; codes stay valid).
    pub fn slice(&self, lo: usize, hi: usize) -> Column {
        match self {
            Column::Int64 { values, validity } => Column::Int64 {
                values: values[lo..hi].to_vec(),
                validity: validity.slice(lo, hi),
            },
            Column::Float64 { values, validity } => Column::Float64 {
                values: values[lo..hi].to_vec(),
                validity: validity.slice(lo, hi),
            },
            Column::Str {
                codes,
                pool,
                validity,
            } => Column::Str {
                codes: codes[lo..hi].to_vec(),
                pool: pool.clone(),
                validity: validity.slice(lo, hi),
            },
            Column::Mixed { values } => Column::Mixed {
                values: values[lo..hi].to_vec(),
            },
        }
    }

    /// The gathered `rows` as a new column (selection materialization).
    pub fn gather(&self, rows: &[u32]) -> Column {
        match self {
            Column::Int64 { values, validity } => Column::Int64 {
                values: rows.iter().map(|&r| values[r as usize]).collect(),
                validity: validity.gather(rows),
            },
            Column::Float64 { values, validity } => Column::Float64 {
                values: rows.iter().map(|&r| values[r as usize]).collect(),
                validity: validity.gather(rows),
            },
            Column::Str {
                codes,
                pool,
                validity,
            } => Column::Str {
                codes: rows.iter().map(|&r| codes[r as usize]).collect(),
                pool: pool.clone(),
                validity: validity.gather(rows),
            },
            Column::Mixed { values } => Column::Mixed {
                values: rows.iter().map(|&r| values[r as usize].clone()).collect(),
            },
        }
    }

    /// Approximate resident bytes of this column (payload vectors,
    /// dictionary pool, validity bitmap).
    pub fn memory_bytes(&self) -> usize {
        match self {
            Column::Int64 { values, validity } => values.len() * 8 + validity.memory_bytes(),
            Column::Float64 { values, validity } => values.len() * 8 + validity.memory_bytes(),
            Column::Str {
                codes,
                pool,
                validity,
            } => codes.len() * 4 + pool.memory_bytes() + validity.memory_bytes(),
            Column::Mixed { values } => {
                let heap: usize = values
                    .iter()
                    .map(|v| match v {
                        Value::Str(s) => 16 + s.len(),
                        _ => 0,
                    })
                    .sum();
                values.len() * std::mem::size_of::<Value>() + heap
            }
        }
    }

    /// Short layout name (diagnostics and reports).
    pub fn kind(&self) -> &'static str {
        match self {
            Column::Int64 { .. } => "i64",
            Column::Float64 { .. } => "f64",
            Column::Str { .. } => "str",
            Column::Mixed { .. } => "mixed",
        }
    }
}

/// Streaming builder for one [`Column`].
///
/// Starts untyped; the first non-NULL value fixes the layout
/// (`Int64` / `Float64` / `Str`), and any later variant conflict
/// demotes to [`Column::Mixed`] so arbitrary inputs always round-trip.
#[derive(Debug)]
pub struct ColumnBuilder {
    state: BuilderState,
}

#[derive(Debug)]
enum BuilderState {
    /// Only NULLs seen so far.
    Empty {
        nulls: usize,
    },
    Int64 {
        values: Vec<i64>,
        validity: Validity,
    },
    Float64 {
        values: Vec<f64>,
        validity: Validity,
    },
    Str {
        codes: Vec<u32>,
        pool: StrPool,
        validity: Validity,
    },
    Mixed {
        values: Vec<Value>,
    },
}

impl Default for ColumnBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ColumnBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self {
            state: BuilderState::Empty { nulls: 0 },
        }
    }

    /// Cells pushed so far.
    pub fn len(&self) -> usize {
        match &self.state {
            BuilderState::Empty { nulls } => *nulls,
            BuilderState::Int64 { values, .. } => values.len(),
            BuilderState::Float64 { values, .. } => values.len(),
            BuilderState::Str { codes, .. } => codes.len(),
            BuilderState::Mixed { values } => values.len(),
        }
    }

    /// Whether nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a NULL cell.
    pub fn push_null(&mut self) {
        match &mut self.state {
            BuilderState::Empty { nulls } => *nulls += 1,
            BuilderState::Int64 { values, validity } => {
                values.push(0);
                validity.push(false);
            }
            BuilderState::Float64 { values, validity } => {
                values.push(0.0);
                validity.push(false);
            }
            BuilderState::Str {
                codes, validity, ..
            } => {
                codes.push(0);
                validity.push(false);
            }
            BuilderState::Mixed { values } => values.push(Value::Null),
        }
    }

    /// Appends an integer cell.
    pub fn push_i64(&mut self, v: i64) {
        match &mut self.state {
            BuilderState::Empty { nulls } => {
                let n = *nulls;
                let mut values = Vec::with_capacity(n + 1);
                values.resize(n, 0);
                let mut validity = Validity::all_valid(0);
                for _ in 0..n {
                    validity.push(false);
                }
                values.push(v);
                validity.push(true);
                self.state = BuilderState::Int64 { values, validity };
            }
            BuilderState::Int64 { values, validity } => {
                values.push(v);
                validity.push(true);
            }
            _ => self.demote_push(Value::Int(v)),
        }
    }

    /// Appends a float cell.
    pub fn push_f64(&mut self, v: f64) {
        match &mut self.state {
            BuilderState::Empty { nulls } => {
                let n = *nulls;
                let mut values = Vec::with_capacity(n + 1);
                values.resize(n, 0.0);
                let mut validity = Validity::all_valid(0);
                for _ in 0..n {
                    validity.push(false);
                }
                values.push(v);
                validity.push(true);
                self.state = BuilderState::Float64 { values, validity };
            }
            BuilderState::Float64 { values, validity } => {
                values.push(v);
                validity.push(true);
            }
            _ => self.demote_push(Value::Float(v)),
        }
    }

    /// Appends a string cell (interned; the byte copy happens once per
    /// distinct string).
    pub fn push_str(&mut self, s: &str) {
        match &mut self.state {
            BuilderState::Empty { nulls } => {
                let n = *nulls;
                let mut pool = StrPool::new();
                let code = pool.intern(s);
                let mut codes = Vec::with_capacity(n + 1);
                codes.resize(n, 0);
                let mut validity = Validity::all_valid(0);
                for _ in 0..n {
                    validity.push(false);
                }
                codes.push(code);
                validity.push(true);
                self.state = BuilderState::Str {
                    codes,
                    pool,
                    validity,
                };
            }
            BuilderState::Str {
                codes,
                pool,
                validity,
            } => {
                codes.push(pool.intern(s));
                validity.push(true);
            }
            _ => self.demote_push(Value::str(s)),
        }
    }

    /// Appends an already-shared string cell (new distinct strings cost
    /// an `Arc` bump, not a byte copy).
    pub fn push_arc_str(&mut self, s: &Arc<str>) {
        match &mut self.state {
            BuilderState::Str {
                codes,
                pool,
                validity,
            } => {
                codes.push(pool.intern_arc(s));
                validity.push(true);
            }
            BuilderState::Empty { .. } => self.push_str(s),
            _ => self.demote_push(Value::Str(s.clone())),
        }
    }

    /// Appends a cell by value.
    pub fn push(&mut self, v: Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Int(i) => self.push_i64(i),
            Value::Float(f) => self.push_f64(f),
            Value::Str(s) => self.push_arc_str(&s),
        }
    }

    /// Appends a cell by reference (no clone for scalar variants; an
    /// `Arc` bump for new distinct strings).
    pub fn push_ref(&mut self, v: &Value) {
        match v {
            Value::Null => self.push_null(),
            Value::Int(i) => self.push_i64(*i),
            Value::Float(f) => self.push_f64(*f),
            Value::Str(s) => self.push_arc_str(s),
        }
    }

    /// Demotes the builder to `Mixed`, materializing everything pushed
    /// so far, then appends `v`.
    fn demote_push(&mut self, v: Value) {
        let prior = std::mem::replace(&mut self.state, BuilderState::Empty { nulls: 0 });
        let mut values: Vec<Value> = match prior {
            BuilderState::Empty { nulls } => vec![Value::Null; nulls],
            BuilderState::Int64 { values, validity } => values
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    if validity.is_valid(i) {
                        Value::Int(x)
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            BuilderState::Float64 { values, validity } => values
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    if validity.is_valid(i) {
                        Value::Float(x)
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            BuilderState::Str {
                codes,
                pool,
                validity,
            } => codes
                .iter()
                .enumerate()
                .map(|(i, &c)| {
                    if validity.is_valid(i) {
                        Value::Str(pool.get(c).clone())
                    } else {
                        Value::Null
                    }
                })
                .collect(),
            BuilderState::Mixed { values } => values,
        };
        values.push(v);
        self.state = BuilderState::Mixed { values };
    }

    /// Finalizes the column. An all-NULL (or empty) builder yields an
    /// `Int64` column whose cells are all invalid — reads still return
    /// [`Value::Null`].
    pub fn finish(self) -> Column {
        match self.state {
            BuilderState::Empty { nulls } => {
                let mut validity = Validity::all_valid(0);
                for _ in 0..nulls {
                    validity.push(false);
                }
                Column::Int64 {
                    values: vec![0; nulls],
                    validity,
                }
            }
            BuilderState::Int64 { values, validity } => Column::Int64 { values, validity },
            BuilderState::Float64 { values, validity } => Column::Float64 { values, validity },
            BuilderState::Str {
                codes,
                pool,
                validity,
            } => Column::Str {
                codes,
                pool: Arc::new(pool),
                validity,
            },
            BuilderState::Mixed { values } => Column::Mixed { values },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_values;

    fn build(values: &[Value]) -> Column {
        let mut b = ColumnBuilder::new();
        for v in values {
            b.push_ref(v);
        }
        b.finish()
    }

    #[test]
    fn typed_round_trip_all_variants() {
        let cases: Vec<Vec<Value>> = vec![
            vec![Value::int(1), Value::int(-7), Value::Null, Value::int(0)],
            vec![Value::float(1.5), Value::Null, Value::float(f64::NAN)],
            vec![
                Value::str("a"),
                Value::str("b"),
                Value::str("a"),
                Value::Null,
            ],
            vec![Value::Null, Value::Null],
            vec![],
            // Heterogeneous → Mixed.
            vec![
                Value::int(1),
                Value::str("x"),
                Value::float(2.0),
                Value::Null,
            ],
            // Leading nulls before the first typed value.
            vec![Value::Null, Value::str("tail")],
        ];
        for vals in cases {
            let col = build(&vals);
            assert_eq!(col.len(), vals.len());
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(&col.value(i), v, "column {} cell {i}", col.kind());
                assert!(col.cell(i) == CellRef::from(v));
            }
        }
    }

    #[test]
    fn builder_demotes_on_conflict() {
        let col = build(&[Value::int(1), Value::int(2), Value::float(3.0)]);
        assert_eq!(col.kind(), "mixed");
        assert_eq!(col.value(0), Value::int(1));
        assert_eq!(col.value(2), Value::float(3.0));
    }

    #[test]
    fn str_dictionary_reuses_codes() {
        let col = build(&[Value::str("x"), Value::str("y"), Value::str("x")]);
        match &col {
            Column::Str { codes, pool, .. } => {
                assert_eq!(pool.len(), 2);
                assert_eq!(codes[0], codes[2]);
                assert_ne!(codes[0], codes[1]);
            }
            other => panic!("expected Str column, got {}", other.kind()),
        }
        assert!(col.cells_eq(0, 2));
        assert!(!col.cells_eq(0, 1));
    }

    #[test]
    fn cell_hash_matches_value_hash() {
        let vals = vec![
            Value::Null,
            Value::int(42),
            Value::int(-1),
            Value::float(2.25),
            Value::float(f64::NAN),
            Value::str(""),
            Value::str("hello"),
            Value::str("héllo→"),
        ];
        let col = build(&vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(
                hash_cells([col.cell(i)]),
                hash_values([v]),
                "hash mismatch at {i}"
            );
        }
    }

    #[test]
    fn cell_eq_matches_value_eq() {
        let universe = vec![
            Value::Null,
            Value::int(-3),
            Value::int(10),
            Value::float(0.5),
            Value::str("a"),
            Value::str("b"),
        ];
        let col = build(&universe);
        // Mixed layout: every cell vs every value must agree with
        // Value's equality.
        for (i, a) in universe.iter().enumerate() {
            for b in &universe {
                assert_eq!(col.cell(i) == CellRef::from(b), a == b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn validity_tracks_nulls() {
        let col = build(&[Value::int(1), Value::Null, Value::int(3)]);
        let v = col.validity().unwrap();
        assert!(v.is_valid(0));
        assert!(!v.is_valid(1));
        assert!(v.is_valid(2));
        assert_eq!(v.null_count(), 1);
        assert_eq!(col.null_count(), 1);
        // No-null column carries no bitmap bytes.
        let dense = build(&[Value::int(1), Value::int(2)]);
        assert_eq!(dense.validity().unwrap().memory_bytes(), 0);
    }

    #[test]
    fn validity_across_word_boundary() {
        let mut vals = Vec::new();
        for i in 0..130i64 {
            vals.push(if i % 7 == 0 {
                Value::Null
            } else {
                Value::int(i)
            });
        }
        let col = build(&vals);
        for (i, v) in vals.iter().enumerate() {
            assert_eq!(&col.value(i), v, "cell {i}");
        }
    }

    #[test]
    fn slice_and_gather_preserve_cells() {
        let vals = vec![
            Value::str("a"),
            Value::Null,
            Value::str("c"),
            Value::str("a"),
            Value::str("e"),
        ];
        let col = build(&vals);
        let s = col.slice(1, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s.value(0), Value::Null);
        assert_eq!(s.value(2), Value::str("a"));
        let g = col.gather(&[4, 0, 1]);
        assert_eq!(g.value(0), Value::str("e"));
        assert_eq!(g.value(1), Value::str("a"));
        assert_eq!(g.value(2), Value::Null);
    }

    #[test]
    fn memory_bytes_scales_with_rows() {
        let small = build(&(0..10).map(Value::int).collect::<Vec<_>>());
        let big = build(&(0..1000).map(Value::int).collect::<Vec<_>>());
        assert!(big.memory_bytes() > small.memory_bytes());
        assert_eq!(big.memory_bytes(), 8000);
    }

    #[test]
    fn pool_interning_is_stable() {
        let mut pool = StrPool::new();
        let a = pool.intern("abc");
        let b = pool.intern("xyz");
        assert_eq!(pool.intern("abc"), a);
        assert_eq!(pool.code_of("xyz"), Some(b));
        assert_eq!(pool.code_of("missing"), None);
        assert_eq!(pool.get(a).as_ref(), "abc");
        assert_eq!(pool.len(), 2);
    }

    /// A pool charges its payloads, one `Arc` header and one
    /// `Arc<str>` per string (the code vector's slack left out), and
    /// its table at the table's real slot capacity — the same for a
    /// pool interned string by string and one decoded with its size
    /// known up front.
    #[test]
    fn str_pool_memory_counts_table_slots() {
        let strings = ["a", "bb", "ccc"];
        let mut built = StrPool::new();
        let mut decoded = StrPool::with_capacity(strings.len());
        for s in strings {
            built.intern(s);
            assert!(decoded.push_distinct(Arc::from(s)));
        }
        // 6 payload bytes, 3 × (16-byte header + 16-byte `Arc<str>`),
        // and (2 · 3).next_power_of_two() = 8 slots of 8 bytes.
        assert_eq!(built.memory_bytes(), 6 + 3 * 32 + 8 * 8);
        assert_eq!(decoded.memory_bytes(), built.memory_bytes());
        assert_eq!(StrPool::new().memory_bytes(), 0);
    }
}
