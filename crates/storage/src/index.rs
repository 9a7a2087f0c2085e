//! Hash indexes.
//!
//! The paper keeps "hash tables for relations to maintain tuples'
//! joinability information" (§3.2) and answers §6.2's `t ∈ Jᵢ` with
//! "(N−1)×(M−1) queries with key" against those same tables. One
//! shape, [`HashIndex`] (key of one or more attribute values → row
//! ids), serves both:
//!
//! * over a join edge's attributes it supplies candidate lists for
//!   random walks and per-key postings for exact weights;
//! * over *every* attribute of a relation it is the whole-row
//!   membership index behind the join membership oracle — a row is
//!   present iff its values encode to a key id.
//!
//! # Layout
//!
//! An index is integer arrays over the relation's shared columns; it
//! copies no value. Built for the samplers' per-attempt inner loop,
//! where a probe must not allocate:
//!
//! * Keys are **dictionary encoded** at build time: each distinct key
//!   gets a dense `u32` key id. Postings live in a **CSR layout** —
//!   one flat `row_ids` array plus an `offsets` array indexed by key
//!   id — so degree lookups and candidate enumeration are two integer
//!   array reads.
//! * A key's **representative row** is its first posting,
//!   `row_ids[offsets[k]]` — the first-seen row the build compared
//!   against. The index holds the relation's `Arc<[Column]>`, so a
//!   hash hit is confirmed by comparing the probe key with that row's
//!   cells.
//! * The dictionary is the crate's one open-addressing table (`IdTable`
//!   in [`hash`](crate::hash): power-of-two capacity, linear probing,
//!   one `u64` slot per key holding a 32-bit hash tag and the key id)
//!   over the locally implemented [Fx hasher](crate::hash::FxHasher),
//!   or, for a single dense integer or string attribute, a direct
//!   array (see `Probe`).
//! * There is **one probe**, over [`CellRef`] keys: hashes and
//!   equality of cells match [`Value`]'s bit for bit, so
//!   [`HashIndex::key_id_projected`] reads a `&[Value]` buffer through
//!   a position list (each value viewed as a cell), and
//!   [`HashIndex::key_id_at`] reads another relation's columns in
//!   place. Neither materializes a key.
//! * Builds read the base relation's **columns** directly, and in-build
//!   equality compares candidate rows cell-to-cell — for
//!   dictionary-encoded string columns that is a `u32` code compare,
//!   not a string compare.

use crate::column::{dense_int_slots, hash_cells, CellRef, Column, StrPool, Validity};
use crate::hash::{FxHasher, IdTable};
use crate::relation::Relation;
use crate::value::Value;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel key id: "this key is not in the dictionary" (no posting).
pub const NO_KEY: u32 = u32::MAX;

/// How probes map key values to dense key ids. Hashing is the general
/// mechanism; single-attribute typed layouts get direct structures —
/// the columnar analogue of "reuse the column's dictionary codes":
///
/// * [`Probe::DenseInt`] — integer keys whose span is comparable to
///   the row count resolve through a flat `value − min → key id`
///   array: no hashing at build time *or* probe time.
/// * [`Probe::StrCodes`] — string keys resolve through the column's
///   own interned pool (`string → code → key id`), so the build never
///   hashes a string and probes pay one pool lookup.
#[derive(Debug, Clone)]
enum Probe {
    /// The crate's open-addressing table (multi-attribute, float,
    /// sparse-int, mixed, and nullable-int keys); a tag match is
    /// confirmed against the key's representative row.
    Hash(IdTable),
    /// Direct-array mapping for dense, null-free integer keys.
    DenseInt {
        /// Smallest key value (array offset base).
        min: i64,
        /// `val_kid[v - min]` → key id ([`NO_KEY`] when absent).
        val_kid: Vec<u32>,
    },
    /// Dictionary-code mapping for string keys: `code_kid` maps the
    /// key column's pool codes to key ids.
    StrCodes {
        /// Pool code → key id ([`NO_KEY`] for codes with no rows).
        code_kid: Vec<u32>,
        /// Key id of the NULL key ([`NO_KEY`] when no row is NULL).
        null_kid: u32,
    },
}

/// Result of the dictionary-encoding pass: the probe structure,
/// per-key row counts, and every row's key id.
struct Encoded {
    probe: Probe,
    counts: Vec<u32>,
    row_keys: Vec<u32>,
}

/// Fx-hash of one non-null integer cell — must equal
/// `hash_cells([CellRef::Int(v)])`.
#[inline(always)]
fn fx_hash_i64(v: i64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(1);
    h.write_u64(v as u64);
    h.finish()
}

/// Fx-hash of one non-null float cell (bit pattern keyed, like
/// `Value::Float`'s `Hash`).
#[inline(always)]
fn fx_hash_f64_bits(bits: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(2);
    h.write_u64(bits);
    h.finish()
}

/// Fx-hash of a NULL cell.
#[inline(always)]
fn fx_hash_null() -> u64 {
    let mut h = FxHasher::default();
    h.write_u8(0);
    h.finish()
}

/// `Str` key encoding: the column is already dictionary encoded, so key
/// ids are a remap of the column's codes — one array read per row, no
/// hashing, no string compares, and the code map doubles as the probe
/// structure.
fn encode_str_column(codes: &[u32], pool: &StrPool, validity: &Validity) -> Encoded {
    // Slot per pool code, plus one trailing slot for NULL.
    let null_slot = pool.len();
    let mut code_kid: Vec<u32> = vec![NO_KEY; pool.len() + 1];
    let mut counts: Vec<u32> = Vec::new();
    let mut row_keys: Vec<u32> = Vec::with_capacity(codes.len());
    let has_nulls = validity.has_nulls();
    for (i, &c) in codes.iter().enumerate() {
        let slot = if has_nulls && !validity.is_valid(i) {
            null_slot
        } else {
            c as usize
        };
        let mut kid = code_kid[slot];
        if kid == NO_KEY {
            kid = counts.len() as u32;
            code_kid[slot] = kid;
            counts.push(0);
        }
        counts[kid as usize] += 1;
        row_keys.push(kid);
    }
    let null_kid = code_kid.pop().expect("null slot");
    Encoded {
        probe: Probe::StrCodes { code_kid, null_kid },
        counts,
        row_keys,
    }
}

/// Scalar key encoding shared by the `Int64` and `Float64` layouts:
/// a tight slice loop, no cell views, no enum dispatch. `$eq_key` maps
/// a payload to a `u64` whose equality is the layout's cell equality
/// (identity bits for ints, `to_bits` for floats — `total_cmp`
/// equality is exactly bit equality).
macro_rules! encode_scalar_column {
    ($name:ident, $t:ty, $hash:expr, $eq_key:expr) => {
        fn $name(values: &[$t], validity: &Validity) -> Encoded {
            let hash_of: fn($t) -> u64 = $hash;
            let key_of: fn($t) -> u64 = $eq_key;
            let mut table = IdTable::with_capacity_for(values.len());
            let mut rep_rows: Vec<u32> = Vec::new();
            let mut counts: Vec<u32> = Vec::new();
            let mut row_keys: Vec<u32> = Vec::with_capacity(values.len());
            if !validity.has_nulls() {
                for (i, &v) in values.iter().enumerate() {
                    let hash = hash_of(v);
                    let next_id = counts.len() as u32;
                    let kid = table.lookup_or_insert(hash, next_id, |k| {
                        key_of(values[rep_rows[k as usize] as usize]) == key_of(v)
                    });
                    if kid == next_id {
                        rep_rows.push(i as u32);
                        counts.push(0);
                    }
                    counts[kid as usize] += 1;
                    row_keys.push(kid);
                }
            } else {
                for (i, &v) in values.iter().enumerate() {
                    let valid = validity.is_valid(i);
                    let hash = if valid { hash_of(v) } else { fx_hash_null() };
                    let next_id = counts.len() as u32;
                    let kid = table.lookup_or_insert(hash, next_id, |k| {
                        let rep = rep_rows[k as usize] as usize;
                        let rep_valid = validity.is_valid(rep);
                        rep_valid == valid && (!valid || key_of(values[rep]) == key_of(v))
                    });
                    if kid == next_id {
                        rep_rows.push(i as u32);
                        counts.push(0);
                    }
                    counts[kid as usize] += 1;
                    row_keys.push(kid);
                }
            }
            Encoded {
                probe: Probe::Hash(table),
                counts,
                row_keys,
            }
        }
    };
}

encode_scalar_column!(encode_i64_hashed, i64, fx_hash_i64, |v| v as u64);
encode_scalar_column!(
    encode_f64_column,
    f64,
    |v: f64| fx_hash_f64_bits(v.to_bits()),
    f64::to_bits
);

/// `Int64` key encoding. Dense domains (the common shape of generated
/// and surrogate keys: values spanning a range comparable to the row
/// count) encode through a direct `value → key id` array — two array
/// reads per row, no hashing at all; the array doubles as the probe
/// structure. Sparse domains and nullable columns fall back to the
/// hashed tight loop.
fn encode_i64_column(values: &[i64], validity: &Validity) -> Encoded {
    if validity.has_nulls() || values.is_empty() {
        return encode_i64_hashed(values, validity);
    }
    let (mut min, mut max) = (i64::MAX, i64::MIN);
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    let Some(range) = dense_int_slots(min, max, values.len()) else {
        return encode_i64_hashed(values, validity);
    };
    let mut val_kid: Vec<u32> = vec![NO_KEY; range];
    let mut counts: Vec<u32> = Vec::new();
    let mut row_keys: Vec<u32> = Vec::with_capacity(values.len());
    for &v in values {
        let slot = (v - min) as usize;
        let mut kid = val_kid[slot];
        if kid == NO_KEY {
            kid = counts.len() as u32;
            val_kid[slot] = kid;
            counts.push(0);
        }
        counts[kid as usize] += 1;
        row_keys.push(kid);
    }
    Encoded {
        probe: Probe::DenseInt { min, val_kid },
        counts,
        row_keys,
    }
}

/// Generic key encoding (multi-attribute keys and `Mixed` columns):
/// hash the cells in place, compare against the representative row.
fn encode_generic(cols: &[&Column], n: usize) -> Encoded {
    let mut table = IdTable::with_capacity_for(n);
    let mut rep_rows: Vec<u32> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut row_keys: Vec<u32> = Vec::with_capacity(n);
    for row in 0..n {
        let hash = hash_cells(cols.iter().map(|c| c.cell(row)));
        let next_id = counts.len() as u32;
        let kid = table.lookup_or_insert(hash, next_id, |k| {
            let rep = rep_rows[k as usize] as usize;
            cols.iter().all(|c| c.cells_eq(rep, row))
        });
        if kid == next_id {
            rep_rows.push(row as u32);
            counts.push(0);
        }
        counts[kid as usize] += 1;
        row_keys.push(kid);
    }
    Encoded {
        probe: Probe::Hash(table),
        counts,
        row_keys,
    }
}

/// Index on one or more attributes of a relation: key values → row ids,
/// dictionary encoded with CSR postings over the relation's shared
/// columns (see the module docs).
#[derive(Debug, Clone)]
pub struct HashIndex {
    /// The indexed relation's columns (shared, not copied): the
    /// representative rows' cells are the dictionary.
    columns: Arc<[Column]>,
    /// Positions of the indexed attributes in the relation.
    positions: Vec<usize>,
    /// Key → key-id probe structure (hash table, dense-int array, or
    /// dictionary-code map — see [`Probe`]).
    probe: Probe,
    /// CSR postings: key id `k`'s row ids occupy
    /// `row_ids[offsets[k] .. offsets[k + 1]]`, in insertion order.
    offsets: Vec<u32>,
    row_ids: Vec<u32>,
    max_degree: usize,
}

static HASH_INDEX_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`HashIndex::build`] calls, membership
/// indexes included. A cold prepare builds one index per join edge —
/// for the sampler that walks it — and reads every statistic (maximum
/// degrees included) from column histograms; the prepare test pins
/// that by watching this counter.
pub fn hash_index_builds() -> u64 {
    HASH_INDEX_BUILDS.load(Ordering::Relaxed)
}

impl HashIndex {
    /// Builds an index over `attrs` of `relation`, reading the typed
    /// columns directly (no per-row tuple materialization). Over all of
    /// the relation's attributes it is a whole-row membership index.
    ///
    /// # Panics
    /// Panics if any attribute is missing from the relation's schema
    /// (callers validate schemas when constructing join specs).
    pub fn build(relation: &Relation, attrs: &[Arc<str>]) -> Self {
        HASH_INDEX_BUILDS.fetch_add(1, Ordering::Relaxed);
        let positions: Vec<usize> = attrs
            .iter()
            .map(|a| {
                relation
                    .schema()
                    .position(a)
                    .unwrap_or_else(|| panic!("attribute `{a}` not in {}", relation.schema()))
            })
            .collect();
        let n = relation.len();
        let cols: Vec<&Column> = positions.iter().map(|&p| relation.column(p)).collect();

        // Pass 1: dictionary-encode every row's key. Single-attribute
        // keys dispatch to a typed loop per column layout — `Str`
        // columns *reuse the column's own dictionary codes* (no hashing
        // or string compares per row at all); scalar columns run tight
        // slice loops. The generic path compares a candidate row to the
        // key's first-seen representative cell-to-cell.
        let Encoded {
            probe,
            counts,
            row_keys,
        } = match cols.as_slice() {
            [Column::Str {
                codes,
                pool,
                validity,
            }] => encode_str_column(codes, pool, validity),
            [Column::Int64 { values, validity }] => encode_i64_column(values, validity),
            [Column::Float64 { values, validity }] => encode_f64_column(values, validity),
            _ => encode_generic(&cols, n),
        };

        // Pass 2: prefix sums + scatter into the CSR arrays (stable, so
        // each key's postings keep insertion order and its first
        // posting is the first-seen representative row).
        let n_keys = counts.len();
        let mut offsets: Vec<u32> = Vec::with_capacity(n_keys + 1);
        let mut total = 0u32;
        offsets.push(0);
        for &c in &counts {
            total += c;
            offsets.push(total);
        }
        let mut cursor: Vec<u32> = offsets[..n_keys].to_vec();
        let mut row_ids = vec![0u32; n];
        for (rid, &kid) in row_keys.iter().enumerate() {
            let c = &mut cursor[kid as usize];
            row_ids[*c as usize] = rid as u32;
            *c += 1;
        }
        let max_degree = counts.iter().copied().max().unwrap_or(0) as usize;

        Self {
            columns: relation.shared_columns(),
            positions,
            probe,
            offsets,
            row_ids,
            max_degree,
        }
    }

    /// Number of distinct keys (the dictionary size).
    #[inline]
    pub fn n_keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The one probe: the key id of the key whose `i`-th cell is
    /// `key(i)`, if indexed. A hash hit is confirmed against the cells
    /// of the key's representative row, its first posting.
    #[inline]
    fn probe<'k>(&self, key: impl Fn(usize) -> CellRef<'k>) -> Option<u32> {
        let kid = match &self.probe {
            Probe::Hash(table) => {
                let hash = hash_cells((0..self.positions.len()).map(&key));
                return table.lookup(hash, |k| {
                    let rep = self.row_ids[self.offsets[k as usize] as usize] as usize;
                    self.positions
                        .iter()
                        .enumerate()
                        .all(|(i, &p)| self.columns[p].cell(rep) == key(i))
                });
            }
            Probe::DenseInt { min, val_kid } => match key(0) {
                CellRef::Int(v) => {
                    let off = usize::try_from(v.checked_sub(*min)?).ok()?;
                    *val_kid.get(off)?
                }
                _ => return None,
            },
            Probe::StrCodes { code_kid, null_kid } => match key(0) {
                CellRef::Str(s) => match &self.columns[self.positions[0]] {
                    Column::Str { pool, .. } => code_kid[pool.code_of(s)? as usize],
                    _ => unreachable!("StrCodes probe over non-Str column"),
                },
                CellRef::Null => *null_kid,
                _ => return None,
            },
        };
        (kid != NO_KEY).then_some(kid)
    }

    /// Dictionary lookup through a projection: encodes the key read from
    /// `source[positions[0]], source[positions[1]], …` without
    /// materializing it — the samplers' allocation-free probe, and the
    /// membership oracle's `π_R(t) ∈ R` check over a whole-row index.
    #[inline]
    pub fn key_id_projected(&self, source: &[Value], positions: &[usize]) -> Option<u32> {
        debug_assert_eq!(
            positions.len(),
            self.positions.len(),
            "probe arity mismatch"
        );
        self.probe(|i| CellRef::from(&source[positions[i]]))
    }

    /// Dictionary lookup straight off another relation's columns: the
    /// key is read from row `row` of `relation` at `positions` — no
    /// value is materialized. This is how prepared join structures
    /// encode every parent row's probe key at build time.
    #[inline]
    pub fn key_id_at(&self, relation: &Relation, positions: &[usize], row: usize) -> Option<u32> {
        debug_assert_eq!(
            positions.len(),
            self.positions.len(),
            "probe arity mismatch"
        );
        self.probe(|i| relation.column(positions[i]).cell(row))
    }

    /// [`key_id_at`](Self::key_id_at) over every row of `relation`,
    /// [`NO_KEY`] for a miss: how prepared join structures encode a
    /// parent's probe keys at build time. A dense integer key over an
    /// `Int64` column is one array read a row; any other pairing
    /// probes row by row.
    pub fn key_ids_at(&self, relation: &Relation, positions: &[usize]) -> Vec<u32> {
        debug_assert_eq!(
            positions.len(),
            self.positions.len(),
            "probe arity mismatch"
        );
        let column = positions.first().map(|&p| relation.column(p));
        match (&self.probe, column) {
            (Probe::DenseInt { min, val_kid }, Some(Column::Int64 { values, validity })) => {
                let kid = |v: i64| {
                    let off = v.checked_sub(*min).and_then(|o| usize::try_from(o).ok());
                    off.and_then(|o| val_kid.get(o).copied()).unwrap_or(NO_KEY)
                };
                if !validity.has_nulls() {
                    return values.iter().map(|&v| kid(v)).collect();
                }
                // NULL rows hold placeholders `kid` must not see.
                let cell = |(row, &v): (usize, &i64)| {
                    if validity.is_valid(row) {
                        kid(v)
                    } else {
                        NO_KEY
                    }
                };
                values.iter().enumerate().map(cell).collect()
            }
            _ => (0..relation.len())
                .map(|row| self.key_id_at(relation, positions, row).unwrap_or(NO_KEY))
                .collect(),
        }
    }

    /// CSR postings of key id `kid`: matching row ids in insertion
    /// order.
    #[inline]
    pub fn postings(&self, kid: u32) -> &[u32] {
        let lo = self.offsets[kid as usize] as usize;
        let hi = self.offsets[kid as usize + 1] as usize;
        &self.row_ids[lo..hi]
    }

    /// Degree of key id `kid` — a single subtraction of offsets.
    #[inline]
    pub fn degree_of(&self, kid: u32) -> usize {
        (self.offsets[kid as usize + 1] - self.offsets[kid as usize]) as usize
    }

    /// Row ids matching the key projected out of `source` at
    /// `positions`, or an empty slice (allocation-free).
    #[inline]
    pub fn rows_matching_projected(&self, source: &[Value], positions: &[usize]) -> &[u32] {
        match self.key_id_projected(source, positions) {
            Some(kid) => self.postings(kid),
            None => &[],
        }
    }

    /// Maximum degree over all keys — `M_A(R)` of §3.2/§5.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Approximate resident bytes the index owns (probe structure and
    /// CSR arrays; the columns are shared with the relation).
    pub fn memory_bytes(&self) -> usize {
        let probe_bytes = match &self.probe {
            Probe::Hash(table) => table.memory_bytes(),
            Probe::DenseInt { val_kid, .. } => val_kid.len() * 4,
            Probe::StrCodes { code_kid, .. } => code_kid.len() * 4,
        };
        probe_bytes + (self.offsets.len() + self.row_ids.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;
    use crate::tuple::Tuple;

    fn rel() -> Relation {
        let schema = Schema::new(["k", "v"]).unwrap();
        Relation::new(
            "r",
            schema,
            vec![
                tuple![1i64, 10i64],
                tuple![1i64, 11i64],
                tuple![2i64, 20i64],
                tuple![1i64, 12i64],
            ],
        )
        .unwrap()
    }

    fn str_rel() -> Relation {
        let schema = Schema::new(["k", "v"]).unwrap();
        Relation::new(
            "s",
            schema,
            vec![
                tuple!["apple", 1i64],
                tuple!["pear", 2i64],
                tuple!["apple", 3i64],
            ],
        )
        .unwrap()
    }

    fn index_on(r: &Relation, attrs: &[&str]) -> HashIndex {
        let attrs: Vec<Arc<str>> = attrs.iter().map(|&a| Arc::from(a)).collect();
        HashIndex::build(r, &attrs)
    }

    /// The whole-row membership index of `r`.
    fn whole_row(r: &Relation) -> HashIndex {
        HashIndex::build(r, r.schema().attrs())
    }

    /// The key id of a key spelled out as values.
    fn kid(idx: &HashIndex, key: &[Value]) -> Option<u32> {
        idx.key_id_projected(key, &(0..key.len()).collect::<Vec<_>>())
    }

    /// The postings of a key spelled out as values.
    fn rows<'a>(idx: &'a HashIndex, key: &[Value]) -> &'a [u32] {
        idx.rows_matching_projected(key, &(0..key.len()).collect::<Vec<_>>())
    }

    fn contains(idx: &HashIndex, row: &Tuple) -> bool {
        kid(idx, row.values()).is_some()
    }

    #[test]
    fn postings_and_degrees() {
        let r = rel();
        let idx = index_on(&r, &["k"]);
        assert_eq!(rows(&idx, &[Value::int(1)]).len(), 3);
        assert_eq!(rows(&idx, &[Value::int(2)]).len(), 1);
        assert_eq!(rows(&idx, &[Value::int(9)]).len(), 0);
        assert_eq!(idx.max_degree(), 3);
        assert_eq!(idx.n_keys(), 2);
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn rows_matching_returns_ids_in_insertion_order() {
        let r = rel();
        let idx = index_on(&r, &["k"]);
        assert_eq!(rows(&idx, &[Value::int(1)]), &[0, 1, 3]);
        assert!(rows(&idx, &[Value::int(42)]).is_empty());
    }

    #[test]
    fn dictionary_encoding_round_trips() {
        let r = rel();
        let idx = index_on(&r, &["k"]);
        assert_eq!(idx.n_keys(), 2);
        let k = kid(&idx, &[Value::int(1)]).unwrap();
        // The key's representative is its first posting.
        assert_eq!(idx.postings(k), &[0, 1, 3]);
        assert_eq!(
            r.column(0).cell(idx.postings(k)[0] as usize),
            CellRef::Int(1)
        );
        assert_eq!(idx.degree_of(k), 3);
        assert_eq!(kid(&idx, &[Value::int(7)]), None);
        // Another type never matches an integer key.
        assert_eq!(kid(&idx, &[Value::float(1.0)]), None);
    }

    #[test]
    fn str_keys_reuse_dictionary_codes() {
        let r = str_rel();
        let idx = index_on(&r, &["k"]);
        assert_eq!(idx.n_keys(), 2);
        assert_eq!(rows(&idx, &[Value::str("apple")]), &[0, 2]);
        assert_eq!(rows(&idx, &[Value::str("pear")]), &[1]);
        assert_eq!(rows(&idx, &[Value::str("plum")]), &[] as &[u32]);
    }

    #[test]
    fn projected_probe_matches_value_probe() {
        let r = rel();
        let idx = index_on(&r, &["k"]);
        // Probe with the key sitting at position 2 of a wider buffer.
        let buffer = vec![Value::int(99), Value::str("pad"), Value::int(1)];
        assert_eq!(
            idx.key_id_projected(&buffer, &[2]),
            kid(&idx, &[Value::int(1)])
        );
        assert_eq!(idx.rows_matching_projected(&buffer, &[2]), &[0, 1, 3]);
        let miss = vec![Value::int(42)];
        assert_eq!(idx.key_id_projected(&miss, &[0]), None);
    }

    #[test]
    fn column_probe_matches_value_probe() {
        // key_id_at reads another relation's columns in place.
        let r = rel();
        let idx = index_on(&r, &["k"]);
        let other = Relation::new(
            "probe",
            Schema::new(["x", "k"]).unwrap(),
            vec![tuple![0i64, 1i64], tuple![0i64, 2i64], tuple![0i64, 9i64]],
        )
        .unwrap();
        assert_eq!(idx.key_id_at(&other, &[1], 0), kid(&idx, &[Value::int(1)]));
        assert_eq!(idx.key_id_at(&other, &[1], 1), kid(&idx, &[Value::int(2)]));
        assert_eq!(idx.key_id_at(&other, &[1], 2), None);

        // Str keys probed from a different relation (different pool).
        let s = str_rel();
        let sidx = index_on(&s, &["k"]);
        let probe = Relation::new(
            "p",
            Schema::new(["k"]).unwrap(),
            vec![tuple!["pear"], tuple!["plum"]],
        )
        .unwrap();
        assert_eq!(
            sidx.key_id_at(&probe, &[0], 0),
            kid(&sidx, &[Value::str("pear")])
        );
        assert_eq!(sidx.key_id_at(&probe, &[0], 1), None);
    }

    #[test]
    fn multi_attribute_keys() {
        let schema = Schema::new(["a", "b", "c"]).unwrap();
        let r = Relation::new(
            "r",
            schema,
            vec![
                tuple![1i64, 2i64, 100i64],
                tuple![1i64, 2i64, 200i64],
                tuple![1i64, 3i64, 300i64],
            ],
        )
        .unwrap();
        let idx = index_on(&r, &["a", "b"]);
        assert_eq!(rows(&idx, &[Value::int(1), Value::int(2)]), &[0, 1]);
        assert_eq!(rows(&idx, &[Value::int(1), Value::int(3)]), &[2]);
        assert_eq!(idx.max_degree(), 2);
    }

    #[test]
    fn empty_relation_index() {
        let r = Relation::new("e", Schema::new(["x"]).unwrap(), vec![]).unwrap();
        let idx = index_on(&r, &["x"]);
        assert_eq!(idx.max_degree(), 0);
        assert_eq!(idx.n_keys(), 0);
        assert_eq!(kid(&idx, &[Value::int(1)]), None);
    }

    #[test]
    fn entries_enumerate_all_keys() {
        let r = rel();
        let idx = index_on(&r, &["k"]);
        let collected: Vec<(Value, Vec<u32>)> = (0..idx.n_keys() as u32)
            .map(|k| {
                let rows = idx.postings(k);
                (r.column(0).value(rows[0] as usize), rows.to_vec())
            })
            .collect();
        // First-seen order: key 1 then key 2.
        assert_eq!(
            collected,
            vec![(Value::int(1), vec![0, 1, 3]), (Value::int(2), vec![2])]
        );
    }

    #[test]
    fn null_keys_index_like_values() {
        let schema = Schema::new(["k"]).unwrap();
        let r = Relation::new(
            "n",
            schema,
            vec![
                Tuple::new(vec![Value::Null]),
                Tuple::new(vec![Value::int(1)]),
                Tuple::new(vec![Value::Null]),
            ],
        )
        .unwrap();
        let idx = index_on(&r, &["k"]);
        assert_eq!(rows(&idx, &[Value::Null]), &[0, 2]);
        assert_eq!(idx.max_degree(), 2);
    }

    #[test]
    fn membership_contains() {
        let r = rel();
        let m = whole_row(&r);
        assert!(contains(&m, &tuple![1i64, 11i64]));
        assert!(!contains(&m, &tuple![1i64, 99i64]));
        assert!(contains(&m, &tuple![2i64, 20i64]));
        assert_eq!(m.n_keys(), 4);
    }

    #[test]
    fn membership_projection_probe() {
        let r = rel();
        let m = whole_row(&r);
        // Canonical tuple (v, pad, k): project positions [2, 0] → (k, v).
        let canonical = tuple![11i64, 7i64, 1i64];
        assert!(m.key_id_projected(canonical.values(), &[2, 0]).is_some());
        assert!(m.key_id_projected(canonical.values(), &[0, 2]).is_none());
    }

    #[test]
    fn membership_over_strings() {
        let s = str_rel();
        let m = whole_row(&s);
        assert!(contains(&m, &tuple!["apple", 3i64]));
        assert!(!contains(&m, &tuple!["apple", 2i64]));
        assert!(m
            .key_id_projected(tuple![1i64, "apple"].values(), &[1, 0])
            .is_some());
    }

    #[test]
    fn empty_membership_is_probe_safe() {
        let r = Relation::new("e", Schema::new(["x", "y"]).unwrap(), vec![]).unwrap();
        let m = whole_row(&r);
        assert_eq!(m.n_keys(), 0);
        assert!(!contains(&m, &tuple![1i64, 2i64]));
        assert!(!contains(&m, &Tuple::new(vec![Value::Null, Value::Null])));
    }

    #[test]
    fn membership_deduplicates() {
        let schema = Schema::new(["x"]).unwrap();
        let r = Relation::new("d", schema, vec![tuple![1i64], tuple![1i64]]).unwrap();
        let m = whole_row(&r);
        assert_eq!(m.n_keys(), 1);
        assert_eq!(m.postings(0), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "not in")]
    fn unknown_attribute_panics() {
        let r = rel();
        index_on(&r, &["missing"]);
    }
}
