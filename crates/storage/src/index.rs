//! Hash indexes.
//!
//! The paper replaces Zhao et al.'s B-tree index structures with "hash
//! tables for relations to maintain tuples' joinability information"
//! (§3.2). Two index shapes cover every access pattern in the framework:
//!
//! * [`HashIndex`] — join-attribute index: key (one or more attribute
//!   values) → row ids. Supplies degrees for Olken bounds, candidate
//!   lists for random walks, and per-value postings for exact weights.
//! * [`RowMembership`] — whole-row existence index, the building block of
//!   the join membership oracle (§6.2 checks "to see where t is contained
//!   in J_i ... it just requires (N−1)×(M−1) queries with key").
//!
//! # Hot-path layout
//!
//! Both indexes are built for the samplers' per-attempt inner loop,
//! where a probe must not allocate:
//!
//! * Join-attribute keys are **dictionary encoded** at build time: each
//!   distinct key value sequence gets a dense `u32` key id. Postings
//!   live in a **CSR layout** — one flat `row_ids` array plus an
//!   `offsets` array indexed by key id — so degree lookups and
//!   candidate enumeration are two integer array reads.
//! * The dictionary itself is a flat open-addressing table (power-of-two
//!   capacity, linear probing, cached hashes) over the locally
//!   implemented [Fx hasher](crate::hash::FxHasher). Probes hash the
//!   key values **in place** — [`HashIndex::key_id_projected`] reads
//!   them through a position list from any buffer, and
//!   [`HashIndex::key_id_at`] straight off another relation's columns —
//!   so no `Box<[Value]>` key is ever materialized.
//! * Builds read the base relation's **columns** directly: the per-row
//!   key hash is computed from [`CellRef`] views
//!   (whose hashes match [`Value`] hashes bit for bit), and in-build
//!   equality compares candidate rows cell-to-cell — for
//!   dictionary-encoded string columns that is a `u32` code compare,
//!   not a string compare.
//! * [`RowMembership`] uses the same table shape over whole rows,
//!   storing only distinct *row ids* against a shared column snapshot;
//!   [`RowMembership::contains_projection`] answers `π_R(t) ∈ R`
//!   straight off the canonical tuple, which is what makes the
//!   membership oracle's `t ∈ Jᵢ` checks allocation-free.

use crate::column::{dense_int_slots, hash_cells, CellRef, Column, StrPool, Validity};
use crate::hash::{hash_values, FxHasher};
use crate::relation::Relation;
use crate::tuple::Tuple;
use crate::value::Value;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel key id: "this key is not in the dictionary" (no posting).
pub const NO_KEY: u32 = u32::MAX;

/// Empty slot marker inside the open-addressing tables.
const EMPTY: u32 = u32::MAX;

/// A minimal open-addressing id table: hash → dense `u32` id, with the
/// caller supplying value equality. Power-of-two capacity, linear
/// probing, load factor ≤ ½ (capacity is fixed up front from the row
/// count, which bounds the number of distinct ids).
#[derive(Debug, Clone)]
struct IdTable {
    ids: Vec<u32>,
    hashes: Vec<u64>,
    mask: usize,
}

impl Default for IdTable {
    /// A valid empty table (all slots empty), so probing a
    /// default-constructed index is a miss rather than an
    /// out-of-bounds read.
    fn default() -> Self {
        Self::with_capacity_for(0)
    }
}

impl IdTable {
    fn with_capacity_for(n: usize) -> Self {
        let cap = (n.max(1) * 2).next_power_of_two();
        Self {
            ids: vec![EMPTY; cap],
            hashes: vec![0; cap],
            mask: cap - 1,
        }
    }

    /// Finds the id whose entry matches `hash` and `eq`, if present.
    #[inline]
    fn lookup(&self, hash: u64, eq: impl Fn(u32) -> bool) -> Option<u32> {
        let mut slot = hash as usize & self.mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                return None;
            }
            if self.hashes[slot] == hash && eq(id) {
                return Some(id);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Looks up `hash`/`eq`, inserting `next_id` on a miss. Returns the
    /// resident or inserted id.
    fn lookup_or_insert(&mut self, hash: u64, next_id: u32, eq: impl Fn(u32) -> bool) -> u32 {
        let mut slot = hash as usize & self.mask;
        loop {
            let id = self.ids[slot];
            if id == EMPTY {
                self.ids[slot] = next_id;
                self.hashes[slot] = hash;
                return next_id;
            }
            if self.hashes[slot] == hash && eq(id) {
                return id;
            }
            slot = (slot + 1) & self.mask;
        }
    }
}

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
    /// Open-addressing table over cached hashes (multi-attribute,
    /// float, sparse-int, mixed, and nullable-int keys).
    Hash(IdTable),
    /// Direct-array mapping for dense, null-free integer keys.
    DenseInt {
        /// Smallest key value (array offset base).
        min: i64,
        /// `val_kid[v - min]` → key id ([`NO_KEY`] when absent).
        val_kid: Vec<u32>,
    },
    /// Dictionary-code mapping for string keys: the key column is
    /// shared (`Arc`), and `code_kid` maps its pool codes to key ids.
    StrCodes {
        /// The indexed relation's columns (shared, not copied).
        columns: Arc<[Column]>,
        /// Position of the key column.
        pos: usize,
        /// Pool code → key id ([`NO_KEY`] for codes with no rows).
        code_kid: Vec<u32>,
        /// Key id of the NULL key ([`NO_KEY`] when no row is NULL).
        null_kid: u32,
    },
}

/// Result of the dictionary-encoding pass: the probe structure, the
/// first-seen representative row of each key, per-key row counts, and
/// every row's key id.
struct Encoded {
    probe: Probe,
    rep_rows: Vec<u32>,
    counts: Vec<u32>,
    row_keys: Vec<u32>,
}

/// Fx-hash of one non-null integer cell — must equal
/// `hash_values([&Value::Int(v)])`.
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
fn encode_str_column(
    codes: &[u32],
    pool: &StrPool,
    validity: &Validity,
    columns: Arc<[Column]>,
    pos: usize,
) -> Encoded {
    // Slot per pool code, plus one trailing slot for NULL.
    let null_slot = pool.len();
    let mut code_kid: Vec<u32> = vec![NO_KEY; pool.len() + 1];
    let mut rep_rows: Vec<u32> = Vec::new();
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
            rep_rows.push(i as u32);
            counts.push(0);
        }
        counts[kid as usize] += 1;
        row_keys.push(kid);
    }
    let null_kid = code_kid.pop().expect("null slot");
    Encoded {
        probe: Probe::StrCodes {
            columns,
            pos,
            code_kid,
            null_kid,
        },
        rep_rows,
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
                rep_rows,
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
    let mut rep_rows: Vec<u32> = Vec::new();
    let mut counts: Vec<u32> = Vec::new();
    let mut row_keys: Vec<u32> = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        let slot = (v - min) as usize;
        let mut kid = val_kid[slot];
        if kid == NO_KEY {
            kid = counts.len() as u32;
            val_kid[slot] = kid;
            rep_rows.push(i as u32);
            counts.push(0);
        }
        counts[kid as usize] += 1;
        row_keys.push(kid);
    }
    Encoded {
        probe: Probe::DenseInt { min, val_kid },
        rep_rows,
        counts,
        row_keys,
    }
}

/// Materializes each distinct key's values from its representative
/// row — monomorphic loop per single-column layout, generic cell walk
/// otherwise.
fn materialize_key_values(cols: &[&Column], rep_rows: &[u32], key_arity: usize) -> Vec<Value> {
    match cols {
        [Column::Int64 { values, validity }] => rep_rows
            .iter()
            .map(|&rep| {
                if validity.is_valid(rep as usize) {
                    Value::Int(values[rep as usize])
                } else {
                    Value::Null
                }
            })
            .collect(),
        [Column::Float64 { values, validity }] => rep_rows
            .iter()
            .map(|&rep| {
                if validity.is_valid(rep as usize) {
                    Value::Float(values[rep as usize])
                } else {
                    Value::Null
                }
            })
            .collect(),
        [Column::Str {
            codes,
            pool,
            validity,
        }] => rep_rows
            .iter()
            .map(|&rep| {
                if validity.is_valid(rep as usize) {
                    Value::Str(pool.get(codes[rep as usize]).clone())
                } else {
                    Value::Null
                }
            })
            .collect(),
        _ => {
            let mut key_values: Vec<Value> = Vec::with_capacity(rep_rows.len() * key_arity);
            for &rep in rep_rows {
                key_values.extend(cols.iter().map(|c| c.value(rep as usize)));
            }
            key_values
        }
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
        rep_rows,
        counts,
        row_keys,
    }
}

/// Index on one or more attributes of a relation: key values → row ids,
/// dictionary encoded with CSR postings (see the module docs).
#[derive(Debug, Clone)]
pub struct HashIndex {
    attrs: Vec<Arc<str>>,
    positions: Vec<usize>,
    key_arity: usize,
    /// Dictionary storage: key id `k`'s values occupy
    /// `key_values[k * key_arity .. (k + 1) * key_arity]`.
    key_values: Vec<Value>,
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

/// Process-wide count of [`HashIndex::build`] calls. A cold prepare
/// builds one index per join edge — for the sampler that walks it —
/// and reads every statistic (maximum degrees included) from column
/// histograms; the prepare test pins that by watching this counter.
pub fn hash_index_builds() -> u64 {
    HASH_INDEX_BUILDS.load(Ordering::Relaxed)
}

impl HashIndex {
    /// Builds an index over `attrs` of `relation`, reading the typed
    /// columns directly (no per-row tuple materialization).
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
        let key_arity = positions.len();
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
            rep_rows,
            counts,
            row_keys,
        } = match cols.as_slice() {
            [Column::Str {
                codes,
                pool,
                validity,
            }] => encode_str_column(
                codes,
                pool,
                validity,
                relation.shared_columns(),
                positions[0],
            ),
            [Column::Int64 { values, validity }] => encode_i64_column(values, validity),
            [Column::Float64 { values, validity }] => encode_f64_column(values, validity),
            _ => encode_generic(&cols, n),
        };

        // Materialize the dictionary values once per distinct key (the
        // representation `entries` and the hashed probes compare
        // against), through a monomorphic loop per layout.
        let key_values = materialize_key_values(&cols, &rep_rows, key_arity);

        // Pass 2: prefix sums + scatter into the CSR arrays (stable, so
        // each key's postings keep insertion order).
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
            attrs: attrs.to_vec(),
            positions,
            key_arity,
            key_values,
            probe,
            offsets,
            row_ids,
            max_degree,
        }
    }

    /// Convenience: single-attribute index.
    pub fn build_single(relation: &Relation, attr: &str) -> Self {
        Self::build(relation, &[Arc::from(attr)])
    }

    /// Indexed attribute names.
    pub fn attrs(&self) -> &[Arc<str>] {
        &self.attrs
    }

    /// Positions of the indexed attributes in the base relation.
    pub fn positions(&self) -> &[usize] {
        &self.positions
    }

    /// Number of distinct keys (the dictionary size).
    #[inline]
    pub fn n_keys(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The dictionary values of key id `kid`.
    #[inline]
    pub fn key_values(&self, kid: u32) -> &[Value] {
        let base = kid as usize * self.key_arity;
        &self.key_values[base..base + self.key_arity]
    }

    /// Dictionary lookup: the dense key id of `key`, if indexed.
    #[inline]
    pub fn key_id(&self, key: &[Value]) -> Option<u32> {
        if key.len() != self.key_arity {
            return None;
        }
        let kid = match &self.probe {
            Probe::Hash(table) => {
                let hash = hash_values(key.iter());
                table.lookup(hash, |k| self.key_values(k) == key)?
            }
            _ => self.probe_single(&key[0])?,
        };
        debug_assert_eq!(self.key_values(kid), key, "key id must round-trip");
        Some(kid)
    }

    /// Resolves a single-attribute key through a direct probe
    /// structure (`DenseInt` / `StrCodes`).
    #[inline]
    fn probe_single(&self, key: &Value) -> Option<u32> {
        let kid = match &self.probe {
            Probe::Hash(_) => unreachable!("probe_single on hashed index"),
            Probe::DenseInt { min, val_kid } => match key {
                Value::Int(v) => {
                    let off = usize::try_from(v.checked_sub(*min)?).ok()?;
                    *val_kid.get(off)?
                }
                _ => return None,
            },
            Probe::StrCodes {
                columns,
                pos,
                code_kid,
                null_kid,
            } => match key {
                Value::Str(s) => match &columns[*pos] {
                    Column::Str { pool, .. } => code_kid[pool.code_of(s)? as usize],
                    _ => unreachable!("StrCodes probe over non-Str column"),
                },
                Value::Null => *null_kid,
                _ => return None,
            },
        };
        (kid != NO_KEY).then_some(kid)
    }

    /// Like [`probe_single`](Self::probe_single), reading the key from
    /// a cell view.
    #[inline]
    fn probe_single_cell(&self, cell: CellRef<'_>) -> Option<u32> {
        let kid = match &self.probe {
            Probe::Hash(_) => unreachable!("probe_single_cell on hashed index"),
            Probe::DenseInt { min, val_kid } => match cell {
                CellRef::Int(v) => {
                    let off = usize::try_from(v.checked_sub(*min)?).ok()?;
                    *val_kid.get(off)?
                }
                _ => return None,
            },
            Probe::StrCodes {
                columns,
                pos,
                code_kid,
                null_kid,
            } => match cell {
                CellRef::Str(s) => match &columns[*pos] {
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
    /// materializing it — the samplers' allocation-free probe.
    #[inline]
    pub fn key_id_projected(&self, source: &[Value], positions: &[usize]) -> Option<u32> {
        debug_assert_eq!(positions.len(), self.key_arity, "probe arity mismatch");
        let table = match &self.probe {
            Probe::Hash(table) => table,
            _ => return self.probe_single(&source[positions[0]]),
        };
        let hash = hash_values(positions.iter().map(|&p| &source[p]));
        let kid = table.lookup(hash, |k| {
            let stored = self.key_values(k);
            positions.iter().zip(stored).all(|(&p, v)| &source[p] == v)
        })?;
        debug_assert!(
            self.key_values(kid)
                .iter()
                .zip(positions)
                .all(|(v, &p)| v == &source[p]),
            "projected key id must round-trip"
        );
        Some(kid)
    }

    /// Dictionary lookup straight off another relation's columns: the
    /// key is read from row `row` of `relation` at `positions` — no
    /// value is materialized. This is how prepared join structures
    /// encode every parent row's probe key at build time.
    #[inline]
    pub fn key_id_at(&self, relation: &Relation, positions: &[usize], row: usize) -> Option<u32> {
        debug_assert_eq!(positions.len(), self.key_arity, "probe arity mismatch");
        let table = match &self.probe {
            Probe::Hash(table) => table,
            _ => return self.probe_single_cell(relation.column(positions[0]).cell(row)),
        };
        let hash = hash_cells(positions.iter().map(|&p| relation.column(p).cell(row)));
        table.lookup(hash, |k| {
            let stored = self.key_values(k);
            positions
                .iter()
                .zip(stored)
                .all(|(&p, v)| relation.column(p).cell(row).eq_value(v))
        })
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

    /// Row ids matching a key, or an empty slice.
    #[inline]
    pub fn rows_matching(&self, key: &[Value]) -> &[u32] {
        match self.key_id(key) {
            Some(kid) => self.postings(kid),
            None => &[],
        }
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

    /// Number of rows matching a key — the degree `d_A(v, R)` of §5.
    #[inline]
    pub fn degree(&self, key: &[Value]) -> usize {
        self.rows_matching(key).len()
    }

    /// Maximum degree over all keys — `M_A(R)` of §3.2/§5.
    #[inline]
    pub fn max_degree(&self) -> usize {
        self.max_degree
    }

    /// Average degree over distinct keys.
    pub fn avg_degree(&self) -> f64 {
        if self.n_keys() == 0 {
            0.0
        } else {
            self.row_ids.len() as f64 / self.n_keys() as f64
        }
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.n_keys()
    }

    /// Iterates `(key, row ids)` pairs in key-id (first-seen) order.
    pub fn entries(&self) -> impl Iterator<Item = (&[Value], &[u32])> {
        (0..self.n_keys() as u32).map(|kid| (self.key_values(kid), self.postings(kid)))
    }

    /// Approximate resident bytes of the index (dictionary, table, CSR
    /// arrays).
    pub fn memory_bytes(&self) -> usize {
        let dict: usize = self
            .key_values
            .iter()
            .map(|v| match v {
                Value::Str(s) => std::mem::size_of::<Value>() + 16 + s.len(),
                _ => std::mem::size_of::<Value>(),
            })
            .sum();
        let probe_bytes = match &self.probe {
            Probe::Hash(table) => table.ids.len() * (4 + 8),
            Probe::DenseInt { val_kid, .. } => val_kid.len() * 4,
            // The columns are shared with the relation; only the code
            // map is owned.
            Probe::StrCodes { code_kid, .. } => code_kid.len() * 4,
        };
        dict + probe_bytes + (self.offsets.len() + self.row_ids.len()) * 4
    }
}

/// Whole-row existence index over a relation (set semantics), keyed by
/// the row's full value sequence. Stores distinct *row ids* against a
/// shared snapshot of the relation's columns; open-addressing over
/// cached hashes; probes never allocate (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct RowMembership {
    /// The indexed relation's columns (shared, not copied).
    columns: Arc<[Column]>,
    arity: usize,
    /// Distinct row ids, first-seen order.
    distinct: Vec<u32>,
    table: IdTable,
}

static MEMBERSHIP_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of [`RowMembership::build`] calls. Membership
/// indexes are built by the first probe that needs them, and the plans
/// the planner emits by default never probe one; the prepare and
/// restore tests pin that by watching this counter.
pub fn membership_builds() -> u64 {
    MEMBERSHIP_BUILDS.load(Ordering::Relaxed)
}

impl RowMembership {
    /// Builds a membership index for all rows of a relation.
    pub fn build(relation: &Relation) -> Self {
        MEMBERSHIP_BUILDS.fetch_add(1, Ordering::Relaxed);
        let columns: Arc<[Column]> = relation.shared_columns();
        let arity = relation.schema().arity();
        let mut table = IdTable::with_capacity_for(relation.len());
        let mut distinct: Vec<u32> = Vec::new();
        for row in 0..relation.len() {
            let hash = hash_cells(columns.iter().map(|c| c.cell(row)));
            let next_id = distinct.len() as u32;
            let id = table.lookup_or_insert(hash, next_id, |i| {
                let rep = distinct[i as usize] as usize;
                columns.iter().all(|c| c.cells_eq(rep, row))
            });
            if id == next_id {
                distinct.push(row as u32);
            }
        }
        Self {
            columns,
            arity,
            distinct,
            table,
        }
    }

    /// Whether the exact row exists in the relation.
    #[inline]
    pub fn contains(&self, row: &Tuple) -> bool {
        self.contains_values(row.values())
    }

    /// Whether a row with exactly these values exists (no allocation).
    #[inline]
    pub fn contains_values(&self, values: &[Value]) -> bool {
        if values.len() != self.arity {
            return false;
        }
        let hash = hash_values(values.iter());
        self.table
            .lookup(hash, |i| {
                let rep = self.distinct[i as usize] as usize;
                self.columns
                    .iter()
                    .zip(values)
                    .all(|(c, v)| c.cell(rep).eq_value(v))
            })
            .is_some()
    }

    /// Whether the projection of `source` onto `positions` is a row —
    /// the membership oracle's `π_R(t) ∈ R` probe, answered straight
    /// off the canonical tuple with zero allocation.
    #[inline]
    pub fn contains_projection(&self, source: &Tuple, positions: &[usize]) -> bool {
        if positions.len() != self.arity {
            return false;
        }
        let hash = hash_values(positions.iter().map(|&p| source.get(p)));
        self.table
            .lookup(hash, |i| {
                let rep = self.distinct[i as usize] as usize;
                self.columns
                    .iter()
                    .zip(positions)
                    .all(|(c, &p)| c.cell(rep).eq_value(source.get(p)))
            })
            .is_some()
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.distinct.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.distinct.is_empty()
    }

    /// Approximate resident bytes the index owns (distinct row ids and
    /// the probe table; the columns are shared with the relation).
    pub fn memory_bytes(&self) -> usize {
        self.distinct.capacity() * 4 + self.table.ids.len() * (4 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple;

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

    #[test]
    fn postings_and_degrees() {
        let r = rel();
        let idx = HashIndex::build_single(&r, "k");
        assert_eq!(idx.degree(&[Value::int(1)]), 3);
        assert_eq!(idx.degree(&[Value::int(2)]), 1);
        assert_eq!(idx.degree(&[Value::int(9)]), 0);
        assert_eq!(idx.max_degree(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        assert!((idx.avg_degree() - 2.0).abs() < 1e-12);
        assert!(idx.memory_bytes() > 0);
    }

    #[test]
    fn rows_matching_returns_ids_in_insertion_order() {
        let r = rel();
        let idx = HashIndex::build_single(&r, "k");
        assert_eq!(idx.rows_matching(&[Value::int(1)]), &[0, 1, 3]);
        assert!(idx.rows_matching(&[Value::int(42)]).is_empty());
    }

    #[test]
    fn dictionary_encoding_round_trips() {
        let r = rel();
        let idx = HashIndex::build_single(&r, "k");
        assert_eq!(idx.n_keys(), 2);
        let kid = idx.key_id(&[Value::int(1)]).unwrap();
        assert_eq!(idx.key_values(kid), &[Value::int(1)]);
        assert_eq!(idx.postings(kid), &[0, 1, 3]);
        assert_eq!(idx.degree_of(kid), 3);
        assert_eq!(idx.key_id(&[Value::int(7)]), None);
        // Wrong arity can never match.
        assert_eq!(idx.key_id(&[Value::int(1), Value::int(1)]), None);
    }

    #[test]
    fn str_keys_reuse_dictionary_codes() {
        let r = str_rel();
        let idx = HashIndex::build_single(&r, "k");
        assert_eq!(idx.n_keys(), 2);
        assert_eq!(idx.rows_matching(&[Value::str("apple")]), &[0, 2]);
        assert_eq!(idx.rows_matching(&[Value::str("pear")]), &[1]);
        assert_eq!(idx.rows_matching(&[Value::str("plum")]), &[] as &[u32]);
    }

    #[test]
    fn projected_probe_matches_value_probe() {
        let r = rel();
        let idx = HashIndex::build_single(&r, "k");
        // Probe with the key sitting at position 2 of a wider buffer.
        let buffer = vec![Value::int(99), Value::str("pad"), Value::int(1)];
        assert_eq!(
            idx.key_id_projected(&buffer, &[2]),
            idx.key_id(&[Value::int(1)])
        );
        assert_eq!(idx.rows_matching_projected(&buffer, &[2]), &[0, 1, 3]);
        let miss = vec![Value::int(42)];
        assert_eq!(idx.key_id_projected(&miss, &[0]), None);
    }

    #[test]
    fn column_probe_matches_value_probe() {
        // key_id_at reads another relation's columns in place.
        let r = rel();
        let idx = HashIndex::build_single(&r, "k");
        let other = Relation::new(
            "probe",
            Schema::new(["x", "k"]).unwrap(),
            vec![tuple![0i64, 1i64], tuple![0i64, 2i64], tuple![0i64, 9i64]],
        )
        .unwrap();
        assert_eq!(idx.key_id_at(&other, &[1], 0), idx.key_id(&[Value::int(1)]));
        assert_eq!(idx.key_id_at(&other, &[1], 1), idx.key_id(&[Value::int(2)]));
        assert_eq!(idx.key_id_at(&other, &[1], 2), None);

        // Str keys probed from a different relation (different pool).
        let s = str_rel();
        let sidx = HashIndex::build_single(&s, "k");
        let probe = Relation::new(
            "p",
            Schema::new(["k"]).unwrap(),
            vec![tuple!["pear"], tuple!["plum"]],
        )
        .unwrap();
        assert_eq!(
            sidx.key_id_at(&probe, &[0], 0),
            sidx.key_id(&[Value::str("pear")])
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
        let idx = HashIndex::build(&r, &[Arc::from("a"), Arc::from("b")]);
        assert_eq!(idx.degree(&[Value::int(1), Value::int(2)]), 2);
        assert_eq!(idx.degree(&[Value::int(1), Value::int(3)]), 1);
        assert_eq!(idx.max_degree(), 2);
    }

    #[test]
    fn empty_relation_index() {
        let r = Relation::new("e", Schema::new(["x"]).unwrap(), vec![]).unwrap();
        let idx = HashIndex::build_single(&r, "x");
        assert_eq!(idx.max_degree(), 0);
        assert_eq!(idx.distinct_keys(), 0);
        assert_eq!(idx.avg_degree(), 0.0);
        assert_eq!(idx.key_id(&[Value::int(1)]), None);
        assert!(idx.entries().next().is_none());
    }

    #[test]
    fn entries_enumerate_all_keys() {
        let r = rel();
        let idx = HashIndex::build_single(&r, "k");
        let collected: Vec<(Vec<Value>, Vec<u32>)> = idx
            .entries()
            .map(|(k, rows)| (k.to_vec(), rows.to_vec()))
            .collect();
        assert_eq!(collected.len(), 2);
        // First-seen order: key 1 then key 2.
        assert_eq!(collected[0].0, vec![Value::int(1)]);
        assert_eq!(collected[0].1, vec![0, 1, 3]);
        assert_eq!(collected[1].0, vec![Value::int(2)]);
        assert_eq!(collected[1].1, vec![2]);
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
        let idx = HashIndex::build_single(&r, "k");
        assert_eq!(idx.rows_matching(&[Value::Null]), &[0, 2]);
        assert_eq!(idx.max_degree(), 2);
    }

    #[test]
    fn membership_contains() {
        let r = rel();
        let m = RowMembership::build(&r);
        assert!(m.contains(&tuple![1i64, 11i64]));
        assert!(!m.contains(&tuple![1i64, 99i64]));
        assert!(m.contains_values(&[Value::int(2), Value::int(20)]));
        assert!(!m.contains_values(&[Value::int(2)]));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn membership_projection_probe() {
        let r = rel();
        let m = RowMembership::build(&r);
        // Canonical tuple (v, pad, k): project positions [2, 0] → (k, v).
        let canonical = tuple![11i64, 7i64, 1i64];
        assert!(m.contains_projection(&canonical, &[2, 0]));
        assert!(!m.contains_projection(&canonical, &[0, 2]));
        // Arity mismatch never matches.
        assert!(!m.contains_projection(&canonical, &[2]));
    }

    #[test]
    fn membership_over_strings() {
        let s = str_rel();
        let m = RowMembership::build(&s);
        assert!(m.contains(&tuple!["apple", 3i64]));
        assert!(!m.contains(&tuple!["apple", 2i64]));
        assert!(m.contains_projection(&tuple![1i64, "apple"], &[1, 0]));
    }

    #[test]
    fn default_membership_is_empty_and_probe_safe() {
        let m = RowMembership::default();
        assert!(m.is_empty());
        assert!(!m.contains_values(&[Value::int(1)]));
        assert!(!m.contains(&tuple![1i64]));
    }

    #[test]
    fn membership_deduplicates() {
        let schema = Schema::new(["x"]).unwrap();
        let r = Relation::new("d", schema, vec![tuple![1i64], tuple![1i64]]).unwrap();
        let m = RowMembership::build(&r);
        assert_eq!(m.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not in")]
    fn unknown_attribute_panics() {
        let r = rel();
        HashIndex::build_single(&r, "missing");
    }
}
