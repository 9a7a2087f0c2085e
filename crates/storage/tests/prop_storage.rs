//! Property-based tests for the storage substrate.

use proptest::prelude::*;
use std::collections::HashMap;
use suj_storage::prelude::*;
use suj_storage::{read_csv, write_csv};

/// Strategy: a relation over schema (a, b, s) with small integer keys
/// and short strings.
fn relation_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0i64..20, -5i64..5, "[a-z]{0,6}"), 0..40).prop_map(|rows| {
        let schema = Schema::new(["a", "b", "s"]).unwrap();
        let tuples = rows
            .into_iter()
            .map(|(a, b, s)| Tuple::new(vec![Value::int(a), Value::int(b), Value::str(&s)]))
            .collect();
        Relation::new("r", schema, tuples).unwrap()
    })
}

/// Strategy: one arbitrary cell spanning every `Value` variant
/// (including NULL, negative zero / special floats, and multibyte
/// strings) — drives the columnar round-trip property.
fn any_value() -> impl Strategy<Value = Value> {
    (0u8..8, -100i64..100, "[a-zé→🦀]{0,4}").prop_map(|(kind, n, s)| match kind {
        0 => Value::Null,
        1 | 2 => Value::int(n),
        3 => Value::float(n as f64 / 4.0),
        4 => Value::float(if n == 0 { -0.0 } else { f64::NAN }),
        _ => Value::str(&s),
    })
}

/// Strategy: a ragged-free relation of arbitrary mixed-type cells.
fn mixed_relation_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((any_value(), any_value(), any_value()), 0..30).prop_map(|rows| {
        let schema = Schema::new(["x", "y", "z"]).unwrap();
        let tuples = rows
            .into_iter()
            .map(|(x, y, z)| Tuple::new(vec![x, y, z]))
            .collect();
        Relation::new("m", schema, tuples).unwrap()
    })
}

/// Strategy: a relation of two integer columns with NULLs — `dense`
/// within a small window around a negative offset (direct-addressed
/// once a few rows exist), `sparse` spread over all of `i64` (hashed).
fn int_columns_strategy() -> impl Strategy<Value = Relation> {
    prop::collection::vec((0u8..10, -40i64..-8, any::<i64>()), 8..40).prop_map(|rows| {
        let schema = Schema::new(["dense", "sparse"]).unwrap();
        let tuples = rows
            .into_iter()
            .map(|(null, d, s)| {
                let cell =
                    |v: i64, is_null: bool| if is_null { Value::Null } else { Value::int(v) };
                Tuple::new(vec![cell(d, null == 0), cell(s, null == 1)])
            })
            .collect();
        Relation::new("ints", schema, tuples).unwrap()
    })
}

/// Strategy: a random predicate AST over the (a, b, s) schema, mixing
/// typed and cross-variant constants, conjunction, disjunction, and
/// negation.
fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (
        prop::collection::vec(
            (0u8..3, 0u8..6, -6i64..22, "[a-d]{0,3}", prop::bool::ANY),
            1..5,
        ),
        0u8..3,
    )
        .prop_map(|(leaves, combine)| {
            let ops = [
                CompareOp::Eq,
                CompareOp::Ne,
                CompareOp::Lt,
                CompareOp::Le,
                CompareOp::Gt,
                CompareOp::Ge,
            ];
            let mut built: Vec<Predicate> = leaves
                .into_iter()
                .map(|(attr, op, n, s, negate)| {
                    let attr = ["a", "b", "s"][attr as usize];
                    let constant = match n.rem_euclid(4) {
                        0 => Value::Null,
                        1 => Value::str(&s),
                        2 => Value::float(n as f64 / 2.0),
                        _ => Value::int(n),
                    };
                    let leaf = Predicate::cmp(attr, ops[op as usize], constant);
                    if negate {
                        Predicate::Not(Box::new(leaf))
                    } else {
                        leaf
                    }
                })
                .collect();
            match combine {
                0 => Predicate::And(built),
                1 => Predicate::Or(built),
                _ => built.pop().unwrap(),
            }
        })
}

/// Strategy: a relation of three integer key columns with no NULLs —
/// their own order codes in `SortedIndex` — drawn from a small
/// pool so duplicates are common, with both extremes of `i64`, and
/// arranged as drawn, already sorted or reverse sorted.
fn int_keys_strategy() -> impl Strategy<Value = Relation> {
    const POOL: [i64; 8] = [i64::MIN, -7, -1, 0, 1, 2, 7, i64::MAX];
    (
        prop::collection::vec((0usize..8, 0usize..8, 0usize..2), 0..40),
        0u8..3,
    )
        .prop_map(|(picks, arrangement)| {
            let mut rows: Vec<[i64; 3]> = picks
                .into_iter()
                .map(|(a, b, c)| [POOL[a], POOL[b], POOL[c]])
                .collect();
            match arrangement {
                0 => {}
                1 => rows.sort_unstable(),
                _ => rows.sort_unstable_by(|a, b| b.cmp(a)),
            }
            let tuples = rows
                .into_iter()
                .map(|row| Tuple::new(row.map(Value::int).to_vec()))
                .collect();
            Relation::new("keys", Schema::new(["k0", "k1", "k2"]).unwrap(), tuples).unwrap()
        })
}

/// Strategy: four key columns that are not NULL-free `Int64` — a
/// `Float64` over NULL, NaN, −0.0, +0.0 and ±1.5, a `Str` with NULLs, a
/// `Mixed` column, and an `Int64` with NULLs — each from a small pool so
/// duplicates are common.
fn coded_keys_strategy() -> impl Strategy<Value = Relation> {
    const FLOATS: [f64; 5] = [f64::NAN, -0.0, 0.0, -1.5, 1.5];
    let row = (0usize..6, 0usize..4, any_value(), 0i64..4);
    prop::collection::vec(row, 0..30).prop_map(|rows| {
        let tuples = rows
            .into_iter()
            .map(|(f, s, m, i)| {
                let f = FLOATS.get(f).map_or(Value::Null, |&f| Value::float(f));
                let s = ["b", "a", "ab"].get(s).map_or(Value::Null, Value::str);
                let i = if i == 0 { Value::Null } else { Value::int(i) };
                Tuple::new(vec![f, s, m, i])
            })
            .collect();
        Relation::new("c", Schema::new(["f", "s", "m", "i"]).unwrap(), tuples).unwrap()
    })
}

/// The comparator sort a `SortedIndex` is defined by, over
/// materialized cells and `Value`'s order: checks the index's
/// permutation, its distinct count over every prefix and its longest
/// duplicate block against it, and that its key runs order and equate
/// as the values do.
fn assert_sorted_index_matches_value_order(r: &Relation, attrs: &[&str]) {
    let attrs: Vec<std::sync::Arc<str>> = attrs.iter().map(|&a| a.into()).collect();
    let positions: Vec<usize> = attrs
        .iter()
        .map(|a| r.schema().position(a).unwrap())
        .collect();
    let keys: Vec<Tuple> = r.tuples().iter().map(|t| t.project(&positions)).collect();
    let mut reference: Vec<u32> = (0..r.len() as u32).collect();
    reference.sort_by(|&a, &b| {
        keys[a as usize]
            .values()
            .cmp(keys[b as usize].values())
            .then(a.cmp(&b))
    });

    let idx = SortedIndex::build_all(&[(r, &attrs)]).remove(0);
    let perm: Vec<u32> = (0..idx.len()).map(|p| idx.row_at(p)).collect();
    assert_eq!(perm, reference, "permutation over {attrs:?}");
    let (mut distinct, mut block, mut max_block) = (0, 0, 0);
    for (j, &row) in reference.iter().enumerate() {
        if j == 0 || keys[row as usize] != keys[reference[j - 1] as usize] {
            distinct += 1;
            block = 0;
        }
        block += 1;
        max_block = max_block.max(block);
        assert_eq!(idx.distinct_in(0, j + 1), distinct, "prefix {}", j + 1);
    }
    assert_eq!(idx.distinct_in(0, 0), 0);
    assert_eq!(idx.max_block(), max_block);
    for k in 0..attrs.len() {
        let codes = idx.key(k);
        for (a, &ra) in reference.iter().enumerate() {
            for (b, &rb) in reference.iter().enumerate() {
                let value = |row: u32| &keys[row as usize].values()[k];
                assert_eq!(codes[a].cmp(&codes[b]), value(ra).cmp(value(rb)), "key {k}");
            }
        }
    }
}

#[test]
fn sorted_index_int_keys_at_edge_sizes() {
    let schema = || Schema::new(["k0", "k1"]).unwrap();
    let row = |a: i64, b: i64| Tuple::new(vec![Value::int(a), Value::int(b)]);
    let empty = Relation::new("e", schema(), vec![]).unwrap();
    let one = Relation::new("o", schema(), vec![row(i64::MAX, i64::MIN)]).unwrap();
    let extremes = Relation::new(
        "x",
        schema(),
        vec![
            row(i64::MAX, 0),
            row(i64::MIN, i64::MAX),
            row(i64::MIN, i64::MIN),
            row(i64::MAX, 0),
        ],
    )
    .unwrap();
    for r in [&empty, &one, &extremes] {
        assert_sorted_index_matches_value_order(r, &["k0"]);
        assert_sorted_index_matches_value_order(r, &["k0", "k1"]);
    }
}

/// `v` changed to a nearby value of a neighbouring kind: the float of
/// opposite sign (−0.0 for +0.0, −NaN for NaN), the integer 0 for
/// NULL, a longer string, another integer.
fn one_cell_off(v: &Value) -> Value {
    match v {
        Value::Null => Value::int(0),
        Value::Int(n) => Value::int(n.wrapping_add(100)),
        Value::Float(x) => Value::float(-x),
        Value::Str(s) => Value::str(format!("{s}z")),
    }
}

/// For every row, a copy with exactly one cell changed by
/// [`one_cell_off`] (cycling through the positions).
fn one_cell_away(rows: &[Tuple]) -> Vec<Tuple> {
    rows.iter()
        .enumerate()
        .map(|(i, row)| {
            let mut values = row.values().to_vec();
            let k = i % values.len();
            values[k] = one_cell_off(&values[k]);
            Tuple::new(values)
        })
        .collect()
}

/// Checks a `HashIndex` over `attrs` of `r` against a naive
/// `HashMap<Vec<Value>, Vec<u32>>` of the same keys: the same key set,
/// the same postings (order included) and degrees, first postings as
/// first-seen representatives, and three probes that agree with the
/// map and each other — `key_id_projected` over each row's values,
/// `key_id_at` over `r`'s own columns, and `key_id_at` over a second
/// relation with its own string pool, holding `r`'s rows reversed and
/// rows one cell away from them.
fn assert_index_matches_naive_map(r: &Relation, attrs: &[&str]) {
    let attrs: Vec<std::sync::Arc<str>> = attrs.iter().map(|&a| a.into()).collect();
    let positions: Vec<usize> = attrs
        .iter()
        .map(|a| r.schema().position(a).unwrap())
        .collect();
    let idx = HashIndex::build(r, &attrs);

    let tuples = r.tuples();
    let key_of =
        |t: &Tuple| -> Vec<Value> { positions.iter().map(|&p| t.get(p).clone()).collect() };
    let mut oracle: HashMap<Vec<Value>, Vec<u32>> = HashMap::new();
    let mut first_seen: Vec<Vec<Value>> = Vec::new();
    for (i, row) in tuples.iter().enumerate() {
        let rows = oracle.entry(key_of(row)).or_default();
        if rows.is_empty() {
            first_seen.push(key_of(row));
        }
        rows.push(i as u32);
    }

    assert_eq!(idx.n_keys(), oracle.len(), "keys over {attrs:?}");
    for (kid, key) in (0u32..).zip(&first_seen) {
        let rows = &oracle[key];
        assert_eq!(
            idx.key_id_projected(key, &(0..key.len()).collect::<Vec<_>>()),
            Some(kid)
        );
        assert_eq!(idx.postings(kid), rows.as_slice(), "postings of {key:?}");
        assert_eq!(idx.degree_of(kid), rows.len());
        assert_eq!(
            idx.rows_matching_projected(tuples[rows[0] as usize].values(), &positions),
            rows.as_slice()
        );
        assert_eq!(idx.key_id_at(r, &positions, rows[0] as usize), Some(kid));
    }
    assert_eq!(
        idx.max_degree(),
        oracle.values().map(Vec::len).max().unwrap_or(0)
    );

    // A second relation, built from tuples: its own pool and layouts.
    let mut probes: Vec<Tuple> = tuples.iter().rev().cloned().collect();
    probes.extend(one_cell_away(&tuples));
    probes.push(Tuple::new(vec![Value::str("zz"); r.schema().arity()]));
    let other = Relation::new("other", r.schema().clone(), probes.clone()).unwrap();
    for (row, t) in probes.iter().enumerate() {
        let want = oracle.get(&key_of(t)).map(Vec::as_slice);
        let at = idx.key_id_at(&other, &positions, row);
        assert_eq!(
            at,
            idx.key_id_projected(t.values(), &positions),
            "probe {t}"
        );
        assert_eq!(at.map(|k| idx.postings(k)), want, "probe {t}");
    }
}

proptest! {
    #[test]
    fn schema_union_laws(
        left in prop::collection::hash_set("[a-e]", 1..5),
        right in prop::collection::hash_set("[c-h]", 1..5),
    ) {
        let l = Schema::new(left.iter().map(String::as_str)).unwrap();
        let r = Schema::new(right.iter().map(String::as_str)).unwrap();
        let u = l.union(&r).unwrap();
        for a in l.attrs().iter().chain(r.attrs().iter()) {
            prop_assert!(u.contains(a));
        }
        // Idempotent and no duplicates.
        let uu = u.union(&u).unwrap();
        prop_assert!(uu.same_as(&u));
        prop_assert!(u.arity() <= l.arity() + r.arity());
    }

    #[test]
    fn tuple_projection_identity(vals in prop::collection::vec(-100i64..100, 1..10)) {
        let t: Tuple = vals.iter().map(|&v| Value::int(v)).collect();
        let identity: Vec<usize> = (0..t.arity()).collect();
        prop_assert_eq!(t.project(&identity), t.clone());
        let reversed: Vec<usize> = (0..t.arity()).rev().collect();
        let double_rev = t.project(&reversed).project(&reversed);
        prop_assert_eq!(double_rev, t);
    }

    #[test]
    fn tuple_concat_arity_and_order(
        xs in prop::collection::vec(-9i64..9, 0..6),
        ys in prop::collection::vec(-9i64..9, 0..6),
    ) {
        let a: Tuple = xs.iter().map(|&v| Value::int(v)).collect();
        let b: Tuple = ys.iter().map(|&v| Value::int(v)).collect();
        let c = a.concat(&b);
        prop_assert_eq!(c.arity(), a.arity() + b.arity());
        for (i, v) in xs.iter().enumerate() {
            prop_assert_eq!(c.get(i), &Value::int(*v));
        }
        for (i, v) in ys.iter().enumerate() {
            prop_assert_eq!(c.get(xs.len() + i), &Value::int(*v));
        }
    }

    /// ISSUE 5 satellite: rows → typed columns → rows is the identity on
    /// arbitrary mixed-type relations (all `Value` variants plus NULLs,
    /// heterogeneous columns landing in the `Mixed` layout included).
    #[test]
    fn columnar_round_trip_is_identity(rows in prop::collection::vec(
        (any_value(), any_value(), any_value()), 0..30)) {
        let schema = Schema::new(["x", "y", "z"]).unwrap();
        let tuples: Vec<Tuple> = rows
            .into_iter()
            .map(|(x, y, z)| Tuple::new(vec![x, y, z]))
            .collect();
        let r = Relation::new("m", schema, tuples.clone()).unwrap();
        prop_assert_eq!(r.len(), tuples.len());
        // Whole-relation materialization equals the input …
        prop_assert_eq!(r.tuples(), tuples.clone());
        // … and so do individual row views, cell by cell.
        for (i, t) in tuples.iter().enumerate() {
            prop_assert_eq!(r.tuple_at(i), t.clone());
            let row = r.row_ref(i);
            for p in 0..t.arity() {
                prop_assert!(row.get(p) == CellRef::from(t.get(p)));
                prop_assert_eq!(&row.value(p), t.get(p));
            }
        }
    }

    /// ISSUE 5 satellite: the vectorized `CompiledPredicate::select`
    /// agrees with the tuple-at-a-time `eval` oracle on random
    /// relations and random predicates.
    #[test]
    fn select_matches_eval_oracle(r in relation_strategy(), p in predicate_strategy()) {
        let cp = p.compile(r.schema()).unwrap();
        let bm = cp.select(&r);
        prop_assert_eq!(bm.len(), r.len());
        let mut expected_ids = Vec::new();
        for (i, t) in r.tuples().iter().enumerate() {
            let want = cp.eval(t);
            prop_assert_eq!(bm.get(i), want, "row {} of {:?}", i, p);
            if want {
                expected_ids.push(i as u32);
            }
        }
        prop_assert_eq!(bm.count(), expected_ids.len());
        prop_assert_eq!(bm.to_row_ids(), expected_ids);
        // filter() materializes exactly the selected rows, in order.
        let filtered = r.filter("f", &cp);
        let kept: Vec<Tuple> = r
            .tuples()
            .into_iter()
            .filter(|t| cp.eval(t))
            .collect();
        prop_assert_eq!(filtered.tuples(), kept);
    }

    /// And the same oracle agreement on mixed-layout columns.
    #[test]
    fn select_matches_eval_on_mixed(r in mixed_relation_strategy(), n in -5i64..5) {
        let schema_attrs = ["x", "y", "z"];
        for attr in schema_attrs {
            for op in [CompareOp::Eq, CompareOp::Lt, CompareOp::Ge] {
                let p = Predicate::cmp(attr, op, Value::int(n));
                let cp = p.compile(r.schema()).unwrap();
                let bm = cp.select(&r);
                for (i, t) in r.tuples().iter().enumerate() {
                    prop_assert_eq!(bm.get(i), cp.eval(t), "attr {} row {}", attr, i);
                }
            }
        }
    }

    #[test]
    fn predicate_complement_laws(r in relation_strategy(), threshold in -5i64..5) {
        let p = Predicate::cmp("b", CompareOp::Lt, Value::int(threshold));
        let not_p = Predicate::Not(Box::new(p.clone()));
        let and = Predicate::And(vec![p.clone(), not_p.clone()])
            .compile(r.schema())
            .unwrap();
        let or = Predicate::Or(vec![p, not_p]).compile(r.schema()).unwrap();
        for row in r.tuples() {
            prop_assert!(!and.eval(&row), "p ∧ ¬p must be false");
            prop_assert!(or.eval(&row), "p ∨ ¬p must be true");
        }
    }

    #[test]
    fn filter_partitions_relation(r in relation_strategy(), threshold in -5i64..5) {
        let p = Predicate::cmp("b", CompareOp::Lt, Value::int(threshold));
        let cp = p.compile(r.schema()).unwrap();
        let yes = r.filter("yes", &cp);
        let no = r.filter(
            "no",
            &Predicate::Not(Box::new(p)).compile(r.schema()).unwrap(),
        );
        prop_assert_eq!(yes.len() + no.len(), r.len());
        // Selection never grows the footprint.
        prop_assert!(yes.memory_bytes() <= r.memory_bytes() + 64);
    }

    #[test]
    fn histogram_totals_and_bounds(r in relation_strategy()) {
        let h = FrequencyHistogram::build(&r, "b");
        let total: u64 = h.entries().map(|(_, c)| c).sum();
        prop_assert_eq!(total, r.len() as u64);
        prop_assert!(h.max_degree() as f64 >= h.avg_degree() - 1e-12);
    }

    /// Columnar histogram counts must equal a naive tuple scan — on
    /// every column layout, NULLs included, and on both integer
    /// representations: `dense` is direct-addressed (a range of ≤ 32 values),
    /// `sparse` is spread over the whole `i64` range and takes the map.
    #[test]
    fn histogram_matches_tuple_scan(
        r in mixed_relation_strategy(),
        ints in int_columns_strategy(),
    ) {
        for (r, attrs) in [(&r, ["x", "y", "z"].as_slice()), (&ints, &["dense", "sparse"])] {
            for &attr in attrs {
                let h = FrequencyHistogram::build(r, attr);
                let pos = r.schema().position(attr).unwrap();
                let mut naive: HashMap<Value, u64> = HashMap::new();
                for t in r.tuples() {
                    *naive.entry(t.get(pos).clone()).or_insert(0) += 1;
                }
                prop_assert_eq!(h.distinct(), naive.len());
                prop_assert_eq!(h.max_degree(), naive.values().copied().max().unwrap_or(0));
                for (v, c) in &naive {
                    prop_assert_eq!(h.degree(v), *c, "value {} of {}", v, attr);
                }
                let listed: HashMap<Value, u64> = h.entries().collect();
                prop_assert_eq!(&listed, &naive, "entries of {}", attr);
                // Absent values next to present ones (inside or just
                // outside a table's range) and of another type.
                for v in naive.keys().filter_map(Value::as_int) {
                    for probe in [v.wrapping_sub(1), v.wrapping_add(1)].map(Value::int) {
                        let want = naive.get(&probe).copied().unwrap_or(0);
                        prop_assert_eq!(h.degree(&probe), want, "value {} of {}", probe, attr);
                    }
                    if !naive.contains_key(&Value::float(v as f64)) {
                        prop_assert_eq!(h.degree(&Value::float(v as f64)), 0);
                    }
                }
            }
        }
    }

    #[test]
    fn index_postings_cover_relation(r in relation_strategy()) {
        let idx = HashIndex::build(&r, &["b".into()]);
        let total: usize = (0..idx.n_keys() as u32).map(|k| idx.postings(k).len()).sum();
        prop_assert_eq!(total, r.len());
        // Every row is reachable through its own key.
        for (i, row) in r.tuples().iter().enumerate() {
            prop_assert!(idx.rows_matching_projected(row.values(), &[1]).contains(&(i as u32)));
        }
    }

    /// The dictionary-encoded CSR index must enumerate exactly the
    /// same key → row-id sets as a naive `HashMap<Vec<Value>, Vec<u32>>`
    /// oracle, on random relations (small domains force heavy key
    /// duplication), over single-attribute, multi-attribute and
    /// whole-row keys, on every column layout — small integers and
    /// strings, and `Float64` with NaN and ±0.0, `Str`, `Mixed` and
    /// `Int64` columns with NULLs — including the empty-relation and
    /// max-degree edges. The build reads typed columns; the oracle
    /// scans materialized tuples.
    #[test]
    fn csr_postings_match_naive_oracle(
        r in relation_strategy(),
        coded in coded_keys_strategy(),
        attr_pick in 0usize..5,
        coded_pick in 0usize..7,
    ) {
        let attr_sets: [&[&str]; 5] = [&["a"], &["b"], &["a", "s"], &["b", "a", "s"], &["a", "b", "s"]];
        let coded_sets: [&[&str]; 7] =
            [&["f"], &["s"], &["m"], &["i"], &["f", "m"], &["i", "s"], &["f", "s", "m", "i"]];
        assert_index_matches_naive_map(&r, attr_sets[attr_pick]);
        assert_index_matches_naive_map(&coded, coded_sets[coded_pick]);
    }

    /// The whole-row index (a `HashIndex` over every attribute) answers
    /// membership exactly as a linear scan does — for every present
    /// row, and for rows one cell away from a present one (−0.0 for
    /// +0.0, 0 for NULL, …).
    #[test]
    fn membership_matches_linear_scan(r in relation_strategy(), coded in coded_keys_strategy()) {
        for r in [&r, &coded] {
            let m = HashIndex::build(r, r.schema().attrs());
            let all: Vec<usize> = (0..r.schema().arity()).collect();
            let rows = r.tuples();
            for row in &rows {
                prop_assert!(m.key_id_projected(row.values(), &all).is_some());
            }
            for near in one_cell_away(&rows) {
                let present = rows.contains(&near);
                prop_assert_eq!(m.key_id_projected(near.values(), &all).is_some(), present, "{}", near);
            }
            let absent = Tuple::new(vec![Value::str("zz"); all.len()]);
            prop_assert!(m.key_id_projected(absent.values(), &all).is_none());
        }
    }

    #[test]
    fn distinct_is_idempotent_and_set_sized(r in relation_strategy()) {
        let d1 = r.distinct();
        let d2 = d1.distinct();
        prop_assert_eq!(d1.len(), d2.len());
        let set: std::collections::HashSet<_> = r.tuples().into_iter().collect();
        prop_assert_eq!(d1.len(), set.len());
    }

    #[test]
    fn horizontal_split_partitions(r in relation_strategy(), frac in 0.0f64..1.0) {
        let (a, b) = r.split_horizontal("a", "b", frac);
        prop_assert_eq!(a.len() + b.len(), r.len());
        let mut rejoined: Vec<Tuple> = a.tuples();
        rejoined.extend(b.tuples());
        prop_assert_eq!(rejoined, r.tuples());
    }

    #[test]
    fn csv_round_trip(r in relation_strategy()) {
        let mut buf = Vec::new();
        write_csv(&r, &mut buf).unwrap();
        let back = read_csv("r", buf.as_slice()).unwrap();
        prop_assert_eq!(back.schema().arity(), r.schema().arity());
        prop_assert_eq!(back.len(), r.len());
        for (a, b) in back.tuples().iter().zip(r.tuples()) {
            // Empty strings become NULL through CSV; everything else
            // must round-trip exactly.
            for (x, y) in a.values().iter().zip(b.values()) {
                match y {
                    Value::Str(s) if s.is_empty() => prop_assert!(x.is_null()),
                    other => prop_assert_eq!(x, other),
                }
            }
        }
    }

    #[test]
    fn value_ordering_is_total_and_consistent(
        xs in prop::collection::vec(-50i64..50, 2..20),
    ) {
        let mut vals: Vec<Value> = xs.iter().map(|&x| Value::int(x)).collect();
        vals.push(Value::Null);
        vals.push(Value::str("zzz"));
        vals.sort();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // Hash consistency with equality on a sample.
        let mut groups: HashMap<Value, Vec<&Value>> = HashMap::new();
        for v in &vals {
            groups.entry(v.clone()).or_default().push(v);
        }
        for (k, members) in groups {
            for m in members {
                prop_assert_eq!(&k, m);
            }
        }
    }

    #[test]
    fn sorted_index_int_keys_match_comparator_sort(r in int_keys_strategy()) {
        assert_sorted_index_matches_value_order(&r, &["k0"]);
        assert_sorted_index_matches_value_order(&r, &["k1"]);
        assert_sorted_index_matches_value_order(&r, &["k0", "k1"]);
        assert_sorted_index_matches_value_order(&r, &["k1", "k0"]);
        assert_sorted_index_matches_value_order(&r, &["k2", "k0", "k1"]);
    }

    #[test]
    fn sorted_index_other_keys_match_value_order(
        ints in int_columns_strategy(),
        mixed in mixed_relation_strategy(),
        typed in relation_strategy(),
        halves in prop::collection::vec((-9i64..9, -3i64..3), 0..30),
    ) {
        // A NULL in either key column.
        assert_sorted_index_matches_value_order(&ints, &["dense", "sparse"]);
        assert_sorted_index_matches_value_order(&ints, &["sparse"]);
        // `Mixed` columns, alone and under one another.
        assert_sorted_index_matches_value_order(&mixed, &["x"]);
        assert_sorted_index_matches_value_order(&mixed, &["y", "z"]);
        // A `Str` key, first and second, and three keys.
        assert_sorted_index_matches_value_order(&typed, &["s", "a"]);
        assert_sorted_index_matches_value_order(&typed, &["a", "s"]);
        assert_sorted_index_matches_value_order(&typed, &["a", "b", "s"]);
        // A `Float64` key beside an `Int64` one.
        let tuples = halves
            .into_iter()
            .map(|(f, k)| Tuple::new(vec![Value::float(f as f64 / 2.0), Value::int(k)]))
            .collect();
        let floats = Relation::new("f", Schema::new(["f", "k"]).unwrap(), tuples).unwrap();
        assert_sorted_index_matches_value_order(&floats, &["f", "k"]);
        assert_sorted_index_matches_value_order(&floats, &["k", "f"]);
    }

    #[test]
    fn sorted_index_coded_keys_match_value_order(r in coded_keys_strategy()) {
        for attr in ["f", "s", "m", "i"] {
            assert_sorted_index_matches_value_order(&r, &[attr]);
        }
        assert_sorted_index_matches_value_order(&r, &["s", "f"]);
        assert_sorted_index_matches_value_order(&r, &["m", "i", "f"]);
        // Four keys: the sort past three inline keys.
        assert_sorted_index_matches_value_order(&r, &["i", "f", "s", "m"]);
    }

    /// `build_all` codes an attribute once over every relation holding
    /// it: any two cells of it, in either relation, compare by code as
    /// they do by value.
    #[test]
    fn sorted_index_codes_order_across_relations(
        left in coded_keys_strategy(),
        right in mixed_relation_strategy(),
    ) {
        // Left's `f` is a `Float64` column, right's a `Mixed` one.
        let right = right
            .rename_attrs("m", |a| if a == "x" { "f".into() } else { a.into() })
            .unwrap();
        let attrs: Vec<std::sync::Arc<str>> = vec!["f".into()];
        let idx = SortedIndex::build_all(&[(&left, &attrs), (&right, &attrs)]);
        let cells: Vec<(i64, Value)> = [&left, &right]
            .iter()
            .zip(&idx)
            .flat_map(|(r, idx)| {
                let column = r.column(r.schema().position("f").unwrap());
                let cell = move |pos| (idx.key(0)[pos], column.value(idx.row_at(pos) as usize));
                (0..idx.len()).map(cell)
            })
            .collect();
        for (ca, va) in &cells {
            for (cb, vb) in &cells {
                prop_assert_eq!(ca.cmp(cb), va.cmp(vb));
            }
        }
    }
}
