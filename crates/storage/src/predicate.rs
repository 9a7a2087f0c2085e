//! Selection predicates.
//!
//! §8.3 supports selections in two ways: push-down (filter base relations
//! before sampling — works for both estimator families) and
//! reject-during-sampling (an extra rejection factor — random-walk only).
//! [`Predicate`] is the schema-independent AST; [`CompiledPredicate`]
//! resolves attribute names to positions once so evaluation in sampling
//! inner loops is allocation-free.
//!
//! Two evaluation paths share one compiled tree:
//!
//! * [`CompiledPredicate::eval`] — tuple-at-a-time, for sampled output
//!   tuples (reject-during-sampling) and as the test oracle.
//! * [`CompiledPredicate::select`] — **column-at-a-time**: one
//!   [`SelectionBitmap`] per node, combined with word-wide boolean ops.
//!   Comparisons run as typed loops over the column payloads;
//!   dictionary-encoded string columns evaluate the comparison once per
//!   *distinct* string and map codes through the resulting lookup
//!   table. This is the path push-down filtering and catalog statistics
//!   run on.

use crate::column::Column;
use crate::error::StorageError;
use crate::relation::Relation;
use crate::schema::Schema;
use crate::snapshot::Labeled;
use crate::tuple::Tuple;
use crate::value::Value;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl CompareOp {
    fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        self.matches(lhs.cmp(rhs))
    }

    /// Whether an `lhs.cmp(rhs)` outcome satisfies the operator.
    #[inline]
    fn matches(self, ord: Ordering) -> bool {
        match self {
            CompareOp::Eq => ord == Ordering::Equal,
            CompareOp::Ne => ord != Ordering::Equal,
            CompareOp::Lt => ord == Ordering::Less,
            CompareOp::Le => ord != Ordering::Greater,
            CompareOp::Gt => ord == Ordering::Greater,
            CompareOp::Ge => ord != Ordering::Less,
        }
    }
}

/// The operator's symbol is its label; its position, its tag byte.
impl Labeled for CompareOp {
    const TABLE: &'static [(Self, &'static str)] = &[
        (CompareOp::Eq, "="),
        (CompareOp::Ne, "!="),
        (CompareOp::Lt, "<"),
        (CompareOp::Le, "<="),
        (CompareOp::Gt, ">"),
        (CompareOp::Ge, ">="),
    ];
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A selection predicate over attribute names.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Always true.
    True,
    /// `attr op constant`.
    Compare {
        /// Attribute name.
        attr: Arc<str>,
        /// Comparison operator.
        op: CompareOp,
        /// Constant to compare against.
        value: Value,
    },
    /// Conjunction.
    And(Vec<Predicate>),
    /// Disjunction.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attr op value` shorthand.
    pub fn cmp(attr: impl AsRef<str>, op: CompareOp, value: Value) -> Self {
        Predicate::Compare {
            attr: Arc::from(attr.as_ref()),
            op,
            value,
        }
    }

    /// `attr = value` shorthand.
    pub fn eq(attr: impl AsRef<str>, value: Value) -> Self {
        Self::cmp(attr, CompareOp::Eq, value)
    }

    /// `attr BETWEEN lo AND hi` (inclusive) shorthand.
    pub fn between(attr: impl AsRef<str>, lo: Value, hi: Value) -> Self {
        let attr = attr.as_ref();
        Predicate::And(vec![
            Self::cmp(attr, CompareOp::Ge, lo),
            Self::cmp(attr, CompareOp::Le, hi),
        ])
    }

    /// Resolves attribute names against a schema.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPredicate, StorageError> {
        Ok(CompiledPredicate {
            node: self.compile_node(schema)?,
        })
    }

    fn compile_node(&self, schema: &Schema) -> Result<Node, StorageError> {
        Ok(match self {
            Predicate::True => Node::True,
            Predicate::Compare { attr, op, value } => Node::Compare {
                pos: schema.require(attr)?,
                op: *op,
                value: value.clone(),
            },
            Predicate::And(children) => Node::And(
                children
                    .iter()
                    .map(|c| c.compile_node(schema))
                    .collect::<Result<_, _>>()?,
            ),
            Predicate::Or(children) => Node::Or(
                children
                    .iter()
                    .map(|c| c.compile_node(schema))
                    .collect::<Result<_, _>>()?,
            ),
            Predicate::Not(child) => Node::Not(Box::new(child.compile_node(schema)?)),
        })
    }
}

/// A packed row-selection bitmap: bit `i` set means row `i` passes.
/// Combined word-at-a-time by the vectorized predicate evaluator; the
/// tail bits past `len` are kept zero so population counts are exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectionBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelectionBitmap {
    /// An all-clear bitmap over `len` rows.
    pub fn none(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// An all-set bitmap over `len` rows.
    pub fn all(len: usize) -> Self {
        let mut s = Self {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        s.mask_tail();
        s
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether row `i` is selected.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    #[inline]
    fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1u64 << (i & 63);
    }

    /// Number of selected rows (a popcount over the words).
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The selected row ids, ascending.
    pub fn to_row_ids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.count());
        for (wi, &w) in self.words.iter().enumerate() {
            let mut bits = w;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push((wi * 64 + b) as u32);
                bits &= bits - 1;
            }
        }
        out
    }

    fn and_assign(&mut self, other: &SelectionBitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    fn or_assign(&mut self, other: &SelectionBitmap) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Clears the bits past `len` (the invariant every constructor and
    /// `not` restores).
    fn mask_tail(&mut self) {
        let tail = self.len & 63;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    True,
    Compare {
        pos: usize,
        op: CompareOp,
        value: Value,
    },
    And(Vec<Node>),
    Or(Vec<Node>),
    Not(Box<Node>),
}

impl Node {
    fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            Node::True => true,
            Node::Compare { pos, op, value } => op.eval(tuple.get(*pos), value),
            Node::And(cs) => cs.iter().all(|c| c.eval(tuple)),
            Node::Or(cs) => cs.iter().any(|c| c.eval(tuple)),
            Node::Not(c) => !c.eval(tuple),
        }
    }

    fn select(&self, relation: &Relation) -> SelectionBitmap {
        let len = relation.len();
        match self {
            Node::True => SelectionBitmap::all(len),
            Node::Compare { pos, op, value } => compare_column(relation.column(*pos), *op, value),
            Node::And(cs) => {
                let mut acc = SelectionBitmap::all(len);
                for c in cs {
                    acc.and_assign(&c.select(relation));
                }
                acc
            }
            Node::Or(cs) => {
                let mut acc = SelectionBitmap::none(len);
                for c in cs {
                    acc.or_assign(&c.select(relation));
                }
                acc
            }
            Node::Not(c) => {
                let mut b = c.select(relation);
                b.not_assign();
                b
            }
        }
    }
}

/// Vectorized `column op constant`: typed loop per layout, constant
/// fold for cross-variant comparisons (the total order ranks variants,
/// so every valid cell of a typed column compares the same way against
/// a constant of a different variant), and a per-distinct-string lookup
/// table for dictionary-encoded columns.
fn compare_column(col: &Column, op: CompareOp, constant: &Value) -> SelectionBitmap {
    let len = col.len();
    let mut bm = SelectionBitmap::none(len);
    // A NULL cell compares like Value::Null (rank 0): constant per node.
    let null_result = op.eval(&Value::Null, constant);
    match col {
        Column::Int64 { values, validity } => match constant {
            Value::Int(c) => {
                for (i, v) in values.iter().enumerate() {
                    let hit = if validity.is_valid(i) {
                        op.matches(v.cmp(c))
                    } else {
                        null_result
                    };
                    if hit {
                        bm.set(i);
                    }
                }
            }
            other => {
                let cross = op.eval(&Value::Int(0), other);
                fill_const(&mut bm, len, |i| validity.is_valid(i), cross, null_result);
            }
        },
        Column::Float64 { values, validity } => match constant {
            Value::Float(c) => {
                for (i, v) in values.iter().enumerate() {
                    let hit = if validity.is_valid(i) {
                        op.matches(v.total_cmp(c))
                    } else {
                        null_result
                    };
                    if hit {
                        bm.set(i);
                    }
                }
            }
            other => {
                let cross = op.eval(&Value::Float(0.0), other);
                fill_const(&mut bm, len, |i| validity.is_valid(i), cross, null_result);
            }
        },
        Column::Str {
            codes,
            pool,
            validity,
        } => match constant {
            Value::Str(c) => {
                // Evaluate once per distinct string, then map codes.
                let lut: Vec<bool> = pool
                    .strings()
                    .map(|s| op.matches(s.as_ref().cmp(c.as_ref())))
                    .collect();
                for (i, &code) in codes.iter().enumerate() {
                    let hit = if validity.is_valid(i) {
                        lut[code as usize]
                    } else {
                        null_result
                    };
                    if hit {
                        bm.set(i);
                    }
                }
            }
            other => {
                let cross = op.eval(&Value::str(""), other);
                fill_const(&mut bm, len, |i| validity.is_valid(i), cross, null_result);
            }
        },
        Column::Mixed { values } => {
            for (i, v) in values.iter().enumerate() {
                if op.eval(v, constant) {
                    bm.set(i);
                }
            }
        }
    }
    bm
}

/// Fills a bitmap where every valid cell yields `valid_result` and
/// every NULL yields `null_result`.
fn fill_const(
    bm: &mut SelectionBitmap,
    len: usize,
    is_valid: impl Fn(usize) -> bool,
    valid_result: bool,
    null_result: bool,
) {
    if valid_result && null_result {
        *bm = SelectionBitmap::all(len);
        return;
    }
    if !valid_result && !null_result {
        return;
    }
    for i in 0..len {
        if is_valid(i) == valid_result {
            // valid cells when valid_result, nulls when null_result —
            // exactly one of the two is true here.
            bm.set(i);
        }
    }
}

/// A predicate with attribute positions resolved; tuple evaluation
/// allocates nothing, and [`select`](Self::select) evaluates whole
/// relations column-at-a-time.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    node: Node,
}

impl CompiledPredicate {
    /// Evaluates against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        self.node.eval(tuple)
    }

    /// Evaluates against every row of `relation` column-at-a-time,
    /// returning the selection bitmap. The relation must have the
    /// schema this predicate was compiled against (positions are
    /// resolved, not re-checked).
    pub fn select(&self, relation: &Relation) -> SelectionBitmap {
        self.node.select(relation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn schema() -> Schema {
        Schema::new(["a", "b", "s"]).unwrap()
    }

    fn rel(rows: Vec<Tuple>) -> Relation {
        Relation::new("r", schema(), rows).unwrap()
    }

    #[test]
    fn comparisons() {
        let s = schema();
        let t = tuple![5i64, 10i64, "mid"];
        for (op, expect) in [
            (CompareOp::Eq, false),
            (CompareOp::Ne, true),
            (CompareOp::Lt, true),
            (CompareOp::Le, true),
            (CompareOp::Gt, false),
            (CompareOp::Ge, false),
        ] {
            let p = Predicate::cmp("a", op, Value::int(7)).compile(&s).unwrap();
            assert_eq!(p.eval(&t), expect, "op {op}");
        }
    }

    #[test]
    fn boolean_composition() {
        let s = schema();
        let t = tuple![5i64, 10i64, "mid"];
        let p = Predicate::And(vec![
            Predicate::cmp("a", CompareOp::Ge, Value::int(1)),
            Predicate::Or(vec![
                Predicate::eq("s", Value::str("mid")),
                Predicate::eq("s", Value::str("high")),
            ]),
        ])
        .compile(&s)
        .unwrap();
        assert!(p.eval(&t));

        let n = Predicate::Not(Box::new(Predicate::True))
            .compile(&s)
            .unwrap();
        assert!(!n.eval(&t));
    }

    #[test]
    fn between_is_inclusive() {
        let s = schema();
        let p = Predicate::between("b", Value::int(10), Value::int(20))
            .compile(&s)
            .unwrap();
        assert!(p.eval(&tuple![0i64, 10i64, "x"]));
        assert!(p.eval(&tuple![0i64, 20i64, "x"]));
        assert!(!p.eval(&tuple![0i64, 21i64, "x"]));
    }

    #[test]
    fn unknown_attribute_fails_compile() {
        let s = schema();
        assert!(Predicate::eq("zz", Value::int(1)).compile(&s).is_err());
    }

    #[test]
    fn empty_and_or_edge_cases() {
        let s = schema();
        let t = tuple![1i64, 2i64, "x"];
        assert!(Predicate::And(vec![]).compile(&s).unwrap().eval(&t));
        assert!(!Predicate::Or(vec![]).compile(&s).unwrap().eval(&t));
    }

    #[test]
    fn cross_type_comparison_uses_type_order() {
        // Int < Str in the total order; predicates never panic.
        let s = schema();
        let p = Predicate::cmp("a", CompareOp::Lt, Value::str("zzz"))
            .compile(&s)
            .unwrap();
        assert!(p.eval(&tuple![1i64, 2i64, "x"]));
    }

    /// The vectorized select and the tuple-at-a-time eval must agree
    /// bit for bit.
    fn assert_select_matches_eval(r: &Relation, p: &Predicate) {
        let cp = p.compile(r.schema()).unwrap();
        let bm = cp.select(r);
        assert_eq!(bm.len(), r.len());
        let mut expected = 0usize;
        for i in 0..r.len() {
            let want = cp.eval(&r.tuple_at(i));
            assert_eq!(bm.get(i), want, "row {i} of {p:?}");
            expected += usize::from(want);
        }
        assert_eq!(bm.count(), expected);
        let ids = bm.to_row_ids();
        assert_eq!(ids.len(), expected);
        assert!(ids.iter().all(|&i| bm.get(i as usize)));
    }

    #[test]
    fn select_matches_eval_on_typed_columns() {
        let r = rel(vec![
            tuple![5i64, 10i64, "mid"],
            tuple![7i64, -3i64, "low"],
            tuple![2i64, 10i64, "high"],
            tuple![9i64, 0i64, "mid"],
        ]);
        let preds = vec![
            Predicate::True,
            Predicate::cmp("a", CompareOp::Ge, Value::int(5)),
            Predicate::eq("s", Value::str("mid")),
            Predicate::cmp("s", CompareOp::Gt, Value::str("low")),
            Predicate::Not(Box::new(Predicate::eq("b", Value::int(10)))),
            Predicate::And(vec![
                Predicate::cmp("a", CompareOp::Lt, Value::int(8)),
                Predicate::Or(vec![
                    Predicate::eq("s", Value::str("mid")),
                    Predicate::cmp("b", CompareOp::Le, Value::int(-1)),
                ]),
            ]),
            // Cross-variant comparisons (rank order).
            Predicate::cmp("a", CompareOp::Lt, Value::str("z")),
            Predicate::cmp("s", CompareOp::Lt, Value::int(1)),
            Predicate::eq("a", Value::Null),
        ];
        for p in &preds {
            assert_select_matches_eval(&r, p);
        }
    }

    #[test]
    fn select_handles_nulls_like_eval() {
        let r = rel(vec![
            Tuple::new(vec![Value::Null, Value::int(1), Value::str("x")]),
            Tuple::new(vec![Value::int(3), Value::Null, Value::Null]),
            Tuple::new(vec![Value::int(4), Value::int(2), Value::str("y")]),
        ]);
        for p in [
            Predicate::eq("a", Value::Null),
            Predicate::cmp("a", CompareOp::Ge, Value::Null),
            Predicate::cmp("b", CompareOp::Lt, Value::int(2)),
            Predicate::eq("s", Value::str("x")),
            Predicate::Not(Box::new(Predicate::eq("s", Value::Null))),
        ] {
            assert_select_matches_eval(&r, &p);
        }
    }

    #[test]
    fn select_on_mixed_column() {
        let r = rel(vec![
            Tuple::new(vec![Value::int(1), Value::int(0), Value::str("x")]),
            Tuple::new(vec![Value::str("s"), Value::int(0), Value::str("y")]),
            Tuple::new(vec![Value::float(1.5), Value::int(0), Value::str("z")]),
        ]);
        assert_eq!(r.column(0).kind(), "mixed");
        for p in [
            Predicate::eq("a", Value::int(1)),
            Predicate::cmp("a", CompareOp::Ge, Value::float(1.0)),
            Predicate::cmp("a", CompareOp::Lt, Value::str("t")),
        ] {
            assert_select_matches_eval(&r, &p);
        }
    }

    #[test]
    fn select_empty_relation() {
        let r = rel(vec![]);
        let p = Predicate::eq("a", Value::int(1))
            .compile(r.schema())
            .unwrap();
        let bm = p.select(&r);
        assert_eq!(bm.len(), 0);
        assert!(bm.is_empty());
        assert_eq!(bm.count(), 0);
        assert!(bm.to_row_ids().is_empty());
    }

    #[test]
    fn bitmap_word_boundary_and_not_masking() {
        // 65 rows: the NOT path must keep tail bits clear.
        let rows: Vec<Tuple> = (0..65i64).map(|i| tuple![i, i, "s"]).collect();
        let r = rel(rows);
        let p = Predicate::Not(Box::new(Predicate::cmp(
            "a",
            CompareOp::Lt,
            Value::int(1000),
        )));
        let cp = p.compile(r.schema()).unwrap();
        let bm = cp.select(&r);
        assert_eq!(bm.count(), 0);
        let all = Predicate::True.compile(r.schema()).unwrap().select(&r);
        assert_eq!(all.count(), 65);
        assert_eq!(all.to_row_ids().len(), 65);
    }
}
