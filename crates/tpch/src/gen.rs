//! The deterministic TPC-H generator (dbgen substitute).
//!
//! Generates the eight tables at a requested scale from a single seed,
//! plus *variants* implementing the paper's overlap scale: "when
//! generating different queries, we keep P% of the data the same in the
//! original corresponding relations" (§9). A variant keeps the leading
//! `P%` of every scaled table's rows identical to the base and re-draws
//! the payload and foreign-key attributes of the remainder from a
//! variant-specific stream (primary keys stay fixed so referential
//! integrity holds and join results stay non-empty).

use crate::tables::*;
use crate::text;
use suj_stats::{SujRng, Zipf};
use suj_storage::{Catalog, ColumnBuilder, Relation};

/// Generator configuration.
#[derive(Debug, Clone, Copy)]
pub struct TpchConfig {
    /// Linear scale: row counts = `RATIOS · scale_units`.
    pub scale_units: usize,
    /// Master seed; every table derives its own stream.
    pub seed: u64,
    /// Zipf exponent applied to every foreign-key draw (0.0 = the
    /// uniform TPC-H default). The paper's conclusion lists "the impact
    /// of data skew on approximations" as future work; the skew
    /// ablation uses this knob.
    pub skew: f64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        Self {
            scale_units: 4,
            seed: 42,
            skew: 0.0,
        }
    }
}

impl TpchConfig {
    /// Creates a config with uniform (unskewed) foreign keys.
    pub fn new(scale_units: usize, seed: u64) -> Self {
        Self {
            scale_units,
            seed,
            skew: 0.0,
        }
    }

    /// Sets the foreign-key Zipf exponent.
    pub fn with_skew(mut self, skew: f64) -> Self {
        self.skew = skew;
        self
    }

    /// Draws a foreign key in `[0, n)`: uniform at skew 0, Zipf-skewed
    /// otherwise (rank 0 hottest). The uniform path is kept bit-exact
    /// with the pre-skew generator so seeded datasets stay stable.
    fn fk(&self, rng: &mut SujRng, n: i64, zipf: Option<&Zipf>) -> i64 {
        match zipf {
            None => rng.range_i64(0, n),
            Some(z) => z.draw(rng) as i64,
        }
    }

    fn zipf_for(&self, n: usize) -> Option<Zipf> {
        if self.skew > 0.0 {
            Zipf::new(n, self.skew)
        } else {
            None
        }
    }

    fn rng_for(&self, table: &str, variant: u64) -> SujRng {
        // Stable per-table, per-variant stream derived from the seed.
        let mut h = self.seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in table.bytes() {
            h = h.wrapping_mul(0x100_0000_01B3).wrapping_add(b as u64);
        }
        SujRng::seed_from_u64(h.wrapping_add(variant.wrapping_mul(0x2545_F491_4F6C_DD1D)))
    }

    /// Supplier count at this scale.
    pub fn n_supplier(&self) -> usize {
        RATIOS.supplier * self.scale_units
    }

    /// Customer count at this scale.
    pub fn n_customer(&self) -> usize {
        RATIOS.customer * self.scale_units
    }

    /// Part count at this scale.
    pub fn n_part(&self) -> usize {
        RATIOS.part * self.scale_units
    }

    /// Orders count at this scale.
    pub fn n_orders(&self) -> usize {
        RATIOS.orders * self.scale_units
    }

    /// Lineitem count at this scale.
    pub fn n_lineitem(&self) -> usize {
        RATIOS.lineitem * self.scale_units
    }
}

/// `region`: the five fixed rows.
pub fn region() -> Relation {
    let mut key = ColumnBuilder::new();
    let mut name = ColumnBuilder::new();
    for (i, n) in text::REGIONS.iter().enumerate() {
        key.push_i64(i as i64);
        name.push_str(n);
    }
    Relation::from_columns("region", region_schema(), vec![key.finish(), name.finish()])
        .expect("static columns")
}

/// `nation`: the 25 fixed rows with region assignment.
pub fn nation() -> Relation {
    let mut key = ColumnBuilder::new();
    let mut name = ColumnBuilder::new();
    let mut region = ColumnBuilder::new();
    for (i, n) in text::NATIONS.iter().enumerate() {
        key.push_i64(i as i64);
        name.push_str(n);
        region.push_i64(text::nation_region(i) as i64);
    }
    Relation::from_columns(
        "nation",
        nation_schema(),
        vec![key.finish(), name.finish(), region.finish()],
    )
    .expect("static columns")
}

/// Builds the `supplier` table for one variant. `shared` rows (prefix)
/// come from the base stream; the tail re-draws nationkey and payload.
pub fn supplier(cfg: &TpchConfig, name: &str, variant: u64, overlap: f64) -> Relation {
    let n = cfg.n_supplier();
    let shared_rows = shared_count(n, overlap, variant);
    let mut base = cfg.rng_for("supplier", 0);
    let mut var = cfg.rng_for("supplier", variant);
    let zipf = cfg.zipf_for(N_NATIONS);
    let mut keys = ColumnBuilder::new();
    let mut nations = ColumnBuilder::new();
    let mut bals = ColumnBuilder::new();
    let mut names = ColumnBuilder::new();
    for key in 0..n as i64 {
        // Always advance the base stream so the shared prefix is
        // identical across variants.
        let base_draw = (
            cfg.fk(&mut base, N_NATIONS as i64, zipf.as_ref()),
            text::acctbal(&mut base),
        );
        let var_draw = (
            cfg.fk(&mut var, N_NATIONS as i64, zipf.as_ref()),
            text::acctbal(&mut var),
        );
        let (nationkey, bal) = if (key as usize) < shared_rows {
            base_draw
        } else {
            var_draw
        };
        keys.push_i64(key);
        nations.push_i64(nationkey);
        bals.push_i64(bal);
        names.push_str(&text::supplier_name(key));
    }
    Relation::from_columns(
        name,
        supplier_schema(),
        vec![
            keys.finish(),
            nations.finish(),
            bals.finish(),
            names.finish(),
        ],
    )
    .expect("arity fixed")
}

/// Builds the `customer` table for one variant.
pub fn customer(cfg: &TpchConfig, name: &str, variant: u64, overlap: f64) -> Relation {
    let n = cfg.n_customer();
    let shared_rows = shared_count(n, overlap, variant);
    let mut base = cfg.rng_for("customer", 0);
    let mut var = cfg.rng_for("customer", variant);
    let zipf = cfg.zipf_for(N_NATIONS);
    let mut keys = ColumnBuilder::new();
    let mut nations = ColumnBuilder::new();
    let mut bals = ColumnBuilder::new();
    let mut names = ColumnBuilder::new();
    for key in 0..n as i64 {
        let base_draw = (
            cfg.fk(&mut base, N_NATIONS as i64, zipf.as_ref()),
            text::acctbal(&mut base),
        );
        let var_draw = (
            cfg.fk(&mut var, N_NATIONS as i64, zipf.as_ref()),
            text::acctbal(&mut var),
        );
        let (nationkey, bal) = if (key as usize) < shared_rows {
            base_draw
        } else {
            var_draw
        };
        keys.push_i64(key);
        nations.push_i64(nationkey);
        bals.push_i64(bal);
        names.push_str(&text::customer_name(key));
    }
    Relation::from_columns(
        name,
        customer_schema(),
        vec![
            keys.finish(),
            nations.finish(),
            bals.finish(),
            names.finish(),
        ],
    )
    .expect("arity fixed")
}

/// Builds the `orders` table for one variant.
pub fn orders(cfg: &TpchConfig, name: &str, variant: u64, overlap: f64) -> Relation {
    let n = cfg.n_orders();
    let n_cust = cfg.n_customer() as i64;
    let shared_rows = shared_count(n, overlap, variant);
    let mut base = cfg.rng_for("orders", 0);
    let mut var = cfg.rng_for("orders", variant);
    let zipf = cfg.zipf_for(n_cust as usize);
    let mut keys = ColumnBuilder::new();
    let mut custs = ColumnBuilder::new();
    let mut prices = ColumnBuilder::new();
    for key in 0..n as i64 {
        let base_draw = (
            cfg.fk(&mut base, n_cust, zipf.as_ref()),
            text::totalprice(&mut base),
        );
        let var_draw = (
            cfg.fk(&mut var, n_cust, zipf.as_ref()),
            text::totalprice(&mut var),
        );
        let (custkey, price) = if (key as usize) < shared_rows {
            base_draw
        } else {
            var_draw
        };
        keys.push_i64(key);
        custs.push_i64(custkey);
        prices.push_i64(price);
    }
    Relation::from_columns(
        name,
        orders_schema(),
        vec![keys.finish(), custs.finish(), prices.finish()],
    )
    .expect("arity fixed")
}

/// Builds the `lineitem` table for one variant (3 lines per order).
pub fn lineitem(cfg: &TpchConfig, name: &str, variant: u64, overlap: f64) -> Relation {
    let n = cfg.n_lineitem();
    let n_part = cfg.n_part() as i64;
    let shared_rows = shared_count(n, overlap, variant);
    let mut base = cfg.rng_for("lineitem", 0);
    let mut var = cfg.rng_for("lineitem", variant);
    let zipf = cfg.zipf_for(n_part as usize);
    let mut orderkeys = ColumnBuilder::new();
    let mut linenumbers = ColumnBuilder::new();
    let mut partkeys = ColumnBuilder::new();
    let mut qtys = ColumnBuilder::new();
    for i in 0..n as i64 {
        let orderkey = i / 3;
        let linenumber = i % 3;
        let base_draw = (
            cfg.fk(&mut base, n_part, zipf.as_ref()),
            base.range_i64(1, 51),
        );
        let var_draw = (
            cfg.fk(&mut var, n_part, zipf.as_ref()),
            var.range_i64(1, 51),
        );
        let (partkey, qty) = if (i as usize) < shared_rows {
            base_draw
        } else {
            var_draw
        };
        orderkeys.push_i64(orderkey);
        linenumbers.push_i64(linenumber);
        partkeys.push_i64(partkey);
        qtys.push_i64(qty);
    }
    Relation::from_columns(
        name,
        lineitem_schema(),
        vec![
            orderkeys.finish(),
            linenumbers.finish(),
            partkeys.finish(),
            qtys.finish(),
        ],
    )
    .expect("arity fixed")
}

/// Builds the `part` table for one variant.
pub fn part(cfg: &TpchConfig, name: &str, variant: u64, overlap: f64) -> Relation {
    let n = cfg.n_part();
    let shared_rows = shared_count(n, overlap, variant);
    let mut base = cfg.rng_for("part", 0);
    let mut var = cfg.rng_for("part", variant);
    let mut keys = ColumnBuilder::new();
    let mut names = ColumnBuilder::new();
    let mut types = ColumnBuilder::new();
    let mut sizes = ColumnBuilder::new();
    for key in 0..n as i64 {
        let base_draw = (
            text::part_name(&mut base),
            text::part_type(&mut base),
            base.range_i64(1, 51),
        );
        let var_draw = (
            text::part_name(&mut var),
            text::part_type(&mut var),
            var.range_i64(1, 51),
        );
        let (pname, ptype, psize) = if (key as usize) < shared_rows {
            base_draw
        } else {
            var_draw
        };
        keys.push_i64(key);
        names.push_str(&pname);
        types.push_str(ptype);
        sizes.push_i64(psize);
    }
    Relation::from_columns(
        name,
        part_schema(),
        vec![
            keys.finish(),
            names.finish(),
            types.finish(),
            sizes.finish(),
        ],
    )
    .expect("arity fixed")
}

/// Builds the `partsupp` table for one variant (2 suppliers per part).
pub fn partsupp(cfg: &TpchConfig, name: &str, variant: u64, overlap: f64) -> Relation {
    let n_part = cfg.n_part();
    let n_supp = cfg.n_supplier() as i64;
    let n = n_part * 2;
    let shared_rows = shared_count(n, overlap, variant);
    let mut base = cfg.rng_for("partsupp", 0);
    let mut var = cfg.rng_for("partsupp", variant);
    let zipf = cfg.zipf_for(n_supp as usize);
    let mut partkeys = ColumnBuilder::new();
    let mut suppkeys = ColumnBuilder::new();
    let mut costs = ColumnBuilder::new();
    let mut prev_supp = 0i64;
    for i in 0..n as i64 {
        let partkey = i / 2;
        let slot = i % 2;
        let base_draw = (
            cfg.fk(&mut base, n_supp, zipf.as_ref()),
            base.range_i64(100, 100_000),
        );
        let var_draw = (
            cfg.fk(&mut var, n_supp, zipf.as_ref()),
            var.range_i64(100, 100_000),
        );
        let (supp_raw, cost) = if (i as usize) < shared_rows {
            base_draw
        } else {
            var_draw
        };
        // The two suppliers of a part must be distinct: nudge the second
        // slot off the first when they collide.
        let suppkey = if slot == 0 {
            prev_supp = supp_raw;
            supp_raw
        } else if supp_raw == prev_supp {
            (supp_raw + 1) % n_supp.max(1)
        } else {
            supp_raw
        };
        partkeys.push_i64(partkey);
        suppkeys.push_i64(suppkey);
        costs.push_i64(cost);
    }
    Relation::from_columns(
        name,
        partsupp_schema(),
        vec![partkeys.finish(), suppkeys.finish(), costs.finish()],
    )
    .expect("arity fixed")
}

/// Rows kept identical to the base stream for a variant at the given
/// overlap scale (variant 0 IS the base: full overlap).
fn shared_count(n: usize, overlap: f64, variant: u64) -> usize {
    if variant == 0 {
        n
    } else {
        ((n as f64) * overlap.clamp(0.0, 1.0)).round() as usize
    }
}

/// Generates the base catalog (variant 0) with all eight tables.
pub fn generate_catalog(cfg: &TpchConfig) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register(region()).expect("fresh catalog");
    catalog.register(nation()).expect("fresh catalog");
    catalog
        .register(supplier(cfg, "supplier", 0, 1.0))
        .expect("fresh catalog");
    catalog
        .register(customer(cfg, "customer", 0, 1.0))
        .expect("fresh catalog");
    catalog
        .register(orders(cfg, "orders", 0, 1.0))
        .expect("fresh catalog");
    catalog
        .register(lineitem(cfg, "lineitem", 0, 1.0))
        .expect("fresh catalog");
    catalog
        .register(part(cfg, "part", 0, 1.0))
        .expect("fresh catalog");
    catalog
        .register(partsupp(cfg, "partsupp", 0, 1.0))
        .expect("fresh catalog");
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;
    use suj_storage::Value;

    fn cfg() -> TpchConfig {
        TpchConfig::new(2, 7)
    }

    #[test]
    fn cardinalities_scale_linearly() {
        let c = cfg();
        assert_eq!(c.n_supplier(), 20);
        assert_eq!(c.n_customer(), 60);
        assert_eq!(c.n_orders(), 90);
        assert_eq!(c.n_lineitem(), 270);
        let cat = generate_catalog(&c);
        assert_eq!(cat.get("region").unwrap().len(), 5);
        assert_eq!(cat.get("nation").unwrap().len(), 25);
        assert_eq!(cat.get("supplier").unwrap().len(), 20);
        assert_eq!(cat.get("partsupp").unwrap().len(), 80);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_catalog(&cfg());
        let b = generate_catalog(&cfg());
        for name in [
            "supplier", "customer", "orders", "lineitem", "part", "partsupp",
        ] {
            let ra = a.get(name).unwrap();
            let rb = b.get(name).unwrap();
            assert_eq!(ra.tuples(), rb.tuples(), "table {name} not deterministic");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_catalog(&TpchConfig::new(2, 1));
        let b = generate_catalog(&TpchConfig::new(2, 2));
        assert_ne!(
            a.get("supplier").unwrap().tuples(),
            b.get("supplier").unwrap().tuples()
        );
    }

    #[test]
    fn variant_overlap_shares_exact_prefix() {
        let c = cfg();
        let base = supplier(&c, "s0", 0, 1.0);
        let v1 = supplier(&c, "s1", 1, 0.5);
        let v2 = supplier(&c, "s2", 2, 0.5);
        let n = base.len();
        let shared = n / 2;
        for i in 0..shared {
            assert_eq!(base.row_ref(i), v1.row_ref(i), "shared prefix must match");
            assert_eq!(base.row_ref(i), v2.row_ref(i));
        }
        // Tails must differ from the base (statistically certain).
        let tail_same = (shared..n)
            .filter(|&i| base.row_ref(i) == v1.row_ref(i))
            .count();
        assert!(tail_same < (n - shared) / 2, "tail should be re-drawn");
        // And the two variants' tails differ from each other.
        let cross_same = (shared..n)
            .filter(|&i| v1.row_ref(i) == v2.row_ref(i))
            .count();
        assert!(cross_same < (n - shared) / 2);
    }

    #[test]
    fn overlap_zero_and_one_extremes() {
        let c = cfg();
        let base = orders(&c, "o0", 0, 1.0);
        let full = orders(&c, "o1", 1, 1.0);
        assert_eq!(base.tuples(), full.tuples(), "overlap 1.0 means identical");
        let none = orders(&c, "o2", 1, 0.0);
        let same = (0..base.len())
            .filter(|&i| base.row_ref(i) == none.row_ref(i))
            .count();
        assert!(same < base.len() / 2, "overlap 0.0 should re-draw ~all");
    }

    #[test]
    fn foreign_keys_stay_in_range() {
        let c = cfg();
        let o = orders(&c, "o", 3, 0.3);
        for row in o.iter_rows() {
            let ck = row.value(1).as_int().unwrap();
            assert!((0..c.n_customer() as i64).contains(&ck));
        }
        let li = lineitem(&c, "l", 3, 0.3);
        for row in li.iter_rows() {
            let ok = row.value(0).as_int().unwrap();
            assert!((0..c.n_orders() as i64).contains(&ok));
            let pk = row.value(2).as_int().unwrap();
            assert!((0..c.n_part() as i64).contains(&pk));
        }
        let ps = partsupp(&c, "ps", 3, 0.3);
        for row in ps.iter_rows() {
            let sk = row.value(1).as_int().unwrap();
            assert!((0..c.n_supplier() as i64).contains(&sk));
        }
    }

    #[test]
    fn skew_increases_fk_concentration() {
        let uniform = TpchConfig::new(4, 9);
        let skewed = TpchConfig::new(4, 9).with_skew(1.5);
        let custkey = |o: &Relation| suj_storage::HashIndex::build(o, &["custkey".into()]);
        let max_deg = |cfg: &TpchConfig| custkey(&orders(cfg, "o", 0, 1.0)).max_degree();
        let mu = max_deg(&uniform);
        let ms = max_deg(&skewed);
        assert!(ms > mu * 2, "skewed max degree {ms} vs uniform {mu}");
        // Hot keys are the low ranks.
        let idx = custkey(&orders(&skewed, "o", 0, 1.0));
        let degree = |k: i64| idx.rows_matching_projected(&[Value::int(k)], &[0]).len();
        assert!(degree(0) > degree(50));
    }

    #[test]
    fn zero_skew_is_bit_exact_with_default_generator() {
        let plain = TpchConfig::new(2, 7);
        let explicit = TpchConfig::new(2, 7).with_skew(0.0);
        let a = orders(&plain, "o", 1, 0.5);
        let b = orders(&explicit, "o", 1, 0.5);
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn tables_are_duplicate_free() {
        // Set-semantics requirement (§3: "no duplicates in each join"
        // needs duplicate-free base relations).
        let c = cfg();
        let cat = generate_catalog(&c);
        for name in [
            "supplier", "customer", "orders", "lineitem", "part", "partsupp",
        ] {
            let r = cat.get(name).unwrap();
            assert_eq!(
                r.distinct().len(),
                r.len(),
                "table {name} contains duplicate rows"
            );
        }
    }

    #[test]
    fn partsupp_has_two_distinct_suppliers_per_part() {
        let c = cfg();
        let ps = partsupp(&c, "ps", 0, 1.0);
        for i in (0..ps.len()).step_by(2) {
            let a = ps.row_ref(i).value(1);
            let b = ps.row_ref(i + 1).value(1);
            assert_eq!(ps.row_ref(i).value(0), ps.row_ref(i + 1).value(0));
            // With the +n/2 offset the two suppliers of a part are
            // distinct whenever n_supp ≥ 2.
            assert_ne!(a, b, "part {} has duplicate supplier", i / 2);
        }
    }
}
