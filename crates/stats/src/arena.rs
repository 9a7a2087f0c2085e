//! Flat arena of alias tables: one Walker/Vose table per *segment*,
//! all stored in three shared slabs.
//!
//! The Exact-Weight join sampler needs one alias table per key id per
//! join-tree edge (ISSUE 10 / ROADMAP item 4): a draw then cascades
//! root-alias → one O(1) alias lookup per edge with zero rejection.
//! Storing each table on its own would mean two heap allocations per
//! key id — millions of tiny `Vec`s on realistic data. [`AliasArena`]
//! instead packs every table
//! into one `prob` slab and one `alias` slab with a per-segment offset
//! column, mirroring the CSR postings layout the segments correspond
//! to: segment `k` of the arena is congruent with posting list `k` of
//! the driving hash index, and [`AliasArena::draw`] returns a *local*
//! index into that posting list.
//!
//! Zero-total segments (all weights zero — dangling rows) are stored
//! degenerately (`prob = 1`, self-alias) so the congruence with the
//! posting lists is preserved; callers reject such draws via their own
//! weight-zero guard, exactly as the pre-arena code did.

use crate::rng::SujRng;

/// A packed collection of alias tables sharing three flat slabs.
///
/// Built once via [`AliasArenaBuilder`], drawn from millions of times,
/// and serialized/revalidated through [`AliasArena::from_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct AliasArena {
    /// `segments() + 1` offsets into the slabs; segment `k` spans
    /// `offsets[k]..offsets[k + 1]`.
    offsets: Vec<u32>,
    /// Acceptance probability per slot, in `[0, 1]`.
    prob: Vec<f64>,
    /// Segment-local alias index per slot.
    alias: Vec<u32>,
}

impl AliasArena {
    /// Reassembles an arena from raw slabs (e.g. decoded from a
    /// snapshot), validating every structural invariant:
    ///
    /// * `offsets` is non-empty, starts at 0, is monotone
    ///   non-decreasing, and ends exactly at the slab length;
    /// * `prob` and `alias` have equal length;
    /// * every probability is finite and within `[0, 1]`;
    /// * every alias index stays inside its own segment.
    ///
    /// Returns `None` if any invariant fails.
    pub fn from_parts(offsets: Vec<u32>, prob: Vec<f64>, alias: Vec<u32>) -> Option<Self> {
        let (first, last) = (*offsets.first()?, *offsets.last()?);
        if first != 0 || last as usize != prob.len() || prob.len() != alias.len() {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if prob
            .iter()
            .any(|p| !p.is_finite() || !(0.0..=1.0).contains(p))
        {
            return None;
        }
        for w in offsets.windows(2) {
            let (lo, hi) = (w[0] as usize, w[1] as usize);
            let n = (hi - lo) as u32;
            if alias[lo..hi].iter().any(|&a| a >= n) {
                return None;
            }
        }
        Some(Self {
            offsets,
            prob,
            alias,
        })
    }

    /// Number of segments (alias tables) in the arena.
    pub fn segments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of slots in segment `k`.
    pub fn segment_len(&self, k: usize) -> usize {
        (self.offsets[k + 1] - self.offsets[k]) as usize
    }

    /// Total number of slots across all segments.
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// Whether the arena holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// The raw offset column (length `segments() + 1`).
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw probability slab.
    pub fn prob(&self) -> &[f64] {
        &self.prob
    }

    /// The raw segment-local alias slab.
    pub fn alias_slab(&self) -> &[u32] {
        &self.alias
    }

    /// Heap footprint of the three slabs in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u32>()
            + self.prob.len() * std::mem::size_of::<f64>()
            + self.alias.len() * std::mem::size_of::<u32>()
    }

    /// Draws a segment-local index from segment `segment` in O(1):
    /// one uniform slot pick plus at most one alias redirect.
    ///
    /// Allocation-free. Panics if the segment is empty (callers index
    /// arenas by key ids whose posting lists are never empty).
    #[inline]
    pub fn draw(&self, segment: u32, rng: &mut SujRng) -> u32 {
        let (lo, n) = self.span(segment);
        let i = rng.index(n);
        self.settle(lo, i, rng.next_u64())
    }

    /// What [`draw`](Self::draw) returns when the generator's next two
    /// words are `w_index` (the slot) and `w_coin` (the alias coin), or
    /// `None` when the slot word has no word form
    /// ([`SujRng::index_word`]) and the sequential draw decides.
    #[inline]
    pub fn draw_words(&self, segment: u32, w_index: u64, w_coin: u64) -> Option<u32> {
        let (lo, n) = self.span(segment);
        SujRng::index_word(w_index, n).map(|i| self.settle(lo, i, w_coin))
    }

    /// Segment `segment`'s first slot and its slot count.
    #[inline]
    fn span(&self, segment: u32) -> (usize, usize) {
        let lo = self.offsets[segment as usize] as usize;
        (lo, self.offsets[segment as usize + 1] as usize - lo)
    }

    /// Slot `i` of the segment starting at `lo`, or its alias, by the
    /// coin word.
    #[inline]
    fn settle(&self, lo: usize, i: usize, coin: u64) -> u32 {
        if SujRng::unit_f64(coin) < self.prob[lo + i] {
            i as u32
        } else {
            self.alias[lo + i]
        }
    }
}

/// Incremental builder for [`AliasArena`]: push one weight segment at
/// a time; Vose worklist scratch is reused across segments so building
/// `m` tables costs `m` pushes and zero per-table allocations beyond
/// the three shared slabs.
#[derive(Debug, Default)]
pub struct AliasArenaBuilder {
    offsets: Vec<u32>,
    prob: Vec<f64>,
    alias: Vec<u32>,
    // Reused Vose scratch (segment-local).
    scaled: Vec<f64>,
    small: Vec<u32>,
    large: Vec<u32>,
}

impl AliasArenaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            ..Self::default()
        }
    }

    /// Creates a builder with slab capacity for `segments` tables and
    /// `slots` total entries.
    pub fn with_capacity(segments: usize, slots: usize) -> Self {
        Self {
            offsets: {
                let mut v = Vec::with_capacity(segments + 1);
                v.push(0);
                v
            },
            prob: Vec::with_capacity(slots),
            alias: Vec::with_capacity(slots),
            scaled: Vec::new(),
            small: Vec::new(),
            large: Vec::new(),
        }
    }

    /// Appends one segment of `n` slots whose weight at local index
    /// `i` is `weight(i)`. Non-finite or negative weights are treated
    /// as zero. A zero-total segment is stored degenerately
    /// (`prob = 1`, self-alias): draws on it return a uniform slot and
    /// the caller's zero-weight guard is expected to reject them.
    pub fn push_segment_with(&mut self, n: usize, mut weight: impl FnMut(usize) -> f64) {
        let base = self.prob.len();
        debug_assert!(self.offsets.last() == Some(&(base as u32)));
        self.prob.resize(base + n, 1.0);
        self.alias.resize(base + n, 0);

        self.scaled.clear();
        let mut total = 0.0f64;
        for i in 0..n {
            let w = weight(i);
            let w = if w.is_finite() && w > 0.0 { w } else { 0.0 };
            total += w;
            self.scaled.push(w);
        }
        if total > 0.0 {
            let scale = n as f64 / total;
            self.small.clear();
            self.large.clear();
            for (i, w) in self.scaled.iter_mut().enumerate() {
                *w *= scale;
                if *w < 1.0 {
                    self.small.push(i as u32);
                } else {
                    self.large.push(i as u32);
                }
            }
            while let (Some(&s), Some(&l)) = (self.small.last(), self.large.last()) {
                self.small.pop();
                self.large.pop();
                let (s, l) = (s as usize, l as usize);
                self.prob[base + s] = self.scaled[s];
                self.alias[base + s] = l as u32;
                self.scaled[l] = (self.scaled[l] + self.scaled[s]) - 1.0;
                if self.scaled[l] < 1.0 {
                    self.small.push(l as u32);
                } else {
                    self.large.push(l as u32);
                }
            }
            // Leftover worklist entries hold numerical residue ≈ 1;
            // their slots keep the prob = 1.0 they were initialized
            // with (alias never consulted).
            for &leftover in self.small.iter().chain(self.large.iter()) {
                self.alias[base + leftover as usize] = leftover;
            }
        } else {
            // Degenerate zero-total segment: uniform self-alias.
            for (i, slot) in self.alias[base..].iter_mut().enumerate() {
                *slot = i as u32;
            }
        }
        let end = u32::try_from(base + n).expect("alias arena exceeds u32 slots");
        self.offsets.push(end);
    }

    /// Appends one segment from a weight slice.
    pub fn push_segment(&mut self, weights: &[f64]) {
        self.push_segment_with(weights.len(), |i| weights[i]);
    }

    /// Finalizes the arena.
    pub fn finish(self) -> AliasArena {
        AliasArena {
            offsets: self.offsets,
            prob: self.prob,
            alias: self.alias,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empirical(
        draws: usize,
        n: usize,
        seed: u64,
        mut f: impl FnMut(&mut SujRng) -> usize,
    ) -> Vec<f64> {
        let mut rng = SujRng::seed_from_u64(seed);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            counts[f(&mut rng)] += 1;
        }
        counts.iter().map(|&c| c as f64 / draws as f64).collect()
    }

    /// A one-segment arena is a plain alias table: every slot is drawn
    /// in proportion to its weight, a zero weight never, and a single
    /// slot always.
    #[test]
    fn one_segment_draws_match_weights() {
        let weights = [0.5, 0.0, 8.0, 1.5, 3.0];
        let mut b = AliasArenaBuilder::new();
        b.push_segment(&weights);
        let arena = b.finish();
        let freqs = empirical(200_000, 5, 17, |rng| arena.draw(0, rng) as usize);
        for (i, &f) in freqs.iter().enumerate() {
            let expect = weights[i] / 13.0;
            assert!((f - expect).abs() < 0.01, "slot {i}: {f} vs {expect}");
        }
        assert_eq!(freqs[1], 0.0);
        let mut b = AliasArenaBuilder::new();
        b.push_segment(&[3.0]);
        let single = b.finish();
        let mut rng = SujRng::seed_from_u64(77);
        for _ in 0..100 {
            assert_eq!(single.draw(0, &mut rng), 0);
        }
    }

    #[test]
    fn multi_segment_draws_match_weights() {
        let segs: Vec<Vec<f64>> = vec![
            vec![1.0, 2.0, 3.0, 4.0],
            vec![10.0],
            vec![0.0, 5.0, 0.0, 5.0, 10.0],
        ];
        let mut b = AliasArenaBuilder::with_capacity(segs.len(), 10);
        for s in &segs {
            b.push_segment(s);
        }
        let arena = b.finish();
        assert_eq!(arena.segments(), 3);
        for (k, s) in segs.iter().enumerate() {
            assert_eq!(arena.segment_len(k), s.len());
            let total: f64 = s.iter().sum();
            let freqs = empirical(200_000, s.len(), 7 + k as u64, |rng| {
                arena.draw(k as u32, rng) as usize
            });
            for (i, &f) in freqs.iter().enumerate() {
                let expect = s[i] / total;
                assert!(
                    (f - expect).abs() < 0.01,
                    "seg {k} slot {i}: {f} vs {expect}"
                );
            }
        }
    }

    /// `draw_words` on the generator's next two words is `draw`, slot
    /// and alias alike, and `None` exactly where the slot word has no
    /// word form.
    #[test]
    fn draw_words_equals_draw() {
        let mut b = AliasArenaBuilder::new();
        b.push_segment(&[0.5, 0.0, 8.0, 1.5, 3.0]);
        b.push_segment(&[2.0]);
        b.push_segment(&[1.0, 1.0, 0.0]);
        let arena = b.finish();
        let mut rng = SujRng::seed_from_u64(41);
        for k in 0..30_000u32 {
            let segment = k % 3;
            let mut ahead = rng.clone();
            let (w_index, w_coin) = (ahead.next_u64(), ahead.next_u64());
            let drawn = arena.draw(segment, &mut rng);
            assert_eq!(arena.draw_words(segment, w_index, w_coin), Some(drawn));
            assert_eq!(ahead.next_u64(), rng.clone().next_u64());
        }
        assert_eq!(arena.draw_words(0, 0, 0), None, "low product 0 < 5");
    }

    #[test]
    fn zero_weight_slots_never_drawn() {
        // Negative and non-finite weights count as zero.
        let mut b = AliasArenaBuilder::new();
        b.push_segment(&[0.0, 7.0, 0.0, -1.0, f64::NAN, f64::INFINITY]);
        let arena = b.finish();
        let mut rng = SujRng::seed_from_u64(3);
        for _ in 0..2_000 {
            assert_eq!(arena.draw(0, &mut rng), 1);
        }
    }

    #[test]
    fn zero_total_segment_is_degenerate_but_drawable() {
        let mut b = AliasArenaBuilder::new();
        b.push_segment(&[0.0, 0.0, 0.0]);
        b.push_segment(&[1.0, 1.0]);
        let arena = b.finish();
        let mut rng = SujRng::seed_from_u64(5);
        for _ in 0..500 {
            assert!(arena.draw(0, &mut rng) < 3);
            assert!(arena.draw(1, &mut rng) < 2);
        }
    }

    #[test]
    fn u64_counts_round_trip_through_f64_weights() {
        // Integer counts are what the EW sampler feeds in; make sure a
        // skewed integer profile is preserved.
        let counts: [u64; 4] = [1, 1_000, 1, 998];
        let mut b = AliasArenaBuilder::new();
        b.push_segment_with(counts.len(), |i| counts[i] as f64);
        let arena = b.finish();
        let total: u64 = counts.iter().sum();
        let freqs = empirical(400_000, 4, 21, |rng| arena.draw(0, rng) as usize);
        for (i, &f) in freqs.iter().enumerate() {
            let expect = counts[i] as f64 / total as f64;
            assert!((f - expect).abs() < 0.01, "slot {i}: {f} vs {expect}");
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let mut b = AliasArenaBuilder::new();
        b.push_segment(&[1.0, 2.0]);
        b.push_segment(&[0.0, 0.0]);
        b.push_segment(&[5.0]);
        let arena = b.finish();
        let rebuilt = AliasArena::from_parts(
            arena.offsets().to_vec(),
            arena.prob().to_vec(),
            arena.alias_slab().to_vec(),
        )
        .unwrap();
        assert_eq!(arena, rebuilt);
    }

    #[test]
    fn from_parts_rejects_structural_corruption() {
        let ok_off = vec![0u32, 2, 2, 3];
        let ok_prob = vec![0.5, 1.0, 1.0];
        let ok_alias = vec![1u32, 0, 0];
        assert!(
            AliasArena::from_parts(ok_off.clone(), ok_prob.clone(), ok_alias.clone()).is_some()
        );
        // Empty offsets.
        assert!(AliasArena::from_parts(vec![], ok_prob.clone(), ok_alias.clone()).is_none());
        // First offset nonzero.
        assert!(AliasArena::from_parts(vec![1, 3], ok_prob.clone(), ok_alias.clone()).is_none());
        // Last offset disagrees with slab length.
        assert!(AliasArena::from_parts(vec![0, 2], ok_prob.clone(), ok_alias.clone()).is_none());
        // Non-monotone offsets.
        assert!(
            AliasArena::from_parts(vec![0, 3, 2, 3], ok_prob.clone(), ok_alias.clone()).is_none()
        );
        // Slab length mismatch.
        assert!(AliasArena::from_parts(ok_off.clone(), vec![0.5, 1.0], ok_alias.clone()).is_none());
        // Probability out of range / non-finite.
        assert!(
            AliasArena::from_parts(ok_off.clone(), vec![0.5, 2.0, 1.0], ok_alias.clone()).is_none()
        );
        assert!(
            AliasArena::from_parts(ok_off.clone(), vec![0.5, f64::NAN, 1.0], ok_alias.clone())
                .is_none()
        );
        // Alias escaping its segment.
        assert!(AliasArena::from_parts(ok_off, ok_prob, vec![2, 0, 0]).is_none());
    }

    #[test]
    fn memory_bytes_counts_all_three_slabs() {
        let mut b = AliasArenaBuilder::new();
        b.push_segment(&[1.0, 2.0, 3.0]);
        let arena = b.finish();
        // offsets: 2 × 4, prob: 3 × 8, alias: 3 × 4.
        assert_eq!(arena.memory_bytes(), 2 * 4 + 3 * 8 + 3 * 4);
    }
}
