//! Seedable pseudo-random number generation.
//!
//! All randomized components in the workspace draw from [`SujRng`] so that
//! every experiment is reproducible from a single `u64` seed. The
//! generator is xoshiro256++ (Blackman & Vigna) seeded through SplitMix64,
//! implemented here directly: it is tiny, `Clone`, platform-stable, and
//! keeps the workspace independent of external PRNG API churn.

/// A seedable random number generator (xoshiro256++).
///
/// Construction from a seed is deterministic across runs and platforms,
/// which the test suite and the benchmark harness rely on.
#[derive(Debug, Clone)]
pub struct SujRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SujRng {
    /// Creates a generator from a fixed seed. Identical seeds yield
    /// identical streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self { s }
    }

    /// Derives an independent child generator. Useful for giving each
    /// join/worker its own stream while keeping the experiment seeded.
    pub fn fork(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }

    /// Deterministically derives the generator for stream `stream`
    /// under `root` — the stateless counterpart of [`fork`](Self::fork)
    /// used by concurrent serving: the derived stream depends only on
    /// the `(root, stream)` pair, never on which thread or in which
    /// order handles were minted, so a request seeded by its id is
    /// reproducible across any worker-pool interleaving.
    ///
    /// Both words pass through SplitMix64 before combining, so nearby
    /// roots/streams (0, 1, 2, …) land in unrelated states.
    pub fn derive(root: u64, stream: u64) -> Self {
        let mut a = root;
        let mut b = stream ^ 0x6A09_E667_F3BC_C909; // √2 offset: derive(s, s) ≠ seed(0)-like collisions
        Self::seed_from_u64(splitmix64(&mut a) ^ splitmix64(&mut b))
    }

    /// Returns the next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform double in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        Self::unit_f64(self.next_u64())
    }

    /// The double in `[0, 1)` that [`next_f64`](Self::next_f64) makes
    /// of the raw word `word`.
    #[inline]
    pub fn unit_f64(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Lemire's fast path for one word: the index in `[0, n)` that
    /// [`index`](Self::index) returns when its first word is `word`, or
    /// `None` when that word's low product falls below `n` (and for
    /// `n == 0`), where the sequential draw may take another word.
    ///
    /// A caller that pre-draws words falls back to the sequential draw
    /// on `None`; the chance of it is `n / 2⁶⁴` per draw.
    #[inline]
    pub fn index_word(word: u64, n: usize) -> Option<usize> {
        Self::bounded_word(word, n as u64).map(|i| i as usize)
    }

    #[inline]
    fn bounded_word(word: u64, n: u64) -> Option<u64> {
        let m = (word as u128) * (n as u128);
        (m as u64 >= n && n > 0).then_some((m >> 64) as u64)
    }

    /// Uniform integer in `[0, n)` via Lemire's nearly-divisionless method.
    #[inline]
    fn bounded_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        let x = self.next_u64();
        if let Some(i) = Self::bounded_word(x, n) {
            return i;
        }
        // The rejection loop, in line: a call taking `&mut self` would
        // keep the generator's state in memory on the fast path too.
        let threshold = n.wrapping_neg() % n;
        let mut m = (x as u128) * (n as u128);
        while (m as u64) < threshold {
            m = (self.next_u64() as u128) * (n as u128);
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        self.bounded_u64(n as u64) as usize
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.bounded_u64(hi - lo)
    }

    /// Uniform integer in `[lo, hi)` over `i64`. Panics if the range is empty.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        let span = (hi as i128 - lo as i128) as u64;
        (lo as i128 + self.bounded_u64(span) as i128) as i64
    }

    /// Bernoulli draw: returns `true` with probability `p` (clamped to
    /// `[0, 1]`).
    pub fn bernoulli(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (Floyd's algorithm when
    /// `k << n`, shuffle otherwise). Returned order is unspecified.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items out of {n}");
        if k == 0 {
            return Vec::new();
        }
        if k * 4 >= n {
            let mut all: Vec<usize> = (0..n).collect();
            self.shuffle(&mut all);
            all.truncate(k);
            all
        } else {
            // Floyd's algorithm: O(k) expected time.
            let mut chosen = std::collections::HashSet::with_capacity(k * 2);
            let mut out = Vec::with_capacity(k);
            for j in (n - k)..n {
                let t = self.index(j + 1);
                let v = if chosen.contains(&t) { j } else { t };
                chosen.insert(v);
                out.push(v);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = SujRng::seed_from_u64(42);
        let mut b = SujRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SujRng::seed_from_u64(1);
        let mut b = SujRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SujRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_half() {
        let mut rng = SujRng::seed_from_u64(17);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn index_stays_in_range() {
        let mut rng = SujRng::seed_from_u64(7);
        for n in 1..50usize {
            for _ in 0..20 {
                assert!(rng.index(n) < n);
            }
        }
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = SujRng::seed_from_u64(21);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[rng.index(10)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn range_i64_handles_negative_bounds() {
        let mut rng = SujRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.range_i64(-50, 50);
            assert!((-50..50).contains(&v));
        }
        let v = rng.range_i64(i64::MIN, i64::MIN + 2);
        assert!(v == i64::MIN || v == i64::MIN + 1);
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SujRng::seed_from_u64(3);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
        assert!(!rng.bernoulli(-0.5));
        assert!(rng.bernoulli(1.5));
    }

    #[test]
    fn bernoulli_rate_is_plausible() {
        let mut rng = SujRng::seed_from_u64(11);
        let hits = (0..10_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SujRng::seed_from_u64(5);
        for &(n, k) in &[(10usize, 10usize), (100, 3), (50, 25), (1, 1), (8, 0)] {
            let got = rng.sample_indices(n, k);
            assert_eq!(got.len(), k);
            let set: std::collections::HashSet<_> = got.iter().collect();
            assert_eq!(set.len(), k, "indices must be distinct");
            assert!(got.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SujRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..64).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn derive_is_deterministic_and_order_free() {
        let mut a = SujRng::derive(42, 7);
        let mut b = SujRng::derive(42, 7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        // Different streams under one root differ, as do the same
        // streams under different roots.
        let mut c = SujRng::derive(42, 8);
        let mut d = SujRng::derive(43, 7);
        let mut a = SujRng::derive(42, 7);
        let same_c = (0..32).filter(|_| a.next_u64() == c.next_u64()).count();
        let mut a = SujRng::derive(42, 7);
        let same_d = (0..32).filter(|_| a.next_u64() == d.next_u64()).count();
        assert!(same_c < 4 && same_d < 4);
    }

    #[test]
    fn derive_does_not_collide_root_and_stream_swap() {
        let mut a = SujRng::derive(1, 2);
        let mut b = SujRng::derive(2, 1);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "swapped (root, stream) must not alias");
    }

    /// The word forms are the sequential draws' arithmetic: on random
    /// words they return what `index` and `next_f64` return from a
    /// generator whose next word it is.
    #[test]
    fn word_forms_equal_the_sequential_draws() {
        let mut rng = SujRng::seed_from_u64(19);
        for n in [1usize, 2, 3, 7, 1_000, 1 << 40, usize::MAX] {
            for _ in 0..2_000 {
                let mut ahead = rng.clone();
                let word = ahead.next_u64();
                assert_eq!(SujRng::unit_f64(word), rng.clone().next_f64());
                let sequential = rng.index(n);
                match SujRng::index_word(word, n) {
                    Some(i) => {
                        assert_eq!(i, sequential, "n = {n}");
                        assert_eq!(ahead.next_u64(), rng.clone().next_u64());
                    }
                    None => assert!(n > 1 << 32, "a fall-back at n = {n} is a 1 in 2^32 event"),
                }
            }
        }
    }

    /// A word whose low product falls below `n` has no word form, and
    /// the sequential draw decides whether it takes another word: at
    /// `n = 3` Lemire's threshold is `2⁶⁴ mod 3 = 1`, so word 0 is
    /// redrawn while the word with low product 1 is kept.
    #[test]
    fn a_low_product_word_falls_back_to_the_sequential_draw() {
        assert_eq!(SujRng::index_word(0, 3), None);
        let inverse_of_three = 0xAAAA_AAAA_AAAA_AAABu64; // 3 · x ≡ 1 (mod 2⁶⁴)
        assert_eq!(SujRng::index_word(inverse_of_three, 3), None);
        assert_eq!(SujRng::index_word(u64::MAX, 0), None);

        // A generator whose next word is 0 (xoshiro256++ returns
        // rotl(s0 + s3, 23) + s0): `index(3)` takes a second word.
        let zero_next = SujRng { s: [0, 1, 2, 0] };
        assert_eq!(zero_next.clone().next_u64(), 0);
        let mut sequential = zero_next.clone();
        sequential.index(3);
        let mut two_words = zero_next;
        two_words.next_u64();
        let second = two_words.next_u64();
        assert_eq!(sequential.next_u64(), two_words.next_u64());
        assert_ne!(second, 0);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = SujRng::seed_from_u64(13);
        let mut child = parent.fork();
        let same = (0..32)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        assert!(same < 4);
    }
}
