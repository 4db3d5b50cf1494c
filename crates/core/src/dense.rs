//! Dense data-layout primitives for the strategy-phase hot path.
//!
//! The list scheduler and the graph-coloring allocator spend almost
//! all compile time scanning small integer-keyed sets: live vregs,
//! interference neighbors, claimed resource units. Hash containers
//! make every membership test a rehash and every scan a pointer
//! chase; the structures here put the same sets into contiguous
//! `u64` words so membership is a shift-and-mask, set algebra is
//! word-parallel, and iteration is a trailing-zeros walk.
//!
//! The dense-id rule: anything keyed by vreg, block, cycle or unit
//! number is stored in an array indexed by that number. The key
//! universes are small and dense by construction (vregs are numbered
//! contiguously per function, units per machine), so the arrays stay
//! compact and the per-element constant beats hashing by an order of
//! magnitude.

/// A fixed-width bitset over `u64` words.
///
/// Width is set at construction (or [`BitSet::reset`]) and all
/// operands of the binary operations must share it; this keeps every
/// union/intersection a straight word loop with no tail casing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    nbits: usize,
}

impl BitSet {
    /// An empty set over the universe `0..nbits`.
    pub fn new(nbits: usize) -> BitSet {
        BitSet {
            words: vec![0; nbits.div_ceil(64)],
            nbits,
        }
    }

    /// Clears all bits, re-sizing the universe to `nbits`. Reuses the
    /// existing allocation when wide enough.
    pub fn reset(&mut self, nbits: usize) {
        self.nbits = nbits;
        let need = nbits.div_ceil(64);
        self.words.clear();
        self.words.resize(need, 0);
    }

    /// The universe width.
    pub fn nbits(&self) -> usize {
        self.nbits
    }

    /// Inserts `i`; returns whether the set changed.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        let w = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`; returns whether the set changed.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        let w = &mut self.words[i >> 6];
        let mask = 1u64 << (i & 63);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.nbits);
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Removes every bit.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// `self |= other`; returns whether `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut changed = 0u64;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a = old | b;
            changed |= *a ^ old;
        }
        changed != 0
    }

    /// `self &= other`; returns whether `self` changed.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, other.nbits);
        let mut changed = 0u64;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a = old & b;
            changed |= *a ^ old;
        }
        changed != 0
    }

    /// `self = a | (b & !c)` — the dataflow transfer
    /// `in = gen ∪ (out − kill)` as one fused word loop. Returns
    /// whether `self` changed.
    pub fn assign_union_minus(&mut self, a: &BitSet, b: &BitSet, c: &BitSet) -> bool {
        debug_assert_eq!(self.nbits, a.nbits);
        debug_assert_eq!(self.nbits, b.nbits);
        debug_assert_eq!(self.nbits, c.nbits);
        let mut changed = 0u64;
        for (((s, x), y), z) in self
            .words
            .iter_mut()
            .zip(&a.words)
            .zip(&b.words)
            .zip(&c.words)
        {
            let old = *s;
            *s = x | (y & !z);
            changed |= *s ^ old;
        }
        changed != 0
    }

    /// Copies `other` into `self` (same width).
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.nbits, other.nbits);
        self.words.copy_from_slice(&other.words);
    }

    /// Iterates set bits in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi << 6;
            std::iter::successors(Some(w), |&rest| Some(rest & rest.wrapping_sub(1)))
                .take_while(|&rest| rest != 0)
                .map(move |rest| base + rest.trailing_zeros() as usize)
        })
    }
}

/// A dense 2-D bit matrix: `nrows` rows of an `ncols`-bit universe,
/// all sharing one allocation. Used as the build-time representation
/// of the interference graph (symmetric adjacency) and of per-vreg
/// physical-unit conflicts, where O(1) deduplicated insertion
/// matters: the allocator inserts the same edge many times (once per
/// live range overlap) and the matrix absorbs duplicates for free.
#[derive(Debug, Clone, Default)]
pub struct BitMatrix {
    words: Vec<u64>,
    words_per_row: usize,
    nrows: usize,
    ncols: usize,
}

impl BitMatrix {
    /// An all-zero matrix.
    pub fn new(nrows: usize, ncols: usize) -> BitMatrix {
        let words_per_row = ncols.div_ceil(64);
        BitMatrix {
            words: vec![0; nrows * words_per_row],
            words_per_row,
            nrows,
            ncols,
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Sets bit `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize) {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.words[r * self.words_per_row + (c >> 6)] |= 1u64 << (c & 63);
    }

    /// Tests bit `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        debug_assert!(r < self.nrows && c < self.ncols);
        self.words[r * self.words_per_row + (c >> 6)] & (1u64 << (c & 63)) != 0
    }

    /// Set bits of row `r`, in increasing column order.
    pub fn row_iter(&self, r: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.words[r * self.words_per_row..(r + 1) * self.words_per_row];
        row.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi << 6;
            std::iter::successors(Some(w), |&rest| Some(rest & rest.wrapping_sub(1)))
                .take_while(|&rest| rest != 0)
                .map(move |rest| base + rest.trailing_zeros() as usize)
        })
    }

    /// Population count of row `r`.
    pub fn row_len(&self, r: usize) -> usize {
        self.words[r * self.words_per_row..(r + 1) * self.words_per_row]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

/// A compressed-sparse-row adjacency array: neighbor lists of all
/// nodes flattened into one `targets` vector addressed through
/// `offsets`. Rows are sorted and deduplicated by construction (they
/// come out of a [`BitMatrix`] in bit order), so degree is an O(1)
/// subtraction and a neighbor scan is a contiguous slice walk.
#[derive(Debug, Clone, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// Flattens a bit matrix into adjacency arrays (row bit `c` of
    /// row `r` becomes target `c` of node `r`).
    pub fn from_matrix(m: &BitMatrix) -> Csr {
        let mut offsets = Vec::with_capacity(m.nrows() + 1);
        offsets.push(0u32);
        let mut total = 0u32;
        for r in 0..m.nrows() {
            total += m.row_len(r) as u32;
            offsets.push(total);
        }
        let mut targets = Vec::with_capacity(total as usize);
        for r in 0..m.nrows() {
            targets.extend(m.row_iter(r).map(|c| c as u32));
        }
        Csr { offsets, targets }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// The (sorted, deduplicated) neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// Total directed targets; half this for a symmetric graph's
    /// undirected edge count.
    pub fn total_targets(&self) -> usize {
        self.targets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marion_rng::SplitMix64;
    use std::collections::HashSet;

    /// Random insert/remove sequences agree with a `HashSet` model:
    /// membership, length, union, intersection and iteration order.
    #[test]
    fn bitset_matches_hashset_model() {
        let mut rng = SplitMix64::new(0x5eed_0001);
        for trial in 0..50 {
            let nbits = 1 + (rng.next_u64() % 300) as usize;
            let mut a = BitSet::new(nbits);
            let mut b = BitSet::new(nbits);
            let mut ma: HashSet<usize> = HashSet::new();
            let mut mb: HashSet<usize> = HashSet::new();
            for _ in 0..200 {
                let i = (rng.next_u64() as usize) % nbits;
                match rng.next_u64() % 4 {
                    0 => {
                        assert_eq!(a.insert(i), ma.insert(i), "insert {i} trial {trial}");
                    }
                    1 => {
                        assert_eq!(a.remove(i), ma.remove(&i), "remove {i} trial {trial}");
                    }
                    2 => {
                        assert_eq!(b.insert(i), mb.insert(i));
                    }
                    _ => {
                        assert_eq!(a.contains(i), ma.contains(&i), "contains {i}");
                    }
                }
            }
            assert_eq!(a.len(), ma.len());
            assert_eq!(a.is_empty(), ma.is_empty());
            // Iteration yields exactly the model's elements, sorted.
            let mut want: Vec<usize> = ma.iter().copied().collect();
            want.sort_unstable();
            assert_eq!(a.iter().collect::<Vec<_>>(), want);
            // Union against the model.
            let mut u = a.clone();
            let u_changed = u.union_with(&b);
            let mu: HashSet<usize> = ma.union(&mb).copied().collect();
            let mut want: Vec<usize> = mu.iter().copied().collect();
            want.sort_unstable();
            assert_eq!(u.iter().collect::<Vec<_>>(), want);
            assert_eq!(u_changed, mu.len() != ma.len());
            // Intersection against the model.
            let mut n = a.clone();
            let n_changed = n.intersect_with(&b);
            let mn: HashSet<usize> = ma.intersection(&mb).copied().collect();
            let mut want: Vec<usize> = mn.iter().copied().collect();
            want.sort_unstable();
            assert_eq!(n.iter().collect::<Vec<_>>(), want);
            assert_eq!(n_changed, mn.len() != ma.len());
        }
    }

    /// The fused dataflow transfer equals its set-algebra spelling.
    #[test]
    fn assign_union_minus_is_gen_union_out_minus_kill() {
        let mut rng = SplitMix64::new(0x5eed_0002);
        for _ in 0..50 {
            let nbits = 1 + (rng.next_u64() % 200) as usize;
            let mut gen = BitSet::new(nbits);
            let mut out = BitSet::new(nbits);
            let mut kill = BitSet::new(nbits);
            for _ in 0..nbits {
                let i = (rng.next_u64() as usize) % nbits;
                match rng.next_u64() % 3 {
                    0 => {
                        gen.insert(i);
                    }
                    1 => {
                        out.insert(i);
                    }
                    _ => {
                        kill.insert(i);
                    }
                }
            }
            let mut fused = BitSet::new(nbits);
            fused.assign_union_minus(&gen, &out, &kill);
            let want: Vec<usize> = (0..nbits)
                .filter(|&i| gen.contains(i) || (out.contains(i) && !kill.contains(i)))
                .collect();
            assert_eq!(fused.iter().collect::<Vec<_>>(), want);
            // A second identical assignment reports no change.
            let mut again = fused.clone();
            assert!(!again.assign_union_minus(&gen, &out, &kill));
        }
    }

    /// CSR flattening preserves a random symmetric matrix exactly:
    /// same neighbors, same degrees, sorted rows.
    #[test]
    fn csr_matches_matrix() {
        let mut rng = SplitMix64::new(0x5eed_0003);
        for _ in 0..25 {
            let n = 1 + (rng.next_u64() % 120) as usize;
            let mut m = BitMatrix::new(n, n);
            let mut model: Vec<HashSet<usize>> = vec![HashSet::new(); n];
            for _ in 0..(n * 3) {
                let a = (rng.next_u64() as usize) % n;
                let b = (rng.next_u64() as usize) % n;
                if a == b {
                    continue;
                }
                m.set(a, b);
                m.set(b, a);
                model[a].insert(b);
                model[b].insert(a);
            }
            let csr = Csr::from_matrix(&m);
            assert_eq!(csr.nodes(), n);
            let mut total = 0;
            for (v, adj) in model.iter().enumerate() {
                let mut want: Vec<u32> = adj.iter().map(|&x| x as u32).collect();
                want.sort_unstable();
                assert_eq!(csr.neighbors(v), want.as_slice());
                assert_eq!(csr.degree(v), adj.len());
                total += adj.len();
            }
            assert_eq!(csr.total_targets(), total);
        }
    }

    #[test]
    fn reset_reuses_and_widens() {
        let mut s = BitSet::new(70);
        s.insert(69);
        s.reset(10);
        assert!(s.is_empty());
        assert_eq!(s.nbits(), 10);
        s.insert(9);
        s.reset(200);
        assert!(s.is_empty());
        s.insert(199);
        assert!(s.contains(199));
    }
}
