//! The Data Update Tracking (DUT) table.
//!
//! §3.1 of the paper, verbatim: each saved message has its own DUT table,
//! "each of whose entries corresponds to a data element in the message, and
//! contains the following fields:
//!
//! * a pointer to a data structure that contains information about the
//!   data item's type, including the maximum size of its serialized form
//! * a dirty bit to indicate whether it has been changed since the last
//!   time the data was written into the serialized message
//! * a pointer to its current location in the serialized message
//! * its serialized length — the number of characters in the message
//!   necessary for storing the serialized form of the most-recently-written
//!   value
//! * its field width — the number of characters in the message template
//!   currently allocated to this data item (note that the field width must
//!   always match or exceed the serialized length)"
//!
//! [`DutEntry`] carries exactly those fields ([`bsoap_convert::ScalarKind`]
//! *is* the type-info pointer — it knows the maximum serialized width),
//! plus the current scalar value, which the template owns (see
//! [`crate::value`] for why), and the length of the closing-tag run that
//! rides immediately after the value inside the field region.

use crate::value::Scalar;
use bsoap_chunks::Loc;
use bsoap_convert::ScalarKind;

/// One tracked leaf of the serialized message.
///
/// Field region layout inside the chunk, starting at `loc`:
///
/// ```text
/// [ value: ser_len bytes ][ suffix: suffix_len bytes ][ pad: width − ser_len spaces ]
/// ```
///
/// The suffix is the closing tag (e.g. `</item>`). Writing a shorter value
/// moves it left and pads after it — "we simply rewrite the tag immediately
/// to the right of the new value, and pad the space between the end tag of
/// this field and the start tag of the next with whitespace" (§3.2).
#[derive(Clone, Debug)]
pub struct DutEntry {
    /// Scalar kind — the type-info "pointer" (max serialized width etc.).
    pub kind: ScalarKind,
    /// Changed since last written into the serialized message?
    pub dirty: bool,
    /// Location of the value's first byte.
    pub loc: Loc,
    /// Serialized length of the most recently written value.
    pub ser_len: u32,
    /// Characters currently allocated to this value (≥ `ser_len`).
    pub width: u32,
    /// Closing-tag bytes immediately following the value.
    pub suffix_len: u32,
    /// The current in-memory value.
    pub value: Scalar,
}

impl DutEntry {
    /// Unused padding currently available inside this field.
    pub fn pad(&self) -> u32 {
        self.width - self.ser_len
    }

    /// Total bytes of the field region (value + suffix + pad).
    pub fn region_len(&self) -> u32 {
        self.width + self.suffix_len
    }

    /// Offset one past the end of the field region within its chunk.
    pub fn region_end(&self) -> u32 {
        self.loc.offset + self.region_len()
    }
}

/// The per-template DUT table: entries in document (byte) order.
///
/// **The dirty-list invariant:** `dirty` holds the index of every entry
/// whose dirty bit is set — ascending, no duplicates, nothing else. The
/// bit answers "is leaf `i` dirty" in O(1); the list is what a send walks,
/// so planning and patching cost in proportion to what changed, not to
/// what the message holds. Every path that sets or clears a bit keeps the
/// two in step ([`Self::assert_invariants`] checks it).
#[derive(Clone, Debug, Default)]
pub struct DutTable {
    entries: Vec<DutEntry>,
    /// Indices of the dirty entries, ascending.
    dirty: Vec<u32>,
    /// Retained scratch of [`Self::set_doubles`] / [`Self::set_ints`]: the
    /// run positions whose bits differ. Only ever grows.
    hits: Vec<u32>,
}

impl DutTable {
    /// Empty table with capacity for `n` leaves.
    pub fn with_capacity(n: usize) -> Self {
        DutTable {
            entries: Vec::with_capacity(n),
            ..DutTable::default()
        }
    }

    /// Number of tracked leaves.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no leaves are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of leaves currently marked dirty.
    ///
    /// "If none of the dirty bits are set, the message has not changed and
    /// can be resent as is" (§3.1) — the content-match test is
    /// `dirty_count() == 0`.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// Indices of the dirty leaves, ascending — what a send walks.
    pub fn dirty(&self) -> &[u32] {
        &self.dirty
    }

    /// Borrow an entry.
    pub fn entry(&self, idx: usize) -> &DutEntry {
        &self.entries[idx]
    }

    /// Borrow an entry mutably **without** dirty accounting — for the
    /// template's internal location fix-ups only.
    pub(crate) fn entry_mut_raw(&mut self, idx: usize) -> &mut DutEntry {
        &mut self.entries[idx]
    }

    /// All entries, in document order.
    pub fn entries(&self) -> &[DutEntry] {
        &self.entries
    }

    /// Mutable view for fix-up sweeps (no dirty accounting).
    pub(crate) fn entries_mut_raw(&mut self) -> &mut [DutEntry] {
        &mut self.entries
    }

    /// Append an entry during template build (clean).
    pub fn push(&mut self, entry: DutEntry) {
        debug_assert!(!entry.dirty);
        debug_assert!(entry.width >= entry.ser_len);
        self.entries.push(entry);
    }

    /// Update the value of leaf `idx`, marking it dirty only if the new
    /// scalar differs (bitwise for doubles).
    ///
    /// Returns whether the leaf is now dirty.
    pub fn set_value(&mut self, idx: usize, value: Scalar) -> bool {
        let entry = &mut self.entries[idx];
        if entry.value.same_as(&value) {
            return entry.dirty;
        }
        entry.value = value;
        self.mark_dirty(idx);
        true
    }

    /// Force-mark a leaf dirty without changing its value (benchmarks use
    /// this to induce a re-serialization of identical content).
    ///
    /// A diff walks the leaves in ascending order, so the index is almost
    /// always appended; a setter that arrives out of order (or a diff over
    /// leaves a failed send left dirty) is inserted in place.
    #[inline]
    pub fn mark_dirty(&mut self, idx: usize) {
        let entry = &mut self.entries[idx];
        if entry.dirty {
            return;
        }
        entry.dirty = true;
        let idx = idx as u32;
        if self.dirty.last().is_none_or(|&last| last < idx) {
            self.dirty.push(idx);
        } else {
            let at = self.dirty.partition_point(|&d| d < idx);
            self.dirty.insert(at, idx);
        }
    }

    /// [`Self::set_value`] over the run of `Double` leaves starting at
    /// `base`, one per element of `xs`.
    pub(crate) fn set_doubles(&mut self, base: usize, xs: &[f64]) {
        self.set_run(base, xs, Scalar::Double, |old, x| match old {
            Scalar::Double(o) => o.to_bits() != x.to_bits(),
            _ => true,
        });
    }

    /// [`Self::set_value`] over the run of `Int` leaves starting at `base`.
    pub(crate) fn set_ints(&mut self, base: usize, xs: &[i32]) {
        self.set_run(base, xs, Scalar::Int, |old, x| match old {
            Scalar::Int(o) => *o != x,
            _ => true,
        });
    }

    /// The run compare. Most of a resent array is unchanged, and which
    /// elements changed is data the branch predictor cannot learn, so the
    /// compare takes no branch on it: pass 1 writes every position into
    /// the scratch and advances past it only when the bits differ; pass 2
    /// does the per-leaf [`Self::set_value`] for those positions alone.
    /// `differs` is [`Scalar::same_as`] negated, on the unboxed element.
    fn set_run<T: Copy>(
        &mut self,
        base: usize,
        xs: &[T],
        wrap: impl Fn(T) -> Scalar,
        differs: impl Fn(&Scalar, T) -> bool,
    ) {
        let mut hits = std::mem::take(&mut self.hits);
        if hits.len() < xs.len() {
            hits.resize(xs.len(), 0);
        }
        let mut n = 0;
        for (i, (e, &x)) in self.entries[base..base + xs.len()]
            .iter()
            .zip(xs)
            .enumerate()
        {
            hits[n] = i as u32;
            n += differs(&e.value, x) as usize;
        }
        for &i in &hits[..n] {
            // `set_value` past its compare, which pass 1 already made.
            let idx = base + i as usize;
            self.entries[idx].value = wrap(xs[i as usize]);
            self.mark_dirty(idx);
        }
        self.hits = hits;
    }

    /// The executor's write phase cleared the bit of every dirty entry
    /// (on entries obtained via [`Self::entries_mut_raw`]): forget the
    /// list with them.
    pub(crate) fn clear_dirty_list(&mut self) {
        debug_assert!(self.dirty.iter().all(|&i| !self.entries[i as usize].dirty));
        self.dirty.clear();
    }

    /// Splice new, clean entries in at `at` (array growth) — entries must
    /// already carry correct locations. Dirty indices at or past `at`
    /// move up with their entries.
    pub(crate) fn splice_in(&mut self, at: usize, new_entries: Vec<DutEntry>) {
        debug_assert!(new_entries.iter().all(|e| !e.dirty));
        let moved = self.dirty.partition_point(|&d| (d as usize) < at);
        for d in &mut self.dirty[moved..] {
            *d += new_entries.len() as u32;
        }
        self.entries.splice(at..at, new_entries);
    }

    /// Remove entries `range` (array contraction): their dirty indices go
    /// with them and the ones behind move down.
    pub(crate) fn remove_range(&mut self, range: std::ops::Range<usize>) {
        let lo = self.dirty.partition_point(|&d| (d as usize) < range.start);
        let hi = self.dirty.partition_point(|&d| (d as usize) < range.end);
        self.dirty.drain(lo..hi);
        for d in &mut self.dirty[lo..] {
            *d -= range.len() as u32;
        }
        self.entries.drain(range);
    }

    /// Verify ordering/overlap/width invariants (test support; O(n)).
    ///
    /// Panics on violation. Invariants:
    /// * `width ≥ ser_len` for every entry,
    /// * entries are in strictly increasing `(chunk, offset)` order,
    /// * regions do not overlap,
    /// * the dirty list is exactly the set dirty bits, ascending, no
    ///   duplicates.
    pub fn assert_invariants(&self) {
        let mut dirty = Vec::new();
        let mut prev: Option<&DutEntry> = None;
        for (i, e) in self.entries.iter().enumerate() {
            assert!(
                e.width >= e.ser_len,
                "entry {i}: width {} < ser_len {}",
                e.width,
                e.ser_len
            );
            if e.dirty {
                dirty.push(i as u32);
            }
            if let Some(p) = prev {
                assert!(
                    p.loc.chunk < e.loc.chunk
                        || (p.loc.chunk == e.loc.chunk && p.region_end() <= e.loc.offset),
                    "entry {i} overlaps or precedes entry {}: {:?} then {:?}",
                    i - 1,
                    p.loc,
                    e.loc
                );
            }
            prev = Some(e);
        }
        assert_eq!(dirty, self.dirty, "dirty list drifted from the dirty bits");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn entry(offset: u32, ser_len: u32, width: u32) -> DutEntry {
        DutEntry {
            kind: ScalarKind::Int,
            dirty: false,
            loc: Loc { chunk: 0, offset },
            ser_len,
            width,
            suffix_len: 7,
            value: Scalar::Int(1),
        }
    }

    #[test]
    fn region_geometry() {
        let e = entry(10, 3, 11);
        assert_eq!(e.pad(), 8);
        assert_eq!(e.region_len(), 18);
        assert_eq!(e.region_end(), 28);
    }

    #[test]
    fn dirty_accounting() {
        let mut t = DutTable::with_capacity(2);
        t.push(entry(0, 1, 1));
        t.push(entry(20, 1, 1));
        assert_eq!(t.dirty_count(), 0);

        assert!(t.set_value(0, Scalar::Int(2)));
        assert_eq!(t.dirty_count(), 1);
        // Setting the same value again keeps it dirty but doesn't double-count.
        assert!(t.set_value(0, Scalar::Int(2)));
        assert_eq!(t.dirty_count(), 1);
        // Writing the original value back: entry stays dirty (we don't undo).
        t.set_value(1, Scalar::Int(1)); // same as stored → no-op
        assert_eq!(t.dirty_count(), 1);

        t.entries_mut_raw()[0].dirty = false;
        t.clear_dirty_list();
        assert_eq!(t.dirty_count(), 0);
        t.assert_invariants();
    }

    #[test]
    fn same_value_does_not_dirty() {
        let mut t = DutTable::with_capacity(1);
        t.push(entry(0, 1, 1));
        assert!(!t.set_value(0, Scalar::Int(1)));
        assert_eq!(t.dirty_count(), 0);
    }

    #[test]
    fn mark_dirty_is_idempotent() {
        let mut t = DutTable::with_capacity(1);
        t.push(entry(0, 1, 1));
        t.mark_dirty(0);
        t.mark_dirty(0);
        assert_eq!(t.dirty_count(), 1);
    }

    #[test]
    fn remove_range_fixes_dirty_count() {
        let mut t = DutTable::with_capacity(3);
        t.push(entry(0, 1, 1));
        t.push(entry(20, 1, 1));
        t.push(entry(40, 1, 1));
        t.mark_dirty(1);
        t.remove_range(1..2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dirty_count(), 0);
        t.assert_invariants();
    }

    /// Clean leaves holding `values`, far enough apart to splice between.
    fn table_of(values: &[Scalar]) -> DutTable {
        let mut t = DutTable::with_capacity(values.len());
        for (i, value) in values.iter().enumerate() {
            t.push(DutEntry {
                value: value.clone(),
                ..entry(10_000 + i as u32 * 1_000, 1, 1)
            });
        }
        t
    }

    fn table(n: usize) -> DutTable {
        table_of(&vec![Scalar::Int(1); n])
    }

    #[test]
    fn the_dirty_list_stays_ascending_whatever_the_setter_order() {
        let mut t = table(6);
        for idx in [4, 1, 5, 1, 0, 3] {
            t.mark_dirty(idx);
        }
        assert_eq!(t.dirty(), [0, 1, 3, 4, 5]);
        t.assert_invariants();
    }

    #[test]
    fn resizes_rebase_the_dirty_list() {
        let mut t = table(6);
        for idx in [0, 2, 3, 5] {
            t.mark_dirty(idx);
        }
        // Leaves 2 and 3 go; 5 becomes 3.
        t.remove_range(2..4);
        assert_eq!(t.dirty(), [0, 3]);
        t.assert_invariants();
        // Two clean leaves arrive at 1: 3 becomes 5.
        t.splice_in(1, vec![entry(10_100, 1, 1), entry(10_200, 1, 1)]);
        assert_eq!(t.dirty(), [0, 5]);
        t.assert_invariants();
    }

    /// Doubles where "same" is subtle: NaNs of several payloads, both
    /// zeros, and a few ordinary values so that most compares are equal.
    fn tricky_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::from_bits(0x7ff8_0000_0000_0001)),
            Just(f64::from_bits(0xfff0_0000_dead_beef)),
            Just(f64::INFINITY),
            (0..4i32).prop_map(f64::from),
        ]
    }

    /// One array's resize between two diffs, as the executor applies it.
    #[derive(Clone, Debug)]
    enum Resize {
        None,
        Remove { at: usize, len: usize },
        Splice { at: usize, len: usize },
    }

    fn resize(t: &mut DutTable, how: &Resize, fill: &Scalar) {
        match *how {
            Resize::None => {}
            Resize::Remove { at, len } => {
                let at = at % t.len();
                t.remove_range(at..(at + len).min(t.len()));
            }
            Resize::Splice { at, len } => {
                let at = at % (t.len() + 1);
                // Clean leaves, located just before the leaf they displace.
                let first = 10_000 + at as u32 * 1_000 - 900;
                let new = (0..len as u32).map(|k| DutEntry {
                    value: fill.clone(),
                    ..entry(first + k * 20, 1, 1)
                });
                t.splice_in(at, new.collect());
            }
        }
    }

    fn run_equals_loop<T: Copy>(
        (old, new): (Vec<T>, Vec<T>),
        (stale, how, from, len): (Vec<usize>, Resize, usize, usize),
        wrap: fn(T) -> Scalar,
        set_run: fn(&mut DutTable, usize, &[T]),
    ) {
        let old: Vec<Scalar> = old.into_iter().map(wrap).collect();
        let mut run = table_of(&old);
        // Leaves a failed send left dirty, then a resize the next one
        // applied: whatever came before, both tables saw it.
        for &idx in &stale {
            run.mark_dirty(idx % old.len());
        }
        resize(&mut run, &how, &old[0]);
        run.assert_invariants();
        let mut each = run.clone();

        let from = from % run.len();
        let to = (from + len).min(run.len()).min(new.len());
        let from = from.min(to);
        set_run(&mut run, from, &new[from..to]);
        for (i, &x) in new.iter().enumerate().take(to).skip(from) {
            each.set_value(i, wrap(x));
        }

        run.assert_invariants();
        assert_eq!(run.dirty(), each.dirty());
        for (a, b) in run.entries().iter().zip(each.entries()) {
            assert_eq!(a.dirty, b.dirty);
            assert!(a.value.same_as(&b.value), "{:?} vs {:?}", a.value, b.value);
        }
    }

    fn scenario() -> impl Strategy<Value = (Vec<usize>, Resize, usize, usize)> {
        let how = prop_oneof![
            Just(Resize::None),
            (0..64usize, 1..8usize).prop_map(|(at, len)| Resize::Remove { at, len }),
            (0..64usize, 1..8usize).prop_map(|(at, len)| Resize::Splice { at, len }),
        ];
        (vec(0..64usize, 0..6), how, 0..64usize, 0..80usize)
    }

    proptest! {
        /// The run compare is the per-leaf `set_value` loop: same dirty
        /// set, same values, same ascending list — over sub-ranges, over
        /// leaves already dirty, and after a resize moved the leaves.
        #[test]
        fn a_run_compare_is_the_per_leaf_loop_on_doubles(
            runs in (vec(tricky_f64(), 9..40), vec(tricky_f64(), 48)),
            scenario in scenario(),
        ) {
            run_equals_loop(runs, scenario, Scalar::Double, DutTable::set_doubles);
        }

        #[test]
        fn a_run_compare_is_the_per_leaf_loop_on_ints(
            runs in (vec(-2..3i32, 9..40), vec(-2..3i32, 48)),
            scenario in scenario(),
        ) {
            run_equals_loop(runs, scenario, Scalar::Int, DutTable::set_ints);
        }
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn invariant_catches_overlap() {
        let mut t = DutTable::with_capacity(2);
        t.push(entry(0, 3, 11)); // region end 18
        t.push(entry(10, 1, 1)); // starts inside previous region
        t.assert_invariants();
    }
}
