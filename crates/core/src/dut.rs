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
#[derive(Clone, Debug, Default)]
pub struct DutTable {
    entries: Vec<DutEntry>,
    dirty_count: usize,
}

impl DutTable {
    /// Empty table with capacity for `n` leaves.
    pub fn with_capacity(n: usize) -> Self {
        DutTable {
            entries: Vec::with_capacity(n),
            dirty_count: 0,
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
        self.dirty_count
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
        if !entry.dirty {
            entry.dirty = true;
            self.dirty_count += 1;
        }
        true
    }

    /// Force-mark a leaf dirty without changing its value (benchmarks use
    /// this to induce a re-serialization of identical content).
    pub fn mark_dirty(&mut self, idx: usize) {
        let entry = &mut self.entries[idx];
        if !entry.dirty {
            entry.dirty = true;
            self.dirty_count += 1;
        }
    }

    /// Settle the aggregate count after `n` dirty bits were cleared
    /// directly on entries obtained via [`Self::entries_mut_raw`] (the
    /// executor's write phase does this).
    pub(crate) fn note_bits_cleared(&mut self, n: usize) {
        debug_assert!(n <= self.dirty_count);
        self.dirty_count -= n;
    }

    /// Splice new entries in at `at` (array growth) — entries must already
    /// carry correct locations.
    pub(crate) fn splice_in(&mut self, at: usize, new_entries: Vec<DutEntry>) {
        self.entries.splice(at..at, new_entries);
    }

    /// Remove entries `range` (array contraction), fixing dirty accounting.
    pub(crate) fn remove_range(&mut self, range: std::ops::Range<usize>) {
        let removed_dirty = self.entries[range.clone()]
            .iter()
            .filter(|e| e.dirty)
            .count();
        self.dirty_count -= removed_dirty;
        self.entries.drain(range);
    }

    /// Verify ordering/overlap/width invariants (test support; O(n)).
    ///
    /// Panics on violation. Invariants:
    /// * `width ≥ ser_len` for every entry,
    /// * entries are in strictly increasing `(chunk, offset)` order,
    /// * regions do not overlap,
    /// * `dirty_count` equals the number of set dirty bits.
    pub fn assert_invariants(&self) {
        let mut dirty = 0;
        let mut prev: Option<&DutEntry> = None;
        for (i, e) in self.entries.iter().enumerate() {
            assert!(
                e.width >= e.ser_len,
                "entry {i}: width {} < ser_len {}",
                e.width,
                e.ser_len
            );
            if e.dirty {
                dirty += 1;
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
        assert_eq!(dirty, self.dirty_count, "dirty_count accounting drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        t.note_bits_cleared(1);
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

    #[test]
    #[should_panic(expected = "overlaps")]
    fn invariant_catches_overlap() {
        let mut t = DutTable::with_capacity(2);
        t.push(entry(0, 3, 11)); // region end 18
        t.push(entry(10, 1, 1)); // starts inside previous region
        t.assert_invariants();
    }
}
