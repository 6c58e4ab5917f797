//! Partial structural matches: in-place template expansion/contraction
//! when an array's length changes (§3, "the template could be expanded (or
//! contracted) to meet the requirements of the new message").
//!
//! Geometry invariant used throughout: a `Loc` at `(c, len(c))` denotes the
//! same byte position as `(c+1, 0)` — positions are document offsets, and
//! chunk boundaries are transparent.

use super::build::{Builder, FramePlan};
use super::MessageTemplate;
use crate::error::EngineError;
use crate::value::{Scalar, Value};
use bsoap_chunks::Loc;

impl MessageTemplate {
    /// Resize array `array_idx` to match `value`'s length. The common
    /// prefix of elements must already have been diffed by the caller;
    /// this routine removes surplus tail elements or serializes and grafts
    /// new ones, updates the length field, and fixes all DUT pointers.
    pub(crate) fn resize_array(
        &mut self,
        array_idx: usize,
        value: &Value,
    ) -> Result<(), EngineError> {
        let new_len = value.array_len().expect("caller checked array value");
        let old_len = self.arrays[array_idx].len;
        debug_assert_ne!(new_len, old_len);

        if new_len < old_len {
            self.shrink_array(array_idx, new_len);
        } else {
            self.grow_array(array_idx, value, new_len)?;
        }

        // Rewrite the (stuffed, shift-free) length field lazily via the
        // normal dirty path.
        let len_leaf = self.arrays[array_idx].len_leaf;
        self.dut.set_value(len_leaf, Scalar::Int(new_len as i32));
        self.arrays[array_idx].len = new_len;
        self.structure_changed = true;
        Ok(())
    }

    /// Advance a document position by `n` bytes, walking across chunk
    /// boundaries.
    fn advance_pos(&self, mut pos: Loc, mut n: usize) -> Loc {
        loop {
            let chunk_len = self.store.chunk(pos.chunk as usize).len();
            let room = chunk_len - pos.offset as usize;
            if n <= room {
                pos.offset += n as u32;
                return pos;
            }
            n -= room;
            pos.chunk += 1;
            pos.offset = 0;
        }
    }

    // ------------------------------------------------------------------
    // Contraction
    // ------------------------------------------------------------------

    fn shrink_array(&mut self, array_idx: usize, new_len: usize) {
        let (base, lpe, close_run) = {
            let a = &self.arrays[array_idx];
            (a.base_leaf, a.leaves_per_elem, a.elem_close_run as usize)
        };
        let old_leaf_end = base + self.arrays[array_idx].len * lpe;
        let new_leaf_end = base + new_len * lpe;

        // Deletion range [del_start, del_end).
        let del_start = if new_len == 0 {
            self.arrays[array_idx].content_start
        } else {
            let last_kept = self.dut.entry(new_leaf_end - 1);
            self.advance_pos(
                Loc {
                    chunk: last_kept.loc.chunk,
                    offset: last_kept.region_end(),
                },
                close_run,
            )
        };
        let del_end = self.arrays[array_idx].content_end;

        // Drop the removed leaves from the DUT first so fix-up sweeps only
        // see survivors; remember how many entries vanished for the
        // later-array index adjustment.
        let removed_entries = old_leaf_end - new_leaf_end;
        self.dut.remove_range(new_leaf_end..old_leaf_end);

        // Delete bytes chunk by chunk, last chunk first so indices stay
        // stable while iterating.
        let (c1, o1) = (del_start.chunk as usize, del_start.offset as usize);
        let (c2, o2) = (del_end.chunk as usize, del_end.offset as usize);
        for c in (c1..=c2).rev() {
            let from = if c == c1 { o1 } else { 0 };
            let to = if c == c2 {
                o2
            } else {
                self.store.chunk(c).len()
            };
            if to > from {
                self.store.delete_range(c, from, to - from);
                self.fixup_delete(c as u32, to as u32, (to - from) as u32);
            }
        }
        // Chunks emptied by the deletion are kept in place: a `(c, 0)`
        // position in an empty chunk is document-equivalent to the start of
        // the next chunk, the gather view skips empty chunks, and keeping
        // them means no marker can ever dangle. (Repeated grow/shrink can
        // accumulate a few empty slots; that is bounded by resize count and
        // harmless.)

        // Later arrays' leaf indices shift down by the removed entry count.
        for a in &mut self.arrays {
            if a.base_leaf > base {
                a.base_leaf -= removed_entries;
                a.len_leaf -= removed_entries;
            }
        }
    }

    /// After deleting `len` bytes ending at `(chunk, end)`: move every
    /// entry/marker in that chunk at-or-past `end` left by `len`.
    fn fixup_delete(&mut self, chunk: u32, end: u32, len: u32) {
        for e in self.dut.entries_mut_raw() {
            if e.loc.chunk == chunk && e.loc.offset >= end {
                e.loc.offset -= len;
            }
        }
        for a in &mut self.arrays {
            for m in [&mut a.content_start, &mut a.content_end] {
                if m.chunk == chunk && m.offset >= end {
                    m.offset -= len;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Expansion
    // ------------------------------------------------------------------

    fn grow_array(
        &mut self,
        array_idx: usize,
        value: &Value,
        new_len: usize,
    ) -> Result<(), EngineError> {
        let a = &self.arrays[array_idx];
        let (base, lpe, old_len) = (a.base_leaf, a.leaves_per_elem, a.len);
        let insert_leaf_at = base + old_len * lpe;

        // Serialize the new tail elements into a fresh mini-store with the
        // same chunking config.
        let plan = FramePlan::item(self.config.wire_format, &a.item_desc)?;
        let mut mini = Builder::new(self.config, (new_len - old_len) * lpe, 0);
        mini.elements(&plan, &plan.steps, value, old_len, new_len);
        let tail_total = mini.store.total_len();
        let added_entries = mini.dut.len();
        debug_assert_eq!(added_entries, (new_len - old_len) * lpe);

        let p = self.arrays[array_idx].content_end;
        let (c, o) = (p.chunk as usize, p.offset as usize);

        let new_content_end;
        if mini.store.chunk_count() == 1 && self.store.try_grow(c, tail_total) {
            // Inline path: open a gap at the insertion point and write the
            // tail bytes directly into the existing chunk.
            self.store.shift_tail_right(c, o, tail_total);
            // Everything at-or-past the insertion point moves right — but
            // not this array's own markers, which we set manually below.
            self.fixup_insert_inline(array_idx, c as u32, o as u32, tail_total as u32);
            let mini_chunk = mini.store.chunk(0).bytes().to_vec();
            self.store.write_at(Loc::new(c, o), &mini_chunk);
            // Rehome the new entries into the main store's coordinates.
            let mut new_entries = Vec::with_capacity(added_entries);
            for e in mini.dut.entries() {
                let mut e = e.clone();
                debug_assert_eq!(e.loc.chunk, 0);
                e.loc = Loc::new(c, o + e.loc.offset as usize);
                new_entries.push(e);
            }
            self.dut.splice_in(insert_leaf_at, new_entries);
            new_content_end = Loc::new(c, o + tail_total);
        } else {
            // Graft path: split at the insertion point if it is mid-chunk,
            // then insert the mini-store's chunks wholesale.
            let chunk_len = self.store.chunk(c).len();
            let insert_at = if o == chunk_len {
                c + 1
            } else if o == 0 {
                c
            } else {
                self.store.split_chunk(c, o);
                self.fixup_split_full(array_idx, c as u32, o as u32);
                c + 1
            };
            let mini_chunks = mini.store.chunk_count();
            let last_mini_len = mini.store.chunk(mini_chunks - 1).len();
            let count = self.store.graft(insert_at, mini.store);
            self.fixup_chunks_inserted(array_idx, insert_at as u32, count as u32);
            let mut new_entries = Vec::with_capacity(added_entries);
            for e in mini.dut.entries() {
                let mut e = e.clone();
                e.loc.chunk += insert_at as u32;
                new_entries.push(e);
            }
            self.dut.splice_in(insert_leaf_at, new_entries);
            new_content_end = Loc::new(insert_at + count - 1, last_mini_len);
        }

        // Later arrays' leaf indices shift up.
        for a in &mut self.arrays {
            if a.base_leaf > base {
                a.base_leaf += added_entries;
                a.len_leaf += added_entries;
            }
        }
        self.arrays[array_idx].content_end = new_content_end;
        Ok(())
    }

    /// Inline-insert fix-up: entries/markers in `chunk` at-or-past `at`
    /// move right by `delta`. This array's own markers are exempt (they are
    /// reset explicitly by the caller).
    fn fixup_insert_inline(&mut self, array_idx: usize, chunk: u32, at: u32, delta: u32) {
        for e in self.dut.entries_mut_raw() {
            if e.loc.chunk == chunk && e.loc.offset >= at {
                e.loc.offset += delta;
            }
        }
        for (i, a) in self.arrays.iter_mut().enumerate() {
            if i == array_idx {
                continue;
            }
            for m in [&mut a.content_start, &mut a.content_end] {
                if m.chunk == chunk && m.offset >= at {
                    m.offset += delta;
                }
            }
        }
    }

    /// Full-sweep split fix-up (resize variant of the patch-path helper —
    /// resize cannot assume the split point is past a known DUT index).
    fn fixup_split_full(&mut self, array_idx: usize, chunk: u32, split_at: u32) {
        for e in self.dut.entries_mut_raw() {
            if e.loc.chunk == chunk && e.loc.offset >= split_at {
                e.loc.chunk = chunk + 1;
                e.loc.offset -= split_at;
            } else if e.loc.chunk > chunk {
                e.loc.chunk += 1;
            }
        }
        for (i, a) in self.arrays.iter_mut().enumerate() {
            if i == array_idx {
                continue;
            }
            for m in [&mut a.content_start, &mut a.content_end] {
                if m.chunk == chunk && m.offset >= split_at {
                    m.chunk = chunk + 1;
                    m.offset -= split_at;
                } else if m.chunk > chunk {
                    m.chunk += 1;
                }
            }
        }
    }

    /// Chunk-insertion fix-up: everything in chunks ≥ `at` renumbers.
    fn fixup_chunks_inserted(&mut self, array_idx: usize, at: u32, count: u32) {
        for e in self.dut.entries_mut_raw() {
            if e.loc.chunk >= at {
                e.loc.chunk += count;
            }
        }
        for (i, a) in self.arrays.iter_mut().enumerate() {
            if i == array_idx {
                continue;
            }
            for m in [&mut a.content_start, &mut a.content_end] {
                if m.chunk >= at {
                    m.chunk += count;
                }
            }
        }
    }
}
