//! The chunk store: mechanics of non-contiguous message storage.

use std::io::IoSlice;

/// The paper's three chunking knobs (§3.2): "Configurable parameters
/// determine the default initial chunk size, the threshold at which chunks
/// are split into two, and the space that is initially left empty at the
/// end of a chunk (to allow for shifting without reallocation)."
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkConfig {
    /// Default capacity of a freshly opened chunk, in bytes.
    pub initial_size: usize,
    /// A chunk asked to grow beyond this capacity splits instead.
    pub split_threshold: usize,
    /// Space left empty at the end of a chunk when sequential appends move
    /// on to a new chunk, and when a split creates a new chunk.
    pub reserve: usize,
}

impl ChunkConfig {
    /// The paper's common configuration: 32 KiB chunks (§4.3 tests both
    /// 8 KiB and 32 KiB; 32 KiB matches the socket send-buffer size used).
    pub fn k32() -> Self {
        ChunkConfig {
            initial_size: 32 * 1024,
            split_threshold: 64 * 1024,
            reserve: 512,
        }
    }

    /// The paper's 8 KiB chunk configuration.
    pub fn k8() -> Self {
        ChunkConfig {
            initial_size: 8 * 1024,
            split_threshold: 16 * 1024,
            reserve: 512,
        }
    }

    /// Usable bytes of a default chunk during sequential building.
    pub fn fill_limit(&self) -> usize {
        self.initial_size.saturating_sub(self.reserve).max(1)
    }
}

impl Default for ChunkConfig {
    fn default() -> Self {
        Self::k32()
    }
}

/// Address of a byte inside a [`ChunkStore`]: `(chunk index, byte offset)`.
///
/// This is the "pointer to its current location in the serialized message"
/// a DUT entry holds (§3.1). Chunk-relative addressing is what keeps DUT
/// fix-up after shifting bounded to one chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// Index of the chunk in the store.
    pub chunk: u32,
    /// Byte offset within that chunk.
    pub offset: u32,
}

impl Loc {
    /// Construct a location.
    pub fn new(chunk: usize, offset: usize) -> Self {
        Loc {
            chunk: chunk as u32,
            offset: offset as u32,
        }
    }
}

/// One contiguous memory region of the message.
#[derive(Clone, Debug, Default)]
pub struct Chunk {
    buf: Vec<u8>,
}

impl Chunk {
    /// New empty chunk with the given capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Chunk {
            buf: Vec::with_capacity(cap),
        }
    }

    /// The used bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Used length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes are used.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Allocated capacity.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Unused trailing space (capacity − len) — shifting headroom.
    pub fn spare(&self) -> usize {
        self.buf.capacity() - self.buf.len()
    }
}

/// Cumulative work counters for one store: how much churn the chunk
/// mechanics have done. Plain (non-atomic) because every mutator takes
/// `&mut self`; the engine folds these into its observability registry
/// with [`ChunkStore::take_counters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    /// In-place capacity grows (bounded or unbounded).
    pub grows: u64,
    /// Chunk splits.
    pub splits: u64,
    /// Bytes physically moved by shifts and intra-chunk range moves.
    pub moved_bytes: u64,
}

/// An ordered sequence of chunks holding one serialized message.
#[derive(Clone, Debug)]
pub struct ChunkStore {
    chunks: Vec<Chunk>,
    config: ChunkConfig,
    total_len: usize,
    counters: StoreCounters,
}

impl ChunkStore {
    /// New empty store.
    pub fn new(config: ChunkConfig) -> Self {
        ChunkStore {
            chunks: Vec::new(),
            config,
            total_len: 0,
            counters: StoreCounters::default(),
        }
    }

    /// Cumulative work counters since construction (or the last
    /// [`Self::take_counters`]).
    pub fn counters(&self) -> StoreCounters {
        self.counters
    }

    /// Return the counters accumulated so far and reset them to zero —
    /// the delta-scoop the engine uses once per flush.
    pub fn take_counters(&mut self) -> StoreCounters {
        std::mem::take(&mut self.counters)
    }

    /// The configuration in effect.
    pub fn config(&self) -> ChunkConfig {
        self.config
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Total used bytes across all chunks.
    pub fn total_len(&self) -> usize {
        self.total_len
    }

    /// Borrow a chunk.
    pub fn chunk(&self, idx: usize) -> &Chunk {
        &self.chunks[idx]
    }

    /// Iterate over the chunks in message order.
    pub fn chunks(&self) -> impl Iterator<Item = &Chunk> {
        self.chunks.iter()
    }

    // ------------------------------------------------------------------
    // Sequential building (first-time send)
    // ------------------------------------------------------------------

    /// Append `bytes` as one *region* guaranteed to be contiguous within a
    /// single chunk; returns its location.
    ///
    /// During template building, a region is a value field or a tag run —
    /// keeping each within one chunk is what lets a DUT entry be a single
    /// `(chunk, offset)` pointer.
    pub fn append_region(&mut self, bytes: &[u8]) -> Loc {
        let fill_limit = self.config.fill_limit();
        let need_new = match self.chunks.last() {
            None => true,
            Some(last) => last.len() + bytes.len() > fill_limit.max(last.len()),
        };
        if need_new {
            let cap = self
                .config
                .initial_size
                .max(bytes.len() + self.config.reserve);
            self.chunks.push(Chunk::with_capacity(cap));
        }
        let idx = self.chunks.len() - 1;
        let chunk = &mut self.chunks[idx];
        let offset = chunk.len();
        chunk.buf.extend_from_slice(bytes);
        self.total_len += bytes.len();
        Loc::new(idx, offset)
    }

    /// Give back the last chunk's room beyond the reserve (§3.2: "the space
    /// that is initially left empty at the end of a chunk"), so a small
    /// built message holds no whole chunk; [`Self::try_grow`] grows it.
    pub fn trim_last(&mut self) {
        let reserve = self.config.reserve;
        if let Some(last) = self.chunks.last_mut() {
            last.buf.shrink_to(last.buf.len() + reserve);
        }
    }

    // ------------------------------------------------------------------
    // In-place access (perfect structural matches)
    // ------------------------------------------------------------------

    /// Overwrite `bytes.len()` bytes at `loc`. The range must be in-bounds.
    pub fn write_at(&mut self, loc: Loc, bytes: &[u8]) {
        let chunk = &mut self.chunks[loc.chunk as usize];
        let start = loc.offset as usize;
        chunk.buf[start..start + bytes.len()].copy_from_slice(bytes);
    }

    // ------------------------------------------------------------------
    // Expansion / contraction (partial structural matches, shifting)
    // ------------------------------------------------------------------

    /// Ensure chunk `idx` has at least `delta` bytes of spare capacity,
    /// growing the allocation if permitted by the split threshold.
    ///
    /// Returns `true` if the spare is now available, `false` if growing
    /// would exceed `split_threshold` (the caller should split instead).
    pub fn try_grow(&mut self, idx: usize, delta: usize) -> bool {
        let chunk = &mut self.chunks[idx];
        if chunk.spare() >= delta {
            return true;
        }
        let needed = chunk.len() + delta;
        if needed > self.config.split_threshold {
            return false;
        }
        // Grow to the next power-of-two-ish step bounded by the threshold.
        let target = needed
            .max(chunk.capacity() * 2)
            .min(self.config.split_threshold);
        chunk.buf.reserve_exact(target - chunk.len());
        self.counters.grows += 1;
        true
    }

    /// Move the bytes of chunk `idx` from `offset` to the end right by
    /// `delta`, leaving a writable gap `[offset, offset+delta)`.
    ///
    /// Requires spare capacity ≥ `delta` (call [`Self::try_grow`] first).
    /// This is the paper's *shifting* primitive: "all the bytes of the
    /// message are shifted to the right to make room for the new value".
    pub fn shift_tail_right(&mut self, idx: usize, offset: usize, delta: usize) {
        if delta == 0 {
            return;
        }
        let chunk = &mut self.chunks[idx];
        assert!(chunk.spare() >= delta, "shift without spare capacity");
        let old_len = chunk.len();
        chunk.buf.resize(old_len + delta, 0);
        chunk.buf.copy_within(offset..old_len, offset + delta);
        self.total_len += delta;
        self.counters.moved_bytes += (old_len - offset) as u64;
    }

    /// Open several gaps in chunk `idx` with **one** right-to-left pass.
    ///
    /// `gaps` is a list of `(offset, delta)` pairs in strictly ascending
    /// offset order, all within the chunk's current length (a gap exactly at
    /// the chunk end is allowed). Requires spare capacity ≥ the sum of the
    /// deltas (call [`Self::try_grow`] first).
    ///
    /// This is the coalesced form of [`Self::shift_tail_right`]: where the
    /// sequential primitive moves the tail once per growing field —
    /// O(shifts × chunk) bytes — this moves each byte at most once, sliding
    /// the segment after gap *i* right by the cumulative delta of gaps
    /// `0..=i`. Total bytes moved is `chunk_len − gaps[0].offset`, which the
    /// churn counter records; the return value is that same figure so
    /// callers can account it per flush.
    pub fn open_gaps_right(&mut self, idx: usize, gaps: &[(usize, usize)]) -> u64 {
        if gaps.is_empty() {
            return 0;
        }
        let total: usize = gaps.iter().map(|&(_, d)| d).sum();
        let chunk = &mut self.chunks[idx];
        assert!(
            chunk.spare() >= total,
            "open_gaps_right without spare capacity"
        );
        let old_len = chunk.len();
        debug_assert!(
            gaps.windows(2).all(|w| w[0].0 < w[1].0),
            "gaps not ascending"
        );
        debug_assert!(gaps.last().is_some_and(|&(g, _)| g <= old_len));
        chunk.buf.resize(old_len + total, 0);
        // Right to left: the segment between gap i and gap i+1 lands shifted
        // by the sum of deltas 0..=i. Later (righter) segments move first so
        // no source byte is overwritten before it is read.
        let mut cum = total;
        for i in (0..gaps.len()).rev() {
            let (offset, delta) = gaps[i];
            let seg_end = if i + 1 < gaps.len() {
                gaps[i + 1].0
            } else {
                old_len
            };
            chunk.buf.copy_within(offset..seg_end, offset + cum);
            cum -= delta;
        }
        debug_assert_eq!(cum, 0);
        let moved = (old_len - gaps[0].0) as u64;
        self.total_len += total;
        self.counters.moved_bytes += moved;
        moved
    }

    /// Mutable view of one chunk's used bytes (in-place writes only; the
    /// length cannot change through this view).
    pub fn chunk_buf_mut(&mut self, idx: usize) -> &mut [u8] {
        self.chunks[idx].buf.as_mut_slice()
    }

    /// Delete `len` bytes at `offset` in chunk `idx`, moving the tail left
    /// (array contraction on a partial structural match).
    pub fn delete_range(&mut self, idx: usize, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let chunk = &mut self.chunks[idx];
        chunk.buf.drain(offset..offset + len);
        self.total_len -= len;
    }

    /// Grow chunk `idx` by at least `delta` spare bytes regardless of the
    /// split threshold — the correctness fallback for a single field region
    /// larger than the threshold.
    pub fn grow_unbounded(&mut self, idx: usize, delta: usize) {
        let chunk = &mut self.chunks[idx];
        if chunk.spare() < delta {
            chunk.buf.reserve_exact(delta);
            self.counters.grows += 1;
        }
    }

    /// Move the bytes `[start, end)` of chunk `idx` right by `delta`,
    /// within the chunk's current length (the *stealing* primitive: the
    /// destination overlaps a neighbor's padding, so `end + delta` must be
    /// ≤ the chunk length).
    pub fn move_range_right(&mut self, idx: usize, start: usize, end: usize, delta: usize) {
        if delta == 0 || start == end {
            return;
        }
        let chunk = &mut self.chunks[idx];
        assert!(
            end + delta <= chunk.len(),
            "move_range_right past chunk end"
        );
        chunk.buf.copy_within(start..end, start + delta);
        self.counters.moved_bytes += (end - start) as u64;
    }

    /// Split chunk `idx` at byte `at`: the bytes `[at, len)` move to a new
    /// chunk inserted at `idx + 1`, created with the configured reserve.
    ///
    /// The caller picks `at` on a field boundary so no DUT region straddles
    /// the cut; afterwards it must rehome DUT pointers with
    /// `chunk' = idx+1, offset' = offset - at` for entries past the cut and
    /// bump the chunk index of all entries in later chunks by one.
    pub fn split_chunk(&mut self, idx: usize, at: usize) {
        let tail: Vec<u8> = {
            let chunk = &mut self.chunks[idx];
            assert!(at <= chunk.len(), "split point out of range");
            chunk.buf.split_off(at)
        };
        let mut new_chunk =
            Chunk::with_capacity((tail.len() + self.config.reserve).max(self.config.initial_size));
        new_chunk.buf.extend_from_slice(&tail);
        self.chunks.insert(idx + 1, new_chunk);
        self.counters.splits += 1;
    }

    /// Insert all chunks of `other` at position `at`, preserving their
    /// order. Returns the number of chunks inserted. Used when array growth
    /// grafts freshly serialized elements into an existing message.
    pub fn graft(&mut self, at: usize, other: ChunkStore) -> usize {
        let n = other.chunks.len();
        self.total_len += other.total_len;
        // Vec::splice keeps relative order of the inserted chunks.
        self.chunks.splice(at..at, other.chunks);
        n
    }

    // ------------------------------------------------------------------
    // Egress
    // ------------------------------------------------------------------

    /// Gather view for vectored I/O: one `IoSlice` per non-empty chunk.
    pub fn io_slices(&self) -> Vec<IoSlice<'_>> {
        self.chunks
            .iter()
            .filter(|c| !c.is_empty())
            .map(|c| IoSlice::new(c.bytes()))
            .collect()
    }

    /// Copy all chunks into one flat buffer (tests, content comparison).
    pub fn flatten(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_len);
        for c in &self.chunks {
            out.extend_from_slice(c.bytes());
        }
        out
    }

    /// Recompute and verify internal accounting (test support).
    ///
    /// Panics if `total_len` disagrees with the chunk contents.
    pub fn assert_consistent(&self) {
        let sum: usize = self.chunks.iter().map(|c| c.len()).sum();
        assert_eq!(sum, self.total_len, "total_len accounting drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ChunkConfig {
        ChunkConfig {
            initial_size: 64,
            split_threshold: 128,
            reserve: 8,
        }
    }

    #[test]
    fn sequential_append_fills_and_rolls_over() {
        let mut store = ChunkStore::new(small_config());
        // fill limit = 56: 30 won't fit after 30, but 20 will.
        let a = store.append_region(&[b'a'; 30]);
        let b = store.append_region(&[b'b'; 30]);
        let c = store.append_region(&[b'c'; 20]);
        assert_eq!(a, Loc::new(0, 0));
        assert_eq!(b, Loc::new(1, 0), "second region must not straddle");
        assert_eq!(c, Loc::new(1, 30), "third region fits in chunk 1");
        assert_eq!(store.chunk_count(), 2);
        assert_eq!(store.total_len(), 80);
        store.assert_consistent();
    }

    #[test]
    fn trim_last_keeps_the_reserve_of_the_last_chunk_only() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(&[b'a'; 50]);
        store.append_region(&[b'b'; 10]);
        assert_eq!(store.chunk(1).capacity(), 64);
        store.trim_last();
        assert_eq!(store.chunk(0).capacity(), 64, "a full chunk keeps its room");
        assert_eq!(store.chunk(1).capacity(), 10 + 8);
        // A shift past the reserve grows the chunk on demand.
        assert!(store.try_grow(1, 20));
        store.shift_tail_right(1, 0, 20);
        assert_eq!(store.flatten()[70..], [b'b'; 10]);
        assert!(store.chunk(1).capacity() >= 30);
        store.assert_consistent();
    }

    #[test]
    fn oversized_region_gets_dedicated_chunk() {
        let mut store = ChunkStore::new(small_config());
        let big = vec![b'x'; 200];
        let loc = store.append_region(&big);
        assert_eq!(loc, Loc::new(0, 0));
        assert_eq!(store.chunk(0).len(), 200);
        assert!(store.chunk(0).spare() >= small_config().reserve);
    }

    #[test]
    fn write_at_overwrites_in_place() {
        let mut store = ChunkStore::new(small_config());
        let loc = store.append_region(b"hello world");
        store.write_at(Loc { offset: 6, ..loc }, b"WORLD");
        assert_eq!(store.flatten(), b"hello WORLD");
    }

    #[test]
    fn shift_tail_right_makes_gap() {
        let mut store = ChunkStore::new(small_config());
        let loc = store.append_region(b"abcdef");
        assert!(store.try_grow(0, 3));
        store.shift_tail_right(0, 2, 3);
        store.write_at(Loc { offset: 2, ..loc }, b"XYZ");
        assert_eq!(store.flatten(), b"abXYZcdef");
        store.assert_consistent();
    }

    #[test]
    fn shift_at_end_extends() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"abc");
        assert!(store.try_grow(0, 2));
        store.shift_tail_right(0, 3, 2);
        store.write_at(Loc::new(0, 3), b"de");
        assert_eq!(store.flatten(), b"abcde");
    }

    #[test]
    fn grow_respects_split_threshold() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(&[0u8; 60]);
        // Growing by 200 would exceed split_threshold (128).
        assert!(!store.try_grow(0, 200));
        // Growing by 40 is fine (60 + 40 ≤ 128).
        assert!(store.try_grow(0, 40));
        assert!(store.chunk(0).spare() >= 40);
    }

    #[test]
    fn split_chunk_moves_tail() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"0123456789");
        store.split_chunk(0, 4);
        assert_eq!(store.chunk_count(), 2);
        assert_eq!(store.chunk(0).bytes(), b"0123");
        assert_eq!(store.chunk(1).bytes(), b"456789");
        assert_eq!(store.flatten(), b"0123456789");
        assert!(store.chunk(1).spare() >= small_config().reserve);
        store.assert_consistent();
    }

    #[test]
    fn split_at_end_makes_empty_tail_chunk() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"abc");
        store.split_chunk(0, 3);
        assert_eq!(store.chunk_count(), 2);
        assert!(store.chunk(1).is_empty());
        assert_eq!(store.flatten(), b"abc");
    }

    #[test]
    fn delete_range_contracts() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"0123456789");
        store.delete_range(0, 2, 5);
        assert_eq!(store.flatten(), b"01789");
        assert_eq!(store.total_len(), 5);
        store.assert_consistent();
    }

    #[test]
    fn move_range_right_overlapping() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"abcdef....");
        store.move_range_right(0, 2, 6, 3);
        // bytes [2..6) = "cdef" moved to [5..9)
        assert_eq!(&store.flatten()[5..9], b"cdef");
        assert_eq!(store.total_len(), 10, "length unchanged");
    }

    #[test]
    fn grow_unbounded_ignores_threshold() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(&[0u8; 60]);
        store.grow_unbounded(0, 500);
        assert!(store.chunk(0).spare() >= 500);
    }

    #[test]
    fn io_slices_match_flatten() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(&[b'a'; 40]);
        store.append_region(&[b'b'; 40]);
        store.append_region(&[b'c'; 40]);
        let slices = store.io_slices();
        assert!(slices.len() >= 2);
        let gathered: Vec<u8> = slices.iter().flat_map(|s| s.iter().copied()).collect();
        assert_eq!(gathered, store.flatten());
    }

    #[test]
    fn open_gaps_right_matches_sequential_shifts() {
        // The coalesced pass must produce the same bytes as opening the
        // gaps one at a time with shift_tail_right (ascending, so each
        // later gap position must account for earlier deltas).
        let gaps = [(2usize, 3usize), (5, 1), (9, 4)];

        let mut seq = ChunkStore::new(small_config());
        seq.append_region(b"abcdefghijkl");
        assert!(seq.try_grow(0, 8));
        let mut slid = 0;
        for &(g, d) in &gaps {
            seq.shift_tail_right(0, g + slid, d);
            slid += d;
        }

        let mut coal = ChunkStore::new(small_config());
        coal.append_region(b"abcdefghijkl");
        assert!(coal.try_grow(0, 8));
        let moved = coal.open_gaps_right(0, &gaps);

        // Gap contents are undefined in both (stale bytes the caller will
        // overwrite); compare only the displaced original bytes by zeroing
        // the gaps in both copies first.
        let mut seq_bytes = seq.flatten();
        let mut coal_bytes = coal.flatten();
        let mut cum = 0;
        for &(g, d) in &gaps {
            seq_bytes[g + cum..g + cum + d].fill(0);
            coal_bytes[g + cum..g + cum + d].fill(0);
            cum += d;
        }
        assert_eq!(seq_bytes, coal_bytes);
        assert_eq!(coal.total_len(), 12 + 8);
        // One pass touches chunk_len − first_gap bytes; the sequential
        // path re-moves the tail per gap and must strictly exceed it.
        assert_eq!(moved, (12 - 2) as u64);
        assert!(seq.counters().moved_bytes > coal.counters().moved_bytes);
        coal.assert_consistent();
    }

    #[test]
    fn open_gaps_right_single_gap_equals_shift() {
        let mut a = ChunkStore::new(small_config());
        a.append_region(b"abcdef");
        assert!(a.try_grow(0, 3));
        a.shift_tail_right(0, 2, 3);

        let mut b = ChunkStore::new(small_config());
        b.append_region(b"abcdef");
        assert!(b.try_grow(0, 3));
        b.open_gaps_right(0, &[(2, 3)]);

        let mut fa = a.flatten();
        let mut fb = b.flatten();
        fa[2..5].fill(0);
        fb[2..5].fill(0);
        assert_eq!(fa, fb);
        assert_eq!(a.counters().moved_bytes, b.counters().moved_bytes);
    }

    #[test]
    fn open_gaps_right_gap_at_chunk_end() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"abc");
        assert!(store.try_grow(0, 4));
        let moved = store.open_gaps_right(0, &[(1, 2), (3, 2)]);
        store.write_at(Loc::new(0, 1), b"XY");
        store.write_at(Loc::new(0, 5), b"ZW");
        assert_eq!(store.flatten(), b"aXYbcZW");
        assert_eq!(moved, 2, "only bytes after the first gap move");
        store.assert_consistent();
    }

    #[test]
    fn open_gaps_right_empty_slice_is_free() {
        // An empty gap list must return 0 without touching the chunk bytes
        // or any counter.
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"untouched");
        let bytes_before = store.flatten();
        let counters_before = store.counters();
        let len_before = store.total_len();
        assert_eq!(store.open_gaps_right(0, &[]), 0);
        assert_eq!(store.flatten(), bytes_before);
        assert_eq!(store.counters(), counters_before);
        assert_eq!(store.total_len(), len_before);
        store.assert_consistent();
    }

    #[test]
    fn open_gaps_right_equals_sequential_shifts_for_every_segment_length() {
        // Segments between gaps of 0, 1–4, 5–8, 9–16, 17–32 and > 32 bytes,
        // gap deltas spanning the same range: the one pass leaves the same
        // displaced bytes and moves `len − first gap` bytes.
        let payload: Vec<u8> = (0..200u8).collect();
        let gap_sets: &[&[(usize, usize)]] = &[
            &[(0, 1)],
            &[(200, 5)],
            &[(3, 2), (4, 1)],
            &[(0, 3), (2, 40), (3, 1)],
            &[(10, 1), (12, 2), (16, 3), (25, 4), (50, 20), (120, 7)],
            &[(1, 1), (199, 1)],
            &[(7, 33), (8, 17), (40, 9), (90, 5), (100, 1)],
        ];
        for gaps in gap_sets {
            let total: usize = gaps.iter().map(|&(_, d)| d).sum();
            let mut seq = ChunkStore::new(ChunkConfig::k8());
            seq.append_region(&payload);
            assert!(seq.try_grow(0, total));
            let mut slid = 0;
            for &(g, d) in gaps.iter() {
                seq.shift_tail_right(0, g + slid, d);
                slid += d;
            }

            let mut coal = ChunkStore::new(ChunkConfig::k8());
            coal.append_region(&payload);
            assert!(coal.try_grow(0, total));
            let moved = coal.open_gaps_right(0, gaps);

            let mut seq_bytes = seq.flatten();
            let mut coal_bytes = coal.flatten();
            let mut cum = 0;
            for &(g, d) in gaps.iter() {
                seq_bytes[g + cum..g + cum + d].fill(0);
                coal_bytes[g + cum..g + cum + d].fill(0);
                cum += d;
            }
            assert_eq!(seq_bytes, coal_bytes, "bytes diverged for {gaps:?}");
            assert_eq!(moved, (payload.len() - gaps[0].0) as u64, "{gaps:?}");
            coal.assert_consistent();
        }
    }

    #[test]
    fn chunk_buf_mut_writes_in_place() {
        let mut store = ChunkStore::new(small_config());
        store.append_region(b"hello");
        store.chunk_buf_mut(0)[..5].copy_from_slice(b"HELLO");
        assert_eq!(store.flatten(), b"HELLO");
    }
}
