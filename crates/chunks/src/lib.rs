//! # bsoap-chunks — chunked message buffer substrate
//!
//! The paper stores serialized messages "in variable sized potentially
//! noncontiguous chunks" (§3.2) so that on-the-fly expansion (*shifting*)
//! costs are "limited by the size of a chunk rather than the size of the
//! whole message". This crate is that storage layer:
//!
//! * [`ChunkConfig`] — the paper's three configurable parameters: default
//!   initial chunk size, split threshold, and the trailing reserve left
//!   empty "to allow for shifting without reallocation",
//! * [`ChunkStore`] — an ordered list of chunks with mechanical operations:
//!   sequential append (template build), in-place overwrite (perfect
//!   structural match), tail shifting (expansion), range deletion (array
//!   contraction), growth and splitting,
//! * a gather view ([`ChunkStore::io_slices`]) so non-contiguity never
//!   forces a copy on the way to a vectored socket send.
//!
//! *Policy lives elsewhere.* Deciding **where** to split (field boundaries)
//! or **when** to steal versus shift is the differential engine's job
//! (`bsoap-core`); this crate only guarantees the byte mechanics and keeps
//! them property-tested against a flat reference buffer.

#![forbid(unsafe_code)]

mod store;

pub use store::{Chunk, ChunkConfig, ChunkStore, Loc, StoreCounters};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_compile() {
        let store = ChunkStore::new(ChunkConfig::default());
        assert_eq!(store.total_len(), 0);
        let _ = Loc {
            chunk: 0,
            offset: 0,
        };
        let _ = Chunk::with_capacity(16);
    }
}
