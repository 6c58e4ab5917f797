//! Property test: a `ChunkStore` driven by an arbitrary operation sequence
//! stays byte-identical to a flat `Vec<u8>` reference model, regardless of
//! how the bytes are distributed across chunks.

use bsoap_chunks::{ChunkConfig, ChunkStore, Loc};
use proptest::prelude::*;

/// Operations the engine performs on the store, in reference-model terms.
#[derive(Clone, Debug)]
enum Op {
    /// Append a region of the given fill byte and length.
    Append(u8, usize),
    /// Overwrite `len` bytes at a (wrapped) global position.
    Write(u8, usize, usize),
    /// Shift-insert `len` bytes at a (wrapped) global position.
    Insert(u8, usize, usize),
    /// Delete up to `len` bytes at a (wrapped) global position.
    Delete(usize, usize),
    /// Split the chunk owning a (wrapped) global position at that point.
    Split(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1usize..50).prop_map(|(b, n)| Op::Append(b, n)),
        (any::<u8>(), any::<usize>(), 1usize..20).prop_map(|(b, p, n)| Op::Write(b, p, n)),
        (any::<u8>(), any::<usize>(), 1usize..20).prop_map(|(b, p, n)| Op::Insert(b, p, n)),
        (any::<usize>(), 1usize..20).prop_map(|(p, n)| Op::Delete(p, n)),
        any::<usize>().prop_map(Op::Split),
    ]
}

/// Translate a global byte position into (chunk, offset) for the store.
fn locate(store: &ChunkStore, global: usize) -> Option<(usize, usize)> {
    let mut remaining = global;
    for idx in 0..store.chunk_count() {
        let len = store.chunk(idx).len();
        if remaining < len {
            return Some((idx, remaining));
        }
        remaining -= len;
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_matches_flat_reference(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let config = ChunkConfig { initial_size: 48, split_threshold: 96, reserve: 8 };
        let mut store = ChunkStore::new(config);
        let mut model: Vec<u8> = Vec::new();

        for op in ops {
            match op {
                Op::Append(b, n) => {
                    let bytes = vec![b; n];
                    store.append_region(&bytes);
                    model.extend_from_slice(&bytes);
                }
                Op::Write(b, pos, n) => {
                    if model.is_empty() { continue; }
                    let pos = pos % model.len();
                    let (chunk, offset) = locate(&store, pos).unwrap();
                    // clamp the write to the end of the owning chunk AND the model
                    let chunk_room = store.chunk(chunk).len() - offset;
                    let n = n.min(chunk_room).min(model.len() - pos);
                    if n == 0 { continue; }
                    let bytes = vec![b; n];
                    store.write_at(Loc::new(chunk, offset), &bytes);
                    model[pos..pos + n].copy_from_slice(&bytes);
                }
                Op::Insert(b, pos, n) => {
                    if model.is_empty() { continue; }
                    let pos = pos % (model.len() + 1);
                    let Some((chunk, offset)) = locate(&store, pos) else { continue };
                    if !store.try_grow(chunk, n) {
                        // Split at the insertion point, then retry in the tail chunk.
                        store.split_chunk(chunk, offset);
                        let (chunk2, offset2) = (chunk + 1, 0usize);
                        // A split at a small offset leaves a tail that may still
                        // exceed the split threshold; fall back to the engine's
                        // correctness path, exactly as the resize module does.
                        if !store.try_grow(chunk2, n) {
                            store.grow_unbounded(chunk2, n);
                        }
                        store.shift_tail_right(chunk2, offset2, n);
                        store.write_at(Loc::new(chunk2, offset2), &vec![b; n]);
                    } else {
                        store.shift_tail_right(chunk, offset, n);
                        store.write_at(Loc::new(chunk, offset), &vec![b; n]);
                    }
                    for _ in 0..n { model.insert(pos, b); }
                }
                Op::Delete(pos, n) => {
                    if model.is_empty() { continue; }
                    let pos = pos % model.len();
                    let (chunk, offset) = locate(&store, pos).unwrap();
                    let chunk_room = store.chunk(chunk).len() - offset;
                    let n = n.min(chunk_room);
                    if n == 0 { continue; }
                    store.delete_range(chunk, offset, n);
                    model.drain(pos..pos + n);
                }
                Op::Split(pos) => {
                    if model.is_empty() { continue; }
                    let pos = pos % model.len();
                    let (chunk, offset) = locate(&store, pos).unwrap();
                    store.split_chunk(chunk, offset);
                }
            }
            store.assert_consistent();
            prop_assert_eq!(store.flatten(), model.clone());
        }

        // The gather view agrees with the flat view at the end.
        let gathered: Vec<u8> = store
            .io_slices()
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        prop_assert_eq!(gathered, model);
    }
}
