//! First calls of the memoized `parallelization` racing from several
//! threads. This file is its own test binary, so the per-process memo
//! starts empty here and the threads race on uninitialized slots.

use quamax_chimera::tile::tile_embeddings;
use quamax_chimera::{parallelization, ChimeraGraph};
use std::sync::Barrier;

#[test]
fn concurrent_first_calls_agree() {
    let sizes = [5usize, 13, 16, 29, 47, 63];
    let start = Barrier::new(4);
    let results: Vec<Vec<usize>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    sizes.map(parallelization).to_vec()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("memo thread panicked"))
            .collect()
    });
    let g = ChimeraGraph::dw2q_ideal();
    let want: Vec<usize> = sizes
        .iter()
        .map(|&n| tile_embeddings(&g, n).len())
        .collect();
    for r in &results {
        assert_eq!(r, &want);
    }
}
