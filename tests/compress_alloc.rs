//! Allocation-count guarantee for pattern compression.
//!
//! `Alignment::try_compress` interns columns through a borrow-keyed hash
//! table over one reusable column scratch buffer, so its heap traffic is a
//! function of the *pattern set* (and taxa), never of the site count: the
//! per-site steady state allocates nothing. The old implementation built a
//! fresh `Vec<DnaCode>` per column and cloned it again as a `HashMap` key —
//! O(sites) allocations — which this test would catch immediately.
//!
//! It is the only test in this file on purpose: a `#[global_allocator]`
//! counts every allocation in the process, and a concurrently running test
//! would perturb the counters.

mod common;

use common::{heap_counters, CountingAllocator};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn alloc_count() -> u64 {
    let (allocations, _, reallocations) = heap_counters();
    allocations + reallocations
}

#[test]
fn compress_allocations_depend_on_patterns_not_sites() {
    use phylo::alignment::Alignment;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // A 16-taxon base block of 64 random columns, and the same block cycled
    // 8× to 512 sites: identical pattern set (the 64 base columns, in the
    // same first-seen order), 8× the sites.
    let n_taxa = 16;
    let base_sites = 64;
    let cycles = 8;
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let base_rows: Vec<Vec<u8>> =
        (0..n_taxa).map(|_| (0..base_sites).map(|_| rng.gen_range(1u8..16)).collect()).collect();
    let names: Vec<String> = (0..n_taxa).map(|t| format!("t{t}")).collect();
    let cycled_rows: Vec<Vec<u8>> = base_rows
        .iter()
        .map(|row| (0..base_sites * cycles).map(|s| row[s % base_sites]).collect())
        .collect();
    let small = Alignment::from_encoded(names.clone(), base_rows).unwrap();
    let large = Alignment::from_encoded(names, cycled_rows).unwrap();

    let measure = |aln: &Alignment| -> (u64, usize) {
        let before = alloc_count();
        let pat = black_box(aln.try_compress().expect("well under the u32 site limit"));
        let after = alloc_count();
        let n_patterns = pat.n_patterns();
        drop(pat);
        (after - before, n_patterns)
    };

    // Warm-up discarded: first-call effects (lazy locale/thread-local init
    // inside the allocator shim's own process) must not skew the counts.
    let _ = measure(&small);

    let (small_allocs, small_patterns) = measure(&small);
    let (large_allocs, large_patterns) = measure(&large);

    assert_eq!(small_patterns, large_patterns, "cycling columns must not mint new patterns");
    assert_eq!(
        small_allocs,
        large_allocs,
        "compress allocations must depend on the pattern set only: \
         {small_allocs} allocs at {base_sites} sites vs {large_allocs} at {} sites",
        base_sites * cycles,
    );
    // And the absolute count is bounded far below one-per-site: the old
    // per-column-Vec implementation did ≥ 2·sites allocations.
    assert!(
        (large_allocs as usize) < base_sites * cycles / 2,
        "{large_allocs} allocations for {} sites — compression is allocating per site",
        base_sites * cycles,
    );

    // Sanity: the counting allocator is actually live.
    let probe_before = alloc_count();
    black_box(vec![0u8; 1024]);
    assert!(alloc_count() > probe_before, "counting allocator must observe allocations");
}
