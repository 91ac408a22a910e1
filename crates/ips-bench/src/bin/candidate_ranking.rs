//! Candidate ranking: batched multi-profile query fan-out vs one call per
//! candidate.
//!
//! A recommender scoring N candidate items issues N profile reads per
//! request. Per-profile calls pay the fixed network round-trip N times;
//! the batched path groups candidates by owning instance into one frame
//! per owner, so the fixed cost is paid once per frame and only the
//! size-proportional transfer term scales with N. This harness sweeps
//! batch sizes {1, 16, 128, 512} in both modes, prices each call's
//! measured frames offline ([`ips_bench::CostModel`]), prints
//! per-candidate latency, writes `BENCH_batch_query.json`, and asserts the
//! headline claim: at batch 128, batched per-candidate mean is at most 1/5
//! of the per-profile mean.

use std::fmt::Write as _;

use ips_bench::{banner, bar_table, testbed, TestbedOptions, TABLE};
use ips_core::query::ProfileQuery;
use ips_types::{
    ActionTypeId, CallerId, Clock, CountVector, FeatureId, ProfileId, SlotId, TimeRange,
};

const PROFILES: u64 = 512;
const BATCH_SIZES: [usize; 4] = [1, 16, 128, 512];
const TRIALS: usize = 8;
const TOP_K: usize = 8;

#[derive(Clone, Copy)]
struct Cell {
    batch_size: usize,
    per_candidate_mean_us: f64,
    total_mean_us: f64,
}

fn query_for(pid: u64) -> ProfileQuery {
    ProfileQuery::top_k(
        TABLE,
        ProfileId::new(pid),
        SlotId::new(1),
        TimeRange::last_days(7),
        TOP_K,
    )
}

fn main() {
    banner(
        "candidate_ranking",
        "batched query fan-out vs per-profile calls (per-candidate latency)",
    );
    let tb = testbed(TestbedOptions::default());
    let caller = CallerId::new(1);

    // Shallow profiles (a few features each) keep the payload term small:
    // the sweep isolates the fixed per-call network cost that batching
    // amortizes.
    println!("preloading {PROFILES} profiles ...");
    for pid in 0..PROFILES {
        for f in 0..3u64 {
            tb.client
                .add_profile(
                    caller,
                    TABLE,
                    ProfileId::new(pid),
                    tb.ctl.now(),
                    SlotId::new(1),
                    ActionTypeId::new(1),
                    FeatureId::new(100 + f),
                    CountVector::single(1),
                )
                .unwrap();
        }
    }

    let mut batched_cells: Vec<Cell> = Vec::new();
    let mut per_profile_cells: Vec<Cell> = Vec::new();

    for &n in &BATCH_SIZES {
        let mut batched_total = 0.0f64;
        let mut single_total = 0.0f64;
        for trial in 0..TRIALS {
            let offset = (trial * n) as u64 % PROFILES;
            let queries: Vec<ProfileQuery> = (0..n as u64)
                .map(|i| query_for((offset + i) % PROFILES))
                .collect();

            // Batched: one fan-out, one frame per owner.
            let (outcome, priced) = tb.query_batch(caller, &queries).unwrap();
            assert!(outcome.all_ok(), "batched sub-query failed");
            batched_total += priced.total_us() as f64;

            // Per-profile: one call per candidate, sequential (the status
            // quo the batch path replaces).
            let mut sum = 0u64;
            for q in &queries {
                let (result, priced) = tb.query(caller, q).unwrap();
                assert!(!result.is_empty(), "candidate profile missing");
                sum += priced.total_us();
            }
            single_total += sum as f64;
        }
        let trials = TRIALS as f64;
        batched_cells.push(Cell {
            batch_size: n,
            per_candidate_mean_us: batched_total / trials / n as f64,
            total_mean_us: batched_total / trials,
        });
        per_profile_cells.push(Cell {
            batch_size: n,
            per_candidate_mean_us: single_total / trials / n as f64,
            total_mean_us: single_total / trials,
        });
    }

    let mut rows: Vec<(String, f64)> = Vec::new();
    for (b, s) in batched_cells.iter().zip(&per_profile_cells) {
        rows.push((
            format!("per-profile n={}", s.batch_size),
            s.per_candidate_mean_us,
        ));
        rows.push((
            format!("batched n={}", b.batch_size),
            b.per_candidate_mean_us,
        ));
    }
    bar_table("per-candidate mean latency", "us/candidate", &rows);

    // JSON artefact for downstream tooling (no serde: the shape is flat).
    let mut json = String::from("{\n  \"bench\": \"batch_query\",\n");
    let net = tb.cost.network;
    let _ = writeln!(
        json,
        "  \"network\": {{\"rtt_us\": {}, \"per_kib_us\": {}}},",
        net.rtt_us, net.per_kib_us
    );
    json.push_str("  \"results\": [\n");
    let mut first = true;
    for (mode, cells) in [
        ("batched", &batched_cells),
        ("per_profile", &per_profile_cells),
    ] {
        for c in cells.iter() {
            if !first {
                json.push_str(",\n");
            }
            first = false;
            let _ = write!(
                json,
                "    {{\"mode\": \"{mode}\", \"batch_size\": {}, \
                 \"per_candidate_mean_us\": {:.3}, \"total_mean_us\": {:.3}}}",
                c.batch_size, c.per_candidate_mean_us, c.total_mean_us
            );
        }
    }
    json.push_str("\n  ],\n");
    let batched_128 = batched_cells
        .iter()
        .find(|c| c.batch_size == 128)
        .unwrap()
        .per_candidate_mean_us;
    let single_128 = per_profile_cells
        .iter()
        .find(|c| c.batch_size == 128)
        .unwrap()
        .per_candidate_mean_us;
    let _ = writeln!(
        json,
        "  \"speedup_at_128\": {:.3}\n}}",
        single_128 / batched_128
    );
    std::fs::write("BENCH_batch_query.json", &json).expect("write BENCH_batch_query.json");
    println!("wrote BENCH_batch_query.json");

    println!("-- shape summary ------------------------------------------");
    println!(
        "per-candidate at n=128: batched {batched_128:.1} us, per-profile {single_128:.1} us \
         ({:.1}x)",
        single_128 / batched_128
    );
    assert!(
        batched_128 <= single_128 / 5.0,
        "batched per-candidate mean at n=128 ({batched_128:.1} us) must be <= 1/5 of \
         per-profile ({single_128:.1} us)"
    );
    let _ = tb.ctl.now();
    println!("candidate_ranking: OK");
}
