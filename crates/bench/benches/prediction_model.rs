//! Wall-clock gate for the batch-prediction kernel.
//!
//! Times the seed kernel (checked, branchy) against the cache-blocked branch-free
//! kernel on one EML-tabulation-sized batch (256 rows × 5 features, the chunks the
//! table builders feed [`wd_ml::Regressor::predict_batch`]), best of 200 repeats,
//! prints the summary and asserts bit-identity of both kernels plus the ≥ 2×
//! blocked-over-seed speedup (`wd_bench::measure_prediction_kernel`).  A plain
//! `main`: `cargo bench -p wd_bench --bench prediction_model` runs it, and any
//! trailing arguments (such as `-- --test`) are ignored.

use wd_bench::{kernel_bench_forest, measure_prediction_kernel};

fn main() {
    let (model, batch, width) = kernel_bench_forest();
    let m = measure_prediction_kernel(&model, &batch, width, 200);
    println!(
        "flat_kernel ({} rows x {} features, {} trees): reference {:?}, blocked {:?} ({:.2}x)",
        m.rows,
        m.width,
        m.trees,
        m.reference,
        m.blocked,
        m.blocked_speedup(),
    );
    m.assert_fast_path_won();
}
