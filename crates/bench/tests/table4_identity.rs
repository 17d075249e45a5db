//! The numbers `repro table4` prints are simulated (virtual-time) results
//! and must not depend on how many host threads computed them.

use amada_bench::experiments::indexing::{indexing_suite, table4};
use amada_bench::Scale;

#[test]
fn table4_is_identical_across_host_thread_counts() {
    // A single test function on purpose: AMADA_THREADS is process-wide.
    let mut scale = Scale::default_scale();
    scale.docs = 24;
    scale.doc_bytes = 800;

    std::env::set_var("AMADA_THREADS", "1");
    let sequential = table4(&indexing_suite(&scale)).to_string();
    std::env::set_var("AMADA_THREADS", "6");
    let parallel = table4(&indexing_suite(&scale)).to_string();
    std::env::remove_var("AMADA_THREADS");

    assert_eq!(sequential, parallel);
}
