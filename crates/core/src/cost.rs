//! The paper's monetary cost model (Section 7.3), implemented
//! symbolically.
//!
//! Given the data-, index- and query-determined metrics of Section 7.1,
//! these functions price them at the paper's table ([`PRICES`], Section
//! 7.2): the charges for uploading, indexing, storing and querying. The same
//! quantities are *also* metered live by the simulated services; the test
//! suite cross-checks that the metered charges agree with these formulas,
//! which is precisely the validation the paper performs in Section 8.3
//! ("we measure actual charged costs, where the query- and
//! strategy-dependent parameters are instantiated to concrete
//! operations").
//!
//! The formulas assume a fault-free run: one receive + one delete per
//! task message and no repeated service calls. Under transient-fault
//! injection (`amada_cloud::fault`) every throttled request is still
//! billed and every retry, lease renewal and redelivery adds requests on
//! top, so metered charges exceed these formulas by exactly the
//! fault-handling overhead the fault experiment reports.

use amada_cloud::{InstanceType, Money, SimDuration, PRICES};

/// `ud$(D) = STput$ × |D| + QS$ × |D|` — uploading a document set.
pub fn upload_documents(n_docs: u64) -> Money {
    PRICES.st_put * n_docs + PRICES.qs_request * n_docs
}

/// `ci$(D, I) = ud$(D) + IDXput$ × |op(D, I)| + STget$ × |D|
///  + VM$_h × t_idx + QS$ × 2|D|` — building the index.
///
/// `t_idx` is wall-clock indexing time; with a pool of `instances`
/// machines the VM term bills each of them for the window (the paper's
/// Table 6 EC2 figures are pool-wide).
pub fn index_building(
    n_docs: u64,
    put_ops: u64,
    t_idx: SimDuration,
    instances: u64,
    itype: InstanceType,
) -> Money {
    upload_documents(n_docs)
        + PRICES.idx_put * put_ops
        + PRICES.st_get * n_docs
        + PRICES.vm_hour(itype).per_hour(t_idx.micros()) * instances
        + PRICES.qs_request * (2 * n_docs)
}

/// `st$_m(D, I) = ST$_{m,GB} × s(D) + IDX$_{m,GB} × s(D, I)` —
/// storing the data and its index for one month.
pub fn monthly_storage(data_bytes: u64, index_bytes: u64) -> Money {
    PRICES.st_month_gb.per_gb(data_bytes) + PRICES.idx_month_gb.per_gb(index_bytes)
}

/// `rq$(q) = STget$ + egress$_{GB} × |r(q)| + QS$ × 3` — the front end
/// retrieving a query's results.
pub fn retrieve_results(result_bytes: u64) -> Money {
    PRICES.st_get + PRICES.egress_gb.per_gb(result_bytes) + PRICES.qs_request * 3
}

/// `cq$(q, D) = rq$(q) + STget$ × |D| + STput$ + VM$_h × pt(q, D)
///  + QS$ × 3` — answering a query **without** an index.
pub fn query_no_index(
    result_bytes: u64,
    n_docs: u64,
    pt: SimDuration,
    itype: InstanceType,
) -> Money {
    retrieve_results(result_bytes)
        + PRICES.st_get * n_docs
        + PRICES.st_put
        + PRICES.vm_hour(itype).per_hour(pt.micros())
        + PRICES.qs_request * 3
}

/// `cq$(q, D, I, D_q) = rq$(q) + IDXget$ × |op(q, D, I)| + STget$ ×
///  |D_q| + STput$ + VM$_h × ptq + QS$ × 3` — answering a query
/// **with** an index built by strategy `I`.
pub fn query_indexed(
    result_bytes: u64,
    index_get_ops: u64,
    docs_fetched: u64,
    ptq: SimDuration,
    itype: InstanceType,
) -> Money {
    retrieve_results(result_bytes)
        + PRICES.idx_get * index_get_ops
        + PRICES.st_get * docs_fetched
        + PRICES.st_put
        + PRICES.vm_hour(itype).per_hour(ptq.micros())
        + PRICES.qs_request * 3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_formula() {
        // 1000 docs: 1000 × ($0.000011 + $0.000001) = $0.012.
        assert_eq!(upload_documents(1000).dollars(), 0.012);
    }

    #[test]
    fn indexing_formula_components() {
        let c = index_building(
            100,
            1_000_000,
            SimDuration::from_secs(3600),
            8,
            InstanceType::Large,
        );
        // IDXput: 1e6 × 3.2e-7 = $0.32; VM: 8 × $0.34 = $2.72;
        // upload: 100 × 1.2e-5 = $0.0012; STget: 100 × 1.1e-6 = $0.00011;
        // QS: 200 × 1e-6 = $0.0002.
        let expect = 0.32 + 2.72 + 0.0012 + 0.00011 + 0.0002;
        assert!((c.dollars() - expect).abs() < 1e-9, "{c}");
    }

    #[test]
    fn storage_formula() {
        // 40 GB data + 60 GB index: 40 × 0.125 + 60 × 1.14 = $73.40.
        let c = monthly_storage(40_000_000_000, 60_000_000_000);
        assert!((c.dollars() - 73.4).abs() < 1e-9);
    }

    #[test]
    fn indexed_query_cheaper_than_scan_when_selective() {
        let scan = query_no_index(
            1_000_000,
            20_000,
            SimDuration::from_secs(600),
            InstanceType::Large,
        );
        let indexed = query_indexed(
            1_000_000,
            15,
            350,
            SimDuration::from_secs(10),
            InstanceType::Large,
        );
        assert!(indexed < scan);
        // The savings are dominated by EC2 time and S3 gets, as in the
        // paper's Figure 12 discussion.
        assert!(indexed.dollars() < 0.1 * scan.dollars());
    }

    #[test]
    fn xl_and_l_instances_bill_proportionally() {
        let l = query_no_index(0, 0, SimDuration::from_secs(3600), InstanceType::Large);
        let xl = query_no_index(0, 0, SimDuration::from_secs(1800), InstanceType::ExtraLarge);
        // Twice the hourly rate for half the time: identical EC2 charge —
        // the paper's observation that indexed-query cost is practically
        // independent of the machine type.
        assert_eq!(l, xl);
    }
}
