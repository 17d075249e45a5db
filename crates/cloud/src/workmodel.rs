//! The compute work model: converting *measured work metrics* into
//! *virtual compute durations*.
//!
//! The warehouse really executes its computations (parsing, index-entry
//! extraction, twig joins) on the host machine; the discrete-event clock
//! never sees host wall-time. Instead, each computation reports a metric
//! (bytes parsed, entry bytes emitted, candidate nodes processed, …) and
//! one function here converts it into virtual seconds on a core of a given
//! ECU rating. That keeps every simulation deterministic while letting the
//! relative costs (and therefore every ratio the paper's evaluation is
//! about) emerge from the real algorithms.
//!
//! The five per-ECU throughputs are constants calibrated to the paper's
//! setting — one EC2 Compute Unit ≈ a 1.0–1.2 GHz 2007 Xeon running a Java
//! XML stack — so the Table 4 / Table 7 magnitudes land in the right
//! regime.

use crate::clock::SimDuration;

/// XML parsing, MB of source per ECU-second.
const PARSE_MB_PER_ECU_SEC: f64 = 3.0;
/// Index-entry extraction and encoding, MB of entry bytes per ECU-second.
const EXTRACT_MB_PER_ECU_SEC: f64 = 12.0;
/// Pattern evaluation, candidate nodes per ECU-second.
const EVAL_NODES_PER_ECU_SEC: f64 = 250_000.0;
/// Look-up post-processing (intersections, path filtering, ID joins),
/// index entries per ECU-second.
const PLAN_ENTRIES_PER_ECU_SEC: f64 = 400_000.0;
/// Result materialization / serialization, MB per ECU-second.
const MATERIALIZE_MB_PER_ECU_SEC: f64 = 25.0;

const MB: f64 = 1024.0 * 1024.0;

/// Virtual time to parse `bytes` of XML on a core of `ecu` rating.
pub fn parse(bytes: u64, ecu: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / MB / (PARSE_MB_PER_ECU_SEC * ecu))
}

/// Virtual time to extract and encode `entry_bytes` of index entries.
pub fn extract(entry_bytes: u64, ecu: f64) -> SimDuration {
    SimDuration::from_secs_f64(entry_bytes as f64 / MB / (EXTRACT_MB_PER_ECU_SEC * ecu))
}

/// Virtual time to evaluate a pattern that touched `nodes` candidates.
pub fn eval(nodes: u64, ecu: f64) -> SimDuration {
    SimDuration::from_secs_f64(nodes as f64 / (EVAL_NODES_PER_ECU_SEC * ecu))
}

/// Virtual time for look-up post-processing over `entries` entries.
pub fn plan(entries: u64, ecu: f64) -> SimDuration {
    SimDuration::from_secs_f64(entries as f64 / (PLAN_ENTRIES_PER_ECU_SEC * ecu))
}

/// Virtual time to materialize `bytes` of results.
pub fn materialize(bytes: u64, ecu: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / MB / (MATERIALIZE_MB_PER_ECU_SEC * ecu))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scales_inversely_with_ecu() {
        let slow = parse(3 * 1024 * 1024, 1.0);
        let fast = parse(3 * 1024 * 1024, 2.0);
        assert_eq!(slow.micros(), 2 * fast.micros());
        // 3 MB at 3 MB/s/ECU on a 1-ECU core = 1 s.
        assert_eq!(slow.micros(), 1_000_000);
    }

    #[test]
    fn zero_work_takes_zero_time() {
        assert_eq!(parse(0, 2.0), SimDuration::ZERO);
        assert_eq!(eval(0, 2.0), SimDuration::ZERO);
    }

    #[test]
    fn nonzero_work_advances_time() {
        assert!(eval(1, 2.0).micros() >= 1);
        assert!(plan(1, 2.0).micros() >= 1);
    }
}
