//! Phase 3's clock: how long a query-processor instance takes to read and
//! evaluate a query's candidates (architecture steps 13–14), run by the
//! query processor over live reads.

use amada_cloud::{SimDuration, SimTime};

/// Deals `reads` candidate reads round-robin, in fetch order, to `cores`
/// cores from `start`, and returns when the last core is done. Each core
/// sends its reads back to back on its own connection: `read(i, at)`
/// issues read `i` on its core's connection, free from `at`, and returns
/// when the response arrived — the connection was free again `latency`
/// before that, the file store scaling horizontally — and the compute
/// (parse, evaluation) the core spends on it once it has arrived and the
/// core is free. An error stops the clock.
pub(crate) fn fetch_timeline<E>(
    start: SimTime,
    cores: usize,
    latency: SimDuration,
    reads: usize,
    mut read: impl FnMut(usize, SimTime) -> Result<(SimTime, SimDuration), E>,
) -> Result<SimTime, E> {
    let cores = cores.max(1);
    // Per core: when its connection is free, and when the core is.
    let mut free = vec![(start, start); cores];
    for i in 0..reads {
        let (connection, core) = &mut free[i % cores];
        let (arrived, compute) = read(i, *connection)?;
        *connection = arrived - latency;
        *core = (*core).max(arrived) + compute;
    }
    Ok(free
        .into_iter()
        .fold(start, |done, (_, core)| done.max(core)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    const LATENCY: SimDuration = SimDuration::from_millis(12);
    const BUSY: SimDuration = SimDuration::from_micros(3_300);
    const START: SimTime = SimTime(1_000_000);

    /// The clock over `n` reads that each hold their connection for
    /// `BUSY` and cost `compute` once arrived, and the times each read was
    /// issued at.
    fn run(n: usize, cores: usize, compute: SimDuration) -> (SimTime, Vec<SimTime>) {
        let mut issued = Vec::new();
        let done = fetch_timeline(START, cores, LATENCY, n, |i, at| {
            assert_eq!(i, issued.len(), "reads are issued in fetch order");
            issued.push(at);
            Ok::<_, Infallible>((at + BUSY + LATENCY, compute))
        });
        (done.unwrap(), issued)
    }

    fn times(d: SimDuration, n: usize) -> SimDuration {
        SimDuration::from_micros(d.micros() * n as u64)
    }

    #[test]
    fn zero_candidates_take_zero_time() {
        for cores in [1, 2, 4] {
            assert_eq!(run(0, cores, BUSY), (START, Vec::new()));
        }
    }

    #[test]
    fn a_lone_candidate_costs_one_round_trip_and_its_compute_on_any_core_count() {
        let compute = SimDuration::from_micros(1_700);
        for cores in [1, 2, 4] {
            let (done, issued) = run(1, cores, compute);
            assert_eq!(done, START + BUSY + LATENCY + compute, "{cores} cores");
            assert_eq!(issued, [START]);
        }
    }

    /// Compute below the service time: every core's connection is the
    /// bottleneck, and only the last document's compute trails the last
    /// arrival.
    #[test]
    fn equal_candidates_take_the_latency_the_fullest_connection_and_one_compute() {
        let compute = SimDuration::from_micros(1_000);
        for (n, cores) in [(1, 2), (2, 2), (7, 2), (8, 2), (9, 4), (40, 4), (5, 1)] {
            let (done, _) = run(n, cores, compute);
            let rounds = n.div_ceil(cores);
            assert_eq!(
                done,
                START + LATENCY + times(BUSY, rounds) + compute,
                "{n} candidates on {cores} cores"
            );
        }
    }

    /// Compute above the service time: each core is the bottleneck once
    /// its first document has arrived.
    #[test]
    fn slow_compute_queues_on_its_core_not_on_the_connection() {
        let compute = SimDuration::from_micros(20_000);
        let (done, issued) = run(6, 2, compute);
        assert_eq!(done, START + BUSY + LATENCY + times(compute, 3));
        assert_eq!(
            issued[4],
            START + times(BUSY, 2),
            "the connection never waits"
        );
    }

    /// Read `i` goes to core `i mod c`, so it is issued once the
    /// `⌊i / c⌋` reads dealt before it to the same core let go of the
    /// connection; the same reads deal the same way every time.
    #[test]
    fn candidates_are_dealt_round_robin_in_fetch_order() {
        let compute = SimDuration::from_micros(500);
        for cores in [1, 2, 3] {
            let (done, issued) = run(7, cores, compute);
            let dealt: Vec<SimTime> = (0..7).map(|i| START + times(BUSY, i / cores)).collect();
            assert_eq!(issued, dealt, "{cores} cores");
            assert_eq!(run(7, cores, compute), (done, issued));
        }
    }

    #[test]
    fn an_error_stops_the_clock() {
        let mut asked = 0;
        let out = fetch_timeline(START, 2, LATENCY, 5, |i, at| {
            asked += 1;
            match i {
                2 => Err(at),
                _ => Ok((at + BUSY + LATENCY, SimDuration::ZERO)),
            }
        });
        assert_eq!(out, Err(START + BUSY));
        assert_eq!(asked, 3, "no read after the failed one is issued");
    }
}
