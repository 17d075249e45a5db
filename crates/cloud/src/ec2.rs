//! Virtual-instance registry and billing (Amazon EC2 in the paper).
//!
//! Instances are launched with a type ([`crate::pricing::InstanceType`]),
//! run one warehouse module across their cores, and are billed for the
//! virtual wall-clock window they were up — `VM$_h × t`, fractional hours,
//! exactly as the paper's cost formulas use instance time (Section 7.3).
//! A [`BillingGranularity`] knob switches to the per-*started*-hour
//! billing real 2012 EC2 applied (every started hour charged in full);
//! the default stays fractional so the reproduced tables are unchanged.
//!
//! [`Ec2::stop`] freezes an instance's billing window: an autoscaler
//! draining a scale-in victim stops it the moment its last core exits,
//! and later `extend` calls (including the warehouse's blanket phase-end
//! extension of its pools) no longer grow the window.

use crate::clock::{SimDuration, SimTime};
use crate::money::Money;
use crate::pricing::{InstanceType, PriceTable};
use std::cell::Cell;

/// Handle to a launched instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceId(pub usize);

/// Lifetime record of one instance.
#[derive(Debug, Clone, Copy)]
pub struct InstanceRecord {
    /// Instance flavor.
    pub itype: InstanceType,
    /// Launch time.
    pub start: SimTime,
    /// Last activity / shutdown time (extended as work completes).
    pub end: SimTime,
}

impl InstanceRecord {
    /// Billed uptime.
    pub fn uptime(&self) -> SimDuration {
        self.end - self.start
    }
}

/// How instance uptime converts into dollars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BillingGranularity {
    /// `VM$_h × t` with fractional hours — the paper's cost formulas
    /// (Section 7.3) and the default.
    #[default]
    Fractional,
    /// Every *started* instance-hour billed in full (`ceil(t / 1h)`, at
    /// least one hour per launched instance) — how 2012 EC2 actually
    /// invoiced.
    PerStartedHour,
}

const HOUR_MICROS: u64 = 3_600_000_000;

/// The instance registry.
#[derive(Debug, Default)]
pub struct Ec2 {
    records: Vec<InstanceRecord>,
    /// Parallel to `records`: instances whose billing window is frozen.
    stopped: Vec<bool>,
    granularity: BillingGranularity,
    /// The `(large rate, extra-large rate, total)` of the last
    /// [`Ec2::total_cost`], kept current by every launch and extension
    /// since: a cost snapshot prices what changed, not every instance ever
    /// launched.
    bill: Cell<Option<(Money, Money, Money)>>,
    /// Records priced so far — the host work billing has done.
    priced: Cell<u64>,
}

impl Ec2 {
    /// Creates an empty registry (fractional-hour billing).
    pub fn new() -> Ec2 {
        Ec2::default()
    }

    /// Switches the billing granularity (applies to every record,
    /// retroactively — granularity is a property of the price sheet, not
    /// of an individual launch).
    pub fn set_granularity(&mut self, granularity: BillingGranularity) {
        self.granularity = granularity;
        self.bill.set(None);
    }

    /// The billing granularity in force.
    pub fn granularity(&self) -> BillingGranularity {
        self.granularity
    }

    /// Launches an instance at `now`.
    pub fn launch(&mut self, itype: InstanceType, now: SimTime) -> InstanceId {
        let launched = InstanceRecord {
            itype,
            start: now,
            end: now,
        };
        self.records.push(launched);
        self.stopped.push(false);
        self.rebill(None, launched);
        InstanceId(self.records.len() - 1)
    }

    /// Moves the running bill, if there is one, from what `old` cost to
    /// what `new` costs.
    fn rebill(&mut self, old: Option<InstanceRecord>, new: InstanceRecord) {
        if let Some((large, xlarge, total)) = self.bill.get() {
            let rate = match new.itype {
                InstanceType::Large => large,
                InstanceType::ExtraLarge => xlarge,
            };
            let before = old.map_or(Money::ZERO, |r| self.charge(rate, &r));
            let total = total - before + self.charge(rate, &new);
            self.bill.set(Some((large, xlarge, total)));
        }
    }

    /// Extends an instance's busy window to cover `now` (called by actors
    /// as their operations complete; the final call fixes shutdown time).
    /// A stopped instance's window is frozen: extending it is a no-op.
    pub fn extend(&mut self, id: InstanceId, now: SimTime) {
        let old = self.records[id.0];
        if !self.stopped[id.0] && now > old.end {
            self.records[id.0].end = now;
            self.rebill(Some(old), self.records[id.0]);
        }
    }

    /// Stops an instance at `now`: the billing window is extended to
    /// cover `now` one last time and then frozen — subsequent `extend`
    /// calls (e.g. the warehouse's phase-end pool extension) are no-ops.
    /// Idempotent; a second stop cannot grow the window.
    pub fn stop(&mut self, id: InstanceId, now: SimTime) {
        self.extend(id, now);
        self.stopped[id.0] = true;
    }

    /// True when the instance's billing window was frozen by
    /// [`Ec2::stop`].
    pub fn is_stopped(&self, id: InstanceId) -> bool {
        self.stopped[id.0]
    }

    /// The record of an instance.
    pub fn record(&self, id: InstanceId) -> InstanceRecord {
        self.records[id.0]
    }

    /// All records.
    pub fn records(&self) -> &[InstanceRecord] {
        &self.records
    }

    /// What one record costs under `prices` and the current granularity.
    pub fn record_cost(&self, r: &InstanceRecord, prices: &PriceTable) -> Money {
        self.charge(prices.vm_hour(r.itype), r)
    }

    /// What one record costs at `rate` per hour.
    fn charge(&self, rate: Money, r: &InstanceRecord) -> Money {
        self.priced.set(self.priced.get() + 1);
        match self.granularity {
            BillingGranularity::Fractional => rate.per_hour(r.uptime().micros()),
            BillingGranularity::PerStartedHour => {
                let hours = r.uptime().micros().div_ceil(HOUR_MICROS).max(1);
                rate * hours
            }
        }
    }

    /// Total EC2 charge under a price table (fractional-hour billing by
    /// default, as in the paper's `VM$_h × t` terms): the sum of
    /// [`Ec2::record_cost`] over every record, to the picodollar. Only the
    /// first call under a pair of rates walks the records.
    pub fn total_cost(&self, prices: &PriceTable) -> Money {
        let (large, xlarge) = (prices.vm_hour_large, prices.vm_hour_xlarge);
        match self.bill.get() {
            Some((l, xl, total)) if (l, xl) == (large, xlarge) => total,
            _ => {
                let total = (self.records.iter())
                    .map(|r| self.record_cost(r, prices))
                    .sum();
                self.bill.set(Some((large, xlarge, total)));
                total
            }
        }
    }

    /// Total instance-hours (for reports).
    pub fn total_hours(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.uptime().as_secs_f64() / 3600.0)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_rng::StdRng;

    #[test]
    fn billing_is_fractional_hours() {
        let mut ec2 = Ec2::new();
        let prices = PriceTable::default();
        let id = ec2.launch(InstanceType::Large, SimTime::ZERO);
        ec2.extend(id, SimTime::ZERO + SimDuration::from_secs(1800));
        // Half an hour of a $0.34/h instance: exactly $0.17, compared in
        // picodollars so rounding regressions can't hide in f64.
        assert_eq!(ec2.total_cost(&prices).pico(), 170_000_000_000);
        assert!((ec2.total_hours() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn extend_never_shrinks() {
        let mut ec2 = Ec2::new();
        let id = ec2.launch(InstanceType::ExtraLarge, SimTime::ZERO);
        ec2.extend(id, SimTime(5_000_000));
        ec2.extend(id, SimTime(2_000_000));
        assert_eq!(ec2.record(id).end, SimTime(5_000_000));
    }

    #[test]
    fn xl_bills_double() {
        let prices = PriceTable::default();
        let mut a = Ec2::new();
        let i = a.launch(InstanceType::Large, SimTime::ZERO);
        a.extend(i, SimTime(3_600_000_000));
        let mut b = Ec2::new();
        let j = b.launch(InstanceType::ExtraLarge, SimTime::ZERO);
        b.extend(j, SimTime(3_600_000_000));
        assert_eq!(
            b.total_cost(&prices).pico(),
            2 * a.total_cost(&prices).pico()
        );
    }

    #[test]
    fn stop_freezes_the_billing_window() {
        let mut ec2 = Ec2::new();
        let prices = PriceTable::default();
        let id = ec2.launch(InstanceType::Large, SimTime::ZERO);
        ec2.extend(id, SimTime(1_000_000));
        ec2.stop(id, SimTime(1_800_000_000)); // 30 virtual minutes
        assert!(ec2.is_stopped(id));
        // Extending a stopped instance is a no-op (the warehouse's
        // phase-end pool extension must not resurrect it).
        ec2.extend(id, SimTime(7_200_000_000));
        assert_eq!(ec2.record(id).end, SimTime(1_800_000_000));
        // A second stop cannot grow the window either.
        ec2.stop(id, SimTime(7_200_000_000));
        assert_eq!(ec2.record(id).end, SimTime(1_800_000_000));
        assert_eq!(ec2.total_cost(&prices).pico(), 170_000_000_000);
    }

    #[test]
    fn started_hour_billing_rounds_up_per_record() {
        let mut ec2 = Ec2::new();
        let prices = PriceTable::default();
        ec2.set_granularity(BillingGranularity::PerStartedHour);
        // 61 minutes → 2 started hours of a $0.34/h instance.
        let a = ec2.launch(InstanceType::Large, SimTime::ZERO);
        ec2.extend(a, SimTime::ZERO + SimDuration::from_secs(61 * 60));
        // Launched and immediately stopped → still 1 started hour.
        let _b = ec2.launch(InstanceType::Large, SimTime(5));
        assert_eq!(
            ec2.total_cost(&prices).pico(),
            3 * 340_000_000_000,
            "2 started hours + 1 minimum hour at $0.34 each"
        );
        // An exact hour stays one hour, not two.
        let c = ec2.launch(InstanceType::Large, SimTime::ZERO);
        ec2.extend(c, SimTime(HOUR_MICROS));
        assert_eq!(
            ec2.record_cost(&ec2.record(c), &prices).pico(),
            340_000_000_000
        );
    }

    /// A cost snapshot prices what was launched or extended since the last
    /// one — nothing, here — however many instances came before, and the
    /// running bill is the record-by-record sum to the picodollar under
    /// either granularity, through stops and a change of price table.
    #[test]
    fn a_snapshot_after_ten_thousand_launches_costs_what_one_after_ten_does() {
        let prices = PriceTable::default();
        let records_priced_by_a_snapshot = |launches: u64, granularity| {
            let mut rng = StdRng::seed_from_u64(0x5AA9 + launches);
            let mut ec2 = Ec2::new();
            ec2.set_granularity(granularity);
            assert_eq!(ec2.total_cost(&prices), Money::ZERO);
            for i in 0..launches {
                let itype = [InstanceType::Large, InstanceType::ExtraLarge][(i % 2) as usize];
                let id = ec2.launch(itype, SimTime(i * 1_000));
                for _ in 0..rng.gen_range(0..3) {
                    let victim = InstanceId(rng.gen_range(0..=id.0));
                    let until = SimTime(i * 1_000 + rng.gen_range(0u64..9_000_000_000));
                    if rng.gen_bool(0.1) {
                        ec2.stop(victim, until);
                    } else {
                        ec2.extend(victim, until);
                    }
                }
            }
            let before = ec2.priced.get();
            let running = ec2.total_cost(&prices);
            let priced = ec2.priced.get() - before;
            let summed: Money = ec2
                .records()
                .iter()
                .map(|r| ec2.record_cost(r, &prices))
                .sum();
            assert_eq!(running, summed, "{launches} launches, {granularity:?}");
            // Another provider's rates: priced from the records again.
            let other = PriceTable::google_cloud_2012();
            let summed: Money = ec2
                .records()
                .iter()
                .map(|r| ec2.record_cost(r, &other))
                .sum();
            assert_eq!(ec2.total_cost(&other), summed);
            priced
        };
        for granularity in [
            BillingGranularity::Fractional,
            BillingGranularity::PerStartedHour,
        ] {
            assert_eq!(records_priced_by_a_snapshot(10, granularity), 0);
            assert_eq!(records_priced_by_a_snapshot(10_000, granularity), 0);
        }
    }

    /// Property (issue's satellite): for any schedule of launches and
    /// extensions, `fractional ≤ started-hour ≤ fractional + 1h × N`.
    #[test]
    fn started_hour_brackets_fractional_billing() {
        let prices = PriceTable::default();
        let mut rng = StdRng::seed_from_u64(0xB111_1146);
        for _ in 0..200 {
            let mut ec2 = Ec2::new();
            let n = rng.gen_range(1..=6) as usize;
            for _ in 0..n {
                let itype = if rng.gen_range(0..2) == 0 {
                    InstanceType::Large
                } else {
                    InstanceType::ExtraLarge
                };
                let start = SimTime(rng.gen_range(0u64..7_200_000_000));
                let id = ec2.launch(itype, start);
                for _ in 0..rng.gen_range(0..4) {
                    let run = SimDuration::from_micros(rng.gen_range(0u64..36_000_000_000));
                    ec2.extend(id, start + run);
                }
            }
            let fractional = ec2.total_cost(&prices);
            ec2.set_granularity(BillingGranularity::PerStartedHour);
            let started = ec2.total_cost(&prices);
            let hour_each: Money = ec2.records().iter().map(|r| prices.vm_hour(r.itype)).sum();
            assert!(fractional <= started, "{fractional} > {started}");
            assert!(
                started <= fractional + hour_each,
                "{started} > {fractional} + {hour_each}"
            );
        }
    }
}
