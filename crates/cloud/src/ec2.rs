//! Virtual-instance registry and billing (Amazon EC2 in the paper).
//!
//! Instances are launched with a type ([`crate::pricing::InstanceType`]),
//! run one warehouse module across their cores, and are billed for the
//! virtual wall-clock window they were up — `VM$_h × t`, fractional hours,
//! exactly as the paper's cost formulas use instance time (Section 7.3).

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

/// The instance registry.
#[derive(Debug, Default)]
pub struct Ec2 {
    records: Vec<InstanceRecord>,
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

    /// Launches an instance at `now`.
    pub fn launch(&mut self, itype: InstanceType, now: SimTime) -> InstanceId {
        let launched = InstanceRecord {
            itype,
            start: now,
            end: now,
        };
        self.records.push(launched);
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
    pub fn extend(&mut self, id: InstanceId, now: SimTime) {
        let old = self.records[id.0];
        if now > old.end {
            self.records[id.0].end = now;
            self.rebill(Some(old), self.records[id.0]);
        }
    }

    /// The record of an instance.
    pub fn record(&self, id: InstanceId) -> InstanceRecord {
        self.records[id.0]
    }

    /// All records.
    pub fn records(&self) -> &[InstanceRecord] {
        &self.records
    }

    /// What one record costs under `prices`.
    pub fn record_cost(&self, r: &InstanceRecord, prices: &PriceTable) -> Money {
        self.charge(prices.vm_hour(r.itype), r)
    }

    /// What one record costs at `rate` per (fractional) hour.
    fn charge(&self, rate: Money, r: &InstanceRecord) -> Money {
        self.priced.set(self.priced.get() + 1);
        rate.per_hour(r.uptime().micros())
    }

    /// Total EC2 charge under a price table (fractional hours, the paper's
    /// `VM$_h × t` terms): the sum of
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

    /// A cost snapshot prices what was launched or extended since the last
    /// one — nothing, here — however many instances came before, and the
    /// running bill is the record-by-record sum to the picodollar, through
    /// a change of price table.
    #[test]
    fn a_snapshot_after_ten_thousand_launches_costs_what_one_after_ten_does() {
        let prices = PriceTable::default();
        let records_priced_by_a_snapshot = |launches: u64| {
            let mut rng = StdRng::seed_from_u64(0x5AA9 + launches);
            let mut ec2 = Ec2::new();
            assert_eq!(ec2.total_cost(&prices), Money::ZERO);
            for i in 0..launches {
                let itype = [InstanceType::Large, InstanceType::ExtraLarge][(i % 2) as usize];
                let id = ec2.launch(itype, SimTime(i * 1_000));
                for _ in 0..rng.gen_range(0..3) {
                    let victim = InstanceId(rng.gen_range(0..=id.0));
                    let until = SimTime(i * 1_000 + rng.gen_range(0u64..9_000_000_000));
                    ec2.extend(victim, until);
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
            assert_eq!(running, summed, "{launches} launches");
            // Other rates — the paper's at three halves: priced from the
            // records again.
            let mut other = PriceTable::default();
            other.vm_hour_large = other.vm_hour_large.scaled(3, 2);
            other.vm_hour_xlarge = other.vm_hour_xlarge.scaled(3, 2);
            let summed: Money = ec2
                .records()
                .iter()
                .map(|r| ec2.record_cost(r, &other))
                .sum();
            assert_eq!(ec2.total_cost(&other), summed);
            priced
        };
        assert_eq!(records_priced_by_a_snapshot(10), 0);
        assert_eq!(records_priced_by_a_snapshot(10_000), 0);
    }
}
