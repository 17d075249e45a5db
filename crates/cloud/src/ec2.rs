//! Virtual-instance registry and billing (Amazon EC2 in the paper).
//!
//! Instances are launched with a type ([`crate::pricing::InstanceType`]),
//! run one warehouse module across their cores, and are billed for the
//! virtual wall-clock window they were up — `VM$_h × t`, fractional hours,
//! exactly as the paper's cost formulas use instance time (Section 7.3).

use crate::clock::{SimDuration, SimTime};
use crate::money::Money;
use crate::pricing::{InstanceType, PRICES};

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
    /// What every record costs so far, kept current by every extension: a
    /// cost snapshot reads it, and prices no instance again.
    bill: Money,
}

impl Ec2 {
    /// Creates an empty registry (fractional-hour billing).
    pub fn new() -> Ec2 {
        Ec2::default()
    }

    /// Launches an instance at `now` (no uptime yet, so no charge).
    pub fn launch(&mut self, itype: InstanceType, now: SimTime) -> InstanceId {
        self.records.push(InstanceRecord {
            itype,
            start: now,
            end: now,
        });
        InstanceId(self.records.len() - 1)
    }

    /// Extends an instance's busy window to cover `now` (called by actors
    /// as their operations complete; the final call fixes shutdown time).
    pub fn extend(&mut self, id: InstanceId, now: SimTime) {
        let old = self.records[id.0];
        if now > old.end {
            self.records[id.0].end = now;
            self.bill = self.bill - self.record_cost(&old) + self.record_cost(&self.records[id.0]);
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

    /// What one record costs: `VM$_h × t`, fractional hours.
    pub fn record_cost(&self, r: &InstanceRecord) -> Money {
        PRICES.vm_hour(r.itype).per_hour(r.uptime().micros())
    }

    /// Total EC2 charge (the paper's `VM$_h × t` terms): the sum of
    /// [`Ec2::record_cost`] over every record, to the picodollar.
    pub fn total_cost(&self) -> Money {
        self.bill
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amada_rng::StdRng;

    #[test]
    fn billing_is_fractional_hours() {
        let mut ec2 = Ec2::new();
        let id = ec2.launch(InstanceType::Large, SimTime::ZERO);
        ec2.extend(id, SimTime::ZERO + SimDuration::from_secs(1800));
        // Half an hour of a $0.34/h instance: exactly $0.17, compared in
        // picodollars so rounding regressions can't hide in f64.
        assert_eq!(ec2.total_cost().pico(), 170_000_000_000);
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
        let mut a = Ec2::new();
        let i = a.launch(InstanceType::Large, SimTime::ZERO);
        a.extend(i, SimTime(3_600_000_000));
        let mut b = Ec2::new();
        let j = b.launch(InstanceType::ExtraLarge, SimTime::ZERO);
        b.extend(j, SimTime(3_600_000_000));
        assert_eq!(b.total_cost().pico(), 2 * a.total_cost().pico());
    }

    /// The running bill is the record-by-record sum to the picodollar,
    /// however many launches and extensions came before.
    #[test]
    fn the_running_bill_is_the_sum_of_the_records_costs() {
        for launches in [10, 10_000] {
            let mut rng = StdRng::seed_from_u64(0x5AA9 + launches);
            let mut ec2 = Ec2::new();
            assert_eq!(ec2.total_cost(), Money::ZERO);
            for i in 0..launches {
                let itype = [InstanceType::Large, InstanceType::ExtraLarge][(i % 2) as usize];
                let id = ec2.launch(itype, SimTime(i * 1_000));
                for _ in 0..rng.gen_range(0..3) {
                    let victim = InstanceId(rng.gen_range(0..=id.0));
                    let until = SimTime(i * 1_000 + rng.gen_range(0u64..9_000_000_000));
                    ec2.extend(victim, until);
                }
            }
            let summed: Money = ec2.records().iter().map(|r| ec2.record_cost(r)).sum();
            assert_eq!(ec2.total_cost(), summed, "{launches} launches");
        }
    }
}
