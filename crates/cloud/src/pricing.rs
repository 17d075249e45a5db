//! Cloud price tables (paper Section 7.2, Table 3).
//!
//! The one table is the paper's: AWS Asia Pacific (Singapore) as of
//! September–October 2012. Prices are billing-only — a warehouse given
//! other rates bills differently and runs the same virtual timeline — so
//! re-pricing under another provider is a table with other constants.

use crate::money::Money;

/// Virtual machine flavors the experiments use (paper Section 8.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstanceType {
    /// "Large": 7.5 GB RAM, 2 virtual cores × 2 EC2 Compute Units.
    Large,
    /// "Extra large": 15 GB RAM, 4 virtual cores × 2 EC2 Compute Units.
    ExtraLarge,
}

impl InstanceType {
    /// Number of virtual cores.
    pub fn cores(self) -> usize {
        match self {
            InstanceType::Large => 2,
            InstanceType::ExtraLarge => 4,
        }
    }

    /// EC2 Compute Units per core (one ECU ≈ a 1.0–1.2 GHz 2007 Xeon).
    pub fn ecu_per_core(self) -> f64 {
        2.0
    }

    /// Short label used in reports (`l` / `xl`).
    pub fn label(self) -> &'static str {
        match self {
            InstanceType::Large => "l",
            InstanceType::ExtraLarge => "xl",
        }
    }
}

/// A provider price table — the constants of Section 7.2.
#[derive(Debug, Clone)]
pub struct PriceTable {
    /// `ST$_{m,GB}` — file store, per GB-month.
    pub st_month_gb: Money,
    /// `STput$` — file store, per put request.
    pub st_put: Money,
    /// `STget$` — file store, per get request.
    pub st_get: Money,
    /// `IDX$_{m,GB}` — index store, per GB-month.
    pub idx_month_gb: Money,
    /// `IDXput$` — index store, per put API request.
    pub idx_put: Money,
    /// `IDXget$` — index store, per get API request.
    pub idx_get: Money,
    /// `VM$_{h,l}` — large instance, per hour.
    pub vm_hour_large: Money,
    /// `VM$_{h,xl}` — extra-large instance, per hour.
    pub vm_hour_xlarge: Money,
    /// `QS$` — queue service, per API request.
    pub qs_request: Money,
    /// `egress$_{GB}` — data transferred out of the cloud, per GB.
    pub egress_gb: Money,
}

impl PriceTable {
    /// The paper's Table 3: AWS Singapore, October 2012.
    pub fn aws_singapore_2012() -> PriceTable {
        PriceTable {
            st_month_gb: Money::from_dollars(0.125),
            st_put: Money::from_dollars(0.000011),
            st_get: Money::from_dollars(0.0000011),
            idx_month_gb: Money::from_dollars(1.14),
            idx_put: Money::from_dollars(0.00000032),
            idx_get: Money::from_dollars(0.000000032),
            vm_hour_large: Money::from_dollars(0.34),
            vm_hour_xlarge: Money::from_dollars(0.68),
            qs_request: Money::from_dollars(0.000001),
            egress_gb: Money::from_dollars(0.19),
        }
    }

    /// Hourly price of an instance type.
    pub fn vm_hour(&self, t: InstanceType) -> Money {
        match t {
            InstanceType::Large => self.vm_hour_large,
            InstanceType::ExtraLarge => self.vm_hour_xlarge,
        }
    }
}

impl Default for PriceTable {
    fn default() -> Self {
        PriceTable::aws_singapore_2012()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_constants_are_exact() {
        let p = PriceTable::aws_singapore_2012();
        assert_eq!(p.st_month_gb.dollars(), 0.125);
        assert_eq!(p.idx_get.pico(), 32_000);
        assert_eq!(p.vm_hour(InstanceType::ExtraLarge).dollars(), 0.68);
    }

    #[test]
    fn xl_costs_double_l() {
        let p = PriceTable::default();
        assert_eq!(
            p.vm_hour(InstanceType::ExtraLarge).pico(),
            2 * p.vm_hour(InstanceType::Large).pico()
        );
    }

    #[test]
    fn instance_capabilities() {
        assert_eq!(InstanceType::Large.cores(), 2);
        assert_eq!(InstanceType::ExtraLarge.cores(), 4);
        assert_eq!(InstanceType::Large.label(), "l");
    }
}
