//! The cloud price table (paper Section 7.2, Table 3).
//!
//! [`PRICES`] is the paper's table: AWS Asia Pacific (Singapore) as of
//! September–October 2012, in exact picodollars. Prices are billing-only:
//! the ledger, the spans' bills, the cost formulas and the trace's EC2
//! lane read it, and nothing that sets a virtual time or an answer does.

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
#[derive(Debug)]
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

/// The paper's Table 3: AWS Singapore, October 2012.
pub const PRICES: PriceTable = PriceTable {
    st_month_gb: Money::from_pico(125_000_000_000),
    st_put: Money::from_pico(11_000_000),
    st_get: Money::from_pico(1_100_000),
    idx_month_gb: Money::from_pico(1_140_000_000_000),
    idx_put: Money::from_pico(320_000),
    idx_get: Money::from_pico(32_000),
    vm_hour_large: Money::from_pico(340_000_000_000),
    vm_hour_xlarge: Money::from_pico(680_000_000_000),
    qs_request: Money::from_pico(1_000_000),
    egress_gb: Money::from_pico(190_000_000_000),
};

impl PriceTable {
    /// Hourly price of an instance type.
    pub fn vm_hour(&self, t: InstanceType) -> Money {
        match t {
            InstanceType::Large => self.vm_hour_large,
            InstanceType::ExtraLarge => self.vm_hour_xlarge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every constant is Table 3's decimal to the picodollar.
    #[test]
    fn table3_constants_are_exact() {
        let table3 = [
            (PRICES.st_month_gb, 0.125),
            (PRICES.st_put, 0.000011),
            (PRICES.st_get, 0.0000011),
            (PRICES.idx_month_gb, 1.14),
            (PRICES.idx_put, 0.00000032),
            (PRICES.idx_get, 0.000000032),
            (PRICES.vm_hour_large, 0.34),
            (PRICES.vm_hour_xlarge, 0.68),
            (PRICES.qs_request, 0.000001),
            (PRICES.egress_gb, 0.19),
        ];
        for (constant, dollars) in table3 {
            assert_eq!(constant, Money::from_dollars(dollars), "${dollars}");
        }
    }

    #[test]
    fn xl_costs_double_l() {
        assert_eq!(
            PRICES.vm_hour(InstanceType::ExtraLarge).pico(),
            2 * PRICES.vm_hour(InstanceType::Large).pico()
        );
    }

    #[test]
    fn instance_capabilities() {
        assert_eq!(InstanceType::Large.cores(), 2);
        assert_eq!(InstanceType::ExtraLarge.cores(), 4);
        assert_eq!(InstanceType::Large.label(), "l");
    }
}
