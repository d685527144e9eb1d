//! The datacenter's power supply: utility-only or hybrid wind + utility,
//! with optional utility-side price/carbon signals and on-site storage.

use crate::battery::Battery;
use crate::cost::{CostMeter, PriceBook};
use crate::signal::SignalTrace;
use crate::trace::PowerTrace;
use crate::wind::WindFarm;
use iscope_dcsim::{SimDuration, SimTime};

/// A power supply configuration for a simulation run.
#[derive(Debug, Clone)]
pub struct Supply {
    /// Renewable budget over time; `None` means utility-only (§VI.A).
    pub wind: Option<PowerTrace>,
    /// Electricity prices.
    pub prices: PriceBook,
    /// Time-of-use / spot utility price (USD/kWh); `None` books the flat
    /// `prices.utility_usd_per_kwh`.
    pub utility_price: Option<SignalTrace>,
    /// Carbon intensity of the utility mix (gCO2/kWh); `None` books zero
    /// (emissions not tracked).
    pub carbon: Option<SignalTrace>,
    /// On-site storage. Observational: smooths nothing by itself, but the
    /// federation router reads its charge as dispatchable surplus.
    pub battery: Option<Battery>,
}

impl Supply {
    /// Conventional utility-grid-only datacenter.
    pub fn utility_only() -> Self {
        Supply {
            wind: None,
            prices: PriceBook::paper_default(),
            utility_price: None,
            carbon: None,
            battery: None,
        }
    }

    /// Hybrid supply from an explicit wind trace.
    pub fn hybrid(wind: PowerTrace) -> Self {
        Supply {
            wind: Some(wind),
            ..Supply::utility_only()
        }
    }

    /// Hybrid supply from a synthetic farm: generates `duration` of wind at
    /// `swp_factor` times the standard wind power (Fig. 9's SWP sweep).
    pub fn hybrid_farm(farm: &WindFarm, duration: SimDuration, swp_factor: f64, seed: u64) -> Self {
        Supply::hybrid(farm.generate(duration, seed).scaled(swp_factor))
    }

    /// Replaces the price book.
    pub fn with_prices(mut self, prices: PriceBook) -> Self {
        self.prices = prices;
        self
    }

    /// Attaches a time-of-use / spot utility price trace.
    pub fn with_utility_price(mut self, trace: SignalTrace) -> Self {
        self.utility_price = Some(trace);
        self
    }

    /// Attaches a utility carbon-intensity trace.
    pub fn with_carbon(mut self, trace: SignalTrace) -> Self {
        self.carbon = Some(trace);
        self
    }

    /// Attaches on-site storage.
    pub fn with_battery(mut self, battery: Battery) -> Self {
        battery.validate();
        self.battery = Some(battery);
        self
    }

    /// Renewable power available at `t` (0 for utility-only).
    pub fn wind_power_at(&self, t: SimTime) -> f64 {
        self.wind.as_ref().map_or(0.0, |w| w.power_at(t))
    }

    /// Interval at which the renewable budget changes, if any.
    pub fn wind_interval(&self) -> Option<SimDuration> {
        self.wind.as_ref().map(|w| w.interval)
    }

    /// True if any renewable capacity is configured.
    pub fn has_wind(&self) -> bool {
        self.wind.as_ref().is_some_and(|w| !w.is_empty())
    }

    /// Utility price (USD/kWh) at `t`: the price trace when present,
    /// otherwise the flat book price.
    pub fn price_at(&self, t: SimTime) -> f64 {
        self.utility_price
            .as_ref()
            .map_or(self.prices.utility_usd_per_kwh, |p| p.value_at(t))
    }

    /// Utility carbon intensity (gCO2/kWh) at `t`; 0 when untracked.
    pub fn intensity_at(&self, t: SimTime) -> f64 {
        self.carbon.as_ref().map_or(0.0, |c| c.value_at(t))
    }

    /// A fresh cost meter matching this supply's flat price.
    pub fn cost_meter(&self) -> CostMeter {
        CostMeter::new(self.prices.utility_usd_per_kwh)
    }

    /// Books one accounting interval's utility-side draw (`utility_w`
    /// watts over `[start, end)`, ledger-exact `dt_s`) into `meter`,
    /// integrating the price and carbon traces exactly.
    pub fn book_utility(
        &self,
        meter: &mut CostMeter,
        start: SimTime,
        end: SimTime,
        dt_s: f64,
        utility_w: f64,
    ) {
        meter
            .price
            .book_span(self.utility_price.as_ref(), start, end, dt_s, utility_w);
        meter
            .carbon
            .book_span(self.carbon.as_ref(), start, end, dt_s, utility_w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utility_only_has_no_wind() {
        let s = Supply::utility_only();
        assert!(!s.has_wind());
        assert_eq!(s.wind_power_at(SimTime::from_secs(1234)), 0.0);
        assert_eq!(s.wind_interval(), None);
    }

    #[test]
    fn hybrid_reads_the_trace() {
        let t = PowerTrace::new(SimDuration::from_mins(10), vec![100.0, 50.0]);
        let s = Supply::hybrid(t);
        assert!(s.has_wind());
        assert_eq!(s.wind_power_at(SimTime::ZERO), 100.0);
        assert_eq!(s.wind_power_at(SimTime::from_secs(700)), 50.0);
        assert_eq!(s.wind_interval(), Some(SimDuration::from_mins(10)));
    }

    #[test]
    fn hybrid_farm_applies_swp_factor() {
        let farm = WindFarm::default();
        let base = Supply::hybrid_farm(&farm, SimDuration::from_hours(24), 1.0, 3);
        let boosted = Supply::hybrid_farm(&farm, SimDuration::from_hours(24), 1.8, 3);
        let b = base.wind.as_ref().unwrap();
        let x = boosted.wind.as_ref().unwrap();
        assert_eq!(b.len(), x.len());
        for (a, c) in b.watts.iter().zip(&x.watts) {
            assert!((c - a * 1.8).abs() < 1e-9);
        }
    }

    #[test]
    fn price_override() {
        let s = Supply::utility_only().with_prices(PriceBook::future_wind());
        assert!((s.prices.wind_usd_per_kwh - 0.005).abs() < 1e-12);
    }

    #[test]
    fn price_at_prefers_the_trace() {
        let flat = Supply::utility_only();
        assert_eq!(flat.price_at(SimTime::from_secs(999)), 0.13);
        let traced = Supply::utility_only().with_utility_price(SignalTrace::new(
            SimDuration::from_mins(10),
            vec![0.08, 0.30],
        ));
        assert_eq!(traced.price_at(SimTime::ZERO), 0.08);
        assert_eq!(traced.price_at(SimTime::from_secs(700)), 0.30);
    }

    #[test]
    fn intensity_defaults_to_zero() {
        assert_eq!(Supply::utility_only().intensity_at(SimTime::ZERO), 0.0);
        let s = Supply::utility_only().with_carbon(SignalTrace::constant(
            SimDuration::from_mins(10),
            420.0,
            6,
        ));
        assert_eq!(s.intensity_at(SimTime::from_secs(30)), 420.0);
    }

    #[test]
    fn book_utility_tracks_both_signals() {
        let s = Supply::utility_only().with_carbon(SignalTrace::constant(
            SimDuration::from_mins(10),
            500.0,
            6,
        ));
        let mut meter = s.cost_meter();
        // 3.6 MW for one hour = 3600 kWh of utility.
        s.book_utility(
            &mut meter,
            SimTime::ZERO,
            SimTime::from_secs(3600),
            3600.0,
            3_600_000.0,
        );
        let (usd, gco2) = meter.finish();
        assert!((usd - 3600.0 * 0.13).abs() < 1e-6);
        assert!((gco2 - 3600.0 * 500.0).abs() < 1e-6);
    }

    #[test]
    fn battery_attaches_validated() {
        let s = Supply::utility_only().with_battery(Battery::sized_for(10_000.0, 2.0));
        assert!(s.battery.is_some());
    }
}
