//! Energy prices and cost accounting.
//!
//! The paper's evaluation (§VI.C): utility power at 0.13 USD/kWh
//! (California), wind at 0.05 USD/kWh, with a sensitivity point at the
//! projected 0.005 USD/kWh future wind price.
//!
//! Flat prices make `total_kWh × price` correct, but the moment the
//! utility price or carbon intensity varies in time the product is
//! silently wrong — the right quantity is `∫ signal(t) × draw_W(t) dt`.
//! [`SignalMeter`] integrates that exactly on the same per-event
//! intervals the [`EnergyLedger`] books, and degrades *bit-identically*
//! to the flat product when the signal never changes.

use crate::signal::SignalTrace;
use iscope_dcsim::SimTime;

/// Joules per kilowatt-hour.
pub const J_PER_KWH: f64 = 3.6e6;

/// Electricity prices in USD per kWh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceBook {
    /// Utility (grid) price, USD/kWh.
    pub utility_usd_per_kwh: f64,
    /// Renewable (wind) price, USD/kWh.
    pub wind_usd_per_kwh: f64,
}

impl PriceBook {
    /// The paper's evaluation prices: 0.13 / 0.05 USD per kWh.
    pub fn paper_default() -> Self {
        PriceBook {
            utility_usd_per_kwh: 0.13,
            wind_usd_per_kwh: 0.05,
        }
    }

    /// The projected future wind price of 0.005 USD/kWh \[2\].
    pub fn future_wind() -> Self {
        PriceBook {
            wind_usd_per_kwh: 0.005,
            ..PriceBook::paper_default()
        }
    }
}

/// Accumulated energy split by source, with cost evaluation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyLedger {
    /// Wind energy consumed, joules.
    pub wind_j: f64,
    /// Utility energy consumed, joules.
    pub utility_j: f64,
}

impl EnergyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// Adds one accounting interval: `demand_w` drawn for `dt_s` seconds
    /// against `wind_available_w` of renewable budget. Wind covers what it
    /// can; utility covers the residual (§V.C supply policy).
    pub fn draw(&mut self, demand_w: f64, wind_available_w: f64, dt_s: f64) {
        debug_assert!(demand_w >= 0.0 && wind_available_w >= 0.0 && dt_s >= 0.0);
        let wind_w = demand_w.min(wind_available_w);
        self.wind_j += wind_w * dt_s;
        self.utility_j += (demand_w - wind_w) * dt_s;
    }

    /// Wind energy in kWh.
    pub fn wind_kwh(&self) -> f64 {
        self.wind_j / J_PER_KWH
    }

    /// Utility energy in kWh.
    pub fn utility_kwh(&self) -> f64 {
        self.utility_j / J_PER_KWH
    }

    /// Total energy in kWh.
    pub fn total_kwh(&self) -> f64 {
        self.wind_kwh() + self.utility_kwh()
    }

    /// Cost of the utility share only (the paper's "utility energy cost").
    pub fn utility_cost_usd(&self, prices: &PriceBook) -> f64 {
        self.utility_kwh() * prices.utility_usd_per_kwh
    }

    /// Cost of the wind share only.
    pub fn wind_cost_usd(&self, prices: &PriceBook) -> f64 {
        self.wind_kwh() * prices.wind_usd_per_kwh
    }

    /// Total (wind + utility) energy cost.
    pub fn total_cost_usd(&self, prices: &PriceBook) -> f64 {
        self.utility_cost_usd(prices) + self.wind_cost_usd(prices)
    }

    /// Merges another ledger (parallel-sweep reduction).
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.wind_j += other.wind_j;
        self.utility_j += other.utility_j;
    }

    /// Fraction of total energy served by wind (0 if nothing drawn).
    pub fn green_fraction(&self) -> f64 {
        let total = self.wind_j + self.utility_j;
        if total == 0.0 {
            0.0
        } else {
            self.wind_j / total
        }
    }
}

/// Exact time integrator of `signal(t) × power(t)` over the simulator's
/// accounting intervals.
///
/// Power is piecewise-constant between events; the signal is
/// piecewise-constant on its own trace grid. The meter keeps one *open
/// segment* per distinct signal value: joules accumulate into `seg_j`
/// with exactly the operands the energy ledger uses, and only when the
/// signal value changes (bitwise) does the segment flush into the total
/// as `(seg_j / J_PER_KWH) × seg_value`. Consequences:
///
/// * a constant signal never flushes mid-run, so the finished total is
///   **bit-identical** to `kWh × value` — the flat-price bookkeeping
///   this replaces;
/// * a varying signal is integrated exactly at trace-cell resolution
///   without injecting any events into the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalMeter {
    /// Signal value assumed when no trace is configured.
    flat: f64,
    /// Signal value of the open segment.
    pub seg_value: f64,
    /// Joules accumulated against `seg_value` since the last flush.
    pub seg_j: f64,
    /// Flushed total: `Σ (seg_j / J_PER_KWH) × seg_value`.
    pub total: f64,
}

impl SignalMeter {
    /// A meter whose traceless signal value is `flat`.
    pub fn new(flat: f64) -> Self {
        assert!(flat.is_finite() && flat >= 0.0, "flat signal out of domain");
        SignalMeter {
            flat,
            seg_value: flat,
            seg_j: 0.0,
            total: 0.0,
        }
    }

    fn flush(&mut self) {
        self.total += (self.seg_j / J_PER_KWH) * self.seg_value;
        self.seg_j = 0.0;
    }

    fn add(&mut self, value: f64, joules: f64) {
        if value.to_bits() != self.seg_value.to_bits() {
            self.flush();
            self.seg_value = value;
        }
        self.seg_j += joules;
    }

    /// Books `power_w` watts drawn over `[start, end)` against `trace`
    /// (`None` → the flat value). `dt_s` must be the exact `f64` duration
    /// the energy ledger integrated this interval with: whenever the
    /// signal is constant across the interval it is reused verbatim, so
    /// the joule stream stays bit-identical to the ledger's. Only when
    /// the signal actually changes inside the interval is it split, at
    /// value-change boundaries.
    pub fn book_span(
        &mut self,
        trace: Option<&SignalTrace>,
        start: SimTime,
        end: SimTime,
        dt_s: f64,
        power_w: f64,
    ) {
        let Some(tr) = trace else {
            self.add(self.flat, power_w * dt_s);
            return;
        };
        let mut cur = start;
        let mut value = tr.value_at(cur);
        let Some(first) = tr.next_change_before(cur, end) else {
            self.add(value, power_w * dt_s);
            return;
        };
        let mut boundary = Some(first);
        while let Some(b) = boundary {
            let sub = b.saturating_since(cur).as_secs_f64();
            self.add(value, power_w * sub);
            cur = b;
            value = tr.value_at(cur);
            boundary = tr.next_change_before(cur, end);
        }
        let tail = end.saturating_since(cur).as_secs_f64();
        self.add(value, power_w * tail);
    }

    /// The total including the still-open segment, without mutating the
    /// meter — the observational preview telemetry records.
    pub fn preview(&self) -> f64 {
        self.total + (self.seg_j / J_PER_KWH) * self.seg_value
    }

    /// Flushes the open segment and returns the finished total.
    pub fn finish(&mut self) -> f64 {
        self.flush();
        self.total
    }
}

/// The pair of utility-side meters a simulation carries: time-integrated
/// dollars against the price signal and grams of CO2 against the
/// intensity signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostMeter {
    /// Dollar integral (`∫ price(t) × utility_W(t) dt`, USD).
    pub price: SignalMeter,
    /// Carbon integral (`∫ intensity(t) × utility_W(t) dt`, gCO2).
    pub carbon: SignalMeter,
}

impl CostMeter {
    /// A meter booking `flat_price_usd_per_kwh` when no price trace is
    /// configured and zero carbon when no intensity trace is.
    pub fn new(flat_price_usd_per_kwh: f64) -> Self {
        CostMeter {
            price: SignalMeter::new(flat_price_usd_per_kwh),
            carbon: SignalMeter::new(0.0),
        }
    }

    /// Flushes both meters, returning `(utility_usd, gco2)`.
    pub fn finish(&mut self) -> (f64, f64) {
        (self.price.finish(), self.carbon.finish())
    }
}

/// Final time-integrated cost and carbon totals of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostSplit {
    /// Utility-side dollars, `∫ price(t) × utility_W(t) dt`.
    pub utility_usd: f64,
    /// Wind-side dollars (flat renewable PPA price).
    pub wind_usd: f64,
    /// Utility-side emissions, `∫ intensity(t) × utility_W(t) dt`, grams.
    pub gco2: f64,
}

impl CostSplit {
    /// Total (wind + utility) dollars.
    pub fn total_usd(&self) -> f64 {
        self.utility_usd + self.wind_usd
    }

    /// Componentwise sum (federation reduction).
    pub fn merge(&mut self, other: &CostSplit) {
        self.utility_usd += other.utility_usd;
        self.wind_usd += other.wind_usd;
        self.gco2 += other.gco2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_dcsim::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn draw_splits_supply_correctly() {
        let mut l = EnergyLedger::new();
        // Demand below budget: all wind.
        l.draw(500.0, 1000.0, 10.0);
        assert_eq!(l.wind_j, 5000.0);
        assert_eq!(l.utility_j, 0.0);
        // Demand above budget: wind saturates, utility covers the rest.
        l.draw(1500.0, 1000.0, 10.0);
        assert_eq!(l.wind_j, 15_000.0);
        assert_eq!(l.utility_j, 5000.0);
    }

    #[test]
    fn zero_wind_is_all_utility() {
        let mut l = EnergyLedger::new();
        l.draw(800.0, 0.0, 100.0);
        assert_eq!(l.wind_j, 0.0);
        assert_eq!(l.utility_j, 80_000.0);
        assert_eq!(l.green_fraction(), 0.0);
    }

    #[test]
    fn costs_use_per_source_prices() {
        let mut l = EnergyLedger::new();
        l.wind_j = 2.0 * J_PER_KWH; // 2 kWh of wind
        l.utility_j = 3.0 * J_PER_KWH; // 3 kWh of utility
        let p = PriceBook::paper_default();
        assert!((l.wind_cost_usd(&p) - 0.10).abs() < 1e-12);
        assert!((l.utility_cost_usd(&p) - 0.39).abs() < 1e-12);
        assert!((l.total_cost_usd(&p) - 0.49).abs() < 1e-12);
        let f = PriceBook::future_wind();
        assert!((l.total_cost_usd(&f) - (0.39 + 0.01)).abs() < 1e-12);
    }

    #[test]
    fn energy_conservation_under_draw() {
        // wind_j + utility_j must equal the demand integral exactly.
        let mut l = EnergyLedger::new();
        let mut expected = 0.0;
        for i in 0..100 {
            let demand = 100.0 + (i as f64 * 13.7) % 900.0;
            let wind = (i as f64 * 29.3) % 700.0;
            l.draw(demand, wind, 60.0);
            expected += demand * 60.0;
        }
        assert!((l.wind_j + l.utility_j - expected).abs() < 1e-6);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = EnergyLedger {
            wind_j: 1.0,
            utility_j: 2.0,
        };
        let b = EnergyLedger {
            wind_j: 10.0,
            utility_j: 20.0,
        };
        a.merge(&b);
        assert_eq!(
            a,
            EnergyLedger {
                wind_j: 11.0,
                utility_j: 22.0
            }
        );
    }

    #[test]
    fn green_fraction() {
        let l = EnergyLedger {
            wind_j: 75.0,
            utility_j: 25.0,
        };
        assert!((l.green_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(EnergyLedger::new().green_fraction(), 0.0);
    }

    /// Hand-integrated reference: `∫ signal(t) × power(t) dt / J_PER_KWH`
    /// evaluated by brute-force 1 ms sub-stepping of each interval.
    fn reference_integral(
        trace: &SignalTrace,
        spans: &[(u64, u64, f64)], // (start_ms, end_ms, power_w)
    ) -> f64 {
        let mut total = 0.0;
        for &(start, end, power) in spans {
            let iv = trace.interval.as_millis();
            let mut t = start;
            while t < end {
                // Step to the next trace-cell boundary or the span end.
                let next = ((t / iv + 1) * iv).min(end);
                let dt_s = (next - t) as f64 / 1000.0;
                total += trace.value_at(SimTime::from_millis(t)) * power * dt_s / J_PER_KWH;
                t = next;
            }
        }
        total
    }

    fn book_spans(meter: &mut SignalMeter, trace: Option<&SignalTrace>, spans: &[(u64, u64, f64)]) {
        for &(start, end, power) in spans {
            let s = SimTime::from_millis(start);
            let e = SimTime::from_millis(end);
            meter.book_span(trace, s, e, e.saturating_since(s).as_secs_f64(), power);
        }
    }

    fn arb_spans() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
        // Contiguous event intervals with irregular lengths, like the
        // simulator's accounting stream.
        prop::collection::vec((1u64..2_000_000, 0.0f64..50_000.0), 1..40).prop_map(|steps| {
            let mut t = 0u64;
            steps
                .into_iter()
                .map(|(len, p)| {
                    let span = (t, t + len, p);
                    t += len;
                    span
                })
                .collect()
        })
    }

    proptest! {
        /// Satellite: with a *constant* price trace the time integral is
        /// bit-identical to `kWh × price` — the flat bookkeeping it
        /// replaces. Not approximately: `to_bits` equal.
        #[test]
        fn prop_constant_trace_is_bitexact_kwh_times_price(
            price in 0.0f64..2.0,
            cells in 1usize..200,
            spans in arb_spans(),
        ) {
            let trace = SignalTrace::constant(SimDuration::from_mins(10), price, cells);
            let mut with_trace = SignalMeter::new(0.99); // flat differs on purpose
            book_spans(&mut with_trace, Some(&trace), &spans);
            let mut flat = SignalMeter::new(price);
            book_spans(&mut flat, None, &spans);
            // Both equal kWh × price, bitwise.
            let kwh: f64 = spans
                .iter()
                .map(|&(s, e, p)| p * ((e - s) as f64 / 1000.0))
                .sum::<f64>()
                / J_PER_KWH;
            prop_assert_eq!(with_trace.finish().to_bits(), (kwh * price).to_bits());
            prop_assert_eq!(flat.finish().to_bits(), (kwh * price).to_bits());
        }

        /// Satellite: against a varying intensity trace the meter matches
        /// a hand-integrated `∫ intensity × utility_W dt` reference to
        /// rel < 1e-9 (it differs only in summation order).
        #[test]
        fn prop_varying_trace_matches_hand_integration(
            values in prop::collection::vec(0.0f64..900.0, 1..48),
            spans in arb_spans(),
        ) {
            let trace = SignalTrace::new(SimDuration::from_mins(10), values);
            let mut meter = SignalMeter::new(0.0);
            book_spans(&mut meter, Some(&trace), &spans);
            let got = meter.finish();
            let want = reference_integral(&trace, &spans);
            let scale = want.abs().max(1.0);
            prop_assert!(
                (got - want).abs() / scale < 1e-9,
                "meter {got} vs reference {want}"
            );
        }
    }

    #[test]
    fn meter_splits_at_value_changes_only() {
        // 10-minute cells: 100, 100, 300. An interval spanning the first
        // two cells books one segment; crossing into the third splits.
        let trace = SignalTrace::new(SimDuration::from_mins(10), vec![100.0, 100.0, 300.0]);
        let mut m = SignalMeter::new(0.0);
        // [0, 20 min): constant 100 across a repeated-value boundary.
        m.book_span(
            Some(&trace),
            SimTime::ZERO,
            SimTime::from_secs(1200),
            1200.0,
            1000.0,
        );
        assert_eq!(m.seg_j, 1000.0 * 1200.0, "single exact segment");
        // [20, 40 min): all in the 300 cell → flush of the 100 segment.
        m.book_span(
            Some(&trace),
            SimTime::from_secs(1200),
            SimTime::from_secs(2400),
            1200.0,
            1000.0,
        );
        let total = m.finish();
        let want = (1000.0 * 1200.0 / J_PER_KWH) * 100.0 + (1000.0 * 1200.0 / J_PER_KWH) * 300.0;
        assert!((total - want).abs() < 1e-9);
    }

    #[test]
    fn meter_preview_includes_open_segment() {
        let mut m = SignalMeter::new(0.13);
        m.book_span(
            None,
            SimTime::ZERO,
            SimTime::from_secs(3600),
            3600.0,
            1000.0,
        );
        let preview = m.preview();
        assert!((preview - 0.13).abs() < 1e-12, "1 kWh at 0.13");
        assert_eq!(m.finish().to_bits(), preview.to_bits());
    }

    #[test]
    fn cost_meter_defaults_to_zero_carbon() {
        let mut cm = CostMeter::new(0.13);
        cm.price
            .book_span(None, SimTime::ZERO, SimTime::from_secs(60), 60.0, 500.0);
        cm.carbon
            .book_span(None, SimTime::ZERO, SimTime::from_secs(60), 60.0, 500.0);
        let (usd, gco2) = cm.finish();
        assert!(usd > 0.0);
        assert_eq!(gco2, 0.0);
    }

    #[test]
    fn cost_split_totals_and_merges() {
        let mut a = CostSplit {
            utility_usd: 1.0,
            wind_usd: 0.5,
            gco2: 10.0,
        };
        assert!((a.total_usd() - 1.5).abs() < 1e-12);
        a.merge(&CostSplit {
            utility_usd: 2.0,
            wind_usd: 0.25,
            gco2: 5.0,
        });
        assert_eq!(
            a,
            CostSplit {
                utility_usd: 3.0,
                wind_usd: 0.75,
                gco2: 15.0
            }
        );
    }
}
