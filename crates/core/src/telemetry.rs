//! Fixed-cadence run telemetry: the observability layer next to the
//! invariant auditor (DESIGN.md §4).
//!
//! A [`TelemetryConfig`] on [`crate::SimInput`] makes the simulation carry
//! a passive multi-channel sample-and-hold recorder
//! ([`iscope_dcsim::RowSampler`]) that emits one [`TelemetryRecord`] per
//! tick: renewable supply, fleet demand, utility draw, queue depth,
//! per-level DVFS occupancy, the quarantined-chip count, and the
//! cumulative emissions/cost integrals. Recording is
//! sample-and-hold off the existing demand-refresh path — no events are
//! scheduled, so enabling telemetry never perturbs event order, RNG
//! streams, or the energy ledger.
//!
//! The records travel to disk as JSONL (one object per line). Both
//! directions — [`render_jsonl`] and [`parse_jsonl`] — run on the
//! workspace's one JSON codec ([`crate::snapshot`]) against the fixed
//! schema documented in EXPERIMENTS.md.

use crate::snapshot::{self, ToVal, Val, Writer};
use iscope_dcsim::{SimDuration, SimTime};

/// Switches fixed-cadence telemetry recording on.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Sampling interval (one record per tick from t = 0).
    pub interval: SimDuration,
}

impl TelemetryConfig {
    /// Telemetry at the given interval.
    pub fn every(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "telemetry interval must be positive");
        TelemetryConfig { interval }
    }
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: SimDuration::from_mins(10),
        }
    }
}

/// One telemetry sample (the signal values active at the tick instant).
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryRecord {
    /// Emitting site (0 in single-site runs; the site index in a
    /// federation, so per-site streams can share one JSONL file).
    pub site: u64,
    /// Tick instant, seconds since the start of the run.
    pub t_s: f64,
    /// Renewable supply available at the tick (W).
    pub supply_w: f64,
    /// Fleet facility demand, including profiling/re-scan overhead (W).
    pub demand_w: f64,
    /// Utility draw `max(demand - supply, 0)` (W).
    pub utility_w: f64,
    /// Jobs placed on queues (or deferred) but not yet running.
    pub queue_depth: u64,
    /// Running jobs per DVFS level, index 0 = lowest frequency.
    pub level_jobs: Vec<u64>,
    /// Chips currently quarantined as suspect by the fault machinery.
    pub quarantined: u64,
    /// Cumulative utility-mix emissions booked so far, grams of CO2
    /// (`∫ intensity(t) × utility_W(t) dt` up to the tick; 0 without a
    /// carbon trace).
    pub gco2: f64,
    /// Cumulative time-integrated utility cost booked so far, USD.
    pub cost_usd: f64,
}

/// Number of [`iscope_dcsim::RowSampler`] channels ahead of the per-level
/// occupancy block: supply, demand, utility, queue depth.
pub(crate) const CHANNELS_BEFORE_LEVELS: usize = 4;

/// Converts a sampler row (see the channel layout in `site.rs`) into a
/// record. `levels` is the DVFS level count, `site` the emitting site.
pub(crate) fn record_from_row(
    at: SimTime,
    row: &[f64],
    levels: usize,
    site: u64,
) -> TelemetryRecord {
    debug_assert_eq!(row.len(), CHANNELS_BEFORE_LEVELS + levels + 3);
    TelemetryRecord {
        site,
        t_s: at.as_secs_f64(),
        supply_w: row[0],
        demand_w: row[1],
        utility_w: row[2],
        queue_depth: row[3] as u64,
        level_jobs: row[CHANNELS_BEFORE_LEVELS..CHANNELS_BEFORE_LEVELS + levels]
            .iter()
            .map(|&v| v as u64)
            .collect(),
        quarantined: row[CHANNELS_BEFORE_LEVELS + levels] as u64,
        gco2: row[CHANNELS_BEFORE_LEVELS + levels + 1],
        cost_usd: row[CHANNELS_BEFORE_LEVELS + levels + 2],
    }
}

// The JSONL schema EXPERIMENTS.md documents, in key order.
crate::to_val!(TelemetryRecord, |r| {
    "site" => r.site,
    "t_s" => r.t_s,
    "supply_w" => r.supply_w,
    "demand_w" => r.demand_w,
    "utility_w" => r.utility_w,
    "queue_depth" => r.queue_depth,
    "level_jobs" => r.level_jobs,
    "quarantined" => r.quarantined,
    "gco2" => r.gco2,
    "cost_usd" => r.cost_usd,
});

/// Writes one record as a JSON line (no trailing newline). Every channel
/// is a finite power, count or integral, so the write cannot fail.
fn write_line(w: &mut Writer, r: &TelemetryRecord) {
    r.write(w, "telemetry record")
        .expect("telemetry channels are finite");
}

/// Renders one record as a single JSON line (no trailing newline).
pub fn render_line(r: &TelemetryRecord) -> String {
    let mut w = Writer::new();
    write_line(&mut w, r);
    w.finish()
}

/// Renders records as JSONL: one object per line, trailing newline.
pub fn render_jsonl(records: &[TelemetryRecord]) -> String {
    let mut w = Writer::new();
    for r in records {
        write_line(&mut w, r);
        w.newline();
    }
    w.finish()
}

/// Parses JSONL produced by [`render_jsonl`] (or any JSONL carrying the
/// same flat schema). Blank lines are skipped; unknown keys are rejected
/// so schema drift fails loudly.
pub fn parse_jsonl(text: &str) -> Result<Vec<TelemetryRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| parse_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Parses one JSON object line into a record.
pub fn parse_line(line: &str) -> Result<TelemetryRecord, String> {
    let Val::Obj(fields) = snapshot::parse(line).map_err(|e| e.to_string())? else {
        return Err("record is not a JSON object".into());
    };
    let mut r = TelemetryRecord {
        site: 0, // absent in pre-federation JSONL: those streams were site 0
        t_s: f64::NAN,
        supply_w: f64::NAN,
        demand_w: f64::NAN,
        utility_w: f64::NAN,
        queue_depth: u64::MAX,
        level_jobs: Vec::new(),
        quarantined: u64::MAX,
        gco2: 0.0,     // absent in pre-carbon JSONL: nothing was booked
        cost_usd: 0.0, // absent in pre-carbon JSONL: nothing was booked
    };
    let mut seen_levels = false;
    for (key, value) in &fields {
        let int = |v: &Val| v.as_u64(key).map_err(|e| e.to_string());
        // A float channel also accepts an integer literal (`"t_s":0`).
        let num = || match value {
            Val::Float(x) => Ok(*x),
            Val::Int(n) => Ok(*n as f64),
            _ => Err(format!("{key} is not a number")),
        };
        match key.as_str() {
            "site" => r.site = int(value)?,
            "gco2" => r.gco2 = num()?,
            "cost_usd" => r.cost_usd = num()?,
            "t_s" => r.t_s = num()?,
            "supply_w" => r.supply_w = num()?,
            "demand_w" => r.demand_w = num()?,
            "utility_w" => r.utility_w = num()?,
            "queue_depth" => r.queue_depth = int(value)?,
            "quarantined" => r.quarantined = int(value)?,
            "level_jobs" => {
                r.level_jobs = value
                    .as_arr(key)
                    .map_err(|e| e.to_string())?
                    .iter()
                    .map(int)
                    .collect::<Result<_, _>>()?;
                seen_levels = true;
            }
            other => return Err(format!("unknown key {other:?}")),
        }
    }
    if r.t_s.is_nan()
        || r.supply_w.is_nan()
        || r.demand_w.is_nan()
        || r.utility_w.is_nan()
        || r.queue_depth == u64::MAX
        || r.quarantined == u64::MAX
        || !seen_levels
    {
        return Err("record is missing required keys".into());
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: f64) -> TelemetryRecord {
        TelemetryRecord {
            site: 0,
            t_s: t,
            supply_w: 12_500.25,
            demand_w: 9_800.0,
            utility_w: 0.0,
            queue_depth: 7,
            level_jobs: vec![0, 1, 0, 3, 9],
            quarantined: 2,
            gco2: 1234.5,
            cost_usd: 0.875,
        }
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let records = vec![record(0.0), record(600.0), record(1200.5)];
        let text = render_jsonl(&records);
        assert_eq!(text.lines().count(), 3);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn line_bytes_are_pinned() {
        // The JSONL schema EXPERIMENTS.md documents: key order, integral
        // floats with a `.0` suffix, integers bare, no whitespace.
        assert_eq!(
            render_line(&record(600.0)),
            "{\"site\":0,\"t_s\":600.0,\"supply_w\":12500.25,\"demand_w\":9800.0,\
             \"utility_w\":0.0,\"queue_depth\":7,\"level_jobs\":[0,1,0,3,9],\
             \"quarantined\":2,\"gco2\":1234.5,\"cost_usd\":0.875}"
        );
    }

    #[test]
    fn parsed_jsonl_renders_back_to_the_same_bytes() {
        let mut awkward = record(1.0 / 3.0);
        awkward.supply_w = 1e-300;
        awkward.demand_w = -0.0;
        awkward.utility_w = 1e300;
        awkward.level_jobs = vec![u64::MAX, 0];
        awkward.site = 7;
        let text = render_jsonl(&[record(0.0), awkward, record(600.0)]);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(render_jsonl(&back), text);
        assert_eq!(
            text.lines().nth(2).unwrap(),
            render_line(&record(600.0)),
            "one record per line, in order"
        );
    }

    #[test]
    fn round_trip_is_bit_exact_for_awkward_floats() {
        let mut r = record(0.1);
        r.supply_w = 1.0 / 3.0;
        r.demand_w = 1e-300;
        r.utility_w = 98_765.432_1;
        let back = parse_line(&render_line(&r)).unwrap();
        assert_eq!(back.supply_w.to_bits(), r.supply_w.to_bits());
        assert_eq!(back.demand_w.to_bits(), r.demand_w.to_bits());
        assert_eq!(back.utility_w.to_bits(), r.utility_w.to_bits());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line("{\"t_s\":1.0}").is_err(), "missing keys");
        assert!(
            parse_line(
                "{\"t_s\":0.0,\"supply_w\":1.0,\"demand_w\":1.0,\"utility_w\":0.0,\
                 \"queue_depth\":0,\"level_jobs\":[0],\"quarantined\":0,\"bogus\":1}"
            )
            .is_err(),
            "unknown key must be rejected"
        );
        assert!(parse_jsonl("{\"t_s\":oops}\n").is_err());
    }

    #[test]
    fn integer_literals_parse_in_float_fields() {
        let line = "{\"t_s\":0,\"supply_w\":1,\"demand_w\":1.5,\"utility_w\":0,\
                    \"queue_depth\":0,\"level_jobs\":[0],\"quarantined\":0,\"gco2\":2}";
        let r = parse_line(line).unwrap();
        assert_eq!(
            (r.t_s, r.supply_w, r.utility_w, r.gco2),
            (0.0, 1.0, 0.0, 2.0)
        );
        assert!(
            parse_line(&line.replace("\"queue_depth\":0", "\"queue_depth\":0.5")).is_err(),
            "an integer channel still rejects a float"
        );
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n\n", render_line(&record(5.0)));
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0], record(5.0));
    }

    #[test]
    fn multi_site_records_round_trip_and_interleave() {
        // A federation writes all sites' streams into one JSONL file;
        // records keep their site tag through the codec.
        let mut a = record(0.0);
        a.site = 2;
        let mut b = record(0.0);
        b.site = 0;
        let text = render_jsonl(&[a.clone(), b.clone()]);
        let back = parse_jsonl(&text).unwrap();
        assert_eq!(back, vec![a, b]);
    }

    #[test]
    fn pre_federation_lines_parse_as_site_zero() {
        // JSONL written before the site channel existed has no "site" key;
        // those streams were single-site by construction.
        let line = "{\"t_s\":0.0,\"supply_w\":1.0,\"demand_w\":1.0,\"utility_w\":0.0,\
                    \"queue_depth\":0,\"level_jobs\":[0],\"quarantined\":0}";
        assert_eq!(parse_line(line).unwrap().site, 0);
    }

    #[test]
    fn pre_carbon_lines_parse_with_zero_integrals() {
        // JSONL written before the gco2/cost channels existed carries
        // neither key; those runs booked nothing.
        let line = "{\"t_s\":0.0,\"supply_w\":1.0,\"demand_w\":1.0,\"utility_w\":0.0,\
                    \"queue_depth\":0,\"level_jobs\":[0],\"quarantined\":0}";
        let r = parse_line(line).unwrap();
        assert_eq!(r.gco2, 0.0);
        assert_eq!(r.cost_usd, 0.0);
    }

    #[test]
    fn empty_level_array_parses() {
        let line = "{\"t_s\":0.0,\"supply_w\":0.0,\"demand_w\":0.0,\"utility_w\":0.0,\
                    \"queue_depth\":0,\"level_jobs\":[],\"quarantined\":0}";
        let r = parse_line(line).unwrap();
        assert!(r.level_jobs.is_empty());
    }
}
