//! Shared experiment configuration and output plumbing.
//!
//! The paper's testbed is a 4800-CPU datacenter driven by the LLNL Thunder
//! trace and an NREL wind trace scaled to 3.5 %. The default experiment
//! scale here is a 1/20 model (240 CPUs, proportionally scaled wind and
//! job count): every mechanism and all relative comparisons are preserved
//! while a full figure regenerates in seconds. `ExpScale::Paper` runs the
//! full 4800-CPU configuration; `ExpScale::Fast` is the bench-sized cell.

use iscope::prelude::*;
use iscope::snapshot::{render, ToVal};
use iscope::GreenDatacenterSim;
use iscope_sched::Scheme;
use iscope_workload::SyntheticTrace;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpScale {
    /// Criterion-bench cell: 48 CPUs, 80 jobs.
    Fast,
    /// Default: 1/20 of the paper (240 CPUs, 400 jobs).
    Default,
    /// The paper's full 4800-CPU datacenter (slow).
    Paper,
}

/// Concrete knobs derived from a scale.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Processors in the fleet.
    pub fleet_size: usize,
    /// Jobs per run.
    pub jobs: usize,
    /// Widest job the synthetic trace generates (kept well below the
    /// fleet so gang scheduling cannot deadlock the whole pool).
    pub max_cpus: u32,
    /// Wind-farm output scaling relative to the 4800-CPU default farm.
    pub wind_scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Wind-trace duration.
    pub wind_span: SimDuration,
    /// Run every simulation under the strict energy-conservation auditor
    /// (`iscope-exp --audit`). Audited runs are bit-identical to bare
    /// ones but panic if any run-wide invariant is breached.
    pub audit: bool,
}

impl ExpConfig {
    /// Builds the knobs for a scale.
    pub fn new(scale: ExpScale) -> ExpConfig {
        // Job widths stay well below the fleet (~fleet/8): a gang job
        // comparable to the whole pool serializes everything behind it,
        // which measures head-of-line blocking instead of the paper's
        // scheduling effects.
        let (fleet_size, jobs, max_cpus) = match scale {
            ExpScale::Fast => (48, 200, 8),
            ExpScale::Default => (240, 1000, 32),
            ExpScale::Paper => (4800, 20_000, 512),
        };
        ExpConfig {
            fleet_size,
            jobs,
            max_cpus,
            wind_scale: fleet_size as f64 / 4800.0,
            seed: 42,
            wind_span: SimDuration::from_hours(168),
            audit: false,
        }
    }

    /// A builder pre-set with this config's fleet/workload and scheme.
    pub fn sim(&self, scheme: Scheme) -> GreenDatacenterSim {
        let b = GreenDatacenterSim::builder()
            .fleet_size(self.fleet_size)
            .synthetic_trace(SyntheticTrace {
                num_jobs: self.jobs,
                max_cpus: self.max_cpus,
                ..SyntheticTrace::default()
            })
            .scheme(scheme)
            .seed(self.seed);
        if self.audit {
            b.audit(iscope::AuditConfig::default())
        } else {
            b
        }
    }

    /// The scenario nearly every figure runs: this config's fleet and
    /// workload under `scheme`, powered by the hybrid wind supply at
    /// `swp` times standard wind power.
    pub fn wind_sim(&self, scheme: Scheme, swp: f64) -> GreenDatacenterSim {
        self.sim(scheme).supply(self.wind_supply(swp))
    }

    /// The wind supply at a given SWP factor (1.0 = standard wind power).
    pub fn wind_supply(&self, swp: f64) -> Supply {
        Supply::hybrid_farm(
            &WindFarm::default(),
            self.wind_span,
            self.wind_scale * swp,
            self.seed,
        )
    }
}

/// A generic labelled table: one row per scheme/parameter combination.
#[derive(Debug, Clone)]
pub struct ExpTable {
    /// Experiment id, e.g. `"fig5a"`.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column labels (x-axis values).
    pub columns: Vec<String>,
    /// Rows: `(series label, values)`.
    pub rows: Vec<(String, Vec<f64>)>,
}

iscope::to_val!(ExpTable, |e| {
    "id" => e.id,
    "title" => e.title,
    "columns" => e.columns,
    "rows" => e.rows,
});

impl ExpTable {
    /// Renders the table in the alignment the harness prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n", self.id, self.title));
        out.push_str(&format!("{:<10}", ""));
        for c in &self.columns {
            out.push_str(&format!("{c:>12}"));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("{label:<10}"));
            for v in values {
                out.push_str(&format!("{v:>12.3}"));
            }
            out.push('\n');
        }
        out
    }

    /// Looks up a row by label.
    pub fn row(&self, label: &str) -> Option<&[f64]> {
        self.rows
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, v)| v.as_slice())
    }
}

/// Writes an experiment's JSON next to the repository's results.
pub fn write_json<T: ToVal>(id: &str, value: &T) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.json"));
    write_val(&path, id, value)?;
    Ok(path)
}

/// Renders `value` as one line of compact JSON (plus a trailing newline)
/// and writes it to `path`. A value JSON cannot carry, such as a
/// non-finite float, fails the write and names its field.
pub(crate) fn write_val<T: ToVal>(
    path: &std::path::Path,
    what: &str,
    value: &T,
) -> std::io::Result<()> {
    let val = value.to_val(what).map_err(std::io::Error::other)?;
    let mut out = String::new();
    render(&val, &mut out);
    out.push('\n');
    std::fs::write(path, out)
}

/// Writes a run's telemetry time series as `results/{id}.jsonl` (one
/// record per line, schema in EXPERIMENTS.md).
pub fn write_telemetry(
    id: &str,
    records: &[iscope::TelemetryRecord],
) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{id}.jsonl"));
    std::fs::write(&path, iscope::telemetry::render_jsonl(records))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope::snapshot::{parse, Val};

    /// Renders `value` through its field list and parses the text back.
    fn round_trip(value: &impl ToVal) -> Val {
        let mut text = String::new();
        render(&value.to_val("test").unwrap(), &mut text);
        assert!(!text.contains("__offline_stub__"));
        parse(&text).unwrap()
    }

    fn keys(v: &Val) -> Vec<&str> {
        match v {
            Val::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("expected an object, found {other:?}"),
        }
    }

    /// The bits of every float in `v`, in document order.
    fn float_bits(v: &Val) -> Vec<u64> {
        match v {
            Val::Float(f) => vec![f.to_bits()],
            Val::Arr(items) => items.iter().flat_map(float_bits).collect(),
            Val::Obj(fields) => fields.iter().flat_map(|(_, x)| float_bits(x)).collect(),
            _ => Vec::new(),
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fig4_renders_its_fields_in_order_bit_exactly() {
        let f = crate::fig4::run(crate::fig4::CALIBRATED_SEED);
        let v = round_trip(&f);
        assert_eq!(
            keys(&v),
            [
                "vmin_gpu_off",
                "vmin_gpu_on",
                "mean_off",
                "mean_on",
                "nominal"
            ]
        );
        assert_eq!(
            float_bits(v.get("vmin_gpu_off").unwrap()),
            bits(&f.vmin_gpu_off)
        );
        assert_eq!(
            float_bits(v.get("vmin_gpu_on").unwrap()),
            bits(&f.vmin_gpu_on)
        );
        for (key, x) in [
            ("mean_off", f.mean_off),
            ("mean_on", f.mean_on),
            ("nominal", f.nominal),
        ] {
            assert_eq!(float_bits(v.get(key).unwrap()), bits(&[x]), "{key}");
        }
    }

    #[test]
    fn tables_render_rows_as_label_value_pairs() {
        let t = ExpTable {
            id: "figX".into(),
            title: "test".into(),
            columns: vec!["0".into(), "25".into()],
            rows: vec![
                ("BinRan".into(), vec![1.0 / 3.0, -0.0]),
                ("ScanFair".into(), vec![1e-300, 2.0]),
            ],
        };
        let v = round_trip(&t);
        assert_eq!(keys(&v), ["id", "title", "columns", "rows"]);
        assert_eq!(v.get("id").unwrap(), &Val::Str("figX".into()));
        let Val::Arr(rows) = v.get("rows").unwrap() else {
            panic!("rows must be an array")
        };
        for ((label, values), row) in t.rows.iter().zip(rows) {
            let Val::Arr(pair) = row else {
                panic!("a row must be a [label, values] pair")
            };
            assert_eq!(pair[0], Val::Str(label.clone()));
            assert_eq!(float_bits(&pair[1]), bits(values));
        }
    }

    #[test]
    fn a_non_finite_field_fails_the_save_and_names_the_field() {
        use iscope_dcsim::TimeSeries;
        use iscope_scanner::{analyse_windows, estimate_campaign};
        // Demand never drops below the threshold: no idle capacity, so the
        // campaign never completes.
        let demand = TimeSeries {
            name: "demand".into(),
            interval: SimDuration::from_mins(1),
            values: vec![100.0; 10],
        };
        let report = analyse_windows(&demand, 100.0, 0.3);
        let c = estimate_campaign(&report, 10, SimDuration::from_secs(29), demand.interval);
        assert_eq!(c.periods_to_complete, f64::INFINITY);
        let err = c.to_val("sbft_campaign").unwrap_err();
        assert!(err.to_string().contains("periods_to_complete"), "{err}");
    }

    #[test]
    fn scales_are_proportional() {
        let fast = ExpConfig::new(ExpScale::Fast);
        let def = ExpConfig::new(ExpScale::Default);
        let paper = ExpConfig::new(ExpScale::Paper);
        assert_eq!(paper.fleet_size, 4800);
        assert!(fast.fleet_size < def.fleet_size);
        assert!(
            (paper.wind_scale - 1.0).abs() < 1e-12,
            "paper scale uses the full farm"
        );
        assert!((def.wind_scale - 0.05).abs() < 1e-12);
    }

    #[test]
    fn table_renders_rows_and_finds_them() {
        let t = ExpTable {
            id: "figX".into(),
            title: "test".into(),
            columns: vec!["0".into(), "25".into()],
            rows: vec![("BinRan".into(), vec![1.0, 2.0])],
        };
        let s = t.render();
        assert!(s.contains("figX"));
        assert!(s.contains("BinRan"));
        assert_eq!(t.row("BinRan"), Some(&[1.0, 2.0][..]));
        assert_eq!(t.row("nope"), None);
    }
}

/// Renders a unicode sparkline of a series (8 block heights), downsampling
/// by averaging to at most `width` columns — the trace figures' shape at a
/// terminal glance.
pub fn sparkline(values: &[f64], width: usize) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let cols = width.min(values.len());
    let chunk = values.len().div_ceil(cols);
    let condensed: Vec<f64> = values
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let lo = condensed.iter().cloned().fold(f64::MAX, f64::min);
    let hi = condensed.iter().cloned().fold(f64::MIN, f64::max);
    let span = (hi - lo).max(1e-12);
    condensed
        .iter()
        .map(|v| BLOCKS[(((v - lo) / span) * 7.0).round() as usize])
        .collect()
}

#[cfg(test)]
mod sparkline_tests {
    use super::sparkline;

    #[test]
    fn ramps_render_monotonically() {
        let v: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(sparkline(&v, 8), "▁▂▃▄▅▆▇█");
    }

    #[test]
    fn downsampling_respects_width() {
        let v: Vec<f64> = (0..100).map(|i| (i as f64 / 10.0).sin()).collect();
        let s = sparkline(&v, 20);
        assert_eq!(s.chars().count(), 20);
    }

    #[test]
    fn flat_and_empty_edge_cases() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[5.0; 4], 10).chars().count(), 4);
        assert_eq!(sparkline(&[1.0], 0), "");
    }
}
