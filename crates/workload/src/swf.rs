//! Standard Workload Format (SWF) parsing and writing.
//!
//! The Parallel Workloads Archive the paper draws its LLNL Thunder trace
//! from distributes logs in SWF: one job per line, 18 whitespace-separated
//! fields, `;`-prefixed header comments. This module parses the format
//! faithfully, so a real PWA file can be dropped into the simulator, and
//! writes it back for round-tripping synthetic traces.
//!
//! Field reference (1-based, per the PWA definition):
//! 1 job number · 2 submit time (s) · 3 wait time (s) · 4 run time (s) ·
//! 5 allocated processors · 6 average CPU time used · 7 used memory ·
//! 8 requested processors · 9 requested time · 10 requested memory ·
//! 11 status · 12 user id · 13 group id · 14 executable · 15 queue ·
//! 16 partition · 17 preceding job · 18 think time.

/// One parsed SWF record (the fields the simulator consumes, plus enough
/// to reconstruct a valid line).
#[derive(Debug, Clone, PartialEq)]
pub struct SwfRecord {
    /// Field 1: job number.
    pub job_number: u64,
    /// Field 2: submit time, seconds from the trace origin.
    pub submit_s: f64,
    /// Field 3: wait time in the original system's queue (s), -1 if unknown.
    pub wait_s: f64,
    /// Field 4: actual run time (s).
    pub run_s: f64,
    /// Field 5: number of allocated processors.
    pub allocated_procs: i64,
    /// Field 8: number of requested processors (-1 if unknown).
    pub requested_procs: i64,
    /// Field 9: requested (estimated) time (s), -1 if unknown.
    pub requested_s: f64,
    /// Field 11: completion status (1 = completed OK).
    pub status: i64,
}

impl SwfRecord {
    /// Effective processor request: requested if present, else allocated.
    pub fn procs(&self) -> Option<u32> {
        let p = if self.requested_procs > 0 {
            self.requested_procs
        } else {
            self.allocated_procs
        };
        (p > 0).then_some(p as u32)
    }

    /// True if the record describes a usable job (ran for positive time on
    /// at least one processor).
    pub fn is_usable(&self) -> bool {
        self.run_s > 0.0 && self.procs().is_some() && self.submit_s >= 0.0
    }

    /// Formats the record as a full 18-field SWF line (fields this struct
    /// does not model are emitted as `-1`). Times use `{}` (shortest
    /// round-trip float formatting), so fractional seconds survive a
    /// parse → write → parse cycle instead of being rounded away.
    pub fn to_line(&self) -> String {
        format!(
            "{} {} {} {} {} -1 -1 {} {} -1 {} -1 -1 -1 -1 -1 -1 -1",
            self.job_number,
            self.submit_s,
            self.wait_s,
            self.run_s,
            self.allocated_procs,
            self.requested_procs,
            self.requested_s,
            self.status,
        )
    }
}

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for SwfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SWF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SwfError {}

/// Parses one SWF line. Returns `None` for comments and blank lines.
///
/// `line_no` is the 1-based line number used in error messages. Numeric
/// fields must be finite: `f64::from_str` happily accepts `NaN` and
/// `inf`, and a NaN submit or run time would poison every downstream
/// sort and percentile (the old `WorkloadStats` percentile panic), so
/// malformed values are rejected here at the boundary.
pub fn parse_swf_line(raw: &str, line_no: usize) -> Result<Option<SwfRecord>, SwfError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with(';') {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() < 11 {
        return Err(SwfError {
            line: line_no,
            message: format!("expected >= 11 fields, found {}", fields.len()),
        });
    }
    let f = |i: usize| -> Result<f64, SwfError> {
        let v: f64 = fields[i].parse().map_err(|e| SwfError {
            line: line_no,
            message: format!("field {}: {e}", i + 1),
        })?;
        if !v.is_finite() {
            return Err(SwfError {
                line: line_no,
                message: format!("field {}: non-finite value {v}", i + 1),
            });
        }
        Ok(v)
    };
    let g = |i: usize| -> Result<i64, SwfError> {
        fields[i].parse().map_err(|e| SwfError {
            line: line_no,
            message: format!("field {}: {e}", i + 1),
        })
    };
    let job_number = g(0)?;
    if job_number < 0 {
        return Err(SwfError {
            line: line_no,
            message: format!("field 1: negative job number {job_number}"),
        });
    }
    Ok(Some(SwfRecord {
        job_number: job_number as u64,
        submit_s: f(1)?,
        wait_s: f(2)?,
        run_s: f(3)?,
        allocated_procs: g(4)?,
        requested_procs: g(7)?,
        requested_s: f(8)?,
        status: g(10)?,
    }))
}

/// Parses SWF text into records, skipping `;` comments and blank lines.
pub fn parse_swf(text: &str) -> Result<Vec<SwfRecord>, SwfError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        if let Some(rec) = parse_swf_line(raw, idx + 1)? {
            out.push(rec);
        }
    }
    Ok(out)
}

/// Writes records as SWF text with a minimal header.
pub fn write_swf(records: &[SwfRecord], computer: &str) -> String {
    let mut out = String::with_capacity(64 + records.len() * 64);
    out.push_str(&format!("; Computer: {computer}\n"));
    out.push_str("; Version: 2.2\n");
    out.push_str("; Generated by iscope-workload\n");
    for r in records {
        out.push_str(&r.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; Computer: LLNL Thunder
; Processors: 4096
1 0 30 600 64 -1 -1 64 3600 -1 1 5 1 -1 1 -1 -1 -1
2 120 0 59 8 -1 -1 -1 600 -1 1 5 1 -1 1 -1 -1 -1
3 180 10 0 16 -1 -1 16 900 -1 0 7 1 -1 1 -1 -1 -1
";

    #[test]
    fn parses_sample_skipping_comments() {
        let recs = parse_swf(SAMPLE).unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].job_number, 1);
        assert_eq!(recs[0].submit_s, 0.0);
        assert_eq!(recs[0].run_s, 600.0);
        assert_eq!(recs[0].requested_procs, 64);
        assert_eq!(recs[1].requested_procs, -1);
    }

    #[test]
    fn procs_falls_back_to_allocated() {
        let recs = parse_swf(SAMPLE).unwrap();
        assert_eq!(recs[0].procs(), Some(64));
        assert_eq!(recs[1].procs(), Some(8), "requested = -1 falls back");
    }

    #[test]
    fn usability_filters_zero_runtime() {
        let recs = parse_swf(SAMPLE).unwrap();
        assert!(recs[0].is_usable());
        assert!(recs[1].is_usable());
        assert!(!recs[2].is_usable(), "zero-runtime job is unusable");
    }

    #[test]
    fn round_trip_through_writer() {
        let recs = parse_swf(SAMPLE).unwrap();
        let text = write_swf(&recs, "LLNL Thunder");
        let again = parse_swf(&text).unwrap();
        assert_eq!(recs, again);
    }

    #[test]
    fn fractional_times_round_trip() {
        let line = "7 10.5 0.25 59.125 8 -1 -1 8 600.75 -1 1";
        let recs = parse_swf(line).unwrap();
        assert_eq!(recs[0].submit_s, 10.5);
        assert_eq!(recs[0].run_s, 59.125);
        let text = write_swf(&recs, "frac");
        let again = parse_swf(&text).unwrap();
        assert_eq!(recs, again, "parse -> write -> parse is a fixed point");
        // And a second cycle stays put (true fixed point, not just equal).
        assert_eq!(write_swf(&again, "frac"), text);
    }

    #[test]
    fn rejects_negative_job_numbers() {
        let bad = "-3 0 0 60 4 -1 -1 4 100 -1 1";
        let err = parse_swf(bad).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("negative job number"), "{err}");
    }

    #[test]
    fn rejects_short_lines_with_location() {
        let err = parse_swf("; header\n1 2 3\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("fields"));
    }

    #[test]
    fn rejects_non_numeric_fields() {
        let bad = "1 0 0 xyz 4 -1 -1 4 100 -1 1";
        let err = parse_swf(bad).unwrap_err();
        assert!(err.message.contains("field 4"), "{err}");
    }

    #[test]
    fn rejects_non_finite_fields() {
        // f64::from_str accepts these spellings; the parser must not.
        for bad in [
            "1 NaN 0 60 4 -1 -1 4 100 -1 1",
            "1 0 0 nan 4 -1 -1 4 100 -1 1",
            "1 0 0 inf 4 -1 -1 4 100 -1 1",
            "1 0 0 60 4 -1 -1 4 -inf -1 1",
        ] {
            let err = parse_swf(bad).unwrap_err();
            assert!(err.message.contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn empty_input_is_empty_trace() {
        assert!(parse_swf("").unwrap().is_empty());
        assert!(parse_swf("; only comments\n").unwrap().is_empty());
    }
}
