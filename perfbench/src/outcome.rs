//! What one run reports: metrics with units and sample counts, attempted
//! and failed operations per phase, failed checks, and the host
//! fingerprint. The last line printed is the one-line JSON result.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: usize,
}

/// Operations attempted and failed in one phase of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: sheds, typed errors, wrong answers, or
    /// training calls that failed their checks.
    pub failed: u64,
}

/// Facts about the host that explain noise: they are stamped on every
/// result so that a slower host is not read as a regression.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// The SGD kernel backend the program dispatched to.
    pub backend: &'static str,
    /// Median time of a fixed calibration loop, ms.
    pub calib_ms: f64,
    /// How late the query generator ran, p99 µs (serving phases only).
    pub late_p99_us: Option<f64>,
    /// Share of CPU time the hypervisor stole during the run.
    pub steal_frac: Option<f64>,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Per-phase operation counts.
    pub phases: Vec<Phase>,
    /// Context printed beside the metrics (reference values, counts).
    pub notes: Vec<(String, String)>,
    /// Failed checks; any makes the run incorrect.
    pub problems: Vec<String>,
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

impl Outcome {
    /// Adds a metric from a summary, or records why it is missing.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, s: Option<Summary>) {
        match s {
            Some(s) => self.value(name, unit, s.value, s.samples),
            None => self.problem(format!("{name}: too few samples to report")),
        }
    }

    /// Adds a metric value taken over `samples` samples.
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        if !value.is_finite() {
            self.problem(format!("{name}: non-finite value {value}"));
            return;
        }
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds a phase's operation counts.
    pub fn phase(&mut self, name: &'static str, attempted: u64, failed: u64) {
        self.phases.push(Phase {
            name,
            attempted,
            failed,
        });
    }

    /// Adds a context note.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Total operations attempted (at least 1).
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum::<u64>().max(1)
    }

    /// Total operations failed.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed() == 0
    }

    /// The one-line JSON result: correct, attempted, failed, metrics.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted(),
            self.failed(),
            metrics.join(", ")
        )
    }

    /// The full record: result, sample counts, phases, notes, problems and
    /// host fingerprint.
    pub fn record_json(&self, workload: &str, seed: u64, trace: bool, host: &Host) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"samples\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    m.samples
                )
            })
            .collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\": {}, \"attempted\": {}, \"failed\": {}}}",
                    json_str(p.name),
                    p.attempted,
                    p.failed
                )
            })
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let problems: Vec<String> = self.problems.iter().map(|p| json_str(p)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"host\": {{\"nproc\": {}, \"backend\": {}, \
             \"calib_ms\": {}, \"late_p99_us\": {}, \"steal_frac\": {}}}, \"metrics\": [{}], \"phases\": [{}], \
             \"notes\": {{{}}}, \"problems\": [{}]}}\n",
            json_str(workload),
            seed,
            trace,
            self.correct(),
            self.attempted(),
            self.failed(),
            host.nproc,
            json_str(host.backend),
            json_num(host.calib_ms),
            host.late_p99_us.map_or("null".to_string(), json_num),
            host.steal_frac.map_or("null".to_string(), json_num),
            metrics.join(", "),
            phases.join(", "),
            notes.join(", "),
            problems.join(", ")
        )
    }

    /// Human-readable lines: metrics with units and sample counts, phases,
    /// notes, problems and the host fingerprint.
    pub fn human(&self, host: &Host) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "host: nproc={} backend={} calib_ms={:.3} gen.late_p99_us={} steal_frac={}",
            host.nproc,
            host.backend,
            host.calib_ms,
            host.late_p99_us
                .map_or("n/a".to_string(), |v| format!("{v:.1}")),
            host.steal_frac
                .map_or("n/a".to_string(), |v| format!("{v:.4}"))
        );
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {:<28} {:>16.6} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for p in &self.phases {
            let _ = writeln!(
                s,
                "phase  {:<28} attempted={} failed={}",
                p.name, p.attempted, p.failed
            );
        }
        for (k, v) in &self.notes {
            let _ = writeln!(s, "note   {k} = {v}");
        }
        for p in &self.problems {
            let _ = writeln!(s, "FAILED CHECK: {p}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome::default();
        o.value("setup_s", "s", 0.5, 3);
        o.phase("calls", 4, 0);
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_and_missing_metrics_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.phase("q", 10, 1);
        assert!(!o.correct());
        let mut o = Outcome::default();
        o.metric("p99", "us", None);
        o.value("nan", "s", f64::NAN, 1);
        assert!(!o.correct());
        assert_eq!(o.problems.len(), 2);
        assert!(o.metrics.is_empty());
        assert_eq!(o.attempted(), 1, "attempted is at least 1");
    }
}
