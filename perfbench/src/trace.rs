//! The traced run's record: timings of calls into each layer's public
//! functions, made from the benchmark's own code around those calls, kept
//! in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Samples per layer metric.  A metric's unit follows from its name's
/// suffix (`_s`, `_ms`, `_us`); anything else is a count.
#[derive(Default)]
pub struct Trace {
    samples: BTreeMap<String, Vec<f64>>,
}

impl Trace {
    /// Adds one sample.
    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        self.samples.entry(name.into()).or_default().push(value);
    }

    /// Times `f` and records its duration in the unit `name` ends in.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        let seconds = started.elapsed().as_secs_f64();
        self.add(name, seconds * unit_of(name).1);
        out
    }

    /// Each metric's median sample, with its unit.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        self.samples
            .iter()
            .map(|(name, v)| (name.clone(), crate::stats::median(v), unit_of(name).0))
            .collect()
    }
}

/// `(unit, factor from seconds)` for a metric name.
fn unit_of(name: &str) -> (&'static str, f64) {
    if name.ends_with("_ms") {
        ("ms", 1e3)
    } else if name.ends_with("_us") {
        ("us", 1e6)
    } else if name.ends_with("_s") {
        ("s", 1.0)
    } else {
        ("count", 1.0)
    }
}
