//! Named sample series recorded by a rank: the benchmark's spans. Each
//! timed call into a layer lands in the series named after the layer and
//! the call, and the ledger is computed from these series once the run
//! has ended.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::stats::Samples;

#[derive(Debug, Default)]
pub struct Rec(BTreeMap<String, Samples>);

impl Rec {
    pub fn add(&mut self, key: &str, v: f64) {
        match self.0.get_mut(key) {
            Some(s) => s.push(v),
            None => {
                self.0.insert(key.to_string(), Samples(vec![v]));
            }
        }
    }

    /// Records a duration in microseconds.
    pub fn us(&mut self, key: &str, d: Duration) {
        self.add(key, d.as_secs_f64() * 1e6);
    }

    /// The series under `key`; empty if nothing was recorded.
    pub fn get(&self, key: &str) -> Samples {
        self.0.get(key).cloned().unwrap_or_default()
    }

    pub fn median(&self, key: &str) -> f64 {
        self.0.get(key).map_or(f64::NAN, Samples::median)
    }
}
