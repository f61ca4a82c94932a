//! Seeded inputs: an endless stream of synthetic log records from
//! `logstore::gen`, with monotonically increasing times.

use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::{AttrValue, LogRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// Generated records, drawn in chunks so a run of any length gets an
/// endless, seed-determined sequence.
pub struct RecordStream {
    rng: StdRng,
    users: usize,
    next_time: u64,
    pending: VecDeque<LogRecord>,
}

impl RecordStream {
    /// A stream over `users` application users (`U1 … Uusers`).
    pub fn new(seed: u64, users: usize) -> Self {
        RecordStream {
            rng: StdRng::seed_from_u64(seed),
            users,
            next_time: WorkloadConfig::default().start_time,
            pending: VecDeque::new(),
        }
    }

    /// The next `n` records.
    pub fn take(&mut self, n: usize) -> Vec<LogRecord> {
        while self.pending.len() < n {
            let chunk = generate(
                &WorkloadConfig {
                    records: 256,
                    users: self.users,
                    start_time: self.next_time,
                    ..WorkloadConfig::default()
                },
                &mut self.rng,
            );
            if let Some(AttrValue::Time(t)) = chunk.last().and_then(|r| r.get(&"time".into())) {
                self.next_time = *t;
            }
            self.pending.extend(chunk);
        }
        self.pending.drain(..n).collect()
    }
}

/// A paper-format time literal (`HH:MM:SS/MM/DD/YYYY`) for criteria.
pub fn time_literal(t: u64) -> String {
    AttrValue::Time(t).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn time_of(record: &LogRecord) -> u64 {
        match record.get(&"time".into()) {
            Some(AttrValue::Time(t)) => *t,
            _ => unreachable!("generated records carry a time"),
        }
    }

    #[test]
    fn same_seed_same_stream_and_times_increase() {
        let a = RecordStream::new(9, 5).take(600);
        let b = RecordStream::new(9, 5).take(600);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| time_of(&w[0]) < time_of(&w[1])));
        assert_ne!(a, RecordStream::new(10, 5).take(600));
    }
}
