//! The four workloads and the operation streams they derive from the
//! workload seed. The program only ever sees the generated inputs: request
//! lines whose ids (and so the server's deterministic seeds) derive from
//! the workload seed, or trial seeds.

use crate::check::Expect;

/// Population of one Fig. 4 trial.
pub const TRIAL_TAGS: usize = 100_000;
/// Rounds of one Fig. 4 trial.
pub const TRIAL_ROUNDS: u32 = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `estimate`, 200 tags, 4 rounds: transport, parse and format dominate.
    EstimateSmall,
    /// `estimate`, 10,000 tags at ε 0.05, δ 0.01: the kernel dominates.
    EstimatePaper,
    /// `monitor` over a churning 10,000-tag population: churn, key
    /// collection and uncached bank building dominate.
    MonitorChurn,
    /// `pet_trial(100_000, 64, seed)`: hashing and radix sort dominate.
    Fig4Trial,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::EstimateSmall,
        Workload::EstimatePaper,
        Workload::MonitorChurn,
        Workload::Fig4Trial,
    ];

    /// The workload's `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EstimateSmall => "estimate-small",
            Workload::EstimatePaper => "estimate-paper",
            Workload::MonitorChurn => "monitor-churn",
            Workload::Fig4Trial => "fig4-trial",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per window of the (ungated) windowed-median throughput:
    /// about 10 ms of work each.
    pub fn window(self) -> usize {
        match self {
            Workload::EstimateSmall => 100,
            Workload::EstimatePaper => 5,
            Workload::MonitorChurn => 3,
            Workload::Fig4Trial => 5,
        }
    }

    /// Warm-up operations per set-up; they fill the caches the timed
    /// operations then hit.
    pub fn warmup(self) -> usize {
        match self {
            Workload::EstimateSmall => 200,
            Workload::EstimatePaper => 16,
            Workload::MonitorChurn => 8,
            Workload::Fig4Trial => 16,
        }
    }

    /// Leading timed operations whose estimates feed `rel_rmse` (and, for
    /// monitor and trial workloads, the bit-for-bit replay that yields
    /// their slots). A fixed prefix keeps both exact for a given seed
    /// however many operations the run completes.
    pub fn checked_prefix(self) -> usize {
        match self {
            Workload::EstimateSmall => 100_000,
            Workload::EstimatePaper => 1024,
            Workload::MonitorChurn => 256,
            Workload::Fig4Trial => 4096,
        }
    }

    /// Whether the workload is served over the wire.
    pub fn served(self) -> bool {
        self != Workload::Fig4Trial
    }

    /// The reply each request of a served workload must get.
    pub fn expect(self) -> Expect {
        match self {
            Workload::EstimateSmall => Expect::Estimate { tags: 200 },
            Workload::EstimatePaper => Expect::Estimate { tags: 10_000 },
            Workload::MonitorChurn => Expect::Monitor { updates: 8 },
            Workload::Fig4Trial => unreachable!("fig4-trial sends no requests"),
        }
    }

    fn body(self) -> &'static str {
        match self {
            Workload::EstimateSmall => r#""verb":"estimate","tags":200,"rounds":4"#,
            Workload::EstimatePaper => {
                r#""verb":"estimate","tags":10000,"epsilon":0.05,"delta":0.01"#
            }
            Workload::MonitorChurn => {
                r#""verb":"monitor","tags":10000,"updates":8,"window":4,"rounds":32,"churn_rate":20,"burst_at":5,"burst_size":2500"#
            }
            Workload::Fig4Trial => unreachable!("fig4-trial sends no requests"),
        }
    }
}

/// Id of timed operation `i` of the stream for `seed`.
pub fn op_id(seed: u64, i: u64) -> String {
    format!("s{seed:x}-{i}")
}

/// Id of warm-up operation `j` of set-up `setup`.
pub fn warmup_id(seed: u64, setup: usize, j: usize) -> String {
    format!("w{seed:x}-{setup}-{j}")
}

/// The request line of a served workload for `id`.
pub fn request_line(workload: Workload, id: &str) -> String {
    format!("{{\"id\":\"{id}\",{}}}", workload.body())
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed of timed trial `i` of the stream for `seed`.
pub fn trial_seed(seed: u64, i: u64) -> u64 {
    mix(mix(seed) ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Seed of warm-up trial `j` of set-up `setup` (disjoint from the timed
/// stream's by the high bit of the index).
pub fn warmup_trial_seed(seed: u64, setup: usize, j: usize) -> u64 {
    trial_seed(seed, (1 << 63) | ((setup as u64) << 32) | j as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_streams_follow_the_seed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(trial_seed(1, 2), trial_seed(1, 2));
        assert_ne!(trial_seed(1, 2), trial_seed(2, 2));
        assert_ne!(trial_seed(1, 2), trial_seed(1, 3));
        assert_ne!(op_id(1, 0), op_id(2, 0));
        let line = request_line(Workload::EstimateSmall, &op_id(7, 3));
        assert_eq!(
            line,
            r#"{"id":"s7-3","verb":"estimate","tags":200,"rounds":4}"#
        );
        for w in Workload::ALL.into_iter().filter(|w| w.served()) {
            assert!(
                pet_server::parse_request(&request_line(w, "x")).is_ok(),
                "{w:?}"
            );
        }
    }
}
