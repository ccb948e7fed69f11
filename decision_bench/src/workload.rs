//! The three workloads and the seeded request generator.
//!
//! Every request the server sees comes from here, as a pure function of
//! (workload, seed, round, connection). The server clock is a sim clock that
//! only moves by one `Tick` of [`TICK`] after every round, so the clock
//! reading each request is dispatched at is `round × TICK` on every run —
//! which is what makes every decision, and so every correctness digest,
//! repeat exactly.

use tempo_qs::{QsKind, SloSet, SloSpec};
use tempo_serve::demo::{contention_burst, contention_spec, DEMO_WINDOW};
use tempo_serve::{DomainSpec, Proto, Request};
use tempo_sim::{ClusterSpec, RmConfig, TenantConfig};
use tempo_workload::time::Time;
use tempo_workload::JobSpec;

/// Sim-clock advance between rounds: a quarter of the re-tuning window, so
/// each window overlaps the last four rounds' bursts.
pub const TICK: Time = DEMO_WINDOW / 4;

/// How a workload's domains are built and fed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 4×2-slot cluster, 1 probe, 4-job bursts (2-job standalone ingests).
    Light,
    /// The §8.2 `contention_spec` (8×4 cluster, 3 probes), 24-job bursts.
    Dense,
}

/// How a workload spreads its rounds over domains.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Access {
    /// Every domain gets one fused `IngestAdvance` per round.
    Sweep,
    /// `groups` Zipf(`s`)-drawn groups per connection per round, each
    /// three standalone `Ingest` writes, two `Config` reads and one
    /// `Advance`.
    Zipf { s: f64, groups: u64 },
}

/// One named workload: its sizes, codec, load shape and server settings.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub domains: u64,
    pub shape: Shape,
    pub access: Access,
    pub proto: Proto,
    /// Client connections; connection `c` owns the domains `d % n == c`.
    pub connections: usize,
    /// Requests in flight per connection (1 = synchronous).
    pub pipeline: usize,
    pub closed_rounds: u64,
    pub open_rounds: u64,
    /// Offered load of the open-loop phase, in rounds per second.
    pub open_rate: f64,
    /// Resident-bytes watermark for fleet hibernation.
    pub watermark: Option<u64>,
    pub journal: bool,
    /// Rounds the traced run replays through each layer.
    pub replay_rounds: u64,
}

/// The benchmark's workloads. Sizes are tuned so that an epoch (set-up plus
/// both phases) takes a few seconds on a 2-core machine; see README.md for
/// why each workload exists.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "wire_pipelined",
            domains: 256,
            shape: Shape::Light,
            access: Access::Sweep,
            proto: Proto::Binary,
            connections: 1,
            pipeline: 32,
            closed_rounds: 12,
            open_rounds: 4,
            open_rate: 2.0,
            watermark: None,
            journal: false,
            replay_rounds: 4,
        },
        Workload {
            name: "tune_dense",
            domains: 16,
            shape: Shape::Dense,
            access: Access::Sweep,
            proto: Proto::Binary,
            connections: 1,
            pipeline: 16,
            closed_rounds: 24,
            open_rounds: 16,
            open_rate: 8.0,
            watermark: None,
            journal: false,
            replay_rounds: 6,
        },
        Workload {
            name: "fleet_journal",
            domains: 4096,
            shape: Shape::Light,
            access: Access::Zipf { s: 1.1, groups: 32 },
            proto: Proto::Jsonl,
            connections: 2,
            pipeline: 1,
            closed_rounds: 12,
            open_rounds: 6,
            open_rate: 1.5,
            watermark: Some(2048 * 8192),
            journal: true,
            replay_rounds: 4,
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// What a request is, for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Carries an advance (`IngestAdvance` or `Advance`).
    Decision,
    /// A standalone `Ingest` write.
    Ingest,
    /// A `Config` read.
    Read,
}

/// One generated request and the domain it targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub domain: u64,
    pub class: Class,
    pub request: Request,
}

/// SplitMix64: the generator's only source of randomness.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hash of several words, for deriving independent streams from the seed.
pub fn mix(words: &[u64]) -> u64 {
    words.iter().fold(0x5EED_u64, |acc, &w| splitmix64(acc ^ splitmix64(w)))
}

/// A unit-interval draw from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(s) over ranks `0..n`: rank `i` has probability ∝ `1/(i+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: u64, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    /// The target probability of `rank`.
    #[cfg(test)]
    pub fn pmf(&self, rank: usize) -> f64 {
        self.cdf[rank] - if rank == 0 { 0.0 } else { self.cdf[rank - 1] }
    }

    /// The rank a unit-interval draw `u` falls on.
    pub fn sample(&self, u: f64) -> usize {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A light domain: a 4×2-slot cluster with one probe per decision.
fn light_spec(name: &str, seed: u64) -> DomainSpec {
    let slos = SloSet::new(vec![
        SloSpec::new(Some(0), QsKind::DeadlineMiss { gamma: 0.25 }).with_threshold(0.0),
        SloSpec::new(Some(1), QsKind::AvgResponseTime),
    ]);
    let initial = RmConfig::new(vec![
        TenantConfig::fair_default().with_weight(2.0),
        TenantConfig::fair_default(),
    ]);
    DomainSpec::new(name, ClusterSpec::new(4, 2), slos, initial, DEMO_WINDOW)
        .with_seed(seed)
        .with_probes(1)
}

/// The generated inputs of one workload under one seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub specs: Vec<DomainSpec>,
    /// `rounds[r][c]`: connection `c`'s requests in round `r`, in send order.
    pub rounds: Vec<Vec<Vec<Op>>>,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        let specs = (0..workload.domains)
            .map(|d| {
                let name = format!("{}-{d}", workload.name);
                let dseed = mix(&[seed, 1, d]);
                match workload.shape {
                    Shape::Light => light_spec(&name, dseed),
                    Shape::Dense => contention_spec(&name, dseed),
                }
            })
            .collect();
        let total = workload.closed_rounds + workload.open_rounds;
        let zipf = match workload.access {
            Access::Zipf { s, .. } => {
                Some(Zipf::new(workload.domains / workload.connections as u64, s))
            }
            Access::Sweep => None,
        };
        // Zipf ranks map onto each connection's domains through a seeded
        // permutation, so the hot domains differ from seed to seed.
        let owned: Vec<Vec<u64>> = (0..workload.connections)
            .map(|c| {
                let mut ids: Vec<u64> = (0..workload.domains)
                    .filter(|d| d % workload.connections as u64 == c as u64)
                    .collect();
                ids.sort_by_key(|&d| mix(&[seed, 2, d]));
                ids
            })
            .collect();
        let rounds = (0..total)
            .map(|r| {
                (0..workload.connections)
                    .map(|c| round_ops(workload, seed, r, &owned[c], zipf.as_ref()))
                    .collect()
            })
            .collect();
        Inputs { workload: workload.clone(), seed, specs, rounds }
    }
}

/// A burst of `count` jobs placed inside the window that ends at `now`.
fn burst(shape: Shape, now: Time, count: u64, salt: u64) -> Vec<JobSpec> {
    // Light bursts span ~80 s and sit wholly inside the window; dense ones
    // span ~8 min, so each also reaches into the next windows.
    let back = match shape {
        Shape::Light => 2 * TICK,
        Shape::Dense => DEMO_WINDOW,
    };
    contention_burst(now.saturating_sub(back), count, salt)
}

fn round_ops(w: &Workload, seed: u64, round: u64, owned: &[u64], zipf: Option<&Zipf>) -> Vec<Op> {
    let now = round * TICK;
    let count = match w.shape {
        Shape::Light => 4,
        Shape::Dense => 24,
    };
    match (w.access, zipf) {
        (Access::Zipf { groups, .. }, Some(zipf)) => {
            let mut ops = Vec::new();
            for g in 0..groups {
                let draw =
                    |k: u64| owned[zipf.sample(unit(mix(&[seed, 3, round, owned[0], g, k])))];
                let (a, b, e) = (draw(0), draw(1), draw(2));
                for (k, d) in [a, b, e].into_iter().enumerate() {
                    let jobs = burst(w.shape, now, 2, mix(&[seed, 4, round, d, g, k as u64]));
                    ops.push(Op {
                        domain: d,
                        class: Class::Ingest,
                        request: Request::Ingest { domain: d, jobs },
                    });
                }
                for d in [b, e] {
                    ops.push(Op {
                        domain: d,
                        class: Class::Read,
                        request: Request::Config { domain: d },
                    });
                }
                ops.push(Op {
                    domain: a,
                    class: Class::Decision,
                    request: Request::Advance { domain: a, steps: 1 },
                });
            }
            ops
        }
        _ => owned
            .iter()
            .map(|&d| Op {
                domain: d,
                class: Class::Decision,
                request: Request::IngestAdvance {
                    domain: d,
                    jobs: burst(w.shape, now, count, mix(&[seed, 4, round, d])),
                    steps: 1,
                },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rank_frequencies_match_the_target() {
        let n = 64;
        let zipf = Zipf::new(n, 1.1);
        let draws = 200_000u64;
        let mut counts = vec![0u64; n as usize];
        for i in 0..draws {
            counts[zipf.sample(unit(mix(&[99, i])))] += 1;
        }
        let mut tv = 0.0;
        for (rank, &c) in counts.iter().enumerate() {
            let p = zipf.pmf(rank);
            let freq = c as f64 / draws as f64;
            let sigma = (p * (1.0 - p) / draws as f64).sqrt();
            assert!((freq - p).abs() < 5.0 * sigma + 1e-9, "rank {rank}: {freq} vs {p}");
            tv += (freq - p).abs() / 2.0;
        }
        assert!(tv < 0.01, "total variation {tv}");
        assert!(zipf.pmf(0) > zipf.pmf(1) && zipf.pmf(1) > zipf.pmf(10));
    }
}
