//! The correctness reference: a standalone `tempo_serve::Domain` fed the
//! same `(now, jobs)` inputs, one op at a time, in per-domain order.

use crate::workload::{Inputs, TICK};
use std::collections::BTreeMap;
use tempo_serve::{DecisionRecord, Domain, IngestOutcome, Request, Response};
use tempo_workload::time::Time;

/// Executes a domain op the way the server's shard does, returning the
/// response the wire would carry.
pub fn apply(domain: &mut Domain, now: Time, request: &Request) -> Response {
    let accepted = |o: IngestOutcome| o.accepted();
    match request {
        Request::Ingest { domain: id, jobs } => {
            Response::Ingested { domain: *id, accepted: accepted(domain.ingest(now, jobs.clone())) }
        }
        Request::Advance { domain: id, steps } => Response::Advanced {
            domain: *id,
            decisions: (0..*steps).map(|_| domain.advance(now)).collect(),
        },
        Request::IngestAdvance { domain: id, jobs, steps } => {
            let accepted = accepted(domain.ingest(now, jobs.clone()));
            Response::IngestAdvanced {
                domain: *id,
                accepted,
                retry_after_micros: None,
                decisions: (0..*steps).map(|_| domain.advance(now)).collect(),
            }
        }
        Request::Config { domain: id } => {
            Response::Config { domain: *id, config: domain.current_config() }
        }
        other => panic!("not a domain op: {other:?}"),
    }
}

/// The decision records a response carries.
pub fn decisions(response: &Response) -> &[DecisionRecord] {
    match response {
        Response::Advanced { decisions, .. } | Response::IngestAdvanced { decisions, .. } => {
            decisions
        }
        _ => &[],
    }
}

/// FNV-1a over the JSON encoding of each record, chained in stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, record: &DecisionRecord) {
        for b in tempo_serve::proto::encode(record).bytes().chain([b'\n']) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Replays every generated op on `ids` through standalone domains and
/// returns each domain's decision digest and decision count.
pub fn replay(inputs: &Inputs, ids: &[u64]) -> BTreeMap<u64, (Digest, u64)> {
    let mut out = BTreeMap::new();
    for &id in ids {
        let mut domain = Domain::new(inputs.specs[id as usize].clone()).expect("valid spec");
        let mut digest = Digest::default();
        let mut count = 0;
        let conn = (id % inputs.workload.connections as u64) as usize;
        for (r, round) in inputs.rounds.iter().enumerate() {
            for op in round[conn].iter().filter(|op| op.domain == id) {
                for rec in decisions(&apply(&mut domain, r as Time * TICK, &op.request)) {
                    digest.push(rec);
                    count += 1;
                }
            }
        }
        out.insert(id, (digest, count));
    }
    out
}

/// A fixed sample of domains to check: eight, spread over the range of
/// how often the stream advances each domain.
pub fn sample(inputs: &Inputs) -> Vec<u64> {
    let mut advances: BTreeMap<u64, u64> = BTreeMap::new();
    for round in &inputs.rounds {
        for op in round.iter().flatten() {
            if op.class == crate::workload::Class::Decision {
                *advances.entry(op.domain).or_default() += 1;
            }
        }
    }
    let mut ranked: Vec<(u64, u64)> = advances.into_iter().map(|(d, n)| (n, d)).collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let picks = 8.min(ranked.len());
    let mut ids: Vec<u64> =
        (0..picks).map(|i| ranked[i * (ranked.len() - 1) / (picks - 1).max(1)].1).collect();
    ids.dedup();
    ids
}
